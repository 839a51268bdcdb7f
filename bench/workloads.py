"""The timed calls of each workload, with how to normalize and check them.

A call's ``run`` looks every library function up through its module or
class at call time, so the tracer's wrappers are used when installed.
``normalize`` turns the raw result into plain JSON data for the digest
and the checks; it runs outside the timed region.  ``check`` receives
the normalized output and the outputs of the pass by call id, so that a
call can be checked against a sibling call on the same input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Call:
    id: str
    run: Callable[[], object]
    normalize: Callable[[object], object]
    check: Callable[[object, dict], list]


def _bits(state) -> str:
    return "".join(str(b) for b in state)


def _same(value):
    return value


def _analyze_calls(lib, seed: int) -> list[Call]:
    calls = []
    for item in inputs.analyze_items(seed):

        def run(text=item.payload):
            report = lib.structure.analyze(lib.formats.parse_signed_digraph(text))
            return json.dumps(
                {"schema_version": lib.cli.SCHEMA_VERSION, **report.to_dict()}, sort_keys=True
            )

        def check(out, outputs, kind=item.kind, k=item.k):
            return checks.check_analyze(kind, out, k)

        calls.append(Call(item.id, run, _same, check))
    return calls


def _verify_calls(lib, seed: int) -> list[Call]:
    calls = []
    for item in inputs.verify_items(seed):
        if item.kind == "falsify":
            theorem, trials, chunk_seed = item.payload

            def run(theorem=theorem, trials=trials, chunk_seed=chunk_seed):
                return lib.falsify.falsify(
                    theorem, trials=trials, seed=chunk_seed, max_n=inputs.FALSIFY_MAX_N
                )

            def check(out, outputs, theorem=theorem, trials=trials):
                return checks.check_falsify(theorem, trials, out)

            calls.append(Call(item.id, run, lambda report: report.to_dict(), check))
        else:
            n, arcs = item.payload

            def run(n=n, arcs=arcs):
                G = lib.graphs.SignedDigraph(n, arcs)
                most = lib.boolnet.max_fixed_points(G)
                return [most, lib.structure.analyze(G).fixed_point_upper_bound]

            calls.append(Call(item.id, run, _same, lambda out, outputs: checks.check_family(out)))
    return calls


def network(lib, spec):
    return lib.boolnet.BooleanNetwork(
        [lib.boolnet.LocalFunction(inputs_, table) for inputs_, table in spec]
    )


def _fixed_points_call(lib, call_id: str, spec) -> Call:
    f = network(lib, spec)
    return Call(
        call_id,
        lambda: f.fixed_points(),
        lambda states: [_bits(x) for x in states],
        lambda out, outputs: checks.check_fixed_points(spec, out),
    )


def _dynamics_calls(lib, seed: int) -> list[Call]:
    calls = []
    for item in inputs.dynamics_items(seed):
        if item.kind == "fixed_points":
            calls.append(_fixed_points_call(lib, item.id, item.payload))
        elif item.kind == "attractors":
            fp_id = f"{item.id}.fixed_points"
            calls.append(_fixed_points_call(lib, fp_id, item.payload))
            f = network(lib, item.payload)

            def check(out, outputs, fp_id=fp_id):
                if fp_id not in outputs:
                    return []
                return checks.check_attractors(out, outputs[fp_id])

            calls.append(
                Call(
                    f"{item.id}.attractors",
                    lambda f=f: f.attractors(),
                    lambda found: [sorted(_bits(x) for x in states) for states in found],
                    check,
                )
            )
        else:
            n, arcs = item.payload
            D = lib.kernels.Digraph(n, arcs)
            kernels_id, indicators_id = f"{item.id}.kernels", f"{item.id}.kernel_indicators"

            def check(out, outputs, n=n, arcs=arcs, indicators_id=indicators_id):
                if indicators_id not in outputs:
                    return []
                return checks.check_kernels(n, arcs, out, outputs[indicators_id])

            calls.append(
                Call(
                    kernels_id,
                    lambda D=D: lib.kernels.kernels(D),
                    lambda found: [sorted(K) for K in found],
                    check,
                )
            )
            calls.append(
                Call(
                    indicators_id,
                    lambda D=D: lib.kernels.kernel_indicators(D),
                    lambda found: sorted(sorted(K) for K in found),
                    lambda out, outputs: [],
                )
            )
    return calls


WORKLOADS = {
    "analyze": _analyze_calls,
    "verify": _verify_calls,
    "dynamics": _dynamics_calls,
}
