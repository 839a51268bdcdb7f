"""Command-line surface.

Exit codes: 0 when the run succeeds and any checked condition holds, 1
when a condition fails or a counterexample is found, 2 on usage or parse
errors, on an input file that cannot be read, and when a cycle
enumeration exceeds its cap.  ``--format structured`` emits stable
versioned JSON; the human output may change freely between versions.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import boolnet, falsify, formats, generators, structure
from .graphs import DEFAULT_CYCLE_CAP, CycleCapExceeded, _check_cap, _check_limit
from .kernels import _SUBSET_SCAN, kernels as all_kernels

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_USAGE = 2


def _emit(args, payload: dict, human_lines):
    if args.format == "structured":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _bits(state) -> str:
    return "".join(str(b) for b in state)


def _load(parser, loader, path, limit=None):
    """``loader(path, limit)``; a file that cannot be read or parsed exits 2.

    ``limit`` is the command's refusal (what, L): a header that declares
    more than L vertices is refused, in the command's own words, before
    anything of that size is built.
    """
    try:
        return loader(path, limit)
    except OSError as exc:
        parser.exit(EXIT_USAGE, f"error: {path}: {exc.strerror or exc}\n")
    except (UnicodeDecodeError, formats.FormatError) as exc:
        parser.exit(EXIT_USAGE, f"error: {path}: {exc}\n")


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(parser, args) -> int:
    G = _load(parser, formats.load_signed_digraph, args.graph, structure._SEARCH)
    report = structure.analyze(G, cap=args.cycle_cap)
    _emit(args, report.to_dict(), report.to_text().splitlines())
    return EXIT_OK


def _cmd_fixed_points(parser, args) -> int:
    f = _load(parser, formats.load_boolean_network, args.network, boolnet._FIXED_POINT_SCAN)
    points = f.fixed_points()
    _emit(
        args,
        {"fixed_points": [_bits(x) for x in points]},
        [_bits(x) for x in points] + [f"count = {len(points)}"],
    )
    return EXIT_OK


def _cmd_attractors(parser, args) -> int:
    f = _load(parser, formats.load_boolean_network, args.network, boolnet._ATTRACTOR_SCAN)
    attractors = f.attractors()
    serialized = [sorted(_bits(x) for x in states) for states in attractors]
    lines = []
    for i, states in enumerate(serialized, start=1):
        kind = "fixed point" if len(states) == 1 else f"cyclic, size {len(states)}"
        lines.append(f"attractor {i} ({kind}): {' '.join(states)}")
    lines.append(f"count = {len(serialized)}")
    _emit(args, {"attractors": serialized}, lines)
    return EXIT_OK


def _cmd_bounds(parser, args) -> int:
    G = _load(parser, formats.load_signed_digraph, args.graph, structure._SEARCH)
    _, tau, girth, bound = structure._bound_terms(G, args.cycle_cap)
    girth_text = structure._length(girth)
    _emit(
        args,
        {
            "n": G.n,
            "tau_tilde_plus": tau,
            "g_tilde_plus": girth_text,
            "two_power": 1 << tau,
            "fp_upper_bound": bound,
        },
        [
            f"tau_tilde_plus = {tau}",
            f"g_tilde_plus = {girth_text}",
            f"fp_upper_bound = {bound} >= min(2^{tau}, A({G.n}, {girth_text}))",
        ],
    )
    return EXIT_OK


def _cmd_kernels(parser, args) -> int:
    D = _load(parser, formats.load_digraph, args.digraph, _SUBSET_SCAN)
    found = all_kernels(D)
    serialized = [sorted(k) for k in found]
    lines = [("{" + ", ".join(str(v) for v in k) + "}") for k in serialized]
    lines.append(f"count = {len(serialized)}")
    _emit(args, {"kernels": serialized}, lines)
    return EXIT_OK if found else EXIT_CONDITION_FAILED


def _cmd_generate(parser, args) -> int:
    # No command reads a graph past the fixed-point scan, so none is built.
    n = sum(args.lengths) - 1 if args.kind == "double_cycle" else args.n
    try:
        _check_limit(n, *boolnet._FIXED_POINT_SCAN)
        if args.kind == "figure1":
            G = generators.figure1(args.n)
        elif args.kind == "double_cycle":
            (l1, l2), (s1, s2) = args.lengths, args.signs
            G = generators.double_cycle(l1, s1, l2, s2)
        else:
            G = generators.random_signed_digraph(
                args.n, args.arc_prob, args.neg_prob, seed=args.seed
            )
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    text = formats.format_signed_digraph(G)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            parser.exit(EXIT_USAGE, f"error: {args.output}: {exc.strerror or exc}\n")
    else:
        print(text, end="")
    return EXIT_OK


def _load_instance(parser, prop, args) -> tuple:
    """The input files, each read with its part's loader, as the parts
    ``prop.check`` takes; a rule theorem's condition takes the graph alone.
    The first file is refused by its header as ``prop.file_limit`` says."""
    parts = prop.kind.parts if prop.condition is None else prop.kind.parts[:1]
    paths = [path for path in (args.input, args.network) if path]
    if len(paths) != len(parts):
        wanted = " and ".join(f"a {name} file" for name, _, _ in parts)
        parser.exit(EXIT_USAGE, f"error: --theorem {prop.id} takes exactly {wanted}\n")
    limits = [prop.file_limit] + [None] * (len(parts) - 1)
    instance = tuple(
        _load(parser, load, path, limit)
        for (_, _, load), path, limit in zip(parts, paths, limits)
    )
    if len(instance) == 2 and instance[1].interaction_graph() != instance[0]:
        parser.exit(EXIT_USAGE, "error: network's interaction graph differs from the graph\n")
    return instance


def _cmd_check(parser, args) -> int:
    prop = falsify.REGISTRY.get(args.theorem)
    if prop is None:
        parser.exit(EXIT_USAGE, f"error: unknown theorem id {args.theorem!r}\n")
    instance = _load_instance(parser, prop, args)
    if prop.condition is not None:
        holds, detail = prop.condition(*instance, args.cycle_cap).holds, ""
    else:
        violation = prop.check(*instance, cap=args.cycle_cap)
        holds, detail = violation is None, violation or ""
    verdict = "holds" if holds else "violated"
    _emit(
        args,
        {"theorem": prop.id, "verdict": verdict, "detail": detail},
        [f"{prop.id}: {verdict}" + (f" ({detail})" if detail else "")],
    )
    return EXIT_OK if holds else EXIT_CONDITION_FAILED


def _cmd_falsify(parser, args) -> int:
    report = falsify.falsify(
        args.theorem,
        trials=args.trials,
        seed=args.seed,
        max_n=args.max_n,
        exhaustive_n=args.exhaustive_n,
        max_indegree=args.max_indegree,
    )
    lines = [
        f"theorem {report.theorem}: {report.trials} trials, "
        f"{len(report.counterexamples)} counterexamples in {report.seconds:.2f}s"
    ]
    for c in report.counterexamples[:5]:
        lines.append(f"  {c.detail}")
        for name, text in sorted(c.artifacts.items()):
            lines.append(f"  -- {name} --")
            lines.extend("  " + ln for ln in text.rstrip("\n").split("\n"))
    _emit(args, report.to_dict(), lines)
    return EXIT_CONDITION_FAILED if report.falsified else EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedbn",
        description="Signed interaction-graph analysis for Boolean networks.",
    )
    parser.add_argument(
        "--format", choices=("human", "structured"), default="human",
        help="output mode (structured = stable JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for a signed digraph")
    p.add_argument("graph")
    p.add_argument("--cycle-cap", type=int, default=DEFAULT_CYCLE_CAP)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("fixed-points", help="all fixed points of a network")
    p.add_argument("network")
    p.set_defaults(run=_cmd_fixed_points)

    p = sub.add_parser("attractors", help="asynchronous attractors of a network")
    p.add_argument("network")
    p.set_defaults(run=_cmd_attractors)

    p = sub.add_parser("bounds", help="fixed-point upper bound for a graph")
    p.add_argument("graph")
    p.add_argument("--cycle-cap", type=int, default=DEFAULT_CYCLE_CAP)
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("kernels", help="all kernels of a digraph")
    p.add_argument("digraph")
    p.set_defaults(run=_cmd_kernels)

    p = sub.add_parser("check", help="check one theorem on one instance")
    p.add_argument("--theorem", required=True)
    p.add_argument("input", help="graph or digraph file")
    p.add_argument("network", nargs="?", help="network file for instance-level checks")
    p.add_argument("--cycle-cap", type=int, default=DEFAULT_CYCLE_CAP)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("falsify", help="randomized search for counterexamples")
    p.add_argument("--theorem", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-indegree", type=int, default=4)
    p.add_argument("--exhaustive-n", type=int, default=None)
    p.set_defaults(run=_cmd_falsify)

    p = sub.add_parser("generate", help="write an instance of a named family")
    p.add_argument("kind", choices=("figure1", "double_cycle", "random"))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--lengths", type=int, nargs=2, default=(2, 1), metavar=("L1", "L2"))
    p.add_argument("--signs", choices=("+", "-"), nargs=2, default=("+", "-"), metavar=("S1", "S2"))
    p.add_argument("--arc-prob", type=float, default=None)
    p.add_argument("--neg-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_cap(getattr(args, "cycle_cap", 0))
        return args.run(parser, args)
    except (boolnet.UnrealizableGraphError, CycleCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
