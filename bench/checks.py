"""Output checks, one per kind of timed call.

Each check takes the call's normalized output (plain JSON data) and
returns a list of problems; an empty list means the output passed.  The
checks use the benchmark's own arithmetic where they need an oracle, not
the library's.
"""

from __future__ import annotations

import json

INF = float("inf")


def _length(value):
    return INF if value == "inf" else value


def check_analyze(kind: str, text: str, k: int | None = None) -> list[str]:
    """Schema-1 ``analyze`` JSON: tau~+ <= tau+, g+ <= g~+ and
    1 <= bound <= 2^tau~+.  Figure 1 graphs have tau~+ = 0 and bound 1;
    k disjoint positive 2-cycles have tau+ = tau~+ = k and bound 2^k."""
    problems = []
    try:
        report = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if report.get("schema_version") != 1:
        problems.append("schema_version is not 1")
    try:
        tau, tau_t = report["tau_plus"], report["tau_tilde_plus"]
        girth, girth_t = _length(report["g_plus"]), _length(report["g_tilde_plus"])
        bound = report["fp_upper_bound"]
    except KeyError as exc:
        return problems + [f"missing key {exc}"]
    if not tau_t <= tau:
        problems.append(f"tau~+ = {tau_t} exceeds tau+ = {tau}")
    if not girth <= girth_t:
        problems.append(f"g+ = {girth} exceeds g~+ = {girth_t}")
    if not 1 <= bound <= 1 << tau_t:
        problems.append(f"bound {bound} outside [1, 2^{tau_t}]")
    if kind == "figure1" and (tau_t, bound) != (0, 1):
        problems.append(f"figure 1 graph gives tau~+ = {tau_t} and bound {bound}, not 0 and 1")
    if kind == "two-cycles" and (tau, tau_t, bound) != (k, k, 1 << k):
        problems.append(
            f"{k} disjoint positive 2-cycles give tau+ = {tau}, tau~+ = {tau_t}, "
            f"bound {bound}, not {k}, {k}, {1 << k}"
        )
    return problems


def check_falsify(theorem: str, trials: int, report: dict) -> list[str]:
    """The requested theorem and trial count, and no counterexample."""
    problems = []
    if report.get("theorem") != theorem:
        problems.append(f"report is for {report.get('theorem')!r}, not {theorem!r}")
    if report.get("trials") != trials:
        problems.append(f"{report.get('trials')} trials run, {trials} requested")
    if report.get("counterexamples"):
        problems.append(f"{len(report['counterexamples'])} counterexamples to {theorem}")
    return problems


def check_family(result: list) -> list[str]:
    """The family's largest fixed-point count is within the graph's bound."""
    most, bound = result
    if not 0 <= most <= bound:
        return [f"max fixed points {most} exceeds the bound {bound}"]
    return []


def evaluate(spec, x: str) -> str:
    """Image of the state x (a bit string, x_1 first) under the network
    given as (inputs, table) per vertex, first input most significant."""
    out = []
    for inputs, table in spec:
        row = 0
        for u in inputs:
            row = (row << 1) | (x[u - 1] == "1")
        out.append("1" if table[row] else "0")
    return "".join(out)


def check_fixed_points(spec, states: list[str]) -> list[str]:
    """Every listed state is fixed, and the list increases strictly."""
    problems = []
    n = len(spec)
    for x in states:
        if len(x) != n or set(x) - {"0", "1"}:
            problems.append(f"{x!r} is not a state of length {n}")
        elif evaluate(spec, x) != x:
            problems.append(f"{x} is not a fixed point")
    if any(a >= b for a, b in zip(states, states[1:])):
        problems.append("fixed points are not in increasing order")
    return problems


def check_attractors(attractors: list[list[str]], fixed_points: list[str]) -> list[str]:
    """Singleton attractors are exactly the fixed points; attractors are
    non-empty and ordered by their smallest state."""
    problems = []
    if any(not states for states in attractors):
        problems.append("empty attractor")
        return problems
    singles = sorted(states[0] for states in attractors if len(states) == 1)
    if singles != fixed_points:
        problems.append(
            f"singleton attractors {singles} differ from fixed points {fixed_points}"
        )
    firsts = [min(states) for states in attractors]
    if firsts != sorted(firsts):
        problems.append("attractors are not ordered by their smallest state")
    return problems


def check_kernels(n: int, arcs, kernels: list[list[int]], indicators: list[list[int]]) -> list[str]:
    """Each kernel is independent and absorbing, the scan lists them in
    increasing bitmask order, and they equal the decoded fixed points of
    the correspondence network."""
    problems = []
    out = {v: set() for v in range(1, n + 1)}
    for u, v in arcs:
        out[u].add(v)
    for K in kernels:
        members = set(K)
        for v in range(1, n + 1):
            if (v in members) == bool(out[v] & members):
                problems.append(f"{K} is not a kernel at vertex {v}")
                break
    masks = [sum(1 << (v - 1) for v in K) for K in kernels]
    if any(a >= b for a, b in zip(masks, masks[1:])):
        problems.append("kernels are not in increasing bitmask order")
    if sorted(kernels) != indicators:
        problems.append("kernels differ from the decoded network fixed points")
    return problems
