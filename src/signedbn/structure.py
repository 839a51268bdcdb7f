"""Structural analysis of signed digraphs.

Special arcs, the arc/vertex isolation rules that force at most or at
least one fixed point, the deletion parameters tau+/tau~+ and the positive
girths g+/g~+, balance two-colorings, and the aggregate report with the
fixed-point upper bound.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import codes
from .graphs import (
    DEFAULT_CYCLE_CAP,
    INF,
    NEGATIVE,
    POSITIVE,
    Arc,
    SignedCycle,
    SignedDigraph,
    as_arc,
    enumerate_cycles,
    extract_negative_cycle,
    has_negative_cycle,
    is_strong,
    reachable,
    scc,
    tree_path_arcs,
)

DEFAULT_SEARCH_LIMIT = 15


# -- special arcs ------------------------------------------------------------


@dataclass(frozen=True)
class SpecialArcVerdict:
    arc: Arc
    holds: bool
    failed_condition: Optional[str]  # 'i', 'ii', 'iii' or None

    def __post_init__(self):
        assert self.holds == (self.failed_condition is None)


def is_special_arc(
    G: SignedDigraph, cycle: SignedCycle, arc, cap: int = DEFAULT_CYCLE_CAP
) -> SpecialArcVerdict:
    """Decide whether ``arc`` is a special arc of the positive cycle ``cycle``.

    Writing arc = (u -> v), all three conditions are evaluated in G minus
    the arc: (i) v still has an in-coming arc, (ii) v lies on no positive
    cycle, (iii) no path from a source or a positive cycle reaches v while
    avoiding the other vertices of the cycle.  Conditions are checked in
    order and the first failure is reported; ``cap`` bounds G's cycles.
    """
    arc = as_arc(arc)
    if cycle.sign != POSITIVE:
        raise ValueError("special arcs are defined on positive cycles")
    if not set(cycle.arcs) <= G.arc_set:
        raise ValueError("cycle is not a cycle of the graph")
    if arc not in cycle.arcs:
        raise ValueError(f"{arc!r} is not an arc of the cycle")
    positives = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    failed = _special_failure(G, positives, frozenset(), cycle, arc)
    return SpecialArcVerdict(arc, failed is None, failed)


def _special_failure(G, positives, gone, cycle, arc) -> Optional[str]:
    """The special-arc condition that ``arc`` of ``cycle`` fails first in G
    minus the arcs ``gone`` and ``arc``, or None when it fails none.

    ``gone`` holds every in-arc of each vertex it enters, and ``cycle``
    avoids it.  The cycles of the subgraph are the cycles of G that use no
    removed arc, so (ii) filters ``positives``: the positive cycles of G,
    or those of them that avoid ``gone``.
    """
    removed = gone | {arc}
    v = arc.target
    if removed.issuperset(G.in_arcs(v)):
        return "i"
    on_positive = set()
    for c in positives:
        if removed.isdisjoint(c.arcs):
            on_positive |= c.vertex_set
    if v in on_positive:
        return "ii"
    # The search may run in G itself.  Every removed arc but ``arc`` enters
    # a vertex with no in-arc left, which is a start itself, and ``arc``
    # leaves a blocked vertex or is a loop; so no shortest path from a
    # start needs a removed arc.
    starts = on_positive.union(u for u in G.vertices if removed.issuperset(G.in_arcs(u)))
    if reachable(G, starts, cycle.vertex_set - {v}, v):
        return "iii"
    return None


def find_special_arc(
    G: SignedDigraph, cycle: SignedCycle, cap: int = DEFAULT_CYCLE_CAP
) -> Optional[Arc]:
    """First special arc of the cycle in rotation order, or None."""
    return next((a for a in cycle.arcs if is_special_arc(G, cycle, a, cap).holds), None)


# -- theorem-condition checkers ----------------------------------------------


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of a per-cycle condition check.

    ``witnesses`` pairs each quantified cycle with its chosen arc or
    vertex; ``failed_cycle`` names the first cycle with no valid choice.
    """

    holds: bool
    witnesses: tuple = ()
    failed_cycle: Optional[SignedCycle] = None

    def __bool__(self):
        return self.holds


def _isolation_rule(G: SignedDigraph, cycle_sign: int, cap: int) -> RuleVerdict:
    """Shared engine for the two arc rules, parametrized by cycle sign.

    Each cycle of the given sign needs an arc a = (u -> v) such that after
    deleting a the strong component of v is initial, non-trivial, and free
    of cycles of that same sign.  The cycles of that component are the
    cycles of G that avoid a and lie inside it.
    """
    cycles = enumerate_cycles(G, cap)
    witnesses = []
    for cycle in (c for c in cycles if c.sign == cycle_sign):
        for a in cycle.arcs:
            decomposition = scc(G.delete(a))
            i = decomposition.index_of(a.target)
            comp = decomposition.components[i]
            if decomposition.initial[i] and decomposition.nontrivial[i] and not any(
                c.sign == cycle_sign and a not in c.arcs and c.vertex_set <= comp for c in cycles
            ):
                witnesses.append((cycle, a))
                break
        else:
            return RuleVerdict(False, tuple(witnesses), cycle)
    return RuleVerdict(True, tuple(witnesses))


def uniqueness_arc_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Every positive cycle has an arc isolating its head in a negative-only
    initial component; forces at most one fixed point."""
    return _isolation_rule(G, POSITIVE, cap)


def existence_arc_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Sign dual of the uniqueness arc rule: every negative cycle has an arc
    isolating its head in a positive-only initial component; forces at
    least one fixed point."""
    return _isolation_rule(G, NEGATIVE, cap)


def uniqueness_vertex_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Every positive cycle owns a vertex of in-degree >= 2 lying on no other
    positive cycle, with all its in-neighbors on the cycle."""
    positives = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    witnesses = []
    for cycle in positives:
        chosen = None
        for v in sorted(cycle.vertex_set):
            if G.indegree(v) < 2:
                continue
            if not set(G.in_neighbors(v)) <= cycle.vertex_set:
                continue
            if any(c is not cycle and c != cycle and v in c.vertex_set for c in positives):
                continue
            chosen = v
            break
        if chosen is None:
            return RuleVerdict(False, tuple(witnesses), cycle)
        witnesses.append((cycle, chosen))
    return RuleVerdict(True, tuple(witnesses))


# -- deletion parameters and girths ------------------------------------------


def _vertex_masks(cycles, vertices) -> list[int]:
    """Vertex sets of the given cycles as bitmasks, minimal ones only."""
    bit = {v: i for i, v in enumerate(vertices)}
    masks = set()
    for c in cycles:
        m = 0
        for v in c.vertices:
            m |= 1 << bit[v]
        masks.add(m)
    minimal = []
    for m in sorted(masks, key=int.bit_count):
        if not any(m & other == other for other in minimal):
            minimal.append(m)
    return minimal


def tau_plus(
    G: SignedDigraph,
    limit: int = DEFAULT_SEARCH_LIMIT,
    cap: int = DEFAULT_CYCLE_CAP,
) -> int:
    """Minimum number of vertex deletions leaving no positive cycle."""
    if G.n > limit:
        raise ValueError(f"n={G.n} exceeds the search limit {limit}")
    positives = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    if not positives:
        return 0
    vertices = G.vertices
    masks = _vertex_masks(positives, vertices)
    for k in range(1, G.n + 1):
        for combo in itertools.combinations(range(len(vertices)), k):
            hit = 0
            for i in combo:
                hit |= 1 << i
            if all(m & hit for m in masks):
                return k
    raise AssertionError("deleting every vertex kills every cycle")


def g_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP):
    """Length of a shortest positive cycle; INF when none exists."""
    lengths = [len(c) for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    return min(lengths) if lengths else INF


def tau_tilde_plus(
    G: SignedDigraph,
    limit: int = DEFAULT_SEARCH_LIMIT,
    cap: int = DEFAULT_CYCLE_CAP,
) -> int:
    """Minimum size of a vertex set I such that, once every arc into I is
    removed, each remaining positive cycle has a special arc.

    Never larger than tau_plus: deleting in-arcs of a hitting set leaves
    no positive cycle at all.  The positive cycles left are those of G
    that avoid the removed arcs.
    """
    if G.n > limit:
        raise ValueError(f"n={G.n} exceeds the search limit {limit}")
    positives = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    for k in range(0, G.n + 1):
        for combo in itertools.combinations(G.vertices, k):
            gone = frozenset(a for v in combo for a in G.in_arcs(v))
            left = [c for c in positives if gone.isdisjoint(c.arcs)]
            if all(
                any(_special_failure(G, left, gone, c, a) is None for a in c.arcs)
                for c in left
            ):
                return k
    raise AssertionError("removing all in-arcs leaves no cycle")


def g_tilde_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP):
    """Length of a shortest positive cycle with no special arc; INF if every
    positive cycle has one."""
    positives = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    lengths = [
        len(c)
        for c in positives
        if all(_special_failure(G, positives, frozenset(), c, a) is not None for a in c.arcs)
    ]
    return min(lengths) if lengths else INF


# -- two-colorings ------------------------------------------------------------


def two_coloring(G: SignedDigraph):
    """A state x with G(x) = G, or None when the symmetrized graph is
    unbalanced.

    Positive arcs force equal colors, negative arcs distinct ones; the
    lowest-indexed vertex of each connected component of the symmetrized
    graph gets color 0.  The complement of a two-coloring is one as well.
    """
    colors, _ = _propagate_coloring(G)
    return colors


def find_unbalanced_cycle(G: SignedDigraph):
    """A negative cycle of the symmetrized graph, or None if two-colorable."""
    _, witness = _propagate_coloring(G)
    return witness


def _propagate_coloring(G: SignedDigraph):
    H = G.symmetrize()
    size = max(H.vertex_set) if H.vertex_set else 0
    colors = [0] * size
    assigned: dict[int, int] = {}
    parent: dict[int, Arc] = {}
    for root in H.vertices:
        if root in assigned:
            continue
        assigned[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for a in H.out_arcs(v):
                want = assigned[v] ^ (1 if a.sign == NEGATIVE else 0)
                t = a.target
                if t not in assigned:
                    assigned[t] = want
                    parent[t] = a
                    queue.append(t)
                elif assigned[t] != want:
                    up = tree_path_arcs(parent, a.source)
                    down = [
                        Arc(b.target, b.source, b.sign)
                        for b in reversed(tree_path_arcs(parent, a.target))
                    ]
                    walk = up + [a] + down
                    return None, extract_negative_cycle(walk)
    for v, c in assigned.items():
        colors[v - 1] = c
    return tuple(colors), None


# -- graph-only fixed-point conditions ----------------------------------------


def no_fixed_point_condition(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """A non-trivial initial strong component whose induced subgraph has no
    positive cycle; every consistent network then has no fixed point.

    The cycles of that subgraph are the cycles of G inside the component,
    so ``cap`` bounds the cycles of G, as elsewhere in this module.
    """
    cycles = enumerate_cycles(G, cap)
    decomposition = scc(G)
    flags = zip(decomposition.components, decomposition.initial, decomposition.nontrivial)
    return any(
        ini and nt and not any(c.sign == POSITIVE and c.vertex_set <= comp for c in cycles)
        for comp, ini, nt in flags
    )


def two_fixed_points_condition(G: SignedDigraph) -> bool:
    """No negative cycle plus a non-trivial initial component; every
    consistent network then has at least two fixed points."""
    if has_negative_cycle(G):
        return False
    decomposition = scc(G)
    return any(
        ini and nt
        for ini, nt in zip(decomposition.initial, decomposition.nontrivial)
    )


def unique_negative_cycle_arc(
    G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP
) -> Optional[Arc]:
    """An arc of the unique negative cycle lying on no positive cycle.

    Requires the graph to have exactly one negative cycle.  Existence is
    guaranteed; None signals a defect and is asserted against in tests.
    """
    cycles = enumerate_cycles(G, cap)
    negatives = [c for c in cycles if c.sign == NEGATIVE]
    if len(negatives) != 1:
        raise ValueError(f"graph has {len(negatives)} negative cycles, not 1")
    positives = [c for c in cycles if c.sign == POSITIVE]
    for a in negatives[0].arcs:
        if not any(a in c.arcs for c in positives):
            return a
    return None


# -- aggregate report ----------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """All structural parameters and condition verdicts for one graph."""

    n: int
    tau_plus: int
    tau_tilde_plus: int
    g_plus: object  # int or INF
    g_tilde_plus: object
    thm3: RuleVerdict
    thm4: RuleVerdict
    thm5: RuleVerdict
    no_fixed_point: bool
    two_fixed_points: bool
    fixed_point_upper_bound: int
    strong_unique_positive_cycle: bool = field(default=False)
    strong_unique_negative_cycle: bool = field(default=False)

    def to_dict(self) -> dict:
        def length(value):
            return "inf" if value == INF else int(value)

        return {
            "tau_plus": self.tau_plus,
            "tau_tilde_plus": self.tau_tilde_plus,
            "g_plus": length(self.g_plus),
            "g_tilde_plus": length(self.g_tilde_plus),
            "thm3": self.thm3.holds,
            "thm4": self.thm4.holds,
            "thm5": self.thm5.holds,
            "nofp_condition": self.no_fixed_point,
            "twofp_condition": self.two_fixed_points,
            "fp_upper_bound": self.fixed_point_upper_bound,
        }

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def analyze(
    G: SignedDigraph,
    limit: int = DEFAULT_SEARCH_LIMIT,
    cap: int = DEFAULT_CYCLE_CAP,
) -> AnalysisReport:
    """Full structural report with the fixed-point upper bound.

    The bound is min(2^tau~+, an upper bound on A(n, g~+)) from
    ``codes.fixed_point_bound``: the code term is exact at distance 1 or
    2, 1 for an infinite g~+, and otherwise the smaller of the
    sphere-packing and Delsarte LP bounds (21 where A(8, 3) = 20).  The
    exact code search is only the tests' oracle.
    """
    cycles = enumerate_cycles(G, cap)
    positives = sum(1 for c in cycles if c.sign == POSITIVE)
    negatives = sum(1 for c in cycles if c.sign == NEGATIVE)
    strong = is_strong(G)
    tt = tau_tilde_plus(G, limit, cap)
    gt = g_tilde_plus(G, cap)
    return AnalysisReport(
        n=G.n,
        tau_plus=tau_plus(G, limit, cap),
        tau_tilde_plus=tt,
        g_plus=g_plus(G, cap),
        g_tilde_plus=gt,
        thm3=uniqueness_arc_rule(G, cap),
        thm4=uniqueness_vertex_rule(G, cap),
        thm5=existence_arc_rule(G, cap),
        no_fixed_point=no_fixed_point_condition(G, cap),
        two_fixed_points=two_fixed_points_condition(G),
        fixed_point_upper_bound=codes.fixed_point_bound(G.n, tt, gt),
        strong_unique_positive_cycle=strong and positives == 1 and negatives >= 1,
        strong_unique_negative_cycle=strong and negatives == 1 and positives >= 1,
    )
