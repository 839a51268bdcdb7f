"""Structural analysis of signed digraphs.

Special arcs, the arc/vertex isolation rules that force at most or at
least one fixed point, the deletion parameters tau+/tau~+ and the positive
girths g+/g~+, balance two-colorings, and the aggregate report with the
fixed-point upper bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    _check_cap,
    _check_limit,
    _closure,
    _component_masks,
    _components,
    _cycle_index,
    _CycleIndex,
    _cycles,
    _negative_walk,
    _sign_cover,
    _set_bits,
    as_arc,
    find_negative_cycle,
    has_negative_cycle,
)

DEFAULT_SEARCH_LIMIT = 15
# The refusal of every search capped by it, as ``_check_limit`` takes it.
_SEARCH = ("search", DEFAULT_SEARCH_LIMIT)


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
    return next(_special_verdicts(G, cycle, (as_arc(arc),), cap))


def _special_verdicts(G: SignedDigraph, cycle: SignedCycle, arcs, cap: int):
    """The verdicts on ``arcs`` as special arcs of ``cycle``, checked once."""
    if cycle.sign != POSITIVE:
        raise ValueError("special arcs are defined on positive cycles")
    if not set(cycle.arcs) <= G.arc_set:
        raise ValueError("cycle is not a cycle of the graph")
    for arc in arcs:
        if arc not in cycle.arcs:
            raise ValueError(f"{arc!r} is not an arc of the cycle")
    index = _cycle_index(G, cap)
    on = index.vertex_mask(cycle.vertices)
    for arc in arcs:
        k = index.arc_number[arc]
        failed = _special_failure(index, 0, index.positives, index.sources, on, k)
        yield SpecialArcVerdict(arc, failed is None, failed)


def _special_failure(
    index: _CycleIndex, gone: int, left: int, cleared: int, cycle_vertices: int, k: int
) -> Optional[str]:
    """The special-arc condition that arc k of a positive cycle on the
    positions ``cycle_vertices`` fails first in G minus the arcs ``gone``
    and k, or None when it fails none.

    ``gone`` (an arc mask) holds every in-arc of each vertex it enters, and
    the cycle avoids it; ``left`` are the positive cycles of G that avoid
    ``gone``, and ``cleared`` the positions that no arc outside ``gone``
    enters.
    """
    v = index.heads[k]
    if not index.in_arcs[v] & ~gone & ~(1 << k):
        return "i"
    alive = left & ~index.arc_cycles[k]
    if index.vertex_cycles[v] & alive:
        return "ii"
    # Search back from v in G itself for a start: a position of ``cleared``
    # or of a cycle ``alive`` (v is neither, by (i) and (ii)).  The path from
    # the start nearest v passes only non-starts; every removed arc but k
    # enters a cut position, a start, and k leaves a blocked position or is
    # a loop, so that path uses no removed arc.
    blocked = cycle_vertices & ~(1 << v)
    reach = _closure(1 << v, index.in_neighbors, ~blocked)
    if reach & cleared or index.cycles_meeting(reach) & alive:
        return "iii"
    return None


def _has_special_arc(index: _CycleIndex, gone: int, left: int, cleared: int, j: int) -> bool:
    """Whether cycle j, one of ``left``, has a special arc in G minus the
    arcs ``gone``; the arguments are those of ``_special_failure``."""
    on = index.cycle_vertices[j]
    return any(
        _special_failure(index, gone, left, cleared, on, index.arc_number[a]) is None
        for a in index.cycles[j].arcs
    )


def _stuck(index: _CycleIndex, j: int) -> bool:
    """Whether each arc of positive cycle j fails in a way that no vertex
    set I missing the cycle can mend.  The cycle then has no special arc
    in G minus the in-arcs of any such I, so every valid I for tau~+
    meets it.  The test is sufficient, not necessary.

    Arc k = (u -> v) stays failed when (i) fails, as v keeps all its
    in-arcs; or when v's backward closure avoiding the cycle's other
    positions, the ``reach`` of ``_special_failure``, holds a source or a
    positive cycle avoiding those positions and k.  Such a cycle lies in
    ``reach``: if I misses it, it fails (ii) or (iii), and if I meets it,
    a position of I is a start in ``reach``.  So the arc stays failed iff
    ``_special_failure`` fails it with no arc gone, G's sources cleared
    and, left, the positive cycles that avoid those positions.
    """
    on = index.cycle_vertices[j]
    for a in index.cycles[j].arcs:
        k = index.arc_number[a]
        left = index.positives & ~index.cycles_meeting(on & ~(1 << index.heads[k]))
        if _special_failure(index, 0, left, index.sources, on, k) is None:
            return False
    return True


def find_special_arc(
    G: SignedDigraph, cycle: SignedCycle, cap: int = DEFAULT_CYCLE_CAP
) -> Optional[Arc]:
    """First special arc of the cycle in rotation order, or None."""
    return next((v.arc for v in _special_verdicts(G, cycle, cycle.arcs, cap) if v.holds), None)


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
    of cycles of that same sign.  Whether an arc qualifies does not depend
    on the cycle, so each arc is decided once.
    """
    index = _cycle_index(G, cap)
    signed = index.positives if cycle_sign == POSITIVE else index.negatives
    isolates: dict[Arc, bool] = {}
    witnesses = []
    for j in _set_bits(signed):
        cycle = index.cycles[j]
        for a in cycle.arcs:
            if a not in isolates:
                isolates[a] = _isolates(index, signed, index.arc_number[a])
            if isolates[a]:
                witnesses.append((cycle, a))
                break
        else:
            return RuleVerdict(False, tuple(witnesses), cycle)
    return RuleVerdict(True, tuple(witnesses))


def _isolates(index: _CycleIndex, signed: int, k: int) -> bool:
    """Whether the strong component of the head of arc k in G minus arc k
    is initial, non-trivial and holds none of the cycles ``signed``: its
    cycles are those of G that avoid arc k and every vertex outside it."""
    a = index.arcs[k]
    component = _head_component(
        index.out_neighbors, index.in_neighbors, index.position[a.source], index.heads[k],
        Arc(a.source, a.target, -a.sign) in index.arc_number,
    )
    if not component:
        return False
    outside = ((1 << len(index.vertices)) - 1) & ~component
    return not signed & ~index.arc_cycles[k] & ~index.cycles_meeting(outside)


def _head_component(out: list[int], into: list[int], u: int, v: int, parallel) -> int:
    """The strong component of position v in G minus an arc u -> v when it
    is initial and non-trivial, else 0, on G's out- and in-neighbour
    position masks; ``parallel`` is true when a parallel arc of the other
    sign stays.

    That component is the head's forward closure meet its backward
    closure: the arc enters the head, so forward it adds nothing, and
    backward it only drops u from the head's in-neighbours, unless the
    parallel arc stays.  The component is initial iff nothing outside it
    reaches the head.
    """
    head = 1 << v
    ins = into[v] if parallel else into[v] & ~(1 << u)
    backward = head | _closure(ins, into, ~head)
    component = _closure(head, out, backward)
    if backward != component or (component == head and not ins & head):
        return 0
    return component


def uniqueness_arc_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Every positive cycle has an arc isolating its head in a negative-only
    initial component; forces at most one fixed point."""
    return _isolation_rule(G, POSITIVE, cap)


def existence_arc_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Sign dual of the uniqueness arc rule: every negative cycle has an arc
    isolating its head in a positive-only initial component; forces at
    least one fixed point."""
    return _isolation_rule(G, NEGATIVE, cap)


def _existence_verdict(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """The verdict of ``existence_arc_rule(G, cap)``, without witnesses, by
    ``_existence_rule_holds`` on G's sign cover.  No cycle is enumerated,
    so ``cap`` is only refused below 0."""
    _check_cap(cap)
    position, step = _sign_cover(G)
    return RuleVerdict(_existence_rule_holds(step, len(position)))


def _existence_rule_holds(step: list[int], n: int) -> bool:
    """Whether the existence arc rule holds on the signed digraph G whose
    sign cover on n vertices has the ``step`` masks, as ``_sign_cover``
    lays them out; no cycle is enumerated.

    Whether an arc qualifies, its head's strong component in G minus the
    arc being initial, non-trivial and free of negative cycles, does not
    depend on the cycle.  So with Q the qualifying arcs, the rule holds
    iff every negative cycle has an arc of Q, that is iff G - Q has no
    negative cycle.  A negative cycle lies inside a strong component that
    holds one, so only the arcs inside such components are tested:
    ``_head_component``, then ``_negative_walk`` on the cover without the
    arc.  A component with no qualifying arc fails the rule.
    """
    step = list(step)
    out, into = _projection(step, n)
    cut = []  # per arc of Q: its tail u and its bits in step[u] and step[u + n]
    for comp in _component_masks(out, into):
        if not _negative_walk(step, comp, n):
            continue
        qualifying = len(cut)
        for u in _set_bits(comp):
            for v in _set_bits(out[u] & comp):
                head = 1 << v
                # A positive arc, then a negative one; bit b of step[u] is
                # the parallel arc of the other sign.
                for a, b in ((head, head << n), (head << n, head)):
                    if not step[u] & a:
                        continue
                    component = _head_component(out, into, u, v, step[u] & b)
                    if not component:
                        continue
                    step[u] ^= a
                    step[u + n] ^= b
                    if not _negative_walk(step, component, n):
                        cut.append((u, a, b))
                    step[u] ^= a
                    step[u + n] ^= b
        if len(cut) == qualifying:
            return False
    for u, a, b in cut:
        step[u] ^= a
        step[u + n] ^= b
    out, into = _projection(step, n)
    return not any(_negative_walk(step, comp, n) for comp in _component_masks(out, into))


def _projection(step: list[int], n: int) -> tuple[list[int], list[int]]:
    """The out- and in-neighbour position masks of the digraph whose sign
    cover on n vertices has the ``step`` masks."""
    full = (1 << n) - 1
    out = [(s | s >> n) & full for s in step[:n]]
    into = [0] * n
    for p, targets in enumerate(out):
        for q in _set_bits(targets):
            into[q] |= 1 << p
    return out, into


def uniqueness_vertex_rule(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> RuleVerdict:
    """Every positive cycle owns a vertex of in-degree >= 2 lying on no other
    positive cycle, with all its in-neighbors on the cycle."""
    index = _cycle_index(G, cap)
    witnesses = []
    for j in _set_bits(index.positives):
        cycle = index.cycles[j]
        on = index.cycle_vertices[j]
        others = index.positives & ~(1 << j)
        chosen = next(
            (
                index.vertices[p]
                for p in _set_bits(on)
                if index.in_arcs[p].bit_count() >= 2
                and not index.in_neighbors[p] & ~on
                and not index.vertex_cycles[p] & others
            ),
            None,
        )
        if chosen is None:
            return RuleVerdict(False, tuple(witnesses), cycle)
        witnesses.append((cycle, chosen))
    return RuleVerdict(True, tuple(witnesses))


# -- deletion parameters and girths ------------------------------------------


def tau_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Minimum number of vertex deletions leaving no positive cycle: the
    hitting number of the positive cycles' position masks."""
    _check_limit(G.n, *_SEARCH)
    return _hitting_number(_positive_masks(_cycle_index(G, cap)))


def _positive_masks(index: _CycleIndex) -> set[int]:
    """The distinct position masks of the positive cycles."""
    return {index.cycle_vertices[j] for j in _set_bits(index.positives)}


def _hitting_number(masks, floor: int = 0) -> int:
    """Size of a smallest position set meeting every one of ``masks``,
    given that it is at least ``floor``.

    k deepens from the larger of ``floor`` and a greedy packing of
    disjoint masks, shortest first, which no smaller set hits.
    """
    masks = sorted(masks, key=lambda mask: (mask.bit_count(), mask))
    k = max(floor, _packing(masks))
    while not _hits(masks, k):
        k += 1
    return k


def _packing(masks: list[int]) -> int:
    """Size of the greedy packing of pairwise disjoint ``masks``, taken in
    their order; a hitting set needs one position per packed mask."""
    used = count = 0
    for mask in masks:
        if not mask & used:
            used |= mask
            count += 1
    return count


def _hits(masks: list[int], k: int) -> bool:
    """Whether k positions meet every one of ``masks``, shortest first.

    Every hitting set holds some position of the shortest mask, so the
    search branches on those and drops the masks each one meets.
    """
    if not masks:
        return True
    if k == 0 or _packing(masks) > k:
        return False
    return any(
        _hits([mask for mask in masks if not mask >> p & 1], k - 1)
        for p in _set_bits(masks[0])
    )


def g_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP):
    """Length of a shortest positive cycle; INF when none exists."""
    return min((len(c) for c in _cycles(G, cap) if c.sign == POSITIVE), default=INF)


def tau_tilde_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Minimum size of a vertex set I such that, once every arc into I is
    removed, each remaining positive cycle has a special arc.

    Never larger than tau_plus: deleting in-arcs of a hitting set leaves
    no positive cycle at all.  The positive cycles left are those of G
    through no vertex of I.
    """
    _check_limit(G.n, *_SEARCH)
    index = _cycle_index(G, cap)
    masks = _positive_masks(index)
    return _tau_tilde_plus(index, masks, _hitting_number(masks))


def _tau_tilde_plus(index: _CycleIndex, masks: set[int], upper: int) -> int:
    """tau~+ given the positive cycles' position ``masks`` and ``upper`` =
    tau+, by scanning the sizes below it.

    A positive cycle is stuck (``_stuck``) when no I that misses it leaves
    it a special arc, so every valid I meets every stuck cycle and the
    hitting number of their masks is a lower bound.  A positive cycle
    whose positions all have in-degree 1 is stuck, as (i) fails on each
    of its arcs while I misses it; such forced cycles are disjoint, so
    their count starts the bound.  Any other cycle is tested once, when it first sinks a
    scanned set: testing every positive cycle upfront costs more than the
    scan saves on graphs with many cycles.  Each stuck cycle learned
    raises the bound if it can; the scan jumps to the new size, or stops
    at ``upper``, and skips the sets that miss a stuck cycle.  Validity
    is not monotone in I, so no superset of a failed set is pruned.  The
    cycle that sank the previous set is checked first.
    """
    single = sum(1 << p for p, arcs in enumerate(index.in_arcs) if arcs.bit_count() == 1)
    stuck = [mask for mask in masks if not mask & ~single]
    tested = set()  # the cycles tested by ``_stuck``
    failed = len(index.cycles)  # the cycle that sank the previous set; none yet
    k = len(stuck)
    while k < upper:
        for combo in itertools.combinations(range(len(index.vertices)), k):
            gone = cut = 0
            for p in combo:
                gone |= index.in_arcs[p]
                cut |= 1 << p
            if not all(cut & mask for mask in stuck):
                continue
            left = index.positives & ~index.cycles_meeting(cut)
            cleared = index.sources | cut
            if left >> failed & 1 and not _has_special_arc(index, gone, left, cleared, failed):
                continue
            others = _set_bits(left & ~(1 << failed))
            failed = next(
                (j for j in others if not _has_special_arc(index, gone, left, cleared, j)), None
            )
            if failed is None:
                return k
            if failed not in tested:
                tested.add(failed)
                if _stuck(index, failed):
                    stuck.append(index.cycle_vertices[failed])
                    bound = _hitting_number(stuck, k)
                    if bound > k:
                        k = bound
                        break
        else:
            k += 1
    return upper


def g_tilde_plus(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP):
    """Length of a shortest positive cycle with no special arc; INF if every
    positive cycle has one."""
    index = _cycle_index(G, cap)
    shortest = INF
    for j in _set_bits(index.positives):
        length = len(index.cycles[j])
        if length < shortest and not _has_special_arc(
            index, 0, index.positives, index.sources, j
        ):
            shortest = length
    return shortest


# -- two-colorings ------------------------------------------------------------


def two_coloring(G: SignedDigraph):
    """A state x with G(x) = G, or None when the symmetrized graph is
    unbalanced.

    Positive arcs force equal colors, negative arcs distinct ones; the
    lowest-indexed vertex of each connected component of the symmetrized
    graph gets color 0.  The complement of a two-coloring is one as well.
    Decided on the sign cover of the symmetrized graph: one closure from
    the lowest position of each connected part with an arc, which fails
    when it holds both copies of a vertex and otherwise colors 1 the
    vertices it reaches with sign -.
    """
    position, step = _sign_cover(G.symmetrize())
    vertices = list(position)
    n = len(vertices)
    seen = minus = 0
    for p in range(n):
        if step[p] and not seen >> p & 1:
            reached = _closure(1 << p, step)
            part = reached >> n
            if reached & part:
                return None
            minus |= part
            seen |= reached | part
    colors = [0] * (vertices[-1] if vertices else 0)
    for p in _set_bits(minus):
        colors[vertices[p] - 1] = 1
    return tuple(colors)


def find_unbalanced_cycle(G: SignedDigraph):
    """A negative cycle of the symmetrized graph, or None if two-colorable."""
    return find_negative_cycle(G.symmetrize())


# -- graph-only fixed-point conditions ----------------------------------------


def no_fixed_point_condition(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """A non-trivial initial strong component whose induced subgraph has no
    positive cycle; every consistent network then has no fixed point.

    The cycles of that subgraph are the cycles of G inside the component,
    so ``cap`` bounds the cycles of G, as elsewhere in this module.
    """
    index = _cycle_index(G, cap)
    everything = (1 << len(index.vertices)) - 1
    return any(
        initial
        and nontrivial
        and not index.positives & ~index.cycles_meeting(everything & ~comp)
        for comp, initial, _, nontrivial in _components(G)
    )


def two_fixed_points_condition(G: SignedDigraph) -> bool:
    """No negative cycle plus a non-trivial initial component; every
    consistent network then has at least two fixed points."""
    return not has_negative_cycle(G) and any(
        initial and nontrivial for _, initial, _, nontrivial in _components(G)
    )


def unique_negative_cycle_arc(
    G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP
) -> Optional[Arc]:
    """An arc of the unique negative cycle lying on no positive cycle.

    Requires the graph to have exactly one negative cycle.  Existence is
    guaranteed; None signals a defect and is asserted against in tests.
    """
    cycles = _cycles(G, cap)
    negatives = [c for c in cycles if c.sign == NEGATIVE]
    if len(negatives) != 1:
        raise ValueError(f"graph has {len(negatives)} negative cycles, not 1")
    on_positive = {a for c in cycles if c.sign == POSITIVE for a in c.arcs}
    return next((a for a in negatives[0].arcs if a not in on_positive), None)


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

    def to_dict(self) -> dict:
        return {
            "tau_plus": self.tau_plus,
            "tau_tilde_plus": self.tau_tilde_plus,
            "g_plus": _length(self.g_plus),
            "g_tilde_plus": _length(self.g_tilde_plus),
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


def _length(value):
    """A cycle length as structured output writes it: an int, or "inf"."""
    return "inf" if value == INF else int(value)


def _bound_terms(G: SignedDigraph, cap: int) -> tuple:
    """(tau+, tau~+, g~+, fixed-point bound) of G from one hitting-set search.

    The bound is min(2^tau~+, an upper bound on A(n, g~+)), as
    ``codes.fixed_point_bound`` computes it.  A graph past the search limit
    is refused before its cycles are enumerated.
    """
    _check_limit(G.n, *_SEARCH)
    index = _cycle_index(G, cap)
    masks = _positive_masks(index)
    tp = _hitting_number(masks)
    tt = _tau_tilde_plus(index, masks, tp)
    gt = g_tilde_plus(G, cap)
    return tp, tt, gt, codes.fixed_point_bound(G.n, tt, gt)


def analyze(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> AnalysisReport:
    """Full structural report with the fixed-point bound of ``_bound_terms``."""
    tp, tt, gt, bound = _bound_terms(G, cap)
    return AnalysisReport(
        n=G.n,
        tau_plus=tp,
        tau_tilde_plus=tt,
        g_plus=g_plus(G, cap),
        g_tilde_plus=gt,
        thm3=uniqueness_arc_rule(G, cap),
        thm4=uniqueness_vertex_rule(G, cap),
        thm5=existence_arc_rule(G, cap),
        no_fixed_point=no_fixed_point_condition(G, cap),
        two_fixed_points=two_fixed_points_condition(G),
        fixed_point_upper_bound=bound,
    )
