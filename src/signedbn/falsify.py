"""The fixed-point statements as falsifiable properties, and their harness.

Each registered property names the kind of instance it takes (a signed
digraph with a consistent network, a signed digraph, or an unsigned
digraph) and one per-instance check.  Random trials, the exhaustive sweep
and the CLI ``check`` command all derive from that one entry.  Reports
carry the serialized instance, so counterexamples re-verify after a round
trip.  Per-trial RNGs are derived from (seed, trial index), so reports do
not depend on execution order.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional

from . import formats, structure
from .boolnet import (
    DEFAULT_MAX_INDEGREE,
    _FIXED_POINT_SCAN,
    _sample_family,
    _tables_with_signs,
    enumerate_consistent,
)
from .generators import (
    _arc_prob,
    _draw_input_signs,
    _signed_digraph,
    iter_simple_signed_digraphs,
    random_digraph,
    random_signed_digraph,
)
from .graphs import (
    NEGATIVE,
    POSITIVE,
    CycleCapExceeded,
    SignedDigraph,
    _capped,
    _check_cap,
    _check_limit,
    _most_cycles,
    enumerate_cycles,
    has_negative_cycle,
    is_strong,
    iter_cycles,
)
from .kernels import (
    _SUBSET_SCAN,
    generalized_condition,
    kernel_indicators,
    kernels,
    richardson_condition,
)
from .structure import (
    RuleVerdict,
    find_special_arc,
    uniqueness_arc_rule,
    uniqueness_vertex_rule,
)

FALSIFY_CYCLE_CAP = 10_000
# The largest n whose complete signed digraph has at most FALSIFY_CYCLE_CAP
# cycles (5, with 1,458; on 6 vertices it has 14,120), so that no graph on
# n vertices or fewer can pass the cap.
_UNCAPPED_N = next(n for n in itertools.count() if _most_cycles(n + 1) > FALSIFY_CYCLE_CAP)
# The largest exhaustive sweep: every simple signed digraph on up to three
# vertices with every consistent network, 1,125,064 networks.  Four
# vertices alone give 3^16 graphs.
MAX_EXHAUSTIVE_N = 3
# The largest max_n of random GRAPH trials.  Their checks enumerate the
# cycles of a random graph or of its symmetrization, and the cycle cap
# counts the cycles found, not the backtracking: one 23-vertex harary
# draw takes 15 s.  At 20, 1,000 harary trials took at most 13 s over
# seeds 0 to 39.  The lemma9 and harary checks refuse larger graphs.
MAX_GRAPH_N = 20
_CYCLE_SEARCH = ("cycle search", MAX_GRAPH_N)


# -- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    detail: str
    artifacts: dict[str, str] = field(default_factory=dict)


@dataclass
class FalsifyReport:
    theorem: str
    trials: int
    counterexamples: list[Counterexample]
    seconds: float

    @property
    def falsified(self) -> bool:
        return bool(self.counterexamples)

    def to_dict(self) -> dict:
        """Structured form; deterministic, so wall time stays out of it."""
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "counterexamples": [
                {"detail": c.detail, "artifacts": dict(sorted(c.artifacts.items()))}
                for c in self.counterexamples
            ],
        }


# -- drawing instances ------------------------------------------------------------


def _within_cap(G: SignedDigraph) -> bool:
    """Whether G has at most FALSIFY_CYCLE_CAP simple cycles.  On at most
    _UNCAPPED_N vertices no graph has more, so none is enumerated here."""
    if G.n <= _UNCAPPED_N:
        return True
    try:
        enumerate_cycles(G, FALSIFY_CYCLE_CAP)
    except CycleCapExceeded:
        return False
    return True


def _draw_pair(rng: random.Random, max_n: int, max_indegree: int):
    """A random signed digraph, redrawn until it has a consistent network
    within the in-degree and cycle caps, and one such network.

    The draws are ``random_signed_digraph``'s, made in one pass that gives
    each vertex its sources and their sign codes.  Those are the inputs
    and the ``_tables_with_signs`` key that ``_family`` would find on the
    built graph, so a draw past the in-degree cap or with an unrealizable
    vertex is redrawn with no arc and no graph built; only the kept draw
    becomes a SignedDigraph.  ``max_indegree`` may not pass
    DEFAULT_MAX_INDEGREE, the widest tables ``_tables_with_signs`` reads.
    """
    if max_indegree > DEFAULT_MAX_INDEGREE:
        raise ValueError(
            f"max_indegree={max_indegree} exceeds the in-degree limit {DEFAULT_MAX_INDEGREE}"
        )
    while True:
        n = rng.randint(1, max_n)
        into = _draw_input_signs(n, _arc_prob(n, None), 0.5, rng)
        family = []
        for signs in into:
            if len(signs) > max_indegree:
                break
            tables = _tables_with_signs(tuple(signs.values()))
            if not tables:
                break
            family.append((tuple(signs), tables))
        else:
            G = _signed_digraph(into)
            if _within_cap(G):
                return G, _sample_family(family, rng)


def _draw_graph(rng: random.Random, max_n: int, max_indegree: int):
    """A random signed digraph, or None (a vacuous trial) past the cycle cap."""
    G = random_signed_digraph(rng.randint(1, max_n), rng=rng)
    return (G,) if _within_cap(G) else None


def _draw_digraph(rng: random.Random, max_n: int, max_indegree: int):
    return (random_digraph(rng.randint(1, max_n), rng=rng),)


def _sweep_pairs(max_n: int, max_indegree: int):
    """Every simple signed digraph up to max_n vertices, with each consistent network."""
    return (
        (G, f)
        for n in range(1, max_n + 1)
        for G in iter_simple_signed_digraphs(n)
        for f in enumerate_consistent(G, max_indegree)
    )


@dataclass(frozen=True)
class InstanceKind:
    """How random trials draw an instance, or None for a vacuous trial; the
    exhaustive sweep up to a vertex count, or None; per part, in the order
    ``check`` takes the parts, its artifact name, serializer and file
    loader; and ``refusal``, the (what, L), as ``_check_limit`` takes it,
    by which every check of the kind refuses a first part past L vertices.
    L is also the largest max_n random trials take.
    """

    draw: Callable[[random.Random, int, int], Optional[tuple]]
    sweep: Optional[Callable[[int, int], Iterator[tuple]]]
    parts: tuple[tuple[str, Callable, Callable], ...]
    refusal: tuple[str, int]


_GRAPH_PART = ("graph", formats.format_signed_digraph, formats.load_signed_digraph)

# A signed digraph with a consistent network: its checks scan the network's
# fixed points.  ``check`` of a rule theorem reads the graph alone and
# refuses it by the same limit.
PAIR = InstanceKind(
    _draw_pair, _sweep_pairs,
    (_GRAPH_PART, ("network", formats.format_boolean_network, formats.load_boolean_network)),
    _FIXED_POINT_SCAN,
)
# A signed digraph alone: its checks search its cycles.
GRAPH = InstanceKind(_draw_graph, None, (_GRAPH_PART,), _CYCLE_SEARCH)
# An unsigned digraph: its checks scan 2^n vertex subsets.
DIGRAPH = InstanceKind(
    _draw_digraph, None,
    (("digraph", formats.format_digraph, formats.load_digraph),), _SUBSET_SCAN,
)


# -- the properties -----------------------------------------------------------------


@dataclass(frozen=True)
class TheoremProperty:
    """One falsifiable statement: its instance kind plus a per-instance check.

    ``check`` takes the instance's parts (G and f for PAIR, G for GRAPH, D
    for DIGRAPH) and a keyword ``cap`` on enumerated cycles (default
    FALSIFY_CYCLE_CAP; checks that enumerate nothing under a cap ignore
    it).  It returns None when the instance satisfies the statement
    (vacuously or not) and a one-line violation detail otherwise.  The
    rule theorems also carry their graph ``condition``, called as
    ``condition(G, cap)`` and returning a RuleVerdict.  ``refusal`` is as
    the kind's, for a check that refuses where the other checks of its
    kind do not.
    """

    id: str
    description: str
    kind: InstanceKind
    check: Callable[..., Optional[str]]
    condition: Optional[Callable[[SignedDigraph, int], RuleVerdict]] = None
    refusal: Optional[tuple[str, int]] = None

    @property
    def file_limit(self) -> tuple[str, int]:
        """The refusal (what, L) ``check`` applies to a first part of more
        than L vertices, so that a file can be refused by its header.  L is
        also the largest max_n random trials take."""
        return self.refusal or self.kind.refusal

    def counterexample(self, instance: tuple) -> Optional[Counterexample]:
        detail = self.check(*instance)
        if detail is None:
            return None
        return Counterexample(
            detail, {name: fmt(part) for (name, fmt, _), part in zip(self.kind.parts, instance)}
        )


def _rule_property(theorem_id, description, condition, conclusion, detail) -> TheoremProperty:
    """A rule theorem: when ``condition`` holds on G, ``conclusion(f)`` must.
    The conclusion, read off f's fixed points, is checked first: on most
    instances it holds and decides the verdict without the condition."""

    def check(G, f, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
        if not conclusion(f) and condition(G, cap).holds:
            return detail
        return None

    return TheoremProperty(theorem_id, description, PAIR, check, condition)


def make_existence_rule_property(checker=structure._existence_verdict) -> TheoremProperty:
    """The at-least-one-fixed-point arc rule, with an injectable checker.

    The checker is called as ``checker(G, cap)`` and returns a
    RuleVerdict; the default decides the rule on G's sign cover and reads
    ``cap`` only to refuse one below 0.  Tests inject a broken checker
    here to confirm the harness actually catches false statements.
    """
    return _rule_property(
        "thm5",
        "existence arc rule implies a fixed point",
        checker,
        lambda f: bool(f.fixed_points()),
        "arc rule holds but the network has no fixed point",
    )


def _disagreement_check(special_arc_free: bool, cycle: str):
    """Any two distinct fixed points of f differ on every vertex of some
    positive cycle of G; with ``special_arc_free``, of one with no special
    arc.  With fewer than two fixed points no cycle is enumerated."""

    def check(G, f, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
        fixed = f.fixed_points()
        if len(fixed) < 2:
            return None
        cycles = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
        if special_arc_free:
            cycles = [c for c in cycles if find_special_arc(G, c, cap) is None]
        for x, y in itertools.combinations(fixed, 2):
            disagree = {v + 1 for v in range(f.n) if x[v] != y[v]}
            if not any(disagree.issuperset(c.vertices) for c in cycles):
                return f"fixed points {(x, y)} share no {cycle}"
        return None

    return check


def _check_thm2(G, f, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    _check_limit(G.n, *_FIXED_POINT_SCAN)
    if not has_negative_cycle(G) and not f.fixed_points():
        return "negative-cycle-free graph with a fixed-point-free network"
    return None


def _check_thm6(G, f, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    """When G is strong with exactly one negative cycle and some positive
    cycle, and f canalizes no arc of that negative cycle, f has two fixed
    points at Hamming distance n."""
    _check_limit(G.n, *_FIXED_POINT_SCAN)
    if not is_strong(G):
        return None
    cycles = enumerate_cycles(G, cap)
    negatives = [c for c in cycles if c.sign == NEGATIVE]
    if len(negatives) != 1 or not any(c.sign == POSITIVE for c in cycles):
        return None
    if any(f.is_canalized(a) for a in negatives[0].arcs):
        return None
    fixed = set(f.fixed_points())
    if any(tuple(1 - b for b in x) in fixed for x in fixed):
        return None
    return "premises hold but no antipodal fixed-point pair"


@lru_cache(maxsize=1)
def _graph_fp_bound(G, cap: int) -> int:
    """G's bound; a sweep checks each graph's networks in a row, so one is cached."""
    return structure._bound_terms(G, cap)[3]


def _check_cor8(G, f, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    bound = _graph_fp_bound(G, cap)
    count = len(f.fixed_points())
    if count > bound:
        return f"{count} fixed points exceed the bound {bound}"
    return None


def _check_lemma9(G, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    _check_limit(G.n, *_CYCLE_SEARCH)
    cycles = enumerate_cycles(G, cap)
    if sum(1 for c in cycles if c.sign == NEGATIVE) != 1:
        return None
    if structure.unique_negative_cycle_arc(G, cap) is None:
        return "unique negative cycle but every arc of it lies on a positive cycle"
    return None


def _check_harary(G, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    _check_limit(G.n, *_CYCLE_SEARCH)
    _check_cap(cap)
    H = G.symmetrize()
    # Symmetrizing H returns H, so two_coloring builds no second graph.
    colors = structure.two_coloring(H)
    negative = any(c.sign == NEGATIVE for c in _capped(iter_cycles(H), cap))
    if (colors is None) != negative:
        return "two-coloring existence disagrees with symmetrized negative cycles"
    # The coloring is consistent iff G(colors) = G: every positive arc
    # joins equal colors and every negative arc unequal ones.
    if colors is not None and any(
        (colors[a.source - 1] == colors[a.target - 1]) != (a.sign == POSITIVE) for a in G.arc_set
    ):
        return "returned coloring is not consistent"
    return None


def _check_richardson(D, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    _check_limit(D.n, *_SUBSET_SCAN)
    if richardson_condition(D) and not kernels(D):
        return "no odd cycle but no kernel"
    return None


def _check_richardson_gen(D, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    _check_limit(D.n, *_SUBSET_SCAN)
    if generalized_condition(D) and not kernels(D):
        return "cut condition holds but no kernel"
    return None


def _check_kernel_corr(D, cap=FALSIFY_CYCLE_CAP) -> Optional[str]:
    if set(kernels(D)) != kernel_indicators(D):
        return "kernels differ from decoded network fixed points"
    return None


def _at_most_one_fixed_point(f) -> bool:
    return len(f.fixed_points()) <= 1


REGISTRY: dict[str, TheoremProperty] = {
    p.id: p
    for p in [
        TheoremProperty(
            "thm1", "distinct fixed points disagree on a positive cycle", PAIR,
            _disagreement_check(False, "positive disagreement cycle"),
        ),
        TheoremProperty("thm2", "no negative cycle implies a fixed point", PAIR, _check_thm2),
        _rule_property(
            "thm3", "uniqueness arc rule bounds fixed points by one",
            uniqueness_arc_rule, _at_most_one_fixed_point,
            "uniqueness arc rule holds but the network has two fixed points",
        ),
        _rule_property(
            "thm4", "uniqueness vertex rule bounds fixed points by one",
            uniqueness_vertex_rule, _at_most_one_fixed_point,
            "uniqueness vertex rule holds but the network has two fixed points",
        ),
        make_existence_rule_property(),
        TheoremProperty(
            "thm6", "antipodal pair under the unique-negative-cycle premises", PAIR, _check_thm6
        ),
        TheoremProperty(
            "thm7", "disagreement cycle without special arc", PAIR,
            _disagreement_check(True, "special-arc-free positive cycle"),
        ),
        TheoremProperty(
            "cor8", "fixed points within min(2^tau~+, A(n, g~+))", PAIR, _check_cor8,
            refusal=structure._SEARCH,
        ),
        TheoremProperty(
            "lemma9", "unique negative cycle owns a positive-cycle-free arc", GRAPH, _check_lemma9
        ),
        TheoremProperty("harary", "two-coloring iff balanced symmetrization", GRAPH, _check_harary),
        TheoremProperty("richardson", "no odd cycle implies a kernel", DIGRAPH, _check_richardson),
        TheoremProperty(
            "richardson-gen", "odd-cycle cut condition implies a kernel", DIGRAPH,
            _check_richardson_gen,
        ),
        TheoremProperty(
            "kernel-corr", "kernels are the network's fixed points", DIGRAPH, _check_kernel_corr
        ),
    ]
}


# -- the harness ---------------------------------------------------------------------


def _trial_rngs(seed: int, trials: int) -> Iterator[random.Random]:
    """One generator, seeded with f"{seed}:{i}" before trial i.  Seeding
    resets all of its state, so trial i draws what a fresh
    ``random.Random(f"{seed}:{i}")`` would, without building one."""
    rng = random.Random()
    for i in range(trials):
        rng.seed(f"{seed}:{i}")
        yield rng


def run_falsification(
    prop: TheoremProperty,
    trials: int,
    seed: int,
    max_n: int = 5,
    exhaustive_n: Optional[int] = None,
    stop_after: Optional[int] = None,
    max_indegree: int = 4,
) -> FalsifyReport:
    """Drive one property for a number of independently seeded trials.

    With ``exhaustive_n`` (up to MAX_EXHAUSTIVE_N, for a kind with a
    sweep: PAIR) the harness runs the kind's sweep instead of sampling.
    Random trials take ``max_n`` from 1, or from 2 for PAIR, up to the
    limit of ``prop.file_limit``, and ``max_indegree`` up to
    DEFAULT_MAX_INDEGREE.  Every parameter is checked before any trial
    runs.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    kind = prop.kind
    limit = prop.file_limit[1]
    if max_n > limit:
        raise ValueError(f"max_n={max_n} exceeds the scan limit {limit} of theorem {prop.id!r}")
    # At n = 1 a PAIR draw always holds both loops, which no one-input
    # table realizes, so ``_draw_pair`` would redraw forever.
    if kind is PAIR and exhaustive_n is None and max_n == 1:
        raise ValueError(f"max_n must be at least 2 for theorem {prop.id!r}, got 1")
    if max_indegree < 0:
        raise ValueError(f"max_indegree must be at least 0, got {max_indegree}")
    if max_indegree > DEFAULT_MAX_INDEGREE:
        raise ValueError(
            f"max_indegree={max_indegree} exceeds the in-degree limit {DEFAULT_MAX_INDEGREE}"
        )
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if exhaustive_n is not None and exhaustive_n < 1:
        raise ValueError(f"exhaustive_n must be at least 1, got {exhaustive_n}")
    if exhaustive_n is not None and exhaustive_n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive_n={exhaustive_n} exceeds the exhaustive limit {MAX_EXHAUSTIVE_N}"
        )
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be at least 1, got {stop_after}")
    if exhaustive_n is None:
        instances = (kind.draw(rng, max_n, max_indegree) for rng in _trial_rngs(seed, trials))
    elif kind.sweep is None:
        raise ValueError(f"theorem {prop.id!r} has no exhaustive mode")
    else:
        instances = kind.sweep(exhaustive_n, max_indegree)
    start = time.perf_counter()
    found: list[Counterexample] = []
    ran = 0
    for instance in instances:
        ran += 1
        result = None if instance is None else prop.counterexample(instance)
        if result is not None:
            found.append(result)
            if stop_after is not None and len(found) >= stop_after:
                break
    return FalsifyReport(prop.id, ran, found, time.perf_counter() - start)


def falsify(
    theorem: str,
    trials: int = 1000,
    seed: int = 0,
    max_n: int = 5,
    exhaustive_n: Optional[int] = None,
    max_indegree: int = 4,
) -> FalsifyReport:
    if theorem not in REGISTRY:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {sorted(REGISTRY)}")
    return run_falsification(
        REGISTRY[theorem], trials, seed, max_n, exhaustive_n, max_indegree=max_indegree
    )
