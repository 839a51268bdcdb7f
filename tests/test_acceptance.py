"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest -s`` to see them as they complete).  The exhaustive sweeps share
one pass over all simple signed digraphs with n <= 3 and every network
consistent with each; the n = 4 balance check walks symmetrization
classes, which cover all 3^16 simple graphs because both sides of the
checked equivalence depend only on the symmetrized graph.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from conftest import iter_digraphs
from signedbn.boolnet import (
    BooleanNetwork,
    LocalFunction,
    count_consistent,
    enumerate_consistent,
    max_fixed_points,
    sample_consistent,
)
from signedbn.codes import (
    exact_max_code,
    fixed_point_bound,
    gilbert_lower,
    sphere_packing_upper,
)
from signedbn.falsify import make_existence_rule_property, run_falsification
from signedbn.generators import figure1, iter_simple_signed_digraphs, random_signed_digraph
from signedbn.graphs import (
    INF,
    NEGATIVE,
    POSITIVE,
    Arc,
    SignedDigraph,
    enumerate_cycles,
    iter_cycles,
)
from signedbn.kernels import kernel_indicators, kernels, generalized_condition, richardson_condition
from signedbn.structure import (
    analyze,
    existence_arc_rule,
    find_special_arc,
    g_tilde_plus,
    tau_tilde_plus,
    two_coloring,
    unique_negative_cycle_arc,
    uniqueness_arc_rule,
)


def report(name: str, ok: bool, detail: str = ""):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


# -- shared exhaustive sweep ---------------------------------------------------


@dataclass
class SweepOutcome:
    graphs: int = 0
    networks: int = 0
    pairs: int = 0
    thm1_violations: list = field(default_factory=list)
    thm2_violations: list = field(default_factory=list)
    thm5_violations: list = field(default_factory=list)
    thm7_violations: list = field(default_factory=list)
    cor8_violations: list = field(default_factory=list)


@pytest.fixture(scope="module")
def sweep():
    out = SweepOutcome()
    for n in (1, 2, 3):
        for G in iter_simple_signed_digraphs(n):
            out.graphs += 1
            cycles = enumerate_cycles(G)
            positives = [c for c in cycles if c.sign == POSITIVE]
            negative_free = not any(c.sign == NEGATIVE for c in cycles)
            existence_ok = existence_arc_rule(G).holds
            special_free = None
            bound = None
            for f in enumerate_consistent(G):
                out.networks += 1
                fps = f.fixed_points()
                if negative_free and not fps:
                    out.thm2_violations.append((G, f))
                if existence_ok and not fps:
                    out.thm5_violations.append((G, f))
                if len(fps) < 2:
                    continue  # the bound is always >= 1
                if bound is None:
                    bound = fixed_point_bound(
                        G.n, tau_tilde_plus(G), g_tilde_plus(G)
                    )
                if len(fps) > bound:
                    out.cor8_violations.append((G, f))
                if special_free is None:
                    special_free = [
                        c for c in positives if find_special_arc(G, c) is None
                    ]
                for x, y in itertools.combinations(fps, 2):
                    out.pairs += 1
                    disagree = {
                        v + 1 for v in range(G.n) if x[v] != y[v]
                    }
                    if not any(c.vertex_set <= disagree for c in positives):
                        out.thm1_violations.append((G, x, y))
                    if not any(c.vertex_set <= disagree for c in special_free):
                        out.thm7_violations.append((G, x, y))
    return out


@pytest.fixture(scope="module")
def sampled_instances():
    """At least 10^4 deterministic (graph, consistent network) samples, n <= 5."""
    instances = []
    index = 0
    while len(instances) < 10_000:
        rng = random.Random(f"acceptance:{index}")
        index += 1
        n = rng.randint(1, 5)
        G = random_signed_digraph(n, rng=rng)
        if max(len(G.in_neighbors(v)) for v in G.vertices) > 4:
            continue
        if len(enumerate_cycles(G, 10_000)) > 64:
            continue
        if not count_consistent(G):
            continue
        instances.append((G, sample_consistent(G, rng=rng)))
    return instances


def test_criterion_1_figure1_family():
    start = time.perf_counter()
    ok = True
    for n in (3, 5, 7, 9, 11):
        rep = analyze(figure1(n))
        ok &= rep.tau_plus == -(-(n - 1) // 4)
        ok &= rep.g_plus == 3
        ok &= rep.tau_tilde_plus == 0
        ok &= rep.g_tilde_plus == INF
        ok &= rep.thm3.holds and rep.thm4.holds
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert report("1 figure-1 family", ok, f"{elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_uniqueness_disagreement_cycles(sweep):
    ok = not sweep.thm1_violations and sweep.graphs == 3 + 81 + 19683
    assert report(
        "2 positive disagreement cycles (exhaustive n<=3)",
        ok,
        f"{sweep.networks} networks, {sweep.pairs} fixed-point pairs",
    )


@pytest.mark.slow
def test_criterion_3_existence_without_negative_cycles(sweep):
    ok = not sweep.thm2_violations
    assert report("3 fixed point without negative cycles", ok)


@pytest.mark.slow
def test_criterion_4_special_arc_free_cycles(sweep, sampled_instances):
    violations = list(sweep.thm7_violations)
    for G, f in sampled_instances:
        fps = f.fixed_points()
        if len(fps) < 2:
            continue
        cycles = enumerate_cycles(G)
        special_free = [
            c for c in cycles
            if c.sign == POSITIVE and find_special_arc(G, c) is None
        ]
        for x, y in itertools.combinations(fps, 2):
            disagree = {v + 1 for v in range(G.n) if x[v] != y[v]}
            if not any(c.vertex_set <= disagree for c in special_free):
                violations.append((G, x, y))
    ok = not violations
    assert report(
        "4 special-arc-free disagreement cycles",
        ok,
        f"{len(sampled_instances)} sampled instances",
    )


@pytest.mark.slow
def test_criterion_5_fixed_point_bound(sweep, sampled_instances):
    violations = list(sweep.cor8_violations)
    for G, f in sampled_instances:
        fps = f.fixed_points()
        if len(fps) < 2:
            continue  # bound is always >= 1
        bound = fixed_point_bound(G.n, tau_tilde_plus(G), g_tilde_plus(G))
        if len(fps) > bound:
            violations.append((G, f))
    ok = not violations and max_fixed_points(figure1(5)) == 1
    assert report("5 min(2^tau~+, A(n, g~+)) bound", ok)


@pytest.mark.slow
def test_criterion_6_existence_arc_rule(sweep):
    violations = list(sweep.thm5_violations)
    accepted = 0
    index = 0
    while accepted < 10_000:
        rng = random.Random(f"acceptance-rule:{index}")
        index += 1
        n = rng.randint(1, 5)
        G = random_signed_digraph(n, rng=rng)
        if max(len(G.in_neighbors(v)) for v in G.vertices) > 4:
            continue
        if len(enumerate_cycles(G, 10_000)) > 64:
            continue
        if not count_consistent(G) or not existence_arc_rule(G).holds:
            continue
        accepted += 1
        f = sample_consistent(G, rng=rng)
        if not f.fixed_points():
            violations.append((G, f))
    ok = not violations
    assert report("6 existence arc rule implies a fixed point", ok, f"{accepted} sampled")


# -- criterion 7: strong graphs with exactly one negative cycle -----------------


def _reaches_all(n, succ):
    """Whether vertex 1 reaches every vertex of 1..n along ``succ``."""
    seen = {1}
    frontier = [1]
    while frontier:
        for w in succ[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def _strong_structures(n):
    """All strong arc structures on 1..n with their cycle arc-index masks."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for mask in range(1, 1 << len(pairs)):
        arcs = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
        succ = {v: [] for v in range(1, n + 1)}
        pred = {v: [] for v in range(1, n + 1)}
        for u, v in arcs:
            succ[u].append(v)
            pred[v].append(u)
        if not (_reaches_all(n, succ) and _reaches_all(n, pred)):
            continue
        shape = SignedDigraph(n, [(u, v, POSITIVE) for u, v in arcs])
        index = {(a.source, a.target): i for i, a in enumerate(shape.arcs)}
        cycle_masks = []
        for c in enumerate_cycles(shape):
            m = 0
            for a in c.arcs:
                m |= 1 << index[(a.source, a.target)]
            cycle_masks.append(m)
        yield shape.arcs, cycle_masks


def _unique_negative_graphs(n):
    """Every simple signed digraph on 1..n that is strong with exactly one
    negative cycle, generated structure-by-structure with sign masks."""
    for arcs, cycle_masks in _strong_structures(n):
        m = len(arcs)
        for signs in range(1 << m):
            negatives = 0
            for cm in cycle_masks:
                if (signs & cm).bit_count() & 1:
                    negatives += 1
                    if negatives > 1:
                        break
            if negatives != 1:
                continue
            yield SignedDigraph(
                n,
                [
                    (a.source, a.target, NEGATIVE if (signs >> i) & 1 else POSITIVE)
                    for i, a in enumerate(arcs)
                ],
            )


def _table_canalizes(table, k, position, sign):
    """Tuple-level restatement of arc canalization, independent of boolnet."""
    step = 1 << (k - 1 - position)
    for c in (0, 1):
        pinned = c if sign == POSITIVE else 1 - c
        if all(
            table[j] == c
            for j in range(1 << k)
            if ((j & step) != 0) == (pinned == 1)
        ):
            return True
    return False


_PREMISE_CACHE = {}


def _premise_rules(sig, canal):
    """Tables realizing the signature minus those canalizing the cycle arc.

    Returns (tables, forced) where forced[pattern] is the output every
    surviving table gives on that input pattern, or None when they differ.
    """
    key = (sig, canal)
    if key in _PREMISE_CACHE:
        return _PREMISE_CACHE[key]
    from signedbn.boolnet import _signature_index

    k = len(sig)
    rows = range(1 << k)
    tables = [tuple(t >> j & 1 for j in rows) for t in _signature_index(k).get(sig, ())]
    if canal is not None:
        position, sign = canal
        tables = [t for t in tables if not _table_canalizes(t, k, position, sign)]
    forced = []
    for pattern in range(1 << k):
        values = {t[pattern] for t in tables}
        forced.append(values.pop() if len(values) == 1 else None)
    result = (tuple(tables), tuple(forced))
    _PREMISE_CACHE[key] = result
    return result


def _antipodal_holds_for_all(G, negative):
    """Decide: every premise network has an antipodal fixed pair.

    The premise networks factor per vertex, so a pair (x, complement) is
    fixed by all of them iff every vertex's surviving tables force the
    matching output on both states; one such universal pair settles the
    whole family at once (the underlying theorem guarantees one exists).
    Without a universal pair the family is enumerated outright.
    Returns (verdict, number of premise networks).
    """
    per_vertex = []
    count = 1
    for v in G.vertices:
        inputs = G.in_neighbors(v)
        sig = tuple(
            (1 if Arc(u, v, POSITIVE) in G.arc_set else 0)
            | (2 if Arc(u, v, NEGATIVE) in G.arc_set else 0)
            for u in inputs
        )
        canal = None
        for a in negative.arcs:
            if a.target == v:
                canal = (inputs.index(a.source), a.sign)
        tables, forced = _premise_rules(sig, canal)
        if not tables:
            return True, 0  # no premise network at all: vacuous
        count *= len(tables)
        per_vertex.append((v, inputs, tables, forced))
    n = G.n
    for x in itertools.product((0, 1), repeat=n):
        if x[0] == 1:
            break  # complements already covered
        universal = True
        for v, inputs, _, forced in per_vertex:
            pattern = 0
            for u in inputs:
                pattern = (pattern << 1) | x[u - 1]
            mirror = pattern ^ ((1 << len(inputs)) - 1)
            if forced[pattern] != x[v - 1] or forced[mirror] != 1 - x[v - 1]:
                universal = False
                break
        if universal:
            return True, count
    for combo in itertools.product(*(t for _, _, t, _ in per_vertex)):
        f = BooleanNetwork([
            LocalFunction(inputs, table)
            for (v, inputs, _, _), table in zip(per_vertex, combo)
        ])
        fps = set(f.fixed_points())
        if not any(tuple(1 - b for b in x) in fps for x in fps):
            return False, count
    return True, count


@pytest.mark.slow
def test_criterion_7_antipodal_pairs_and_cut_arcs():
    lemma_failures = 0
    antipodal_failures = 0
    checked_graphs = 0
    premise_graphs = 0
    premise_networks = 0
    cross_checks = 0
    for n in (1, 2, 3, 4):
        for G in _unique_negative_graphs(n):
            checked_graphs += 1
            if unique_negative_cycle_arc(G) is None:
                lemma_failures += 1
            cycles = enumerate_cycles(G)
            negative = next(c for c in cycles if c.sign == NEGATIVE)
            if not any(c.sign == POSITIVE for c in cycles):
                continue
            # every 1- or 2-input unate rule canalizes its arcs, so heads
            # of the negative cycle need three or more in-neighbors before
            # any premise network can exist
            if any(len(G.in_neighbors(a.target)) < 3 for a in negative.arcs):
                continue
            holds, count = _antipodal_holds_for_all(G, negative)
            if count:
                premise_graphs += 1
                premise_networks += count
            if not holds:
                antipodal_failures += 1
            elif count and 0 < count <= 512 and premise_graphs % 200 == 0:
                cross_checks += 1
                assert _enumerated_antipodal_check(G) == holds
    ok = lemma_failures == 0 and antipodal_failures == 0
    assert report(
        "7 unique-negative-cycle arc and antipodal pairs",
        ok,
        f"{checked_graphs} graphs, {premise_networks} premise networks "
        f"across {premise_graphs}, {cross_checks} enumerated cross-checks",
    )


def _enumerated_antipodal_check(G):
    """Reference path: enumerate the premise networks one by one."""
    cycles = enumerate_cycles(G)
    negative = next(c for c in cycles if c.sign == NEGATIVE)
    for f in enumerate_consistent(G):
        if any(f.is_canalized(a) for a in negative.arcs):
            continue
        fps = set(f.fixed_points())
        if not any(tuple(1 - b for b in x) in fps for x in fps):
            return False
    return True


@pytest.mark.slow
def test_criterion_8_balance_equivalence():
    violations = 0
    checked = 0

    def verify(G):
        nonlocal violations, checked
        checked += 1
        balanced = two_coloring(G) is not None
        oracle = not any(
            c.sign == NEGATIVE for c in iter_cycles(G.symmetrize())
        )
        if balanced != oracle:
            violations += 1

    for n in (1, 2, 3):
        for G in iter_simple_signed_digraphs(n):
            verify(G)
    # n = 4 via symmetrization classes: both sides depend only on G*, and
    # every simple graph's G* appears among these representatives.
    pair_options = ((), (POSITIVE,), (NEGATIVE,), (POSITIVE, NEGATIVE))
    loop_options = ((), (POSITIVE,), (NEGATIVE,))
    pairs = list(itertools.combinations(range(1, 5), 2))
    for pair_signs in itertools.product(pair_options, repeat=len(pairs)):
        for loop_signs in itertools.product(loop_options, repeat=4):
            arcs = []
            for (u, v), signs in zip(pairs, pair_signs):
                if len(signs) == 2:
                    arcs.append((u, v, POSITIVE))
                    arcs.append((v, u, NEGATIVE))
                else:
                    arcs.extend((u, v, s) for s in signs)
            for v, signs in zip(range(1, 5), loop_signs):
                arcs.extend((v, v, s) for s in signs)
            verify(SignedDigraph(4, arcs))
    ok = violations == 0
    assert report("8 balance iff two-colorable", ok, f"{checked} graphs")


@pytest.mark.slow
def test_criterion_9_code_bounds():
    ok = True
    for n in range(1, 9):
        for d in range(1, n + 1):
            value = exact_max_code(n, d)
            ok &= gilbert_lower(n, d) <= value <= sphere_packing_upper(n, d)
    ok &= exact_max_code(5, 3) == 4
    ok &= all(exact_max_code(n, 1) == 1 << n for n in range(1, 9))
    ok &= all(exact_max_code(n, n) == 2 for n in range(1, 9))
    assert report("9 code-size sandwich and exact values", ok)


def test_criterion_10_kernel_correspondence():
    correspondence = richardson = generalized = 0
    for n in (1, 2, 3, 4):
        for D in iter_digraphs(n):
            ks = kernels(D)
            if set(ks) != kernel_indicators(D):
                correspondence += 1
            if not ks:
                if richardson_condition(D):
                    richardson += 1
                if generalized_condition(D):
                    generalized += 1
    ok = correspondence == richardson == generalized == 0
    assert report("10 kernels as network fixed points", ok)


def test_criterion_11_mutation_sensitivity():
    mutant = make_existence_rule_property(checker=uniqueness_arc_rule)
    found = run_falsification(mutant, trials=10_000, seed=7, max_n=5, stop_after=1)
    ok = found.falsified and found.trials <= 10_000
    assert report(
        "11 falsifier catches a sign-flipped checker",
        ok,
        f"counterexample after {found.trials} trials",
    )
