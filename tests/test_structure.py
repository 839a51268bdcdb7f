"""Special arcs, theorem conditions, deletion parameters, two-colorings."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_signed_digraphs,
    all_simple_signed_digraphs,
    g,
    rebuilt_find_special_arc,
    rebuilt_g_tilde_plus,
    rebuilt_isolation_rule,
    rebuilt_no_fixed_point_condition,
    rebuilt_special_failure,
    rebuilt_tau_plus,
    rebuilt_tau_tilde_plus,
    rebuilt_unique_negative_cycle_arc,
    rebuilt_vertex_rule,
    scan_tau_plus,
    scan_tau_tilde_plus,
)
from signedbn.boolnet import DEFAULT_MAX_INDEGREE
from signedbn.falsify import _draw_pair, _sweep_pairs
from signedbn.generators import double_cycle, figure1, random_signed_digraph
from signedbn.graphs import (
    DEFAULT_CYCLE_CAP,
    INF,
    NEGATIVE,
    POSITIVE,
    Arc,
    CycleCapExceeded,
    SignedCycle,
    SignedDigraph,
    _cycle_index,
    _set_bits,
    enumerate_cycles,
    find_negative_cycle,
    has_negative_cycle,
    is_strong,
)
from signedbn.structure import (
    _existence_verdict,
    _special_failure,
    _stuck,
    analyze,
    existence_arc_rule,
    find_special_arc,
    find_unbalanced_cycle,
    g_plus,
    g_tilde_plus,
    is_special_arc,
    no_fixed_point_condition,
    tau_plus,
    tau_tilde_plus,
    two_coloring,
    two_fixed_points_condition,
    unique_negative_cycle_arc,
    uniqueness_arc_rule,
    uniqueness_vertex_rule,
)


def small_graphs(max_n=4):
    return st.builds(
        lambda n, seed: random_signed_digraph(n, seed=seed),
        st.integers(1, max_n),
        st.integers(0, 10 ** 6),
    )


def triangle(G):
    return enumerate_cycles(G)[0]


class TestSpecialArc:
    def test_figure1_loop_shielded_arc_is_special(self):
        G = figure1(5)
        v = is_special_arc(G, triangle(G), (2, 3, "+"))
        assert v.holds and v.failed_condition is None

    def test_positive_loop_fails_source_condition(self):
        G = g(1, (1, 1, "+"))
        v = is_special_arc(G, triangle(G), (1, 1, "+"))
        assert not v.holds and v.failed_condition == "i"

    def test_figure1_closing_arc_fails_source_condition(self):
        G = figure1(5)
        v = is_special_arc(G, triangle(G), (3, 1, "+"))
        assert not v.holds and v.failed_condition == "i"

    def test_shared_vertex_arc_fails_positive_cycle_condition(self):
        G = figure1(5)
        v = is_special_arc(G, triangle(G), (1, 2, "+"))
        assert not v.holds and v.failed_condition == "ii"

    def test_reachability_condition(self):
        # two positive loops feeding v through a positive 2-cycle: after
        # deleting the cycle arc into v, a positive cycle still reaches v
        G = g(3, (1, 2, "+"), (2, 1, "+"), (3, 3, "+"), (3, 2, "+"))
        cycle = SignedCycle([(1, 2, "+"), (2, 1, "+")])
        v = is_special_arc(G, cycle, (1, 2, "+"))
        assert not v.holds and v.failed_condition == "iii"

    def test_rejects_negative_cycle(self):
        G = g(1, (1, 1, "-"))
        with pytest.raises(ValueError):
            is_special_arc(G, triangle(G), (1, 1, "-"))

    def test_rejects_arc_outside_cycle(self):
        G = figure1(5)
        with pytest.raises(ValueError):
            is_special_arc(G, triangle(G), (4, 5, "+"))


class TestArcRules:
    @pytest.mark.parametrize("n", [5, 9])
    def test_figure1_satisfies_uniqueness_rules(self, n):
        G = figure1(n)
        arc_rule = uniqueness_arc_rule(G)
        vertex_rule = uniqueness_vertex_rule(G)
        assert arc_rule.holds and vertex_rule.holds
        assert len(arc_rule.witnesses) == (n - 1) // 2
        # each triangle is cut at the arc entering its loop vertex
        for cycle, arc in arc_rule.witnesses:
            assert arc.target == max(cycle.vertices)

    def test_vacuous_without_positive_cycles(self):
        G = g(1, (1, 1, "-"))
        assert uniqueness_arc_rule(G).holds
        assert uniqueness_vertex_rule(G).holds

    def test_single_positive_loop_fails_both(self):
        G = g(1, (1, 1, "+"))
        assert not uniqueness_arc_rule(G).holds
        assert not uniqueness_vertex_rule(G).holds

    def test_parallel_triangles_fail_vertex_rule(self):
        arcs = [(1, 2, "+"), (2, 3, "+"), (3, 1, "+"),
                (1, 2, "-"), (2, 3, "-")]
        G = g(3, *arcs)  # two positive triangles on the same vertices
        positives = [c for c in enumerate_cycles(G) if c.sign == POSITIVE]
        assert len(positives) == 2
        assert not uniqueness_vertex_rule(G).holds

    def test_existence_rule_vacuous_without_negative_cycles(self):
        assert existence_arc_rule(g(2, (1, 2, "+"), (2, 1, "+"))).holds

    def test_existence_rule_fails_on_lone_negative_loop(self):
        assert not existence_arc_rule(g(1, (1, 1, "-"))).holds

    def test_existence_rule_on_sign_flipped_figure1(self):
        # negative triangles with positive loops: the dual cut applies
        G = g(
            5,
            (1, 2, "+"), (2, 3, "-"), (3, 1, "+"),
            (2, 4, "+"), (4, 5, "-"), (5, 2, "+"),
            (3, 3, "+"), (5, 5, "+"),
        )
        verdict = existence_arc_rule(G)
        assert verdict.holds
        assert len(verdict.witnesses) == 2

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_uniqueness_rule_implies_special_arcs_everywhere(self, G):
        if uniqueness_arc_rule(G).holds:
            for c in enumerate_cycles(G):
                if c.sign == POSITIVE:
                    assert find_special_arc(G, c) is not None


class TestExistenceRuleMasks:
    """``_existence_verdict`` decides the existence arc rule on the sign
    cover, as the graph minus its qualifying arcs having no negative cycle;
    ``existence_arc_rule`` quantifies over the enumerated negative cycles,
    and the rule oracle rebuilds each subgraph and searches it anew."""

    @staticmethod
    def assert_matches(G, rebuilt=True) -> bool:
        holds = _existence_verdict(G).holds
        assert holds == existence_arc_rule(G).holds, G.arcs
        if rebuilt:
            assert holds == rebuilt_isolation_rule(G, enumerate_cycles(G), NEGATIVE)[0], G.arcs
        return holds

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_graph_with_parallel_arcs(self, n):
        verdicts = [self.assert_matches(G) for G in all_signed_digraphs(n)]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_every_simple_graph_n3(self):
        verdicts = [self.assert_matches(G) for G in all_simple_signed_digraphs(3)]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_random_graphs(self):
        # A third drawn over all 2n^2 signed arcs, so with loops and
        # parallel arcs of both signs; the rest simple, with no loop.  The
        # rebuilt oracle searches every vertex permutation, about 1.6 s per
        # 9-vertex graph, so it is asked up to 7 vertices.
        rng = random.Random(31)
        held = 0
        for i in range(5000):
            n, density = rng.randint(1, 9), rng.uniform(0.15, 0.6)
            if i % 3 == 0:
                G = random_signed_digraph(n, density, rng=rng)
            else:
                G = SignedDigraph(n, [
                    (u, v, rng.choice("+-"))
                    for u, v in itertools.permutations(range(1, n + 1), 2)
                    if rng.random() < density
                ])
            held += self.assert_matches(G, rebuilt=n <= 7)
        assert 500 < held < 4500

    def test_decides_past_the_cycle_cap(self):
        # 475,833 cycles for seed 2; seed 1 has more than 10^6.  Neither
        # graph is enumerated, and the cap is only refused below 0.
        for seed in (1, 2):
            G = random_signed_digraph(15, 0.45, seed=seed)
            start = time.perf_counter()
            assert not _existence_verdict(G, 0).holds
            assert time.perf_counter() - start < 1.0
            assert G._cycle_cache is None
        with pytest.raises(ValueError, match="^cycle cap -1 is below 0$"):
            _existence_verdict(G, -1)


class TestParameters:
    @pytest.mark.parametrize(
        "n,tau", [(3, 1), (5, 1), (7, 2), (9, 2), (11, 3), (13, 3), (15, 4)]
    )
    def test_figure1_tau_plus_formula(self, n, tau):
        assert tau_plus(figure1(n)) == tau == -(-(n - 1) // 4)

    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_figure1_tau_tilde_plus_is_zero(self, n):
        assert tau_tilde_plus(figure1(n)) == 0

    @pytest.mark.parametrize("k", range(1, 8))
    def test_disjoint_positive_two_cycles(self, k):
        G = two_cycles(k)
        assert tau_plus(G) == tau_tilde_plus(G) == k

    def test_figure1_girths(self):
        G = figure1(5)
        assert g_plus(G) == 3
        assert tau_tilde_plus(G) == 0
        assert g_tilde_plus(G) == INF

    def test_no_positive_cycles(self):
        G = g(1, (1, 1, "-"))
        assert tau_plus(G) == 0 and g_plus(G) == INF
        assert tau_tilde_plus(G) == 0 and g_tilde_plus(G) == INF

    def test_single_positive_loop(self):
        G = g(1, (1, 1, "+"))
        assert tau_plus(G) == 1 and g_plus(G) == 1
        assert tau_tilde_plus(G) == 1 and g_tilde_plus(G) == 1

    def test_positive_two_cycle(self):
        G = g(2, (1, 2, "+"), (2, 1, "+"))
        assert (tau_plus(G), tau_tilde_plus(G)) == (1, 1)
        assert (g_plus(G), g_tilde_plus(G)) == (2, 2)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            tau_plus(figure1(17))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_parameter_inequalities(self, G):
        assert tau_tilde_plus(G) <= tau_plus(G)
        assert g_plus(G) <= g_tilde_plus(G)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_girth_infinity_characterizations(self, G):
        positives = [c for c in enumerate_cycles(G) if c.sign == POSITIVE]
        assert (g_plus(G) == INF) == (not positives)
        all_special = all(find_special_arc(G, c) is not None for c in positives)
        assert (g_tilde_plus(G) == INF) == all_special


def assert_matches_rebuilt_subgraphs(G):
    """Every subgraph question answered from G's cycle index agrees with
    the oracle that builds the subgraph and searches it anew."""
    cycles = enumerate_cycles(G)
    for c in cycles:
        if c.sign != POSITIVE:
            continue
        for a in c.arcs:
            assert is_special_arc(G, c, a).failed_condition == rebuilt_special_failure(G, c, a)
        assert find_special_arc(G, c) == rebuilt_find_special_arc(G, c)
    assert tau_plus(G) == rebuilt_tau_plus(G)
    assert tau_tilde_plus(G) == rebuilt_tau_tilde_plus(G)
    assert g_tilde_plus(G) == rebuilt_g_tilde_plus(G)
    verdict = uniqueness_vertex_rule(G)
    expected = rebuilt_vertex_rule(G, cycles)
    assert (verdict.holds, verdict.witnesses, verdict.failed_cycle) == expected
    if sum(1 for c in cycles if c.sign == NEGATIVE) == 1:
        assert unique_negative_cycle_arc(G) == rebuilt_unique_negative_cycle_arc(G)
    for rule, sign in ((uniqueness_arc_rule, POSITIVE), (existence_arc_rule, NEGATIVE)):
        verdict = rule(G)
        expected = rebuilt_isolation_rule(G, cycles, sign)
        assert (verdict.holds, verdict.witnesses, verdict.failed_cycle) == expected
    assert no_fixed_point_condition(G) == rebuilt_no_fixed_point_condition(G)


class TestFilteredSubgraphCycles:
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_graph_with_parallel_arcs(self, n):
        for G in all_signed_digraphs(n):
            assert_matches_rebuilt_subgraphs(G)

    @pytest.mark.slow
    def test_every_simple_graph_n3(self):
        for G in all_simple_signed_digraphs(3):
            assert_matches_rebuilt_subgraphs(G)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_random_graphs(self, n):
        for seed in range(25):
            assert_matches_rebuilt_subgraphs(random_signed_digraph(n, seed=seed))

    def test_tau_tilde_plus_disjoint_two_cycles_is_fast(self):
        arcs = [(v, v + 1, "+") for v in range(1, 14, 2)]
        arcs += [(v + 1, v, "+") for v in range(1, 14, 2)]
        G = g(15, *arcs)
        start = time.perf_counter()
        assert tau_tilde_plus(G) == 7
        assert time.perf_counter() - start < 0.5


def assert_special_failures_match_under_cuts(G, max_cut):
    """For every vertex set I of at most ``max_cut`` vertices, each verdict
    of ``_special_failure`` on G's index, with I's in-arcs gone, equals the
    oracle on the rebuilt graph ``G.remove_incoming(I)``."""
    index = _cycle_index(G, DEFAULT_CYCLE_CAP)
    for size in range(max_cut + 1):
        for cut_vertices in itertools.combinations(range(len(index.vertices)), size):
            gone = cut = 0
            for p in cut_vertices:
                gone |= index.in_arcs[p]
                cut |= 1 << p
            left = index.positives & ~index.cycles_meeting(cut)
            cleared = index.sources | cut
            H = G.remove_incoming([index.vertices[p] for p in cut_vertices])
            for j in _set_bits(left):
                c = index.cycles[j]
                for a in c.arcs:
                    verdict = _special_failure(
                        index, gone, left, cleared, index.cycle_vertices[j], index.arc_number[a]
                    )
                    assert verdict == rebuilt_special_failure(H, c, a), (G, cut_vertices, c, a)


class TestSpecialFailureUnderCuts:
    """Special-arc verdicts in G without the in-arcs of a vertex set I,
    answered on G's own index, against the rebuilt subgraph."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_graph_with_parallel_arcs(self, n):
        for G in all_signed_digraphs(n):
            assert_special_failures_match_under_cuts(G, n)

    def test_every_simple_graph_n3(self):
        for G in all_simple_signed_digraphs(3):
            assert_special_failures_match_under_cuts(G, 3)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_random_graphs(self, n):
        for seed in range(25):
            assert_special_failures_match_under_cuts(random_signed_digraph(n, seed=seed), 2)


def two_cycles(k):
    """k vertex-disjoint positive 2-cycles on 2k vertices."""
    arcs = [(v, v + 1, "+") for v in range(1, 2 * k, 2)]
    arcs += [(v + 1, v, "+") for v in range(1, 2 * k, 2)]
    return g(2 * k, *arcs)


def assert_matches_scans(G):
    assert tau_plus(G) == scan_tau_plus(G)
    assert tau_tilde_plus(G) == scan_tau_tilde_plus(G)


def count_calls(monkeypatch, name) -> list:
    """The calls to ``structure.<name>`` made while the test runs."""
    import signedbn.structure as structure

    calls = []
    original = getattr(structure, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(structure, name, counting)
    return calls


class TestBoundedSearches:
    """tau+ by a hitting-set search, and tau~+ scanned from its stuck-cycle
    lower bound up to tau+, equal the subset scans over every size."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_graph_with_parallel_arcs(self, n):
        for G in all_signed_digraphs(n):
            assert_matches_scans(G)

    def test_every_simple_graph_n3(self):
        for G in all_simple_signed_digraphs(3):
            assert_matches_scans(G)

    @pytest.mark.slow
    def test_every_graph_with_parallel_arcs_n3(self):
        # All 4^9 graphs against the scan; against the rebuilt subgraphs on
        # one graph per relabelling class, since tau~+ ignores labels.
        relabellings = list(itertools.permutations((1, 2, 3)))
        for G in all_signed_digraphs(3):
            value = tau_tilde_plus(G)
            assert value == scan_tau_tilde_plus(G)
            arcs = sorted(G.arc_set)
            if all(
                arcs <= sorted(Arc(p[a.source - 1], p[a.target - 1], a.sign) for a in arcs)
                for p in relabellings
            ):
                assert value == rebuilt_tau_tilde_plus(G), G

    # Past 10 vertices a density of 0.3 gives tens of thousands of cycles,
    # which test_dense_graphs covers on fewer graphs.
    @pytest.mark.parametrize(
        "low,high,count,densities",
        [
            pytest.param(1, 5, 2000, (None, 0.1, 0.2, 0.3, 0.45), id="n1-5"),
            pytest.param(6, 10, 2000, (None, 0.1, 0.2, 0.3, 0.45), id="n6-10"),
            pytest.param(11, 15, 1000, (None, 0.1, 0.15, 0.2), id="n11-15"),
        ],
    )
    def test_random_graphs(self, low, high, count, densities):
        rng = random.Random(low)
        for _ in range(count):
            n = rng.randint(low, high)
            density = rng.choice(densities)
            assert_matches_scans(random_signed_digraph(n, density, seed=rng.randrange(10 ** 6)))

    def test_dense_graphs(self):
        rng = random.Random(0)
        graphs = [complete_positive(n) for n in range(2, 8)]
        while len(graphs) < 16:
            G = random_signed_digraph(rng.randint(8, 13), 0.4, seed=rng.randrange(10 ** 6))
            try:
                cycles = len(enumerate_cycles(G, cap=10_000))
            except CycleCapExceeded:
                continue
            if cycles >= 500:
                graphs.append(G)
        for G in graphs:
            assert_matches_scans(G)

    def test_lower_bound_at_tau_plus_checks_no_special_arc(self, monkeypatch):
        calls = count_calls(monkeypatch, "_special_failure")
        assert tau_tilde_plus(two_cycles(7)) == 7
        assert calls == []

    def test_scan_skips_sets_that_miss_a_forced_cycle(self, monkeypatch):
        # Two forced 2-cycles, on positions 0-1 and 2-3, and a positive loop
        # on vertex 5, which vertex 1 also enters, so the loop is not forced.
        G = g(5, (1, 2, "+"), (2, 1, "+"), (3, 4, "+"), (4, 3, "+"), (5, 5, "+"), (1, 5, "+"))
        calls = count_calls(monkeypatch, "_has_special_arc")
        assert tau_tilde_plus(G) == tau_plus(G) == 3
        assert calls
        for _, _, _, cleared, _ in calls:  # G has no source, so cleared is I
            assert cleared & 0b0011 and cleared & 0b1100

    def test_scan_stops_once_a_stuck_cycle_needs_tau_plus(self, monkeypatch):
        # The graph above: the loop on vertex 5 is stuck, since its backward
        # closure holds the positive 2-cycle 1-2, which avoids the loop.  The
        # first set that it sinks teaches the bound 3 = tau+, so no other
        # set of size 2 is checked.
        G = g(5, (1, 2, "+"), (2, 1, "+"), (3, 4, "+"), (4, 3, "+"), (5, 5, "+"), (1, 5, "+"))
        calls = count_calls(monkeypatch, "_has_special_arc")
        assert tau_tilde_plus(G) == 3
        assert len({cleared for _, _, _, cleared, _ in calls}) == 1

    def test_analyze_searches_hitting_sets_once_per_graph(self, monkeypatch):
        # tau+ is the one hitting number taken with no floor; the tau~+
        # scan passes its size as the floor.
        calls = count_calls(monkeypatch, "_hitting_number")
        collected = count_calls(monkeypatch, "_positive_masks")
        inputs = [figure1(7), random_signed_digraph(8, seed=3), two_cycles(7)]
        for G in inputs:
            analyze(G)
        assert len([args for args in calls if len(args) == 1]) == len(inputs)
        assert len(collected) == len(inputs)


def assert_stuck_cycles_keep_no_special_arc(G) -> int:
    """Each positive cycle C that ``_stuck`` accepts has no special arc in
    the rebuilt graph ``G.remove_incoming(I)``, searched anew, for every
    vertex set I that misses C.  Returns how many cycles were accepted."""
    index = _cycle_index(G, DEFAULT_CYCLE_CAP)
    stuck = [index.cycles[j] for j in _set_bits(index.positives) if _stuck(index, j)]
    for c in stuck:
        others = [v for v in G.vertices if v not in c.vertex_set]
        for size in range(len(others) + 1):
            for I in itertools.combinations(others, size):
                assert rebuilt_find_special_arc(G.remove_incoming(I), c) is None, (G, c, I)
    return len(stuck)


class TestStuckCycles:
    """A stuck cycle keeps no special arc for any I that misses it, so
    every valid I for tau~+ meets it; checked without the cycle index.
    The oracle enumerates each rebuilt graph's cycles by exhaustive
    search, whose cost grows about as (n - 1)!, so the larger random
    graphs are fewer and sparser."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_graph_with_parallel_arcs(self, n):
        assert sum(assert_stuck_cycles_keep_no_special_arc(G) for G in all_signed_digraphs(n))

    def test_every_simple_graph_n3(self):
        graphs = all_simple_signed_digraphs(3)
        assert sum(assert_stuck_cycles_keep_no_special_arc(G) for G in graphs)

    @pytest.mark.parametrize(
        "n,count,densities",
        [
            (4, 150, (None, 0.2, 0.3, 0.45)),
            (5, 150, (None, 0.2, 0.3, 0.45)),
            (6, 130, (None, 0.2, 0.3)),
            (7, 60, (0.1, 0.15, 0.2)),
            (8, 10, (0.1,)),
        ],
    )
    def test_random_graphs(self, n, count, densities):
        rng = random.Random(n)
        accepted = 0
        for _ in range(count):
            G = random_signed_digraph(n, rng.choice(densities), seed=rng.randrange(10 ** 6))
            accepted += assert_stuck_cycles_keep_no_special_arc(G)
        assert accepted


def complete_positive(n):
    return SignedDigraph(n, [(u, v, "+") for u in range(1, n + 1) for v in range(1, n + 1) if u != v])


class TestCycleIndexCost:
    """The complete positive digraph on 7 vertices has 2,365 cycles; a
    special-arc check once rescanned all of them."""

    def test_g_tilde_plus(self):
        G = complete_positive(7)
        start = time.perf_counter()
        assert g_tilde_plus(G) == 2
        assert time.perf_counter() - start < 0.5

    def test_find_special_arc_on_200_cycles(self):
        G = complete_positive(7)
        positives = [c for c in enumerate_cycles(G) if c.sign == POSITIVE][:200]
        start = time.perf_counter()
        found = [find_special_arc(G, c) for c in positives]
        assert time.perf_counter() - start < 0.5
        assert found == [None] * 200

    def test_analyze(self):
        G = complete_positive(7)
        start = time.perf_counter()
        report = analyze(G)
        assert time.perf_counter() - start < 2
        assert (report.tau_plus, report.tau_tilde_plus) == (6, 6)
        assert (report.g_plus, report.g_tilde_plus) == (2, 2)
        assert report.fixed_point_upper_bound == 64


class TestCycleIndexCache:
    def test_cap_checked_after_cached_analysis(self):
        G = complete_positive(4)  # 20 cycles
        analyze(G)
        with pytest.raises(CycleCapExceeded):
            analyze(G, cap=10)
        with pytest.raises(CycleCapExceeded):
            g_tilde_plus(G, cap=10)
        assert g_tilde_plus(G, cap=20) == 2

    def test_cap_checked_on_every_call_once_both_caches_fill(self):
        G = double_cycle(2, POSITIVE, 1, NEGATIVE)  # a positive 2-cycle and a negative loop
        analyze(G)
        for call in (enumerate_cycles, g_plus, unique_negative_cycle_arc, g_tilde_plus):
            with pytest.raises(CycleCapExceeded, match="^more than 1 cycles$"):
                call(G, cap=1)
        assert unique_negative_cycle_arc(G, cap=2) == Arc(1, 1, NEGATIVE)

    @staticmethod
    def count_index_builds(monkeypatch) -> list:
        import signedbn.graphs as graphs

        built = []
        original = graphs._CycleIndex.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(graphs._CycleIndex, "__init__", counting)
        return built

    def test_cycle_list_questions_build_no_index(self, monkeypatch):
        built = self.count_index_builds(monkeypatch)
        shapes = [
            lambda: double_cycle(2, POSITIVE, 1, NEGATIVE),
            lambda: g(3, (1, 2, "+"), (2, 1, "+"), (2, 3, "-"), (3, 2, "+")),
            lambda: g(1, (1, 1, "-")),
        ]
        questions = (enumerate_cycles, g_plus, unique_negative_cycle_arc)
        for shape in shapes:
            for question in questions:
                question(shape())  # alone on a fresh graph
            G = shape()
            for question in questions:
                question(G)  # one after another on the same graph
        assert built == []

    def test_analyze_builds_one_index_per_graph(self, monkeypatch):
        built = self.count_index_builds(monkeypatch)
        inputs = [figure1(7), random_signed_digraph(8, seed=3), g(2, (1, 2, "+"), (2, 1, "+"))]
        for G in inputs:
            enumerate_cycles(G)
            analyze(G)
            analyze(G)
        assert len(built) == len(inputs)

    def test_equal_graphs_answer_alike(self):
        for seed in range(20):
            first = random_signed_digraph(6, seed=seed)
            analyze(first)
            second = random_signed_digraph(6, seed=seed)
            assert first == second and first is not second
            assert analyze(second) == analyze(first)
            for c in enumerate_cycles(first):
                if c.sign == POSITIVE:
                    assert find_special_arc(second, c) == find_special_arc(first, c)


class TestTwoColoring:
    def test_negative_loop_unbalanced(self):
        G = g(1, (1, 1, "-"))
        assert two_coloring(G) is None
        witness = find_unbalanced_cycle(G)
        assert witness.sign == NEGATIVE

    def test_positive_two_cycle(self):
        assert two_coloring(g(2, (1, 2, "+"), (2, 1, "+"))) == (0, 0)

    def test_odd_constraint_triangle(self):
        G = g(3, (1, 2, "+"), (2, 3, "+"), (3, 1, "-"))
        assert two_coloring(G) is None
        witness = find_unbalanced_cycle(G)
        assert witness.sign == NEGATIVE
        assert set(witness.arcs) <= G.symmetrize().arc_set

    def test_mixed_signs(self):
        G = g(3, (1, 2, "-"), (2, 3, "-"))
        assert two_coloring(G) == (0, 1, 0)

    def test_lowest_vertex_of_each_component_gets_zero(self):
        G = g(4, (1, 2, "-"), (3, 4, "-"))
        assert two_coloring(G) == (0, 1, 0, 1)

    def test_exhaustive_equivalence_n3(self):
        # oracle: a two-coloring exists iff some state makes every arc
        # consistent; checked by scanning all states
        for G in all_simple_signed_digraphs(3):
            colors = two_coloring(G)
            expected = any(
                G.consistent_subgraph(x) == G
                for x in _states(3)
            )
            assert (colors is not None) == expected
            if colors is not None:
                assert G.consistent_subgraph(colors) == G
                inverse = tuple(1 - b for b in colors)
                assert G.consistent_subgraph(inverse) == G
            else:
                witness = find_unbalanced_cycle(G)
                assert witness.sign == NEGATIVE
                assert set(witness.arcs) <= G.symmetrize().arc_set

    def test_repeated_calls_build_no_graph(self, signed_digraphs_built):
        # Not closed under reversal: the first call builds the symmetrization.
        G = g(3, (1, 2, "+"), (2, 3, "-"))
        signed_digraphs_built.clear()
        assert two_coloring(G) == (0, 0, 1)
        assert len(signed_digraphs_built) == 1
        signed_digraphs_built.clear()
        assert two_coloring(G) == (0, 0, 1)
        assert find_unbalanced_cycle(G) is None
        assert G.symmetrize().symmetrize() is G.symmetrize()
        assert signed_digraphs_built == []

    @given(small_graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_symmetrized_negative_cycles(self, G):
        balanced = two_coloring(G) is not None
        assert balanced == (not has_negative_cycle(G.symmetrize()))


def _states(n):
    import itertools

    return itertools.product((0, 1), repeat=n)


class TestFixedPointConditions:
    def test_no_fixed_point_condition(self):
        assert no_fixed_point_condition(g(1, (1, 1, "-")))
        assert not no_fixed_point_condition(g(1, (1, 1, "+")))
        assert not no_fixed_point_condition(figure1(5))

    def test_two_fixed_points_condition(self):
        assert two_fixed_points_condition(g(2, (1, 2, "+"), (2, 1, "+")))
        assert not two_fixed_points_condition(g(1, (1, 1, "-")))
        assert not two_fixed_points_condition(g(2, (1, 2, "+")))

    def test_the_analyze_verdicts_agree_with_fixed_points(self):
        """``analyze`` prints these conditions as ``nofp_condition`` and
        ``twofp_condition``.  After Aracena (Bull. Math. Biol. 70, 2008), a
        non-trivial initial strong component with no positive cycle leaves
        a consistent network no fixed point, and no negative cycle with a
        non-trivial initial component leaves it at least two.  Checked on
        every simple signed digraph with n <= 2 with each consistent
        network, and on 2,000 falsifier draws at each max_n, where both
        premises must hold often enough to be tested."""

        def premises_held(pairs):
            held = [0, 0]
            for G, f in pairs:
                points = len(f.fixed_points())
                if no_fixed_point_condition(G):
                    held[0] += 1
                    assert points == 0, (G, f.locals)
                if two_fixed_points_condition(G):
                    held[1] += 1
                    assert points >= 2, (G, f.locals)
            return held

        premises_held(_sweep_pairs(2, DEFAULT_MAX_INDEGREE))
        for max_n in (5, 8):
            nofp, twofp = premises_held(
                _draw_pair(random.Random(f"{max_n}:{i}"), max_n, DEFAULT_MAX_INDEGREE)
                for i in range(2000)
            )
            assert nofp >= 300 and twofp >= 100, (max_n, nofp, twofp)


class TestAnalyzeDecomposesOnce:
    """``analyze`` and the graph-only conditions read one strong-component
    decomposition per graph."""

    def assert_flags_match(self, G):
        report = analyze(G)
        assert report.no_fixed_point == no_fixed_point_condition(G)
        assert report.two_fixed_points == two_fixed_points_condition(G)

    def test_every_simple_graph_up_to_three_vertices(self):
        for n in (1, 2, 3):
            for G in all_simple_signed_digraphs(n):
                self.assert_flags_match(G)

    def test_random_graphs(self):
        for n in range(4, 9):
            for seed in range(15):
                self.assert_flags_match(random_signed_digraph(n, seed=seed))

    @staticmethod
    def count_decompositions(monkeypatch) -> list:
        """The calls to ``graphs._component_masks`` made while the test runs."""
        import signedbn.graphs as graphs

        calls = []
        original = graphs._component_masks

        def counting(out, into):
            calls.append(len(out))
            return original(out, into)

        monkeypatch.setattr(graphs, "_component_masks", counting)
        return calls

    @staticmethod
    def count_layouts(monkeypatch) -> list:
        """The graphs whose mask layout ``graphs._masks`` builds while the
        test runs, in every module that reads it."""
        import signedbn.graphs as graphs
        import signedbn.structure as structure

        built = []
        original = graphs._masks

        def counting(G):
            if G._mask_cache is None:
                built.append(G)
            return original(G)

        for module in (graphs, structure):
            monkeypatch.setattr(module, "_masks", counting)
        return built

    @staticmethod
    def inputs() -> list:
        return [figure1(7), random_signed_digraph(8, seed=3), g(2, (1, 2, "+"), (2, 1, "+"))]

    # Every library reader of G's strong components.
    READERS = (
        is_strong,
        has_negative_cycle,
        find_negative_cycle,
        no_fixed_point_condition,
        two_fixed_points_condition,
        analyze,
    )

    def test_one_scc_call_per_graph(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        inputs = self.inputs()
        for G in inputs:
            analyze(G)
        assert calls == [G.n for G in inputs]

    def test_graph_only_conditions_share_the_decomposition(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        inputs = self.inputs()
        for G in inputs:
            for read in self.READERS:
                read(G)
        assert calls == [G.n for G in inputs]

    def test_analyze_lays_out_each_graph_once(self, monkeypatch):
        built = self.count_layouts(monkeypatch)
        inputs = self.inputs()
        for G in inputs:
            analyze(G)
        assert [id(G) for G in built] == [id(G) for G in inputs]

    def test_each_reader_lays_out_at_most_one_graph(self, monkeypatch):
        built = self.count_layouts(monkeypatch)
        for read in self.READERS:
            for G in self.inputs():  # nothing cached
                built.clear()
                read(G)
                assert [id(H) for H in built] in ([], [id(G)]), read

    def test_no_vertex_set_view_is_built(self, monkeypatch):
        # The library reads the component masks; only ``scc`` turns them
        # into a ``ComponentDecomposition`` of vertex sets.
        import signedbn.graphs as graphs

        built = []
        original = graphs.ComponentDecomposition.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(graphs.ComponentDecomposition, "__init__", counting)
        for read in self.READERS:  # each on graphs with nothing cached
            for G in self.inputs():
                read(G)
        assert built == []
        graphs.scc(figure1(7))
        assert len(built) == 1


class TestUniqueNegativeCycleArc:
    def test_lone_negative_loop(self):
        arc = unique_negative_cycle_arc(g(1, (1, 1, "-")))
        assert arc == Arc(1, 1, -1)

    def test_loop_beside_positive_cycle(self):
        G = double_cycle(2, POSITIVE, 1, NEGATIVE)
        assert unique_negative_cycle_arc(G) == Arc(1, 1, -1)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            unique_negative_cycle_arc(figure1(5))  # two negative loops
        with pytest.raises(ValueError):
            unique_negative_cycle_arc(g(2, (1, 2, "+"), (2, 1, "+")))

    def test_exhaustive_strong_simple_n3(self):
        for G in all_simple_signed_digraphs(3):
            if not is_strong(G):
                continue
            negatives = [c for c in enumerate_cycles(G) if c.sign == NEGATIVE]
            if len(negatives) != 1:
                continue
            arc = unique_negative_cycle_arc(G)
            assert arc is not None
            assert arc in negatives[0].arcs
            positives = [c for c in enumerate_cycles(G) if c.sign == POSITIVE]
            assert not any(arc in c.arcs for c in positives)

    @given(small_graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, G):
        negatives = [c for c in enumerate_cycles(G) if c.sign == NEGATIVE]
        if len(negatives) == 1:
            assert unique_negative_cycle_arc(G) is not None


class TestAnalyze:
    def test_figure1_nine(self):
        report = analyze(figure1(9))
        assert report.fixed_point_upper_bound == 1
        assert report.tau_plus == 2 and report.tau_tilde_plus == 0
        assert report.g_plus == 3 and report.g_tilde_plus == INF
        assert report.thm3.holds and report.thm4.holds

    def test_positive_two_cycle(self):
        report = analyze(g(2, (1, 2, "+"), (2, 1, "+")))
        assert (report.tau_plus, report.tau_tilde_plus) == (1, 1)
        assert (report.g_plus, report.g_tilde_plus) == (2, 2)
        assert report.fixed_point_upper_bound == 2
        assert report.two_fixed_points

    def test_single_vertex_no_arcs(self):
        report = analyze(g(1))
        assert report.fixed_point_upper_bound == 1

    def test_text_serialization_is_exactly_ten_keys(self):
        text = analyze(figure1(5)).to_text()
        lines = text.strip().split("\n")
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == [
            "tau_plus", "tau_tilde_plus", "g_plus", "g_tilde_plus",
            "thm3", "thm4", "thm5", "nofp_condition", "twofp_condition",
            "fp_upper_bound",
        ]
        assert "g_tilde_plus = inf" in lines
        assert "thm3 = true" in lines

    def test_dict_serialization_types(self):
        d = analyze(figure1(5)).to_dict()
        assert d["g_tilde_plus"] == "inf"
        assert d["thm5"] is False
        assert isinstance(d["fp_upper_bound"], int)
