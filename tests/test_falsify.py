"""The falsification harness: registry, determinism, sensitivity."""

import itertools
import random
import time

import pytest

from conftest import g, premise_first_check
from signedbn import structure
from signedbn.boolnet import MAX_FIXED_POINT_SCAN, _family, _sample_family
from signedbn.falsify import (
    DIGRAPH,
    FALSIFY_CYCLE_CAP,
    GRAPH,
    MAX_EXHAUSTIVE_N,
    MAX_GRAPH_N,
    PAIR,
    REGISTRY,
    _UNCAPPED_N,
    _check_harary,
    _draw_pair,
    _graph_fp_bound,
    _rule_property,
    _sweep_pairs,
    _trial_rngs,
    _within_cap,
    falsify,
    make_existence_rule_property,
    run_falsification,
)
from signedbn.formats import parse_boolean_network, parse_signed_digraph
from signedbn.generators import iter_simple_signed_digraphs, random_signed_digraph
from signedbn.graphs import (
    NEGATIVE,
    POSITIVE,
    Arc,
    CycleCapExceeded,
    SignedDigraph,
    _most_cycles,
    enumerate_cycles,
    iter_cycles,
)
from signedbn.structure import (
    existence_arc_rule,
    two_coloring,
    uniqueness_arc_rule,
    uniqueness_vertex_rule,
)


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(REGISTRY) == {
            "thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "thm7",
            "cor8", "lemma9", "harary", "richardson", "richardson-gen",
            "kernel-corr",
        }

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            falsify("thm99", trials=1)


class TestProvenStatements:
    @pytest.mark.parametrize("theorem", sorted(REGISTRY))
    def test_no_counterexamples_on_small_samples(self, theorem):
        report = falsify(theorem, trials=150, seed=11, max_n=4)
        assert report.counterexamples == []
        assert report.trials == 150

    def test_thm2_ten_thousand_trials(self):
        report = falsify("thm2", trials=10_000, seed=1, max_n=5)
        assert not report.falsified

    def test_exhaustive_mode(self):
        report = falsify("thm2", trials=0, seed=0, exhaustive_n=2)
        assert not report.falsified
        assert report.trials == 200  # consistent networks over all simple n<=2 graphs

    def test_exhaustive_bound_check(self):
        report = falsify("cor8", trials=0, seed=0, exhaustive_n=2)
        assert not report.falsified and report.trials == 200

    @pytest.mark.parametrize(
        "theorem", sorted(t for t, p in REGISTRY.items() if p.kind == PAIR)
    )
    def test_exhaustive_mode_for_every_pair_property(self, theorem):
        report = falsify(theorem, trials=0, exhaustive_n=2)
        assert report.counterexamples == []
        assert report.trials == 200

    def test_exhaustive_mode_only_for_instance_checks(self):
        with pytest.raises(ValueError, match="exhaustive"):
            falsify("harary", trials=0, exhaustive_n=2)


class TestBoundCache:
    """cor8 caches one graph's bound: a sweep checks each graph's networks
    in a row, and a cache of every random graph held hundreds of MB."""

    def test_random_trials_keep_one_graph(self):
        _graph_fp_bound.cache_clear()
        falsify("cor8", trials=500, seed=1, max_n=15)
        assert _graph_fp_bound.cache_info().currsize <= 1

    def test_sweep_computes_each_graph_bound_once(self, monkeypatch):
        graphs = []
        original = structure._bound_terms

        def counting(G, cap):
            graphs.append(G)
            return original(G, cap)

        monkeypatch.setattr(structure, "_bound_terms", counting)
        _graph_fp_bound.cache_clear()
        report = falsify("cor8", trials=0, exhaustive_n=2)
        assert report.trials == 200 and not report.falsified
        assert graphs == [G for n in (1, 2) for G in iter_simple_signed_digraphs(n)]


class TestHararyCheck:
    """The harary check symmetrizes G once and hands the result to both
    the two-coloring and the cycle search."""

    @staticmethod
    def _rebuilt_check(G):
        # The check as it read with a fresh symmetrization for the cycles.
        H = SignedDigraph(G.n, G.arc_set | {Arc(a.target, a.source, a.sign) for a in G.arc_set})
        colors = two_coloring(G)
        if (colors is None) != any(c.sign == NEGATIVE for c in iter_cycles(H)):
            return "two-coloring existence disagrees with symmetrized negative cycles"
        if colors is not None and G.consistent_subgraph(colors) != G:
            return "returned coloring is not consistent"
        return None

    def test_verdicts_match_a_fresh_symmetrization(self):
        for n in (1, 2, 3):
            for G in iter_simple_signed_digraphs(n):
                assert _check_harary(G) == self._rebuilt_check(G)

    def test_flags_a_coloring_that_breaks_an_arc(self, monkeypatch):
        # A positive arc between unequal colors, and a negative arc between
        # equal ones, each fail the check; the true coloring passes.
        for sign, wrong in (("+", (0, 1)), ("-", (0, 0))):
            G = g(2, (1, 2, sign))
            assert _check_harary(G) is None
            monkeypatch.setattr(structure, "two_coloring", lambda H, wrong=wrong: wrong)
            assert _check_harary(G) == "returned coloring is not consistent"
            monkeypatch.undo()

    def test_builds_at_most_one_symmetrization(self, signed_digraphs_built):
        graphs = list(iter_simple_signed_digraphs(2))
        # One symmetrization unless G is already symmetric; the coloring is
        # checked on G's own arcs.
        expected = [int(G.symmetrize() is not G) for G in graphs]
        counts = []
        for G in graphs:
            signed_digraphs_built.clear()
            assert _check_harary(G) is None
            counts.append(len(signed_digraphs_built))
        assert counts == expected
        assert 0 in counts


def built_pair_draw(rng, max_n, max_indegree):
    """``_draw_pair`` as it drew before it rejected draws from their arcs:
    every draw built as a graph, then its in-degrees and its family read.
    Returns the pair and the number of graphs drawn."""
    drawn = 0
    while True:
        G = random_signed_digraph(rng.randint(1, max_n), rng=rng)
        drawn += 1
        if max(len(G.in_neighbors(v)) for v in G.vertices) <= max_indegree:
            family = _family(G, max_indegree)
            if all(tables for _, tables in family) and _within_cap(G):
                return (G, _sample_family(family, rng)), drawn


class TestPairDraw:
    """``_draw_pair`` rejects a draw from its arcs and builds one graph for
    the draw it keeps.  ``max_n`` starts at 2: a one-vertex draw always
    carries a positive and a negative loop, which no table realizes, so at
    ``max_n`` 1 both loops redraw forever."""

    @staticmethod
    def _settings():
        # 2,000 trial seeds over max_n 2-6 and max_indegree 1-4, and 100
        # more at max_indegree 0, where a draw is kept only without arcs.
        for i in range(2000):
            yield i, 2 + i % 5, 1 + i // 5 % 4
        for i in range(2000, 2100):
            yield i, 2 + i % 5, 0

    def test_matches_the_graph_building_loop(self):
        for i, max_n, max_indegree in self._settings():
            rng, twin = random.Random(f"25:{i}"), random.Random(f"25:{i}")
            assert _draw_pair(rng, max_n, max_indegree) == built_pair_draw(
                twin, max_n, max_indegree
            )[0]
            assert rng.getstate() == twin.getstate()

    def test_builds_one_graph_per_kept_draw(self, signed_digraphs_built):
        redrawn = 0
        for i, max_n, max_indegree in itertools.islice(self._settings(), 0, None, 7):
            signed_digraphs_built.clear()
            G, _ = _draw_pair(random.Random(f"25:{i}"), max_n, max_indegree)
            assert signed_digraphs_built == [G]
            redrawn += built_pair_draw(random.Random(f"25:{i}"), max_n, max_indegree)[1] - 1
        assert redrawn > 100

    def test_refuses_tables_past_the_index(self):
        with pytest.raises(ValueError, match="max_indegree=5 exceeds the in-degree limit 4"):
            _draw_pair(random.Random(0), 5, 5)


def _at_most_one_fixed_point(f):
    return len(f.fixed_points()) <= 1


def _some_fixed_point(f):
    return bool(f.fixed_points())


class TestRuleChecks:
    """The rule theorems read the network's fixed points before the rule,
    and ask for the rule only when the conclusion fails."""

    # Per rule theorem: its condition, conclusion and violation detail.
    RULES = {
        "thm3": (
            uniqueness_arc_rule, _at_most_one_fixed_point,
            "uniqueness arc rule holds but the network has two fixed points",
        ),
        "thm4": (
            uniqueness_vertex_rule, _at_most_one_fixed_point,
            "uniqueness vertex rule holds but the network has two fixed points",
        ),
        "thm5": (
            existence_arc_rule, _some_fixed_point,
            "arc rule holds but the network has no fixed point",
        ),
    }

    @staticmethod
    def _instances():
        """Every pair of the sweep to 2 vertices, then 5,000 drawn pairs at
        max_n 2 to 8."""
        yield from _sweep_pairs(2, 4)
        for i in range(5000):
            yield _draw_pair(random.Random(f"27:{i}"), 2 + i % 7, 4)

    def test_verdicts_match_the_premise_first_check(self):
        # The registered checks, and mutants that pair each rule with each
        # conclusion, so that some verdicts are counterexamples.
        checks = [(REGISTRY[t].check, premise_first_check(*self.RULES[t])) for t in self.RULES]
        for condition, _, _ in self.RULES.values():
            for conclusion in (_at_most_one_fixed_point, _some_fixed_point):
                mutant = _rule_property("mutant", "", condition, conclusion, "violated")
                checks.append(
                    (mutant.check, premise_first_check(condition, conclusion, "violated"))
                )
        found = 0
        for G, f in self._instances():
            for check, oracle in checks:
                verdict = check(G, f)
                assert verdict == oracle(G, f)
                found += verdict is not None
        assert found > 100

    def test_the_rule_runs_only_on_trials_whose_conclusion_fails(self):
        asked = []

        def counting(G, cap):
            asked.append(G)
            return existence_arc_rule(G, cap)

        report = run_falsification(make_existence_rule_property(counting), 2000, 27, max_n=5)
        assert report.trials == 2000 and not report.falsified
        failing = [
            G
            for G, f in (_draw_pair(random.Random(f"27:{i}"), 5, 4) for i in range(2000))
            if not f.fixed_points()
        ]
        assert asked == failing
        assert 0 < len(asked) < 1000


class TestCycleCap:
    @staticmethod
    def complete(n):
        """The complete signed digraph: a loop and both signs on every pair."""
        return SignedDigraph(
            n, [(u, v, s) for u in range(1, n + 1) for v in range(1, n + 1) for s in "+-"]
        )

    def test_the_complete_signed_digraph_has_the_most_cycles(self):
        counts = [len(enumerate_cycles(self.complete(n), 10 ** 6)) for n in range(7)]
        assert counts == [_most_cycles(n) for n in range(7)]
        assert counts[5:] == [1458, 14120]

    def test_no_graph_on_five_vertices_can_pass_the_cap(self):
        assert FALSIFY_CYCLE_CAP == 10_000
        assert _UNCAPPED_N == 5
        assert _most_cycles(_UNCAPPED_N) <= FALSIFY_CYCLE_CAP < _most_cycles(_UNCAPPED_N + 1)

    def test_matches_the_enumeration_verdict(self):
        rng = random.Random(27)
        verdicts = set()
        for i in range(2000):
            # Loops and arcs of both signs, each sign at its own density,
            # sparse more often than dense.
            n = 1 + i % 8
            densities = ((POSITIVE, rng.random() ** 3), (NEGATIVE, rng.random() ** 3))
            arcs = [
                (u, v, sign)
                for u in range(1, n + 1)
                for v in range(1, n + 1)
                for sign, p in densities
                if rng.random() < p
            ]
            G = SignedDigraph(n, arcs)
            verdict = _within_cap(G)
            try:
                enumerate_cycles(G, FALSIFY_CYCLE_CAP)
                within = True
            except CycleCapExceeded:
                within = False
            assert verdict == within
            verdicts.add((n > _UNCAPPED_N, within))
        assert verdicts == {(False, True), (True, True), (True, False)}

    def test_enumerates_no_cycle_up_to_five_vertices(self, monkeypatch):
        enumerated = []

        def counting(G, cap):
            enumerated.append(G.n)
            return enumerate_cycles(G, cap)

        monkeypatch.setattr("signedbn.falsify.enumerate_cycles", counting)
        assert _within_cap(self.complete(5))
        assert not _within_cap(self.complete(6))
        assert enumerated == [6]


class TestInstanceKinds:
    def test_every_property_takes_one_of_the_three_kinds(self):
        assert {p.kind for p in REGISTRY.values()} == {PAIR, GRAPH, DIGRAPH}
        assert [k.sweep is None for k in (PAIR, GRAPH, DIGRAPH)] == [False, True, True]

    @pytest.mark.parametrize("theorem", ["thm1", "thm3", "lemma9", "harary", "kernel-corr"])
    def test_drawn_instances_round_trip_through_files(self, tmp_path, theorem):
        # Each part is written with its kind's serializer and read back with
        # its loader; the check sees the same instance and gives the same answer.
        prop = REGISTRY[theorem]
        kind = prop.kind
        for i in range(20):
            instance = kind.draw(random.Random(f"5:{i}"), 5, 4)
            if instance is None:
                continue
            assert len(instance) == len(kind.parts)
            reloaded = []
            for (name, serialize, load), part in zip(kind.parts, instance):
                path = tmp_path / f"{i}.{name}"
                path.write_text(serialize(part))
                reloaded.append(load(path))
            assert tuple(reloaded) == instance
            assert prop.check(*reloaded) == prop.check(*instance)

    @pytest.mark.parametrize("theorem", ["thm1", "thm6", "thm7"])
    def test_pair_trials_check_the_drawn_graph(self, interaction_graph_calls, theorem):
        # A drawn pair's network has the drawn graph as its interaction
        # graph, so a trial never rebuilds it.
        report = falsify(theorem, trials=40, seed=3, max_n=5)
        assert report.trials == 40 and not report.falsified
        assert interaction_graph_calls == []


class TestHopelessSweepsRefused:
    @pytest.mark.parametrize("theorem", ["thm3", "thm1", "cor8"])
    def test_exhaustive_past_the_limit(self, theorem):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exhaustive limit {MAX_EXHAUSTIVE_N}"):
            falsify(theorem, trials=0, exhaustive_n=MAX_EXHAUSTIVE_N + 1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("theorem", sorted(REGISTRY))
    def test_max_n_past_the_scan_limit(self, theorem):
        # cor8's limit is the tau~+ search limit and the graph-only
        # theorems' is MAX_GRAPH_N; the rest scan up to 24 vertices.
        limit = {"cor8": 15, "harary": 20, "lemma9": 20}.get(theorem, 24)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds the scan limit {limit} "):
            falsify(theorem, trials=1000, seed=0, max_n=40)
        assert time.perf_counter() - start < 1.0

    def test_max_indegree_past_the_table_limit(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="max_indegree=5 exceeds the in-degree limit 4"):
            falsify("thm2", trials=50, seed=0, max_n=10, max_indegree=5)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("stop_after", [0, -1])
    def test_stop_after_below_one(self, stop_after):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^stop_after must be at least 1, got {stop_after}$"):
            run_falsification(REGISTRY["thm2"], trials=1000, seed=0, stop_after=stop_after)
        assert time.perf_counter() - start < 1.0

    def test_max_n_at_the_scan_limit_runs(self):
        report = falsify("thm2", trials=3, seed=0, max_n=MAX_FIXED_POINT_SCAN)
        assert report.trials == 3 and not report.falsified

    @pytest.mark.parametrize("theorem", ["harary", "lemma9"])
    def test_graph_properties_run_at_their_limit(self, theorem):
        report = falsify(theorem, trials=3, seed=0, max_n=MAX_GRAPH_N)
        assert report.trials == 3 and not report.falsified


class TestDeterminism:
    def test_reports_are_reproducible(self):
        a = falsify("thm1", trials=60, seed=9, max_n=4)
        b = falsify("thm1", trials=60, seed=9, max_n=4)
        assert a.to_dict() == b.to_dict()

    def test_wall_time_not_in_structured_output(self):
        report = falsify("thm2", trials=5, seed=0)
        assert "seconds" not in report.to_dict()

    def test_one_reseeded_generator_draws_what_fresh_ones_draw(self):
        # Random trials reseed one generator per trial instead of building
        # ``random.Random(f"{seed}:{i}")``; the instances are the same.
        for kind in (PAIR, GRAPH, DIGRAPH):
            fresh = [kind.draw(random.Random(f"7:{i}"), 5, 4) for i in range(200)]
            reseeded = [kind.draw(rng, 5, 4) for rng in _trial_rngs(7, 200)]
            assert reseeded == fresh
            assert sum(instance is not None for instance in fresh) > 100


class TestSensitivity:
    def test_sign_flipped_existence_checker_is_caught(self):
        mutant = make_existence_rule_property(checker=uniqueness_arc_rule)
        report = run_falsification(mutant, trials=10_000, seed=7, max_n=5, stop_after=1)
        assert report.falsified
        assert report.trials < 10_000

    def test_mutant_report_is_pinned(self):
        # Pins the RNG draw order: trial i draws from Random(f"{seed}:{i}")
        # the vertex count, the graph (redrawn until realizable within the
        # in-degree and cycle caps), then one table per vertex.
        mutant = make_existence_rule_property(checker=uniqueness_arc_rule)
        report = run_falsification(mutant, trials=10_000, seed=7, max_n=5, stop_after=1)
        assert report.to_dict() == {
            "theorem": "thm5",
            "trials": 14,
            "counterexamples": [
                {
                    "detail": "arc rule holds but the network has no fixed point",
                    "artifacts": {
                        "graph": "sdigraph 5\n2 2 -\n2 5 -\n4 1 -\n5 2 +\n",
                        "network": "boolnet 5\n1 : 4 | 10\n2 : 2 5 | 1101\n"
                        "3 : | 1\n4 : | 0\n5 : 2 | 10\n",
                    },
                }
            ],
        }

    def test_counterexamples_reload_and_reverify(self):
        mutant = make_existence_rule_property(checker=uniqueness_arc_rule)
        report = run_falsification(mutant, trials=10_000, seed=7, max_n=5, stop_after=1)
        artifact = report.counterexamples[0].artifacts
        G = parse_signed_digraph(artifact["graph"])
        f = parse_boolean_network(artifact["network"])
        assert f.interaction_graph() == G
        assert uniqueness_arc_rule(G).holds
        assert not f.fixed_points()
