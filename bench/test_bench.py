"""Tests of the benchmark itself: its inputs, its output checks, its
budget and its tracer.

    python3 bench/test_bench.py
"""

import hashlib
import json
import signal
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Call, network  # noqa: E402

lib = run.load_library()


def input_digest(workload: str, seed: int) -> str:
    items = {"analyze": inputs.analyze_items, "verify": inputs.verify_items,
             "dynamics": inputs.dynamics_items}[workload](seed)
    text = json.dumps([[i.id, i.kind, i.payload] for i in items])
    return hashlib.sha256(text.encode()).hexdigest()


def analyze_json(sd_text: str) -> str:
    report = lib.structure.analyze(lib.formats.parse_signed_digraph(sd_text))
    return json.dumps({"schema_version": 1, **report.to_dict()}, sort_keys=True)


def forged(text: str, **changes) -> str:
    report = json.loads(text)
    report.update(changes)
    return json.dumps(report, sort_keys=True)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("analyze", "verify", "dynamics"):
            self.assertEqual(input_digest(workload, 7), input_digest(workload, 7))
            self.assertNotEqual(input_digest(workload, 7), input_digest(workload, 8))

    def test_switching_keeps_every_analyze_answer(self):
        rng = inputs.rng_for("test", 0)
        for n in (5, 6, 7):
            arcs = inputs.random_signed_arcs(rng, n, 2.0 / n)
            switched = inputs.switch(rng, n, arcs)
            self.assertNotEqual(sorted(switched), sorted(arcs))
            self.assertEqual(
                analyze_json(inputs.sd_text(n, switched)), analyze_json(inputs.sd_text(n, arcs))
            )

    def test_relabelling_keeps_each_vertex_degree(self):
        rng = inputs.rng_for("test", 0)
        spec = inputs.relabel_network(rng, inputs.random_network_spec(rng, 14))
        self.assertEqual([len(i) for i, _ in spec], [inputs.degree(v) for v in range(1, 15)])

    def test_figure1_matches_the_library_family(self):
        from signedbn.generators import figure1

        for n in inputs.FIGURE1_SIZES:
            G = lib.formats.parse_signed_digraph(inputs.sd_text(n, inputs.figure1_arcs(n)))
            self.assertEqual(G, figure1(n))

    def test_family_sizes_match_the_library_count(self):
        for item in inputs.verify_items(3):
            if item.kind == "family":
                G = lib.graphs.SignedDigraph(*item.payload)
                indegrees = [len(G.in_neighbors(v)) for v in G.vertices]
                self.assertEqual(inputs.family_size(indegrees), lib.boolnet.count_consistent(G))

    def test_workloads_make_enough_calls_for_p90(self):
        for build in WORKLOADS.values():
            self.assertGreaterEqual(len(build(lib, 1)), 100)


class TestAnalyzeCheck(unittest.TestCase):
    def setUp(self):
        self.fig = analyze_json(inputs.sd_text(7, inputs.figure1_arcs(7)))
        self.pair = analyze_json(inputs.sd_text(4, inputs.two_cycles_arcs(2)))

    def test_true_outputs_pass(self):
        self.assertEqual(checks.check_analyze("figure1", self.fig), [])
        self.assertEqual(checks.check_analyze("two-cycles", self.pair, 2), [])

    def test_rejects_tau_tilde_above_tau(self):
        self.assertTrue(checks.check_analyze("random", forged(self.pair, tau_tilde_plus=3)))

    def test_rejects_girths_out_of_order(self):
        self.assertTrue(checks.check_analyze("random", forged(self.pair, g_plus="inf")))

    def test_rejects_bound_outside_range(self):
        self.assertTrue(checks.check_analyze("random", forged(self.pair, fp_upper_bound=5)))
        self.assertTrue(checks.check_analyze("random", forged(self.pair, fp_upper_bound=0)))

    def test_rejects_wrong_figure1_answer(self):
        bad = forged(self.fig, tau_tilde_plus=1, tau_plus=2, fp_upper_bound=2)
        self.assertTrue(checks.check_analyze("figure1", bad))

    def test_rejects_wrong_two_cycle_answer(self):
        self.assertTrue(checks.check_analyze("two-cycles", forged(self.pair, fp_upper_bound=2), 2))


class TestVerifyChecks(unittest.TestCase):
    def test_true_report_passes(self):
        report = lib.falsify.falsify("thm2", trials=20, seed=1, max_n=4).to_dict()
        self.assertEqual(checks.check_falsify("thm2", 20, report), [])

    def test_rejects_forged_counterexample(self):
        report = lib.falsify.falsify("thm2", trials=20, seed=1, max_n=4).to_dict()
        report["counterexamples"] = [{"detail": "forged", "artifacts": {}}]
        self.assertTrue(checks.check_falsify("thm2", 20, report))

    def test_rejects_missing_trials(self):
        report = lib.falsify.falsify("thm2", trials=19, seed=1, max_n=4).to_dict()
        self.assertTrue(checks.check_falsify("thm2", 20, report))

    def test_rejects_bound_below_max_fixed_points(self):
        G = lib.graphs.SignedDigraph(2, [(1, 2, 1), (2, 1, 1)])
        most = lib.boolnet.max_fixed_points(G)
        self.assertEqual(most, 2)
        self.assertEqual(checks.check_family([most, 2]), [])
        self.assertTrue(checks.check_family([most, 1]))


class TestDynamicsChecks(unittest.TestCase):
    # x1' = x2, x2' = x1, x3' = x1 or not x3: the only fixed point is 111,
    # and {000, 001} is a cyclic attractor.
    SPEC = (((2,), (0, 1)), ((1,), (0, 1)), ((1, 3), (1, 0, 1, 1)))

    def outputs(self):
        f = network(lib, self.SPEC)
        fps = ["".join(map(str, x)) for x in f.fixed_points()]
        attractors = [sorted("".join(map(str, x)) for x in A) for A in f.attractors()]
        return fps, attractors

    def test_true_outputs_pass(self):
        fps, attractors = self.outputs()
        self.assertEqual(fps, ["111"])
        self.assertEqual(checks.check_fixed_points(self.SPEC, fps), [])
        self.assertEqual(checks.check_attractors(attractors, fps), [])

    def test_rejects_dropped_fixed_point(self):
        fps, attractors = self.outputs()
        self.assertTrue(checks.check_attractors(attractors, fps[:-1]))

    def test_rejects_state_that_is_not_fixed(self):
        self.assertTrue(checks.check_fixed_points(self.SPEC, ["111", "011"]))

    def test_rejects_unordered_fixed_points(self):
        spec = (((1,), (0, 1)), ((2,), (0, 1)))
        self.assertEqual(checks.check_fixed_points(spec, ["00", "01", "10", "11"]), [])
        self.assertTrue(checks.check_fixed_points(spec, ["01", "00", "10", "11"]))

    def test_kernels(self):
        n, arcs = 4, ((1, 2), (2, 3), (3, 4), (4, 1))
        D = lib.kernels.Digraph(n, arcs)
        found = [sorted(K) for K in lib.kernels.kernels(D)]
        indicators = sorted(sorted(K) for K in lib.kernels.kernel_indicators(D))
        self.assertEqual(found, [[1, 3], [2, 4]])
        self.assertEqual(checks.check_kernels(n, arcs, found, indicators), [])
        self.assertTrue(checks.check_kernels(n, arcs, found, indicators[:1]))
        self.assertTrue(checks.check_kernels(n, arcs, [[1, 2]], [[1, 2]]))


class TestHarness(unittest.TestCase):
    def setUp(self):
        self.saved = signal.signal(signal.SIGPROF, run._overrun)

    def tearDown(self):
        signal.signal(signal.SIGPROF, self.saved)

    def test_overrun_is_stopped_and_counted(self):
        def spin():
            while True:
                pass

        status, _, seconds = run.timed(Call("spin", spin, None, None), 0.2)
        self.assertEqual(status, "timeout")
        self.assertLess(seconds, 5)
        # The overrun counts as failed, for its measured time unscaled.
        record = run.run_pass([Call("spin", spin, None, None)], 0.2)
        self.assertEqual(record.failed, {"spin": "timeout"})
        self.assertEqual(record.scaled, record.durations)

    def test_pass_flags_a_dropped_fixed_point(self):
        calls = [c for c in WORKLOADS["dynamics"](lib, 1) if c.id.startswith("attractors-n10-0")]
        clean = run.run_pass(calls, 60)
        self.assertEqual(clean.failed, {})
        original = lib.boolnet.BooleanNetwork.fixed_points
        lib.boolnet.BooleanNetwork.fixed_points = lambda self: original(self)[:-1]
        try:
            broken = run.run_pass(calls, 60)
        finally:
            lib.boolnet.BooleanNetwork.fixed_points = original
        self.assertIn("attractors-n10-0.attractors", broken.wrong)
        self.assertNotEqual(broken.digest, clean.digest)

    def test_scaling_takes_out_the_machine_speed(self):
        durations = [0.002, 0.010, 0.5, 0.003]
        references = [0.0005, 0.0004, 0.0006, 0.0005]
        scaled = run.scale_to_reference(durations, references)
        self.assertAlmostEqual(scaled[1], 0.010 * run.REFERENCE_S / 0.0005)
        slower = run.scale_to_reference([1.5 * d for d in durations], [1.5 * r for r in references])
        for a, b in zip(scaled, slower):
            self.assertAlmostEqual(a, b)
        # A slower library, on a machine of the same speed, stays slower.
        slower_calls = run.scale_to_reference([1.5 * d for d in durations], references)
        for a, b in zip(scaled, slower_calls):
            self.assertAlmostEqual(1.5 * a, b)

    def test_tracer_measures_and_restores(self):
        analyze = lib.structure.analyze
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(lib.structure.analyze, analyze)
            analyze_json(inputs.sd_text(6, inputs.two_cycles_arcs(3)))
        finally:
            tracer.uninstall()
        self.assertIs(lib.structure.analyze, analyze)
        self.assertIs(sys.modules["signedbn"].analyze, analyze)
        metrics = tracer.metrics([], 1)
        self.assertEqual(tracer.calls("structure.analyze"), 1)
        self.assertGreater(metrics["structure.tau_tilde_plus.subsets_scanned"][0], 0)
        # The two root spans cover every other span.
        total = tracer.total_s("structure.analyze") + tracer.total_s("formats.parse_signed_digraph")
        self_times = sum(entry[2] for entry in tracer.stats.values())
        self.assertAlmostEqual(self_times, total, delta=1e-6 + 1e-3 * total)


if __name__ == "__main__":
    unittest.main()
