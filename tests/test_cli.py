"""The command-line surface: subcommands, output modes, exit codes."""

import json
import random
import time

import pytest

from signedbn import codes, falsify
from signedbn.cli import main
from signedbn.codes import fixed_point_bound
from signedbn.falsify import DIGRAPH, GRAPH, PAIR, REGISTRY
from signedbn.formats import format_boolean_network, format_signed_digraph, format_digraph
from signedbn.boolnet import BooleanNetwork, LocalFunction, sample_consistent
from signedbn.generators import figure1, random_signed_digraph
from signedbn.graphs import SignedDigraph
from signedbn.kernels import Digraph


def _pair_files(tmp_path, G):
    """Paths of G and of one consistent network on it, written to tmp_path."""
    graph, network = tmp_path / "pair.sd", tmp_path / "pair.bn"
    graph.write_text(format_signed_digraph(G))
    network.write_text(format_boolean_network(sample_consistent(G, seed=0)))
    return [str(graph), str(network)]


@pytest.fixture
def fig5(tmp_path):
    path = tmp_path / "fig5.sd"
    path.write_text(format_signed_digraph(figure1(5)))
    return str(path)


@pytest.fixture
def swap_net(tmp_path):
    f = BooleanNetwork([LocalFunction((2,), (0, 1)), LocalFunction((1,), (0, 1))])
    path = tmp_path / "swap.bn"
    path.write_text(format_boolean_network(f))
    return str(path)


@pytest.fixture
def graph23(tmp_path):
    """The 23-vertex, 58-arc graph of falsify trial 43 at seed 4 and max_n 24;
    enumerating the cycles of its symmetrization takes seconds per cycle."""
    rng = random.Random("4:43")
    G = random_signed_digraph(rng.randint(1, 24), rng=rng)
    path = tmp_path / "g23.sd"
    path.write_text(format_signed_digraph(G))
    return path, G


@pytest.fixture
def two_cycle_digraph(tmp_path):
    path = tmp_path / "two.dg"
    path.write_text(format_digraph(Digraph(2, [(1, 2), (2, 1)])))
    return str(path)


class TestAnalyze:
    def test_human_output(self, fig5, capsys):
        assert main(["analyze", fig5]) == 0
        out = capsys.readouterr().out
        assert "tau_plus = 1" in out
        assert "g_tilde_plus = inf" in out
        assert len(out.strip().split("\n")) == 10

    def test_structured_output(self, fig5, capsys):
        assert main(["--format", "structured", "analyze", fig5]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["fp_upper_bound"] == 1
        assert payload["thm3"] is True

    def test_structured_output_is_deterministic(self, fig5, capsys):
        main(["--format", "structured", "analyze", fig5])
        first = capsys.readouterr().out
        main(["--format", "structured", "analyze", fig5])
        assert capsys.readouterr().out == first

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sd"
        bad.write_text("sdigraph 2\n1 2 +\n1 2 +\n")
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(bad)])
        assert err.value.code == 2
        assert "duplicate arc" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "/nonexistent.sd"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "attractors"])
    def test_directory_exits_2_with_one_line(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, str(tmp_path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["analyze", "attractors"])
    def test_non_utf8_file_exits_2_with_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"sdigraph 2\n1 2 +\n# caf\xe9\n")
        with pytest.raises(SystemExit) as err:
            main([command, str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["analyze"], ["bounds"], ["check", "--theorem", "thm3"]]
    )
    def test_cycle_cap_exceeded_exits_2(self, fig5, capsys, command):
        assert main(command + ["--cycle-cap", "1", fig5]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 1 cycles\n"

    def test_cycle_cap_ten_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "k4.sd"
        arcs = [(u, v, 1) for u in range(1, 5) for v in range(1, 5) if u != v]
        path.write_text(format_signed_digraph(SignedDigraph(4, arcs)))  # 20 cycles
        assert main(["analyze", "--cycle-cap", "10", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 10 cycles\n"

    def test_past_the_search_limit_exits_2_before_enumerating(self, tmp_path, capsys):
        path = tmp_path / "k16.sd"
        arcs = [(u, v, 1) for u in range(1, 17) for v in range(1, 17) if u != v]
        path.write_text(format_signed_digraph(SignedDigraph(16, arcs)))
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=16 exceeds the search limit 15\n"


class TestNetworkCommands:
    def test_fixed_points(self, swap_net, capsys):
        assert main(["fixed-points", swap_net]) == 0
        out = capsys.readouterr().out
        assert "00" in out and "11" in out and "count = 2" in out

    def test_fixed_points_structured(self, swap_net, capsys):
        main(["--format", "structured", "fixed-points", swap_net])
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixed_points"] == ["00", "11"]

    def test_attractors(self, swap_net, capsys):
        assert main(["attractors", swap_net]) == 0
        out = capsys.readouterr().out
        assert "count = 2" in out


@pytest.fixture
def triangle9(tmp_path):
    """Nine vertices holding one positive triangle: tau~+ = 1, g~+ = 3."""
    path = tmp_path / "tri9.sd"
    path.write_text("sdigraph 9\n1 2 +\n2 3 +\n3 1 +\n")
    return str(path)


class TestBoundsCommand:
    def test_bounds(self, fig5, capsys):
        assert main(["bounds", fig5]) == 0
        out = capsys.readouterr().out
        assert "fp_upper_bound = 1 >= min(2^0, A(5, inf))" in out

    @pytest.mark.parametrize("command", ["bounds", "analyze"])
    def test_nine_vertex_triangle_is_fast(self, triangle9, capsys, command):
        # The exact search for A(9, 3) used to run here and did not finish.
        start = time.perf_counter()
        assert main(["--format", "structured", command, triangle9]) == 0
        assert time.perf_counter() - start < 10
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau_tilde_plus"] == 1
        assert payload["g_tilde_plus"] == 3
        assert payload["fp_upper_bound"] == 2


class TestKernelsCommand:
    def test_kernels_found(self, two_cycle_digraph, capsys):
        assert main(["kernels", two_cycle_digraph]) == 0
        out = capsys.readouterr().out
        assert "{1}" in out and "{2}" in out

    def test_no_kernel_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tri.dg"
        path.write_text(format_digraph(Digraph(3, [(1, 2), (2, 3), (3, 1)])))
        assert main(["kernels", str(path)]) == 1


class TestCheckCommand:
    def test_graph_condition_holds(self, fig5, capsys):
        assert main(["check", "--theorem", "thm3", fig5]) == 0
        assert "holds" in capsys.readouterr().out

    def test_graph_condition_fails(self, tmp_path, capsys):
        path = tmp_path / "loop.sd"
        path.write_text("sdigraph 1\n1 1 +\n")
        assert main(["check", "--theorem", "thm3", str(path)]) == 1
        assert "violated" in capsys.readouterr().out

    def test_instance_check(self, tmp_path, swap_net, capsys):
        graph = tmp_path / "pos2.sd"
        graph.write_text("sdigraph 2\n1 2 +\n2 1 +\n")
        assert main(["check", "--theorem", "thm1", str(graph), swap_net]) == 0

    def test_instance_check_on_another_graph_exits_2(self, tmp_path, swap_net, capsys):
        # The swap network's interaction graph is the positive 2-cycle.
        graph = tmp_path / "arc.sd"
        graph.write_text("sdigraph 2\n1 2 +\n")
        with pytest.raises(SystemExit) as err:
            main(["check", "--theorem", "thm6", str(graph), swap_net])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: network's interaction graph differs from the graph\n"

    def test_each_input_file_is_read_once(self, tmp_path, swap_net, monkeypatch, capsys):
        # A command whose file is refused by its header reads that header
        # off the text it then parses, not off a second read.
        from signedbn import formats

        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(formats, "open", counting_open, raising=False)
        graph, digraph = tmp_path / "g.sd", tmp_path / "d.d"
        graph.write_text("sdigraph 2\n1 2 +\n2 1 +\n")
        digraph.write_text("digraph 3\n1 2\n2 3\n")
        calls = [
            ["kernels", str(digraph)],
            ["analyze", str(graph)],
            ["fixed-points", swap_net],
            ["check", "--theorem", "richardson", str(digraph)],
            ["check", "--theorem", "cor8", str(graph), swap_net],
            ["check", "--theorem", "harary", str(graph)],
        ]
        for argv in calls:
            opened.clear()
            main(argv)
            assert sorted(opened) == sorted(argv[-2:] if "cor8" in argv else argv[-1:])
        capsys.readouterr()

    def test_instance_check_needs_network(self, fig5):
        with pytest.raises(SystemExit) as err:
            main(["check", "--theorem", "thm1", fig5])
        assert err.value.code == 2

    def test_digraph_check(self, two_cycle_digraph):
        assert main(["check", "--theorem", "richardson", two_cycle_digraph]) == 0

    def test_unknown_theorem(self, fig5):
        with pytest.raises(SystemExit) as err:
            main(["check", "--theorem", "nope", fig5])
        assert err.value.code == 2

    @pytest.mark.parametrize("theorem", sorted(REGISTRY))
    def test_every_registered_theorem_holds(
        self, tmp_path, swap_net, two_cycle_digraph, capsys, theorem
    ):
        prop = REGISTRY[theorem]
        if prop.kind == DIGRAPH:
            files = [two_cycle_digraph]
        elif prop.kind == GRAPH or prop.condition is not None:
            graph = tmp_path / "fig3.sd"
            graph.write_text(format_signed_digraph(figure1(3)))
            files = [str(graph)]
        else:
            graph = tmp_path / "pos2.sd"
            graph.write_text("sdigraph 2\n1 2 +\n2 1 +\n")
            files = [str(graph), swap_net]
        assert main(["--format", "structured", "check", "--theorem", theorem] + files) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theorem"] == theorem
        assert payload["verdict"] == "holds"

    def test_every_check_honours_cycle_cap(self, tmp_path, capsys):
        # The complete 8-vertex digraph has 16,064 cycles, past the
        # falsifier's own cap of 10,000.
        path = tmp_path / "k8.sd"
        arcs = "".join(
            f"{u} {v} +\n" for u in range(1, 9) for v in range(1, 9) if u != v
        )
        path.write_text(f"sdigraph 8\n{arcs}")
        argv = ["check", "--theorem", "lemma9", str(path)]
        assert main(argv + ["--cycle-cap", "100000"]) == 0
        assert "lemma9: holds" in capsys.readouterr().out
        assert main(argv + ["--cycle-cap", "16000"]) == 2
        assert capsys.readouterr().err == "error: more than 16000 cycles\n"

    def test_cor8_computes_the_bound_on_13_vertices(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_point_bound(*args)

        monkeypatch.setattr(codes, "fixed_point_bound", counted)
        falsify._graph_fp_bound.cache_clear()
        files = _pair_files(tmp_path, figure1(13))
        assert main(["check", "--theorem", "cor8"] + files) == 0
        assert capsys.readouterr().out == "cor8: holds\n"
        assert len(calls) == 1 and calls[0][0] == 13

    def test_cor8_past_the_search_limit_exits_2(self, tmp_path, capsys):
        ring = SignedDigraph(16, [(v, v % 16 + 1, "+") for v in range(1, 17)])
        files = _pair_files(tmp_path, ring)
        start = time.perf_counter()
        assert main(["check", "--theorem", "cor8"] + files) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=16 exceeds the search limit 15\n"

    def test_harary_honours_cycle_cap(self, tmp_path, capsys):
        # The symmetrization of the complete all-positive 9-vertex digraph
        # has no negative cycle, so only the cap can stop its enumeration.
        path = tmp_path / "k9.sd"
        arcs = "".join(
            f"{u} {v} +\n" for u in range(1, 10) for v in range(1, 10) if u != v
        )
        path.write_text(f"sdigraph 9\n{arcs}")
        start = time.perf_counter()
        assert main(["check", "--theorem", "harary", "--cycle-cap", "100", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: more than 100 cycles\n"

    def test_richardson_gen_honours_cycle_cap(self, tmp_path, capsys):
        # The complete 8-vertex digraph has 16,064 cycles, but the cut
        # condition enumerates none: a cap below them does not refuse, and
        # only a cap below 0 does.
        path = tmp_path / "k8.dg"
        arcs = "".join(f"{u} {v}\n" for u in range(1, 9) for v in range(1, 9) if u != v)
        path.write_text(f"digraph 8\n{arcs}")
        argv = ["check", "--theorem", "richardson-gen", str(path)]
        start = time.perf_counter()
        assert main(argv + ["--cycle-cap", "100"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "richardson-gen: holds\n"
        assert main(argv + ["--cycle-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cycle cap -1 is below 0\n"

    def test_thm5_decides_a_graph_past_the_cycle_cap(self, tmp_path, capsys):
        # This graph has more than 10^6 cycles, so enumerating them hits
        # the default cap after seconds; the rule is decided on masks.
        path = tmp_path / "dense.sd"
        path.write_text(format_signed_digraph(random_signed_digraph(15, 0.45, seed=1)))
        start = time.perf_counter()
        assert main(["check", "--theorem", "thm5", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "thm5: violated\n"

    @pytest.mark.parametrize("theorem", ["richardson", "richardson-gen", "kernel-corr"])
    def test_digraph_checks_past_the_limit_exit_2_at_once(self, tmp_path, capsys, theorem):
        # An acyclic ladder: layers {2i+1, 2i+2}, every arc from layer i+1
        # to layer i.  Its reversal has 2^23 paths from the bottom layer,
        # which a cycle search would walk before any subset scan refused.
        path = tmp_path / "ladder.dg"
        arcs = "".join(
            f"{u} {v}\n"
            for i in range(22)
            for u in (2 * i + 3, 2 * i + 4)
            for v in (2 * i + 1, 2 * i + 2)
        )
        path.write_text(f"digraph 46\n{arcs}")
        start = time.perf_counter()
        assert main(["check", "--theorem", theorem, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=46 exceeds the subset scan limit 24\n"

    @pytest.mark.parametrize("theorem", ["harary", "lemma9"])
    def test_graph_checks_past_the_limit_exit_2_at_once(self, graph23, capsys, theorem):
        path, G = graph23
        assert G.n == 23 > falsify.MAX_GRAPH_N
        start = time.perf_counter()
        assert main(["check", "--theorem", theorem, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=23 exceeds the cycle search limit 20\n"


    @pytest.mark.parametrize(
        "theorem, count, wanted",
        [
            ("harary", 2, "a graph file"),
            ("richardson", 2, "a digraph file"),
            ("thm4", 2, "a graph file"),  # a rule theorem: its condition reads G
            ("thm1", 1, "a graph file and a network file"),
        ],
    )
    def test_wrong_file_count_exits_2(
        self, tmp_path, swap_net, two_cycle_digraph, capsys, theorem, count, wanted
    ):
        graph = tmp_path / "pos2.sd"
        graph.write_text("sdigraph 2\n1 2 +\n2 1 +\n")
        first = two_cycle_digraph if theorem == "richardson" else str(graph)
        with pytest.raises(SystemExit) as err:
            main(["check", "--theorem", theorem] + [first, swap_net][:count])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --theorem {theorem} takes exactly {wanted}\n"

    @pytest.mark.parametrize("theorem", ["thm1", "thm6", "thm7"])
    def test_pair_checks_build_the_interaction_graph_once(
        self, tmp_path, capsys, interaction_graph_calls, theorem
    ):
        # Loading the pair compares the network's interaction graph with
        # the graph file; the check then reads the loaded graph.
        assert main(["check", "--theorem", theorem] + _pair_files(tmp_path, figure1(5))) == 0
        assert capsys.readouterr().out == f"{theorem}: holds\n"
        assert len(interaction_graph_calls) == 1

    def test_thm1_on_an_18_input_table_is_fast(self, tmp_path, capsys):
        # Vertex 1 reads the other 18 vertices, each of which copies x_1.
        rng = random.Random(18)
        f = BooleanNetwork(
            [LocalFunction(range(2, 20), [rng.randrange(2) for _ in range(1 << 18)])]
            + [LocalFunction((1,), (0, 1))] * 18
        )
        graph, network = tmp_path / "wide.sd", tmp_path / "wide.bn"
        graph.write_text(format_signed_digraph(f.interaction_graph()))
        network.write_text(format_boolean_network(f))
        start = time.perf_counter()
        assert main(["check", "--theorem", "thm1", str(graph), str(network)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "thm1: holds\n"


class TestNegativeCycleCap:
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["bounds"], ["check", "--theorem", "thm3"],
         ["check", "--theorem", "harary"], ["check", "--theorem", "thm2"]],
    )
    def test_refused_with_the_cap_named(self, tmp_path, capsys, command):
        path = tmp_path / "acyclic.sd"
        path.write_text("sdigraph 2\n1 2 +\n")
        network = tmp_path / "acyclic.bn"
        network.write_text("boolnet 2\n1 : | 0\n2 : 1 | 01\n")
        files = [str(path), str(network)] if command[-1] == "thm2" else [str(path)]
        assert main(command + ["--cycle-cap", "-1"] + files) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cycle cap -1 is below 0\n"

    def test_a_cap_of_zero_is_allowed(self, tmp_path, capsys):
        path = tmp_path / "acyclic.sd"
        path.write_text("sdigraph 2\n1 2 +\n")
        assert main(["bounds", "--cycle-cap", "0", str(path)]) == 0


class TestGenerate:
    def test_figure1_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.sd"
        assert main(["generate", "figure1", "--n", "7", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("sdigraph 7")
        assert text == format_signed_digraph(figure1(7))

    def test_double_cycle_stdout(self, capsys):
        assert main(["generate", "double_cycle", "--lengths", "2", "1",
                     "--signs", "+", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sdigraph 2")
        assert "1 1 -" in out

    def test_random_is_seeded(self, capsys):
        main(["generate", "random", "--n", "6", "--seed", "5"])
        first = capsys.readouterr().out
        main(["generate", "random", "--n", "6", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_bad_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "figure1", "--n", "4"])
        assert err.value.code == 2

    def test_output_to_a_directory_exits_2_with_one_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "figure1", "--n", "5", "-o", str(tmp_path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}: Is a directory\n"

    def test_output_in_a_missing_directory_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "g.sd"
        with pytest.raises(SystemExit) as err:
            main(["generate", "figure1", "--n", "5", "-o", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: No such file or directory\n"

    def test_random_with_no_vertices(self, capsys):
        assert main(["generate", "random", "--n", "0"]) == 0
        assert capsys.readouterr().out.startswith("sdigraph 0")

    def test_random_with_negative_vertices_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "random", "--n", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex count must be non-negative\n"

    @pytest.mark.parametrize(
        "flags",
        [["--arc-prob", "2"], ["--neg-prob", "-1"], ["--arc-prob", "2", "--neg-prob", "-1"]],
    )
    def test_random_probability_out_of_range_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["generate", "random", "--n", "4", *flags])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestFalsifyCommand:
    def test_clean_run_exits_0(self, capsys):
        assert main(["falsify", "--theorem", "thm2", "--trials", "50",
                     "--seed", "3"]) == 0
        assert "0 counterexamples" in capsys.readouterr().out

    def test_structured_report_is_deterministic(self, capsys):
        args = ["--format", "structured", "falsify", "--theorem", "lemma9",
                "--trials", "40", "--seed", "2"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["trials"] == 40

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--theorem", "thm3", "--exhaustive-n", "9"],
             "error: exhaustive_n=9 exceeds the exhaustive limit 3\n"),
            (["--theorem", "thm1", "--max-n", "40"],
             "error: max_n=40 exceeds the scan limit 24 of theorem 'thm1'\n"),
            (["--theorem", "cor8", "--max-n", "16"],
             "error: max_n=16 exceeds the scan limit 15 of theorem 'cor8'\n"),
            (["--theorem", "harary", "--trials", "3", "--max-n", "60"],
             "error: max_n=60 exceeds the scan limit 20 of theorem 'harary'\n"),
            (["--theorem", "lemma9", "--max-n", "21"],
             "error: max_n=21 exceeds the scan limit 20 of theorem 'lemma9'\n"),
            (["--theorem", "thm2", "--trials", "50", "--max-n", "10", "--max-indegree", "5"],
             "error: max_indegree=5 exceeds the in-degree limit 4\n"),
        ]
        # A one-vertex PAIR draw holds both loops, which no one-input table
        # realizes, so random trials there would redraw forever.
        + [
            (["--theorem", theorem, "--trials", "3", "--max-n", "1"],
             f"error: max_n must be at least 2 for theorem {theorem!r}, got 1\n")
            for theorem, prop in sorted(REGISTRY.items())
            if prop.kind is PAIR
        ],
    )
    def test_hopeless_sweep_exits_2_at_once(self, capsys, flags, message):
        start = time.perf_counter()
        assert main(["falsify"] + flags) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--max-n", "0", "max_n"),
            ("--max-indegree", "-1", "max_indegree"),
            ("--trials", "-3", "trials"),
            ("--exhaustive-n", "0", "exhaustive_n"),
        ],
    )
    def test_out_of_range_parameter_exits_2(self, capsys, flag, value, name):
        assert main(["falsify", "--theorem", "thm2", "--trials", "5", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be at least")
        assert captured.err.count("\n") == 1
