"""Every entry point answers or refuses: exit 0 or 1 within a CPU budget,
or exit 2 with one line on stderr and no traceback.

Each call runs ``cli.main`` in this process under ``signal.setitimer`` on
the process CPU clock, so a call that would hang is cut off and reported,
and other load on the machine does not count against the budget.
"""

import contextlib
import io
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedbn import cli, formats, structure
from signedbn.boolnet import BooleanNetwork, UnrealizableGraphError, constant, sample_consistent
from signedbn.falsify import MAX_EXHAUSTIVE_N, REGISTRY
from signedbn.graphs import SignedDigraph
from signedbn.kernels import Digraph, kernels

# CPU seconds per falsify call.  The slowest calls of the grid, 3 trials
# of a PAIR theorem at --max-n 24 and --max-indegree 0, redraw thousands
# of times per trial and take about 0.4 s on a 2-core x86-64 VM.
BUDGET = 10.0


class OverBudget(BaseException):
    """A call ran past its CPU budget.  Not an Exception, so that no
    handler in the call can take it for a refusal."""


@contextlib.contextmanager
def cpu_budget(seconds):
    def expire(signum, frame):
        raise OverBudget

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def run(argv, seconds):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; the code is None
    when the call ran past ``seconds`` of CPU."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with cpu_budget(seconds):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except OverBudget:
            code = None
    return code, out.getvalue(), err.getvalue()


def answered(code, err) -> bool:
    if code in (0, 1):
        return err == ""
    return code == 2 and err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


def _limit(prop) -> int:
    return prop.file_limit[1]


@pytest.mark.parametrize("theorem", sorted(REGISTRY))
def test_falsify_answers_or_refuses_at_every_boundary(theorem):
    limit = _limit(REGISTRY[theorem])
    grid = [
        ["--max-n", str(max_n), "--max-indegree", str(max_indegree), "--trials", str(trials)]
        for max_n in (0, 1, 2, limit, limit + 1)
        for max_indegree in (-1, 0, 4, 5)
        for trials in (-1, 0, 3)
    ]
    # The sweep ignores --max-n, so a PAIR theorem takes 1 there.
    grid += [
        ["--max-n", "1", "--exhaustive-n", str(size), "--trials", "3"]
        for size in (0, 1, 2, MAX_EXHAUSTIVE_N + 1)
    ]
    failures = []
    for flags in grid:
        code, _, err = run(["falsify", "--theorem", theorem, "--seed", "0"] + flags, BUDGET)
        if not answered(code, err):
            failures.append((flags, code, err))
    assert failures == []


# Per command: its input's header word, and a library call one vertex
# past the command's limit, which refuses in the words the command uses.
OVERSIZED = {
    "analyze": ("sdigraph", lambda: structure.analyze(SignedDigraph(16))),
    "bounds": ("sdigraph", lambda: structure._bound_terms(SignedDigraph(16), 10)),
    "kernels": ("digraph", lambda: kernels(Digraph(25))),
    "fixed-points": ("boolnet", lambda: BooleanNetwork([constant(0)] * 25).fixed_points()),
    "attractors": ("boolnet", lambda: BooleanNetwork([constant(0)] * 21).attractors()),
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_an_oversized_header_is_refused_before_anything_is_built(tmp_path, command):
    header, refuse = OVERSIZED[command]
    with pytest.raises(ValueError) as refusal:
        refuse()
    words = str(refusal.value)
    assert re.fullmatch(r"n=\d+ exceeds the [a-z -]+ limit \d+", words)
    path = tmp_path / "big"
    path.write_text(f"{header} 100000000\n")
    code, out, err = run([command, str(path)], 1.0)
    assert (code, out) == (2, "")
    assert err == "error: n=100000000 " + words.split(" ", 1)[1] + "\n"


# The theorems whose check refuses an instance by the size of its first
# part: every theorem.  ``check`` of thm3 to thm5 reads the graph alone,
# yet it refuses a graph past the fixed-point scan limit, as the network
# that goes with it would be refused.
REFUSED_BY_HEADER = {
    "cor8", "harary", "kernel-corr", "lemma9", "richardson", "richardson-gen",
    "thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "thm7",
}


def test_the_registry_names_each_check_that_refuses_by_size():
    assert {t for t, prop in REGISTRY.items() if prop.file_limit} == REFUSED_BY_HEADER


@pytest.mark.parametrize("theorem", sorted(REFUSED_BY_HEADER))
def test_check_refuses_an_oversized_header_before_anything_is_built(tmp_path, theorem):
    prop = REGISTRY[theorem]
    what, most = prop.file_limit
    header, build = {"graph": ("sdigraph", SignedDigraph), "digraph": ("digraph", Digraph)}[
        prop.kind.parts[0][0]
    ]
    graph = build(most + 1)
    network = BooleanNetwork([constant(0)] * (most + 1))
    parts = len(prop.kind.parts)
    with pytest.raises(ValueError) as refusal:
        prop.check(*(graph, network)[:parts])
    words = str(refusal.value)
    assert words == f"n={most + 1} exceeds the {what} limit {most}"
    big, one = tmp_path / "big", tmp_path / "one"
    big.write_text(f"{header} 1000000\n")
    one.write_text("boolnet 1\n1 : | 0\n")
    # A rule theorem's ``check`` takes the graph file alone.
    files = 1 if prop.condition else parts
    code, out, err = run(["check", "--theorem", theorem] + [str(big), str(one)][:files], 1.0)
    assert (code, out) == (2, "")
    assert err == "error: n=1000000 " + words.split(" ", 1)[1] + "\n"


@pytest.mark.parametrize("theorem", ["thm1", "thm7"])
def test_a_disagreement_check_refuses_the_scan_before_it_counts_cycles(theorem):
    # The complete positive graph on 25 vertices is far over the cycle
    # cap; the check refuses its fixed-point scan first, as ``check``
    # refuses the file's header.
    arcs = [(u, v, "+") for u in range(1, 26) for v in range(1, 26) if u != v]
    with pytest.raises(ValueError, match=r"^n=25 exceeds the fixed-point scan limit 24$"):
        REGISTRY[theorem].check(SignedDigraph(25, arcs), BooleanNetwork([constant(0)] * 25))


# Ways a hand-edited ``.bn`` file can be broken, each on a well-formed
# network's lines.
FLAWS = (
    None, "truncated", "empty", "header only", "header too large", "duplicate vertex",
    "input out of range", "table length", "table character",
)


@st.composite
def network_files(draw):
    """(flaw, text): a well-formed network on 0 to 8 vertices, then the flaw."""
    n = draw(st.integers(0, 8))
    body = []
    for v in range(1, n + 1):
        inputs = draw(st.lists(st.integers(1, n), unique=True, max_size=min(n, 4)))
        table = "".join(draw(st.sampled_from("01")) for _ in range(1 << len(inputs)))
        body.append([v, " ".join(map(str, inputs)), table])
    header = f"boolnet {n}"
    flaw = draw(st.sampled_from(FLAWS))
    if body and flaw in ("input out of range", "table length", "table character"):
        line = draw(st.sampled_from(body))
        if flaw == "input out of range":
            line[1] += f" {draw(st.sampled_from((0, -1, n + 1, 10 ** 30)))}"
        elif flaw == "table length":
            line[2] = draw(st.sampled_from((line[2][:-1], line[2] + "0", line[2] * 2)))
        else:
            at = draw(st.integers(0, len(line[2]) - 1))
            line[2] = line[2][:at] + draw(st.sampled_from("2x-. \u0661")) + line[2][at + 1:]
    lines = [header] + [f"{v} : {inputs} | {table}" for v, inputs, table in body]
    if flaw == "header only":
        lines = [header]
    elif flaw == "header too large":
        lines[0] = f"boolnet {n + draw(st.integers(1, 3))}"
    elif flaw == "duplicate vertex" and body:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(lines[1:])))
    text = "\n".join(lines) + "\n"
    if flaw == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    elif flaw == "empty":
        text = ""
    return flaw, text


@pytest.fixture(scope="module")
def network_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bn") / "f.bn"


@given(network_files(), st.sampled_from(("human", "structured")))
@settings(max_examples=400, deadline=None)
def test_dynamics_commands_answer_or_refuse_any_network_file(network_path, drawn, style):
    flaw, text = drawn
    network_path.write_text(text, encoding="utf-8")
    for command in ("fixed-points", "attractors"):
        code, _, err = run(["--format", style, command, str(network_path)], 1.0)
        assert answered(code, err), (command, text, code, err)
        if flaw is None:
            assert code == 0


# Ways a hand-edited ``.sd`` or ``.dg`` file can be broken, each on a
# well-formed graph's lines.  Well-formed graphs already hold loops and,
# in ``.sd`` files, arcs of both signs between the same vertices.
GRAPH_FLAWS = (
    None, "truncated", "empty", "no vertices", "header word", "duplicate arc", "vertex out of range",
)


@st.composite
def graph_files(draw, header):
    """(flaw, text): a well-formed ``header`` file (``sdigraph`` or
    ``digraph``) on 0 to 6 vertices, then the flaw."""
    n = draw(st.integers(0, 6))
    fields = [st.integers(1, n), st.integers(1, n)]
    if header == "sdigraph":
        fields.append(st.sampled_from("+-"))
    arcs = draw(st.lists(st.tuples(*fields), unique=True, max_size=3 * n)) if n else []
    lines = [f"{header} {n}"] + [" ".join(map(str, arc)) for arc in arcs]
    flaw = draw(st.sampled_from(GRAPH_FLAWS))
    if flaw == "no vertices":
        lines[0] = f"{header} 0"
    elif flaw == "header word":
        lines[0] = draw(st.sampled_from(("sdigraph", "digraph", "boolnet", "graph"))) + f" {n}"
    elif flaw == "duplicate arc" and arcs:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(lines[1:])))
    elif flaw == "vertex out of range":
        bad = draw(st.sampled_from(("0", "-1", str(n + 1), str(10 ** 30), "x")))
        arc = [bad, "1"] if draw(st.booleans()) else ["1", bad]
        lines.append(" ".join(arc + ["+"] * (header == "sdigraph")))
    text = "\n".join(lines) + "\n"
    if flaw == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    elif flaw == "empty":
        text = ""
    return flaw, text


def network_for(text):
    """A ``.bn`` text for the second file of ``check``: a network consistent
    with the graph ``text``, when it parses and one exists, so that the
    pair checks run; otherwise a one-vertex network."""
    try:
        G = formats.parse_signed_digraph(text)
        return formats.format_boolean_network(sample_consistent(G, seed=0))
    except (formats.FormatError, UnrealizableGraphError, ValueError):
        return "boolnet 1\n1 : | 0\n"


def check_answers(tmp, text, commands, style, cap):
    """Run ``commands`` on the file ``text``, then ``check`` with every
    theorem, alone and with a network, and return the calls that
    neither answered nor refused."""
    graph, network = tmp / "graph", tmp / "network"
    graph.write_text(text, encoding="utf-8")
    network.write_text(network_for(text), encoding="utf-8")
    calls = [[command, str(graph)] for command in commands]
    for theorem in sorted(REGISTRY):
        for files in ([graph], [graph, network]):
            calls.append(["check", "--theorem", theorem, "--cycle-cap", cap] + list(map(str, files)))
    failures = []
    for argv in calls:
        code, _, err = run(["--format", style] + argv, 1.0)
        if not answered(code, err):
            failures.append((argv, code, err))
    return failures


STYLES = st.sampled_from(("human", "structured"))
CAPS = st.sampled_from(("0", "1", "3"))


@given(graph_files("sdigraph"), STYLES, CAPS)
@settings(max_examples=60, deadline=None)
def test_graph_commands_answer_or_refuse_any_graph_file(tmp_path_factory, drawn, style, cap):
    flaw, text = drawn
    tmp = tmp_path_factory.mktemp("sd")
    assert check_answers(tmp, text, ("analyze", "bounds"), style, cap) == [], text
    if flaw is None:
        code, _, _ = run(["analyze", str(tmp / "graph")], 1.0)
        assert code == 0, text


@given(graph_files("digraph"), STYLES, CAPS)
@settings(max_examples=60, deadline=None)
def test_digraph_commands_answer_or_refuse_any_digraph_file(tmp_path_factory, drawn, style, cap):
    flaw, text = drawn
    tmp = tmp_path_factory.mktemp("dg")
    assert check_answers(tmp, text, ("kernels",), style, cap) == [], text
    if flaw is None:
        code, _, _ = run(["kernels", str(tmp / "graph")], 1.0)
        assert code in (0, 1), text


# Arguments of ``generate`` at and past the edges of what each family takes.
GENERATE = (
    [["figure1", "--n", n] for n in ("-1", "0", "1", "2", "3", "4")]
    + [
        ["double_cycle", "--lengths", a, b, "--signs", s, t]
        for a, b in (("0", "1"), ("1", "0"), ("-1", "2"), ("1", "1"), ("3", "2"))
        for s, t in (("+", "-"), ("-", "-"))
    ]
    + [
        ["random", "--n", n, "--arc-prob", p, "--neg-prob", q, "--seed", seed]
        for n in ("-1", "0", "1", "2")
        for p in ("-0.5", "0", "1", "1.5")
        for q in ("-0.5", "0", "1", "1.5")
        for seed in ("-1", "0")
    ]
    + [["random", "--n", "0"], ["random", "--n", "2"]]
    # The largest graph a command reads has 24 vertices; past it nothing is built.
    + [["figure1", "--n", n] for n in ("23", "24", "25", "9999999")]
    + [["double_cycle", "--lengths", a, b] for a, b in (("12", "13"), ("13", "13"), ("20000000", "1"))]
    + [["random", "--n", n] for n in ("24", "25", "100000")]
)


def test_generate_answers_or_refuses_at_every_boundary(tmp_path):
    failures = []
    for argv in GENERATE + [["figure1", "-o", str(tmp_path)]]:
        code, out, err = run(["generate"] + argv, 1.0)
        if not answered(code, err) or code == 1:
            failures.append((argv, code, err))
        elif code == 0:
            # What ``generate`` writes, ``analyze`` reads back.
            G = formats.parse_signed_digraph(out)
            assert formats.format_signed_digraph(G) == out
    assert failures == []
