"""Text formats: parsing, serialization, round trips, diagnostics."""

import random

import pytest

from conftest import evaluate, g
from signedbn.boolnet import BooleanNetwork, LocalFunction
from signedbn.formats import (
    FormatError,
    format_boolean_network,
    format_digraph,
    format_signed_digraph,
    parse_boolean_network,
    parse_digraph,
    parse_signed_digraph,
)
from signedbn.generators import figure1, random_signed_digraph
from signedbn.kernels import Digraph


class TestSignedDigraph:
    def test_negative_loop(self):
        G = parse_signed_digraph("sdigraph 1\n1 1 -\n")
        assert G == g(1, (1, 1, "-"))

    def test_comments_and_blanks(self):
        text = "# header comment\nsdigraph 2\n\n1 2 +  # trailing\n"
        assert parse_signed_digraph(text) == g(2, (1, 2, "+"))

    def test_round_trip(self):
        G = figure1(7)
        assert parse_signed_digraph(format_signed_digraph(G)) == G

    def test_serialization_is_stable(self):
        text = format_signed_digraph(figure1(5))
        assert text == format_signed_digraph(parse_signed_digraph(text))

    def test_random_round_trips(self):
        for seed in range(30):
            G = random_signed_digraph(5, seed=seed)
            assert parse_signed_digraph(format_signed_digraph(G)) == G

    def test_duplicate_arc_rejected(self):
        with pytest.raises(FormatError, match="line 3: duplicate arc"):
            parse_signed_digraph("sdigraph 2\n1 2 +\n1 2 +\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_signed_digraph("1 2 +\n")

    def test_bad_vertex_id(self):
        with pytest.raises(FormatError, match="outside"):
            parse_signed_digraph("sdigraph 2\n1 5 +\n")

    def test_bad_sign(self):
        with pytest.raises(FormatError, match="sign"):
            parse_signed_digraph("sdigraph 2\n1 2 x\n")


class TestBooleanNetwork:
    def test_swap_network(self):
        f = parse_boolean_network("boolnet 2\n1 : 2 | 01\n2 : 1 | 01\n")
        assert evaluate(f, (0, 1)) == (1, 0)

    def test_constants(self):
        f = parse_boolean_network("boolnet 2\n1 : | 0\n2 : | 1\n")
        assert f.fixed_points() == [(0, 1)]

    def test_round_trip(self):
        f = BooleanNetwork([
            LocalFunction((2, 3), (0, 1, 1, 1)),
            LocalFunction((), (1,)),
            LocalFunction((3,), (1, 0)),
        ])
        assert parse_boolean_network(format_boolean_network(f)) == f

    def test_random_tables_round_trip(self):
        rng = random.Random(12)
        for k in [*range(13), 18]:
            table = "".join(rng.choice("01") for _ in range(1 << k))
            inputs = "".join(f"{u} " for u in range(2, k + 2))
            copies = "".join(f"{v} : 1 | 01\n" for v in range(2, k + 2))
            text = f"boolnet {k + 1}\n1 : {inputs}| {table}\n{copies}"
            assert format_boolean_network(parse_boolean_network(text)) == text

    def test_table_length_mismatch_names_the_line(self):
        text = "boolnet 2\n1 : 2 | 0110\n2 : 1 | 01\n"
        with pytest.raises(FormatError, match="line 2.*length 4"):
            parse_boolean_network(text)

    def test_missing_vertex(self):
        with pytest.raises(FormatError, match="no local function"):
            parse_boolean_network("boolnet 2\n1 : | 0\n")

    def test_missing_vertices_message_is_bounded(self):
        # A 15-byte header declares 200,000 vertices and defines none.
        with pytest.raises(FormatError) as err:
            parse_boolean_network("boolnet 200000\n")
        message = str(err.value)
        assert len(message) < 100
        assert message == "line 1: no local function for 200000 vertices: 1, 2, 3, 4, 5, ..."

    def test_missing_vertices_names_the_header_line(self):
        with pytest.raises(FormatError) as err:
            parse_boolean_network("# network\n\nboolnet 3\n2 : | 1\n")
        assert str(err.value) == "line 3: no local function for 2 vertices: 1, 3"

    def test_duplicate_vertex(self):
        with pytest.raises(FormatError, match="twice"):
            parse_boolean_network("boolnet 1\n1 : | 0\n1 : | 1\n")

    def test_bad_table_characters(self):
        with pytest.raises(FormatError, match="bad table"):
            parse_boolean_network("boolnet 1\n1 : | 0x\n")


class TestDigraph:
    def test_parse(self):
        D = parse_digraph("digraph 3\n1 2\n2 3\n")
        assert D == Digraph(3, [(1, 2), (2, 3)])

    def test_round_trip(self):
        D = Digraph(4, [(1, 2), (2, 1), (3, 3)])
        assert parse_digraph(format_digraph(D)) == D

    def test_duplicate_arc(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_digraph("digraph 2\n1 2\n1 2\n")

    def test_wrong_header_kind(self):
        with pytest.raises(FormatError, match="header"):
            parse_digraph("sdigraph 2\n1 2\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        # header kind and count
        (parse_signed_digraph, "", "line 1: missing 'sdigraph <n>' header"),
        (parse_boolean_network, "# only a comment\n", "line 1: missing 'boolnet <n>' header"),
        (parse_digraph, "\n", "line 1: missing 'digraph <n>' header"),
        (parse_signed_digraph, "digraph 2\n", "line 1: expected header 'sdigraph <n>', got 'digraph 2'"),
        (parse_boolean_network, "boolnet\n", "line 1: expected header 'boolnet <n>', got 'boolnet'"),
        (parse_digraph, "# c\ndigraph 2 3\n", "line 2: expected header 'digraph <n>', got 'digraph 2 3'"),
        (parse_signed_digraph, "sdigraph two\n", "line 1: bad vertex count 'two'"),
        (parse_boolean_network, "boolnet -1\n", "line 1: bad vertex count -1"),
        (parse_digraph, "digraph 1.5\n", "line 1: bad vertex count '1.5'"),
        # record shape
        (parse_signed_digraph, "sdigraph 2\n1 2\n", "line 2: expected '<u> <v> <sign>', got '1 2'"),
        (parse_digraph, "digraph 2\n1 2 +\n", "line 2: expected '<u> <v>', got '1 2 +'"),
        (parse_boolean_network, "boolnet 1\n1 | 0\n",
         "line 2: expected '<v> : <inputs> | <table>', got '1 | 0'"),
        (parse_boolean_network, "boolnet 1\n1 : 0\n", "line 2: missing '|' before the table in '1 : 0'"),
        # vertex id
        (parse_signed_digraph, "sdigraph 2\n1 x +\n", "line 2: bad vertex id 'x'"),
        (parse_signed_digraph, "sdigraph 2\n0 1 +\n", "line 2: vertex id 0 outside 1..2"),
        (parse_digraph, "digraph 2\n1 3\n", "line 2: vertex id 3 outside 1..2"),
        (parse_digraph, "digraph 2\n\n? 1\n", "line 3: bad vertex id '?'"),
        (parse_boolean_network, "boolnet 2\n3 : | 0\n", "line 2: vertex id 3 outside 1..2"),
        (parse_boolean_network, "boolnet 2\n1 : 2 z | 01\n", "line 2: bad vertex id 'z'"),
        # sign
        (parse_signed_digraph, "sdigraph 2\n1 2 ++\n", "line 2: bad sign '++'"),
        # duplicate arc, duplicate vertex
        (parse_signed_digraph, "sdigraph 2\n1 2 -\n1 2 +\n2 1 +\n1 2 -\n", "line 5: duplicate arc 1 2 -"),
        (parse_digraph, "digraph 2\n2 2\n2 2\n", "line 3: duplicate arc 2 2"),
        (parse_boolean_network, "boolnet 2\n2 : | 1\n2 : | 0\n", "line 3: vertex 2 defined twice"),
        (parse_boolean_network, "boolnet 2\n1 : 2 2 | 0110\n", "line 2: duplicate input vertex"),
        # table length and characters
        (parse_boolean_network, "boolnet 2\n1 : 2 | 011\n",
         "line 2: table of length 3 for 1 inputs (expected 2)"),
        (parse_boolean_network, "boolnet 1\n1 : | 2\n", "line 2: bad table '2'"),
        (parse_boolean_network, "boolnet 1\n1 : |\n", "line 2: bad table ''"),
        # a vertex with no local function
        (parse_boolean_network, "boolnet 2\n2 : | 1\n", "no local function"),
    ],
)
def test_malformed_input_messages(parse, text, message):
    with pytest.raises(FormatError) as err:
        parse(text)
    if message.startswith("line "):
        assert str(err.value) == message
    else:
        assert message in str(err.value)
