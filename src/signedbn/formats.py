"""Text formats for signed digraphs, Boolean networks and digraphs.

All three formats are line based: a header line naming the kind and the
vertex count, then one record per line.  ``#`` starts a comment anywhere
on a line; blank lines are ignored.  Serialization is deterministic, so
parse/serialize round-trips are bit exact modulo comments and whitespace.
"""

from __future__ import annotations

from itertools import islice

from .boolnet import BooleanNetwork, LocalFunction, _table_text
from .graphs import Digraph, SignedDigraph, _check_limit, sign_char


class FormatError(Exception):
    """Malformed input with a line-number diagnostic."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _read_header(text: str, kind: str):
    """The header line's number, the vertex count and the remaining records."""
    records = _records(text)
    try:
        line_no, line = next(records)
    except StopIteration:
        raise FormatError(1, f"missing '{kind} <n>' header") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != kind:
        raise FormatError(line_no, f"expected header '{kind} <n>', got {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(line_no, f"bad vertex count {parts[1]!r}") from None
    if n < 0:
        raise FormatError(line_no, f"bad vertex count {n}")
    return line_no, n, records


def _parse_vertex(line_no: int, token: str, n: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise FormatError(line_no, f"bad vertex id {token!r}") from None
    if not 1 <= v <= n:
        raise FormatError(line_no, f"vertex id {v} outside 1..{n}")
    return v


def _read_arcs(records, n: int, shape: str) -> list[tuple]:
    """Per record of ``shape``, (u, v) or (u, v, sign character); no duplicates."""
    fields = len(shape.split())
    arcs = []
    seen = set()
    for line_no, line in records:
        parts = line.split()
        if len(parts) != fields:
            raise FormatError(line_no, f"expected '{shape}', got {line!r}")
        u = _parse_vertex(line_no, parts[0], n)
        v = _parse_vertex(line_no, parts[1], n)
        if fields == 3 and parts[2] not in ("+", "-"):
            raise FormatError(line_no, f"bad sign {parts[2]!r}")
        arc = (u, v, *parts[2:])
        if arc in seen:
            raise FormatError(line_no, "duplicate arc " + " ".join(map(str, arc)))
        seen.add(arc)
        arcs.append(arc)
    return arcs


# -- signed digraphs ----------------------------------------------------------


def parse_signed_digraph(text: str) -> SignedDigraph:
    _, n, records = _read_header(text, "sdigraph")
    return SignedDigraph(n, _read_arcs(records, n, "<u> <v> <sign>"))


def format_signed_digraph(G: SignedDigraph) -> str:
    if G.vertex_set != frozenset(range(1, G.n + 1)):
        raise ValueError("only graphs on contiguous vertices 1..n serialize")
    lines = [f"sdigraph {G.n}"]
    lines += [f"{a.source} {a.target} {sign_char(a.sign)}" for a in G.arcs]
    return "\n".join(lines) + "\n"


# -- Boolean networks ---------------------------------------------------------


def parse_boolean_network(text: str) -> BooleanNetwork:
    header_no, n, records = _read_header(text, "boolnet")
    locals_: dict[int, LocalFunction] = {}
    for line_no, line in records:
        if ":" not in line:
            raise FormatError(line_no, f"expected '<v> : <inputs> | <table>', got {line!r}")
        head, _, rest = line.partition(":")
        v = _parse_vertex(line_no, head.strip(), n)
        if v in locals_:
            raise FormatError(line_no, f"vertex {v} defined twice")
        if "|" not in rest:
            raise FormatError(line_no, f"missing '|' before the table in {line!r}")
        inputs_part, _, table_part = rest.partition("|")
        inputs = tuple(_parse_vertex(line_no, tok, n) for tok in inputs_part.split())
        if len(set(inputs)) != len(inputs):
            raise FormatError(line_no, "duplicate input vertex")
        table_str = table_part.strip()
        if not table_str or set(table_str) - {"0", "1"}:
            raise FormatError(line_no, f"bad table {table_str!r}")
        if len(table_str) != 1 << len(inputs):
            raise FormatError(
                line_no,
                f"table of length {len(table_str)} for {len(inputs)} inputs "
                f"(expected {1 << len(inputs)})",
            )
        locals_[v] = LocalFunction._from_bits(inputs, int(table_str[::-1], 2))
    missing = n - len(locals_)
    if missing:
        # Count them and name at most five: the header alone may declare
        # millions, and the first five lie below len(locals_) + 6.
        first = islice((v for v in range(1, n + 1) if v not in locals_), 5)
        shown = ", ".join(map(str, first)) + (", ..." if missing > 5 else "")
        raise FormatError(header_no, f"no local function for {missing} vertices: {shown}")
    return BooleanNetwork([locals_[v] for v in range(1, n + 1)])


def format_boolean_network(f: BooleanNetwork) -> str:
    lines = [f"boolnet {f.n}"]
    for v in range(1, f.n + 1):
        lf = f.local(v)
        inputs = " ".join(str(u) for u in lf.inputs)
        table = _table_text(lf.bits, lf.arity)
        if inputs:
            lines.append(f"{v} : {inputs} | {table}")
        else:
            lines.append(f"{v} : | {table}")
    return "\n".join(lines) + "\n"


# -- unsigned digraphs --------------------------------------------------------


def parse_digraph(text: str) -> Digraph:
    _, n, records = _read_header(text, "digraph")
    return Digraph(n, _read_arcs(records, n, "<u> <v>"))


def format_digraph(D: Digraph) -> str:
    lines = [f"digraph {D.n}"]
    lines += [f"{u} {v}" for u, v in D.arcs]
    return "\n".join(lines) + "\n"


# -- file wrappers ------------------------------------------------------------


def _read_file(path, kind: str, limit) -> str:
    """The text of the file at path.  ``limit`` is None or a refusal
    (what, L): a ``kind`` header that declares more than L vertices is
    refused with ``_check_limit``'s ValueError before anything is parsed."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if limit is not None:
        _check_limit(_read_header(text, kind)[1], *limit)
    return text


def load_signed_digraph(path, limit=None) -> SignedDigraph:
    return parse_signed_digraph(_read_file(path, "sdigraph", limit))


def load_boolean_network(path, limit=None) -> BooleanNetwork:
    return parse_boolean_network(_read_file(path, "boolnet", limit))


def load_digraph(path, limit=None) -> Digraph:
    return parse_digraph(_read_file(path, "digraph", limit))
