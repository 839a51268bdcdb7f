"""Signed directed graphs: data model, subgraph calculus and cycle structure.

Unsigned digraphs (``Digraph``), the input of the kernel results, live
here too, so that parsers and generators need not import the kernel
layer.

Vertices are positive integers.  A freshly built graph normally uses 1..n,
but subgraph operations (``induced``, ``delete``) keep the original vertex
ids, so a graph may live on any finite set of positive integers.

States (points of {0,1}^n) are plain tuples of 0/1 ints indexed by vertex
id: position v-1 holds the value of vertex v.  A state may cover a superset
of a subgraph's vertices; entries at positions of missing vertices are
ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

POSITIVE = 1
NEGATIVE = -1

INF = float("inf")

DEFAULT_CYCLE_CAP = 10 ** 6

_SIGN_CHARS = {POSITIVE: "+", NEGATIVE: "-"}
_CHAR_SIGNS = {"+": POSITIVE, "-": NEGATIVE}


class CycleCapExceeded(Exception):
    """A cycle enumeration found more cycles than its cap allows."""


def _check_limit(n: int, what: str, limit: int):
    """Refuse, with a ValueError, a size n past the ``what`` limit."""
    if n > limit:
        raise ValueError(f"n={n} exceeds the {what} limit {limit}")


def sign_char(sign: int) -> str:
    return _SIGN_CHARS[sign]


class Arc(NamedTuple):
    source: int
    target: int
    sign: int

    def __repr__(self):
        return f"({self.source}->{self.target},{sign_char(self.sign)})"


def as_arc(value) -> Arc:
    """Coerce an Arc or (source, target, sign) triple; signs may be '+'/'-'."""
    if isinstance(value, Arc):
        return value
    u, v, s = value
    if isinstance(s, str):
        if s not in _CHAR_SIGNS:
            raise ValueError(f"bad sign {s!r}")
        s = _CHAR_SIGNS[s]
    if s not in (POSITIVE, NEGATIVE):
        raise ValueError(f"bad sign {s!r}")
    return Arc(int(u), int(v), s)


def _arc_sort_key(a: Arc):
    return (a.source, a.target, 0 if a.sign == POSITIVE else 1)


class SignedDigraph:
    """Immutable signed digraph.

    ``vertices`` may be an int n (meaning 1..n) or an iterable of vertex
    ids.  Parallel arcs of opposite signs between the same ordered pair are
    allowed; duplicate identical arcs collapse.
    """

    __slots__ = (
        "_vertices", "_arcs", "_hash", "_arc_lists", "_cycle_cache", "_index_cache", "_scc_cache",
        "_mask_cache", "_symmetrized",
    )

    def __init__(self, vertices, arcs: Iterable = ()):
        if isinstance(vertices, int):
            if vertices < 0:
                raise ValueError("vertex count must be non-negative")
            vertex_set = frozenset(range(1, vertices + 1))
        else:
            vertex_set = frozenset(int(v) for v in vertices)
            if any(v < 1 for v in vertex_set):
                raise ValueError("vertex ids must be positive integers")
        arc_set = frozenset(map(as_arc, arcs))
        for a in arc_set:
            if a.source not in vertex_set or a.target not in vertex_set:
                raise ValueError(f"arc {a!r} has an endpoint outside the vertex set")
        self._set_fields(vertex_set, arc_set)

    @classmethod
    def _from_sets(cls, vertex_set: frozenset[int], arc_set: frozenset[Arc]) -> "SignedDigraph":
        """The graph with these vertex and arc sets, built unchecked: the
        caller vouches that the vertices are positive ints and that every
        arc is an Arc with both ends among them."""
        G = object.__new__(cls)
        G._set_fields(vertex_set, arc_set)
        return G

    def _set_fields(self, vertex_set, arc_set):
        """Fill every slot: the vertex and arc sets, and empty caches."""
        self._vertices = vertex_set
        self._arcs = arc_set
        self._hash = None
        self._arc_lists = None
        self._cycle_cache = None
        self._index_cache = None
        self._scc_cache = None
        self._mask_cache = None
        self._symmetrized = None

    # -- basic views ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertices))

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vertices

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self._arcs, key=_arc_sort_key))

    @property
    def arc_set(self) -> frozenset[Arc]:
        return self._arcs

    def in_arcs(self, v: int) -> tuple[Arc, ...]:
        self._check_vertex(v)
        return self._sorted_arc_lists()[0][v]

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        self._check_vertex(v)
        return self._sorted_arc_lists()[1][v]

    def _sorted_arc_lists(self) -> tuple[dict[int, tuple[Arc, ...]], dict[int, tuple[Arc, ...]]]:
        """Each vertex's in- and out-arc tuples, in ``_arc_sort_key`` order,
        sorted on first use and cached on the graph."""
        lists = self._arc_lists
        if lists is None:
            ins: dict[int, list[Arc]] = {v: [] for v in self._vertices}
            outs: dict[int, list[Arc]] = {v: [] for v in self._vertices}
            for a in sorted(self._arcs, key=_arc_sort_key):
                outs[a.source].append(a)
                ins[a.target].append(a)
            lists = self._arc_lists = (
                {v: tuple(arcs) for v, arcs in ins.items()},
                {v: tuple(arcs) for v, arcs in outs.items()},
            )
        return lists

    def in_neighbors(self, v: int, sign: int | None = None) -> tuple[int, ...]:
        arcs = self.in_arcs(v)
        if sign is not None:
            arcs = [a for a in arcs if a.sign == sign]
        return tuple(sorted({a.source for a in arcs}))

    def _check_vertex(self, v: int):
        if v not in self._vertices:
            raise ValueError(f"vertex {v} is not in the graph")

    def _check_subset(self, I: Iterable[int]) -> frozenset[int]:
        s = frozenset(int(v) for v in I)
        bad = s - self._vertices
        if bad:
            raise ValueError(f"vertex ids {sorted(bad)} are not in the graph")
        return s

    def __eq__(self, other):
        if not isinstance(other, SignedDigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._arcs == other._arcs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._vertices, self._arcs))
        return self._hash

    def __repr__(self):
        return f"SignedDigraph(n={self.n}, arcs={len(self._arcs)})"

    # -- subgraph calculus ----------------------------------------------

    def induced(self, I: Iterable[int]) -> "SignedDigraph":
        """Subgraph induced by the vertex set I; original ids are kept."""
        keep = self._check_subset(I)
        arcs = [a for a in self._arcs if a.source in keep and a.target in keep]
        return SignedDigraph(keep, arcs)

    def remove_incoming(self, I: Iterable[int]) -> "SignedDigraph":
        """Drop every arc whose terminal vertex lies in I; vertices kept."""
        drop = self._check_subset(I)
        arcs = [a for a in self._arcs if a.target not in drop]
        return SignedDigraph(self._vertices, arcs)

    def delete(self, x) -> "SignedDigraph":
        """Remove an arc (vertices kept) or a vertex (with attached arcs)."""
        if isinstance(x, (Arc, tuple)):
            a = as_arc(x)
            if a not in self._arcs:
                raise ValueError(f"arc {a!r} is not in the graph")
            return SignedDigraph(self._vertices, self._arcs - {a})
        v = int(x)
        self._check_vertex(v)
        arcs = [a for a in self._arcs if a.source != v and a.target != v]
        return SignedDigraph(self._vertices - {v}, arcs)

    def symmetrize(self) -> "SignedDigraph":
        """Close the arc set under sign-preserving reversal; a graph already
        closed is returned itself.  Built once and cached on the graph."""
        H = self._symmetrized
        if H is None:
            missing = {(t, s, sign) for s, t, sign in self._arcs} - self._arcs
            if missing:
                # The reversed arcs are valid arcs between G's own vertices.
                H = self._from_sets(self._vertices, self._arcs.union(map(Arc._make, missing)))
                H._symmetrized = False
            else:
                H = False  # the graph is closed: no reference to itself
            self._symmetrized = H
        return self if H is False else H

    def consistent_subgraph(self, x: Sequence[int]) -> "SignedDigraph":
        """Spanning subgraph of arcs consistent with the state x.

        Keeps positive arcs between equal-valued endpoints and negative
        arcs between unequal ones.
        """
        self._check_state(x)
        arcs = [
            a
            for a in self._arcs
            if (x[a.source - 1] == x[a.target - 1]) == (a.sign == POSITIVE)
        ]
        return SignedDigraph(self._vertices, arcs)

    def _check_state(self, x: Sequence[int]):
        if self._vertices and len(x) < max(self._vertices):
            raise ValueError(
                f"state of length {len(x)} does not cover vertex ids up to "
                f"{max(self._vertices)}"
            )


class Digraph:
    """Immutable unsigned digraph on vertices 1..n; loops allowed."""

    __slots__ = ("n", "_arcs", "_out")

    def __init__(self, n: int, arcs: Iterable = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arc_set:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u},{v}) has an endpoint outside 1..{n}")
        self._arcs = arc_set
        outs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for u, v in arc_set:
            outs[u].add(v)
        self._out = {v: tuple(sorted(ts)) for v, ts in outs.items()}

    @classmethod
    def _from_out_lists(cls, out_lists: Sequence[tuple[int, ...]]) -> "Digraph":
        """The digraph on 1..n, n = len(out_lists), whose out-neighbours of
        vertex v are out_lists[v - 1].  A digraph the library drew itself:
        each tuple increases inside 1..n, so nothing is checked or sorted."""
        D = object.__new__(cls)
        D.n = len(out_lists)
        D._out = dict(zip(range(1, D.n + 1), out_lists))
        D._arcs = frozenset((u, v) for u, targets in D._out.items() for v in targets)
        return D

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._arcs))

    @property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return self._arcs

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return self._out[v]

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._arcs == other._arcs

    def __hash__(self):
        return hash((self.n, self._arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={len(self._arcs)})"


# -- cycles ---------------------------------------------------------------


def _check_chain(arcs: tuple[Arc, ...]):
    for a, b in zip(arcs, arcs[1:]):
        if a.target != b.source:
            raise ValueError(f"arcs {a!r} and {b!r} do not chain")


def _sign_product(arcs: Iterable[Arc]) -> int:
    sign = POSITIVE
    for a in arcs:
        sign *= a.sign
    return sign


class SignedCycle:
    """Directed simple cycle stored in canonical rotation.

    The rotation starts at the minimal vertex, so equal cycles compare
    equal regardless of the rotation they were built from.  A loop is a
    cycle of length one.  Only the arcs and the sign are stored; the
    vertices are read off the arcs.
    """

    __slots__ = ("arcs", "sign")

    def __init__(self, arcs: Iterable):
        arcs = tuple(as_arc(a) for a in arcs)
        if not arcs:
            raise ValueError("a cycle needs at least one arc")
        _check_chain(arcs)
        if arcs[-1].target != arcs[0].source:
            raise ValueError("arc sequence does not close")
        sources = [a.source for a in arcs]
        if len(set(sources)) != len(sources):
            raise ValueError("cycle repeats a vertex")
        i = sources.index(min(sources))
        self.arcs = arcs[i:] + arcs[:i]
        self.sign = _sign_product(arcs)

    @classmethod
    def _found(cls, arcs: tuple[Arc, ...]) -> "SignedCycle":
        """A cycle that ``iter_cycles`` found: its arcs are G's, chained,
        closed, simple and start at the minimal vertex, so they need no
        check and no rotation."""
        cycle = object.__new__(cls)
        cycle.arcs = arcs
        cycle.sign = _sign_product(arcs)
        return cycle

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(a.source for a in self.arcs)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(a.source for a in self.arcs)

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        if not isinstance(other, SignedCycle):
            return NotImplemented
        return self.arcs == other.arcs

    def __hash__(self):
        return hash(("cycle", self.arcs))

    def __repr__(self):
        chain = "->".join(str(v) for v in self.vertices + (self.vertices[0],))
        return f"Cycle({chain},{sign_char(self.sign)})"


# -- vertex masks -----------------------------------------------------------


def _set_bits(mask: int) -> Iterator[int]:
    """Positions of the 1 bits of mask, increasing, in one linear pass."""
    bits = bin(mask)[:1:-1]
    pos = bits.find("1")
    while pos >= 0:
        yield pos
        pos = bits.find("1", pos + 1)


def _closure(seed: int, step: Sequence[int], allowed: int = -1) -> int:
    """Positions reachable from the mask ``seed`` inside the mask
    ``allowed``, seed included, where ``step[p]`` is the mask of the
    neighbours of position p."""
    seen = frontier = seed & allowed
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= step[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & allowed & ~seen
        seen |= frontier
    return seen


def _masks(G: SignedDigraph) -> tuple[dict[int, int], list[int], list[int], list[int]]:
    """G's mask layout, built in one pass over the arc set on first use
    and cached on the graph: the vertex positions (the p-th of
    ``G.vertices`` is p), per position the masks of its out- and
    in-neighbour positions, and the 2n step masks of G's sign cover.
    Callers read the lists and never change them.

    Cover position p is vertex p reached by a walk of sign +, and p + n
    the same vertex reached by a walk of sign -: a positive arc keeps the
    copy and a negative arc switches it.  So a cover walk from p to p + n
    is a negative closed walk of G through p.
    """
    layout = G._mask_cache
    if layout is None:
        position = {v: p for p, v in enumerate(G.vertices)}
        n = len(position)
        into, keep, switch = [0] * n, [0] * n, [0] * n
        for s, t, sign in G._arcs:
            p, q = position[s], position[t]
            into[q] |= 1 << p
            if sign == POSITIVE:
                keep[p] |= 1 << q
            else:
                switch[p] |= 1 << q
        out = [k | w for k, w in zip(keep, switch)]
        plus = [k | w << n for k, w in zip(keep, switch)]
        minus = [w | k << n for k, w in zip(keep, switch)]
        layout = G._mask_cache = (position, out, into, plus + minus)
    return layout


# -- strongly connected components ----------------------------------------


@dataclass(frozen=True)
class ComponentDecomposition:
    """Strong components in topological order with per-component flags.

    ``initial``: no arc enters the component from outside.
    ``terminal``: no arc leaves it.
    ``nontrivial``: the induced subgraph contains at least one arc (a
    single vertex with a loop counts as non-trivial).
    """

    components: tuple[frozenset[int], ...]
    initial: tuple[bool, ...]
    terminal: tuple[bool, ...]
    nontrivial: tuple[bool, ...]

    def __len__(self):
        return len(self.components)


def _component_masks(out: Sequence[int], into: Sequence[int]) -> list[int]:
    """Strong components, as position masks in topological order, of the
    digraph whose position p has out- and in-neighbour masks ``out[p]``
    and ``into[p]``.

    Kosaraju's method on the masks: one depth-first search, from each
    root in position order to the lowest unvisited out-neighbour, lists
    the positions by finishing time; then, latest finisher first, each
    position not yet placed takes its backward closure inside the
    unplaced positions as the next component.
    """
    finished = []
    visited = 0
    for root in range(len(out)):
        if visited >> root & 1:
            continue
        visited |= 1 << root
        stack = [root]
        while stack:
            fresh = out[stack[-1]] & ~visited
            if fresh:
                low = fresh & -fresh
                visited |= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())
    unplaced = (1 << len(out)) - 1
    components = []
    for p in reversed(finished):
        if unplaced >> p & 1:
            comp = _closure(1 << p, into, unplaced)
            unplaced &= ~comp
            components.append(comp)
    return components


def _components(G: SignedDigraph) -> tuple[tuple[int, bool, bool, bool], ...]:
    """G's strong components as rows (mask, initial, terminal, nontrivial),
    topologically ordered (arcs go forward), each mask over the positions
    of ``G.vertices``, from ``_component_masks`` on first use; cached on
    the graph.  The flags are those of ``ComponentDecomposition``."""
    rows = G._scc_cache
    if rows is None:
        _, out, into, _ = _masks(G)
        rows = []
        for comp in _component_masks(out, into):
            ins = outs = 0
            for q in _set_bits(comp):
                ins |= into[q]
                outs |= out[q]
            rows.append((comp, not ins & ~comp, not outs & ~comp, bool(outs & comp)))
        rows = G._scc_cache = tuple(rows)
    return rows


def scc(G: SignedDigraph) -> ComponentDecomposition:
    """Strong components of G, topologically ordered (arcs go forward): the
    vertex-set view of ``_components``, built on each call."""
    vertices = G.vertices
    # The empty graph has no rows to transpose.
    masks, initial, terminal, nontrivial = tuple(zip(*_components(G))) or ((),) * 4
    components = tuple(frozenset(vertices[q] for q in _set_bits(comp)) for comp in masks)
    return ComponentDecomposition(components, initial, terminal, nontrivial)


def is_strong(G: SignedDigraph) -> bool:
    return len(_components(G)) <= 1


# -- cycle enumeration -----------------------------------------------------


def iter_cycles(G: SignedDigraph) -> Iterator[SignedCycle]:
    """Yield every directed simple cycle of G exactly once.

    Cycles come out grouped by their minimal vertex in increasing order;
    within a group the order is lexicographic on the vertex sequence, with
    positive arcs tried before negative ones.  Parallel arcs of opposite
    signs give distinct cycles.
    """
    out = G._sorted_arc_lists()[1]
    for s in G.vertices:
        path: list[Arc] = []
        on_path = {s}
        iters = [iter(out[s])]
        while iters:
            advanced = False
            for arc in iters[-1]:
                t = arc.target
                if t == s:
                    yield SignedCycle._found((*path, arc))
                elif t > s and t not in on_path:
                    path.append(arc)
                    on_path.add(t)
                    iters.append(iter(out[t]))
                    advanced = True
                    break
            if not advanced:
                iters.pop()
                if path:
                    on_path.discard(path.pop().target)


def _check_cap(cap: int):
    """Refuse a negative cycle cap, before any cycle is enumerated."""
    if cap < 0:
        raise ValueError(f"cycle cap {cap} is below 0")


def _capped(cycles: Iterable[SignedCycle], cap: int) -> Iterator[SignedCycle]:
    """The cycles of ``cycles`` in order, refusing at the first past ``cap``."""
    for count, c in enumerate(cycles, start=1):
        if count > cap:
            raise CycleCapExceeded(f"more than {cap} cycles")
        yield c


def _cycles(G: SignedDigraph, cap: int) -> tuple[SignedCycle, ...]:
    """G's cycles, from ``iter_cycles`` on first use; cached on the graph.

    Refuses a cap below 0 with a ValueError and, on every call, a cap
    below G's cycle count with CycleCapExceeded.
    """
    _check_cap(cap)
    cycles = G._cycle_cache
    if cycles is None:
        cycles = G._cycle_cache = tuple(_capped(iter_cycles(G), cap))
    elif len(cycles) > cap:
        raise CycleCapExceeded(f"more than {cap} cycles")
    return cycles


def _most_cycles(n: int) -> int:
    """The most simple cycles a signed digraph on n vertices can have: those
    of the complete one, with a loop and both signs on every ordered pair,
    the sum over k of C(n, k) (k - 1)! 2^k.  Every signed digraph on n
    vertices is a subgraph of it, so each of its cycles is one of these."""
    return sum(math.comb(n, k) * math.factorial(k - 1) << k for k in range(1, n + 1))


def enumerate_cycles(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> list[SignedCycle]:
    """All simple cycles of G in deterministic order.

    Raises CycleCapExceeded when the graph has more than ``cap`` cycles,
    so truncation is never silent, and ValueError for a cap below 0.  The
    complete list is cached on the graph; its cycle index is not built.
    """
    return list(_cycles(G, cap))


def _cycle_index(G: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> "_CycleIndex":
    """G's cycle index over ``_cycles(G, cap)``, which refuses the cap;
    built on first use and cached on the graph beside the cycles."""
    cycles = _cycles(G, cap)
    index = G._index_cache
    if index is None:
        index = G._index_cache = _CycleIndex(G, cycles)
    return index


_CHUNK = 1 << 12


class _CycleIndex:
    """G's simple cycles and their incidence with G's arcs and vertices.

    Vertex position p is the p-th of ``G.vertices``, arc k the k-th of
    ``G.arcs`` and cycle j the j-th of ``cycles``; a set of any of them is
    an int bitmask over those numbers.  The cycles of a subgraph that lacks
    some arcs of G are the cycles of G through none of them, so they are
    ``cycles & ~OR(arc_cycles[k])``: a subgraph question costs a few
    big-int operations per vertex or arc, whatever the cycle count.

    Per arc k: ``heads[k]``, the position it enters, and ``arc_cycles[k]``,
    the cycles through it.  Per position p: ``in_arcs[p]`` (arcs),
    ``in_neighbors[p]`` and ``out_neighbors[p]`` (positions), and
    ``vertex_cycles[p]``.  Per cycle j: ``cycle_vertices[j]``; its arcs
    are those of ``cycles[j]``, numbered by ``arc_number``.  ``positives``
    and ``negatives`` split the cycles by sign; ``sources`` are the
    positions with no in-arc.  ``position`` and ``arc_number`` number
    vertices and arcs; ``vertex_mask`` turns vertices into a position mask
    and ``cycles_meeting`` a position mask into the cycles through it.
    ``position``, ``out_neighbors`` and ``in_neighbors`` are the graph's
    cached ``_masks`` layout itself, not copies, so they are only read.
    """

    __slots__ = (
        "cycles", "vertices", "arcs", "arc_number", "position", "heads",
        "in_arcs", "in_neighbors", "out_neighbors", "sources", "cycle_vertices",
        "positives", "negatives", "arc_cycles", "vertex_cycles",
    )

    def __init__(self, G: SignedDigraph, cycles: tuple[SignedCycle, ...]):
        self.cycles = cycles
        position, self.out_neighbors, self.in_neighbors, _ = _masks(G)
        self.position = position
        vertices = self.vertices = tuple(position)
        arcs = self.arcs = G.arcs
        n, m = len(vertices), len(arcs)
        arc_number = self.arc_number = dict(zip(arcs, range(m)))
        heads = self.heads = [position[a.target] for a in arcs]
        in_arcs = self.in_arcs = [0] * n
        for k, t in enumerate(heads):
            in_arcs[t] |= 1 << k
        self.sources = sum(1 << p for p in range(n) if not in_arcs[p])
        # Cycle bits are OR-ed into per-chunk ints that are shifted into
        # place once per chunk: the build stays linear in the total cycle
        # length, where OR-ing each bit into the whole mask would copy a
        # growing int per incidence.
        arc_cycles = [0] * m
        vertex_cycles = [0] * n
        cycle_vertices = self.cycle_vertices = []
        positives = 0
        for base in range(0, len(cycles), _CHUNK):
            arc_part = [0] * m
            vertex_part = [0] * n
            positive_part = 0
            for j, c in enumerate(cycles[base:base + _CHUNK]):
                bit = 1 << j
                on = 0
                for a in c.arcs:
                    k = arc_number[a]
                    p = heads[k]
                    arc_part[k] |= bit
                    vertex_part[p] |= bit
                    on |= 1 << p
                cycle_vertices.append(on)
                if c.sign == POSITIVE:
                    positive_part |= bit
            arc_cycles = [whole | part << base for whole, part in zip(arc_cycles, arc_part)]
            vertex_cycles = [whole | part << base for whole, part in zip(vertex_cycles, vertex_part)]
            positives |= positive_part << base
        self.arc_cycles, self.vertex_cycles = arc_cycles, vertex_cycles
        self.positives = positives
        self.negatives = ((1 << len(cycles)) - 1) & ~positives

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.position[v]
        return mask

    def cycles_meeting(self, vertex_mask: int) -> int:
        """The cycles through some position of ``vertex_mask``."""
        cycles = 0
        while vertex_mask:
            low = vertex_mask & -vertex_mask
            cycles |= self.vertex_cycles[low.bit_length() - 1]
            vertex_mask ^= low
        return cycles


# -- negative-cycle detection (polynomial) ---------------------------------


def _negative_walk(step: Sequence[int], comp: int, n: int) -> bool:
    """Whether the strong component on the position mask ``comp`` holds a
    negative cycle, given the ``step`` masks of a sign cover on n vertices.

    A negative closed walk splits into simple cycles, one of them
    negative, and the vertices of a strong component all reach each
    other, so the component has a negative cycle iff a cover walk inside
    it leads from its lowest position to that position's - copy.
    """
    low = comp & -comp
    return bool(_closure(low, step, comp | comp << n) & low << n)


def _negative_components(G: SignedDigraph):
    """G's positions and sign cover with the position mask of each strong
    component that holds a negative cycle, in topological order, by one
    ``_negative_walk`` per non-trivial component."""
    position, _, _, step = _masks(G)
    for comp, _, _, nontrivial in _components(G):
        if nontrivial and _negative_walk(step, comp, len(position)):
            yield position, step, comp


def has_negative_cycle(G: SignedDigraph) -> bool:
    """True iff some directed simple cycle of G is negative; polynomial."""
    return next(_negative_components(G), None) is not None


def extract_negative_cycle(walk: Sequence[Arc]) -> SignedCycle:
    """Split a negative closed walk into simple cycles; return a negative one."""
    arcs = list(walk)
    stack_vertices = [arcs[0].source]
    stack_arcs: list[Arc] = []
    position = {arcs[0].source: 0}
    for arc in arcs:
        stack_arcs.append(arc)
        t = arc.target
        if t in position:
            i = position[t]
            piece = stack_arcs[i:]
            if _sign_product(piece) == NEGATIVE:
                return SignedCycle(piece)
            del stack_arcs[i:]
            for v in stack_vertices[i + 1:]:
                del position[v]
            del stack_vertices[i + 1:]
        else:
            stack_vertices.append(t)
            position[t] = len(stack_vertices) - 1
    raise AssertionError("walk was not negative and closed")


def find_negative_cycle(G: SignedDigraph) -> SignedCycle | None:
    """A negative simple cycle of G, or None when all cycles are positive.

    In the first component with a negative cycle, a shortest cover walk
    from the lowest position to its - copy, found layer by layer and
    traced back through the layers, is a negative closed walk of G;
    ``extract_negative_cycle`` splits it.
    """
    for position, step, comp in _negative_components(G):
        vertices = list(position)
        n = len(vertices)
        low = comp & -comp
        layers = [low]
        seen = low
        while layers[-1] and not seen >> n & low:
            reached = 0
            for q in _set_bits(layers[-1]):
                reached |= step[q]
            layers.append(reached & (comp | comp << n) & ~seen)
            seen |= layers[-1]
        walk = []
        at = low.bit_length() - 1 + n
        for layer in reversed(layers[:-1]):
            q = next(q for q in _set_bits(layer) if step[q] >> at & 1)
            sign = POSITIVE if (q < n) == (at < n) else NEGATIVE
            walk.append(Arc(vertices[q % n], vertices[at % n], sign))
            at = q
        return extract_negative_cycle(walk[::-1])
    return None


# -- reachability -----------------------------------------------------------


def reachable(
    G: SignedDigraph,
    sources: Iterable[int],
    forbidden: Iterable[int],
    target: int,
) -> bool:
    """Directed path from some source to ``target`` avoiding ``forbidden``.

    Path endpoints are subject to the restriction too, so a source inside
    ``forbidden`` is unusable.  A trivial path counts when the target is
    itself a source.
    """
    blocked = G._check_subset(forbidden)
    G._check_vertex(target)
    if target in blocked:
        raise ValueError("target must not be forbidden")
    starts = G._check_subset(sources)
    position, out, _, _ = _masks(G)
    seed = sum(1 << position[v] for v in starts)
    allowed = ~sum(1 << position[v] for v in blocked)
    return bool(_closure(seed, out, allowed) >> position[target] & 1)
