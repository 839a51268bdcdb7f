"""Boolean networks: evaluation, interaction graphs, fixed points, dynamics.

A network is one local function per vertex 1..n.  Truth tables are indexed
with the FIRST declared input as the most significant bit: the row for an
assignment (x_{u_1}, ..., x_{u_k}) is sum_i x_{u_i} * 2^(k-i).  All state
tuples follow the same convention as the graphs module: position v-1 holds
the value of vertex v, and enumerations run in increasing binary order with
x_1 as the most significant bit.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import (
    NEGATIVE,
    POSITIVE,
    Arc,
    SignedDigraph,
    _check_limit,
    _set_bits,
    as_arc,
)

MAX_FIXED_POINT_SCAN = 24
MAX_ATTRACTOR_SCAN = 20
# Each scan's refusal, as ``_check_limit`` takes it after n.
_FIXED_POINT_SCAN = ("fixed-point scan", MAX_FIXED_POINT_SCAN)
_ATTRACTOR_SCAN = ("attractor scan", MAX_ATTRACTOR_SCAN)
# Also the most inputs any vertex may have: ``_signature_index(k)`` lists
# all 2^(2^k) tables, and k = 5 would list 2^32.
DEFAULT_MAX_INDEGREE = 4
# Largest family ``max_fixed_points`` scans: about 6 s at the 1.58M
# networks/s measured on a 2-core x86-64 VM.
MAX_FAMILY_SCAN = 10 ** 7


class UnrealizableGraphError(Exception):
    """No local function produces the requested signed in-arcs.

    Happens for instance when a vertex's only in-neighbor carries both a
    positive and a negative arc: a one-input function cannot realize both
    signs.
    """


class LocalFunction:
    """Truth table over an ordered input list, held as the int ``bits``
    whose bit j is row j."""

    __slots__ = ("inputs", "bits")

    def __init__(self, inputs: Sequence[int], table: Sequence[int]):
        self.inputs = tuple(int(u) for u in inputs)
        values = list(map(int, table))
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input vertex")
        if len(values) != 1 << len(self.inputs):
            raise ValueError(
                f"table length {len(values)} does not match {len(self.inputs)} inputs"
            )
        if not {0, 1}.issuperset(values):
            raise ValueError("table entries must be 0 or 1")
        # A 0/1 byte is '00' or '01' in hex: its second digit is the row.
        self.bits = int(bytes(reversed(values)).hex()[1::2], 2)

    @classmethod
    def _from_bits(cls, inputs: tuple[int, ...], bits: int) -> "LocalFunction":
        """A table the library built itself: distinct int inputs and bits
        below 2^(2^k), so they need no check."""
        lf = object.__new__(cls)
        lf.inputs = inputs
        lf.bits = bits
        return lf

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def row(self, x: Sequence[int]) -> int:
        """Table row index for the state x (first input most significant)."""
        idx = 0
        for u in self.inputs:
            idx = (idx << 1) | x[u - 1]
        return idx

    def __call__(self, x: Sequence[int]) -> int:
        return self.bits >> self.row(x) & 1

    def __eq__(self, other):
        if not isinstance(other, LocalFunction):
            return NotImplemented
        return self.inputs == other.inputs and self.bits == other.bits

    def __hash__(self):
        return hash((self.inputs, self.bits))

    def __repr__(self):
        return f"LocalFunction(inputs={self.inputs}, table={_table_text(self.bits, self.arity)})"


def _table_text(bits: int, k: int) -> str:
    """A k-input table's rows as '0'/'1' characters, row 0 first."""
    return format(bits, f"0{1 << k}b")[::-1]


def constant(value: int) -> LocalFunction:
    return LocalFunction((), (value,))


# -- per-input signs of a truth table ----------------------------------------
#
# Input i of a k-input table splits its rows into pairs (j, j + 2^(k-1-i))
# that differ only in that input.

_POS_ONLY, _NEG_ONLY = 1, 2


@lru_cache(maxsize=None)
def _input_rows(k: int) -> tuple[tuple[int, int], ...]:
    """Per input position i: the row step 2^(k-1-i) and the mask of the
    rows where input i is 0.  Row j is the k-input state with binary value
    j, so that mask is the complement of the state set X_(i+1)."""
    masks = _state_masks(k)
    return tuple((1 << (k - 1 - i), masks[0] ^ masks[i + 1]) for i in range(k))


def _table_signs(bits: int, k: int) -> tuple[int, ...]:
    """Per input: _POS_ONLY if some row pair rises, ORed with _NEG_ONLY if
    some pair falls; 0 for an ineffective input."""
    signs = []
    for step, low in _input_rows(k):
        lo = bits & low
        hi = bits >> step & low
        signs.append((_POS_ONLY if hi & ~lo else 0) | (_NEG_ONLY if lo & ~hi else 0))
    return tuple(signs)


class BooleanNetwork:
    """A map {0,1}^n -> {0,1}^n given by per-vertex local functions."""

    __slots__ = ("locals", "n")

    def __init__(self, locals_: Sequence[LocalFunction]):
        self.locals = tuple(locals_)
        self.n = len(self.locals)
        for lf in self.locals:
            for u in lf.inputs:
                if not 1 <= u <= self.n:
                    raise ValueError(f"input vertex {u} outside 1..{self.n}")

    def __eq__(self, other):
        if not isinstance(other, BooleanNetwork):
            return NotImplemented
        return self.locals == other.locals

    def __hash__(self):
        return hash(self.locals)

    def __repr__(self):
        return f"BooleanNetwork(n={self.n})"

    def local(self, v: int) -> LocalFunction:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return self.locals[v - 1]

    def interaction_graph(self) -> SignedDigraph:
        """Signed digraph of effective dependencies.

        An arc (u -> v, +) is present iff the derivative of v with respect
        to u is +1 somewhere; likewise for -, and both may coexist.
        Declared but ineffective inputs produce no arc.
        """
        arcs = []
        for v, lf in enumerate(self.locals, start=1):
            for u, signs in zip(lf.inputs, _table_signs(lf.bits, lf.arity)):
                if signs & _POS_ONLY:
                    arcs.append(Arc(u, v, POSITIVE))
                if signs & _NEG_ONLY:
                    arcs.append(Arc(u, v, NEGATIVE))
        return SignedDigraph(self.n, arcs)

    def fixed_points(self) -> list[tuple[int, ...]]:
        """All states x with f(x) = x, in increasing binary order.

        A fixed point is fixed by its values on a feedback vertex set F of
        the reads (Aracena, Bull. Math. Biol. 70, 2008): the other vertices
        read acyclically, so their values follow in order.  The scan runs
        on sets of F's 2^|F| assignments: each vertex of F gets the state
        mask of its place in F, every other vertex's value is folded from
        its table once, after its inputs, and the fixed assignments are
        the AND of F's agreement sets.  At k inputs per table that costs
        about n·2^k big-int operations on 2^|F|-bit sets, plus a decode
        linear in the fixed points.  F is the set of targets of back reads
        in one depth-first pass along the inputs (``_feedback_order``).
        Up to ``_FULL_SCAN_MAX_N`` vertices, and for a network with a
        table wider than ``_FOLD_MAX_INPUTS``, F is every vertex, which
        is the scan of all 2^n states.
        """
        _check_limit(self.n, *_FIXED_POINT_SCAN)
        n = self.n
        if n <= _FULL_SCAN_MAX_N or any(lf.arity > _FOLD_MAX_INPUTS for lf in self.locals):
            free, order = range(1, n + 1), enumerate(self.locals, start=1)
        else:
            free, order = _feedback_order(self.locals)
        base = _state_masks(len(free))
        masks = base  # with F every vertex, the assignments are the states
        if len(free) < n:
            # masks[v]: the assignments where x_v = 1, None until v is folded.
            masks = [base[0]] + [None] * n
            for v, m in zip(free, base[1:]):
                masks[v] = m
        fixed = base[0]
        for v, lf in order:
            value = _value_mask(lf.inputs, lf.bits, masks)
            if masks[v] is None:
                masks[v] = value
            else:
                fixed &= ~(masks[v] ^ value)
                if not fixed:
                    break
        return _full_states(fixed, free, masks, n)

    def is_canalized(self, arc) -> bool:
        """Whether the given interaction-graph arc is canalized.

        For a positive arc (u -> v): some c with x_u = c forcing f_v = c.
        For a negative arc: some c with x_u != c forcing f_v = c.
        """
        a = as_arc(arc)
        lf = self.local(a.target)
        if a.source not in lf.inputs:
            raise ValueError(f"{a!r} is not an arc of the interaction graph")
        i = lf.inputs.index(a.source)
        if not _table_signs(lf.bits, lf.arity)[i] & (_POS_ONLY if a.sign == POSITIVE else _NEG_ONLY):
            raise ValueError(f"{a!r} is not an arc of the interaction graph")
        # The rows where x_u would force f_v = 0, and those where it would
        # force f_v = 1: x_u = 0 and x_u = 1 for a positive arc, swapped for
        # a negative one.
        step, low = _input_rows(lf.arity)[i]
        to_0, to_1 = (low, low << step) if a.sign == POSITIVE else (low << step, low)
        return not lf.bits & to_0 or lf.bits & to_1 == to_1

    def pin(self, values: Mapping[int, int]) -> "BooleanNetwork":
        """Freeze the given vertices to constants, keep the rest."""
        locals_ = list(self.locals)
        for v, bit in values.items():
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} outside 1..{self.n}")
            locals_[v - 1] = constant(int(bit))
        return BooleanNetwork(locals_)

    def attractors(self) -> list[frozenset[tuple[int, ...]]]:
        """Terminal strong components of the asynchronous state graph.

        Singletons are exactly the fixed points; larger components are the
        cyclic attractors.  Ordered by their smallest state.

        Constant vertices are percolated first (Naldi, Remy, Thieffry and
        Chaouiya, Theor. Comput. Sci. 412, 2011), on the truth tables
        (``_percolate``): they leave a trap subspace S, the subcube of the
        states that hold their values.  No move leaves S, and every state
        reaches S by at most one move of each constant vertex, taken in the
        order percolation fixed them, so every attractor lies in S.  The
        search runs on 2^m-bit sets of the assignments of S's m free
        vertices (Xie and Beerel, IEEE TCAD 19, 2000): each constant is the
        empty or the whole set, in the table folds and in the one decode,
        ``_full_states``.  The assignments of a subcube are in the order of
        its states, so the search is the same on either, and the fixed
        points zip with their decoded states.

        The fixed points are the states of S where no vertex moves, and
        each is an attractor.  A state that reaches one lies in no
        cyclic attractor, so one backward closure from all of them decides
        those states at once.  Then, while states are undecided, take a
        pivot s, its forward closure F, and the set B of undecided states
        that reach s through undecided states.  F is an attractor iff F
        lies inside B.  Either way no state of B lies in an attractor not
        yet found, so B is decided.  If F is not inside B, then F minus B
        is closed and holds an attractor, so any of its states is a valid
        next pivot: the lowest of those that the last growing sweep of F
        added, which lie furthest from s, else the lowest of F minus B.
        After an attractor the pivot is the lowest undecided state.  A
        predecessor of a decided state is decided too, so the undecided
        states are closed under moves and F lies among them.
        """
        _check_limit(self.n, *_ATTRACTOR_SCAN)
        n = self.n
        constants, free = _percolate(self.locals)
        m = len(free)
        base = _state_masks(m)
        space = base[0]
        # masks[v]: the assignments where x_v = 1.
        masks = [space] + [space if c else 0 for c in constants]
        for v, mask in zip(free, base[1:]):
            masks[v] = mask
        # Per moving vertex v, the i-th free one: the assignments where x_v
        # falls from 1 to 0, those where it rises, and the distance 2^(m-i)
        # between the two ends of a move.
        moves = []
        unstable = 0
        for i, v in enumerate(free, start=1):
            lf = self.locals[v - 1]
            moving = masks[v] ^ _value_mask(lf.inputs, lf.bits, masks, free)
            if moving:
                moves.append((moving & masks[v], moving & ~masks[v], 1 << (m - i)))
                unstable |= moving

        # A closure sweep applies the vertices' moves in turn to the growing
        # set, so one sweep can follow a path through many vertices.  The
        # forward closure also returns what its last growing sweep added:
        # the closure minus the set that sweep started from.
        def forward(states: int) -> tuple[int, int]:
            start = 0
            while True:
                before = states
                for falls, rises, shift in moves:
                    states |= (states & falls) >> shift | (states & rises) << shift
                if states == before:
                    return states, states & ~start
                start = before

        def backward(states: int, allowed: int) -> int:
            while True:
                before = states
                for falls, rises, shift in moves:
                    states |= ((states << shift) & falls | (states >> shift) & rises) & allowed
                if states == before:
                    return states

        fixed = space & ~unstable
        left = space & ~backward(fixed, space) if fixed else space
        cyclic = []
        region = 0
        while left:
            pool = region or left
            pivot = pool & -pool
            reach, added = forward(pivot)
            basin = backward(pivot, left)
            region = reach & ~basin
            if region:
                region = added & region or region
            else:
                cyclic.append(reach)
            left &= ~basin
        # Each attractor keyed by the bit index of its lowest assignment.
        found = [(a, (x,)) for a, x in zip(_set_bits(fixed), _full_states(fixed, free, masks, n))]
        for states in cyclic:
            found.append(((states & -states).bit_length() - 1, _full_states(states, free, masks, n)))
        found.sort(key=operator.itemgetter(0))
        return [frozenset(states) for _, states in found]


def _percolate(locals_: Sequence[LocalFunction]) -> tuple[list[int | None], tuple[int, ...]]:
    """Per vertex 1..n, the constant that percolation fixes it to, or None;
    and the vertices left free, in increasing order.

    Each vertex keeps the rows of its table that agree with the constants
    fixed so far, as a mask of rows.  It is fixed to c once its table is c
    on all of them, and the vertices that read it then drop their rows that
    disagree.  A worklist, started from the constant tables, revisits only
    those readers; the limit of percolation does not depend on the order
    in which vertices are fixed.
    """
    n = len(locals_)
    rows = [(1 << (1 << len(lf.inputs))) - 1 for lf in locals_]
    constants: list[int | None] = [None] * n
    pending = [v for v, lf, agree in zip(range(1, n + 1), locals_, rows) if lf.bits in (0, agree)]
    while pending:
        v = pending.pop()
        if constants[v - 1] is not None:
            continue
        agree = rows[v - 1]
        ones = locals_[v - 1].bits & agree
        if ones and ones != agree:
            continue
        c = constants[v - 1] = int(bool(ones))
        for w, lf in enumerate(locals_, start=1):
            if v in lf.inputs and constants[w - 1] is None:
                step, low = _input_rows(len(lf.inputs))[lf.inputs.index(v)]
                rows[w - 1] &= low << step if c else low
                pending.append(w)
    return constants, tuple(v for v, c in enumerate(constants, start=1) if c is None)


# -- state enumeration -------------------------------------------------------


def all_states(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product((0, 1), repeat=n)


@lru_cache(maxsize=None)
def _half_tuples(width: int) -> tuple[tuple[int, ...], ...]:
    """Every state of ``width`` bits as a tuple, in increasing binary order."""
    return tuple(all_states(width))


def _states_in(states: int, n: int) -> list[tuple[int, ...]]:
    """The members of a set of states as tuples, in increasing binary order."""
    return _state_tuples(_set_bits(states), n)


def _state_tuples(codes, n: int) -> list[tuple[int, ...]]:
    """The states with these binary values, as tuples, in the given order.

    Each tuple joins the tuples of its high and low halves, read from the
    tables of the two half widths, which n and n + 1 share.
    """
    low = n // 2
    high_halves, low_halves = _half_tuples(n - low), _half_tuples(low)
    low_bits = (1 << low) - 1
    return [high_halves[s >> low] + low_halves[s & low_bits] for s in codes]


# -- fixed points over a feedback vertex set ---------------------------------

# Up to here ``fixed_points`` scans all states.  A fold costs about one
# interpreter step per table row while its sets stay below about 2^12 bits,
# so a smaller F saves less than the depth-first pass and the decode cost:
# README's per-size table has the crossover between n = 12 and 13.
_FULL_SCAN_MAX_N = 12


def _feedback_order(
    locals_: Sequence[LocalFunction],
) -> tuple[tuple[int, ...], list[tuple[int, LocalFunction]]]:
    """A feedback vertex set F of the reads, sorted, and an order of all
    vertices, each with its local function, in which each vertex comes
    after its inputs outside F.

    One depth-first pass along each vertex's inputs, from vertices 1..n in
    order.  F is the targets of back reads, reads of a vertex still on the
    stack (self-reads included); every cycle has one.  The order is the
    post-order.
    """
    n = len(locals_)
    mark = [0] * (n + 1)  # 0 unseen, 1 on the stack, 2 done
    free = set()
    order = []

    def visit(v):
        mark[v] = 1
        for u in locals_[v - 1].inputs:
            if mark[u] == 1:
                free.add(u)
            elif not mark[u]:
                visit(u)
        mark[v] = 2
        order.append((v, locals_[v - 1]))

    for v in range(1, n + 1):
        if not mark[v]:
            visit(v)
    return tuple(sorted(free)), order


def _spread(vertices: Sequence[int], n: int, always: int = 0) -> list[int]:
    """Per value j of len(vertices) bits, the first vertex most
    significant: the binary value of the n-vertex state that holds j's bits
    on those vertices and those of ``always`` elsewhere."""
    codes = [always]
    for v in reversed(vertices):
        bit = 1 << (n - v)
        codes += [c | bit for c in codes]
    return codes


def _full_states(assignments: int, free: Sequence[int], masks, n: int) -> list[tuple[int, ...]]:
    """The states of the set ``assignments`` of the vertices ``free``, in
    increasing binary order; ``masks[v]`` is the set where x_v = 1.

    With every vertex free these are ``_states_in``'s states.  Otherwise
    the free vertices' bits are read through two half tables, as
    ``_states_in`` reads a state.  Another vertex whose set holds all the
    assignments or none, as a constant's whole or empty set does, costs
    nothing per point; the others are read eight at a time, through one
    byte per assignment that packs their values and a table from that
    byte to their part of the state.  The assignments of a subcube are in
    the order of its states.
    """
    width = len(free)
    if width == n:
        return _states_in(assignments, n)
    if not assignments:
        return []
    always = 0
    varying = []
    for v in set(range(1, n + 1)).difference(free):
        hit = masks[v] & assignments
        if hit == assignments:
            always |= 1 << (n - v)
        elif hit:
            varying.append((v, hit))
    low = width // 2
    high_codes, low_codes = _spread(free[: width - low], n, always), _spread(free[width - low :], n)
    low_bits = (1 << low) - 1
    points = list(_set_bits(assignments))
    codes = [high_codes[a >> low] | low_codes[a & low_bits] for a in points]
    for i in range(0, len(varying), 8):
        batch = varying[i : i + 8]
        # Row a of a set's table text is the character '0' or '1', whose
        # low bit is the value; byte a of ``packed`` gets it at bit j.
        ones = int.from_bytes(b"\1" * (1 << width), "little")
        packed = 0
        for j, (_, hit) in enumerate(batch):
            packed |= (int.from_bytes(_table_text(hit, width).encode(), "little") & ones) << j
        row = packed.to_bytes(1 << width, "little")
        parts = _spread([v for v, _ in reversed(batch)], n)
        codes = [c | parts[row[a]] for c, a in zip(codes, points)]
    codes.sort()
    return _state_tuples(codes, n)


# -- word-parallel state scans -----------------------------------------------
#
# A set of states is a 2^n-bit int whose bit s stands for the state with
# binary value s (x_1 most significant).  Every scan over all 2^n states is
# a few big-int operations per vertex on such sets.

# Wider tables are looked up per state: a fold costs 2^k ops on 2^n-bit sets.
_FOLD_MAX_INPUTS = 10
# Vertex masks are kept for n up to here (about 140 KB at 16); larger
# ones are rebuilt per call, which costs little next to the scan itself.
_CACHED_MASKS_N = 16


def _build_state_masks(n: int) -> tuple[int, ...]:
    size = 1 << n
    masks = [(1 << size) - 1]
    for u in range(1, n + 1):
        run = 1 << (n - u)  # x_u is constant on runs of this many states
        m = ((1 << run) - 1) << run
        width = run << 1
        while width < size:
            m |= m << width
            width <<= 1
        masks.append(m)
    return tuple(masks)


_cached_state_masks = lru_cache(maxsize=None)(_build_state_masks)


def _state_masks(n: int) -> tuple[int, ...]:
    """(all states, X_1, ..., X_n): X_u is the set of states with x_u = 1."""
    if n <= _CACHED_MASKS_N:
        return _cached_state_masks(n)
    return _build_state_masks(n)


def _value_mask(inputs: Sequence[int], bits: int, masks, free: Sequence[int] | None = None) -> int:
    """The set where the table's function is 1, given ``masks``: the
    whole set, then per vertex u the subset where x_u = 1.

    Folds the table depth-first, like a binary counter: row j closes one
    block per trailing 1 of j, each merging two blocks that differ only in
    x_u into one multiplexer on X_u, so at most k + 1 sets are alive.  The
    fold works on any sets, such as assignments of a feedback vertex set.
    A wider table is looked up once per assignment of ``free`` (by default
    every vertex, so ``masks`` are ``_state_masks(n)``), the first vertex
    most significant, at the sum of its halves' rows; its other inputs
    must be constants, whose masks are empty or whole, and add their rows
    as one offset.
    """
    k = len(inputs)
    rows = _table_text(bits, k)
    if k > _FOLD_MAX_INPUTS:
        free = range(1, len(masks)) if free is None else free
        weight = {u: 1 << (k - 1 - i) for i, u in enumerate(inputs)}
        offset = sum(w for u, w in weight.items() if u not in free and masks[u])
        cut = len(free) - len(free) // 2
        high, low = [offset], [0]
        for i, u in enumerate(free):
            half = high if i < cut else low
            half[:] = [r + b for r in half for b in (0, weight.get(u, 0))]
        return int("".join([rows[h + l] for h in high for l in low])[::-1], 2)
    full = masks[0]
    blocks = []
    for j, b in enumerate(rows):
        hi = full if b == "1" else 0
        height = 0
        while j >> height & 1:
            lo = blocks.pop()
            hi = lo if lo == hi else lo ^ ((lo ^ hi) & masks[inputs[~height]])
            height += 1
        blocks.append(hi)
    return blocks[0]


# -- networks consistent with a prescribed interaction graph -----------------


def _wider_sign_codes(codes: Sequence[int], j: int) -> Iterator[int]:
    """Every (j+1)-input table's sign code, in increasing table order, from
    ``codes``, the j-input tables' codes in the same order.

    A code packs ``_table_signs`` two bits per input, the first input
    highest.  Table ``hi << 2^j | lo`` has the first input off on the rows
    of ``lo`` and on on those of ``hi``: that input rises where ``hi & ~lo``
    and falls where ``lo & ~hi``, and each other input has the OR of its
    signs in the two halves.
    """
    shift = 2 * j
    for hi, hi_code in enumerate(codes):
        for lo, lo_code in enumerate(codes):
            first = (_POS_ONLY if hi & ~lo else 0) | (_NEG_ONLY if lo & ~hi else 0)
            yield first << shift | hi_code | lo_code


@lru_cache(maxsize=None)
def _signature_index(k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """All k-input tables, as ints, grouped by their per-input signs
    (``_table_signs``), each group and the keys in increasing table order.

    Built from the (k-1)-input tables' sign codes, so no table is scanned
    row by row.
    """
    codes: Sequence[int] = [0, 0]  # both 0-input tables have no input
    for j in range(k - 1):
        codes = list(_wider_sign_codes(codes, j))
    groups: dict[int, list[int]] = {}
    for bits, code in enumerate(_wider_sign_codes(codes, k - 1) if k else codes):
        groups.setdefault(code, []).append(bits)
    return {
        tuple(code >> 2 * (k - 1 - i) & 3 for i in range(k)): tuple(tables)
        for code, tables in groups.items()
    }


def _input_signs(in_arcs: Iterable[Arc]) -> dict[int, int]:
    """Per source of one vertex's ``in_arcs``, in order of appearance: the
    signs it brings, _POS_ONLY, _NEG_ONLY or both ORed.  With the arcs
    sorted by source, the values in order are a ``_signature_index`` key."""
    signs: dict[int, int] = {}
    for a in in_arcs:
        signs[a.source] = signs.get(a.source, 0) | (_POS_ONLY if a.sign == POSITIVE else _NEG_ONLY)
    return signs


def _consistent_tables(
    G: SignedDigraph, v: int, max_indegree: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """v's in-neighbors and the tables (as ints) realizing G's signed in-arcs of v.

    The cap is ``max_indegree``, and never more than DEFAULT_MAX_INDEGREE.
    """
    signs = _input_signs(G.in_arcs(v))  # sorted by source
    k = len(signs)
    cap = min(max_indegree, DEFAULT_MAX_INDEGREE)
    if k > cap:
        raise ValueError(f"vertex {v} has {k} inputs, cap is {cap}")
    return tuple(signs), _signature_index(k).get(tuple(signs.values()), ())


def _family(G: SignedDigraph, max_indegree: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per vertex 1..n, its inputs and consistent tables (``_consistent_tables``)."""
    if G.vertex_set != frozenset(range(1, G.n + 1)):
        raise ValueError("graph vertices must be exactly 1..n for network operations")
    return [_consistent_tables(G, v, max_indegree) for v in G.vertices]


def enumerate_consistent(
    G: SignedDigraph, max_indegree: int = DEFAULT_MAX_INDEGREE
) -> Iterator[BooleanNetwork]:
    """All networks whose interaction graph is exactly G, arc- and sign-exact.

    Per-vertex candidates are filtered truth tables; the stream is their
    Cartesian product in deterministic order.  Empty when G is unrealizable.
    """
    candidates = [
        [LocalFunction._from_bits(inputs, t) for t in tables]
        for inputs, tables in _family(G, max_indegree)
    ]
    if all(candidates):
        yield from map(BooleanNetwork, itertools.product(*candidates))


def count_consistent(G: SignedDigraph, max_indegree: int = DEFAULT_MAX_INDEGREE) -> int:
    return math.prod(len(tables) for _, tables in _family(G, max_indegree))


def sample_consistent(
    G: SignedDigraph,
    seed=None,
    max_indegree: int = DEFAULT_MAX_INDEGREE,
    rng: random.Random | None = None,
) -> BooleanNetwork:
    """Uniform independent per-vertex choice among consistent tables."""
    return _sample_family(_family(G, max_indegree), random.Random(seed) if rng is None else rng)


def _sample_family(family, rng: random.Random) -> BooleanNetwork:
    """``sample_consistent`` on the list that ``_family`` returned."""
    chosen = []
    for v, (inputs, tables) in enumerate(family, start=1):
        if not tables:
            raise UnrealizableGraphError(
                f"no local function realizes the signed in-arcs of vertex {v}"
            )
        chosen.append(LocalFunction._from_bits(inputs, tables[rng.randrange(len(tables))]))
    return BooleanNetwork(chosen)


def max_fixed_points(G: SignedDigraph, max_indegree: int = DEFAULT_MAX_INDEGREE) -> int:
    """Largest fixed-point count over all networks consistent with G.

    Each candidate table's agreement set (the states where f_v(x) = x_v)
    is built once; a network's fixed points are the AND of its tables'
    sets, one per vertex.  A family of more than MAX_FAMILY_SCAN networks
    raises ValueError before any set is built.
    """
    family = _family(G, max_indegree)
    if not all(tables for _, tables in family):
        raise UnrealizableGraphError("no Boolean network has this interaction graph")
    _check_limit(G.n, *_FIXED_POINT_SCAN)
    size = math.prod(len(tables) for _, tables in family)
    if size > MAX_FAMILY_SCAN:
        raise ValueError(f"{size} networks exceed the family scan limit {MAX_FAMILY_SCAN}")
    masks = _state_masks(G.n)
    full = masks[0]
    agreements = [
        [full ^ masks[v] ^ _value_mask(inputs, bits, masks) for bits in tables]
        for v, (inputs, tables) in enumerate(family, start=1)
    ]
    return max(
        reduce(operator.and_, combo, full).bit_count()
        for combo in itertools.product(*agreements)
    )
