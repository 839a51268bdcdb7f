"""Shared test helpers: tiny builders, brute-force oracles and call counters.

The oracles here deliberately avoid the library's algorithms: cycles are
found by trying every vertex permutation, colorings by trying every state,
the Delsarte LP optimum by trying every vertex of its polytope, fixed
points, kernels and attractors by visiting states one at a time, and
special arcs, tau+, tau~+, g~+ and the arc and vertex rules by building
each subgraph and searching its cycles anew, and strong components by
mutual reachability.  tau+ and tau~+ also have scan oracles that try every
vertex subset by size and ask the library's cycle index about each.
The hitting-set search has the two searches it replaced: the yes/no
search that tau+ deepened and the set listing of the tau~+ scan.
Attractors also have a set-search oracle, the lowest-pivot loop that the
library's search replaced, on the library's state masks; percolation the
set-level passes over all 2^n states that percolating on the truth
tables replaced; fixed points a scan oracle, the AND over all 2^n
states that the library's scan over a feedback vertex set replaced; and
the family maximum the product scan over every consistent network that
the library's pruned search replaced.  Every oracle that folds a truth
table into a set folds it through ``row_fold``, the row-by-row fold that
the library's byte-at-a-time fold replaced, so no oracle shares the fold
it checks.
The graph's cached mask layout has the two builders it replaced, one for
the neighbour masks and one for the sign cover.
The odd-cycle condition has the negative cycle search on the
all-negative encoding that its mask test replaced,
and negative cycles and two-colorings have the breadth-first search
trees that the sign-cover closure replaced.
The rule theorems' checks have the premise-first check that reading the
conclusion first replaced; the thm1, thm6 and thm7 checks the
verdict-and-witness helpers that they replaced, which return a verdict
string with the antipodal pair or, per pair of fixed points, the
disagreement cycle; and the random signed digraph has the arc-list draw
loop that its per-target draw replaced.
Network evaluation, a table's rows as a tuple, the order <=_v behind the
monotonicity lemmas, digraph reversal, the all-negative encoding and the
digraph enumeration serve only the tests, so they live here and not in the
library.
"""

import itertools
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from typing import Iterator

import pytest

from signedbn.boolnet import (
    BooleanNetwork,
    _family,
    _state_masks,
    _states_in,
    _table_text,
)
from signedbn.falsify import FALSIFY_CYCLE_CAP
from signedbn.graphs import (
    NEGATIVE,
    POSITIVE,
    Arc,
    Digraph,
    SignedCycle,
    SignedDigraph,
    _cycle_index,
    _set_bits,
    enumerate_cycles,
    is_strong,
    scc,
)
from signedbn.structure import _has_special_arc, find_special_arc


@pytest.fixture
def interaction_graph_calls(monkeypatch):
    """The networks whose interaction graph is built while the test runs."""
    calls = []
    original = BooleanNetwork.interaction_graph

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(BooleanNetwork, "interaction_graph", counting)
    return calls


@pytest.fixture
def signed_digraphs_built(monkeypatch):
    """The SignedDigraphs constructed while the test runs, from drawn
    in-arcs or by the sort-and-fill that the constructor calls after its
    checks and ``symmetrize`` calls alone."""
    built = []
    fill_sorted = SignedDigraph._fill_sorted
    from_in_arcs = SignedDigraph._from_in_arcs

    def counting(self, *args):
        fill_sorted(self, *args)
        built.append(self)

    def counting_from_in_arcs(in_arcs):
        built.append(from_in_arcs(in_arcs))
        return built[-1]

    monkeypatch.setattr(SignedDigraph, "_fill_sorted", counting)
    monkeypatch.setattr(SignedDigraph, "_from_in_arcs", counting_from_in_arcs)
    return built


def g(n, *arcs):
    """Shorthand graph builder: g(3, (1, 2, '+'), (2, 1, '-'))."""
    return SignedDigraph(n, arcs)


def brute_cycles(G):
    """Every simple cycle as a canonical arc tuple, by exhaustive search."""
    by_pair = {}
    for a in G.arc_set:
        by_pair.setdefault((a.source, a.target), []).append(a)
    found = set()
    verts = G.vertices
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                order = (first,) + rest
                pairs = [
                    (order[i], order[(i + 1) % size]) for i in range(size)
                ]
                if not all(p in by_pair for p in pairs):
                    continue
                for choice in itertools.product(*(by_pair[p] for p in pairs)):
                    found.add(tuple(choice))
    return found


def cycle_key(cycle):
    return tuple(cycle.arcs)


def all_simple_signed_digraphs(n, loops=True):
    """Every simple signed digraph on 1..n (no parallel opposite arcs)."""
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if loops or u != v
    ]
    for combo in itertools.product((None, "+", "-"), repeat=len(pairs)):
        arcs = [
            (u, v, s) for (u, v), s in zip(pairs, combo) if s is not None
        ]
        yield SignedDigraph(n, arcs)


def all_signed_digraphs(n):
    """Every signed digraph on 1..n, parallel opposite-sign arcs included."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    options = ((), ("+",), ("-",), ("+", "-"))
    for combo in itertools.product(options, repeat=len(pairs)):
        arcs = [
            (u, v, s)
            for (u, v), signs in zip(pairs, combo)
            for s in signs
        ]
        yield SignedDigraph(n, arcs)


def iter_digraphs(n):
    """Every digraph on 1..n, loops allowed."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for mask in range(1 << len(pairs)):
        arcs = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
        yield Digraph(n, arcs)


def reverse(D):
    """D with every arc turned around."""
    return Digraph(D.n, ((v, u) for u, v in D.arc_set))


def as_all_negative(D):
    """Signed copy of D with every arc negative; odd cycles become negative."""
    return SignedDigraph(D.n, (Arc(u, v, NEGATIVE) for u, v in D.arc_set))


def evaluate(f, x):
    """f(x), one ``LocalFunction`` call per vertex."""
    if len(x) != f.n:
        raise ValueError(f"state length {len(x)} != {f.n}")
    return tuple(lf(x) for lf in f.locals)


def table_rows(lf):
    """A ``LocalFunction``'s rows as a 0/1 tuple, row 0 first."""
    return tuple(map(int, _table_text(lf.bits, lf.arity)))


def leq_v(G, v, x, y):
    """x <= y on positive in-neighbors of v and >= on negative ones."""
    if len(x) != len(y):
        raise ValueError("states have different lengths")
    G._check_vertex(v)
    G._check_state(x)
    for u in G.in_neighbors(v, POSITIVE):
        if x[u - 1] > y[u - 1]:
            return False
    for u in G.in_neighbors(v, NEGATIVE):
        if x[u - 1] < y[u - 1]:
            return False
    return True


def _krawtchouk(N, k, i):
    return sum((-1) ** j * comb(i, j) * comb(N - i, k - j) for j in range(k + 1))


@lru_cache(maxsize=None)
def _johnson_cap(N, D, w):
    """Johnson's recursive bound on a constant-weight code, D even."""
    if w < 0 or w > N:
        return 0
    if min(w, N - w) < D // 2:
        return 1
    return min(
        N * _johnson_cap(N - 1, D, w - 1) // w,
        N * _johnson_cap(N - 1, D, w) // (N - w),
    )


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    m = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def vertex_enumeration_delsarte(n, d):
    """Delsarte's LP bound on A(n, d) by enumerating every vertex.

    The same LP as ``codes.delsarte_upper`` (parity-extended distances,
    Krawtchouk rows, Johnson caps on each coefficient, the 2^N total),
    solved by trying every m-subset of constraints as a tight set.
    Exponential in the length: on a 2-core x86-64 VM it takes about 1.4 s
    at (10, 3) and 12 s at (10, 1).
    """
    if d > n:
        return 1
    N, D = (n + 1, d + 1) if d % 2 else (n, d)
    distances = list(range(D, N + 1, 2))
    m = len(distances)
    constraints = []
    for k in range(1, N + 1):
        row = [Fraction(-_krawtchouk(N, k, i)) for i in distances]
        constraints.append((row, Fraction(comb(N, k))))
    for j, i in enumerate(distances):
        for sign, bound in ((-1, 0), (1, _johnson_cap(N, D, i))):
            row = [Fraction(0)] * m
            row[j] = Fraction(sign)
            constraints.append((row, Fraction(bound)))
    constraints.append(([Fraction(1)] * m, Fraction(1 << N)))
    best = Fraction(0)
    for subset in itertools.combinations(constraints, m):
        point = _solve_square([row for row, _ in subset], [b for _, b in subset])
        if point is not None and all(
            sum(a * x for a, x in zip(row, point)) <= b for row, b in constraints
        ):
            best = max(best, sum(point))
    return int(1 + best)


def brute_fixed_points(f):
    """Every fixed point of f, by evaluating each state vertex by vertex."""
    out = []
    for x in itertools.product((0, 1), repeat=f.n):
        if all(lf.bits >> _row(lf, x) & 1 == x[v] for v, lf in enumerate(f.locals)):
            out.append(x)
    return out


def row_fold(inputs, bits, masks):
    """The set where a table's function is 1, given ``masks``: the whole
    set, then per vertex u the subset where x_u = 1.  This is
    ``boolnet._value_mask`` as it folded before it read a byte of rows at
    a time: one step per row, depth-first like a binary counter, row j
    closing one multiplexer on X_u per trailing 1 of j.  It folds a table
    of any width."""
    rows = _table_text(bits, len(inputs))
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


def scan_fixed_points(f):
    """``BooleanNetwork.fixed_points`` as it scanned before it narrowed to a
    feedback vertex set: one agreement set per vertex over all 2^n states,
    ANDed, then decoded in increasing binary order."""
    masks = _state_masks(f.n)
    fixed = masks[0]
    for v, lf in enumerate(f.locals, start=1):
        fixed &= ~(masks[v] ^ row_fold(lf.inputs, lf.bits, masks))
    return _states_in(fixed, f.n)


def scan_max_fixed_points(G, max_indegree=4):
    """The largest fixed-point count over every consistent network: per
    network, the AND of its tables' agreement sets (the states where
    f_v(x) = x_v), over the whole product of the per-vertex tables."""
    masks = _state_masks(G.n)
    full = masks[0]
    agreements = [
        [full ^ masks[v] ^ row_fold(inputs, bits, masks) for bits in tables]
        for v, (inputs, tables) in enumerate(_family(G, max_indegree), start=1)
    ]
    return max(
        reduce(operator.and_, combo, full).bit_count()
        for combo in itertools.product(*agreements)
    )


def _row(lf, x):
    idx = 0
    for u in lf.inputs:
        idx = (idx << 1) | x[u - 1]
    return idx


def signed_richardson_condition(D):
    """``kernels.richardson_condition`` as it decided before it read D's
    masks: D with every arc negative has no negative cycle, by the
    breadth-first search trees of ``tree_has_negative_cycle``."""
    return not tree_has_negative_cycle(as_all_negative(D))


# -- mask layout ------------------------------------------------------------------


def neighbor_masks(G):
    """G's vertex positions (the p-th of ``G.vertices`` is p) and, per
    position, the masks of its out- and in-neighbour positions, as the
    library built them before one cached layout held them."""
    position = {v: p for p, v in enumerate(G.vertices)}
    out = [0] * len(position)
    into = [0] * len(position)
    for v, s in position.items():
        for a in G.out_arcs(v):
            t = position[a.target]
            out[s] |= 1 << t
            into[t] |= 1 << s
    return position, out, into


def sign_cover(G):
    """G's vertex positions and the step masks of its sign cover, as the
    library built them before one cached layout held them: position p is
    vertex p reached with sign +, p + n the same vertex with sign -."""
    position = {v: p for p, v in enumerate(G.vertices)}
    n = len(position)
    plus, minus = [], []
    for v in position:
        keep = switch = 0
        for _, t, sign in G.out_arcs(v):
            if sign == POSITIVE:
                keep |= 1 << position[t]
            else:
                switch |= 1 << position[t]
        plus.append(keep | switch << n)
        minus.append(switch | keep << n)
    return position, plus + minus


# -- breadth-first search trees -------------------------------------------------
#
# Negative-cycle detection and two-colorings as the library decided them
# before it walked G's sign cover: a search tree labels each reached vertex
# with the sign of its tree path, and an arc that disagrees with the labels
# closes a negative walk.


def _search_tree(G, roots, inside):
    """Breadth-first search trees along G's out-arcs, inside ``inside``.

    A search starts from each root (a vertex of ``inside``) not reached
    yet and follows out-arcs in ``out_arcs`` order to unreached vertices
    of ``inside``.  Returns the parity of each reached vertex: the sign
    product of its tree path, POSITIVE at each root.
    """
    parity = {}
    for root in roots:
        if root in parity:
            continue
        parity[root] = POSITIVE
        queue = [root]
        for v in queue:  # the queue grows while it is read
            sign = parity[v]
            for a in G.out_arcs(v):
                t = a.target
                if t in inside and t not in parity:
                    parity[t] = sign * a.sign
                    queue.append(t)
    return parity


def _component_bad_arc(G, comp, parity):
    """An arc inside ``comp`` whose sign disagrees with the parity labels."""
    for v in sorted(comp):
        for a in G.out_arcs(v):
            if a.target in comp and parity[a.target] != parity[v] * a.sign:
                return a
    return None


def tree_has_negative_cycle(G):
    """Whether G has a negative cycle: some strong component has an arc
    that disagrees with the parities of a search tree from its lowest
    vertex."""
    return any(
        _component_bad_arc(G, comp, _search_tree(G, [min(comp)], comp)) is not None
        for comp in scc(G).components
    )


def tree_two_coloring(G):
    """``structure.two_coloring`` by search trees on the symmetrized graph,
    one from the lowest vertex of each connected component not yet
    reached; None when an arc disagrees with the parities."""
    H = G.symmetrize()
    parity = _search_tree(H, H.vertices, H.vertex_set)
    if _component_bad_arc(H, H.vertex_set, parity) is not None:
        return None
    colors = [0] * (max(H.vertex_set) if H.vertex_set else 0)
    for v, sign in parity.items():
        if sign == NEGATIVE:
            colors[v - 1] = 1
    return tuple(colors)


def brute_kernels(D):
    """Every kernel of D, by testing each subset in increasing bitmask order
    (vertex v is bit v-1)."""
    found = []
    for mask in range(1 << D.n):
        K = frozenset(v for v in range(1, D.n + 1) if (mask >> (v - 1)) & 1)
        independent = not any(u in K and v in K for u, v in D.arc_set)
        absorbing = all(
            any(u == v and w in K for u, w in D.arc_set)
            for v in range(1, D.n + 1)
            if v not in K
        )
        if independent and absorbing:
            found.append(K)
    return found


def brute_attractors(f):
    """Terminal strong components of the asynchronous state graph.

    A state lies in an attractor iff it can be reached back from every
    state it reaches; the attractor is then its reachable set.  Ordered by
    the smallest state, as the library orders them.
    """

    def successors(x):
        out = []
        for v, lf in enumerate(f.locals):
            value = lf.bits >> _row(lf, x) & 1
            if value != x[v]:
                out.append(x[:v] + (value,) + x[v + 1:])
        return out

    # Each state's successors are listed once; the searches below revisit
    # them many times.
    succ = {x: successors(x) for x in itertools.product((0, 1), repeat=f.n)}
    reach = {}
    for x in succ:
        seen = {x}
        frontier = [x]
        while frontier:
            for y in succ[frontier.pop()]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        reach[x] = frozenset(seen)
    attractors = {
        states for x, states in reach.items() if all(x in reach[y] for y in states)
    }
    return sorted(attractors, key=min)


def lowest_pivot_attractors(f):
    """``BooleanNetwork.attractors`` as it searched before it took the fixed
    points first: Xie and Beerel's loop on 2^n-bit state sets, with the
    pivot always the lowest state of the undecided set or of the closed
    region F minus B."""
    n = f.n
    masks = _state_masks(n)
    moves = []
    for v, lf in enumerate(f.locals, start=1):
        moving = masks[v] ^ row_fold(lf.inputs, lf.bits, masks)
        if moving:
            moves.append((moving & masks[v], moving & ~masks[v], 1 << (n - v)))

    def forward(states):
        while True:
            before = states
            for falls, rises, shift in moves:
                states |= (states & falls) >> shift | (states & rises) << shift
            if states == before:
                return states

    def backward(states, allowed):
        while True:
            before = states
            for falls, rises, shift in moves:
                states |= ((states << shift) & falls | (states >> shift) & rises) & allowed
            if states == before:
                return states

    found = []
    left = masks[0]
    region = 0
    while left:
        pool = region or left
        pivot = pool & -pool
        reach = forward(pivot)
        basin = backward(pivot, left)
        if reach & ~basin:
            region = reach & ~basin
        else:
            found.append(reach)
            region = 0
        left &= ~basin
    found.sort(key=lambda states: states & -states)
    return [frozenset(_states_in(states, n)) for states in found]


def trap_subspace(f):
    """The trap subspace S left by percolating constant vertices, as
    ``BooleanNetwork.attractors`` found it before it percolated on the
    truth tables: a 2^n-bit set of states, and the vertices it leaves
    free as a list, in increasing order.

    S starts as all states; a vertex whose f_v is c on all of S shrinks S
    to S ∩ {x_v = c}.  Passes over the free vertices run until one fixes
    nothing: a chain of copies listed against the vertex order fixes one
    link per pass.
    """
    masks = _state_masks(f.n)
    values = [row_fold(lf.inputs, lf.bits, masks) for lf in f.locals]
    space = masks[0]
    free = list(range(1, f.n + 1))
    while True:
        still_free = []
        for v in free:
            value = values[v - 1] & space
            if not value:
                space &= ~masks[v]
            elif value == space:
                space &= masks[v]
            else:
                still_free.append(v)
        if len(still_free) == len(free):
            return space, free
        free = still_free


# -- subgraph-rebuilding structure oracles ------------------------------------
#
# Each subgraph below is built as a graph of its own and its cycles are
# found again by ``brute_cycles``; the library instead answers from the
# cycle-arc incidence bitmasks of the whole graph.


@lru_cache(maxsize=4096)
def _brute_signed_cycles(H):
    """Every simple cycle of H as a SignedCycle, by ``brute_cycles``."""
    return tuple(SignedCycle(arcs) for arcs in brute_cycles(H))


def _bfs_reaches(H, starts, blocked, target):
    seen = {v for v in starts if v not in blocked}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        if v == target:
            return True
        for a in H.out_arcs(v):
            if a.target not in blocked and a.target not in seen:
                seen.add(a.target)
                frontier.append(a.target)
    return False


def rebuilt_special_failure(G, cycle, arc):
    """The special-arc condition ``arc`` of ``cycle`` fails first, or None,
    evaluated in the rebuilt graph G minus the arc."""
    H = G.delete(arc)
    v = arc.target
    if not H.in_arcs(v):
        return "i"
    on_positive = set()
    for c in _brute_signed_cycles(H):
        if c.sign == 1:
            on_positive |= c.vertex_set
    if v in on_positive:
        return "ii"
    starts = on_positive | {u for u in H.vertices if not H.in_arcs(u)}
    if _bfs_reaches(H, starts, cycle.vertex_set - {v}, v):
        return "iii"
    return None


def rebuilt_find_special_arc(G, cycle):
    for a in cycle.arcs:
        if rebuilt_special_failure(G, cycle, a) is None:
            return a
    return None


def _rebuilt_positive_cycles(H):
    return [c for c in _brute_signed_cycles(H) if c.sign == 1]


def rebuilt_tau_tilde_plus(G):
    """tau~+ with every ``remove_incoming(I)`` built and searched anew."""
    for k in range(G.n + 1):
        for I in itertools.combinations(G.vertices, k):
            H = G.remove_incoming(I)
            if all(
                rebuilt_find_special_arc(H, c) is not None
                for c in _rebuilt_positive_cycles(H)
            ):
                return k
    raise AssertionError("removing all in-arcs leaves no cycle")


def rebuilt_g_tilde_plus(G):
    lengths = [
        len(c) for c in _rebuilt_positive_cycles(G) if rebuilt_find_special_arc(G, c) is None
    ]
    return min(lengths) if lengths else float("inf")


def _rebuilt_component(H, v):
    """(component, initial, nontrivial) of v's strong component in H: the
    vertices that v reaches and that reach v, each pair found by
    ``_bfs_reaches``."""
    comp = frozenset(
        w for w in H.vertices
        if _bfs_reaches(H, [v], (), w) and _bfs_reaches(H, [w], (), v)
    )
    initial = all(a.source in comp for w in comp for a in H.in_arcs(w))
    nontrivial = any(a.target in comp for w in comp for a in H.out_arcs(w))
    return comp, initial, nontrivial


def rebuilt_isolation_rule(G, cycles, sign):
    """(holds, witnesses, failed cycle) of the arc rule for cycles of
    ``sign``, quantified over ``cycles`` in their order; each component is
    found by mutual reachability and checked in ``induced`` of G minus
    the arc."""
    witnesses = []
    for cycle in cycles:
        if cycle.sign != sign:
            continue
        for a in cycle.arcs:
            H = G.delete(a)
            comp, initial, nontrivial = _rebuilt_component(H, a.target)
            if not (initial and nontrivial):
                continue
            inside = H.induced(comp)
            if all(c.sign != sign for c in _brute_signed_cycles(inside)):
                witnesses.append((cycle, a))
                break
        else:
            return False, tuple(witnesses), cycle
    return True, tuple(witnesses), None


def rebuilt_no_fixed_point_condition(G):
    components = {_rebuilt_component(G, v) for v in G.vertices}
    return any(
        ini and nt and all(c.sign != 1 for c in _brute_signed_cycles(G.induced(comp)))
        for comp, ini, nt in components
    )


def rebuilt_tau_plus(G):
    """tau+ with every ``induced`` subgraph left by a deletion searched anew."""
    for k in range(G.n + 1):
        for I in itertools.combinations(G.vertices, k):
            H = G.induced(G.vertex_set - set(I))
            if not _rebuilt_positive_cycles(H):
                return k
    raise AssertionError("deleting every vertex kills every cycle")


def rebuilt_vertex_rule(G, cycles):
    """(holds, witnesses, failed cycle) of the vertex rule, quantified over
    the positive cycles of ``cycles`` in their order; the other positive
    cycles come from ``brute_cycles``."""
    positives = _rebuilt_positive_cycles(G)
    witnesses = []
    for cycle in cycles:
        if cycle.sign != 1:
            continue
        on = set(cycle.vertices)
        chosen = next(
            (
                v
                for v in sorted(on)
                if len(G.in_arcs(v)) >= 2
                and {a.source for a in G.in_arcs(v)} <= on
                and not any(c != cycle and v in c.vertices for c in positives)
            ),
            None,
        )
        if chosen is None:
            return False, tuple(witnesses), cycle
        witnesses.append((cycle, chosen))
    return True, tuple(witnesses), None


def rebuilt_unique_negative_cycle_arc(G):
    """The first arc of G's one negative cycle on no positive cycle, or None."""
    cycles = _brute_signed_cycles(G)
    (negative,) = [c for c in cycles if c.sign == -1]
    on_positive = {a for c in cycles if c.sign == 1 for a in c.arcs}
    return next((a for a in negative.arcs if a not in on_positive), None)


# -- subset-scan oracles for tau+ and tau~+ -------------------------------------
#
# The library searches only between proven bounds; these visit every size.


def scan_tau_plus(G):
    """tau+: the first subset, by size, through which every positive cycle
    passes."""
    index = _cycle_index(G)
    if not index.positives:
        return 0
    for k in range(1, G.n + 1):
        for through in itertools.combinations(index.vertex_cycles, k):
            if not index.positives & ~reduce(operator.or_, through):
                return k
    raise AssertionError("deleting every vertex kills every cycle")


def scan_tau_tilde_plus(G):
    """tau~+: the first subset I, by size, such that every positive cycle
    avoiding I has a special arc once the arcs into I are gone."""
    index = _cycle_index(G)
    for k in range(0, G.n + 1):
        for combo in itertools.combinations(range(G.n), k):
            gone = cut = 0
            for p in combo:
                gone |= index.in_arcs[p]
                cut |= 1 << p
            left = index.positives & ~index.cycles_meeting(cut)
            cleared = index.sources | cut
            if all(_has_special_arc(index, gone, left, cleared, j) for j in _set_bits(left)):
                return k
    raise AssertionError("removing all in-arcs leaves no cycle")


# -- the hitting-set searches that one search replaced --------------------------
#
# tau+ deepened a yes/no search that pruned by disjoint packing, and the
# tau~+ scan listed its sets with a second search that tracked the met
# masks and had no prune.  Verbatim, the leading underscores dropped.


def hitting_number(masks, floor: int = 0) -> int:
    """Size of a smallest position set meeting every one of ``masks``,
    given that it is at least ``floor``.

    k deepens from the larger of ``floor`` and a greedy packing of
    disjoint masks, shortest first, which no smaller set hits.
    """
    masks = sorted(masks, key=lambda mask: (mask.bit_count(), mask))
    k = max(floor, packing(masks))
    while not hits(masks, k):
        k += 1
    return k


def packing(masks: list[int]) -> int:
    """Size of the greedy packing of pairwise disjoint ``masks``, taken in
    their order; a hitting set needs one position per packed mask."""
    used = count = 0
    for mask in masks:
        if not mask & used:
            used |= mask
            count += 1
    return count


def hits(masks: list[int], k: int) -> bool:
    """Whether k positions meet every one of ``masks``, shortest first.

    Every hitting set holds some position of the shortest mask, so the
    search branches on those and drops the masks each one meets.
    """
    if not masks:
        return True
    if k == 0 or packing(masks) > k:
        return False
    return any(
        hits([mask for mask in masks if not mask >> p & 1], k - 1)
        for p in _set_bits(masks[0])
    )


def meeting_sets(
    masks: list[int], k: int, allowed: int, chosen: tuple[int, ...] = (), met: int = 0
) -> Iterator[tuple[int, ...]]:
    """Each set of k positions of the mask ``allowed``, added to the
    positions ``chosen`` (whose mask is ``met``), that meets every one of
    ``masks`` left unmet, once, as a tuple of positions.

    As ``hits`` does, the search branches on the positions of the first
    mask not met yet, and each branch leaves out the positions of the
    branches before it: a set is found only in the branch of its lowest
    position in that mask.  Once every mask is met, any k positions of
    ``allowed`` complete the set.
    """
    for i, mask in enumerate(masks):
        if not mask & met:
            break
    else:
        if k:
            yield from map(chosen.__add__, itertools.combinations(_set_bits(allowed), k))
        else:  # the set is complete: ``allowed`` need not be read
            yield chosen
        return
    if k:
        for p in _set_bits(mask & allowed):
            allowed ^= 1 << p
            yield from meeting_sets(masks[i + 1 :], k - 1, allowed, chosen + (p,), met | 1 << p)


def signed_arcs(n, arc_prob, neg_prob, rng):
    """The arcs ``random_signed_digraph`` draws, in draw order, as its draw
    loop listed them before it grouped them by target: per ordered pair
    (u, v), u then v increasing, a positive arc with probability
    arc_prob * (1 - neg_prob), then a negative one with arc_prob * neg_prob."""
    positive = arc_prob * (1.0 - neg_prob)
    negative = arc_prob * neg_prob
    arcs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if rng.random() < positive:
                arcs.append(Arc(u, v, POSITIVE))
            if rng.random() < negative:
                arcs.append(Arc(u, v, NEGATIVE))
    return arcs


def premise_first_check(condition, conclusion, detail):
    """A rule theorem's check as it ran before it read the conclusion
    first: the rule ``condition`` on G, then, when it holds, the
    ``conclusion`` on f."""

    def check(G, f, cap=FALSIFY_CYCLE_CAP):
        if condition(G, cap).holds and not conclusion(f):
            return detail
        return None

    return check


NOT_APPLICABLE = "not-applicable"
HOLDS = "conclusion-holds"
COUNTEREXAMPLE = "counterexample"


def antipodal_fixed_points(G: SignedDigraph, f: BooleanNetwork, cap: int):
    """Check the antipodal-pair conclusion on f and its interaction graph G.

    Premises: G strong with exactly one negative cycle and at least one
    positive cycle, and f canalizes no arc of the negative cycle.  Under
    them the network must have two fixed points at Hamming distance n.
    Returns (verdict, witness_pair_or_None).
    """
    if not is_strong(G):
        return NOT_APPLICABLE, None
    cycles = enumerate_cycles(G, cap)
    negatives = [c for c in cycles if c.sign == NEGATIVE]
    if len(negatives) != 1 or not any(c.sign == POSITIVE for c in cycles):
        return NOT_APPLICABLE, None
    if any(f.is_canalized(a) for a in negatives[0].arcs):
        return NOT_APPLICABLE, None
    fixed = set(f.fixed_points())
    for x in sorted(fixed):
        y = tuple(1 - b for b in x)
        if y in fixed:
            return HOLDS, (x, y)
    return COUNTEREXAMPLE, None


def disagreement_cycles(G: SignedDigraph, f: BooleanNetwork, special_arc_free: bool, cap: int):
    """Positive disagreement cycles of f, whose interaction graph is G, for
    every pair of distinct fixed points.

    For each pair the witness is a positive cycle on whose vertices the two
    fixed points all differ; with ``special_arc_free`` the cycle must also
    have no special arc.  Returns (verdict, {(x, y): cycle}); the verdict is
    a counterexample when some pair has no witness.
    """
    fixed = f.fixed_points()
    cycles = [c for c in enumerate_cycles(G, cap) if c.sign == POSITIVE]
    if special_arc_free and len(fixed) >= 2:
        cycles = [c for c in cycles if find_special_arc(G, c, cap) is None]
    witnesses = {}
    for x, y in itertools.combinations(fixed, 2):
        disagree = {v + 1 for v in range(f.n) if x[v] != y[v]}
        for c in cycles:
            if disagree.issuperset(c.vertices):
                witnesses[(x, y)] = c
                break
        else:
            return COUNTEREXAMPLE, {"pair": (x, y)}
    return HOLDS, witnesses
