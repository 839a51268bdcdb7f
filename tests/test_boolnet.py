"""Boolean networks: evaluation, interaction graphs, dynamics, consistency."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_signed_digraphs,
    brute_attractors,
    brute_fixed_points,
    evaluate,
    g,
    leq_v,
    lowest_pivot_attractors,
    row_fold,
    scan_fixed_points,
    scan_max_fixed_points,
    table_rows,
    trap_subspace,
)
from signedbn import boolnet
from signedbn.boolnet import (
    BooleanNetwork,
    LocalFunction,
    UnrealizableGraphError,
    all_states,
    constant,
    count_consistent,
    enumerate_consistent,
    max_fixed_points,
    sample_consistent,
)
from signedbn.generators import figure1, random_signed_digraph
from signedbn.graphs import Digraph, SignedDigraph
from signedbn.kernels import to_network


def net(*locals_):
    return BooleanNetwork([LocalFunction(i, t) for i, t in locals_])


def every_table_up_to_three_inputs():
    """Each table with k <= 3 inputs as (inputs, table) for vertex 1 of a
    3-vertex network, the inputs in an unsorted order (3, 1, 2)[:k]."""
    for k in range(4):
        for table in itertools.product((0, 1), repeat=1 << k):
            yield (3, 1, 2)[:k], table


def rows_by_assignment(table, k):
    """{assignment tuple: table entry}, first input most significant."""
    return dict(zip(itertools.product((0, 1), repeat=k), table))


def derivative_signs(table, k, i):
    """The set of nonzero values of table(x with x_i = 1) - table(x with x_i = 0)."""
    rows = rows_by_assignment(table, k)
    return {
        rows[x[:i] + (1,) + x[i + 1:]] - rows[x]
        for x in rows
        if x[i] == 0
    } - {0}


def canalizes_by_rows(table, k, i, sign):
    """Some c with x_i = c (positive) or x_i != c (negative) forcing c."""
    rows = rows_by_assignment(table, k)
    for c in (0, 1):
        pinned = c if sign == "+" else 1 - c
        if all(value == c for x, value in rows.items() if x[i] == pinned):
            return True
    return False


def on_vertex_one(inputs, table):
    return net((inputs, table), ((), (0,)), ((), (1,)))


IDENTITY2 = net(((1,), (0, 1)), ((2,), (0, 1)))
SWAP2 = net(((2,), (0, 1)), ((1,), (0, 1)))  # f1=x2, f2=x1
NEGATION1 = net(((1,), (1, 0)))


def random_network(rng, n, max_k=4):
    """Random inputs (v itself allowed) and a random table per vertex."""
    locals_ = []
    for _ in range(n):
        k = rng.randint(0, min(max_k, n))
        inputs = rng.sample(range(1, n + 1), k)
        locals_.append(LocalFunction(inputs, [rng.randrange(2) for _ in range(1 << k)]))
    return BooleanNetwork(locals_)


def looped_network(rng, n):
    """About half the vertices read themselves, each vertex reads up to 3
    random other vertices, and the table is random.  Vertices that read
    themselves are in F, so many cycles run through F alone, and the
    other vertices read them."""
    locals_ = []
    for v in range(1, n + 1):
        others = [u for u in range(1, n + 1) if u != v]
        inputs = rng.sample(others, rng.randint(0, min(3, n - 1))) + [v] * rng.randrange(2)
        rng.shuffle(inputs)
        locals_.append(LocalFunction(inputs, [rng.randrange(2) for _ in range(1 << len(inputs))]))
    return BooleanNetwork(locals_)


def bench_shaped_network(rng, n):
    """Vertex v reads 1 + (v - 1) % 4 random vertices other than itself
    through a random table, the shape of the dynamics benchmark's networks."""
    locals_ = []
    for v in range(1, n + 1):
        k = 1 + (v - 1) % 4
        inputs = rng.sample([u for u in range(1, n + 1) if u != v], k)
        locals_.append(LocalFunction(inputs, [rng.randrange(2) for _ in range(1 << k)]))
    return BooleanNetwork(locals_)


def constant_rich_network(rng, n):
    """Vertex v reads 1 + (v - 1) % 4 random vertices, itself allowed.  Each
    network draws the share of its tables that are constant and the share
    that are canalizing (one row differs from all others), so that many of
    its vertices percolate to a constant, some only after others do."""
    constant_share, canalizing_share = rng.choice(((0, 0), (0.2, 0.3), (0.3, 0.5), (0.6, 0.3)))
    locals_ = []
    for v in range(1, n + 1):
        k = min(1 + (v - 1) % 4, n)
        rows = 1 << k
        draw = rng.random()
        if draw < constant_share:
            table = [rng.randrange(2)] * rows
        elif draw < constant_share + canalizing_share:
            c = rng.randrange(2)
            table = [c] * rows
            table[rng.randrange(rows)] = 1 - c
        else:
            table = [rng.randrange(2) for _ in range(rows)]
        locals_.append(LocalFunction(rng.sample(range(1, n + 1), k), table))
    return BooleanNetwork(locals_)


def percolated_constants(f):
    """{v: c} for the vertices that percolation fixes, found on table rows:
    a vertex is fixed once its table is c on every row that agrees with
    the values fixed so far, and passes repeat until one fixes nothing."""
    fixed = {}
    while True:
        before = len(fixed)
        for v, lf in enumerate(f.locals, start=1):
            if v in fixed:
                continue
            outputs = {
                value
                for x, value in zip(itertools.product((0, 1), repeat=lf.arity), table_rows(lf))
                if all(fixed.get(u, b) == b for u, b in zip(lf.inputs, x))
            }
            if len(outputs) == 1:
                fixed[v] = outputs.pop()
        if len(fixed) == before:
            return fixed


def percolation(f):
    """``boolnet._percolate`` of f: {v: c} for its constants, and its free
    vertices as a list."""
    constants, free = boolnet._percolate(f.locals)
    return {v: c for v, c in enumerate(constants, start=1) if c is not None}, list(free)


def assert_percolates(f, fixed):
    """Percolation on the tables fixes exactly ``fixed``, and the
    set-level oracle leaves the subcube of those values."""
    free = [v for v in range(1, f.n + 1) if v not in fixed]
    assert percolation(f) == (fixed, free)
    assert trap_subspace(f) == (subcube(f.n, fixed), free)


def subcube(n, fixed):
    """The states that hold the values ``fixed``, as a 2^n-bit set."""
    space = 0
    for code, x in enumerate(all_states(n)):
        if all(x[v - 1] == c for v, c in fixed.items()):
            space |= 1 << code
    return space


def networks_strategy(max_n=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        locals_ = []
        for _ in range(n):
            k = draw(st.integers(0, min(n, 3)))
            inputs = tuple(sorted(draw(
                st.sets(st.integers(1, n), min_size=k, max_size=k)
            )))
            table = tuple(
                draw(st.integers(0, 1)) for _ in range(1 << len(inputs))
            )
            locals_.append(LocalFunction(inputs, table))
        return BooleanNetwork(locals_)

    return build()


class TestLocalFunction:
    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            LocalFunction((1, 2), (0, 1))

    @pytest.mark.parametrize("table, message", [
        ((0, 2), "table entries must be 0 or 1"),
        ((-1, 1), "table entries must be 0 or 1"),
        ((0, "x"), "invalid literal for int"),
        ((0, 1, 1), "table length 3 does not match 1 inputs"),
    ])
    def test_bad_tables_keep_their_messages(self, table, message):
        with pytest.raises(ValueError, match=message):
            LocalFunction((1,), table)

    def test_table_is_a_view_of_bits(self):
        lf = LocalFunction((2, 1), [0, 1, 1, 0])
        assert lf.bits == 0b0110
        assert table_rows(lf) == (0, 1, 1, 0)
        assert repr(lf) == "LocalFunction(inputs=(2, 1), table=0110)"

    def test_first_input_is_most_significant(self):
        lf = LocalFunction((2, 1), (0, 0, 0, 1))  # x2 AND x1, x2 is the high bit
        assert lf((1, 1, 0)) == 1
        assert lf((1, 0, 1)) == 0
        assert lf((0, 1, 1)) == 0

    def test_constant(self):
        assert constant(1)((0, 1)) == 1


class TestEvaluation:
    def test_identity(self):
        for x in all_states(2):
            assert evaluate(IDENTITY2, x) == x

    def test_constant_network(self):
        f = net(((), (1,)), ((), (0,)))
        for x in all_states(2):
            assert evaluate(f, x) == (1, 0)

    def test_swap(self):
        assert evaluate(SWAP2, (0, 1)) == (1, 0)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            evaluate(SWAP2, (0,))


class TestInteractionGraph:
    def test_two_component_loop(self):
        f = net(((2,), (1, 0)), ((1,), (0, 1)))  # f1 = not x2, f2 = x1
        assert f.interaction_graph() == g(2, (2, 1, "-"), (1, 2, "+"))

    def test_xor_gives_parallel_arcs(self):
        f = net(((1, 2), (0, 1, 1, 0)), ((), (0,)))
        assert f.interaction_graph() == g(
            2, (1, 1, "+"), (1, 1, "-"), (2, 1, "+"), (2, 1, "-")
        )

    def test_identity_network(self):
        assert IDENTITY2.interaction_graph() == g(2, (1, 1, "+"), (2, 2, "+"))

    def test_declared_but_unused_input_gives_no_arc(self):
        f = net(((2,), (1, 1)), ((), (0,)))
        assert f.interaction_graph() == g(2)

    def test_every_table_up_to_three_inputs_matches_row_pairs(self):
        for inputs, table in every_table_up_to_three_inputs():
            k = len(inputs)
            arcs = [
                (u, 1, "+" if d > 0 else "-")
                for i, u in enumerate(inputs)
                for d in derivative_signs(table, k, i)
            ]
            assert on_vertex_one(inputs, table).interaction_graph() == g(3, *arcs)


class TestFixedPoints:
    def test_negation_has_none(self):
        assert NEGATION1.fixed_points() == []

    def test_swap(self):
        assert SWAP2.fixed_points() == [(0, 0), (1, 1)]

    def test_constant(self):
        f = net(((), (1,)), ((), (0,)))
        assert f.fixed_points() == [(1, 0)]

    def test_order_is_increasing_binary(self):
        points = IDENTITY2.fixed_points()
        assert points == sorted(points)


class TestScansAgainstOracles:
    """The word-parallel scans against the state-by-state oracles."""

    def test_fixed_points(self):
        rng = random.Random(11)
        for n in range(0, 11):
            for _ in range(12):
                f = random_network(rng, n)
                assert f.fixed_points() == brute_fixed_points(f)

    def test_attractors(self):
        rng = random.Random(12)
        for n in range(0, 9):
            for _ in range(8 if n < 7 else 3):
                f = random_network(rng, n)
                assert f.attractors() == brute_attractors(f)

    def test_attractors_every_n_up_to_ten(self):
        rng = random.Random(14)
        for n in range(0, 11):
            for _ in range(6 if n < 8 else 3):
                f = random_network(rng, n)
                assert f.attractors() == brute_attractors(f)

    def test_attractors_large_cyclic(self):
        rng = random.Random(23)
        cases = [
            # negation rings: one cyclic attractor of 2n states at odd n
            BooleanNetwork([LocalFunction(((v - 2) % n + 1,), (1, 0)) for v in range(1, n + 1)])
            for n in (3, 5, 7, 9)
        ] + [
            # every vertex negates itself: the whole space is one attractor
            BooleanNetwork([LocalFunction((v,), (1, 0)) for v in range(1, n + 1)])
            for n in (4, 8)
        ]
        for n in (5, 6, 7, 8, 9):
            # XOR-heavy tables: parities of two or three inputs, some negated
            locals_ = []
            for _ in range(n):
                inputs = rng.sample(range(1, n + 1), rng.choice((2, 3)))
                flip = rng.randrange(2)
                table = [(bin(j).count("1") + flip) % 2 for j in range(1 << len(inputs))]
                locals_.append(LocalFunction(inputs, table))
            cases.append(BooleanNetwork(locals_))
        sizes = []
        for f in cases:
            found = f.attractors()
            assert found == brute_attractors(f)
            sizes.append(max(len(states) for states in found))
        assert sizes[:6] == [6, 10, 14, 18, 16, 256]
        assert sizes[6:] == [32, 48, 1, 248, 508]

    def test_max_fixed_points_every_graph_up_to_two_vertices(self):
        for n in (0, 1, 2):
            for G in all_signed_digraphs(n):
                family = list(enumerate_consistent(G))
                if not family:
                    with pytest.raises(UnrealizableGraphError):
                        max_fixed_points(G)
                    continue
                most = max_fixed_points(G)
                assert most == scan_max_fixed_points(G)
                assert most == max(len(brute_fixed_points(f)) for f in family)

    def test_max_fixed_points_random_graphs(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            G = random_signed_digraph(rng.choice((3, 4)), rng=rng)
            if any(len(G.in_neighbors(v)) > 3 for v in G.vertices):
                continue
            if not 0 < count_consistent(G, 3) <= 2000:
                continue
            family = enumerate_consistent(G, max_indegree=3)
            expected = max(len(brute_fixed_points(f)) for f in family)
            assert max_fixed_points(G, max_indegree=3) == expected
            checked += 1


class TestDecoding:
    """``scan_fixed_points`` and ``lowest_pivot_attractors`` decode through
    the library's ``_states_in``, so it is checked here on its own, against
    each state's binary text; ``_full_states``, the library's one decode
    of a set of assignments, against a decode of each assignment."""

    def test_states_in_matches_the_binary_text(self):
        rng = random.Random(17)
        for n in range(19):
            size = 1 << n
            # Full and dense on the lowest 2^14 codes, sparse on all of them.
            window = min(size, 1 << 14)
            sparse = 0
            for _ in range(200):
                sparse |= 1 << rng.randrange(size)
            for states in (0, (1 << window) - 1, rng.getrandbits(window), sparse):
                codes = [c for c, bit in enumerate(format(states, f"0{size}b")[::-1]) if bit == "1"]
                # The bit above the state's own n bits keeps its leading 0s.
                expected = [tuple(map(int, format(size | c, "b")[1:])) for c in codes]
                assert boolnet._states_in(states, n) == expected

    def test_full_states_matches_a_per_assignment_decode(self):
        # Each assignment decoded on its own: its bits spread onto the free
        # vertices, the first most significant, and each other vertex's bit
        # read from its set.  The other vertices' sets are empty, whole or
        # varying, as constants and folded vertices give them; more than
        # eight vary at times, so the decode reads them in two batches.
        rng = random.Random(34)
        for trial in range(400):
            n = rng.randint(0, 12)
            free = [range(1, n + 1), (), sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))]
            free = tuple(free[trial % 3])
            width = len(free)
            whole = (1 << (1 << width)) - 1
            varying = rng.random()
            masks = [whole] + [
                rng.getrandbits(1 << width) if rng.random() < varying else rng.choice((0, whole))
                for _ in range(n)
            ]
            for v, mask in zip(free, boolnet._state_masks(width)[1:]):
                masks[v] = mask
            # One, two and three points at most, read per point.
            sparse = [sum({1 << rng.randrange(1 << width) for _ in range(c)}) for c in (1, 2, 3)]
            for assignments in (0, whole, rng.getrandbits(1 << width), *sparse):
                expected = []
                for a in range(1 << width):
                    if assignments >> a & 1:
                        bits = dict(zip(free, format((1 << width) | a, "b")[1:]))
                        expected.append(tuple(
                            int(bits[v]) if v in bits else masks[v] >> a & 1
                            for v in range(1, n + 1)
                        ))
                expected.sort()
                assert boolnet._full_states(assignments, free, masks, n) == expected


class TestFold:
    """``_value_mask`` folds a table a byte of rows at a time; the
    row-by-row fold it replaced, ``row_fold``, is the oracle."""

    def test_every_table_of_up_to_four_inputs(self):
        rng = random.Random(36)
        masks = boolnet._state_masks(6)
        for k in range(5):
            for bits in range(1 << (1 << k)):
                inputs = rng.sample(range(1, 7), k)
                assert boolnet._value_mask(inputs, bits, masks) == row_fold(inputs, bits, masks), (
                    inputs, bits
                )

    def test_random_tables_over_arbitrary_sets(self):
        # Each vertex's set is random, empty or whole (a constant, which
        # ``attractors`` passes along with its free vertices), or the set
        # of a vertex before it, so two inputs can share one set.
        rng = random.Random(360)
        for _ in range(2000):
            k = rng.randint(0, boolnet._FOLD_MAX_INPUTS)
            size = rng.choice((1, 5, 64, 1 << 10, 3000))
            full = (1 << size) - 1
            masks = [full]
            for _ in range(k + rng.randint(0, 3)):
                draw = rng.random()
                if draw < 0.5:
                    masks.append(rng.getrandbits(size))
                elif draw < 0.75:
                    masks.append(rng.choice((0, full)))
                else:
                    masks.append(rng.choice(masks))
            inputs = rng.sample(range(1, len(masks)), k)
            bits = rng.getrandbits(1 << k)
            free = tuple(v for v in range(1, len(masks)) if masks[v] not in (0, full))
            expected = row_fold(inputs, bits, masks)
            assert boolnet._value_mask(inputs, bits, masks) == expected, (inputs, bits)
            assert boolnet._value_mask(inputs, bits, masks, free) == expected, (inputs, bits)

    def test_one_row_tables(self):
        # ``kernels.to_network``'s tables are 1 on row 0 alone.
        rng = random.Random(3600)
        masks = boolnet._state_masks(10)
        for k in range(boolnet._FOLD_MAX_INPUTS + 1):
            inputs = rng.sample(range(1, 11), k)
            whole = (1 << (1 << k)) - 1
            for row in range(1 << k):
                for bits in (1 << row, whole ^ (1 << row)):
                    assert boolnet._value_mask(inputs, bits, masks) == row_fold(
                        inputs, bits, masks
                    ), (inputs, bits)


@pytest.fixture
def mask_widths(monkeypatch):
    """The widths ``boolnet._state_masks`` is asked for while the test runs."""
    widths = []
    original = boolnet._state_masks

    def recording(n):
        widths.append(n)
        return original(n)

    monkeypatch.setattr(boolnet, "_state_masks", recording)
    return widths


def best_time(call, rounds=3):
    """The least wall time of ``call`` over some rounds, and its result."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
    return min(times), out


class TestScanEdgesAndCost:
    def test_no_vertices(self):
        f = BooleanNetwork([])
        assert f.fixed_points() == [()]
        assert f.attractors() == [frozenset({()})]

    def test_identity_fixes_every_state_in_order(self, mask_widths):
        # Every vertex reads itself, so F is every vertex: all 2^16 states.
        f = BooleanNetwork([LocalFunction((v,), (0, 1)) for v in range(1, 17)])
        assert f.fixed_points() == list(all_states(16))
        assert mask_widths == [16]

    def test_identity_attractors_are_every_state_in_order_and_fast(self):
        # Every state is a fixed point: one backward closure decides them all.
        f = BooleanNetwork([LocalFunction((v,), (0, 1)) for v in range(1, 17)])
        start = time.perf_counter()
        found = f.attractors()
        assert time.perf_counter() - start < 2.0
        assert found == [frozenset({x}) for x in f.fixed_points()]
        assert len(found) == 1 << 16

    def test_fixed_points_at_22_vertices_is_fast(self):
        rng = random.Random(22)
        f = BooleanNetwork([
            LocalFunction(rng.sample(range(1, 23), 4), [rng.randrange(2) for _ in range(16)])
            for _ in range(22)
        ])
        start = time.perf_counter()
        points = f.fixed_points()
        assert time.perf_counter() - start < 2.0
        assert all(evaluate(f, x) == x for x in points)

    def test_attractors_at_18_vertices_is_fast(self):
        rng = random.Random(18)
        f = BooleanNetwork([
            LocalFunction(rng.sample(range(1, 19), 4), [rng.randrange(2) for _ in range(16)])
            for _ in range(18)
        ])
        start = time.perf_counter()
        found = f.attractors()
        assert time.perf_counter() - start < 2.0
        assert found
        for states in found:
            for x in states:
                y = evaluate(f, x)
                for v in range(18):
                    if y[v] != x[v]:
                        assert x[:v] + (y[v],) + x[v + 1:] in states

    def test_scan_limits(self):
        with pytest.raises(ValueError):
            BooleanNetwork([constant(0)] * 25).fixed_points()
        with pytest.raises(ValueError):
            BooleanNetwork([constant(0)] * 21).attractors()

    def test_scan_refusals_name_their_limit(self):
        cases = (
            (lambda: BooleanNetwork([constant(0)] * 25).fixed_points(), "fixed-point scan", 25, 24),
            (lambda: BooleanNetwork([constant(0)] * 21).attractors(), "attractor scan", 21, 20),
            (lambda: max_fixed_points(SignedDigraph(25)), "fixed-point scan", 25, 24),
        )
        for call, what, n, limit in cases:
            with pytest.raises(ValueError, match=f"^n={n} exceeds the {what} limit {limit}$"):
                call()

    def test_family_scan_limit_refuses_at_once(self):
        # 19,254,145,824 consistent networks: hours of scanning.
        G = SignedDigraph(5, [(u, v, 1) for u in range(1, 6) for v in range(1, 6) if u != v])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="family scan limit"):
            max_fixed_points(G)
        assert time.perf_counter() - start < 1.0


def wide_network(table, k=18):
    """Vertex 1 reads vertices k+1, k, ..., 2 through ``table``; every
    other vertex copies x_1."""
    inputs = tuple(range(k + 1, 1, -1))
    return BooleanNetwork(
        [LocalFunction(inputs, table)] + [LocalFunction((1,), (0, 1))] * k
    )


def wide_free_network(rng, n, k):
    """Vertex n reads k inputs, itself among them, through a random table.
    Three or four vertices are constant, one more copies or negates one of
    them, and vertex n reads all of these, so at least four constants
    percolate into it.  Up to three vertices read two others at random,
    and the rest copy themselves, which keeps every state's reach small."""
    constants = rng.randint(3, 4)
    locals_ = [LocalFunction((), (rng.randrange(2),)) for _ in range(constants)]
    locals_.append(LocalFunction((rng.randint(1, constants),), rng.choice(((0, 1), (1, 0)))))
    first = constants + 2
    moving = first + rng.randint(1, 3)
    for v in range(first, n):
        if v < moving:
            inputs = rng.sample(range(first, n + 1), 2)
            locals_.append(LocalFunction(inputs, [rng.randrange(2) for _ in range(4)]))
        else:
            locals_.append(LocalFunction((v,), (0, 1)))
    inputs = list(range(1, first)) + rng.sample(range(first, n + 1), k - first + 1)
    rng.shuffle(inputs)
    locals_.append(LocalFunction(inputs, [rng.randrange(2) for _ in range(1 << k)]))
    return BooleanNetwork(locals_)


class TestWideTables:
    """Per-input row masks come from the state masks, and a table wider than
    the fold limit is read by one lookup per state."""

    @pytest.mark.parametrize("k", range(13))
    def test_input_rows_match_the_row_sums(self, k):
        expected = tuple(
            (1 << (k - 1 - i), sum(1 << j for j in range(1 << k) if not j >> (k - 1 - i) & 1))
            for i in range(k)
        )
        assert boolnet._input_rows(k) == expected

    def test_table_bits_match_the_shift_loop(self):
        rng = random.Random(3)
        for k in range(13):
            table = [rng.randrange(2) for _ in range(1 << k)]
            bits = 0
            for b in reversed(table):
                bits = bits << 1 | b
            assert LocalFunction(range(1, k + 1), table).bits == bits

    # The signature index: the sign-code bytes of every k-input table and
    # the lookup of one key's tables in them.
    @pytest.mark.parametrize("k", range(5))
    def test_signature_index_matches_a_per_table_unpacking(self, k):
        expected = {}
        for t in range(1 << (1 << k)):
            expected.setdefault(boolnet._table_signs(t, k), []).append(t)
        for key in itertools.product(range(4), repeat=k):
            assert boolnet._tables_with_signs(key) == tuple(expected.get(key, ())), key

    def test_signature_index_of_four_inputs_is_small(self):
        # The whole-table index of every four-input table peaked at 2.8 MB.
        tracemalloc.start()
        try:
            codes = boolnet._sign_codes.__wrapped__(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(codes) == 1 << 16
        assert peak < 1 << 19

    def test_signature_index_reads_no_table_row_by_row(self, monkeypatch):
        calls = []
        table_signs = boolnet._table_signs

        def counted(bits, k):
            calls.append(bits)
            return table_signs(bits, k)

        monkeypatch.setattr(boolnet, "_table_signs", counted)
        for k in range(5):
            boolnet._sign_codes.__wrapped__(k)
        assert calls == []

    def test_interaction_graph_of_an_18_input_table_is_fast(self):
        rng = random.Random(18)
        table = [rng.randrange(2) for _ in range(1 << 18)]
        f = wide_network(table)
        start = time.perf_counter()
        G = f.interaction_graph()
        assert time.perf_counter() - start < 1.0
        for u in (2, 11, 19):
            # Input u is at position 19 - u; its rows pair up at that step.
            step = 1 << (u - 2)
            signs = {table[j | step] - table[j] for j in range(1 << 18) if not j & step}
            assert {a.sign for a in G.in_arcs(1) if a.source == u} == signs - {0}

    def test_is_canalized_on_an_18_input_table_is_fast(self):
        conjunction = [0] * ((1 << 18) - 1) + [1]
        majority = [int(bin(j).count("1") >= 9) for j in range(1 << 18)]
        for table, canalized in ((conjunction, True), (majority, False)):
            f = wide_network(table)
            start = time.perf_counter()
            assert all(f.is_canalized((u, 1, "+")) == canalized for u in range(2, 20))
            assert time.perf_counter() - start < 1.0

    def test_wide_table_fixed_points_are_fast(self):
        rng = random.Random(19)
        f = wide_network([rng.randrange(2) for _ in range(1 << 18)])
        start = time.perf_counter()
        points = f.fixed_points()
        assert time.perf_counter() - start < 1.0
        assert points == [x for x in ((0,) * 19, (1,) * 19) if evaluate(f, x) == x]

    def test_fold_keeps_few_state_sets_alive(self, monkeypatch):
        # Folding breadth-first kept 2^9 sets of 2^16 bits, about 4 MB.
        rng = random.Random(10)
        inputs = rng.sample(range(1, 17), boolnet._FOLD_MAX_INPUTS)
        bits = rng.getrandbits(1 << len(inputs))
        masks = boolnet._state_masks(16)
        tracemalloc.start()
        try:
            folded = boolnet._value_mask(inputs, bits, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        monkeypatch.setattr(boolnet, "_FOLD_MAX_INPUTS", len(inputs) - 1)
        assert folded == boolnet._value_mask(inputs, bits, masks)

    @pytest.mark.parametrize("seed", range(6))
    def test_lookup_matches_the_fold(self, seed, monkeypatch):
        rng = random.Random(seed)
        n = 12
        f = BooleanNetwork([
            LocalFunction(
                rng.sample(range(1, n + 1), k), [rng.randrange(2) for _ in range(1 << k)]
            )
            for k in [rng.randint(0, n) for _ in range(n)]
        ])
        looked_up = f.fixed_points(), f.attractors()
        monkeypatch.setattr(boolnet, "_FOLD_MAX_INPUTS", n)
        assert (f.fixed_points(), f.attractors()) == looked_up
        assert looked_up[0] == brute_fixed_points(f)


    @pytest.mark.parametrize("seed", range(4))
    def test_a_wide_free_table_is_looked_up_on_the_subcube(self, seed):
        # The wide table is read once per assignment of the free vertices,
        # and its constant inputs add one row offset.
        rng = random.Random(seed)
        for n in (11, 12, 13):
            f = wide_free_network(rng, n, min(n, 11 + rng.randrange(2)))
            fixed, free = percolation(f)
            wide = f.locals[-1]
            assert wide.arity > boolnet._FOLD_MAX_INPUTS and n in free
            assert sum(u in fixed for u in wide.inputs) >= 3
            assert f.attractors() == brute_attractors(f)


class TestFeedbackScan:
    """``fixed_points`` scans the assignments of a feedback vertex set F and
    folds the other vertices in order; the scan of all 2^n states that it
    replaced is the oracle, order included."""

    @pytest.mark.parametrize("full_scan_max_n", [0, boolnet._FULL_SCAN_MAX_N])
    def test_matches_the_full_scan_on_random_networks(self, full_scan_max_n, monkeypatch):
        # At 0 every network with a vertex takes the path through F.
        monkeypatch.setattr(boolnet, "_FULL_SCAN_MAX_N", full_scan_max_n)
        rng = random.Random(24)
        narrowed = 0
        for i in range(2250):
            n = i % 15
            f = looped_network(rng, n) if i % 3 == 0 else random_network(rng, n)
            assert f.fixed_points() == scan_fixed_points(f)
            narrowed += len(boolnet._feedback_order(f.locals)[0]) < n
        assert narrowed > 1500

    def test_matches_the_full_scan_on_bench_shaped_networks(self):
        rng = random.Random(1518)
        for i in range(30):
            f = bench_shaped_network(rng, 15 + i % 4)
            assert f.fixed_points() == scan_fixed_points(f)

    @pytest.mark.parametrize("full_scan_max_n", [0, boolnet._FULL_SCAN_MAX_N])
    def test_matches_the_full_scan_on_kernel_networks(self, full_scan_max_n, monkeypatch):
        monkeypatch.setattr(boolnet, "_FULL_SCAN_MAX_N", full_scan_max_n)
        rng = random.Random(7)
        for i in range(450):
            n = i % 15
            p = rng.random() / 2
            D = Digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < p])
            f = to_network(D)
            assert f.fixed_points() == scan_fixed_points(f)

    def test_a_wide_table_outside_f_keeps_the_full_scan(self, mask_widths):
        # Vertex 14 reads vertices 1..12 and no vertex reads it, so it lies
        # outside F; its table is wider than the fold limit, and its lookup
        # reads the states of all 14 vertices.
        rng = random.Random(12)
        for _ in range(4):
            f = BooleanNetwork(
                list(bench_shaped_network(rng, 13).locals)
                + [LocalFunction(range(1, 13), [rng.randrange(2) for _ in range(1 << 12)])]
            )
            assert 14 not in boolnet._feedback_order(f.locals)[0]
            mask_widths.clear()
            assert f.fixed_points() == scan_fixed_points(f)
            assert mask_widths == [14]

    def test_large_networks_scan_fewer_than_all_states(self, mask_widths):
        rng = random.Random(24)
        dense = BooleanNetwork([
            LocalFunction(rng.sample(range(1, 25), 3), [rng.randrange(2) for _ in range(8)])
            for _ in range(24)
        ])
        points = dense.fixed_points()
        assert points == sorted(points)
        assert all(evaluate(dense, x) == x for x in points)
        # x_1 reads itself and each later vertex copies or negates the one
        # before it: F is {1}, and each value of x_1 fixes one state.
        tables = [rng.choice(((0, 1), (1, 0))) for _ in range(23)]
        chain = BooleanNetwork(
            [LocalFunction((1,), (0, 1))]
            + [LocalFunction((v - 1,), t) for v, t in zip(range(2, 25), tables)]
        )
        expected = []
        for x_1 in (0, 1):
            x = [x_1]
            for t in tables:
                x.append(t[x[-1]])
            expected.append(tuple(x))
        assert chain.fixed_points() == expected
        assert mask_widths and 24 not in mask_widths

    def test_many_fixed_points_decode_fast(self):
        # 16 identity vertices and 4 copies of them: F is the 16, and each
        # of its 2^16 assignments is fixed.
        f = BooleanNetwork(
            [LocalFunction((v,), (0, 1)) for v in range(1, 17)]
            + [LocalFunction((v,), (0, 1)) for v in (1, 6, 11, 16)]
        )
        assert boolnet._feedback_order(f.locals)[0] == tuple(range(1, 17))
        spent, points = best_time(f.fixed_points)
        oracle_spent, expected = best_time(lambda: scan_fixed_points(f))
        assert points == expected
        assert len(points) == 1 << 16
        assert spent < 2 * oracle_spent
        # With the copies first, F is 5..20, and the states come out in
        # another order than F's assignments.
        f = BooleanNetwork(
            [LocalFunction((u,), (0, 1)) for u in (20, 15, 10, 5)]
            + [LocalFunction((v,), (0, 1)) for v in range(5, 21)]
        )
        assert boolnet._feedback_order(f.locals)[0] == tuple(range(5, 21))
        assert f.fixed_points() == scan_fixed_points(f)
        # Odd vertices copy or negate the even ones, which copy themselves:
        # ten vertices outside F vary between fixed points, more than one
        # byte packs.
        rng = random.Random(20)
        f = BooleanNetwork([
            LocalFunction((v,), (0, 1)) if v % 2 == 0
            else LocalFunction((rng.randrange(2, 21, 2),), rng.choice(((0, 1), (1, 0))))
            for v in range(1, 21)
        ])
        assert len(boolnet._feedback_order(f.locals)[0]) == 10
        assert f.fixed_points() == scan_fixed_points(f)


class TestLeq:
    def test_reflexive(self):
        G = g(2, (1, 2, "+"), (2, 1, "-"))
        for x in all_states(2):
            for v in (1, 2):
                assert leq_v(G, v, x, x)

    def test_positive_in_neighbor(self):
        G = g(2, (1, 2, "+"))
        assert leq_v(G, 2, (0, 0), (1, 0))
        assert not leq_v(G, 2, (1, 0), (0, 0))

    def test_negative_in_neighbor(self):
        G = g(2, (1, 2, "-"))
        assert not leq_v(G, 2, (0, 0), (1, 0))
        assert leq_v(G, 2, (1, 0), (0, 0))


class TestCanalized:
    def test_and_gate(self):
        f = net(((1, 2), (0, 0, 0, 1)), ((), (0,)))  # f1 = x1 and x2
        assert f.is_canalized((2, 1, "+"))
        assert f.is_canalized((1, 1, "+"))

    def test_xor_not_canalized(self):
        f = net(((1, 2), (0, 1, 1, 0)), ((), (0,)))
        assert not f.is_canalized((2, 1, "+"))
        assert not f.is_canalized((2, 1, "-"))

    def test_negation_canalized(self):
        f = net(((2,), (1, 0)), ((), (0,)))
        assert f.is_canalized((2, 1, "-"))

    def test_rejects_non_arc(self):
        with pytest.raises(ValueError):
            SWAP2.is_canalized((1, 1, "+"))
        with pytest.raises(ValueError):
            SWAP2.is_canalized((2, 1, "-"))

    def test_every_table_up_to_three_inputs_matches_rows(self):
        checked = 0
        for inputs, table in every_table_up_to_three_inputs():
            f = on_vertex_one(inputs, table)
            k = len(inputs)
            for i, u in enumerate(inputs):
                present = derivative_signs(table, k, i)
                for sign, d in (("+", 1), ("-", -1)):
                    if d in present:
                        assert f.is_canalized((u, 1, sign)) == canalizes_by_rows(
                            table, k, i, sign
                        )
                    else:
                        with pytest.raises(ValueError, match="not an arc"):
                            f.is_canalized((u, 1, sign))
                    checked += 1
        assert checked == 1608


class TestPin:
    def test_empty_pin_is_identity(self):
        assert SWAP2.pin({}) == SWAP2

    def test_pin_identity_network(self):
        f = IDENTITY2.pin({1: 1})
        assert f.fixed_points() == [(1, 0), (1, 1)]

    def test_pin_swap(self):
        f = SWAP2.pin({2: 0})
        assert f.fixed_points() == [(0, 0)]

    @given(networks_strategy())
    @settings(max_examples=60, deadline=None)
    def test_pin_matches_remove_incoming(self, f):
        for v in range(1, f.n + 1):
            pinned = f.pin({v: 1})
            expected = f.interaction_graph().remove_incoming({v})
            assert pinned.interaction_graph() == expected


class TestAttractors:
    def test_negation_cycles(self):
        assert NEGATION1.attractors() == [frozenset({(0,), (1,)})]

    def test_identity_has_all_singletons(self):
        assert IDENTITY2.attractors() == [
            frozenset({(0, 0)}),
            frozenset({(0, 1)}),
            frozenset({(1, 0)}),
            frozenset({(1, 1)}),
        ]

    def test_swap_transients_excluded(self):
        assert SWAP2.attractors() == [frozenset({(0, 0)}), frozenset({(1, 1)})]

    def test_matches_the_lowest_pivot_search(self):
        # The search takes the fixed points first and draws later pivots
        # from the forward closure's last sweep; the sets and their order
        # are those of the loop that always took the lowest state.
        rng = random.Random(41)
        for i in range(2200):
            f = random_network(rng, i % 13)
            assert f.attractors() == lowest_pivot_attractors(f)

    def test_matches_the_lowest_pivot_search_at_13_to_16_vertices(self):
        rng = random.Random(42)
        for i in range(30):
            n = 13 + i % 4
            f = BooleanNetwork([
                LocalFunction(rng.sample(range(1, n + 1), 4), [rng.randrange(2) for _ in range(16)])
                for _ in range(n)
            ])
            assert f.attractors() == lowest_pivot_attractors(f)

    def test_matches_brute_force_on_constant_rich_networks(self):
        # The search runs on the subcube that percolating constants
        # leaves; the oracle searches every state.
        # The oracle's cost grows about fourfold per vertex, so 50 networks
        # each have 8 and 9 vertices and the rest cycle through 1..7.
        rng = random.Random(28)
        percolating = deep = 0
        for i in range(2000):
            n = {0: 9, 20: 8}.get(i % 40, 1 + i % 7)
            f = constant_rich_network(rng, n)
            fixed = percolated_constants(f)
            assert_percolates(f, fixed)
            found = f.attractors()
            assert found == brute_attractors(f)
            assert all(x[v - 1] == c for states in found for x in states for v, c in fixed.items())
            percolating += bool(fixed)
            deep += any(
                v in fixed and len(set(table_rows(lf))) == 2 for v, lf in enumerate(f.locals, start=1)
            )
        # Most networks percolate, and many fix a vertex whose table is
        # not constant.
        assert percolating > 1200 and deep > 600

    def test_matches_the_lowest_pivot_search_on_constant_rich_networks(self):
        rng = random.Random(29)
        for i in range(300):
            f = constant_rich_network(rng, 10 + i % 7)
            assert f.attractors() == lowest_pivot_attractors(f)

    def test_a_chain_against_the_vertex_order_percolates_in_many_passes(self):
        # x_6 is constant and each earlier vertex copies the next, so each
        # pass over 1..6 fixes one more link: all six, in six passes.
        f = net(*[((v + 1,), (0, 1)) for v in range(1, 6)], ((), (1,)))
        assert_percolates(f, dict.fromkeys(range(1, 7), 1))
        assert trap_subspace(f) == (1 << 63, [])
        assert f.attractors() == brute_attractors(f) == [frozenset({(1,) * 6})]

    def test_a_vertex_fixed_only_after_two_others(self):
        # f_1 = x_2 xor x_3 is constant only once both are; x_4 stays free.
        f = net(((2, 3), (0, 1, 1, 0)), ((), (1,)), ((), (1,)), ((4,), (0, 1)))
        assert_percolates(f, {1: 0, 2: 1, 3: 1})
        assert f.attractors() == brute_attractors(f) == [
            frozenset({(0, 1, 1, 0)}), frozenset({(0, 1, 1, 1)})
        ]

    def test_all_constant_and_empty_networks(self):
        f = net(((), (1,)), ((), (0,)), ((), (1,)))
        assert_percolates(f, {1: 1, 2: 0, 3: 1})
        assert trap_subspace(f) == (1 << 0b101, [])
        assert f.attractors() == brute_attractors(f) == [frozenset({(1, 0, 1)})]
        empty = BooleanNetwork([])
        assert_percolates(empty, {})
        assert empty.attractors() == brute_attractors(empty) == [frozenset({()})]

    def test_no_constant_vertex_keeps_every_state(self):
        ring = net(((3,), (1, 0)), ((1,), (0, 1)), ((2,), (0, 1)))
        for f in (SWAP2, IDENTITY2, NEGATION1, ring):
            assert_percolates(f, {})
            assert f.attractors() == brute_attractors(f)

    def test_fixed_points_beside_a_cyclic_attractor(self):
        # x_1 gates an odd negation ring on 2, 3, 4 and falls when the ring
        # reads 111, from where both kinds of attractor are reachable; x_5
        # copies itself, doubling each attractor.
        gated = (0, 0, 1, 0)  # x_1 and not x_pred
        f = net(
            ((1, 2, 3, 4), [0] * 8 + [1] * 7 + [0]),
            ((1, 4), gated),
            ((1, 2), gated),
            ((1, 3), gated),
            ((5,), (0, 1)),
        )
        found = f.attractors()
        assert found == brute_attractors(f)
        assert sorted(map(len, found)) == [1, 1, 6, 6]
        assert [next(iter(a)) for a in found if len(a) == 1] == f.fixed_points()

    @given(networks_strategy())
    @example(bench_shaped_network(random.Random(13), 13))
    @example(bench_shaped_network(random.Random(14), 14))
    @example(bench_shaped_network(random.Random(15), 15))
    @example(bench_shaped_network(random.Random(16), 16))
    @settings(max_examples=40, deadline=None)
    def test_fixed_points_are_exactly_singleton_attractors(self, f):
        singles = {
            next(iter(states))
            for states in f.attractors()
            if len(states) == 1
        }
        assert singles == set(f.fixed_points())
        for states in f.attractors():
            if len(states) > 1:
                assert not (states & set(f.fixed_points()))


class TestConsistentNetworks:
    def test_positive_loop_unique(self):
        nets = list(enumerate_consistent(g(1, (1, 1, "+"))))
        assert nets == [net(((1,), (0, 1)))]

    def test_isolated_vertex_two_constants(self):
        nets = list(enumerate_consistent(g(1)))
        assert len(nets) == 2

    def test_positive_two_cycle_unique(self):
        nets = list(enumerate_consistent(g(2, (1, 2, "+"), (2, 1, "+"))))
        assert nets == [SWAP2]

    def test_every_emitted_network_realizes_the_graph(self):
        G = figure1(5)
        nets = list(enumerate_consistent(G))
        assert len(nets) == count_consistent(G) == 8
        for f in nets:
            assert f.interaction_graph() == G

    def test_unrealizable_patterns_are_empty(self):
        both = g(1, (1, 1, "+"), (1, 1, "-"))
        assert list(enumerate_consistent(both)) == []
        assert count_consistent(both) == 0
        mixed = g(2, (1, 2, "+"), (1, 2, "-"), (2, 2, "+"))
        assert count_consistent(mixed, 2) == 0

    def test_sample_is_deterministic(self):
        G = figure1(5)
        assert sample_consistent(G, seed=3) == sample_consistent(G, seed=3)
        assert sample_consistent(G, seed=3).interaction_graph() == G

    def test_sample_unique_candidate(self):
        loop = g(1, (1, 1, "+"))
        for seed in range(5):
            assert sample_consistent(loop, seed=seed) == net(((1,), (0, 1)))

    def test_sample_unrealizable_raises(self):
        with pytest.raises(UnrealizableGraphError):
            sample_consistent(g(1, (1, 1, "+"), (1, 1, "-")), seed=0)

    def test_indegree_cap(self):
        G = g(5, *((u, 5, "+") for u in range(1, 6)))
        with pytest.raises(ValueError):
            list(enumerate_consistent(G))

    def test_five_inputs_refused_whatever_the_cap(self):
        # Five-input sign planes would take 2^32 bits each.
        G = g(5, *((u, 1, "+") for u in range(1, 6)))
        start = time.perf_counter()
        for call in (count_consistent, sample_consistent):
            with pytest.raises(ValueError, match="vertex 1 has 5 inputs, cap is 4"):
                call(G, max_indegree=5)
        assert time.perf_counter() - start < 1.0

    def test_cap_is_checked_on_every_vertex_before_realizability(self):
        # Vertex 1 is unrealizable, vertex 2 has five inputs.
        G = g(6, (1, 1, "+"), (1, 1, "-"), *((u, 2, "+") for u in range(2, 7)))
        calls = (count_consistent, sample_consistent, max_fixed_points,
                 lambda G: list(enumerate_consistent(G)))
        for call in calls:
            with pytest.raises(ValueError, match="vertex 2 has 5 inputs, cap is 4"):
                call(G)

    def test_candidate_counts_match_independent_unate_count(self):
        # Over all sign assignments on k potential inputs, the consistent
        # tables partition the functions that are unate in every variable;
        # count those directly from truth tables as the oracle.
        for k in (1, 2, 3):
            unate = 0
            for t in itertools.product((0, 1), repeat=1 << k):
                ok = True
                for i in range(k):
                    step = 1 << (k - 1 - i)
                    pos = neg = False
                    for j in range(1 << k):
                        if j & step:
                            continue
                        d = t[j | step] - t[j]
                        pos |= d > 0
                        neg |= d < 0
                    if pos and neg:
                        ok = False
                        break
                unate += ok
            total = 0
            inputs = tuple(range(1, k + 1))
            for signs in itertools.product((None, "+", "-"), repeat=k):
                arcs = [
                    (u, k + 1, s) for u, s in zip(inputs, signs) if s is not None
                ]
                G = SignedDigraph(k + 1, arcs)
                # Vertices 1..k have no input: two constant tables each.
                total += count_consistent(G, k + 1) >> k
            assert total == unate

    def test_max_fixed_points_examples(self):
        assert max_fixed_points(g(2, (1, 2, "+"), (2, 1, "+"))) == 2
        assert max_fixed_points(g(1, (1, 1, "-"))) == 0
        assert max_fixed_points(figure1(5)) == 1


def two_signed_chain(n):
    """Vertex 1 reads vertices 2-5 with both signs, and every other vertex
    copies the one before it: 34,226 consistent networks."""
    arcs = [(u, 1, sign) for u in range(2, 6) for sign in ("+", "-")]
    return g(n, *arcs, *((v - 1, v, "+") for v in range(2, n + 1)))


class TestFamilyMaximum:
    """The pruned search for the largest fixed-point count in a family,
    against the scan over every network of the product, and its limits."""

    def test_random_graphs_with_loops_and_two_signed_pairs(self):
        rng = random.Random(17)
        checked = loops = two_signed = 0
        while checked < 2000:
            G = random_signed_digraph(rng.randint(1, 4), rng.choice((None, 0.5, 0.8)), rng=rng)
            if any(len(G.in_neighbors(v)) > 4 for v in G.vertices):
                continue
            if not 0 < count_consistent(G) <= 3000:
                continue
            assert max_fixed_points(G) == scan_max_fixed_points(G), G
            checked += 1
            loops += any(a.source == a.target for a in G.arcs)
            pairs = [(a.source, a.target) for a in G.arcs]
            two_signed += len(set(pairs)) < len(pairs)
        assert loops > 300 and two_signed > 300

    def test_complete_graph_with_loops_answers(self):
        # 168,896,016 consistent networks, which a scan of the product
        # would take hours over.
        G = g(4, *((u, v, "+") for u in range(1, 5) for v in range(1, 5)))
        start = time.perf_counter()
        assert max_fixed_points(G) == 12
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "G",
        [
            # 34,226 networks on 2^20 states: folding their tables alone
            # would take tens of seconds and gigabytes.
            two_signed_chain(20),
            # No vertex reads itself, so none of its 114 sets per vertex
            # can be pruned: 114^5 networks to search.
            g(5, *((u, v, "+") for u in range(1, 6) for v in range(1, 6) if u != v)),
        ],
        ids=["two-signed-chain-n20", "complete-n5"],
    )
    def test_refuses_before_any_set_is_built(self, G, monkeypatch):
        folds = []
        value_mask = boolnet._value_mask

        def counted(*args):
            folds.append(args)
            return value_mask(*args)

        monkeypatch.setattr(boolnet, "_value_mask", counted)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="before the folds, exceed the family scan limit"):
            max_fixed_points(G)
        assert time.perf_counter() - start < 1.0
        assert folds == []

    def test_two_signed_chain_answers_on_few_states(self):
        assert max_fixed_points(two_signed_chain(6)) == 2

    def test_search_keeps_only_maximal_sets(self):
        sets = {0b0011, 0b0111, 0b1000, 0b1100, 0b0001}
        spent = []
        kept = boolnet._maximal_sets(sets, lambda ops, what: spent.append(ops))
        assert kept == [0b0111, 0b1100]
        # One distinct set of 3 bits, two of 2 bits and two of 1 bit: each
        # is tested against every larger one at most.
        assert spent == [2 * 1 + 2 * 3]


class TestMonotonicityLemmas:
    @given(networks_strategy())
    @settings(max_examples=40, deadline=None)
    def test_local_functions_monotone_under_leq(self, f):
        G = f.interaction_graph()
        states = list(all_states(f.n))
        for v in range(1, f.n + 1):
            for x in states:
                for y in states:
                    if leq_v(G, v, x, y):
                        assert evaluate(f, x)[v - 1] <= evaluate(f, y)[v - 1]

    @given(networks_strategy())
    @settings(max_examples=60, deadline=None)
    def test_consistent_sources_at_fixed_points(self, f):
        G = f.interaction_graph()
        sources = {v for v in G.vertices if not G.in_arcs(v)}
        for x in f.fixed_points():
            H = G.consistent_subgraph(x)
            assert {v for v in H.vertices if not H.in_arcs(v)} <= sources

    @given(networks_strategy())
    @settings(max_examples=60, deadline=None)
    def test_all_in_arcs_consistent_forces_agreement(self, f):
        G = f.interaction_graph()
        for x in all_states(f.n):
            H = G.consistent_subgraph(x)
            for v in range(1, f.n + 1):
                if G.in_arcs(v) and len(H.in_arcs(v)) == len(G.in_arcs(v)):
                    assert evaluate(f, x)[v - 1] == x[v - 1]

