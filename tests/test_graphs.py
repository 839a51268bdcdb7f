"""Signed digraph data model and cycle machinery."""

import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedbn
from signedbn import falsify, structure
from conftest import (
    _bfs_reaches,
    all_signed_digraphs,
    all_simple_signed_digraphs,
    brute_cycles,
    g,
    neighbor_masks,
    sign_cover,
    tree_has_negative_cycle,
    tree_two_coloring,
)
from signedbn.generators import figure1, random_signed_digraph
from signedbn.graphs import (
    NEGATIVE,
    POSITIVE,
    Arc,
    CycleCapExceeded,
    SignedCycle,
    SignedDigraph,
    as_arc,
    enumerate_cycles,
    find_negative_cycle,
    has_negative_cycle,
    is_strong,
    reachable,
    scc,
)
from signedbn.graphs import _cycle_index, _masks


def graphs_strategy(max_n=5, simple=False):
    def build(n, seed):
        rng_graph = random_signed_digraph(n, seed=seed)
        if not simple:
            return rng_graph
        arcs = []
        seen = set()
        for a in rng_graph.arcs:
            if (a.source, a.target) not in seen:
                seen.add((a.source, a.target))
                arcs.append(a)
        return SignedDigraph(n, arcs)

    return st.builds(build, st.integers(1, max_n), st.integers(0, 10 ** 6))


class TestModel:
    def test_package_exports_resolve(self):
        assert all(hasattr(signedbn, name) for name in signedbn.__all__)

    def test_arc_views(self):
        G = g(3, (1, 2, "+"), (1, 2, "-"), (3, 2, "+"), (2, 2, "-"))
        assert len(G.in_arcs(2)) == 4
        assert G.in_neighbors(2) == (1, 2, 3)
        assert G.in_neighbors(2, POSITIVE) == (1, 3)
        assert G.in_neighbors(2, NEGATIVE) == (1, 2)

    def test_duplicate_arcs_collapse(self):
        assert g(2, (1, 2, "+"), (1, 2, "+")) == g(2, (1, 2, "+"))

    def test_bad_endpoint(self):
        with pytest.raises(ValueError):
            g(2, (1, 3, "+"))

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            g(2, (1, 2, 0))

    @staticmethod
    def _old_validation(vertices, arcs):
        """The ValueError text of the constructor's checks as they read
        before it checked endpoints while filling its adjacency lists."""
        try:
            if isinstance(vertices, int):
                if vertices < 0:
                    raise ValueError("vertex count must be non-negative")
                vertex_set = frozenset(range(1, vertices + 1))
            else:
                vertex_set = frozenset(int(v) for v in vertices)
                if any(v < 1 for v in vertex_set):
                    raise ValueError("vertex ids must be positive integers")
            arc_set = frozenset(as_arc(a) for a in arcs)
            for a in arc_set:
                if a.source not in vertex_set or a.target not in vertex_set:
                    raise ValueError(f"arc {a!r} has an endpoint outside the vertex set")
        except ValueError as e:
            return str(e)
        return None

    def test_error_messages_match_the_old_checks(self):
        rng = random.Random(25)
        signs = (POSITIVE, NEGATIVE, "+", "-", 0, 2, "*")
        for trial in range(3000):
            n = rng.randint(-1, 6)
            arcs = [
                (rng.randint(0, 8), rng.randint(0, 8), rng.choice(signs))
                for _ in range(rng.randint(0, 8))
            ]
            if trial % 2:
                vertices = rng.sample(range(0, 9), rng.randint(0, 6))
            else:
                vertices = n
            expected = self._old_validation(vertices, arcs)
            if expected is None:
                SignedDigraph(vertices, arcs)
            else:
                with pytest.raises(ValueError) as raised:
                    SignedDigraph(vertices, arcs)
                assert str(raised.value) == expected

    @pytest.mark.parametrize("sign", ["*", "", 0, 2, -2, None])
    def test_as_arc_sign_errors(self, sign):
        with pytest.raises(ValueError, match=f"^bad sign {re.escape(repr(sign))}$"):
            as_arc((1, 2, sign))

    def test_equality_and_hash(self):
        a = g(3, (1, 2, "+"), (2, 3, "-"))
        b = g(3, (2, 3, "-"), (1, 2, "+"))
        assert a == b and hash(a) == hash(b)
        assert a != g(3, (1, 2, "+"))


class TestLazyArcTuples:
    """A graph sorts its per-vertex arc tuples when one is first read; the
    questions answered on its masks never read them."""

    def test_mask_readers_leave_them_unsorted(self):
        # Closed under reversal, so ``two_coloring`` reads G's own layout.
        G = g(3, (1, 2, "+"), (2, 1, "+"), (2, 3, "-"), (3, 2, "-"), (3, 3, "+"))
        assert not has_negative_cycle(G)
        assert is_strong(G)
        assert structure._existence_verdict(G).holds
        assert reachable(G, (1,), (), 3)
        assert structure.two_coloring(G) == (0, 0, 1)
        assert G._arc_lists is None
        assert G.out_arcs(2) == (Arc(2, 1, POSITIVE), Arc(2, 3, NEGATIVE))
        assert G._arc_lists is not None

    def test_a_pair_draw_and_its_thm2_and_thm5_checks_leave_them_unsorted(self):
        rng = random.Random(40)
        arcs = 0
        for _ in range(300):
            G, f = falsify._draw_pair(rng, falsify._UNCAPPED_N, 4)
            for theorem in ("thm2", "thm5"):
                falsify.REGISTRY[theorem].check(G, f)
            assert G._arc_lists is None
            arcs += len(G.arc_set)
        assert arcs > 300


class TestSubgraphCalculus:
    def test_induced_keeps_original_ids(self):
        G = figure1(5)
        H = G.induced({1, 2, 3})
        assert H.vertices == (1, 2, 3)
        assert H.arc_set == {
            Arc(1, 2, 1), Arc(2, 3, 1), Arc(3, 1, 1), Arc(3, 3, -1),
        }

    def test_induced_all_and_empty(self):
        G = figure1(5)
        assert G.induced(G.vertices) == G
        assert G.induced(()).n == 0

    def test_induced_invalid_id(self):
        with pytest.raises(ValueError):
            figure1(5).induced({9})

    def test_remove_incoming(self):
        G = figure1(5)
        H = G.remove_incoming({2})
        assert H.vertex_set == G.vertex_set
        assert H.arc_set == G.arc_set - {Arc(1, 2, 1), Arc(5, 2, 1)}
        assert G.remove_incoming(()) == G
        loop = g(1, (1, 1, "+"))
        assert loop.remove_incoming({1}).arc_set == frozenset()

    def test_delete_arc_keeps_vertices(self):
        G = g(2, (1, 2, "+"), (2, 1, "+"))
        H = G.delete((1, 2, "+"))
        assert H.vertex_set == {1, 2}
        assert H.arcs == (Arc(2, 1, 1),)
        with pytest.raises(ValueError):
            H.delete((1, 2, "+"))

    def test_delete_vertex(self):
        G = figure1(5)
        H = G.delete(2)
        assert H.vertex_set == {1, 3, 4, 5}
        cycles = enumerate_cycles(H)
        assert [c.sign for c in cycles] == [NEGATIVE, NEGATIVE]

    def test_delete_loop_keeps_vertex(self):
        G = g(1, (1, 1, "-"))
        H = G.delete((1, 1, "-"))
        assert H.vertex_set == {1} and not H.arc_set

    def test_symmetrize(self):
        G = g(2, (1, 2, "+"))
        assert G.symmetrize().arc_set == {Arc(1, 2, 1), Arc(2, 1, 1)}
        loop = g(1, (1, 1, "-"))
        assert loop.symmetrize() == loop

    @given(graphs_strategy())
    def test_symmetrize_idempotent(self, G):
        H = G.symmetrize()
        assert H.symmetrize() == H

    def test_symmetrize_of_a_symmetric_graph_is_that_graph(self):
        for G in all_signed_digraphs(2):
            H = G.symmetrize()
            assert H.symmetrize() is H
            reversal_closed = all(Arc(a.target, a.source, a.sign) in G.arc_set for a in G.arc_set)
            assert (H is G) == reversal_closed

    @staticmethod
    def assert_symmetrize_matches_the_constructor(G):
        H = G.symmetrize()
        rebuilt = SignedDigraph(
            G.vertex_set, G.arc_set | {Arc(a.target, a.source, a.sign) for a in G.arc_set}
        )
        assert H == rebuilt and hash(H) == hash(rebuilt)
        assert H.vertices == rebuilt.vertices and H.arcs == rebuilt.arcs
        for v in rebuilt.vertices:
            assert H.in_arcs(v) == rebuilt.in_arcs(v)
            assert H.out_arcs(v) == rebuilt.out_arcs(v)

    def test_symmetrize_matches_the_constructor_exhaustively(self):
        for n in (0, 1, 2):
            for G in all_signed_digraphs(n):
                self.assert_symmetrize_matches_the_constructor(G)

    def test_symmetrize_matches_the_constructor_on_induced_subgraphs(self):
        # ``induced`` keeps the original ids, so the vertices need not be
        # contiguous or start at 1.
        rng = random.Random(31)
        for _ in range(300):
            G = random_signed_digraph(rng.randint(1, 9), rng.uniform(0.1, 0.6), rng=rng)
            kept = [v for v in G.vertices if rng.random() < 0.6]
            self.assert_symmetrize_matches_the_constructor(G.induced(kept))

    def test_consistent_subgraph_examples(self):
        G = g(2, (1, 2, "+"))
        assert G.consistent_subgraph((0, 0)) == G
        assert not G.consistent_subgraph((0, 1)).arc_set
        N = g(2, (1, 2, "-"))
        assert N.consistent_subgraph((0, 1)) == N

    def test_consistent_subgraph_short_state(self):
        with pytest.raises(ValueError):
            g(2, (1, 2, "+")).consistent_subgraph((0,))

    @given(graphs_strategy(), st.integers(0, 2 ** 5 - 1))
    def test_consistent_subgraph_cycles_positive(self, G, bits):
        x = tuple((bits >> i) & 1 for i in range(G.n))
        H = G.consistent_subgraph(x)
        assert H.arc_set <= G.arc_set
        assert all(c.sign == POSITIVE for c in enumerate_cycles(H))


class TestPathsAndCycles:
    def test_cycle_canonical_rotation(self):
        a = SignedCycle([(2, 3, "+"), (3, 1, "+"), (1, 2, "+")])
        b = SignedCycle([(1, 2, "+"), (2, 3, "+"), (3, 1, "+")])
        assert a == b and hash(a) == hash(b)
        assert a.vertices == (1, 2, 3)

    def test_cycle_sign_is_parity_of_negative_arcs(self):
        c = SignedCycle([(1, 2, "-"), (2, 1, "-")])
        assert c.sign == POSITIVE
        c = SignedCycle([(1, 2, "-"), (2, 1, "+")])
        assert c.sign == NEGATIVE

    def test_cycle_validation(self):
        with pytest.raises(ValueError):
            SignedCycle([(1, 2, "+")])
        with pytest.raises(ValueError):
            SignedCycle([(1, 2, "+"), (3, 1, "+")])
        with pytest.raises(ValueError):
            SignedCycle([])


def _reached(G, v):
    seen = {v}
    stack = [v]
    while stack:
        for a in G.out_arcs(stack.pop()):
            if a.target not in seen:
                seen.add(a.target)
                stack.append(a.target)
    return seen


def _mutual_reachability_components(G):
    """{(component, initial, terminal, nontrivial)}: each component is the
    set of vertices that reach a vertex and are reached by it."""
    reached = {v: _reached(G, v) for v in G.vertices}
    found = set()
    for v in G.vertices:
        comp = frozenset(w for w in reached[v] if v in reached[w])
        ins = [a.source for w in comp for a in G.in_arcs(w)]
        outs = [a.target for w in comp for a in G.out_arcs(w)]
        found.add((
            comp,
            all(u in comp for u in ins),
            all(t in comp for t in outs),
            any(t in comp for t in outs),
        ))
    return found


class TestScc:
    def test_positive_two_cycle_single_component(self):
        dec = scc(g(2, (1, 2, "+"), (2, 1, "+")))
        assert dec.components == (frozenset({1, 2}),)
        assert dec.initial == (True,) and dec.terminal == (True,)
        assert dec.nontrivial == (True,)

    def test_single_arc_two_trivial_components(self):
        dec = scc(g(2, (1, 2, "+")))
        assert dec.components == (frozenset({1}), frozenset({2}))
        assert dec.initial == (True, False)
        assert dec.terminal == (False, True)
        assert dec.nontrivial == (False, False)

    def test_figure1_is_one_strong_component(self):
        dec = scc(figure1(5))
        assert dec.components == (frozenset({1, 2, 3, 4, 5}),)
        assert is_strong(figure1(5))

    def test_loop_makes_component_nontrivial(self):
        dec = scc(g(1, (1, 1, "-")))
        assert dec.nontrivial == (True,)

    @given(graphs_strategy())
    @settings(max_examples=60)
    def test_topological_order(self, G):
        dec = scc(G)
        index = {v: i for i, comp in enumerate(dec.components) for v in comp}
        for a in G.arcs:
            assert index[a.source] <= index[a.target]
        assert sorted(v for comp in dec.components for v in comp) == list(G.vertices)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_mutual_reachability(self, n):
        graphs = all_signed_digraphs(n) if n <= 2 else all_simple_signed_digraphs(n)
        for G in graphs:
            dec = scc(G)
            flags = zip(dec.components, dec.initial, dec.terminal, dec.nontrivial)
            assert set(flags) == _mutual_reachability_components(G)
            assert len(dec) == len(set(dec.components))
            assert is_strong(G) == (len(dec) <= 1)

    def test_reversed_path_cost(self):
        n = 1000
        G = SignedDigraph(n, [(v + 1, v, "+") for v in range(1, n)])
        start = time.perf_counter()
        dec = scc(G)
        assert time.perf_counter() - start < 0.5
        assert dec.components == tuple(frozenset({v}) for v in range(n, 0, -1))


class TestCycleEnumeration:
    def test_figure1_cycles(self):
        cycles = enumerate_cycles(figure1(5))
        assert [(c.vertices, c.sign) for c in cycles] == [
            ((1, 2, 3), POSITIVE),
            ((2, 4, 5), POSITIVE),
            ((3,), NEGATIVE),
            ((5,), NEGATIVE),
        ]

    def test_acyclic(self):
        assert enumerate_cycles(g(3, (1, 2, "+"), (2, 3, "-"))) == []

    def test_two_cycle_plus_loop(self):
        G = g(2, (1, 2, "+"), (2, 1, "+"), (1, 1, "-"))
        assert [c.sign for c in enumerate_cycles(G)] == [NEGATIVE, POSITIVE]

    def test_parallel_signs_give_distinct_cycles(self):
        G = g(2, (1, 2, "+"), (1, 2, "-"), (2, 1, "+"))
        cycles = enumerate_cycles(G)
        assert len(cycles) == 2
        assert sorted(c.sign for c in cycles) == [NEGATIVE, POSITIVE]

    def test_cap_overflow(self):
        G = g(2, (1, 2, "+"), (2, 1, "+"), (1, 1, "-"))
        with pytest.raises(CycleCapExceeded):
            enumerate_cycles(G, cap=1)
        assert len(enumerate_cycles(G, cap=2)) == 2

    def test_negative_cap_refused_before_and_after_the_cache_fills(self):
        G = g(2, (1, 2, "+"))  # acyclic: no count can exceed any cap >= 0
        for call in (
            lambda: enumerate_cycles(G, cap=-1),
            lambda: _cycle_index(G, -1),
            lambda: structure.analyze(G, cap=-1),
            lambda: falsify.REGISTRY["harary"].check(G, cap=-1),
        ):
            with pytest.raises(ValueError, match="^cycle cap -1 is below 0$"):
                call()
            assert enumerate_cycles(G, cap=0) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_brute_force_exhaustively(self, n):
        for G in all_signed_digraphs(n):
            got = {tuple(c.arcs) for c in enumerate_cycles(G)}
            assert got == brute_cycles(G)

    def test_found_cycles_equal_checked_construction(self):
        for G in all_simple_signed_digraphs(3):
            for c in enumerate_cycles(G):
                checked = SignedCycle(c.arcs)
                assert (checked.arcs, checked.sign, checked.vertex_set) == (
                    c.arcs, c.sign, c.vertex_set
                )
                assert c.vertex_set == frozenset(c.vertices)

    @given(graphs_strategy(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_random(self, G):
        got = {tuple(c.arcs) for c in enumerate_cycles(G)}
        assert got == brute_cycles(G)

    @given(graphs_strategy())
    @settings(max_examples=40, deadline=None)
    def test_each_cycle_sign_is_arc_parity(self, G):
        for c in enumerate_cycles(G):
            negatives = sum(1 for a in c.arcs if a.sign == NEGATIVE)
            assert c.sign == (POSITIVE if negatives % 2 == 0 else NEGATIVE)


class TestCycleIndex:
    """The incidence masks, against the cycle list they index."""

    @staticmethod
    def members(mask):
        return {j for j, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"}

    def assert_masks_match(self, G):
        index = _cycle_index(G)
        cycles = enumerate_cycles(G)
        vertices, arcs = G.vertices, G.arcs
        for k, a in enumerate(arcs):
            expected = {j for j, c in enumerate(cycles) if a in c.arcs}
            assert self.members(index.arc_cycles[k]) == expected
        for p, v in enumerate(vertices):
            expected = {j for j, c in enumerate(cycles) if v in c.vertex_set}
            assert self.members(index.vertex_cycles[p]) == expected
        for j, c in enumerate(cycles):
            assert tuple(arcs[index.arc_number[a]] for a in c.arcs) == c.arcs
            assert {vertices[p] for p in self.members(index.cycle_vertices[j])} == c.vertex_set
        positives = {j for j, c in enumerate(cycles) if c.sign == POSITIVE}
        assert self.members(index.positives) == positives
        assert self.members(index.negatives) == set(range(len(cycles))) - positives

    def test_small_graphs(self):
        for seed in range(40):
            self.assert_masks_match(random_signed_digraph(1 + seed % 6, seed=seed))
        self.assert_masks_match(SignedDigraph(0))
        self.assert_masks_match(SignedDigraph([2, 5, 9], [(5, 9, 1), (9, 5, -1), (9, 5, 1), (2, 2, -1)]))

    def test_masks_span_several_build_chunks(self):
        arcs = [(u, v, 1 if (u * v) % 3 else -1) for u in range(1, 9) for v in range(1, 9) if u != v]
        G = SignedDigraph(8, arcs)  # 16,064 cycles
        self.assert_masks_match(G)

    def test_cycles_and_index_of_the_complete_8_vertex_digraph_are_small(self):
        G = SignedDigraph(8, [(u, v, 1) for u in range(1, 9) for v in range(1, 9) if u != v])
        tracemalloc.start()
        try:
            cycles = enumerate_cycles(G)
            index = _cycle_index(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cycles) == len(index.cycles) == 16_064
        assert peak < 5 << 20


class TestNegativeCycleDetection:
    def test_examples(self):
        assert has_negative_cycle(g(1, (1, 1, "-")))
        assert not has_negative_cycle(g(2, (1, 2, "+"), (2, 1, "+")))
        assert has_negative_cycle(figure1(5))

    def test_witness_is_a_negative_cycle_of_the_graph(self):
        G = figure1(5)
        w = find_negative_cycle(G)
        assert w.sign == NEGATIVE
        assert set(w.arcs) <= G.arc_set
        assert find_negative_cycle(g(2, (1, 2, "+"), (2, 1, "+"))) is None

    def test_agrees_with_enumeration_exhaustively(self):
        graphs = itertools.chain(
            all_signed_digraphs(1), all_signed_digraphs(2), all_simple_signed_digraphs(3)
        )
        for G in graphs:
            expected = any(c.sign == NEGATIVE for c in enumerate_cycles(G))
            assert has_negative_cycle(G) == expected
            w = find_negative_cycle(G)
            if expected:
                assert w.sign == NEGATIVE and set(w.arcs) <= G.arc_set
            else:
                assert w is None

    @given(graphs_strategy(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_enumeration_random(self, G):
        expected = any(c.sign == NEGATIVE for c in enumerate_cycles(G))
        assert has_negative_cycle(G) == expected
        if expected:
            w = find_negative_cycle(G)
            assert w.sign == NEGATIVE and set(w.arcs) <= G.arc_set

    @given(graphs_strategy(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_strong_graph_matches_symmetrization(self, G):
        if is_strong(G):
            assert has_negative_cycle(G) == has_negative_cycle(G.symmetrize())


def _matches_search_trees(G, rng):
    """The sign-cover answers on G against the search-tree oracles, and
    ``reachable`` from random sources avoiding random vertices against a
    plain search."""
    negative = tree_has_negative_cycle(G)
    assert has_negative_cycle(G) == negative, G.arcs
    assert structure.two_coloring(G) == tree_two_coloring(G), G.arcs
    w = find_negative_cycle(G)
    if negative:
        # A SignedCycle checks that its arcs chain, close and repeat no vertex.
        assert isinstance(w, SignedCycle) and w.sign == NEGATIVE, G.arcs
        assert set(w.arcs) <= G.arc_set, G.arcs
    else:
        assert w is None, G.arcs
    if G.vertices:
        target = rng.choice(G.vertices)
        sources = [v for v in G.vertices if rng.random() < 0.4]
        forbidden = [v for v in G.vertices if v != target and rng.random() < 0.3]
        expected = _bfs_reaches(G, sources, set(forbidden), target)
        assert reachable(G, sources, forbidden, target) == expected, G.arcs


def _drawn_graphs(rng, count):
    """``count`` random graphs on 1 to 9 vertices, drawn from ``rng``, with
    loops and parallel arcs of both signs; after a fifth of the draws a
    vertex is deleted, which leaves ids that are not contiguous."""
    for _ in range(count):
        n = rng.randint(1, 9)
        density = rng.random() / 2
        arcs = [
            (u, v, s)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            for s in "+-"
            if rng.random() < density
        ]
        G = SignedDigraph(n, arcs)
        if rng.random() < 0.2:
            G = G.delete(rng.randint(1, n))
        yield G


class TestSignCover:
    def test_matches_search_trees_exhaustively(self):
        rng = random.Random(11)
        graphs = itertools.chain(
            *(all_signed_digraphs(n) for n in range(3)), all_simple_signed_digraphs(3)
        )
        for G in graphs:
            _matches_search_trees(G, rng)

    def test_matches_search_trees_random(self):
        rng = random.Random(12)
        gapped = 0
        for G in _drawn_graphs(rng, 5000):
            gapped += G.vertices != tuple(range(1, G.n + 1))
            _matches_search_trees(G, rng)
        assert gapped > 500


class TestMaskLayout:
    """``_masks`` lays out each graph once, as the two builders it replaced
    did between them, and no reader changes the cached layout."""

    @staticmethod
    def assert_matches_the_builders(G):
        position, out, into = neighbor_masks(G)
        assert _masks(G) == (position, out, into, sign_cover(G)[1]), G.arcs
        assert _masks(G) is G._mask_cache  # cached, not rebuilt

    def test_every_small_graph(self):
        graphs = itertools.chain(
            *(all_signed_digraphs(n) for n in range(3)), all_simple_signed_digraphs(3)
        )
        for G in graphs:
            self.assert_matches_the_builders(G)

    def test_random_graphs(self):
        gapped = 0
        for G in _drawn_graphs(random.Random(33), 5000):
            gapped += G.vertices != tuple(range(1, G.n + 1))
            self.assert_matches_the_builders(G)
        assert gapped > 500

    # Every library reader of the layout, on one graph.
    READERS = (
        structure._existence_verdict,
        has_negative_cycle,
        find_negative_cycle,
        structure.two_coloring,
        lambda G: reachable(G, G.vertices[:1], (), G.vertices[-1]),
        is_strong,
        structure.no_fixed_point_condition,
        structure.analyze,
    )

    @pytest.mark.parametrize("G", [
        # The existence rule holds by cutting the two negative arcs, so
        # its mask decision clears bits of its copy of the layout.
        g(5, (1, 2, "+"), (2, 3, "-"), (3, 1, "+"), (2, 4, "+"), (4, 5, "-"), (5, 2, "+"),
          (3, 3, "+"), (5, 5, "+")),
        figure1(7),
        random_signed_digraph(8, seed=3),
        # Closed under reversal, so ``two_coloring`` reads G's own layout.
        g(3, (1, 2, "+"), (2, 1, "+"), (2, 3, "-"), (3, 2, "-"), (2, 3, "+"), (3, 2, "+")),
    ])
    def test_no_reader_changes_the_cached_layout(self, G):
        fresh = _masks(SignedDigraph(G.vertices, G.arcs))
        for read in self.READERS:
            read(G)
            assert G._mask_cache == fresh, read


class TestReachable:
    def test_trivial_path(self):
        G = g(1)
        assert reachable(G, {1}, (), 1)

    def test_forbidden_start(self):
        G = g(2, (1, 2, "+"))
        assert not reachable(G, {1}, {1}, 2)
        assert reachable(G, {1}, (), 2)

    def test_figure1_shielded_vertex(self):
        G = figure1(5)
        assert not reachable(G, {2, 4, 5}, {1, 2}, 3)

    def test_forbidden_target_rejected(self):
        with pytest.raises(ValueError):
            reachable(g(1), {1}, {1}, 1)

    def test_agrees_with_arc_relaxation_random(self):
        # oracle: grow the reached set over G's arc list until it is stable
        def oracle(G, sources, forbidden, target):
            reached = set(sources) - set(forbidden)
            grew = True
            while grew:
                grew = False
                for a in G.arcs:
                    if a.source in reached and a.target not in reached | set(forbidden):
                        reached.add(a.target)
                        grew = True
            return target in reached

        rng = random.Random(8)
        for _ in range(200):
            G = random_signed_digraph(rng.randint(1, 6), seed=rng.randrange(10 ** 6))
            target = rng.choice(G.vertices)
            sources = [v for v in G.vertices if rng.random() < 0.4]
            forbidden = [v for v in G.vertices if v != target and rng.random() < 0.3]
            expected = oracle(G, sources, forbidden, target)
            assert reachable(G, sources, forbidden, target) == expected
