"""Instance generators: the triangle chain, double cycles, random graphs."""

import itertools
import random

import pytest

from conftest import signed_arcs
from signedbn.generators import (
    double_cycle,
    figure1,
    iter_simple_signed_digraphs,
    random_digraph,
    random_signed_digraph,
)
from signedbn.graphs import (
    NEGATIVE,
    POSITIVE,
    Arc,
    Digraph,
    SignedDigraph,
    enumerate_cycles,
    is_strong,
)


class TestFigure1:
    def test_five_vertex_arc_list(self):
        assert figure1(5).arc_set == {
            Arc(1, 2, 1), Arc(2, 3, 1), Arc(3, 1, 1),
            Arc(2, 4, 1), Arc(4, 5, 1), Arc(5, 2, 1),
            Arc(3, 3, -1), Arc(5, 5, -1),
        }

    def test_three_vertex(self):
        G = figure1(3)
        assert len(G.arcs) == 4
        signs = sorted(c.sign for c in enumerate_cycles(G))
        assert signs == [NEGATIVE, POSITIVE]

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_family_shape(self, n):
        G = figure1(n)
        cycles = enumerate_cycles(G)
        triangles = [c for c in cycles if c.sign == POSITIVE]
        loops = [c for c in cycles if c.sign == NEGATIVE]
        assert len(triangles) == (n - 1) // 2
        assert all(len(c) == 3 for c in triangles)
        assert {c.vertices[0] for c in loops} == set(range(3, n + 1, 2))
        assert is_strong(G)

    def test_rejects_even_or_small(self):
        for bad in (1, 2, 4):
            with pytest.raises(ValueError):
                figure1(bad)


class TestDoubleCycle:
    def test_two_cycle_with_loop(self):
        G = double_cycle(2, POSITIVE, 1, NEGATIVE)
        assert G.arc_set == {Arc(1, 2, 1), Arc(2, 1, 1), Arc(1, 1, -1)}

    def test_shares_exactly_one_vertex(self):
        G = double_cycle(3, POSITIVE, 4, NEGATIVE)
        cycles = enumerate_cycles(G)
        assert len(cycles) == 2
        first, second = cycles
        assert set(first.vertices) & set(second.vertices) == {1}
        assert sorted(c.sign for c in cycles) == [NEGATIVE, POSITIVE]
        assert G.n == 6

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            double_cycle(0, POSITIVE, 2, POSITIVE)


class TestRandom:
    def test_seed_determinism(self):
        a = random_signed_digraph(6, seed=42)
        b = random_signed_digraph(6, seed=42)
        assert a == b
        assert a != random_signed_digraph(6, seed=43)

    def test_sign_probability_extremes(self):
        all_neg = random_signed_digraph(6, arc_prob=0.9, neg_prob=1.0, seed=1)
        assert all(a.sign == NEGATIVE for a in all_neg.arcs)
        all_pos = random_signed_digraph(6, arc_prob=0.9, neg_prob=0.0, seed=1)
        assert all(a.sign == POSITIVE for a in all_pos.arcs)

    def test_arc_records_match_a_triple_built_copy(self):
        # Both generators against their loops as written before they bound
        # rng.random and computed each probability once: the same graph from
        # the same draws, and the rng left in the same state.
        settings = [(None, 0.5, 1000)] + [
            (arc_prob, neg_prob, 300)
            for arc_prob, neg_prob in [(0.0, 0.5), (1.0, 0.5), (0.3, 0.0), (0.3, 1.0), (1.0, 1.0)]
        ]
        for (arc_prob, neg_prob, seeds), n in itertools.product(settings, range(1, 9)):
            for seed in range(seeds):
                rng, twin = random.Random(seed), random.Random(seed)
                p, arcs = 2.0 / n if arc_prob is None else arc_prob, []
                for u in range(1, n + 1):
                    for v in range(1, n + 1):
                        if twin.random() < p * (1.0 - neg_prob):
                            arcs.append((u, v, POSITIVE))
                        if twin.random() < p * neg_prob:
                            arcs.append((u, v, NEGATIVE))
                G = random_signed_digraph(n, arc_prob, neg_prob, rng=rng)
                assert G == SignedDigraph(n, arcs)
                assert rng.random() == twin.random()
                pairs = [
                    (u, v)
                    for u in range(1, n + 1)
                    for v in range(1, n + 1)
                    if twin.random() < p
                ]
                assert random_digraph(n, arc_prob, rng=rng) == Digraph(n, pairs)
                assert rng.random() == twin.random()

    def test_arcs_match_the_arc_list_draw(self):
        # Over arc and sign probabilities, the extremes included: the graph
        # that the constructor builds from the arcs the arc-list loop draws,
        # arc for arc in each adjacency, and the rng left in the same state.
        rng = random.Random(27)
        for i in range(900):
            n = i % 9
            arc_prob = (None, 0.0, 1.0, rng.random())[i % 4]
            neg_prob = (0.0, 1.0, 0.5, rng.random(), rng.random())[i % 5]
            seed = rng.randrange(10 ** 6)
            drawn, twin = random.Random(seed), random.Random(seed)
            G = random_signed_digraph(n, arc_prob, neg_prob, rng=drawn)
            p = (2.0 / n if n else 0.0) if arc_prob is None else arc_prob
            H = SignedDigraph(n, signed_arcs(n, p, neg_prob, twin))
            assert drawn.getstate() == twin.getstate()
            assert G == H and hash(G) == hash(H) and G.vertices == H.vertices
            assert [G.in_arcs(v) for v in H.vertices] == [H.in_arcs(v) for v in H.vertices]
            assert [G.out_arcs(v) for v in H.vertices] == [H.out_arcs(v) for v in H.vertices]

    def test_negative_vertex_count_raises_after_the_probabilities(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            random_signed_digraph(-1, rng=rng)
        assert rng.getstate() == state
        with pytest.raises(ValueError, match="^arc_prob=2.0 is outside"):
            random_signed_digraph(-1, 2.0)

    def test_random_digraph_matches_the_validating_constructor(self):
        # The digraph built from the drawn out-lists, against the
        # constructor on the arcs of the same draws, at each arc_prob.
        rng = random.Random(31)
        for i in range(1300):
            n, arc_prob = i % 13, (None, 0.0, 0.3, 1.0)[i % 4]
            seed = rng.randrange(10 ** 6)
            drawn, twin = random.Random(seed), random.Random(seed)
            D = random_digraph(n, arc_prob, rng=drawn)
            p = (2.0 / n if n else 0.0) if arc_prob is None else arc_prob
            E = Digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                            if twin.random() < p])
            assert drawn.getstate() == twin.getstate()
            assert D == E and hash(D) == hash(E) and D.n == E.n and D.arcs == E.arcs
            assert [D.out_neighbors(v) for v in range(1, n + 1)] == [
                E.out_neighbors(v) for v in range(1, n + 1)
            ]

    def test_random_digraph_refuses_a_negative_vertex_count_after_the_probability(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            random_digraph(-1, rng=rng)
        assert rng.getstate() == state
        with pytest.raises(ValueError, match="^arc_prob=2.0 is outside"):
            random_digraph(-1, 2.0)

    def test_no_vertices(self):
        assert random_signed_digraph(0, seed=1).n == 0
        assert random_digraph(0, seed=1).n == 0

    @pytest.mark.parametrize("arc_prob,neg_prob", [(1.5, 0.5), (-0.1, 0.5), (0.5, 2.0)])
    def test_probability_out_of_range(self, arc_prob, neg_prob):
        with pytest.raises(ValueError):
            random_signed_digraph(4, arc_prob=arc_prob, neg_prob=neg_prob, seed=1)
        if neg_prob == 0.5:
            with pytest.raises(ValueError):
                random_digraph(4, arc_prob=arc_prob, seed=1)


class TestExhaustiveIterators:
    def test_simple_graph_counts(self):
        assert sum(1 for _ in iter_simple_signed_digraphs(1)) == 3
        assert sum(1 for _ in iter_simple_signed_digraphs(2)) == 81

    def test_no_parallel_pairs(self):
        for G in iter_simple_signed_digraphs(2):
            pairs = [(a.source, a.target) for a in G.arcs]
            assert len(pairs) == len(set(pairs))
