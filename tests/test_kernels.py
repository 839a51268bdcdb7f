"""Kernels, the parity conditions and the fixed-point correspondence."""

import importlib
import random
import time

import pytest

from conftest import (
    as_all_negative,
    brute_kernels,
    iter_digraphs,
    reverse,
    signed_richardson_condition,
)

from signedbn.generators import random_digraph
from signedbn.kernels import (
    Digraph,
    generalized_condition,
    kernel_indicators,
    kernels,
    richardson_condition,
    to_network,
)
from signedbn.structure import existence_arc_rule

kernels_module = importlib.import_module("signedbn.kernels")


def d(n, *arcs):
    return Digraph(n, arcs)


def complete(n):
    """Every arc on 1..n, loops included."""
    return Digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)])


class TestDigraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            d(2, (1, 3))

    def test_reverse(self):
        assert reverse(d(3, (1, 2), (2, 3))) == d(3, (2, 1), (3, 2))

    def test_all_negative_encoding(self):
        S = as_all_negative(d(2, (1, 2), (2, 1)))
        assert all(a.sign == -1 for a in S.arcs)
        assert len(S.arcs) == 2


class TestKernels:
    def test_isolated_vertex(self):
        assert kernels(d(1)) == [frozenset({1})]

    def test_two_cycle(self):
        assert kernels(d(2, (1, 2), (2, 1))) == [frozenset({1}), frozenset({2})]

    def test_three_cycle_has_none(self):
        assert kernels(d(3, (1, 2), (2, 3), (3, 1))) == []

    def test_single_arc(self):
        assert kernels(d(2, (1, 2))) == [frozenset({2})]

    def test_loop_vertex_excluded(self):
        assert kernels(d(2, (1, 1), (1, 2))) == [frozenset({2})]

    def test_scan_limit(self):
        with pytest.raises(ValueError):
            kernels(Digraph(25))

    def test_no_vertices(self):
        assert kernels(Digraph(0)) == [frozenset()]

    def test_against_subset_oracle(self):
        rng = random.Random(14)
        for n in range(0, 11):
            for _ in range(15):
                # loops included: each of the n^2 arcs drawn alike
                D = random_digraph(n, arc_prob=rng.choice((0.1, 0.2, 0.35)), rng=rng)
                assert kernels(D) == brute_kernels(D)


class TestConditions:
    def test_acyclic(self):
        D = d(3, (1, 2), (2, 3))
        assert richardson_condition(D)
        assert generalized_condition(D)

    def test_three_cycle_fails_both(self):
        D = d(3, (1, 2), (2, 3), (3, 1))
        assert not richardson_condition(D)
        assert not generalized_condition(D)

    def test_even_cycle(self):
        D = d(2, (1, 2), (2, 1))
        assert richardson_condition(D)
        assert generalized_condition(D)

    def test_generalized_strictly_wider(self):
        # odd loop at 2 cut by its own arc: 2's strong component in the
        # reverse-encoded graph is the even 2-cycle, so the refinement
        # applies where the plain parity condition does not
        D = d(2, (1, 2), (2, 1), (2, 2))
        assert not richardson_condition(D)
        assert generalized_condition(D)
        assert kernels(D)


class TestOddCycleMasks:
    """``richardson_condition`` 2-colours D's strong components on masks;
    the oracle searches the all-negative encoding for a negative cycle."""

    def test_every_digraph_up_to_four_vertices(self):
        for n in range(5):
            for D in iter_digraphs(n):
                assert richardson_condition(D) == signed_richardson_condition(D), D.arcs

    def test_random_digraphs(self):
        rng = random.Random(25)
        for _ in range(21_000):
            D = random_digraph(rng.randint(1, 9), arc_prob=rng.choice((0.1, 0.2, 0.4)), rng=rng)
            assert richardson_condition(D) == signed_richardson_condition(D), D.arcs

    @pytest.mark.parametrize(
        "D,holds",
        [
            # An undirected triangle, but acyclic.
            (d(3, (1, 2), (2, 3), (1, 3)), True),
            # Two bipartite strong components, {1, 2} and {3, 4}; the arcs
            # 1 -> 3 and 2 -> 3 between them close an undirected triangle.
            (d(4, (1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 3)), True),
            (d(1, (1, 1)), False),
            (d(2, (1, 2), (2, 1)), True),
            # The 4-cycle 1 2 3 4 and the 2-cycle 1 4 are even; the
            # 3-cycle 1 2 4 is not.
            (d(4, (1, 2), (2, 3), (3, 4), (4, 1), (1, 4), (2, 4)), False),
        ],
    )
    def test_hand_cases(self, D, holds):
        assert richardson_condition(D) == signed_richardson_condition(D) == holds

    def test_builds_no_signed_digraph(self, signed_digraphs_built):
        for D in iter_digraphs(3):
            richardson_condition(D)
        assert signed_digraphs_built == []


class TestGeneralizedConditionGraph:
    """``generalized_condition`` decides the existence arc rule on the sign
    cover of D's reversed all-negative encoding, built from D's masks; the
    oracle builds that encoding and enumerates its cycles."""

    @staticmethod
    def _oracle(D):
        return existence_arc_rule(as_all_negative(reverse(D))).holds

    def test_every_digraph_up_to_four_vertices(self):
        held = 0
        for n in range(5):
            for D in iter_digraphs(n):
                holds = generalized_condition(D)
                assert holds == self._oracle(D), D.arcs
                held += holds
        assert 0 < held < sum(1 << n * n for n in range(5))

    def test_random_digraphs(self):
        rng = random.Random(31)
        held = 0
        for _ in range(5000):
            D = random_digraph(rng.randint(1, 9), arc_prob=rng.uniform(0.1, 0.5), rng=rng)
            holds = generalized_condition(D)
            assert holds == self._oracle(D), D.arcs
            held += holds
        assert 500 < held < 4500

    def test_builds_no_signed_digraph(self, signed_digraphs_built):
        for D in iter_digraphs(3):
            generalized_condition(D)
        assert signed_digraphs_built == []

    def test_reads_the_cycle_cap_only_to_refuse_a_negative_one(self):
        # The complete 8-vertex digraph has 16,064 cycles; cutting any arc
        # leaves its odd triangles in one strong component.
        D = Digraph(8, [(u, v) for u in range(1, 9) for v in range(1, 9) if u != v])
        assert not generalized_condition(D, 0)
        with pytest.raises(ValueError, match="^cycle cap -1 is below 0$"):
            generalized_condition(D, -1)


class TestNetworkCorrespondence:
    def test_two_cycle(self):
        f = to_network(d(2, (1, 2), (2, 1)))
        assert set(f.fixed_points()) == {(1, 0), (0, 1)}

    def test_isolated_vertex(self):
        f = to_network(d(1))
        assert f.fixed_points() == [(1,)]

    def test_three_cycle(self):
        f = to_network(d(3, (1, 2), (2, 3), (3, 1)))
        assert f.fixed_points() == []

    def test_asymmetric_arc(self):
        # the kernel of 1 -> 2 is {2}; the wiring must follow out-neighbors
        assert kernel_indicators(d(2, (1, 2))) == {frozenset({2})}

    def test_interaction_graph_is_reversed_all_negative(self):
        D = d(3, (1, 2), (2, 3), (1, 3))
        G = to_network(D).interaction_graph()
        assert G == as_all_negative(reverse(D))

    def test_exhaustive_correspondence_n3(self):
        for D in iter_digraphs(3):
            assert kernels(D) == brute_kernels(D)
            assert set(kernels(D)) == kernel_indicators(D)
            if richardson_condition(D):
                assert kernels(D)
            if generalized_condition(D):
                assert kernels(D)

    def test_refusals_come_before_any_table(self):
        # Out-degree 11 is past the fold limit: each table is read once per
        # state, 2^24 times, though it has only 2^11 rows.
        wide = d(24, *((u, (u + i) % 24 + 1) for u in range(1, 25) for i in range(11)))
        cases = ((complete(25), "scan limit"), (complete(24), "truth-table rows"),
                 (wide, "truth-table rows"))
        for D, reason in cases:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=reason):
                kernel_indicators(D)
            assert time.perf_counter() - start < 1

    def test_row_limit_admits_complete_18_vertex_digraph(self, monkeypatch):
        D = complete(18)
        assert kernel_indicators(D) == set(kernels(D)) == set()
        monkeypatch.setattr(kernels_module, "KERNEL_TABLE_ROW_LIMIT", 4_718_591)
        with pytest.raises(ValueError, match="4718592 truth-table rows"):
            kernel_indicators(D)

    def test_random_larger_digraphs(self):
        for seed in range(300):
            D = random_digraph(5, seed=seed)
            assert set(kernels(D)) == kernel_indicators(D)
            if generalized_condition(D):
                assert kernels(D)
