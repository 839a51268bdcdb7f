"""Digraph kernels and their reading as Boolean-network fixed points.

A kernel is an independent vertex set K such that every vertex outside K
has an arc into K.  Encoding every arc as negative turns odd cycles into
negative cycles, so the no-odd-cycle existence theorem and its refinement
reuse the signed-graph machinery: the theorem's own condition is the
negative-walk test on the sign cover of D's vertex masks, and the
refinement is the existence arc rule's mask decision on the reversed
encoding's cover.
"""

from __future__ import annotations

from .boolnet import _FOLD_MAX_INPUTS, BooleanNetwork, LocalFunction, _state_masks
from .graphs import (
    DEFAULT_CYCLE_CAP,
    Digraph,
    _check_cap,
    _check_limit,
    _component_masks,
    _negative_walk,
    _set_bits,
)
from .structure import _existence_rule_holds

KERNEL_SCAN_LIMIT = 24
# The refusal of every subset scan, as ``_check_limit`` takes it.
_SUBSET_SCAN = ("subset scan", KERNEL_SCAN_LIMIT)
# Most truth-table rows ``kernel_indicators`` reads, summed over the
# vertices: 2^outdeg(v) each, or 2^n for a table wider than the fold limit,
# which is read once per state.  The complete 18-vertex digraph with loops
# needs 4,718,592 rows and takes about 1.5 s on a 2-core x86-64 VM.
KERNEL_TABLE_ROW_LIMIT = 1 << 23


def kernels(D: Digraph) -> list[frozenset[int]]:
    """All kernels of D by subset scan, in increasing bitmask order.

    Subset bit v-1 stands for vertex v.  The scan is word-parallel: with
    Y_v the set of subsets holding v, the kernels are the AND over v of
    Y_v XOR (OR of Y_w over the out-neighbors w of v).
    """
    _check_limit(D.n, *_SUBSET_SCAN)
    n = D.n
    masks = _state_masks(n)
    # Subset bit v-1 is state bit n-v, which the mask of vertex n+1-v reads.
    member = [0] + [masks[n + 1 - v] for v in range(1, n + 1)]
    hits = [0] * (n + 1)
    for u, v in D.arc_set:
        hits[u] |= member[v]
    found = masks[0]
    for v in range(1, n + 1):
        found &= member[v] ^ hits[v]
        if not found:
            break
    return [
        frozenset(v for v in range(1, n + 1) if (mask >> (v - 1)) & 1)
        for mask in _set_bits(found)
    ]


def richardson_condition(D: Digraph) -> bool:
    """No odd cycle (cycle parity = length parity); guarantees a kernel.

    Decided on D's neighbour masks, position v-1 for vertex v, with no
    graph built.  A loop is an odd cycle.  Read with every arc negative,
    an odd cycle is a negative cycle, so the sign cover of that reading
    switches copies on every arc, and each strong component of
    ``_component_masks`` is asked ``_negative_walk``.
    """
    n = D.n
    out = [0] * n
    into = [0] * n
    for u, v in D.arc_set:
        if u == v:
            return False
        out[u - 1] |= 1 << v - 1
        into[v - 1] |= 1 << u - 1
    step = [o << n for o in out] + out
    return not any(
        _negative_walk(step, comp, n)
        for comp in _component_masks(out, into)
        if comp & comp - 1  # one vertex without a loop has no cycle
    )


def generalized_condition(D: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """Every odd cycle can be cut so its tail keeps only even company.

    Precisely: every odd cycle of D has an arc (s -> t) such that D minus
    that arc has a non-trivial terminal strong component containing s and
    only even cycles.  Through the fixed-point correspondence (kernels are
    fixed points of a network wired along REVERSED arcs) this is exactly
    the at-least-one-fixed-point arc rule on the reversed, all-negative
    encoding, and it guarantees a kernel.  Decided by
    ``_existence_rule_holds`` on that encoding's sign cover, built from
    D's in-neighbour masks with no graph built: every arc switches the
    copy.  No cycle is enumerated, so ``cap`` is only refused below 0.
    """
    _check_cap(cap)
    n = D.n
    into = [0] * n
    for u, v in D.arc_set:
        into[v - 1] |= 1 << u - 1
    return _existence_rule_holds([i << n for i in into] + into, n)


def to_network(D: Digraph):
    """Network whose fixed points are exactly the kernel indicators.

    Component v is the conjunction of the negated OUT-neighbors of v
    (constant 1 when v has none): x is fixed iff x_v = 1 exactly when no
    out-neighbor is selected, which is the kernel condition pair.  The
    interaction graph is the reverse of D with all arcs negative.
    """
    # Row 0, where no out-neighbor is selected, is the only 1.
    return BooleanNetwork(
        [LocalFunction._from_bits(D.out_neighbors(v), 1) for v in range(1, D.n + 1)]
    )


def kernel_indicators(D: Digraph) -> set[frozenset[int]]:
    """Kernels decoded from the fixed points of the correspondence network.

    The table at v has 2^outdeg(v) rows, counted as 2^n past 10 inputs,
    where it is read once per state.  Refuses at once, with a ValueError,
    a digraph with more than KERNEL_SCAN_LIMIT (24) vertices or more than
    KERNEL_TABLE_ROW_LIMIT (2^23) rows in all.
    """
    _check_limit(D.n, *_SUBSET_SCAN)
    widths = (len(D.out_neighbors(v)) for v in range(1, D.n + 1))
    rows = sum(1 << (k if k <= _FOLD_MAX_INPUTS else D.n) for k in widths)
    if rows > KERNEL_TABLE_ROW_LIMIT:
        raise ValueError(
            f"{rows} truth-table rows exceed the limit {KERNEL_TABLE_ROW_LIMIT}"
        )
    f = to_network(D)
    return {
        frozenset(v for v in range(1, D.n + 1) if x[v - 1])
        for x in f.fixed_points()
    }
