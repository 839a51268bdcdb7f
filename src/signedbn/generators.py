"""Instance generators: the chained-triangle family, double cycles, random graphs."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .boolnet import _NEG_ONLY, _POS_ONLY
from .graphs import NEGATIVE, POSITIVE, Arc, Digraph, SignedDigraph


def figure1(n: int) -> SignedDigraph:
    """Chain of positive triangles with a negative loop on every odd vertex >= 3.

    The first triangle sits on (1,2,3); triangle t >= 2 sits on
    (2(t-1), 2t, 2t+1) and shares its first vertex with the previous one.
    Requires odd n >= 3.  Despite holding positive cycles through every
    vertex, every triangle can be cut at its loop-carrying vertex, which
    keeps the number of consistent fixed points at one.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    arcs = [(1, 2, POSITIVE), (2, 3, POSITIVE), (3, 1, POSITIVE)]
    for t in range(2, (n - 1) // 2 + 1):
        a, b, c = 2 * (t - 1), 2 * t, 2 * t + 1
        arcs += [(a, b, POSITIVE), (b, c, POSITIVE), (c, a, POSITIVE)]
    arcs += [(v, v, NEGATIVE) for v in range(3, n + 1, 2)]
    return SignedDigraph(n, arcs)


def double_cycle(len1: int, sign1, len2: int, sign2) -> SignedDigraph:
    """Two cycles of the given lengths and signs sharing exactly vertex 1.

    Each cycle carries its sign on the closing arc back to vertex 1 and
    positive arcs elsewhere; a length-1 cycle is a loop at vertex 1.
    """
    if len1 < 1 or len2 < 1:
        raise ValueError("cycle lengths must be at least 1")
    arcs = []
    arcs += _cycle_arcs(1, range(2, len1 + 1), sign1)
    arcs += _cycle_arcs(1, range(len1 + 1, len1 + len2), sign2)
    n = len1 + len2 - 1
    return SignedDigraph(n, arcs)


def _cycle_arcs(anchor: int, others, closing_sign) -> list:
    others = list(others)
    if not others:
        return [(anchor, anchor, closing_sign)]
    arcs = []
    prev = anchor
    for v in others:
        arcs.append((prev, v, POSITIVE))
        prev = v
    arcs.append((prev, anchor, closing_sign))
    return arcs


def random_signed_digraph(
    n: int,
    arc_prob: float | None = None,
    neg_prob: float = 0.5,
    seed=None,
    rng: random.Random | None = None,
) -> SignedDigraph:
    """Draw each of the 2n^2 possible signed arcs independently.

    A positive arc appears with probability arc_prob * (1 - neg_prob) and a
    negative one with arc_prob * neg_prob, so arc_prob is the expected arc
    density per ordered vertex pair; it defaults to 2/n.  A probability
    given outside [0, 1], then a negative n, raises ValueError.
    """
    arc_prob = _arc_prob(n, arc_prob, neg_prob)
    if rng is None:
        rng = random.Random(seed)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return _signed_digraph(_draw_input_signs(n, arc_prob, neg_prob, rng))


def _draw_input_signs(
    n: int, arc_prob: float, neg_prob: float, rng: random.Random
) -> list[dict[int, int]]:
    """The arcs ``random_signed_digraph`` draws, per target 1..n: each
    source of its in-arcs, in increasing order, and the signs it brings in
    ``_input_signs``' codes, _POS_ONLY, _NEG_ONLY or both ORed.

    Draw order: per ordered pair (u, v), u then v increasing, a positive
    arc with probability arc_prob * (1 - neg_prob), then a negative one
    with arc_prob * neg_prob.  The values of one target, in order, are its
    ``_signature_index`` key.
    """
    positive = arc_prob * (1.0 - neg_prob)
    negative = arc_prob * neg_prob
    draw = rng.random
    into: list[dict[int, int]] = [{} for _ in range(n)]
    for u in range(1, n + 1):
        for signs in into:
            if draw() < positive:
                signs[u] = _POS_ONLY | (_NEG_ONLY if draw() < negative else 0)
            elif draw() < negative:
                signs[u] = _NEG_ONLY
    return into


# The signs of the arcs that one source's sign code stands for.
_CODE_SIGNS = {
    _POS_ONLY: (POSITIVE,), _NEG_ONLY: (NEGATIVE,), _POS_ONLY | _NEG_ONLY: (POSITIVE, NEGATIVE)
}


def _signed_digraph(into: list[dict[int, int]]) -> SignedDigraph:
    """The signed digraph on 1..n whose in-arcs ``into`` lists per target,
    as ``_draw_input_signs`` returns them: sources increasing, a positive
    arc before a negative one, which is the order the graph keeps."""
    return SignedDigraph._from_in_arcs(
        [
            tuple([Arc(u, v, sign) for u, code in signs.items() for sign in _CODE_SIGNS[code]])
            for v, signs in enumerate(into, start=1)
        ]
    )


def random_digraph(
    n: int,
    arc_prob: float | None = None,
    seed=None,
    rng: random.Random | None = None,
) -> Digraph:
    """Unsigned random digraph; each of the n^2 arcs drawn independently,
    per source u increasing, its targets v increasing.  A probability
    given outside [0, 1], then a negative n, raises ValueError."""
    arc_prob = _arc_prob(n, arc_prob)
    if rng is None:
        rng = random.Random(seed)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    draw = rng.random
    targets = range(1, n + 1)
    return Digraph._from_out_lists(
        [tuple([v for v in targets if draw() < arc_prob]) for _ in targets]
    )


def _arc_prob(n: int, arc_prob: float | None, neg_prob: float = 0.0) -> float:
    """The arc probability, by default 2/n (past 1 at n = 1, 0 at n = 0);
    a probability given outside [0, 1] raises ValueError."""
    for name, p in (("arc_prob", arc_prob), ("neg_prob", neg_prob)):
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} is outside [0, 1]")
    return (2.0 / n if n else 0.0) if arc_prob is None else arc_prob


def iter_simple_signed_digraphs(n: int) -> Iterator[SignedDigraph]:
    """Every simple signed digraph on 1..n (loops allowed, no parallel pairs)."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for combo in itertools.product((None, POSITIVE, NEGATIVE), repeat=len(pairs)):
        arcs = [Arc(u, v, s) for (u, v), s in zip(pairs, combo) if s is not None]
        yield SignedDigraph(n, arcs)
