"""Binary code sizes A(n, d) and the fixed-point bound built on them.

All arithmetic is exact integer arithmetic.  A distance may be given as
the infinity float, which behaves like any d > n: no two distinct points
can be that far apart, so the code size is 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, inf

EXACT_SEARCH_LIMIT = 12
_GREEDY_RESTARTS = 6000


def _check(n: int, d) -> bool:
    """Validate arguments; True when d exceeds n (code size is then 1)."""
    if n < 1:
        raise ValueError("code length must be at least 1")
    if d == inf:
        return True
    if not isinstance(d, int) or d < 1:
        raise ValueError("distance must be a positive integer or infinity")
    return d > n


def gilbert_lower(n: int, d) -> int:
    """Ceiling of the Gilbert quotient 2^n / V(n, d-1); a lower bound."""
    if _check(n, d):
        return 1
    volume = sum(comb(n, k) for k in range(d))
    return -((-1 << n) // volume)


def sphere_packing_upper(n: int, d) -> int:
    """Floor of 2^n / V(n, floor((d-1)/2)); an upper bound."""
    if _check(n, d):
        return 1
    radius = (d - 1) // 2
    volume = sum(comb(n, k) for k in range(radius + 1))
    return (1 << n) // volume


@lru_cache(maxsize=None)
def exact_max_code(n: int, d) -> int:
    """Largest X in {0,1}^n with pairwise Hamming distance >= d, exactly.

    Distance 1 is no constraint and distance 2 forces distinct punctures
    (drop a coordinate: still injective), giving 2^n and 2^(n-1).  An even
    distance reduces to (n-1, d-1) by puncture/parity-extension.  The rest
    is branch-and-bound over candidate points with the all-zero word fixed
    (codes are translation invariant).  This search is the oracle the
    bound functions are tested against.
    """
    if _check(n, d):
        return 1
    if d == 1:
        return 1 << n
    if d == 2:
        return 1 << (n - 1)
    if n > EXACT_SEARCH_LIMIT:
        raise ValueError(f"n={n} exceeds the exact search limit {EXACT_SEARCH_LIMIT}")
    if d % 2 == 0:
        return exact_max_code(n - 1, d - 1)
    return _branch_and_bound(n, d)


def _krawtchouk(N: int, k: int, i: int) -> int:
    return sum(
        (-1) ** j * comb(i, j) * comb(N - i, k - j) for j in range(k + 1)
    )


@lru_cache(maxsize=None)
def _johnson_constant_weight(N: int, D: int, w: int) -> int:
    """Johnson's recursive upper bound on A(N, D, w) for even distance D.

    Two distinct weight-w words are at distance at most 2w, and the
    complement of a constant-weight code is one too, so both the
    shorten-on-a-one and shorten-on-a-zero recursions apply.
    """
    delta = D // 2
    if w < 0 or w > N:
        return 0
    if min(w, N - w) < delta:
        return 1
    by_one = N * _johnson_constant_weight(N - 1, D, w - 1) // w
    by_zero = N * _johnson_constant_weight(N - 1, D, w) // (N - w)
    return min(by_one, by_zero)


def _simplex_max(rows: list[list[int]], rhs: list[int], objective: list[int]) -> Fraction:
    """max objective.x subject to rows.x <= rhs and x >= 0, exactly.

    Every right-hand side is non-negative, so the slack basis (x = 0) is a
    feasible start and no first phase is needed.  The tableau holds
    Fractions and pivots by Bland's rule (lowest-index entering column,
    ties in the ratio test to the lowest-index basic variable), which
    cannot cycle.  The caller guarantees the LP is bounded.
    """
    m, r = len(objective), len(rows)
    width = m + r
    tableau = [
        [Fraction(a) for a in row] + [Fraction(int(i == k)) for k in range(r)] + [Fraction(b)]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    # reduced costs; the last entry is the current objective value
    cost = [Fraction(-c) for c in objective] + [Fraction(0)] * (r + 1)
    basis = list(range(m, width))
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return cost[width]
        leave = min(
            (i for i in range(r) if tableau[i][enter] > 0),
            key=lambda i: (tableau[i][width] / tableau[i][enter], basis[i]),
        )
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        pivot_row[:] = [x / pivot for x in pivot_row]
        for row in tableau + [cost]:
            factor = row[enter]
            if row is not pivot_row and factor:
                row[:] = [x - factor * y for x, y in zip(row, pivot_row)]
        basis[leave] = enter


@lru_cache(maxsize=None)
def delsarte_upper(n: int, d) -> int:
    """Delsarte's linear-programming upper bound on A(n, d), exactly.

    Works on the parity-extended even-distance formulation: an optimal
    code for even minimum distance exists with all distances even, and
    for odd d, A(n, d) = A(n+1, d+1).  The LP over the distance
    distribution (MacWilliams-transform non-negativity per Krawtchouk
    polynomial) is solved by an exact rational simplex, so the result is
    a sound integer bound, never a float estimate.
    """
    if _check(n, d):
        return 1
    if d % 2:
        N, D = n + 1, d + 1
    else:
        N, D = n, d
    distances = range(D, N + 1, 2)
    # Constraints in a.x <= b form over the distribution coefficients.
    rows = [[-_krawtchouk(N, k, i) for i in distances] for k in range(1, N + 1)]
    rhs = [comb(N, k) for k in range(1, N + 1)]
    # Around any codeword, the others at distance i form a constant-weight
    # distance-D code, so each distribution coefficient is capped.
    for j, i in enumerate(distances):
        rows.append([int(j == k) for k in range(len(distances))])
        rhs.append(_johnson_constant_weight(N, D, i))
    rows.append([1] * len(distances))
    rhs.append(1 << N)
    best = _simplex_max(rows, rhs, [1] * len(distances))
    # the LP optimum bounds the real code size, so an integer size is at
    # most its floor
    return int(1 + best)


def _block_profile(p: int, w: int) -> tuple[int, int]:
    low = p & ((1 << w) - 1)
    return (low.bit_count(), (p >> w).bit_count())


def _profile_word(a: int, b: int, w: int) -> int:
    return ((1 << a) - 1) | (((1 << b) - 1) << w)


def _greedy_incumbent(n: int, d: int) -> int:
    """Best code size found by seeded randomized greedy; a lower bound.

    The optimum is often non-linear, so a plain lexicographic descent can
    stall well below it; random restarts find tight incumbents cheaply and
    sharpen branch-and-bound pruning from the start.
    """
    points = [p for p in range(1, 1 << n) if p.bit_count() >= d]
    rng = random.Random(0xC0DE + 31 * n + d)
    best = 1
    for _ in range(_GREEDY_RESTARTS):
        rng.shuffle(points)
        code = [0]
        for p in points:
            if all((p ^ q).bit_count() >= d for q in code):
                code.append(p)
        if len(code) > best:
            best = len(code)
    return best


def _branch_and_bound(n: int, d: int) -> int:
    """Exhaustive search with symmetry reduction and bound certificates.

    Codes are translation invariant, so the all-zero word is fixed; the
    coordinates can then be permuted so that a minimum-weight nonzero
    codeword becomes 1^w 0^(n-w).  The remaining symmetry (permutations
    inside the two blocks) canonicalizes a third codeword: branch on its
    block profile (ones per block), keeping only candidates with a
    profile at least as large.  Each branch is a max-clique search pruned
    by a greedy clique-cover bound; everything stops as soon as the
    incumbent meets a proven upper bound (sphere packing or Delsarte LP).
    """
    upper = min(sphere_packing_upper(n, d), delsarte_upper(n, d))
    best = 1
    if n >= 6:
        best = _greedy_incumbent(n, d)
        if best >= upper:
            return best
    for w in range(d, n + 1):
        if best >= upper:
            return best
        seed = (1 << w) - 1
        if best < 2:
            best = 2  # {0, seed} is always a valid code
        points = [
            p
            for p in range(1, 1 << n)
            if p != seed and p.bit_count() >= w and (p ^ seed).bit_count() >= d
        ]
        profiles = sorted({_block_profile(p, w) for p in points})
        for a, b in profiles:
            if best >= upper:
                return best
            third = _profile_word(a, b, w)
            if (third ^ seed).bit_count() < d or third.bit_count() < d:
                continue
            rest = [
                p
                for p in points
                if p != third
                and _block_profile(p, w) >= (a, b)
                and (p ^ third).bit_count() >= d
            ]
            found = 3 + _max_clique(rest, d, at_least=best - 3, stop_at=upper - 3)
            if found > best:
                best = found
    return best


class _SearchDone(Exception):
    pass


def _max_clique(points: list[int], d: int, at_least: int = 0, stop_at=None) -> int:
    """Size of the largest pairwise distance->=d subset of ``points``.

    Pruned by a greedy clique-cover bound: candidates are grouped into
    classes of pairwise-close points, and a code can use at most one per
    class.  ``at_least`` pre-seeds the incumbent (the result is only
    meaningful when it exceeds it); reaching ``stop_at`` ends the search,
    the caller having certified it as an upper bound.
    """
    points = sorted(points, key=lambda p: (p.bit_count(), p))
    m = len(points)
    compatible = [0] * m
    for i in range(m):
        pi = points[i]
        for j in range(i + 1, m):
            if (pi ^ points[j]).bit_count() >= d:
                compatible[i] |= 1 << j
                compatible[j] |= 1 << i
    full = (1 << m) - 1
    close = [full ^ c for c in compatible]  # conflicting points, self included
    best = max(at_least, 0)

    def expand(size: int, cand: int):
        nonlocal best
        if size > best:
            best = size
            if stop_at is not None and best >= stop_at:
                raise _SearchDone
        if not cand or size + cand.bit_count() <= best:
            return
        order_vertex = []
        order_color = []
        rest = cand
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                i = low.bit_length() - 1
                order_vertex.append(i)
                order_color.append(color)
                rest ^= low
                avail &= close[i] & rest
        for k in range(len(order_vertex) - 1, -1, -1):
            if size + order_color[k] <= best:
                return
            i = order_vertex[k]
            expand(size + 1, cand & compatible[i])
            cand ^= 1 << i

    try:
        expand(0, full)
    except _SearchDone:
        pass
    return best


def fixed_point_bound(n: int, tau_tilde: int, g_tilde) -> int:
    """min(2^tau~+, an upper bound on A(n, g~+)), at bounded cost.

    The code term is exact where a closed form exists (distance 1 or 2,
    or g~+ beyond n or infinite, which gives 1) and otherwise the smaller
    of the sphere-packing and Delsarte LP bounds, for every length.  Any
    upper bound on A keeps the result an upper bound on fixed points; the
    LP can be loose, e.g. it gives 21 where A(8, 3) = 20.  When 2^tau~+ is
    at most the Gilbert lower bound on A, it is the minimum whatever the
    code term, and no LP is solved.  The exact search ``exact_max_code``
    is never called here: it is the oracle the bounds are tested against.
    """
    if tau_tilde < 0:
        raise ValueError("tau~+ must be non-negative")
    two_term = 1 << tau_tilde
    if g_tilde == inf or (isinstance(g_tilde, int) and g_tilde > n):
        code_term = 1
    elif g_tilde in (1, 2):
        code_term = 1 << (n + 1 - g_tilde)  # A(n, 1) = 2^n, A(n, 2) = 2^(n-1)
    elif two_term <= gilbert_lower(n, g_tilde):  # also rejects a bad distance
        return two_term  # every upper bound on A is at least 2^tau~+
    else:
        code_term = min(sphere_packing_upper(n, g_tilde), delsarte_upper(n, g_tilde))
    return min(two_term, code_term)
