"""Seeded inputs for the three workloads.

Every instance is built here with the standard library alone, never
with ``signedbn.generators``: a library change must not be able to change
what the benchmark feeds it.  Where call costs vary too much between
random draws for a steady benchmark, a fixed set of base instances is
drawn once and the workload seed transforms it without changing its cost;
elsewhere the seed draws the instances.  The same seed always gives the
same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Distinct monotone Boolean functions of k inputs that depend on all k:
# the size of a vertex's consistent-table set when each of its k
# in-neighbours carries exactly one sign.  Constants (k = 0) count twice.
ESSENTIAL_MONOTONE = (2, 1, 2, 9, 114)


def family_size(indegrees) -> int:
    """Networks consistent with a graph of these in-degrees whose
    in-neighbours each carry one sign, as in the verify families."""
    size = 1
    for k in indegrees:
        size *= ESSENTIAL_MONOTONE[k]
    return size


@dataclass(frozen=True)
class Item:
    """One input: an id that is the same for every seed, a kind and a
    payload; ``k`` is the 2-cycle count of a ``two-cycles`` graph."""

    id: str
    kind: str
    payload: object
    k: int | None = None


def rng_for(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"signedbn-bench:{workload}:{seed}:{salt}")


# -- signed digraphs as .sd text ----------------------------------------------


def sd_text(n: int, arcs) -> str:
    """Serialize (u, v, sign) triples in the ``sdigraph`` text format."""
    lines = [f"sdigraph {n}"]
    lines += [f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in sorted(arcs)]
    return "\n".join(lines) + "\n"


def random_signed_arcs(rng: random.Random, n: int, density: float, neg: float = 0.5):
    """Each ordered pair (loops included) gets a positive arc with
    probability density * (1 - neg) and a negative one with density * neg."""
    arcs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if rng.random() < density * (1.0 - neg):
                arcs.append((u, v, 1))
            if rng.random() < density * neg:
                arcs.append((u, v, -1))
    return arcs


def switch(rng: random.Random, n: int, arcs):
    """Flip the sign of every arc across a random vertex cut.  Every cycle
    crosses the cut an even number of times, so every cycle keeps its sign
    (Harary's switching), while the vertex order stays as it was."""
    side = [rng.random() < 0.5 for _ in range(n)]
    return [(u, v, -s if side[u - 1] != side[v - 1] else s) for u, v, s in arcs]


def relabel(rng: random.Random, n: int, arcs):
    """The same graph under a seeded vertex permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [(perm[u - 1], perm[v - 1], s) for u, v, s in arcs]


def figure1_arcs(n: int):
    """The paper's Figure 1 family: a chain of positive triangles, the
    first on (1, 2, 3) and triangle t >= 2 on (2t-2, 2t, 2t+1), with a
    negative loop on every odd vertex >= 3.  Odd n >= 3."""
    arcs = [(1, 2, 1), (2, 3, 1), (3, 1, 1)]
    for t in range(2, (n - 1) // 2 + 1):
        a, b, c = 2 * (t - 1), 2 * t, 2 * t + 1
        arcs += [(a, b, 1), (b, c, 1), (c, a, 1)]
    arcs += [(v, v, -1) for v in range(3, n + 1, 2)]
    return arcs


def two_cycles_arcs(k: int):
    """k vertex-disjoint positive 2-cycles on 2k vertices."""
    arcs = []
    for i in range(k):
        u, v = 2 * i + 1, 2 * i + 2
        arcs += [(u, v, 1), (v, u, 1)]
    return arcs


# -- analyze -------------------------------------------------------------------

# Graphs per vertex count.  Above 12 vertices the code term is the
# sphere-packing bound, so no call hangs there, and the slowest finishing
# calls are the tau~+ scans on those graphs; a few more of them make the
# 90th percentile an order statistic among close values.
ANALYZE_PER_SIZE = {n: 10 if n <= 12 else 12 for n in range(6, 16)}
FIGURE1_SIZES = range(3, 16, 2)
TWO_CYCLE_COUNTS = range(2, 8)


def analyze_items(seed: int) -> list[Item]:
    """Random graphs with n in 6..15 at density 2/n, Figure 1 graphs for
    odd n <= 15 and k = 2..7 disjoint positive 2-cycles, as .sd text.

    The seed switches a fixed set of graphs instead of drawing new ones.
    Call costs here span five orders of magnitude and the calls that reach
    the exact code search never finish, so fresh draws would change the
    mix of those calls from seed to seed by more than any useful bound.
    Relabelling the vertices is not enough either: the tau~+ scan visits
    vertex subsets in label order, so the cost of the slowest calls moves
    with the labels.  Switching gives other signed graphs with the same
    cycle signs in the same vertex order, so every structural answer, the
    failed set and the work per call stay put.
    """
    base = rng_for("analyze", 0, "base")
    rng = rng_for("analyze", seed)
    items = []
    for n, count in ANALYZE_PER_SIZE.items():
        for i in range(count):
            arcs = switch(rng, n, random_signed_arcs(base, n, 2.0 / n))
            items.append(Item(f"random-n{n}-{i}", "random", sd_text(n, arcs)))
    for n in FIGURE1_SIZES:
        arcs = switch(rng, n, figure1_arcs(n))
        items.append(Item(f"figure1-n{n}", "figure1", sd_text(n, arcs)))
    for k in TWO_CYCLE_COUNTS:
        arcs = switch(rng, 2 * k, two_cycles_arcs(k))
        items.append(Item(f"two-cycles-k{k}", "two-cycles", sd_text(2 * k, arcs), k))
    return items


# -- verify ----------------------------------------------------------------------

# Trials per falsify call, sized so each call takes some tens of
# milliseconds at max_n = 5; chunks are short so that a run can time each
# of them many times.
FALSIFY_CHUNK = {
    "cor8": 10,
    "harary": 150,
    "kernel-corr": 300,
    "lemma9": 300,
    "richardson": 300,
    "richardson-gen": 100,
    "thm1": 30,
    "thm2": 30,
    "thm3": 30,
    "thm4": 30,
    "thm5": 30,
    "thm6": 30,
    "thm7": 30,
}
FALSIFY_CHUNKS_PER_THEOREM = 8
FALSIFY_MAX_N = 5

# In-degree sequences of the exhaustive families: the family size is the
# product of ESSENTIAL_MONOTONE over them (729, 4104, 6561 and 18468).
FAMILY_INDEGREES = ((3, 3, 3), (4, 3, 2, 2), (3, 3, 3, 3), (4, 3, 3, 2, 1))


def family_arcs(rng: random.Random, indegrees):
    """A graph on len(indegrees) vertices where vertex v has indegrees[v-1]
    distinct in-neighbours (loops allowed), each arc with a random sign."""
    n = len(indegrees)
    arcs = []
    for v, k in enumerate(indegrees, start=1):
        for u in rng.sample(range(1, n + 1), k):
            arcs.append((u, v, rng.choice((1, -1))))
    return arcs


def verify_items(seed: int) -> list[Item]:
    """Falsifier chunks for every theorem id, then exhaustive families.

    The falsifier draws its own instances from the chunk seed, and now and
    then one chunk draws an instance that costs ten times a usual chunk.
    Chunk seeds drawn from the workload seed would move the total time by
    more than any useful bound, so they are a fixed set.  The family
    graphs are fixed graphs relabelled by the seed, since the cost of a
    family sweep depends on the graph's shape.
    """
    base = rng_for("verify", 0, "base")
    rng = rng_for("verify", seed)
    items = []
    for theorem, trials in sorted(FALSIFY_CHUNK.items()):
        for chunk in range(FALSIFY_CHUNKS_PER_THEOREM):
            payload = (theorem, trials, base.randrange(1 << 32))
            items.append(Item(f"falsify-{theorem}-{chunk}", "falsify", payload))
    for i, indegrees in enumerate(FAMILY_INDEGREES):
        n = len(indegrees)
        arcs = relabel(rng, n, family_arcs(base, indegrees))
        items.append(Item(f"family-n{n}-{i}", "family", (n, tuple(sorted(arcs)))))
    return items


# -- dynamics ----------------------------------------------------------------------

# Instances per vertex count: many small ones, so that a pass holds more
# than 100 calls, and fewer of each larger size, up to 2^18 states.  Every
# vertex count appears, so that call costs rise in steps of about two and
# the slowest tenth of the calls has no gap for the 90th percentile to
# jump across.
FIXED_POINT_COUNTS = {12: 10, 13: 10, 14: 8, 15: 6, 16: 4, 17: 3, 18: 2}
ATTRACTOR_COUNTS = {9: 8, 10: 8, 11: 6, 12: 4, 13: 2, 14: 1}
KERNEL_COUNTS = {12: 4, 13: 4, 14: 3, 15: 2, 16: 2, 17: 1}
MAX_INDEGREE = 4


def degree(v: int) -> int:
    """Vertex v's in-degree (out-degree for kernel digraphs): 1, 2, 3, 4,
    1, 2, ...  The state scans stop at the first vertex that disagrees, so
    the degrees of the first vertices set much of a call's cost."""
    return 1 + (v - 1) % MAX_INDEGREE


def random_network_spec(rng: random.Random, n: int):
    """Per vertex v: degree(v) distinct random inputs other than v, and a
    random table.  With v not among its inputs, half of all states agree
    with f_v, whatever the table."""
    spec = []
    for v in range(1, n + 1):
        k = degree(v)
        inputs = tuple(rng.sample([u for u in range(1, n + 1) if u != v], k))
        table = tuple(rng.randrange(2) for _ in range(1 << k))
        spec.append((inputs, table))
    return tuple(spec)


def random_digraph_arcs(rng: random.Random, n: int):
    """Vertex u gets degree(u) distinct random out-neighbours."""
    arcs = []
    for u in range(1, n + 1):
        for v in rng.sample(range(1, n + 1), degree(u)):
            arcs.append((u, v))
    return tuple(sorted(arcs))


def degree_preserving_permutation(rng: random.Random, n: int) -> list[int]:
    """perm[v-1] is the new label of v; v and its label have one degree."""
    perm = list(range(1, n + 1))
    for r in range(MAX_INDEGREE):
        cls = perm[r::MAX_INDEGREE]
        rng.shuffle(cls)
        perm[r::MAX_INDEGREE] = cls
    return perm


def relabel_network(rng: random.Random, spec):
    perm = degree_preserving_permutation(rng, len(spec))
    out = [None] * len(spec)
    for v, (inputs, table) in enumerate(spec, start=1):
        out[perm[v - 1] - 1] = (tuple(perm[u - 1] for u in inputs), table)
    return tuple(out)


def relabel_digraph(rng: random.Random, n: int, arcs):
    perm = degree_preserving_permutation(rng, n)
    return tuple(sorted((perm[u - 1], perm[v - 1]) for u, v in arcs))


def dynamics_items(seed: int) -> list[Item]:
    """Fixed points for n from 12 to 18, attractors (with the fixed points
    of the same network) for n from 9 to 14, kernels for n from 12 to 17.

    As for ``analyze``, the seed relabels a fixed set of instances, here
    keeping each vertex's degree.  How long a scan of 2^n states takes
    depends on the attractor structure and on where the scan first finds a
    disagreeing vertex.  Both vary widely between fresh draws; the first
    does not change under such a relabelling, the second changes little.
    """
    base = rng_for("dynamics", 0, "base")
    rng = rng_for("dynamics", seed)
    items = []
    for n, count in FIXED_POINT_COUNTS.items():
        for i in range(count):
            spec = relabel_network(rng, random_network_spec(base, n))
            items.append(Item(f"fixed-points-n{n}-{i}", "fixed_points", spec))
    for n, count in ATTRACTOR_COUNTS.items():
        for i in range(count):
            spec = relabel_network(rng, random_network_spec(base, n))
            items.append(Item(f"attractors-n{n}-{i}", "attractors", spec))
    for n, count in KERNEL_COUNTS.items():
        for i in range(count):
            arcs = relabel_digraph(rng, n, random_digraph_arcs(base, n))
            items.append(Item(f"kernels-n{n}-{i}", "kernels", (n, arcs)))
    return items
