"""Deterministic topology generators.

Every generator is a pure function of its parameters (including the ``seed``
for randomized families), so experiments and failing tests are exactly
reproducible.  The families cover the regimes the paper's analysis
distinguishes: low-diameter dense graphs (where synchronizer message overhead
dominates), high-diameter sparse graphs (paths, cycles, grids — where time
overhead dominates), and trees (where the m ≈ n regime stresses the Õ(m)
message claims).
"""

from __future__ import annotations

import random
from typing import List

from .graph import Edge, Graph, edge_key

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "torus_graph",
    "balanced_tree",
    "caterpillar_graph",
    "hypercube_graph",
    "barbell_graph",
    "lollipop_graph",
    "random_tree",
    "erdos_renyi_graph",
    "random_regular_graph",
    "random_geometric_like_graph",
    "with_random_weights",
    "TOPOLOGY_FAMILIES",
    "make_topology",
]


def path_graph(n: int) -> Graph:
    """Path 0-1-2-...-(n-1); diameter n-1."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 nodes; diameter floor(n/2)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves; diameter 2."""
    if n < 2:
        raise ValueError("star needs at least 2 nodes")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; node (r, c) has id r*cols + c."""
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(rows * cols, edges)


def torus_graph(rows: int, cols: int) -> Graph:
    """Grid with wraparound edges in both dimensions."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs at least 3 rows and 3 columns")
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            edges.append((u, r * cols + (c + 1) % cols))
            edges.append((u, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def balanced_tree(branching: int, height: int) -> Graph:
    """Complete ``branching``-ary tree of the given height (height 0 = one node)."""
    if branching < 1:
        raise ValueError("branching factor must be >= 1")
    edges: List[Edge] = []
    nodes = 1
    frontier = [0]
    for _ in range(height):
        next_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = nodes
                nodes += 1
                edges.append((parent, child))
                next_frontier.append(child)
        frontier = next_frontier
    return Graph(nodes, edges)


def caterpillar_graph(spine: int, legs_per_node: int) -> Graph:
    """A path of length ``spine`` with ``legs_per_node`` leaves on each spine node."""
    edges: List[Edge] = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for i in range(spine):
        for _ in range(legs_per_node):
            edges.append((i, next_id))
            next_id += 1
    return Graph(next_id, edges)


def hypercube_graph(dimension: int) -> Graph:
    n = 1 << dimension
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dimension)]
    return Graph(n, edges)


def barbell_graph(clique_size: int, bridge_length: int) -> Graph:
    """Two cliques joined by a path — dense ends, high-diameter middle."""
    k = clique_size
    edges: List[Edge] = []
    edges.extend((i, j) for i in range(k) for j in range(i + 1, k))
    offset = k + bridge_length
    edges.extend((offset + i, offset + j) for i in range(k) for j in range(i + 1, k))
    chain = [k - 1] + [k + i for i in range(bridge_length)] + [offset]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(2 * k + bridge_length, edges)


def lollipop_graph(clique_size: int, tail_length: int) -> Graph:
    k = clique_size
    edges: List[Edge] = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chain = [k - 1] + [k + i for i in range(tail_length)]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(k + tail_length, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-ish random tree: node i attaches to a random earlier node."""
    rng = random.Random(("tree", n, seed).__repr__())  # det: ignore[DET002] -- RNG seeded solely from the explicit (kind, n, seed) key; topology construction is reproducible and happens before any run draws entropy
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) conditioned to be connected by adding a random tree skeleton."""
    rng = random.Random(("gnp", n, p, seed).__repr__())  # det: ignore[DET002] -- RNG seeded solely from the explicit (kind, n, p, seed) key; reproducible construction-time randomness, not run-time entropy
    edges = {edge_key(rng.randrange(i), i) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(n, edges)


def random_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Connected d-regular-ish multigraph via repeated pairing, deduplicated.

    Uses the configuration model with rejection of self-loops/duplicates;
    falls back to leaving a node at degree < d when pairing stalls, and adds a
    cycle skeleton to guarantee connectivity.  Good expander-like graphs for
    the low-diameter regime; exact regularity is not needed by any experiment.
    """
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    rng = random.Random(("reg", n, degree, seed).__repr__())  # det: ignore[DET002] -- RNG seeded solely from the explicit (kind, n, degree, seed) key; reproducible construction-time randomness, not run-time entropy
    edges = {edge_key(i, (i + 1) % n) for i in range(n)} if n >= 3 else {(0, 1)}
    stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(20):
        rng.shuffle(stubs)
        leftovers: List[int] = []
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or edge_key(a, b) in edges:
                leftovers.extend((a, b))
            else:
                edges.add(edge_key(a, b))
        stubs = leftovers
        if len(stubs) < 2:
            break
    return Graph(n, edges)


def random_geometric_like_graph(n: int, radius: float, seed: int) -> Graph:
    """Unit-square geometric graph plus a tree skeleton for connectivity."""
    rng = random.Random(("geo", n, radius, seed).__repr__())  # det: ignore[DET002] -- RNG seeded solely from the explicit (kind, n, radius, seed) key; reproducible construction-time randomness, not run-time entropy
    points = [(rng.random(), rng.random()) for _ in range(n)]
    edges = {edge_key(rng.randrange(i), i) for i in range(1, n)}
    r2 = radius * radius
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            xj, yj = points[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                edges.add((i, j))
    return Graph(n, edges)


def with_random_weights(
    graph: Graph, seed: int, low: float = 1.0, high: float = 100.0
) -> Graph:
    """Distinct random edge weights (unique => the MST is unique)."""
    rng = random.Random(("weights", graph.num_nodes, seed).__repr__())  # det: ignore[DET002] -- RNG seeded solely from the explicit (kind, n, seed) key; reproducible construction-time randomness, not run-time entropy
    edges = sorted(graph.edges)
    base = rng.sample(range(1, len(edges) * 1000 + 1), len(edges))
    span = high - low
    top = max(len(edges) * 1000, 1)
    weights = {e: low + span * b / top for e, b in zip(edges, base)}
    return graph.with_weights(weights)


TOPOLOGY_FAMILIES = (
    "path",
    "cycle",
    "star",
    "grid",
    "torus",
    "tree",
    "caterpillar",
    "hypercube",
    "barbell",
    "er_sparse",
    "er_dense",
    "regular",
    "complete",
)


def make_topology(family: str, n: int, seed: int = 0) -> Graph:
    """Build a member of a named family with ~n nodes (exact n where possible)."""
    if family == "path":
        return path_graph(n)
    if family == "cycle":
        return cycle_graph(max(n, 3))
    if family == "star":
        return star_graph(max(n, 2))
    if family == "grid":
        side = max(2, round(n ** 0.5))
        return grid_graph(side, side)
    if family == "torus":
        side = max(3, round(n ** 0.5))
        return torus_graph(side, side)
    if family == "tree":
        return random_tree(n, seed)
    if family == "caterpillar":
        spine = max(2, n // 3)
        return caterpillar_graph(spine, 2)
    if family == "hypercube":
        dim = max(1, n.bit_length() - 1)
        return hypercube_graph(dim)
    if family == "barbell":
        k = max(3, n // 3)
        return barbell_graph(k, n - 2 * k if n > 2 * k else 1)
    if family == "er_sparse":
        return erdos_renyi_graph(n, min(1.0, 2.0 / n), seed)
    if family == "er_dense":
        return erdos_renyi_graph(n, min(1.0, 8.0 / n), seed)
    if family == "regular":
        d = 4 if n * 4 % 2 == 0 else 5
        return random_regular_graph(n, d, seed)
    if family == "complete":
        return complete_graph(n)
    raise ValueError(f"unknown topology family {family!r}")
