"""Static network graphs for the message-passing simulators.

The network is an undirected graph ``G = (V, E)`` with ``V = {0, ..., n-1}``
(Section 1.1 of the paper).  :class:`Graph` is an immutable adjacency
structure with the handful of graph-theoretic queries the synchronizer stack
needs: neighborhoods, (multi-source) BFS distances, eccentricities, diameter,
and edge weights for the MST application.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

NodeId = int
Edge = Tuple[NodeId, NodeId]

INFINITY = float("inf")


def edge_key(u: NodeId, v: NodeId) -> Edge:
    """Canonical (sorted) key for the undirected edge {u, v}."""
    if u == v:
        raise ValueError(f"self-loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


class UnknownLinkError(ValueError):
    """A send names a destination with no directed link from the sender.

    Raised by both message-passing engines — the asynchronous transport's
    link table and the synchronous engine's per-pulse send API — so a
    non-neighbor destination fails identically everywhere, naming both
    endpoints at the send site.  Subclasses :class:`ValueError` so callers
    that guarded against the historical ``ValueError("no link u -> v")``
    keep working.
    """

    def __init__(self, u: NodeId, v: NodeId) -> None:
        super().__init__(
            f"no link {u} -> {v}: node {u} has no directed link to {v}"
            " (sends are restricted to graph neighbors)"
        )
        self.u = u
        self.v = v


class Graph:
    """An immutable undirected graph over nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    edges:
        Iterable of node pairs.  Duplicates (in either orientation) collapse
        into one undirected edge; self-loops are rejected.
    weights:
        Optional map from canonical edge key to a positive weight, used by the
        MST application.  Edges absent from the map default to weight 1.
    """

    # __weakref__ lets pure-function-of-graph results (covers, pulse bounds)
    # be memoized in WeakKeyDictionaries without pinning graphs in memory.
    __slots__ = (
        "_n", "_adj", "_edges", "_weights", "_dist_cache", "_ecc_cache",
        "__weakref__",
    )

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Edge],
        weights: Optional[Dict[Edge, float]] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        self._n = num_nodes
        adj: List[List[NodeId]] = [[] for _ in range(num_nodes)]
        edge_set: Set[Edge] = set()
        for u, v in edges:
            key = edge_key(u, v)
            if not (0 <= key[0] < num_nodes and 0 <= key[1] < num_nodes):
                raise ValueError(f"edge {key} references a node outside 0..{num_nodes - 1}")
            if key in edge_set:
                continue
            edge_set.add(key)
            adj[key[0]].append(key[1])
            adj[key[1]].append(key[0])
        for neighbors in adj:
            neighbors.sort()
        self._adj: Tuple[Tuple[NodeId, ...], ...] = tuple(tuple(a) for a in adj)
        self._edges: FrozenSet[Edge] = frozenset(edge_set)
        self._weights: Dict[Edge, float] = {}
        if weights:
            for key, w in weights.items():
                key = edge_key(*key)
                if key not in edge_set:
                    raise ValueError(f"weight given for non-edge {key}")
                if w <= 0:
                    raise ValueError(f"edge weight must be positive, got {w} for {key}")
                self._weights[key] = float(w)
        self._dist_cache: Dict[FrozenSet[NodeId], Tuple[float, ...]] = {}
        self._ecc_cache: Optional[Tuple[float, ...]] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def nodes(self) -> range:
        return range(self._n)

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def neighbors(self, u: NodeId) -> Tuple[NodeId, ...]:
        return self._adj[u]

    def degree(self, u: NodeId) -> int:
        return len(self._adj[u])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return edge_key(u, v) in self._edges

    def weight(self, u: NodeId, v: NodeId) -> float:
        return self._weights.get(edge_key(u, v), 1.0)

    @property
    def weights(self) -> Dict[Edge, float]:
        """Weights for every edge (defaulting to 1.0), keyed canonically."""
        return {e: self._weights.get(e, 1.0) for e in sorted(self._edges)}

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(self._n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def bfs_distances(self, sources: Iterable[NodeId] | NodeId) -> Tuple[float, ...]:
        """Hop distance from the closest source; ``inf`` for unreachable nodes."""
        if isinstance(sources, int):
            source_set = frozenset((sources,))
        else:
            source_set = frozenset(sources)
        if not source_set:
            raise ValueError("at least one source is required")
        cached = self._dist_cache.get(source_set)
        if cached is not None:
            return cached
        dist = [INFINITY] * self._n
        queue: deque[NodeId] = deque()
        for s in sorted(source_set):
            if not (0 <= s < self._n):
                raise ValueError(f"source {s} outside 0..{self._n - 1}")
            dist[s] = 0
            queue.append(s)
        while queue:
            u = queue.popleft()
            dv = dist[u] + 1
            for v in self._adj[u]:
                # Unweighted BFS pops nodes in nondecreasing distance, so a
                # node already labeled can never be improved: reaching it
                # again is at distance >= its label.  One identity check
                # suffices (the old `or dist[v] > du + 1` clause was
                # unreachable).
                if dist[v] is INFINITY:
                    dist[v] = dv
                    queue.append(v)
        result = tuple(dist)
        if len(self._dist_cache) < 1024:
            self._dist_cache[source_set] = result
        return result

    def bfs_tree(self, source: NodeId) -> Dict[NodeId, Optional[NodeId]]:
        """Parent pointers of the deterministic (lowest-id-first) BFS tree."""
        parent: Dict[NodeId, Optional[NodeId]] = {source: None}
        queue: deque[NodeId] = deque((source,))
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def distance(self, u: NodeId, v: NodeId) -> float:
        return self.bfs_distances(u)[v]

    def eccentricity(self, u: NodeId) -> float:
        return max(self.bfs_distances(u))

    def bfs_layers(
        self, source: NodeId, max_depth: float = INFINITY
    ) -> Tuple[List[NodeId], List[int]]:
        """BFS pop order from ``source`` and its layer ends, as ``(order, ends)``.

        ``order`` lists every node within ``max_depth`` hops in nondecreasing
        distance, and ``order[:ends[k]]`` is exactly the ball ``B(source, k)``
        for ``k < len(ends)``.  The search stops after layer ``max_depth`` or
        at the first empty layer, so ``len(ends) - 1`` is the largest
        distance reached and no farther node is ever touched.
        """
        if not (0 <= source < self._n):
            raise ValueError(f"source {source} outside 0..{self._n - 1}")
        adj = self._adj
        seen = bytearray(self._n)
        seen[source] = 1
        order = [source]
        ends = [1]
        start = 0
        while len(ends) <= max_depth:
            end = len(order)
            for u in order[start:end]:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        order.append(v)
            if len(order) == end:
                break
            start = end
            ends.append(len(order))
        return order, ends

    def ball(self, center: NodeId, radius: int) -> FrozenSet[NodeId]:
        """All nodes within hop distance ``radius`` of ``center``."""
        order, _ = self.bfs_layers(center, radius)
        return frozenset(order) if radius >= 0 else frozenset()

    def is_connected(self) -> bool:
        return INFINITY not in self.bfs_distances(0)

    def _eccentricities(self) -> Tuple[float, ...]:
        """Eccentricity of every node, computed once and cached.

        ``diameter`` and ``radius_center`` share this single O(n·m) pass
        instead of re-running one BFS per source on every call (the
        per-source distance cache is capped, so large graphs used to pay the
        full sweep repeatedly).
        """
        if self._ecc_cache is None:
            self._ecc_cache = tuple(
                max(self.bfs_distances(u)) for u in range(self._n)
            )
        return self._ecc_cache

    def diameter(self) -> int:
        """Exact diameter (one cached O(n·m) eccentricity sweep)."""
        if not self.is_connected():
            raise ValueError("diameter undefined for a disconnected graph")
        return int(max(self._eccentricities()))

    def radius_center(self) -> Tuple[int, NodeId]:
        """(radius, a center node achieving it)."""
        ecc = self._eccentricities()
        best_ecc = min(ecc)
        return int(best_ecc), ecc.index(best_ecc)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[NodeId]) -> Tuple["Graph", Dict[NodeId, NodeId]]:
        """Subgraph induced by ``keep``; returns (graph, old->new id map)."""
        kept = sorted(set(keep))
        if not kept:
            raise ValueError("cannot induce the empty subgraph")
        remap = {old: new for new, old in enumerate(kept)}
        # Sorted edge order: Graph() re-sorts adjacency anyway, but the
        # weights dict (and anything that iterates it) stays canonical.
        edges = [
            (remap[u], remap[v])
            for (u, v) in sorted(self._edges)
            if u in remap and v in remap
        ]
        weights = {
            edge_key(remap[u], remap[v]): self._weights.get((u, v), 1.0)
            for (u, v) in sorted(self._edges)
            if u in remap and v in remap
        }
        return Graph(len(kept), edges, weights), remap

    def with_weights(self, weights: Dict[Edge, float]) -> "Graph":
        return Graph(self._n, self._edges, weights)


def validate_tree(
    num_nodes: int, parent: Dict[NodeId, Optional[NodeId]], root: NodeId
) -> None:
    """Raise if ``parent`` is not a tree over ``num_nodes`` nodes rooted at ``root``."""
    if parent.get(root, "missing") is not None:
        raise ValueError("root must have parent None")
    if len(parent) != num_nodes:
        raise ValueError(f"tree has {len(parent)} nodes, expected {num_nodes}")
    for v in parent:
        seen = set()
        cur: Optional[NodeId] = v
        while cur is not None:
            if cur in seen:
                raise ValueError(f"cycle through node {cur}")
            seen.add(cur)
            cur = parent[cur]
        if root not in seen:
            raise ValueError(f"node {v} does not reach the root")
