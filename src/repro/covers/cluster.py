"""Clusters and their (Steiner) trees — the building blocks of sparse covers.

A cluster (Definition 2.1 / Theorem 4.20) is a set of *member* nodes plus a
rooted tree, living on real graph edges, that spans all members.  The tree
may pass through non-member (Steiner) nodes: the decomposition of Rozhoň and
Ghaffari produces weak-diameter clusters whose trees shortcut through already
colored vertices.  All synchronizer-side protocols (registration, gather)
run *on the tree*, so tree participants include the Steiner nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..net.graph import Edge, Graph, NodeId, edge_key


@dataclass(frozen=True)
class ClusterTree:
    """A rooted tree over graph nodes; ``members`` are the terminal nodes.

    ``parent`` maps every tree node to its parent (root maps to ``None``).
    ``children`` (every tree node to its children, an ascending tuple) and
    ``depth`` are derived from ``parent`` when not given; builders that
    already know them (:func:`bfs_cluster_tree`) pass them in.
    Invariant: every member appears in the tree, every tree edge is a real
    graph edge, the structure is acyclic, and ``children``/``depth`` agree
    with ``parent`` — checked by :meth:`validate`.
    """

    cluster_id: int
    root: NodeId
    members: FrozenSet[NodeId]
    parent: Dict[NodeId, Optional[NodeId]]
    children: Dict[NodeId, Tuple[NodeId, ...]] = field(default_factory=dict)
    depth: Dict[NodeId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.children or not self.depth:
            children: Dict[NodeId, List[NodeId]] = {v: [] for v in self.parent}
            for v, p in self.parent.items():
                if p is not None:
                    children[p].append(v)
            depth: Dict[NodeId, int] = {self.root: 0}
            queue: deque[NodeId] = deque((self.root,))
            while queue:
                u = queue.popleft()
                for c in sorted(children[u]):
                    depth[c] = depth[u] + 1
                    queue.append(c)
            object.__setattr__(
                self,
                "children",
                {v: tuple(sorted(c)) for v, c in children.items()},
            )
            object.__setattr__(self, "depth", depth)

    # ------------------------------------------------------------------
    @property
    def tree_nodes(self) -> FrozenSet[NodeId]:
        return frozenset(self.parent)

    @property
    def height(self) -> int:
        return max(self.depth.values())

    def tree_edges(self) -> FrozenSet[Edge]:
        return frozenset(
            edge_key(v, p) for v, p in self.parent.items() if p is not None
        )

    def path_to_root(self, v: NodeId) -> List[NodeId]:
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def validate(self, graph: Graph) -> None:
        """Raise ``ValueError`` on any structural violation."""
        if self.root not in self.parent or self.parent[self.root] is not None:
            raise ValueError(f"cluster {self.cluster_id}: bad root {self.root}")
        missing = self.members - self.tree_nodes
        if missing:
            raise ValueError(
                f"cluster {self.cluster_id}: members {sorted(missing)} not in tree"
            )
        if set(self.depth) != set(self.parent):
            raise ValueError(
                f"cluster {self.cluster_id}: tree is disconnected from the root"
            )
        if self.depth[self.root] != 0:
            raise ValueError(
                f"cluster {self.cluster_id}: root {self.root} not at depth 0"
            )
        inverse: Dict[NodeId, List[NodeId]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                inverse[p].append(v)
        if self.children != {v: tuple(sorted(c)) for v, c in inverse.items()}:
            raise ValueError(
                f"cluster {self.cluster_id}: children disagree with parent"
            )
        for v, p in self.parent.items():
            if p is None:
                continue
            if not graph.has_edge(v, p):
                raise ValueError(
                    f"cluster {self.cluster_id}: tree edge ({v}, {p}) not in graph"
                )
            if self.depth[v] != self.depth[p] + 1:
                raise ValueError(
                    f"cluster {self.cluster_id}: inconsistent depth at {v}"
                )


def bfs_cluster_tree(
    graph: Graph,
    cluster_id: int,
    members: Iterable[NodeId],
    root: Optional[NodeId] = None,
    allowed: Optional[FrozenSet[NodeId]] = None,
) -> ClusterTree:
    """BFS tree spanning ``members``, optionally restricted to ``allowed`` nodes.

    With ``allowed=None`` the BFS runs on the whole graph (weak-diameter
    trees); otherwise only through ``allowed`` (strong-diameter trees for
    connected clusters).  The tree is pruned to branches that reach members.

    ``children`` and ``depth`` are read off the BFS itself: discovery order
    puts every parent before its children, and a node's children are
    discovered in its (ascending) adjacency order, so each children list is
    already sorted.
    """

    member_set = frozenset(members)
    if not member_set:
        raise ValueError("cluster must have at least one member")
    if root is None:
        root = min(member_set)
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    queue: deque[NodeId] = deque((root,))
    to_reach = set(member_set) - {root}
    while queue and to_reach:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in parent:
                continue
            if allowed is not None and v not in allowed:
                continue
            parent[v] = u
            to_reach.discard(v)
            queue.append(v)
    if to_reach:
        raise ValueError(
            f"cluster {cluster_id}: members {sorted(to_reach)} unreachable from {root}"
        )
    # Prune branches with no member below them: keep exactly the union of
    # member-to-root paths.
    keep = set()
    for v in sorted(member_set):
        cur: Optional[NodeId] = v
        while cur is not None and cur not in keep:
            keep.add(cur)
            cur = parent[cur]
    pruned = {v: p for v, p in parent.items() if v in keep}
    kids: Dict[NodeId, List[NodeId]] = {v: [] for v in pruned}
    depth: Dict[NodeId, int] = {root: 0}
    for v, p in pruned.items():
        if p is not None:
            kids[p].append(v)
            depth[v] = depth[p] + 1
    return ClusterTree(
        cluster_id=cluster_id,
        root=root,
        members=member_set,
        parent=pruned,
        children={v: tuple(c) for v, c in kids.items()},
        depth=depth,
    )


def steiner_tree_from_paths(
    graph: Graph,
    cluster_id: int,
    root: NodeId,
    members: Iterable[NodeId],
    attach_paths: Iterable[List[NodeId]],
) -> ClusterTree:
    """Build a tree from a root plus explicit attachment paths.

    Each path must start at a node already in the tree and end at a new node;
    used by the Rozhoň–Ghaffari construction where clusters grow by grafting
    the BFS path of each newly joined node.
    """

    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    for path in attach_paths:
        if path[0] not in parent:
            raise ValueError(f"path {path} does not start inside the tree")
        for a, b in zip(path, path[1:]):
            if b in parent:
                continue
            if not graph.has_edge(a, b):
                raise ValueError(f"path edge ({a}, {b}) not in graph")
            parent[b] = a
    return ClusterTree(
        cluster_id=cluster_id,
        root=root,
        members=frozenset(members),
        parent=parent,
    )
