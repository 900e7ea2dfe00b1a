"""Deterministic network decomposition of Rozhoň–Ghaffari [RG20] (Appendix C)
and the sparse d-cover built from it (Theorem 4.21).

The construction follows the paper's Appendix C exactly at the level of the
algorithm's decisions: ``b = ceil(log2 n)`` phases per color, each phase a
sequence of steps in which the non-stopped *blue* clusters run a joint BFS to
distance ``k``, living *red* nodes propose to the first cluster that reached
them, and each cluster either absorbs its proposers (relabeling them blue and
grafting their BFS paths onto its Steiner tree) or — when proposals number at
most ``|A| / (2b)`` — kills them and stops.

Execution-model note (see DESIGN.md, substitution 2): the decisions are
computed centrally but mirror the synchronous execution deterministically
(first-arrival = minimum distance, ties broken by smaller cluster label,
a refinement of the paper's "arbitrary" tie-break).  Rounds and messages are
*accounted* from the algorithm's structure — each step charges one distance-k
BFS (k rounds; one message per explored edge) plus one
convergecast/broadcast on every active Steiner tree (2·height rounds; 2
messages per tree edge) — so construction-cost experiments (E7) report
faithful synchronous costs while invariants are validated structurally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..net.graph import Graph, NodeId
from .cluster import ClusterTree
from .cover import LayeredCover, SparseCover, required_top_level


@dataclass
class CostAccount:
    """Synchronous rounds and messages charged during the construction."""

    rounds: int = 0
    messages: int = 0

    def charge_bfs(self, k: int, explored_edges: int) -> None:
        self.rounds += k
        self.messages += explored_edges

    def charge_tree_wave(self, height: int, tree_edges: int) -> None:
        self.rounds += 2 * max(height, 1)
        self.messages += 2 * tree_edges


@dataclass
class _LiveCluster:
    """A cluster under construction: label, members, and its Steiner tree."""

    label: int
    members: Set[NodeId]
    root: NodeId
    parent: Dict[NodeId, Optional[NodeId]]
    stopped: bool = False

    def tree_nodes(self) -> Set[NodeId]:
        return set(self.parent)

    def tree_edge_count(self) -> int:
        return sum(1 for p in self.parent.values() if p is not None)

    def height(self) -> int:
        depth: Dict[NodeId, int] = {self.root: 0}
        best = 0
        children: Dict[NodeId, List[NodeId]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                children[p].append(v)
        queue = deque((self.root,))
        while queue:
            u = queue.popleft()
            for c in children[u]:
                depth[c] = depth[u] + 1
                best = max(best, depth[c])
                queue.append(c)
        return best


@dataclass(frozen=True)
class Decomposition:
    """A (C, D) k-separated weak-diameter network decomposition."""

    separation: int
    color_classes: Tuple[Tuple[ClusterTree, ...], ...]
    cost: CostAccount

    @property
    def num_colors(self) -> int:
        return len(self.color_classes)

    def all_clusters(self) -> List[Tuple[int, ClusterTree]]:
        return [
            (color, cluster)
            for color, clusters in enumerate(self.color_classes)
            for cluster in clusters
        ]

    def validate(self, graph: Graph) -> None:
        """Check partition, separation, and tree structure (Def. 4.19)."""
        seen: Set[NodeId] = set()
        for color, clusters in enumerate(self.color_classes):
            color_nodes: List[Set[NodeId]] = []
            for c in clusters:
                c.validate(graph)
                overlap = seen & c.members
                if overlap:
                    raise ValueError(
                        f"node(s) {sorted(overlap)} appear in two clusters"
                    )
                seen |= c.members
                color_nodes.append(set(c.members))
            # Same-color clusters must be > separation apart.
            for i in range(len(color_nodes)):
                dist_from = graph.bfs_distances(frozenset(color_nodes[i]))
                for j in range(len(color_nodes)):
                    if i == j:
                        continue
                    for v in color_nodes[j]:
                        if dist_from[v] <= self.separation:
                            raise ValueError(
                                f"color {color}: clusters {i} and {j} are only"
                                f" {dist_from[v]} apart (need > {self.separation})"
                            )
        missing = set(graph.nodes) - seen
        if missing:
            raise ValueError(f"nodes {sorted(missing)} not in any cluster")


def _first_arrival_bfs(
    graph: Graph,
    sources: Dict[NodeId, int],
    max_dist: int,
) -> Tuple[Dict[NodeId, Tuple[int, int]], Dict[NodeId, Optional[NodeId]], int]:
    """Joint BFS from labeled sources up to ``max_dist``.

    Returns ``(assignment, parent, explored_edges)`` where ``assignment[v]``
    is ``(distance, label)`` of the first cluster wave to reach ``v`` (ties:
    smaller label) and ``parent`` gives the BFS path pointers.  Mirrors the
    synchronous semantics: all waves advance one hop per round.
    """

    assignment: Dict[NodeId, Tuple[int, int]] = {}
    parent: Dict[NodeId, Optional[NodeId]] = {}
    frontier: List[NodeId] = []
    for v in sorted(sources):
        assignment[v] = (0, sources[v])
        parent[v] = None
        frontier.append(v)
    explored_edges = 0
    dist = 0
    while frontier and dist < max_dist:
        dist += 1
        # Deterministic synchronous round: process candidates by (label, node).
        proposals: Dict[NodeId, Tuple[int, NodeId]] = {}
        for u in frontier:
            label = assignment[u][1]
            for v in graph.neighbors(u):
                explored_edges += 1
                if v in assignment:
                    continue
                bid = (label, u)
                if v not in proposals or bid < proposals[v]:
                    proposals[v] = bid
        next_frontier: List[NodeId] = []
        for v, (label, u) in sorted(proposals.items()):
            assignment[v] = (dist, label)
            parent[v] = u
            next_frontier.append(v)
        frontier = next_frontier
    return assignment, parent, explored_edges


def _build_one_color(
    graph: Graph,
    living: Set[NodeId],
    k: int,
    cost: CostAccount,
) -> Tuple[Set[NodeId], List[_LiveCluster]]:
    """Lemma C.1: cluster at least half of ``living``; return (kept, clusters)."""

    n = graph.num_nodes
    b = max(1, math.ceil(math.log2(max(n, 2))))
    alive: Set[NodeId] = set(living)
    # The clusters dict's insertion order drives the merge loops below, so
    # it is fixed by node id rather than inherited from set order.
    label: Dict[NodeId, int] = {v: v for v in sorted(alive)}
    clusters: Dict[int, _LiveCluster] = {
        v: _LiveCluster(label=v, members={v}, root=v, parent={v: None})
        for v in sorted(alive)
    }
    deny_threshold = 2 * b

    for bit in range(b):
        for c in clusters.values():
            c.stopped = False
        max_steps = 10 * b * max(1, math.ceil(math.log2(max(n, 2))))
        for _ in range(max_steps):
            blue_sources: Dict[NodeId, int] = {}
            for lab, cluster in clusters.items():
                if cluster.stopped or not cluster.members:
                    continue
                if (lab >> bit) & 1 == 0:  # blue in this phase
                    for v in cluster.members:
                        blue_sources[v] = lab
            if not blue_sources:
                break
            blue_labels = set(blue_sources.values())
            assignment, parent, explored = _first_arrival_bfs(
                graph, blue_sources, max_dist=k
            )
            cost.charge_bfs(k, explored)
            # Living red nodes reached by a wave propose to that cluster.
            proposals: Dict[int, List[NodeId]] = {}
            for v, (dist, lab) in assignment.items():
                if dist == 0 or v not in alive:
                    continue
                if (label[v] >> bit) & 1 == 1:  # red
                    proposals.setdefault(lab, []).append(v)
            any_growth = False
            for lab, cluster in sorted(clusters.items()):
                if cluster.stopped or lab not in blue_labels:
                    continue
                proposers = sorted(proposals.get(lab, ()))
                cost.charge_tree_wave(cluster.height(), cluster.tree_edge_count())
                if len(proposers) <= len(cluster.members) / deny_threshold:
                    # Deny: proposers die, the cluster stops for this phase.
                    for v in proposers:
                        alive.discard(v)
                        clusters[label[v]].members.discard(v)
                    cluster.stopped = True
                else:
                    any_growth = True
                    for v in proposers:
                        clusters[label[v]].members.discard(v)
                        label[v] = lab
                        cluster.members.add(v)
                        # Graft the BFS path of v onto the Steiner tree.
                        path = [v]
                        while path[-1] not in cluster.parent:
                            nxt = parent[path[-1]]
                            if nxt is None:
                                break
                            path.append(nxt)
                        for child, par in zip(path, path[1:]):
                            if child not in cluster.parent:
                                cluster.parent[child] = par
                        if path[-1] not in cluster.parent:
                            cluster.parent[path[-1]] = None  # defensive; unreachable
            if not any_growth and all(
                c.stopped
                for lab, c in clusters.items()
                if c.members and (lab >> bit) & 1 == 0
            ):
                break
        # Phase done: every surviving red cluster keeps its label; empty
        # clusters drop out.
        clusters = {lab: c for lab, c in clusters.items() if c.members}

    return alive, [c for c in clusters.values() if c.members]


def build_rg_decomposition(graph: Graph, k: int) -> Decomposition:
    """Theorem 4.20: k-separated weak-diameter decomposition, O(log n) colors."""
    if k < 1:
        raise ValueError("separation must be >= 1")
    if not graph.is_connected():
        raise ValueError("decomposition requires a connected graph")
    cost = CostAccount()
    remaining: Set[NodeId] = set(graph.nodes)
    color_classes: List[Tuple[ClusterTree, ...]] = []
    next_id = 0
    while remaining:
        kept, live_clusters = _build_one_color(graph, remaining, k, cost)
        trees: List[ClusterTree] = []
        for c in sorted(live_clusters, key=lambda c: c.label):
            # Prune the Steiner tree to member-to-root paths.
            keep: Set[NodeId] = set()
            for v in c.members:
                cur: Optional[NodeId] = v
                while cur is not None and cur not in keep:
                    keep.add(cur)
                    cur = c.parent[cur]
            parent = {v: p for v, p in c.parent.items() if v in keep}
            trees.append(
                ClusterTree(
                    cluster_id=next_id,
                    root=c.root,
                    members=frozenset(c.members),
                    parent=parent,
                )
            )
            next_id += 1
        color_classes.append(tuple(trees))
        remaining -= kept
    return Decomposition(
        separation=k, color_classes=tuple(color_classes), cost=cost
    )


def build_rg_cover(graph: Graph, d: int) -> Tuple[SparseCover, CostAccount]:
    """Theorem 4.21: sparse d-cover from a (2d+1)-separated decomposition.

    Each cluster expands to its d-neighborhood; separation keeps same-color
    expansions disjoint, and a node's home cluster is its own color cluster's
    expansion (which contains its whole d-ball).
    """

    decomposition = build_rg_decomposition(graph, 2 * d + 1)
    cost = decomposition.cost
    clusters: List[ClusterTree] = []
    home: Dict[NodeId, int] = {}
    next_id = 0
    for _, base in decomposition.all_clusters():
        assignment, parent, explored = _first_arrival_bfs(
            graph, {v: 0 for v in base.members}, max_dist=d
        )
        cost.charge_bfs(d, explored)
        members = frozenset(assignment)
        tree_parent: Dict[NodeId, Optional[NodeId]] = dict(base.parent)
        for v in sorted(members):
            path = [v]
            while path[-1] not in tree_parent:
                nxt = parent[path[-1]]
                if nxt is None:
                    break
                path.append(nxt)
            for child, par in zip(path, path[1:]):
                if child not in tree_parent:
                    tree_parent[child] = par
        expanded = ClusterTree(
            cluster_id=next_id,
            root=base.root,
            members=members,
            parent=tree_parent,
        )
        clusters.append(expanded)
        for v in base.members:
            home[v] = next_id
        next_id += 1
    return SparseCover.from_clusters(d, clusters, home), cost


def build_rg_layered_cover(graph: Graph, d: int) -> Tuple[LayeredCover, CostAccount]:
    total = CostAccount()
    levels: Dict[int, SparseCover] = {}
    for j in range(required_top_level(d) + 1):
        cover, cost = build_rg_cover(graph, 1 << j)
        total.rounds += cost.rounds
        total.messages += cost.messages
        levels[j] = cover
    return LayeredCover(levels=levels, graph=graph.twin()), total
