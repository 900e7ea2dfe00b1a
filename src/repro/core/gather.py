"""Information gathering in covers (Section 3.1, Theorems 3.1 and 3.2).

Every node runs some process ``P`` (or learns it never will); the goal is
for each node to learn when *all nodes within distance d·num_stages* are done
with ``P``.  Stage ``s`` aggregates, per cluster of the d-cover, the AND of
"done with stage s-1" (stage 0 = locally done with ``P``) and broadcasts the
confirmation; a node finishes stage ``s`` when every cluster containing it
confirms.  With ``num_stages = 1`` this is Theorem 3.1; larger values give
the d·l-ball extension of Theorem 3.2.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from ..covers.cover import SparseCover
from ..net.graph import NodeId
from .cluster_ops import ClusterAggregateModule, and_merge
from .registration import cluster_views_for

#: The first field of every gather aggregation tag ``(GATHER_TAG, stage)``.
GATHER_TAG = "gather"


class GatherModule:
    """Per-node engine for Theorem 3.1/3.2 over one sparse cover.

    Host contract: route payloads beginning with an aggregation opcode
    (:data:`repro.core.cluster_ops.OP_AGG_UP` / ``OP_AGG_DOWN``) here, call
    :meth:`start` once at protocol start and :meth:`mark_done` when the local
    process ``P`` finishes (or is known never to run).  ``on_complete(stage)``
    fires as the node learns each stage; stage ``num_stages`` means the whole
    ``d·num_stages``-ball is done.
    """

    def __init__(
        self,
        node_id: NodeId,
        cover: SparseCover,
        on_complete: Callable[[int], None],
        links: Mapping[NodeId, int],
        send_link: Callable[[int, Tuple, Any], None],
        num_stages: int = 1,
        priority_fn: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if num_stages < 1:
            raise ValueError("need at least one stage")
        self.node_id = node_id
        self.cover = cover
        self.num_stages = num_stages
        self.on_complete = on_complete
        views = cluster_views_for(cover.by_id, node_id)
        self._member_clusters = tuple(
            tree.cluster_id for tree in cover.clusters if node_id in tree.members
        )
        self._member_set = frozenset(self._member_clusters)
        self._tree_only_clusters = tuple(
            cid for cid in views if cid not in self._member_set
        )
        if priority_fn is None:
            priority_fn = lambda tag: (tag[1],)  # stage index
        self.agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=views,
            on_result=self._on_result,
            merge=and_merge,
            priority_fn=priority_fn,
            links=links,
            send_link=send_link,
        )
        self._done_local = False
        self._started = False
        self._confirmed: Dict[int, Set[int]] = {s: set() for s in range(1, num_stages + 1)}
        self._stage_reached = 0
        self._contributed: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Contribute everything that is ready at protocol start."""
        self._started = True
        for stage in range(1, self.num_stages + 1):
            for cid in self._tree_only_clusters:
                self._contribute(cid, stage)
        self._advance()

    def mark_done(self) -> None:
        """The local process P finished (or will never run)."""
        if self._done_local:
            raise ValueError(f"node {self.node_id} marked done twice")
        self._done_local = True
        if self._started:
            self._advance()

    def handle(self, sender: NodeId, payload: Tuple) -> bool:
        return self.agg.handle(sender, payload)

    # ------------------------------------------------------------------
    def _contribute(self, cid: int, stage: int) -> None:
        if (cid, stage) in self._contributed:
            return
        self._contributed.add((cid, stage))
        self.agg.contribute(cid, (GATHER_TAG, stage), True)

    def _ready_for_stage(self, stage: int) -> bool:
        """Ready to contribute to stage s = done with stage s-1."""
        if stage == 1:
            return self._done_local
        return self._stage_reached >= stage - 1

    def _advance(self) -> None:
        for stage in range(1, self.num_stages + 1):
            if self._ready_for_stage(stage):
                for cid in self._member_clusters:
                    self._contribute(cid, stage)

    def _on_result(self, cid: int, tag: Tuple, result: Any) -> None:
        _, stage = tag
        if not result:  # pragma: no cover - AND of Trues
            raise AssertionError("gather aggregation must be True")
        if cid not in self._member_set:
            return  # confirmations on relay-only trees carry no information
        self._confirmed[stage].add(cid)
        while (
            self._stage_reached < self.num_stages
            and self._confirmed[self._stage_reached + 1] >= self._member_set
        ):
            self._stage_reached += 1
            self.on_complete(self._stage_reached)
            self._advance()
