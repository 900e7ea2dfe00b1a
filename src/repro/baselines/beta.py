"""Awerbuch's β synchronizer (Appendix A).

β assumes an initialization phase that elects a leader and builds a rooted
spanning tree (we take the deterministic BFS tree from node 0 as given and
report its cost separately, as the paper does: "There is also a high time and
message complexity for the initialization ... but we will ignore that
here").  Per pulse, safety is convergecast up the tree to the root and the
next-pulse permission is broadcast back down: time overhead O(D) per pulse,
message overhead O(n) per pulse — messages ``M(A) + O(T·n)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..net.async_runtime import AsyncResult, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ProgramSpec
from .common import BaselineProcess, BaselineSweep


class BetaProcess(BaselineProcess):
    """β's rule: convergecast ``tsafe`` up the tree; the root broadcasts
    ``next`` down it, and every node advances as ``next`` passes."""

    NAME = "beta"

    # Set by :meth:`bind`:
    tree: Dict[NodeId, Optional[NodeId]]
    children: Dict[NodeId, Tuple[NodeId, ...]]

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.tree_parent = self.tree[ctx.node_id]
        self.tree_children = self.children.get(ctx.node_id, ())
        self.child_safe: Dict[int, Set[NodeId]] = {}
        #: The last pulse this node's subtree reported safe for.
        self.reported = -1

    def _safe(self) -> None:
        """Report once this node and every child subtree are safe."""
        p = self.pulse
        if self.reported == p or self.safe_pulse != p:
            return
        if self.child_safe.get(p, set()) >= set(self.tree_children):
            self.reported = p
            if self.tree_parent is None:
                self._release()
            else:
                self.ctx.send(self.tree_parent, ("tsafe", p), (p,))

    def _release(self) -> None:
        for c in self.tree_children:
            self.ctx.send(c, ("next", self.pulse + 1), (self.pulse,))
        self._advance()

    def _control(self, sender: NodeId, payload: Tuple) -> bool:
        kind = payload[0]
        if kind == "tsafe":
            self.child_safe.setdefault(payload[1], set()).add(sender)
            self._safe()
        elif kind == "next":
            self._release()
        else:  # pragma: no cover
            return False
        return True


def tree_attrs(graph: Graph, root: NodeId) -> Dict[str, Dict]:
    """:meth:`BetaProcess.bind`'s ``tree`` (BFS parents from ``root``) and
    ``children`` (sorted per parent)."""
    tree = graph.bfs_tree(root)
    children: Dict[NodeId, List[NodeId]] = {}
    for v, p in tree.items():
        if p is not None:
            children.setdefault(p, []).append(v)
    return dict(
        tree=tree, children={v: tuple(sorted(c)) for v, c in children.items()}
    )


def run_beta(
    graph: Graph,
    spec: ProgramSpec,
    delay_model: DelayModel,
    max_pulse: Optional[int] = None,
    root: NodeId = 0,
    max_events: int = 100_000_000,
) -> AsyncResult:
    """Run ``spec`` under the β synchronizer (BFS tree from ``root`` given)."""
    sweep = BaselineSweep(graph, BetaProcess.bind(
        graph, spec, max_pulse, **tree_attrs(graph, root)))
    return sweep.run(delay_model, max_events=max_events)
