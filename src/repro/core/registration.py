"""Registration / deregistration / Go-Ahead in cluster trees (Section 3.2).

This is the paper's fix of the congestion bug in [AP90a]: instead of routing
every registration to the cluster root (Omega(n) congestion on the root
edge), registration marks the path to the root *dirty* with a recursive wave
``R``, deregistration converts dirty marks to *waiting* with a wave ``D``,
and the root's ``Go-Ahead`` walks back down the waiting edges.

The module multiplexes many independent registration stages: state is keyed
by ``(cluster_id, tag)`` where the tag is the pulse number (one stage per
pulse, Lemma 2.5).  On the wire the pair travels as a single *packed key*
(``(cluster_id << 32) | tag`` whenever the tag is a small non-negative int
— the synchronizer stack's pulse tags; a plain tuple otherwise), so a
wave message is ``(op, key)``: handlers index their stage dict with one
pre-hashed int instead of building and hashing a tuple per message
(DESIGN.md §8).  Messages carry a host-supplied priority so lower stages
preempt higher ones on shared links.

Guarantees implemented (and asserted by the tests verbatim):

* Register Guarantee 1 (Lemma 3.4): when ``v`` receives Go-Ahead, every node
  that registered before ``v`` deregistered has already deregistered;
  registration/deregistration cost O(h) time and messages.
* Register Guarantee 2 (Lemma 3.5): once registrations stop and all
  registered nodes have deregistered, every registered node receives its
  Go-Ahead within O(h) time, with Go-Ahead messages proportional to
  registration traffic (each Go-Ahead message consumes one waiting mark).

One deviation from the paper's prose, required for message-passing
correctness (see DESIGN.md §5): ``D(u)`` also terminates immediately while
``u``'s *own* registration is still in flight (state ``registering``) — the
paper's "if u is still registered" check starts one message too late
otherwise, and a deregistration wave could erase the dirty mark that ``u``'s
pending registration depends on.
"""

from __future__ import annotations

import warnings
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from ..net.graph import NodeId


class _IdentityLinks:
    """Fallback link map for hosts wired by node id (DESIGN.md §8).

    Resolves every destination to itself, so ``send_link(links[to], ...)``
    degrades to the node-id ``send`` for hosts that do not run on the
    transport's dense link table (standalone module tests, the multi-stage
    and full-BFS wrappers with their tagging send closures).
    """

    __slots__ = ()

    def __getitem__(self, key: NodeId) -> NodeId:
        return key


IDENTITY_LINKS = _IdentityLinks()


def resolve_link_pair(owner: str, send, links, send_link):
    """Resolve the optional ``links``/``send_link`` pair of a protocol module.

    Returns ``(links, send_link)`` — the supplied pair when both halves are
    present, else the node-id fallback (``IDENTITY_LINKS`` + ``send``).
    Supplying exactly one half is almost certainly a wiring bug (the caller
    meant to use the link-table fast path and silently is not), so that case
    emits a :class:`RuntimeWarning` naming the missing half instead of
    degrading invisibly.
    """
    if send_link is None or links is None:
        if (links is None) != (send_link is None):
            missing = "links" if links is None else "send_link"
            supplied = "send_link" if links is None else "links"
            warnings.warn(
                f"{owner}: {supplied!r} supplied without {missing!r}; the"
                " link-table fast path needs both, falling back to node-id"
                " sends (IDENTITY_LINKS)",
                RuntimeWarning,
                stacklevel=3,
            )
        return IDENTITY_LINKS, send
    return links, send_link

# Edge marks (our node's view of the edge to parent / to each child).
CLEAN = "clean"
DIRTY = "dirty"
WAITING = "waiting"

# Node registration lifecycle per (cluster, tag).
NONE = "none"
REGISTERING = "registering"
REGISTERED = "registered"
DEREGISTERED = "deregistered"
FREE = "free"

#: Wire opcodes (DESIGN.md §6): small consecutive ints continuing the shared
#: module range started by :mod:`repro.core.cluster_ops` (0..1), so a host
#: can dispatch every module message through one tuple index.  Hosts number
#: their private kinds from 6.
OP_REG_UP = 2
OP_REG_DONE = 3
OP_REG_DEREG = 4
OP_REG_GO_AHEAD = 5

_REG_OPS = (OP_REG_UP, OP_REG_DONE, OP_REG_DEREG, OP_REG_GO_AHEAD)

Tag = Any
#: Packed (cluster_id, tag) wire key — an int for int tags, else a tuple.
Key = Union[int, Tuple[int, Tag]]
SendFn = Callable[[NodeId, Tuple, Any], None]

_TAG_BITS = 32
_TAG_MASK = (1 << _TAG_BITS) - 1


def pack_key(cluster_id: int, tag: Tag) -> Key:
    """Pack one (cluster, tag) identity into its wire/dict key.

    Int tags (the synchronizer stack's pulse numbers) pack into one int —
    pre-hashed on the wire, cheaper to look up than a tuple per message;
    anything else falls back to the generic tuple key.
    """
    if type(tag) is int and 0 <= tag <= _TAG_MASK:
        return (cluster_id << _TAG_BITS) | tag
    return (cluster_id, tag)


def unpack_key(key: Key) -> Tuple[int, Tag]:
    """Inverse of :func:`pack_key`."""
    if type(key) is int:
        return key >> _TAG_BITS, key & _TAG_MASK
    return key


class _StageState:
    """Per-(cluster, tag) registration state at one node.

    Plain slots, one lifecycle: a stage is created on first touch, run,
    and retired (dropped from the module's stage dict) once terminal-clean
    (DESIGN.md §10).
    """

    __slots__ = ("key", "cluster_id", "tag", "view", "state", "finished",
                 "parent_mark", "child_marks", "dirty_children",
                 "waiting_children", "r_in_flight", "pending_child_invokers",
                 "local_pending", "priority", "parent_link", "poisoned")

    def __init__(self, key: Key, cluster_id: int, tag: Tag,
                 view: "ClusterView", finished: bool, priority: Any,
                 parent_link: Optional[int]) -> None:
        # The identity travels with the stage so emits reuse the packed
        # wire key and callbacks never decode.
        self.key = key
        self.cluster_id = cluster_id
        self.tag = tag
        self.view = view  # this node's tree view, bound at creation
        self.state = NONE
        self.finished = finished
        self.parent_mark = CLEAN
        self.child_marks: Dict[NodeId, str] = {}
        # Counts of DIRTY / WAITING entries in child_marks, maintained
        # incrementally so the wave handlers need no per-call scan of the
        # marks (and the retirement test is a pair of int loads).
        self.dirty_children = 0
        self.waiting_children = 0
        self.r_in_flight = False
        # Children owed an R confirmation, stored as resolved link ids (they
        # are only ever used to emit).
        self.pending_child_invokers: List[int] = []
        self.local_pending = False
        # The stage's link priority and parent link id, resolved once at
        # creation so emits skip the per-tag / per-destination dict probes.
        self.priority = priority
        self.parent_link = parent_link
        # Set by prune_child when a node crash touched this stage: a
        # poisoned stage's counters no longer tell the full wave story, so
        # it must never be retired as if it were terminal-clean.
        self.poisoned = False


class ClusterView(NamedTuple):
    """One node's local view of one cluster tree.

    A named tuple: registries build one per (cluster tree, tree node), so
    the record carries no per-instance ``__dict__``; it is immutable,
    hashable and picklable like any tuple.
    """

    cluster_id: int
    parent: Optional[NodeId]  # None iff this node is the root
    children: Tuple[NodeId, ...]

    @property
    def is_root(self) -> bool:
        return self.parent is None


class RegistrationModule:
    """Per-node engine for Section 3.2, multiplexed over (cluster, tag) stages.

    Host protocol contract:

    * route every message whose payload starts with one of the registration
      opcodes (:data:`OP_REG_UP` .. :data:`OP_REG_GO_AHEAD`) to
      :meth:`handle` — or, when the host dispatches on opcodes itself,
      straight to the per-kind ``handle_*`` methods;
    * call :meth:`register` / :meth:`deregister` at most once each per
      (cluster, tag);
    * supply ``priority_fn(tag)`` mapping a tag to the link priority of its
      stage, and the two callbacks.
    """

    def __init__(
        self,
        node_id: NodeId,
        clusters: Dict[int, ClusterView],
        send: SendFn,
        on_registered: Callable[[int, Tag], None],
        on_go_ahead: Callable[[int, Tag], None],
        priority_fn: Callable[[Tag], Any],
        links: Optional[Mapping[NodeId, int]] = None,
        send_link: Optional[Callable[[int, Tuple, Any], None]] = None,
    ) -> None:
        """``links``/``send_link`` wire the module onto the transport's
        dense link table (``ProcessContext.links`` / ``.send_link``): stages
        resolve their tree destinations to link ids once and every emit
        takes the int-indexed fast path.  Hosts that wrap ``send`` (payload
        tagging, standalone tests) omit them and keep node-id sends —
        supplying exactly one half warns (see :func:`resolve_link_pair`).

        A stage is retired once it is *terminal-clean* — every edge mark
        CLEAN, no wave in flight, this node's own register/deregister
        cycle over — so live state stays bounded by the stages in flight
        (DESIGN.md §10).  Two things become invisible once a stage
        retires: :meth:`state_of` reports ``NONE`` instead of ``FREE``,
        and the exactly-once :meth:`register` contract is only checkable
        while the stage is live (a contract-violating re-register after
        completion builds a fresh stage instead of raising).
        """
        self.node_id = node_id
        self.clusters = clusters
        # The ctor view dict is never mutated (prunes are copy-on-write), so
        # it doubles as the pristine topology a readmitted child is restored
        # from (DESIGN.md §15).
        self._pristine_clusters = clusters
        self._links, self._send_link = resolve_link_pair(
            "RegistrationModule", send, links, send_link
        )
        self.on_registered = on_registered
        self.on_go_ahead = on_go_ahead
        self.priority_fn = priority_fn
        self._stages: Dict[Key, _StageState] = {}
        self.messages_sent = 0

    # ------------------------------------------------------------------
    def _make_stage(self, key: Key) -> _StageState:
        """Stage miss path — one frame whether the trigger is a wire
        message (the common case: ~98% of stage creations in a sync-BFS
        run arrive by wire) or a local register/deregister."""
        cluster_id, tag = unpack_key(key)
        view = self.clusters.get(cluster_id)
        if view is None:
            raise ValueError(
                f"node {self.node_id} is not in cluster {cluster_id}"
            )
        parent = view.parent
        parent_link = None if parent is None else self._links[parent]
        stage = _StageState(
            key, cluster_id, tag, view, parent is None,
            self.priority_fn(tag), parent_link,
        )
        self._stages[key] = stage
        return stage

    def _stage(self, cluster_id: int, tag: Tag) -> _StageState:
        key = pack_key(cluster_id, tag)
        stage = self._stages.get(key)
        if stage is None:
            stage = self._make_stage(key)
        return stage

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def register(self, cluster_id: int, tag: Tag) -> None:
        """Start registering this node; ``on_registered`` fires when done."""
        stage = self._stage(cluster_id, tag)
        if stage.state != NONE:
            raise ValueError(
                f"node {self.node_id} double-registers in {cluster_id}/{tag}"
            )
        stage.state = REGISTERING
        if stage.finished:
            stage.state = REGISTERED
            self.on_registered(cluster_id, tag)
            return
        stage.local_pending = True
        self._invoke_r(stage)

    def deregister(self, cluster_id: int, tag: Tag) -> None:
        """Mark deregistered and launch the D wave; Go-Ahead arrives later."""
        stage = self._stage(cluster_id, tag)
        if stage.state != REGISTERED:
            raise ValueError(
                f"node {self.node_id} deregisters in {cluster_id}/{tag}"
                f" from state {stage.state!r}"
            )
        stage.state = DEREGISTERED
        if stage.view.parent is None:
            self._root_maybe_go_ahead(stage)
        else:
            self._run_d(stage)

    def state_of(self, cluster_id: int, tag: Tag) -> str:
        """This node's lifecycle state for one stage.

        A completed stage is retired once terminal-clean, so this reports
        ``NONE`` rather than ``FREE`` after completion.
        """
        stage = self._stages.get(pack_key(cluster_id, tag))
        return NONE if stage is None else stage.state

    # ------------------------------------------------------------------
    # R wave
    # ------------------------------------------------------------------
    def _invoke_r(self, stage: _StageState) -> None:
        if stage.r_in_flight:
            return
        stage.parent_mark = DIRTY
        stage.r_in_flight = True
        self.messages_sent += 1
        self._send_link(
            stage.parent_link, (OP_REG_UP, stage.key), stage.priority
        )

    def handle_reg_up(self, sender: NodeId, payload: Tuple) -> None:
        """A child's R wave — ``(OP_REG_UP, key)``."""
        key = payload[1]
        stage = self._stages.get(key)
        if stage is None:
            stage = self._make_stage(key)
        marks = stage.child_marks
        prev = marks.get(sender)
        if prev != DIRTY:
            stage.dirty_children += 1
            if prev == WAITING:
                stage.waiting_children -= 1
        marks[sender] = DIRTY
        if stage.finished:
            self.messages_sent += 1
            self._send_link(
                self._links[sender], (OP_REG_DONE, key), stage.priority
            )
            return
        stage.pending_child_invokers.append(self._links[sender])
        # _invoke_r, inlined (one frame per R message matters here).
        if not stage.r_in_flight:
            stage.parent_mark = DIRTY
            stage.r_in_flight = True
            self.messages_sent += 1
            self._send_link(
                stage.parent_link, (OP_REG_UP, key), stage.priority
            )

    def handle_reg_done(self, sender: NodeId, payload: Tuple) -> None:
        """The parent's R confirmation — ``(OP_REG_DONE, key)``."""
        key = payload[1]
        stage = self._stages.get(key)
        if stage is None:
            stage = self._make_stage(key)
        stage.r_in_flight = False
        # The parent's subtree-path to the root is dirty, hence so is ours.
        stage.finished = True
        if stage.pending_child_invokers:
            send_link = self._send_link
            done = (OP_REG_DONE, key)
            priority = stage.priority
            for child_link in stage.pending_child_invokers:
                self.messages_sent += 1
                send_link(child_link, done, priority)
            stage.pending_child_invokers.clear()
        if stage.local_pending:
            stage.local_pending = False
            stage.state = REGISTERED
            self.on_registered(stage.cluster_id, stage.tag)

    # ------------------------------------------------------------------
    # D wave
    # ------------------------------------------------------------------
    def _run_d(self, stage: _StageState) -> None:
        if stage.dirty_children:
            return
        if stage.view.parent is None:
            return
        if stage.state in (REGISTERING, REGISTERED):
            return
        if stage.parent_mark != DIRTY:
            # A D wave may arrive after our parent edge already turned
            # waiting (duplicate wave through another child); nothing to do.
            return
        stage.parent_mark = WAITING
        stage.finished = False
        self.messages_sent += 1
        self._send_link(
            stage.parent_link, (OP_REG_DEREG, stage.key), stage.priority
        )

    def handle_dereg(self, sender: NodeId, payload: Tuple) -> None:
        """A child's D wave — ``(OP_REG_DEREG, key)``."""
        key = payload[1]
        stage = self._stages.get(key)
        if stage is None:
            stage = self._make_stage(key)
        marks = stage.child_marks
        prev = marks.get(sender)
        if prev == DIRTY:
            stage.dirty_children -= 1
        if prev != WAITING:
            stage.waiting_children += 1
        marks[sender] = WAITING
        if stage.view.parent is None:
            self._root_maybe_go_ahead(stage)
        elif not stage.dirty_children:
            # _run_d, inlined (the parent-is-None arm is unreachable here);
            # same checks in the same order.
            state = stage.state
            if state == REGISTERING or state == REGISTERED:
                return
            if stage.parent_mark != DIRTY:
                return
            stage.parent_mark = WAITING
            stage.finished = False
            self.messages_sent += 1
            self._send_link(
                stage.parent_link, (OP_REG_DEREG, key), stage.priority
            )

    # ------------------------------------------------------------------
    # Go-Ahead wave
    # ------------------------------------------------------------------
    def _root_maybe_go_ahead(self, stage: _StageState) -> None:
        if stage.dirty_children:
            return
        if stage.state in (REGISTERING, REGISTERED):
            # The root's own registration holds the cluster open.
            return
        self._run_g(stage)

    def _run_g(self, stage: _StageState) -> None:
        if stage.state == DEREGISTERED:
            stage.state = FREE
            self.on_go_ahead(stage.cluster_id, stage.tag)
        if stage.waiting_children:
            marks = stage.child_marks
            links = self._links
            send_link = self._send_link
            payload = (OP_REG_GO_AHEAD, stage.key)
            priority = stage.priority
            # Iteration stays in ascending *node id* order (the emit order
            # is part of the pinned schedule); single-child stages — most
            # of a cycle/grid tree — skip the sort.  Only mark values are
            # mutated, so iterating the dict directly is safe.
            items = sorted(marks.items()) if len(marks) > 1 else marks.items()
            sent = 0
            for child, mark in items:
                if mark == WAITING:
                    marks[child] = CLEAN
                    sent += 1
                    send_link(links[child], payload, priority)
            self.messages_sent += sent
            stage.waiting_children = 0
        # Terminal-clean: every mark CLEAN, no wave in flight, and this
        # node's own register/deregister cycle over (state NONE for pure
        # relays, FREE after a Go-Ahead).  Nothing the stage can still
        # receive distinguishes it from a fresh one, so retire it — a later
        # message for this key builds a new stage.
        if (not stage.dirty_children
                and stage.parent_mark == CLEAN and not stage.r_in_flight
                and not stage.local_pending and not stage.poisoned
                and (stage.state is NONE or stage.state is FREE)):
            del self._stages[stage.key]

    # ------------------------------------------------------------------
    # recovery (DESIGN.md §11)
    # ------------------------------------------------------------------
    def prune_child(self, dead: NodeId) -> None:
        """Excise a crashed neighbor from every cluster view and live stage.

        Detect-and-degrade semantics: the dead node's subtree is abandoned.
        Its marks are erased (``dirty_children`` / ``waiting_children``
        recomputed incrementally, exactly as the wave handlers maintain
        them), its owed R confirmations are dropped, and any wave the dead
        child was holding up is re-driven — a root stage re-checks
        Go-Ahead, a relay stage re-runs ``D``.  Stages whose *parent* is
        the corpse are orphans: they can never complete and are only
        poisoned.  Every stage a crash touched is marked ``poisoned`` and
        never retired: its counters no longer tell the full wave story,
        so it stays in the stage dict for inspection.

        Cluster views are pruned copy-on-write: the view dicts may be
        shared with sibling modules on this node and cached across sweep
        replays, so they are never mutated in place.
        """
        dead_link = self._links[dead]
        clusters = dict(self.clusters)
        changed = False
        for cid, view in clusters.items():
            if dead in view.children:
                clusters[cid] = ClusterView(
                    cluster_id=cid,
                    parent=view.parent,
                    children=tuple(c for c in view.children if c != dead),
                )
                changed = True
        if changed:
            self.clusters = clusters
        for stage in list(self._stages.values()):
            view = stage.view
            if view.parent == dead:
                stage.poisoned = True
                continue
            prev = stage.child_marks.pop(dead, None)
            if prev is None and dead not in view.children:
                # The corpse plays no role in this stage's tree.
                continue
            stage.poisoned = True
            new_view = self.clusters.get(stage.cluster_id)
            if new_view is not None:
                stage.view = new_view
            if prev == DIRTY:
                stage.dirty_children -= 1
            elif prev == WAITING:
                stage.waiting_children -= 1
            if stage.pending_child_invokers:
                stage.pending_child_invokers[:] = [
                    lnk for lnk in stage.pending_child_invokers
                    if lnk != dead_link
                ]
            if stage.view.parent is None:
                self._root_maybe_go_ahead(stage)
            elif not stage.dirty_children:
                self._run_d(stage)

    def readmit_child(self, returned: NodeId) -> None:
        """Restore a re-joined child into the cluster views (DESIGN.md §15).

        The inverse of :meth:`prune_child`, restricted to topology: the
        child re-enters every view it held in the pristine (construction
        time) trees — in its original sibling position, so stages created
        after the readmission see the same deterministic child order a
        never-crashed run would.  Live stages are *not* rewound: the waves
        they carry re-closed over the survivors when the crash was
        detected, and un-closing them would make a barrier wait on a
        contribution the fresh incarnation (which starts with blank
        protocol state) never sends.  Poisoned stages stay poisoned — the
        crash happened; readmission does not make them retirable.
        Idempotent per neighbor.
        """
        pristine = self._pristine_clusters
        clusters = dict(self.clusters)
        changed = False
        for cid, view in clusters.items():
            pv = pristine.get(cid)
            if (pv is None or returned not in pv.children
                    or returned in view.children):
                continue
            keep = set(view.children)
            keep.add(returned)
            clusters[cid] = ClusterView(
                cluster_id=cid,
                parent=view.parent,
                children=tuple(c for c in pv.children if c in keep),
            )
            changed = True
        if changed:
            self.clusters = clusters

    def handle_go_ahead(self, sender: NodeId, payload: Tuple) -> None:
        """The parent's Go-Ahead — ``(OP_REG_GO_AHEAD, key)``."""
        key = payload[1]
        stage = self._stages.get(key)
        if stage is None:
            stage = self._make_stage(key)
        if stage.parent_mark != WAITING:
            # A registration wave re-dirtied this edge while the Go-Ahead was
            # in flight; drop it — a newer Go-Ahead will follow (Lemma 3.5's
            # case analysis).
            return
        stage.parent_mark = CLEAN
        self._run_g(stage)

    # ------------------------------------------------------------------
    def handle(self, sender: NodeId, payload: Tuple) -> bool:
        """Process one registration message; returns False if not ours."""
        if not (isinstance(payload, tuple) and payload and payload[0] in _REG_OPS):
            return False
        self.handle_known(sender, payload)
        return True

    def handle_known(self, sender: NodeId, payload: Tuple) -> None:
        """Like :meth:`handle` for hosts that already routed on the opcode."""
        op = payload[0]
        if op == OP_REG_UP:
            self.handle_reg_up(sender, payload)
        elif op == OP_REG_DONE:
            self.handle_reg_done(sender, payload)
        elif op == OP_REG_DEREG:
            self.handle_dereg(sender, payload)
        elif op == OP_REG_GO_AHEAD:
            self.handle_go_ahead(sender, payload)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown registration message kind {op!r}")


def cluster_views_for(
    cover_clusters: Dict[int, "object"], node_id: NodeId
) -> Dict[int, ClusterView]:
    """Extract this node's :class:`ClusterView` for every tree it appears in.

    ``cover_clusters`` maps cluster id to a :class:`~repro.covers.ClusterTree`.
    """
    views: Dict[int, ClusterView] = {}
    for cid, tree in cover_clusters.items():
        if node_id in tree.parent:
            views[cid] = ClusterView(
                cluster_id=cid,
                parent=tree.parent[node_id],
                children=tree.children.get(node_id, ()),
            )
    return views
