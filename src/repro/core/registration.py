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

The module also holds :class:`ClusterTreeModule`, the base this module
shares with :class:`~repro.core.cluster_ops.ClusterAggregateModule`, and
:func:`cluster_views_for`, the per-node view builder (DESIGN.md §3).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from ..net.graph import NodeId


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

Tag = Any
#: Packed (cluster_id, tag) wire key — an int for int tags, else a tuple.
Key = Union[int, Tuple[int, Tag]]

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


class ClusterTreeModule:
    """Shared core of the per-node modules that run waves on cluster trees.

    :class:`RegistrationModule` (Section 3.2) and
    :class:`~repro.core.cluster_ops.ClusterAggregateModule` (Theorem 3.1)
    are the two subclasses.  The base owns what they have in common: the
    node id, this node's :class:`ClusterView` of every tree it is on, the
    link wiring, the priority function, the message count, the crash prune
    of the views, the readmission of a returned child, and the opcode
    dispatch of :meth:`handle`.  Each subclass keeps its own waves and its
    per-(cluster, tag) state.

    Host contract, for both modules:

    * build ``clusters`` with :func:`cluster_views_for` or
      :meth:`CoverRegistry.views_of
      <repro.core.registry.CoverRegistry.views_of>`; the module never
      mutates that dict, so hosts and sibling modules may share it;
    * route every message whose payload starts with one of the module's
      opcodes (the keys of ``_dispatch``) to :meth:`handle`, or, when the
      host dispatches on opcodes itself, straight to the per-kind
      ``handle_*`` methods;
    * supply ``priority_fn(tag)``, pure and identical across nodes, that
      maps a tag to the link priority of its messages;
    * under churn, call :meth:`prune_child` when a neighbor crashes and
      :meth:`readmit_child` when it returns (DESIGN.md §11, §15).

    ``links``/``send_link`` wire the module onto the transport's dense
    link table, and are the only wiring: a host passes
    ``ProcessContext.links`` and ``.send_link`` (DESIGN.md §8).  A stage
    or instance resolves its tree destinations to link ids once and every
    emit goes out by link id.  A host that tags payloads wraps
    ``send_link`` in a closure.
    """

    #: Opcode -> handler function, declared by each subclass after its
    #: handlers (a subclass that overrides a handler re-declares it).
    _dispatch: Dict[int, Callable[..., None]]

    def __init__(
        self,
        node_id: NodeId,
        clusters: Dict[int, ClusterView],
        priority_fn: Callable[[Tag], Any],
        links: Mapping[NodeId, int],
        send_link: Callable[[int, Tuple, Any], None],
    ) -> None:
        self.node_id = node_id
        self.clusters = clusters
        # The ctor view dict is never mutated (prunes are copy-on-write), so
        # it doubles as the pristine topology a readmitted child is restored
        # from (DESIGN.md §15).
        self._pristine_clusters = clusters
        self._links = links
        self._send_link = send_link
        self.priority_fn = priority_fn
        self.messages_sent = 0

    def handle(self, sender: NodeId, payload: Tuple) -> bool:
        """Process one message of this module; returns False if not ours."""
        if not (isinstance(payload, tuple) and payload):
            return False
        handler = self._dispatch.get(payload[0])
        if handler is None:
            return False
        handler(self, sender, payload)
        return True

    # ------------------------------------------------------------------
    # recovery (DESIGN.md §11, §15)
    # ------------------------------------------------------------------
    def _set_children(self, children: Dict[int, Tuple[NodeId, ...]]) -> None:
        """Give the views in ``children`` their new child tuples.

        Copy-on-write: the view dicts may be shared with sibling modules
        on this node and cached across sweep replays, so they are never
        mutated in place, and an empty update keeps the current dict.
        """
        if children:
            clusters = dict(self.clusters)
            for cid, kids in children.items():
                clusters[cid] = clusters[cid]._replace(children=kids)
            self.clusters = clusters

    def _prune_views(self, dead: NodeId) -> None:
        """Excise a crashed child from every cluster view."""
        self._set_children({
            cid: tuple(c for c in view.children if c != dead)
            for cid, view in self.clusters.items() if dead in view.children
        })

    def readmit_child(self, returned: NodeId) -> None:
        """Restore a re-joined child into the cluster views (DESIGN.md §15).

        The inverse of ``prune_child``, restricted to topology: the child
        re-enters every view it held in the pristine (construction time)
        trees, in its original sibling position, so stages and instances
        created after the readmission address it again in the same
        deterministic child order a never-crashed run would see.  Live
        stages and instances are *not* rewound: the waves they carry
        re-closed over the survivors when the crash was detected, and
        un-closing them would make a barrier wait on a contribution the
        fresh incarnation (which starts with blank protocol state) never
        sends.  Idempotent per neighbor.
        """
        pristine = self._pristine_clusters
        self._set_children({
            cid: tuple(c for c in pristine[cid].children
                       if c == returned or c in view.children)
            for cid, view in self.clusters.items()
            if returned in pristine[cid].children
            and returned not in view.children
        })


class RegistrationModule(ClusterTreeModule):
    """Per-node engine for Section 3.2, multiplexed over (cluster, tag) stages.

    On top of the :class:`ClusterTreeModule` host contract: call
    :meth:`register` / :meth:`deregister` at most once each per
    (cluster, tag), and supply the two callbacks.
    """

    def __init__(
        self,
        node_id: NodeId,
        clusters: Dict[int, ClusterView],
        on_registered: Callable[[int, Tag], None],
        on_go_ahead: Callable[[int, Tag], None],
        priority_fn: Callable[[Tag], Any],
        links: Mapping[NodeId, int],
        send_link: Callable[[int, Tuple, Any], None],
    ) -> None:
        """A stage is retired once it is *terminal-clean* — every edge mark
        CLEAN, no wave in flight, this node's own register/deregister
        cycle over — so live state stays bounded by the stages in flight
        (DESIGN.md §10).  Two things become invisible once a stage
        retires: :meth:`state_of` reports ``NONE`` instead of ``FREE``,
        and the exactly-once :meth:`register` contract is only checkable
        while the stage is live (a contract-violating re-register after
        completion builds a fresh stage instead of raising).
        """
        super().__init__(node_id, clusters, priority_fn, links, send_link)
        self.on_registered = on_registered
        self.on_go_ahead = on_go_ahead
        self._stages: Dict[Key, _StageState] = {}

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

        Readmission (:meth:`readmit_child`) leaves poisoned stages
        poisoned: the crash happened, so they stay unretirable.
        """
        dead_link = self._links[dead]
        self._prune_views(dead)
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

    _dispatch = {
        OP_REG_UP: handle_reg_up,
        OP_REG_DONE: handle_reg_done,
        OP_REG_DEREG: handle_dereg,
        OP_REG_GO_AHEAD: handle_go_ahead,
    }


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
