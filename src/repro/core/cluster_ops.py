"""Convergecast/broadcast aggregation on cluster trees.

One primitive, a per-cluster barrier, serves four hosts:

* the pulse gate's multi-source registration base case (Section 4.2,
  :mod:`repro.core.gate`): convergecast "all sources in the cluster have
  p-registered / p-deregistered", broadcast the confirmation / the
  Go-Ahead;
* information gathering in covers (Section 3.1, Theorems 3.1/3.2,
  :mod:`repro.core.gather`): aggregate "everyone in this cluster is done
  with P" and broadcast the confirmation;
* the full BFS's per-iteration "is anyone still alive?" barrier on the top
  cover level (:mod:`repro.core.full_bfs`);
* γ's per-pulse cluster barriers (:mod:`repro.baselines.gamma`).

All four merge with :func:`and_merge`.  Leader election (Section 6) runs its
own minimum convergecast (:mod:`repro.apps.leader_election`), not this
module.

An *instance* is identified by ``(cluster_id, tag)``; on the wire the
pair travels as the packed key of :func:`repro.core.registration.pack_key`
(one pre-hashed int for int tags), so an aggregate message is
``(op, key, value)`` and handlers index their instance dict without
building a tuple per message (DESIGN.md §8).  Every node on the cluster
tree (members and Steiner relays alike) eventually contributes one value;
a node forwards up once it holds its own value and one value per child,
and the root broadcasts the combined result down.  Cost: exactly two
messages per tree edge per instance and one round trip of the tree height —
the counts Theorem 3.1 charges.

At each node an instance is *live* until it forwards up, *settled* until
the broadcast reaches it, and then *retired* to a shared tombstone
(DESIGN.md §10).  Only a live instance has a record of its own.  A
settled one is the immutable :class:`_TreeLinks` record of its cluster
view, shared by every settled instance on that view, unless a prune gave
it a pruned slot or filtered its broadcast links; then it holds a small
private copy.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..net.graph import NodeId
from .registration import (
    ClusterTreeModule,
    ClusterView,
    Key,
    pack_key,
    unpack_key,
)

#: Wire opcodes (DESIGN.md §6): message kinds are small consecutive ints so
#: hosts dispatch through a tuple index instead of a string-compare chain.
#: The shared modules own the 0..5 range (aggregation here, registration in
#: :mod:`repro.core.registration`); hosts number their private kinds from 6.
OP_AGG_UP = 0
OP_AGG_DOWN = 1

Tag = Any
MergeFn = Callable[[Any, Any], Any]

#: Sentinel stored as a pruned child's "value": the merge loop skips it, so
#: a crashed subtree simply contributes nothing (identity element) without
#: the merge functions having to know about crashes.
_PRUNED = object()

#: Tombstone that replaces a finished instance in ``_instances``: the
#: instance's state is dropped, but its key stays so a second
#: contribution, a stray convergecast value or a second broadcast for it
#: still raises (DESIGN.md §10).
_RETIRED = object()

#: The one shared, read-only ``child_values`` of every live leaf instance.
_NO_CHILD_VALUES: Mapping[NodeId, Any] = MappingProxyType({})

#: The pruned children of every record that has none.
_NO_PRUNED: FrozenSet[NodeId] = frozenset()


class _TreeLinks(NamedTuple):
    """A tree view's resolved links, and the settled form of an instance.

    The module resolves one record per cluster view: the view, its parent
    link (None at the root), its child links in child order and no pruned
    child.  A live instance emits on its view's record, and a settled
    instance *is* that record in ``_instances``: the key supplies the
    cluster id, the tag and (through the pure ``priority_fn``) the
    priority.  A prune never edits a record; it gives the affected
    instance a private copy, with the dead child's link filtered out of
    ``children_links`` or the children whose late value must be dropped
    in ``pruned`` (DESIGN.md §10, §15).
    """

    #: The tree view the instance was created on; its children are the
    #: ones the convergecast guards accept a value from.
    view: ClusterView
    parent_link: Optional[int]
    children_links: Tuple[int, ...]
    pruned: FrozenSet[NodeId]


class _InstanceState:
    """A live per-(cluster, tag) aggregation instance at one node.

    Live until it sends its value up (plain slots); the module then
    replaces it by its settled :class:`_TreeLinks` record (DESIGN.md §10).
    """

    __slots__ = ("key", "links", "priority", "contributed", "value",
                 "child_values", "missing")

    def __init__(self, key: Key, links: _TreeLinks, priority: Any) -> None:
        # The packed wire key travels with the instance so emits reuse it.
        self.key = key
        # The view's shared record until a prune gives this instance a
        # filtered copy.
        self.links = links
        self.priority = priority
        self.contributed = False
        self.value: Any = None
        # Child values still owed before this node may forward up; counted
        # down as they arrive so the forward check is one attribute test.
        children = links.view.children
        self.missing = len(children)
        # Most instances are leaves, which never store a child value.
        self.child_values: Mapping[NodeId, Any] = (
            {} if children else _NO_CHILD_VALUES
        )


class ClusterAggregateModule(ClusterTreeModule):
    """Per-node engine for tree aggregation, multiplexed over (cluster, tag).

    On top of the :class:`~repro.core.registration.ClusterTreeModule` host
    contract: call :meth:`contribute` exactly once per instance on every
    tree node of the cluster, and supply one ``merge(a, b)``, pure and
    identical across nodes, that combines two values of any instance.
    ``on_result(cluster_id, tag, result)`` fires on every tree node once
    the broadcast reaches it.  The node then retires the instance: its
    entry becomes the :data:`_RETIRED` tombstone, and any later
    contribution or message for it raises (DESIGN.md §10).  Before that,
    an instance that has sent its value up is *settled*: its entry is its
    view's shared :class:`_TreeLinks` record, or a private copy that keeps
    the pruned children and filtered links its guards and broadcast read.
    """

    def __init__(
        self,
        node_id: NodeId,
        clusters: Dict[int, ClusterView],
        on_result: Callable[[int, Tag, Any], None],
        merge: MergeFn,
        priority_fn: Callable[[Tag], Any],
        links: Mapping[NodeId, int],
        send_link: Callable[[int, Tuple, Any], None],
    ) -> None:
        super().__init__(node_id, clusters, priority_fn, links, send_link)
        self.on_result = on_result
        self.merge = merge
        # Live instances, settled records and the :data:`_RETIRED`
        # tombstone of each finished instance.
        self._instances: Dict[Key, Any] = {}
        # Each cluster view's shared :class:`_TreeLinks`, resolved once.  A
        # prune or a readmission builds new views, which miss and resolve
        # afresh.
        self._view_links: Dict[ClusterView, _TreeLinks] = {}
        # Whether any child was ever pruned: until then no instance holds a
        # :data:`_PRUNED` slot, so settling keeps nothing.
        self._pruned_any = False

    def _make_instance(self, key: Key, cluster_id: int, tag: Tag) -> _InstanceState:
        view = self.clusters.get(cluster_id)
        if view is None:
            raise ValueError(
                f"node {self.node_id} is not on the tree of cluster {cluster_id}"
            )
        tree_links = self._view_links.get(view)
        if tree_links is None:
            links = self._links
            parent = view.parent
            tree_links = self._view_links[view] = _TreeLinks(
                view,
                None if parent is None else links[parent],
                tuple([links[child] for child in view.children]),
                _NO_PRUNED,
            )
        instance = _InstanceState(key, tree_links, self.priority_fn(tag))
        self._instances[key] = instance
        return instance

    def _finished_error(self, key: Key, what: str) -> ValueError:
        cluster_id, tag = unpack_key(key)
        return ValueError(
            f"node {self.node_id} got {what} for finished instance"
            f" {cluster_id}/{tag}"
        )

    def _instance_from_wire(self, key: Key) -> _InstanceState:
        """Handler miss path: first message of an instance at this node."""
        cluster_id, tag = unpack_key(key)
        return self._make_instance(key, cluster_id, tag)

    # ------------------------------------------------------------------
    def contribute(self, cluster_id: int, tag: Tag, value: Any) -> None:
        """Provide this node's input to the instance (exactly once)."""
        key = pack_key(cluster_id, tag)
        instance = self._instances.get(key)
        if instance is None:
            instance = self._make_instance(key, cluster_id, tag)
        # Settled and retired entries have contributed already.
        elif instance.__class__ is not _InstanceState or instance.contributed:
            raise ValueError(
                f"node {self.node_id} double-contributes to {cluster_id}/{tag}"
            )
        instance.contributed = True
        instance.value = value
        self._maybe_forward(instance)

    # ------------------------------------------------------------------
    def _maybe_forward(self, instance: _InstanceState) -> None:
        if instance.missing or not instance.contributed:
            return
        links = instance.links
        view = links.view
        combined = instance.value
        children = view.children
        if children:
            merge = self.merge
            child_values = instance.child_values
            for child in children:
                cv = child_values[child]
                if cv is _PRUNED:
                    continue
                combined = merge(combined, cv)
            # Settle: the guards still read the pruned slots, and there are
            # none before the module's first prune.
            if self._pruned_any:
                pruned = frozenset(
                    [c for c, v in child_values.items() if v is _PRUNED])
                if pruned:
                    links = links._replace(pruned=pruned)
        key = instance.key
        if view.parent is None:
            # The root finishes at once; it retires unless a pruned child's
            # slot is still needed to drop that child's late value (§15).
            self._instances[key] = links if links.pruned else _RETIRED
            self._broadcast(key, links.children_links, combined)
        else:
            self._instances[key] = links
            self.messages_sent += 1
            self._send_link(
                links.parent_link, (OP_AGG_UP, key, combined),
                instance.priority,
            )

    def _broadcast(self, key: Key, children_links: Tuple[int, ...],
                   result: Any) -> None:
        """Send the result down the tree and report it to the host."""
        cluster_id, tag = unpack_key(key)
        if children_links:
            priority = self.priority_fn(tag)
            send_link = self._send_link
            payload = (OP_AGG_DOWN, key, result)
            for child_link in children_links:
                self.messages_sent += 1
                send_link(child_link, payload, priority)
        self.on_result(cluster_id, tag, result)

    def _stray_up(self, key: Key, sender: NodeId,
                  children: Tuple[NodeId, ...], pruned: bool) -> None:
        """A convergecast value the instance no longer owes a slot for."""
        if pruned:
            # A re-joined child's late value: this barrier already
            # re-closed over the survivors when the crash was detected,
            # so the fresh incarnation's word is dropped (degrade
            # semantics, DESIGN.md §15) — it participates from the next
            # instance onward.
            return
        cluster_id, tag = unpack_key(key)
        # Every child of a settled instance has been heard from, so a word
        # from a child is a duplicate there too.
        if sender in children:
            raise ValueError(
                f"duplicate convergecast value from {sender} in"
                f" {cluster_id}/{tag}"
            )
        raise ValueError(
            f"convergecast value from non-child {sender} in"
            f" {cluster_id}/{tag}"
        )

    # ------------------------------------------------------------------
    def handle_up(self, sender: NodeId, payload: Tuple) -> None:
        """One convergecast value — ``(OP_AGG_UP, key, value)``."""
        key = payload[1]
        instance = self._instances.get(key)
        if instance is None:
            instance = self._instance_from_wire(key)
        elif instance.__class__ is not _InstanceState:
            if instance is _RETIRED:
                raise self._finished_error(
                    key, f"a convergecast value from {sender}")
            self._stray_up(key, sender, instance.view.children,
                           sender in instance.pruned)
            return
        child_values = instance.child_values
        children = instance.links.view.children
        if sender in child_values or sender not in children:
            self._stray_up(key, sender, children,
                           child_values.get(sender) is _PRUNED)
            return
        child_values[sender] = payload[2]
        instance.missing -= 1
        self._maybe_forward(instance)

    def handle_down(self, sender: NodeId, payload: Tuple) -> None:
        """The broadcast result — ``(OP_AGG_DOWN, key, result)``."""
        key = payload[1]
        instance = self._instances.get(key)
        if instance is None:
            instance = self._instance_from_wire(key)
        elif instance is _RETIRED:
            raise self._finished_error(key, f"a broadcast result from {sender}")
        # Retire the instance unless a pruned child's slot is still needed
        # to drop that child's late value (DESIGN.md §15).
        if instance.__class__ is _InstanceState:
            links = instance.links
            if _PRUNED not in instance.child_values.values():
                self._instances[key] = _RETIRED
        else:
            links = instance
            if not links.pruned:
                self._instances[key] = _RETIRED
        self._broadcast(key, links.children_links, payload[2])

    # ------------------------------------------------------------------
    def prune_child(self, dead: NodeId) -> None:
        """Excise a crashed child from every cluster view and live instance.

        Detect-and-degrade semantics (DESIGN.md §11): a convergecast no
        longer waits for the dead subtree — the child's owed value becomes
        the :data:`_PRUNED` sentinel (skipped by the merge loop, i.e. the
        identity element) and any instance it was holding up forwards
        immediately; the broadcast stops addressing the corpse.  A value
        the child delivered *before* crashing is kept (it was validly
        contributed).  Instances whose parent is the corpse are orphans and
        simply stall.  After a readmission (:meth:`readmit_child`) the
        returned child's late values for instances that re-closed without
        it are dropped by the ``_PRUNED`` guard in :meth:`handle_up`.  A
        settled instance owes the dead child nothing; only its broadcast
        stops addressing it, through a private copy of its record.
        """
        dead_link = self._links[dead]
        self._prune_views(dead)
        self._pruned_any = True
        instances = self._instances
        # By key: a forward below may settle or retire another instance
        # (through ``on_result``), and the loop must see its current entry.
        for key in list(instances):
            instance = instances[key]
            if instance is _RETIRED:
                continue
            live = instance.__class__ is _InstanceState
            links = instance.links if live else instance
            if dead not in links.view.children:
                continue
            # A copy, never an edit: the view's record is shared.
            links = links._replace(children_links=tuple(
                lnk for lnk in links.children_links if lnk != dead_link))
            if not live:
                instances[key] = links
                continue
            instance.links = links
            if dead not in instance.child_values:
                instance.child_values[dead] = _PRUNED
                instance.missing -= 1
                self._maybe_forward(instance)

    _dispatch = {OP_AGG_UP: handle_up, OP_AGG_DOWN: handle_down}


def and_merge(a: Any, b: Any) -> Any:
    return bool(a) and bool(b)


def min_merge(a: Any, b: Any) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
