"""Canonical state fingerprints for convergence dedup (DESIGN.md §13).

The synchronizer stack is *designed* to be arrival-order-insensitive
inside a wave — which means most of the race points DPOR must branch on
reconverge to the same protocol state two steps later.  A purely
stateless search still pays the exponential diamond; the explorer
therefore fingerprints the full observable state at every decision point
and explores each state's continuation once.  Together with the DFS
ordering (a state is only ever revisited after its first occurrence's
subtree completed), this turns the exploration tree into a DAG without
losing coverage.

What the fingerprint includes: the crashed and rejoined sets, the
enabled synthetic actions (crash/rejoin/detect/alive), per-link
transport state (busy/pending/injection counters,
outbox contents in pop order, in-flight payloads in FIFO order) and every
process's protocol state (walked structurally).  What it deliberately
excludes — and why exclusion is sound:

* **timestamps** (record times, ``_now``, output times) — controlled
  runs are untimed: no dispatch decision or protocol branch reads a
  clock, so states differing only in times behave identically;
* **scheduling sequence numbers** — identities, not state; FIFO/outbox
  *order* is kept, the numbers themselves are normalized away;
* **static configuration** — graph, covers, specs, delay models, link
  tables: pure functions of the workload, identical in every state;
* **history counters** (``acks``, ``dropped``) — they count what already
  happened, and no dispatch decision or protocol branch reads them, so
  states differing only in them behave identically.

Fingerprints are SHA-256 digests of a canonical JSON encoding (hashlib,
not ``hash()``: per-process salting must never touch the dedup set).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from ..net.async_runtime import AsyncRuntime
from ..net.events import EV_ACK, EV_CALLBACK, EV_DELIVER
from .control import ControlledEvent, event_key, is_down

#: Attribute names that point at static configuration or the runtime
#: back-reference; walking them would either hash immutable bulk on every
#: step or recurse into the engine (captured separately).
_SKIP_ATTRS = frozenset((
    "ctx", "registry", "info", "infos", "spec", "graph", "clusters_static",
))

#: Types never walked: static by construction.
_SKIP_MODULES = frozenset((
    "repro.net.delays", "repro.net.graph", "repro.covers.cover",
    "repro.net.program",
))


def _slot_names(cls: type) -> List[str]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return names


def _canon_key(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canon(obj: Any, memo: Dict[int, int]) -> Any:
    """Canonicalize an object graph into JSON-encodable structure.

    ``memo`` breaks cycles and shares repeated sub-objects: keyed by
    object identity, valued by first-visit index.  The index is pure
    traversal order — deterministic — so the address itself never leaks
    into the encoding.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, bytes):
        return ["b", obj.hex()]
    if isinstance(obj, (list, tuple)):
        return ["t", [canon(x, memo) for x in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [canon(x, memo) for x in obj]
        items.sort(key=_canon_key)
        return ["s", items]
    if isinstance(obj, dict):
        entries = [[canon(k, memo), canon(v, memo)] for k, v in obj.items()]
        entries.sort(key=lambda kv: _canon_key(kv[0]))
        return ["d", entries]
    if callable(obj):
        return ["fn"]
    cls = type(obj)
    if cls.__module__ in _SKIP_MODULES:
        return ["x", cls.__name__]
    # Identity keys a cycle-breaking memo only; the emitted value is the
    # deterministic traversal-order index, never the address.
    ident = id(obj)
    seen = memo.get(ident)
    if seen is not None:
        return ["ref", seen]
    memo[ident] = len(memo)
    fields: List[List[Any]] = []
    names = _slot_names(cls)
    inst = getattr(obj, "__dict__", None)
    if inst is not None:
        names = list(names) + sorted(inst)
    emitted = set()
    for name in names:
        if name in emitted or name in _SKIP_ATTRS or name.startswith("__"):
            continue
        emitted.add(name)
        try:
            value = getattr(obj, name)
        except AttributeError:
            continue
        if callable(value):
            continue
        fields.append([name, canon(value, memo)])
    fields.sort(key=lambda nv: nv[0])
    return ["o", cls.__name__, fields]


def fingerprint(
    runtime: AsyncRuntime, events: List[ControlledEvent]
) -> bytes:
    """Digest of the full observable state at one decision point.

    ``events`` is the engine's enabled-event offer for this step; only
    the synthetic crash/rejoin/detect/alive actions are read from it (the
    offer already withholds blocked detects).  Acks and callbacks are
    auto-fired before any decision point, so the heap holds delivery
    records only — asserted by construction via the kind tag.
    """
    memo: Dict[int, int] = {}
    per_link: Dict[int, List[Tuple[int, Any]]] = {}
    for record in runtime._heap:
        kind = record[2]
        if kind == EV_CALLBACK:
            lid = -1
            entry = ["CB"]
        else:
            lid = record[3]
            if kind == EV_DELIVER:
                entry = ["D", canon(record[4], memo)]
            elif kind == EV_ACK:
                entry = ["A"]
            else:
                entry = ["AP", canon(record[4], memo)]
        per_link.setdefault(lid, []).append((record[1], entry))
    links: List[List[Any]] = []
    for lid in sorted(per_link):
        flights = [entry for _seq, entry in sorted(per_link[lid])]
        links.append([lid, flights])
    link_state: List[List[Any]] = []
    for lid in range(len(runtime._busy)):
        ob = runtime._outbox[lid]
        queued = (
            [] if not ob
            else [canon(item[2], memo) for item in sorted(ob)]
        )
        link_state.append([
            int(runtime._busy[lid]), runtime._pending[lid],
            runtime._injected[lid], queued,
        ])
    synthetic = sorted(event_key(ev) for ev in events if ev.seq is None)
    state = [
        # Crashed set: the nodes down now (crashed, not yet re-joined).
        [v for v in runtime.graph.nodes if is_down(runtime, v)],
        # Rejoined set: membership gates the crash offer (one crash per
        # node) — two states differing only here diverge later.
        sorted(runtime.rejoined),
        [list(item) for item in synthetic],
        links,
        link_state,
        canon(dict(runtime.outputs), memo),
        [canon(runtime.processes[v], memo) for v in runtime.graph.nodes],
    ]
    blob = json.dumps(state, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).digest()
