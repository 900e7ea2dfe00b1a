"""Byte-identity and mechanics of the §10 protocol-state pools.

DESIGN.md §10: the registration module recycles terminal-clean stage slots
through a free list.  Recycling must be *observationally invisible* — a
pooled run's delivery trace, outputs, and message counts must be
byte-identical to a fresh-allocation run on both engines (the transport
and the reference port of the seed engine).  The hypothesis properties
below pin exactly that, across the standard adversary family; the
deterministic tests pin the pool mechanics themselves (slots really are
recycled and reused, and the documented ``state_of`` visibility rule).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_equivalence import ReferenceRuntime

from repro.apps.programs import bfs_spec
from repro.core.bfs_runner import ThresholdedBFSProcess, registry_for_threshold
from repro.core.cluster_ops import ClusterAggregateModule, min_merge
from repro.core.registration import (
    FREE,
    NONE,
    ClusterView,
    RegistrationModule,
    _StageState,
)
from repro.core.synchronizer import SynchronizerSweep
from repro.net import topology
from repro.net.async_runtime import AsyncRuntime
from repro.net.delays import UniformDelay, standard_adversaries


def _graph(idx: int):
    builders = (
        lambda: topology.cycle_graph(12),
        lambda: topology.grid_graph(3, 4),
        lambda: topology.star_graph(9),
        lambda: topology.random_tree(13, seed=3),
    )
    return builders[idx]()


def _traced(runtime_cls, graph, process_cls, model):
    trace = []
    result = runtime_cls(
        graph, process_cls, model,
        trace=lambda t, u, v, p: trace.append((t, u, v, p)),
    ).run()
    return trace, result


def _assert_pool_invisible(graph, pooled_cls, fresh_cls, seed, model_idx):
    """Pooled and fresh runs must be byte-identical on both engines."""
    runs = {}
    for engine_name, engine in (("new", AsyncRuntime), ("ref", ReferenceRuntime)):
        for pool_name, cls in (("pooled", pooled_cls), ("fresh", fresh_cls)):
            # Fresh model per execution: hashed models memoize per-link
            # state and every run must draw from a cold start.
            model = standard_adversaries(seed)[model_idx]
            runs[engine_name, pool_name] = _traced(engine, graph, cls, model)
    for engine_name in ("new", "ref"):
        pooled_trace, pooled_result = runs[engine_name, "pooled"]
        fresh_trace, fresh_result = runs[engine_name, "fresh"]
        assert pooled_trace == fresh_trace
        assert pooled_result.outputs == fresh_result.outputs
        assert pooled_result.messages == fresh_result.messages
        assert pooled_result.time_to_output == fresh_result.time_to_output
    # And the engines agree with each other (the equivalence suite pins
    # this broadly; here it guards the pooled classes specifically).
    assert runs["new", "pooled"][0] == runs["ref", "pooled"][0]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    model_idx=st.integers(min_value=0, max_value=7),
    graph_idx=st.integers(min_value=0, max_value=3),
)
def test_synchronizer_stage_pool_byte_identical(seed, model_idx, graph_idx):
    """Property: recycled registration stages (register -> finish -> slot
    reused for a new (cluster, tag)) leave the synchronizer's schedule
    byte-identical to fresh allocation, on both engines."""
    graph = _graph(graph_idx)
    base = SynchronizerSweep(graph, bfs_spec(0)).process_cls
    pooled = type("PooledSync", (base,), {"pool": True})
    fresh = type("FreshSync", (base,), {"pool": False})
    _assert_pool_invisible(graph, pooled, fresh, seed, model_idx)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    model_idx=st.integers(min_value=0, max_value=7),
    graph_idx=st.integers(min_value=0, max_value=3),
)
def test_tbfs_stage_pool_byte_identical(seed, model_idx, graph_idx):
    """Property: the thresholded-BFS machinery is likewise pool-invariant
    on both engines (its registration traffic is sparser, so this mostly
    guards the aggregation-module interplay and the shared module code)."""
    graph = _graph(graph_idx)
    registry = registry_for_threshold(graph, 4)
    namespace = dict(registry=registry, sources=frozenset((0,)), threshold=4)
    pooled = type("PooledTBFS", (ThresholdedBFSProcess,), dict(namespace, pool=True))
    fresh = type("FreshTBFS", (ThresholdedBFSProcess,), dict(namespace, pool=False))
    _assert_pool_invisible(graph, pooled, fresh, seed, model_idx)


def test_stage_slots_actually_recycled_and_reused(monkeypatch):
    """The pool is not vestigial: a sync-BFS run at n=32 recycles most of
    its stages and serves most creations from the free list."""
    reuses = []
    original = _StageState.reuse

    def counting_reuse(self, *args, **kwargs):
        reuses.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_StageState, "reuse", counting_reuse)
    graph = topology.cycle_graph(32)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    runtime = AsyncRuntime(graph, sweep.process_cls, UniformDelay(seed=7),
                           skeleton=None)
    result = runtime.run()
    assert result.stop_reason == "quiescent"
    free_slots = sum(
        len(p.node.reg._free) for p in runtime.processes.values()
    )
    assert free_slots > 0  # terminal-clean stages were recycled
    assert len(reuses) > 0  # and recycled slots were re-issued


def test_state_of_visibility_under_pooling():
    """A completed stage reads NONE when pooled (slot recycled), FREE when
    retention is requested — exactly the documented difference."""
    view = {0: ClusterView(0, parent=None, children=())}
    for pool, expected in ((True, NONE), (False, FREE)):
        module = RegistrationModule(
            node_id=0,
            clusters=view,
            send=lambda *a: None,
            on_registered=lambda *a: None,
            on_go_ahead=lambda *a: None,
            priority_fn=lambda tag: tag,
            pool=pool,
        )
        module.register(0, 1)
        module.deregister(0, 1)
        assert module.state_of(0, 1) == expected
        assert len(module._free) == (1 if pool else 0)


def test_readmit_does_not_resurrect_evicted_flow_reports():
    """Re-join hygiene (DESIGN.md §15): a barrier that re-closed over the
    survivors when the crash was detected must not accept the returned
    incarnation's late convergecast value after readmission — the evicted
    flow report stays evicted, the result already reported stands, and
    the child participates again only from the next instance onward."""
    results = []
    view = {0: ClusterView(0, parent=None, children=(1,))}
    module = ClusterAggregateModule(
        0, view, lambda *a: None,
        lambda cid, tag, result: results.append((cid, tag, result)),
        lambda tag: min_merge, lambda tag: (0,),
    )
    module.contribute(0, 1, 5)     # the root waits on child 1
    assert results == []
    module.prune_child(1)          # crash detected: the barrier re-closes
    assert results == [(0, 1, 5)]  # corpse contributes the identity
    key = next(iter(module._instances))
    module.readmit_child(1)
    assert module.clusters[0].children == (1,)  # topology restored...
    module.handle_up(1, (0, key, 0))            # OP_AGG_UP, late report
    assert results == [(0, 1, 5)]  # ...but the stale word is dropped
    # The readmitted child is addressed again by the *next* instance.
    module.contribute(0, 2, 9)
    assert results == [(0, 1, 5)]  # waiting on child 1's fresh value
    key2 = next(k for k, inst in module._instances.items() if inst.tag == 2)
    module.handle_up(1, (0, key2, 3))
    assert results == [(0, 1, 5), (0, 2, 3)]

