"""E9 — Section 3.2 and Lemmas 3.4/3.5: registration congestion ablation.

The paper's fix versus the "natural attempt" of [AP90a]: on a bounded-height
tree with a bottleneck edge and r registrants, the naive root-counter scheme
needs Ω(r) time (all traffic serializes on the bottleneck) while the
dirty-mark scheme finishes in O(height).  Also checks Lemma 3.4's O(h)
per-operation cost on deep paths.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import record, run_once

from repro.analysis import Series
from repro.core.registration import RegistrationModule, cluster_views_for
from repro.core.registration_naive import NaiveRegistrationModule
from repro.covers import bfs_cluster_tree
from repro.net import AsyncRuntime, ConstantDelay, Graph, Process, topology


def _broom(k):
    edges = [(0, 1)] + [(1, 2 + i) for i in range(k)]
    return Graph(k + 2, edges)


def _run(module_cls, graph, tree, registrants):
    finished = {}

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            views = cluster_views_for({0: tree}, ctx.node_id)
            self.mod = module_cls(
                ctx.node_id,
                views,
                self._registered,
                self._go,
                lambda tag: (0,),
                ctx.links,
                lambda lid, p, pr: ctx.send_link(
                    lid, p, pr if isinstance(pr, tuple) else (pr,)
                ),
            )

        def _registered(self, c, t):
            self.ctx.schedule_environment_event(
                0.5, lambda: self.mod.deregister(c, t)
            )

        def _go(self, c, t):
            finished[self.ctx.node_id] = self.ctx.now
            self.ctx.set_output("free")

        def on_start(self):
            if self.ctx.node_id in registrants:
                self.mod.register(0, 1)

        def on_message(self, sender, payload):
            assert self.mod.handle(sender, payload)

    runtime = AsyncRuntime(graph, Driver, ConstantDelay(1.0))
    result = runtime.run(max_events=20_000_000)
    assert result.stop_reason == "quiescent"
    assert set(finished) == set(registrants)
    return max(finished.values()), result.messages


def _congestion_sweep():
    series = Series(
        "E9: dirty-mark vs naive registration on a bottleneck tree (Sec 3.2)",
        ["registrants", "scheme", "time", "messages"],
    )
    data = {}
    for k in (8, 32, 128):
        g = _broom(k)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        registrants = set(range(2, k + 2))
        tn, mn = _run(NaiveRegistrationModule, g, tree, registrants)
        to, mo = _run(RegistrationModule, g, tree, registrants)
        series.add(k, "naive", round(tn, 1), mn)
        series.add(k, "dirty-mark", round(to, 1), mo)
        data[k] = (tn, to)
    return series, data


def _height_sweep():
    series = Series(
        "E9b: single registration cost is O(height) (Lemma 3.4)",
        ["height", "register_time", "go_ahead_time", "messages"],
    )
    for n in (8, 16, 32, 64):
        g = topology.path_graph(n)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        t, msgs = _run(RegistrationModule, g, tree, {n - 1})
        series.add(n - 1, round(t, 1), round(t, 1), msgs)
    return series


def test_e09_congestion_ablation(benchmark):
    (series, data) = run_once(benchmark, _congestion_sweep)
    record(benchmark, series)
    # Naive time grows ~linearly with registrants; ours stays flat.
    assert data[128][0] / data[8][0] > 8
    assert data[128][1] <= data[8][1] * 1.5


def test_e09_height_linearity(benchmark):
    series = run_once(benchmark, _height_sweep)
    record(benchmark, series)
    heights = series.column("height")
    times = series.column("go_ahead_time")
    # Time per unit height stays bounded (O(h) claim).
    ratios = [t / h for t, h in zip(times, heights)]
    assert max(ratios) <= 2 * min(ratios) + 1
