"""E8 — Theorems 3.1/3.2: gathering completion information in covers.

Claims: with all nodes done by time t, every node learns its d·l-ball is
done by t + O(d·l·polylog), using O(m·l·polylog) extra messages — linear
scaling in l, near-linear in d, near-independent of n beyond that.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import BENCH_DELAYS, record, run_once

from repro.analysis import Series
from repro.core.gather import GatherModule
from repro.covers import build_ap_cover
from repro.net import AsyncRuntime, Process, topology


def _run_gather(graph, cover, stages):
    completions = {}

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.module = GatherModule(
                node_id=ctx.node_id,
                cover=cover,
                on_complete=lambda stage: completions.__setitem__(
                    (ctx.node_id, stage), ctx.now
                ),
                links=ctx.links,
                send_link=ctx.send_link,
                num_stages=stages,
            )

        def on_start(self):
            self.module.start()
            self.module.mark_done()

        def on_message(self, sender, payload):
            assert self.module.handle(sender, payload)

    runtime = AsyncRuntime(graph, Driver, BENCH_DELAYS)
    result = runtime.run(max_events=20_000_000)
    assert result.stop_reason == "quiescent"
    final = max(t for (v, s), t in completions.items() if s == stages)
    return final, result.messages


def _sweep():
    series = Series(
        "E8: gather in covers (Thm 3.1/3.2)",
        ["n", "d", "stages", "completion_time", "messages", "msgs/(m*stages)"],
    )
    for n in (36, 64):
        g = topology.grid_graph(int(n ** 0.5), int(n ** 0.5))
        for d in (1, 2, 4):
            cover = build_ap_cover(g, d)
            for stages in (1, 2, 4):
                t, msgs = _run_gather(g, cover, stages)
                series.add(
                    g.num_nodes, d, stages, round(t, 1), msgs,
                    round(msgs / (g.num_edges * stages), 2),
                )
    return series


def test_e08_gather_scaling(benchmark):
    series = run_once(benchmark, _sweep)
    record(benchmark, series)
    rows = list(zip(series.column("n"), series.column("d"),
                    series.column("stages"), series.column("messages")))
    # Messages scale linearly in the stage count (Theorem 3.2's l factor).
    for n, d in {(r[0], r[1]) for r in rows}:
        msgs = {r[2]: r[3] for r in rows if (r[0], r[1]) == (n, d)}
        assert msgs[4] <= 4.5 * msgs[1]
        assert msgs[2] <= 2.5 * msgs[1]
