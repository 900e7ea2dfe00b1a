"""Pinned schedules of the three thresholded-BFS hosts.

``run_thresholded_bfs``, ``run_multi_stage_bfs`` and ``run_full_bfs`` all
drive :class:`~repro.core.thresholded_bfs.ThresholdedBFSCore`; the last two
wrap its sends (node-id sends, tuple priorities), which the benchmark
baseline does not cover.  Each cell pins the message count, the transport's
``events_fired`` and the output digest, so any change to the shared pulse
machinery that moves a schedule by one event shows up here.
"""

import pytest

from repro.core.bfs_runner import run_thresholded_bfs
from repro.core.full_bfs import run_full_bfs
from repro.core.multi_stage import run_multi_stage_bfs
from repro.net import topology
from repro.net.delays import BimodalDelay, DirectionalSkewDelay, UniformDelay
from repro.net.shard import digest_outputs

SOURCES = frozenset({0, 21})
MODELS = (
    UniformDelay(7),
    BimodalDelay(7),
    DirectionalSkewDelay(7, slow_up=True),
)
GRAPHS = {
    "cycle64": lambda: topology.cycle_graph(64),
    "grid8x8": lambda: topology.grid_graph(8, 8),
}
HOSTS = {
    "thresholded": lambda g, m: run_thresholded_bfs(g, SOURCES, 8, m),
    "multi_stage": lambda g, m: run_multi_stage_bfs(g, SOURCES, 4, 3, m),
    "full": lambda g, m: run_full_bfs(g, SOURCES, m),
}

#: (host, graph, model index) -> (messages, events_fired, output digest).
PINNED = {
    ("thresholded", "cycle64", 0): (2442, 2935, "112d3ea7a6ea8dfc"),
    ("thresholded", "cycle64", 1): (2442, 2879, "112d3ea7a6ea8dfc"),
    ("thresholded", "cycle64", 2): (2442, 3077, "112d3ea7a6ea8dfc"),
    ("thresholded", "grid8x8", 0): (2827, 3661, "d8106bc4782886a9"),
    ("thresholded", "grid8x8", 1): (2792, 3540, "aa8ac2bffbc132ff"),
    ("thresholded", "grid8x8", 2): (2793, 3345, "60a25409113dad50"),
    ("multi_stage", "cycle64", 0): (4054, 4842, "b2b2a2a7e521d363"),
    ("multi_stage", "cycle64", 1): (4054, 4801, "b2b2a2a7e521d363"),
    ("multi_stage", "cycle64", 2): (4054, 4947, "b2b2a2a7e521d363"),
    ("multi_stage", "grid8x8", 0): (4605, 5905, "ea872cc9d6173248"),
    ("multi_stage", "grid8x8", 1): (4604, 5718, "3d24c5cfa8af079a"),
    ("multi_stage", "grid8x8", 2): (4600, 5667, "a87be7e216c079fe"),
    ("full", "cycle64", 0): (16628, 19934, "8e0c9a739e163510"),
    ("full", "cycle64", 1): (16628, 19679, "8e0c9a739e163510"),
    ("full", "cycle64", 2): (16628, 20490, "8e0c9a739e163510"),
    ("full", "grid8x8", 0): (6799, 8768, "03127eff2872cbb3"),
    ("full", "grid8x8", 1): (6744, 8622, "6dc37f95989b9f01"),
    ("full", "grid8x8", 2): (6783, 8156, "6664bca2e32447d5"),
}


@pytest.mark.parametrize(
    "cell", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_schedule_pinned(cell):
    host, graph, model = cell
    result = HOSTS[host](GRAPHS[graph](), MODELS[model]).result
    got = (result.messages, result.events_fired, digest_outputs(result.outputs))
    assert got == PINNED[cell]
