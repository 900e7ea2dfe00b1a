"""Pinned executions of the synchronous engine, fault-free and under faults.

:func:`~repro.net.sync_runtime.run_synchronous` is the synchronous algorithm
``A`` whose ``T(A)`` and ``M(A)`` the synchronizer's overheads divide by,
and the oracle behind every output check and ``pulse_bound_for``.  Each cell
here pins what one execution reports: the message count, ``rounds_total``,
``rounds_to_output``, ``dropped``, and digests of ``outputs``,
``output_round`` and the recorded ``pulse_messages``.

Fault-free cells run three event-driven programs on three graphs.  Fault
cells run seeded crash, drop, down-interval, recurrent-down, crash+rejoin
and mixed schedules at seeds 0 and 1, so the round-granular fault semantics
(deferral, voiding, rebirth) are fixed message by message.
"""

import hashlib

import pytest

from repro.apps.programs import bfs_spec, flood_max_spec, multi_bfs_spec
from repro.net import run_synchronous, topology
from repro.net.faults import FaultSchedule
from repro.net.shard import digest_outputs

GRAPHS = {
    "cycle64": lambda: topology.cycle_graph(64),
    "grid8x8": lambda: topology.grid_graph(8, 8),
    "rr4-64": lambda: topology.random_regular_graph(64, 4, seed=1),
}
SPECS = {
    "sync-bfs": lambda: bfs_spec(0),
    "multi-bfs": lambda: multi_bfs_spec(4),
    "flood-max": flood_max_spec,
}
#: Fault schedule name -> FaultSchedule kwargs (the seed is added per cell).
#: Node 0, the BFS root, never crashes.
SCHEDULES = {
    "crash": dict(crash_rate=0.1, protect=(0,)),
    "drop": dict(drop_rate=0.05),
    "down": dict(down_rate=0.1),
    "recurrent-down": dict(down_rate=0.1, horizon=8.0, recurrent=True),
    "crash-rejoin": dict(crash_rate=0.1, rejoin_rate=1.0, protect=(0,)),
    "mixed": dict(crash_rate=0.1, rejoin_rate=0.5, down_rate=0.05,
                  drop_rate=0.02, protect=(0,)),
}


def _schedule(name, seed):
    return FaultSchedule(seed=seed, **SCHEDULES[name])


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _observe(graph, spec, faults):
    r = run_synchronous(graph, spec, record_messages=True, faults=faults)
    return (r.messages, r.rounds_total, r.rounds_to_output, r.dropped,
            digest_outputs(r.outputs), digest_outputs(r.output_round),
            _digest(r.pulse_messages))


#: (program, graph) -> (messages, rounds_total, rounds_to_output, dropped,
#: outputs digest, output_round digest, pulse_messages digest).
PINNED = {
    ("flood-max", "cycle64"):
        (2176, 33, 32, 0, "16516f572ccebcaa", "e9a6a48dcc9a1081", "c773015f71146066"),
    ("flood-max", "grid8x8"):
        (1792, 15, 14, 0, "16516f572ccebcaa", "ba4b3bc69abe1b10", "e4395f4113bde27e"),
    ("flood-max", "rr4-64"):
        (1302, 5, 4, 0, "16516f572ccebcaa", "09930b5248621724", "b1f7692b765fa470"),
    ("multi-bfs", "cycle64"):
        (128, 9, 8, 0, "0a19f31161d45f48", "d2b90b708787155f", "4fd4718e1406d788"),
    ("multi-bfs", "grid8x8"):
        (224, 9, 8, 0, "dad1a470298697b3", "7a4ae3ad2a761aff", "bdd9ae185d857a83"),
    ("multi-bfs", "rr4-64"):
        (384, 4, 3, 0, "3790710b1e4a4536", "77970f7367005182", "3e2bf7f3ff9300dc"),
    ("sync-bfs", "cycle64"):
        (128, 33, 32, 0, "5ba8f26eb172336e", "e37b8cb93efa83f7", "8b4afd21931776c1"),
    ("sync-bfs", "grid8x8"):
        (224, 15, 14, 0, "c54ceccd33d8fdf1", "aad540b510a56bdc", "cec29c39f2928ab7"),
    ("sync-bfs", "rr4-64"):
        (384, 5, 4, 0, "beeedba025812594", "719574cfd08acfc1", "152861255e4f1c85"),
}

#: (program, graph, schedule, seed) -> the same seven fields.
FAULT_PINNED = {
    ("flood-max", "cycle64", "crash", 0):
        (1478, 29, 28, 68, "9bf3a9359e7b77b9", "4944534361c48b05", "c34160db52f41bcf"),
    ("flood-max", "cycle64", "crash", 1):
        (944, 14, 13, 70, "6d7c6803a1fd60c5", "6ac2f5772440afd4", "4b2f9b4e9c0eafd9"),
    ("flood-max", "cycle64", "crash-rejoin", 0):
        (2706, 55, 54, 39, "af169bf35368c097", "ba225707a7a6dc38", "fe42b4acd3a149c0"),
    ("flood-max", "cycle64", "crash-rejoin", 1):
        (1066, 37, 36, 64, "f94af5da021620ea", "14289894bf5afba7", "3ef959936bc4e67d"),
    ("flood-max", "cycle64", "down", 0):
        (2000, 34, 33, 0, "16516f572ccebcaa", "ba91b1674194a183", "578c0ba8ba164218"),
    ("flood-max", "cycle64", "down", 1):
        (1840, 33, 32, 0, "16516f572ccebcaa", "e9a6a48dcc9a1081", "5e33ed609b05db94"),
    ("flood-max", "cycle64", "drop", 0):
        (1464, 45, 44, 66, "21eb7241ce232911", "550adfa097e1ea96", "8b460ff1d1f8974b"),
    ("flood-max", "cycle64", "drop", 1):
        (1540, 44, 43, 62, "16516f572ccebcaa", "e770f13ffbcd7129", "315421a6b5c45b04"),
    ("flood-max", "cycle64", "mixed", 0):
        (1280, 29, 28, 70, "57dd1b19aa20b5a4", "639ff93e1a958b6c", "79ddd14b137fd8be"),
    ("flood-max", "cycle64", "mixed", 1):
        (892, 20, 19, 73, "9b93977ba68ed35a", "686d7a3ebe1c6230", "1eec0676952bf412"),
    ("flood-max", "cycle64", "recurrent-down", 0):
        (1888, 34, 33, 0, "16516f572ccebcaa", "fb43ba9d8775ed86", "639432c3a8412afb"),
    ("flood-max", "cycle64", "recurrent-down", 1):
        (1970, 33, 32, 0, "16516f572ccebcaa", "e9a6a48dcc9a1081", "e5ec21f56f20c484"),
    ("flood-max", "grid8x8", "crash", 0):
        (1722, 15, 14, 85, "1323b5564a09b96c", "4ed2f48e6f7fa76d", "f373e6741f00edbd"),
    ("flood-max", "grid8x8", "crash", 1):
        (1680, 15, 14, 133, "2ff84b498a67f058", "b8e5fb69188b7bb3", "133977b7936df1b7"),
    ("flood-max", "grid8x8", "crash-rejoin", 0):
        (1748, 16, 15, 82, "90faadbdf10d0785", "58a9cb1aa50b1ae6", "554b3a764d0015a7"),
    ("flood-max", "grid8x8", "crash-rejoin", 1):
        (1730, 20, 19, 130, "d3f1a69671371590", "b164c0b7a756e062", "19a176ee8c9c2946"),
    ("flood-max", "grid8x8", "down", 0):
        (1792, 15, 14, 0, "16516f572ccebcaa", "ba4b3bc69abe1b10", "4250d7cbf76a8c12"),
    ("flood-max", "grid8x8", "down", 1):
        (1789, 15, 14, 0, "16516f572ccebcaa", "ba4b3bc69abe1b10", "f2d400e0fadffb6b"),
    ("flood-max", "grid8x8", "drop", 0):
        (1775, 15, 14, 85, "16516f572ccebcaa", "ba4b3bc69abe1b10", "634a9ddbd342a4ba"),
    ("flood-max", "grid8x8", "drop", 1):
        (1776, 15, 14, 79, "16516f572ccebcaa", "bdfe04966c63e49c", "3417625dd0199eb7"),
    ("flood-max", "grid8x8", "mixed", 0):
        (1732, 16, 15, 121, "356c62a108441b95", "54355ae080673b2f", "7e38a3559985a6d1"),
    ("flood-max", "grid8x8", "mixed", 1):
        (1708, 20, 19, 151, "52eda5fd7eda445a", "96d42790905caf85", "b7717efc04c945bd"),
    ("flood-max", "grid8x8", "recurrent-down", 0):
        (1792, 15, 14, 0, "16516f572ccebcaa", "ba4b3bc69abe1b10", "4250d7cbf76a8c12"),
    ("flood-max", "grid8x8", "recurrent-down", 1):
        (1789, 15, 14, 0, "16516f572ccebcaa", "ba4b3bc69abe1b10", "f2d400e0fadffb6b"),
    ("sync-bfs", "cycle64", "crash", 0):
        (30, 12, 11, 2, "e45b30f20bbda0e2", "ac842b2955afa66c", "9b76b82721836e0b"),
    ("sync-bfs", "cycle64", "crash", 1):
        (26, 8, 7, 2, "31f87d2297d8b762", "f75beb59e2a242fd", "ac1f54ee06237015"),
    ("sync-bfs", "cycle64", "crash-rejoin", 0):
        (30, 15, 11, 2, "dff3bfb8830f9809", "99ad1a82bd2c1ae6", "9b76b82721836e0b"),
    ("sync-bfs", "cycle64", "crash-rejoin", 1):
        (26, 19, 7, 2, "474a233a3980aefa", "1b537b665271c6d3", "ac1f54ee06237015"),
    ("sync-bfs", "cycle64", "down", 0):
        (128, 34, 33, 0, "216dce1d8df4657b", "73fa57c1a86f583a", "727a4092a52d05b4"),
    ("sync-bfs", "cycle64", "down", 1):
        (128, 33, 32, 0, "3f936879014da4c1", "8b5b8e34b78b22ae", "c82e315dc5108409"),
    ("sync-bfs", "cycle64", "drop", 0):
        (26, 10, 9, 3, "8cc49c9579234a9a", "d0e28abdaa1971b4", "17fc7bc694dc92ad"),
    ("sync-bfs", "cycle64", "drop", 1):
        (56, 17, 16, 3, "d4348e377fdf6023", "370d5dbf4835cf59", "c96cb8f3927a5016"),
    ("sync-bfs", "cycle64", "mixed", 0):
        (30, 15, 11, 4, "dff3bfb8830f9809", "99ad1a82bd2c1ae6", "8f900d47959bb85c"),
    ("sync-bfs", "cycle64", "mixed", 1):
        (26, 19, 7, 2, "474a233a3980aefa", "1b537b665271c6d3", "ac1f54ee06237015"),
    ("sync-bfs", "cycle64", "recurrent-down", 0):
        (128, 34, 33, 0, "5ba8f26eb172336e", "d0d288887f711d19", "057dbf4ac64751bb"),
    ("sync-bfs", "cycle64", "recurrent-down", 1):
        (128, 33, 32, 0, "5ba8f26eb172336e", "e37b8cb93efa83f7", "8b4afd21931776c1"),
    ("sync-bfs", "grid8x8", "crash", 0):
        (210, 15, 14, 14, "fcf9a13a37666895", "4a72c457f0d09649", "1672b5e7031b37c3"),
    ("sync-bfs", "grid8x8", "crash", 1):
        (199, 15, 14, 21, "32dbc6a41890ce38", "19fa49c4a1b06144", "f139d0378c56d674"),
    ("sync-bfs", "grid8x8", "crash-rejoin", 0):
        (214, 15, 14, 12, "0f96dd74883b6732", "689f74b3734529fe", "f8c733d468e78449"),
    ("sync-bfs", "grid8x8", "crash-rejoin", 1):
        (212, 19, 14, 19, "31c27526eeea78cd", "a0c0f28d0ad586e9", "1fd769098a3efd33"),
    ("sync-bfs", "grid8x8", "down", 0):
        (224, 15, 14, 0, "5a96cb3be66248a2", "aad540b510a56bdc", "cec29c39f2928ab7"),
    ("sync-bfs", "grid8x8", "down", 1):
        (224, 15, 14, 0, "c54ceccd33d8fdf1", "aad540b510a56bdc", "cec29c39f2928ab7"),
    ("sync-bfs", "grid8x8", "drop", 0):
        (224, 15, 14, 18, "c58efa695d8644a0", "108ed6a5e0bba612", "366a4e0ef09c141c"),
    ("sync-bfs", "grid8x8", "drop", 1):
        (224, 15, 14, 17, "3458b57038781664", "aad540b510a56bdc", "97a71baa4468f273"),
    ("sync-bfs", "grid8x8", "mixed", 0):
        (210, 15, 14, 21, "1fb6287a6fbf956a", "8bcc00155e8b31de", "a74ffa20aad819be"),
    ("sync-bfs", "grid8x8", "mixed", 1):
        (208, 19, 14, 25, "d6dcc79378d297ae", "41348a8ceff8a4e5", "753d4bf0c4e9cb59"),
    ("sync-bfs", "grid8x8", "recurrent-down", 0):
        (224, 15, 14, 0, "5a96cb3be66248a2", "aad540b510a56bdc", "cec29c39f2928ab7"),
    ("sync-bfs", "grid8x8", "recurrent-down", 1):
        (224, 15, 14, 0, "c54ceccd33d8fdf1", "aad540b510a56bdc", "cec29c39f2928ab7"),
}


def _cell_id(cell):
    return "-".join(map(str, cell))


@pytest.mark.parametrize("cell", sorted(PINNED), ids=_cell_id)
def test_fault_free_execution_pinned(cell):
    spec, graph = cell
    assert _observe(GRAPHS[graph](), SPECS[spec](), None) == PINNED[cell]


@pytest.mark.parametrize("cell", sorted(FAULT_PINNED), ids=_cell_id)
def test_faulty_execution_pinned(cell):
    spec, graph, sched, seed = cell
    got = _observe(GRAPHS[graph](), SPECS[spec](), _schedule(sched, seed))
    assert got == FAULT_PINNED[cell]
