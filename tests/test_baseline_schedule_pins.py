"""Pinned schedules of the α, β and γ baseline synchronizers.

The three baselines share one pulse engine (program step, ``("m", p,
payload)`` wire format, ack counting); only their safety rules differ.
Output equality and loose cost bounds (``tests/test_baselines.py``) would
not notice an event that moves, so each cell here pins the message count,
the transport's ``events_fired``, a digest of the per-node output times,
the quiescence time and the output digest.  ``ConstantDelay`` makes every
tie in the event order visible; the other models spread the schedule.
"""

import pytest

from repro.apps.programs import broadcast_echo_spec, flood_max_spec, path_token_spec
from repro.baselines import run_alpha, run_beta, run_gamma
from repro.net import topology
from repro.net.delays import (
    BimodalDelay,
    ConstantDelay,
    DirectionalSkewDelay,
    UniformDelay,
)
from repro.net.shard import digest_outputs

MODELS = (
    ConstantDelay(),
    UniformDelay(7),
    BimodalDelay(7),
    DirectionalSkewDelay(7, slow_up=True),
)
WORKLOADS = {
    "token-path48": lambda: (topology.path_graph(48), path_token_spec(0)),
    "floodmax-grid8x8": lambda: (topology.grid_graph(8, 8), flood_max_spec()),
    "echo-er40": lambda: (
        topology.erdos_renyi_graph(40, 0.12, seed=3), broadcast_echo_spec(0)),
}
RUNNERS = {"alpha": run_alpha, "beta": run_beta, "gamma": run_gamma}

#: (runner, workload, model index) -> (messages, events_fired,
#: output-time digest, time_to_quiescence, output digest).
PINNED = {
    ("alpha", "token-path48", 0): (4559, 9166, "da5bab1d6715952f", 144.0, "684a632a7e17c5bf"),
    ("alpha", "token-path48", 1): (4559, 9166, "f301dbf284393a79", 77.12920097086027, "684a632a7e17c5bf"),
    ("alpha", "token-path48", 2): (4559, 9166, "c96db5cf02c9793b", 46.19286360410042, "684a632a7e17c5bf"),
    ("alpha", "token-path48", 3): (4559, 9166, "4ec3b4388bf36f86", 95.97999999999998, "684a632a7e17c5bf"),
    ("alpha", "floodmax-grid8x8", 0): (5376, 10816, "4778eb9134280ed3", 62.0, "16516f572ccebcaa"),
    ("alpha", "floodmax-grid8x8", 1): (5376, 10816, "30574ac99c092cfd", 40.04790193878512, "16516f572ccebcaa"),
    ("alpha", "floodmax-grid8x8", 2): (5376, 10816, "3a225ac258676d39", 35.516904801316564, "16516f572ccebcaa"),
    ("alpha", "floodmax-grid8x8", 3): (5376, 10816, "f299171631c7f3a2", 31.61999999999999, "16516f572ccebcaa"),
    ("alpha", "echo-er40", 0): (2428, 4896, "50e7bf8ed7f0b3ea", 23.0, "8425cf671a4d3860"),
    ("alpha", "echo-er40", 1): (2428, 4896, "2c22c5d43e63cef5", 16.80977088453428, "8425cf671a4d3860"),
    ("alpha", "echo-er40", 2): (2428, 4896, "0ca41b6eb45a469d", 15.196912801160943, "8425cf671a4d3860"),
    ("alpha", "echo-er40", 3): (2428, 4896, "614e29987ed6beb6", 13.199999999999998, "8425cf671a4d3860"),
    ("beta", "token-path48", 0): (4559, 9166, "33aad29c0366c86f", 4515.0, "684a632a7e17c5bf"),
    ("beta", "token-path48", 1): (4559, 9166, "b53b916bffd67272", 2256.3161944869357, "684a632a7e17c5bf"),
    ("beta", "token-path48", 2): (4559, 9166, "c580f7b629efa6ba", 968.6969895386819, "684a632a7e17c5bf"),
    ("beta", "token-path48", 3): (4559, 9166, "8792dd23233e7b40", 2302.2399999999657, "684a632a7e17c5bf"),
    ("beta", "floodmax-grid8x8", 0): (3808, 7680, "dfd07a9c158803ed", 453.0, "16516f572ccebcaa"),
    ("beta", "floodmax-grid8x8", 1): (3808, 7680, "e0576c19f447af2f", 240.68095957150354, "16516f572ccebcaa"),
    ("beta", "floodmax-grid8x8", 2): (3808, 7680, "d5eb2088f90785cc", 122.31693316721359, "16516f572ccebcaa"),
    ("beta", "floodmax-grid8x8", 3): (3808, 7680, "ac1b846c76efb67b", 230.54000000000087, "16516f572ccebcaa"),
    ("beta", "echo-er40", 0): (972, 1984, "f68fc145277d7539", 47.0, "8425cf671a4d3860"),
    ("beta", "echo-er40", 1): (972, 1984, "9b23af85b155c037", 31.291984657933845, "8425cf671a4d3860"),
    ("beta", "echo-er40", 2): (972, 1984, "8440b65ae61171a5", 24.571033351297956, "8425cf671a4d3860"),
    ("beta", "echo-er40", 3): (972, 1984, "a6c9d1eeaef41af7", 24.45999999999999, "8425cf671a4d3860"),
    ("gamma", "token-path48", 0): (8879, 17806, "1ffb6bdab7818fe9", 2117.0, "684a632a7e17c5bf"),
    ("gamma", "token-path48", 1): (8879, 17806, "df912ad35452143e", 1058.2706957208823, "684a632a7e17c5bf"),
    ("gamma", "token-path48", 2): (8879, 17806, "6eab4642744dfd56", 466.0381420309188, "684a632a7e17c5bf"),
    ("gamma", "token-path48", 3): (8879, 17806, "a89956e5566b1714", 1079.9799999999866, "684a632a7e17c5bf"),
    ("gamma", "floodmax-grid8x8", 0): (5824, 11712, "2a7b35143b442cbd", 901.0, "16516f572ccebcaa"),
    ("gamma", "floodmax-grid8x8", 1): (5824, 11712, "d90ad262138f1cbb", 463.1338103863173, "16516f572ccebcaa"),
    ("gamma", "floodmax-grid8x8", 2): (5824, 11712, "bb5fcae613ff4d50", 237.8090064962161, "16516f572ccebcaa"),
    ("gamma", "floodmax-grid8x8", 3): (5824, 11712, "11939382bc09976c", 459.0199999999976, "16516f572ccebcaa"),
    ("gamma", "echo-er40", 0): (1504, 3048, "085b3bcff3c6119a", 119.0, "8425cf671a4d3860"),
    ("gamma", "echo-er40", 1): (1504, 3048, "d5271768987392cf", 68.75420483735323, "8425cf671a4d3860"),
    ("gamma", "echo-er40", 2): (1504, 3048, "5ce4bfca622c9fc8", 44.412175747333094, "8425cf671a4d3860"),
    ("gamma", "echo-er40", 3): (1504, 3048, "e1c62fe2e155e0c8", 61.160000000000075, "8425cf671a4d3860"),
}


@pytest.mark.parametrize(
    "cell", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_schedule_pinned(cell):
    runner, workload, model = cell
    graph, spec = WORKLOADS[workload]()
    result = RUNNERS[runner](graph, spec, MODELS[model])
    got = (
        result.messages,
        result.events_fired,
        digest_outputs(result.output_time),
        result.time_to_quiescence,
        digest_outputs(result.outputs),
    )
    assert got == PINNED[cell]
