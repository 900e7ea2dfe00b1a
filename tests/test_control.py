"""The controlled mode's next-record hook reproduces the timed loop.

A controller that always picks the record with the smallest ``(time,
seq)`` turns the controlled bag back into the timed heap, so every
observable of the run must equal the timed run's: the delivery trace,
outputs, output times, both time metrics, message and ack counts and the
stop reason.  Controlled runs never fuse an acknowledgment, so their
``events_fired`` equals the timed run's raw count (``count_fused_acks``).
"""

import os
import subprocess
import sys

import pytest

from repro.apps.programs import bfs_spec
from repro.check.control import ScheduleController
from repro.core.synchronizer import SynchronizerSweep
from repro.net import topology
from repro.net.async_runtime import AsyncRuntime, Process
from repro.net.delays import standard_adversaries


class Gossip(Process):
    """Max-flood: every node spreads the largest id it has seen."""

    def on_start(self):
        self.best = self.ctx.node_id
        for v in self.ctx.neighbors:
            self.ctx.send(v, self.best)

    def on_message(self, sender, value):
        if value > self.best:
            self.best = value
            self.ctx.set_output(value)
            for v in self.ctx.neighbors:
                self.ctx.send(v, value)


class EarliestFirst(ScheduleController):
    """Pick the record a timed run would pop next."""

    def choose(self, events):
        return min(range(len(events)), key=lambda i: events[i].record[:2])


def _gossip_cell():
    return topology.grid_graph(3, 3), Gossip


def _sync_bfs_cell():
    graph = topology.cycle_graph(12)
    return graph, SynchronizerSweep(graph, bfs_spec(0)).process_cls


def _run(graph, process_cls, model, **kwargs):
    trace = []
    result = AsyncRuntime(
        graph, process_cls, model,
        trace=lambda t, u, v, p: trace.append((t, u, v, p)), **kwargs,
    ).run()
    return trace, result


@pytest.mark.parametrize("cell", [_gossip_cell, _sync_bfs_cell],
                         ids=["gossip-grid3x3", "sync-bfs-cycle12"])
@pytest.mark.parametrize("model_idx", range(len(standard_adversaries(3))))
def test_earliest_first_controller_reproduces_timed_run(cell, model_idx):
    graph, process_cls = cell()
    timed_trace, timed = _run(graph, process_cls,
                              standard_adversaries(3)[model_idx],
                              count_fused_acks=True)
    ctl_trace, ctl = _run(graph, process_cls,
                          standard_adversaries(3)[model_idx],
                          controller=EarliestFirst())
    assert ctl_trace == timed_trace
    assert ctl.outputs == timed.outputs
    assert ctl.output_time == timed.output_time
    assert ctl.time_to_output == timed.time_to_output
    assert ctl.time_to_quiescence == timed.time_to_quiescence
    assert ctl.messages == timed.messages
    assert ctl.acks == timed.acks
    assert ctl.stop_reason == timed.stop_reason
    assert ctl.events_fired == timed.events_fired
    assert timed_trace  # the cell does deliver something


def test_transport_package_does_not_import_the_checker():
    """``repro.net`` only calls the hook; importing it loads no
    ``repro.check`` module."""
    code = ("import sys, repro.net\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.check')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
