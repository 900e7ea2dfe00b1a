"""Deterministic tests for the fault-injection layer (DESIGN.md §11).

Covers, per fault kind, the exact transport semantics the equivalence
property pins statistically: down intervals defer (never lose), crashed
receivers jam the link until an explicit ``reset_link``, per-link drops are
receiver-side losses with a link-layer acknowledgment.  Plus the draw-time
delay validation (:class:`InvalidDelayError`), the registration-stage
poison regression, schedule validation, sweep-replay byte-identity, and
the sync engine's round-granular fault mode.
"""

from math import inf, nan

import pytest

from repro.apps.programs import bfs_spec
from repro.core.recovery import RecoverySynchronizerProcess, run_churn
from repro.core.registration import ClusterView, RegistrationModule
from repro.core.synchronizer import OP_APP
from repro.net import topology
from repro.net.async_runtime import AsyncRuntime, Process
from repro.net.delays import ConstantDelay, InvalidDelayError, standard_adversaries
from repro.net.faults import DETECT_TIMEOUT, FaultSchedule, FaultScheduleError
from repro.net.graph import UnknownLinkError
from repro.net.shard import digest_outputs
from repro.net.sweep import AsyncSweep
from repro.net.sync_runtime import run_synchronous

TAG = 1


# ----------------------------------------------------------------------
# schedule validation
# ----------------------------------------------------------------------
class TestScheduleValidation:
    def test_rate_out_of_range(self):
        with pytest.raises(FaultScheduleError, match="crash_rate"):
            FaultSchedule(crash_rate=1.5)
        with pytest.raises(FaultScheduleError, match="drop_rate"):
            FaultSchedule(drop_rate=-0.1)
        with pytest.raises(FaultScheduleError, match="down_rate"):
            FaultSchedule(down_rate=nan)

    def test_down_lengths_need_positive_minimum(self):
        with pytest.raises(FaultScheduleError, match="down_lengths"):
            FaultSchedule(down_rate=0.5, down_lengths=(0.0, 1.0))
        with pytest.raises(FaultScheduleError, match="up_lengths"):
            FaultSchedule(down_rate=0.5, up_lengths=(0.0, 1.0))

    def test_bad_interval_rejected(self):
        with pytest.raises(FaultScheduleError, match="start < end"):
            FaultSchedule(downs={(0, 1): [(2.0, 1.0)]})
        with pytest.raises(FaultScheduleError, match="sorted and disjoint"):
            FaultSchedule(downs={(0, 1): [(0.0, 2.0), (1.0, 3.0)]})
        with pytest.raises(FaultScheduleError, match="start < end"):
            FaultSchedule(downs={(0, 1): [(0.0, inf)]})

    def test_bad_crash_time_rejected(self):
        with pytest.raises(FaultScheduleError, match="crash time"):
            FaultSchedule(crashes={1: -1.0})
        with pytest.raises(FaultScheduleError, match="crash time"):
            FaultSchedule(crashes={1: inf})

    def test_protect_crash_conflict(self):
        with pytest.raises(FaultScheduleError, match="protected and crashed"):
            FaultSchedule(crashes={1: 0.5}, protect=(1,))

    def test_negative_drop_seq_rejected(self):
        with pytest.raises(FaultScheduleError, match="injection counts"):
            FaultSchedule(drops=[(0, 1, -1)])

    def test_infinite_horizon_rejected(self):
        with pytest.raises(FaultScheduleError, match="horizon"):
            FaultSchedule(down_rate=0.5, horizon=inf)

    def test_bad_rejoin_rate_rejected(self):
        with pytest.raises(FaultScheduleError, match="rejoin_rate"):
            FaultSchedule(rejoin_rate=1.5)

    def test_rejoin_delays_need_positive_minimum(self):
        with pytest.raises(FaultScheduleError, match="rejoin_delays"):
            FaultSchedule(crash_rate=0.5, rejoin_rate=0.5,
                          rejoin_delays=(0.0, 1.0))

    def test_explicit_rejoin_needs_a_crash(self):
        with pytest.raises(FaultScheduleError, match="never crashes"):
            FaultSchedule(rejoins={1: 2.0})

    def test_explicit_rejoin_must_follow_crash(self):
        with pytest.raises(FaultScheduleError, match="exceed its crash"):
            FaultSchedule(crashes={1: 3.0}, rejoins={1: 2.0})
        with pytest.raises(FaultScheduleError, match="finite"):
            FaultSchedule(crashes={1: 1.0}, rejoins={1: inf})

    def test_recurrent_needs_down_churn(self):
        with pytest.raises(FaultScheduleError, match="recurrent"):
            FaultSchedule(recurrent=True)


class TestScheduleDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultSchedule(seed=42, crash_rate=0.3, down_rate=0.4, drop_rate=0.2)
        b = FaultSchedule(seed=42, crash_rate=0.3, down_rate=0.4, drop_rate=0.2)
        for v in range(40):
            assert a.crash_time(v) == b.crash_time(v)
        for u, v in [(0, 1), (3, 7), (12, 5)]:
            assert a.down_intervals(u, v) == b.down_intervals(u, v)
            da, db = a.drop_checker(u, v), b.drop_checker(u, v)
            assert [da(s) for s in range(1, 64)] == [db(s) for s in range(1, 64)]

    def test_down_intervals_undirected(self):
        s = FaultSchedule(seed=3, down_rate=1.0)
        assert s.down_intervals(2, 9) == s.down_intervals(9, 2)

    def test_protect_wins(self):
        s = FaultSchedule(seed=0, crash_rate=1.0, protect=(5,))
        assert s.crash_time(5) == inf

    def test_is_empty(self):
        assert FaultSchedule(seed=7).is_empty()
        assert not FaultSchedule(seed=7, crash_rate=0.1).is_empty()
        assert not FaultSchedule(crashes={0: 1.0}).is_empty()

    def test_half_open_checker(self):
        s = FaultSchedule(downs={(0, 1): [(1.0, 2.0)]})
        down = s.down_checker(0, 1)
        assert down(0.5) == 0.0
        assert down(1.0) == 2.0   # down at the start...
        assert down(1.999) == 2.0
        assert down(2.0) == 0.0   # ...up at the end: deferred events progress

    def test_rejoin_stream_independent_of_crash_draw(self):
        base = FaultSchedule(seed=17, crash_rate=0.4)
        flappy = FaultSchedule(seed=17, crash_rate=0.4, rejoin_rate=1.0)
        lo, hi = flappy.rejoin_delays
        for v in range(32):
            # Toggling re-joins never perturbs the crash draw (the rejoin
            # sub-stream is domain-separated).
            assert base.crash_time(v) == flappy.crash_time(v)
            t_crash = flappy.crash_time(v)
            t_rejoin = flappy.rejoin_time(v)
            if t_crash == inf:
                assert t_rejoin == inf  # never crashed, never returns
            else:
                assert t_crash + lo <= t_rejoin <= t_crash + hi
        assert base.rejoining_nodes(range(32)) == []
        assert flappy.has_rejoins(range(32))
        assert flappy.rejoining_nodes(range(32)) == (
            flappy.crashed_nodes(range(32))  # rejoin_rate=1.0: all return
        )

    def test_recurrent_flaps_past_horizon(self):
        once = FaultSchedule(seed=4, down_rate=1.0)
        recur = FaultSchedule(seed=4, down_rate=1.0, recurrent=True)
        iv = recur.down_intervals(2, 5)
        # Same base train inside the first period...
        assert iv == once.down_intervals(2, 5)
        span = iv[-1][1]
        assert once.down_checker(2, 5)(span + 100.0) == 0.0
        # ...but the recurrent link is still flapping far past the horizon
        # where the one-shot schedule has healed for good.  (Every down
        # interval is >= 0.25 long, so a 0.125-step scan cannot miss one.)
        down = recur.down_checker(2, 5)
        far = 50.0 * recur.horizon
        assert any(down(far + 0.125 * i) > 0.0 for i in range(800))


# ----------------------------------------------------------------------
# transport semantics, one fault kind at a time
# ----------------------------------------------------------------------
class TwoBurst(Process):
    """Node 0 sends two messages to node 1; both sides log everything."""

    def on_start(self):
        if self.ctx.node_id == 0:
            self.ctx.send(1, ("m", 0))
            self.ctx.send(1, ("m", 1))

    def on_message(self, sender, payload):
        log = getattr(self, "log", [])
        log.append((self.ctx.now, payload))
        self.log = log
        self.ctx.set_output(tuple(log))

    def on_delivered(self, to, payload):
        self.acked = getattr(self, "acked", 0) + 1


class Detecting(TwoBurst):
    def on_neighbor_dead(self, neighbor):
        self.ctx.reset_link(neighbor)
        self.ctx.set_output(("dead", neighbor, self.ctx.now))


def test_down_interval_defers_never_loses():
    graph = topology.path_graph(2)
    faults = FaultSchedule(downs={(0, 1): [(0.25, 2.0)]})
    result = AsyncRuntime(
        graph, TwoBurst, ConstantDelay(0.5), faults=faults
    ).run()
    # First delivery would fire at 0.5, inside [0.25, 2.0): deferred to 2.0.
    log = result.outputs[1]
    assert log[0] == (2.0, ("m", 0))
    assert len(log) == 2
    assert result.dropped == 0
    assert result.messages == 2
    assert result.stop_reason == "quiescent"


def test_crashed_receiver_jams_link():
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.25})
    result = AsyncRuntime(
        graph, TwoBurst, ConstantDelay(0.5), faults=faults
    ).run()
    # Delivery at 0.5 finds node 1 dead: lost, no ack, second message never
    # injected — the link jams exactly like a real missing-ack timeout.
    assert result.outputs.get(1) is None
    assert result.messages == 1
    assert result.acks == 0
    assert result.dropped == 1
    assert result.stop_reason == "quiescent"


def test_detector_fires_and_reset_link_clears_outbox():
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.25})
    result = AsyncRuntime(
        graph, Detecting, ConstantDelay(0.5), faults=faults
    ).run()
    # Detection at crash + DETECT_TIMEOUT, and reset_link discards the
    # jammed outbox (the queued second message is never injected).
    assert result.outputs[0] == ("dead", 1, 0.25 + DETECT_TIMEOUT)
    assert result.messages == 1
    assert result.dropped == 1


def test_no_detector_for_base_process():
    """Processes that don't override on_neighbor_dead get no detector
    events at all — the schedule is identical to a detector-free run."""
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.25})
    result = AsyncRuntime(
        graph, TwoBurst, ConstantDelay(0.5), faults=faults
    ).run()
    # quiescence right after the jammed delivery, not after the timeout
    assert result.time_to_quiescence == 0.5


def test_crashed_node_skips_start_and_environment_events():
    class EnvStarter(TwoBurst):
        def on_start(self):
            if self.ctx.node_id == 1:
                self.ctx.send(0, ("from-dead", 0))
            self.ctx.schedule_environment_event(
                3.0, lambda: self.ctx.send(1 - self.ctx.node_id, ("late", 0))
            )

    graph = topology.path_graph(2)
    # Node 1 dead from the start: no on_start, no environment sends.
    faults = FaultSchedule(crashes={1: 0.0})
    result = AsyncRuntime(
        graph, EnvStarter, ConstantDelay(0.5), faults=faults
    ).run()
    assert result.outputs.get(0) is None  # nothing ever reached node 0
    # node 0's own late environment send was still made (and then lost)
    assert result.messages == 1
    assert result.dropped == 1


def test_drop_gets_link_layer_ack():
    graph = topology.path_graph(2)
    faults = FaultSchedule(drops=[(0, 1, 1)])  # first injection on 0 -> 1
    result = AsyncRuntime(
        graph, TwoBurst, ConstantDelay(0.5), faults=faults
    ).run()
    # m0 is lost at 0.5 but its ack frees the link at 1.0; m1 injects then
    # and delivers at 1.5.  The sender's on_delivered fires only for m1.
    assert result.outputs[1] == ((1.5, ("m", 1)),)
    assert result.messages == 2
    assert result.acks == 2
    assert result.dropped == 1


# ----------------------------------------------------------------------
# re-join transport semantics, per fault-kind combination (DESIGN.md §15)
# ----------------------------------------------------------------------
class RejoinAware(TwoBurst):
    """Node 0's view of a flapping neighbor: reset the jammed link on
    death, greet the returned incarnation with a fresh two-burst."""

    def on_neighbor_dead(self, neighbor):
        self.ctx.reset_link(neighbor)
        self.events = getattr(self, "events", [])
        self.events.append(("dead", neighbor, self.ctx.now))

    def on_neighbor_alive(self, neighbor):
        self.events = getattr(self, "events", [])
        self.events.append(("alive", neighbor, self.ctx.now))
        self.ctx.send(neighbor, ("post", 0))
        self.ctx.send(neighbor, ("post", 1))


def test_rejoin_after_jam_delivers_in_post_send_order():
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.25}, rejoins={1: 3.0})
    rt = AsyncRuntime(graph, RejoinAware, ConstantDelay(0.5), faults=faults)
    result = rt.run()
    # m0 dies against the crash (jamming the link), the detector resets
    # the jam at crash + timeout, and the greeting pair sent at the alive
    # detect reaches the fresh incarnation in plain injection order — the
    # rejoin-time delivery order is exactly the post-rejoin send order,
    # never a resurrected pre-crash packet.
    assert rt.processes[0].events == [
        ("dead", 1, 0.25 + DETECT_TIMEOUT),
        ("alive", 1, 3.0 + DETECT_TIMEOUT),
    ]
    assert result.outputs[1] == (
        (3.0 + DETECT_TIMEOUT + 0.5, ("post", 0)),
        (3.0 + DETECT_TIMEOUT + 1.5, ("post", 1)),
    )
    assert result.messages == 3  # m0 + the greeting pair; m1 never injects
    assert result.dropped == 1
    assert result.stop_reason == "quiescent"


def test_rejoin_voids_pre_crash_output_and_discards_queue():
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.75}, rejoins={1: 3.5})
    result = AsyncRuntime(
        graph, TwoBurst, ConstantDelay(0.5), faults=faults
    ).run()
    # m0 answered at 0.5; the crash at 0.75 loses m1 and jams the link;
    # the rejoin wipes the incarnation wholesale — output register
    # included — and TwoBurst has no detectors, so nobody re-sends: the
    # returned node ends blank even though its predecessor had answered.
    assert result.outputs.get(1) is None
    assert result.messages == 2
    assert result.dropped == 1
    assert result.time_to_output == 0.5  # scalar high-water mark survives


def test_fast_flap_never_accused_but_voids_in_flight():
    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={1: 0.25}, rejoins={1: 1.0})
    rt = AsyncRuntime(graph, RejoinAware, ConstantDelay(0.5), faults=faults)
    result = rt.run()
    # The rejoin (1.0) beats crash + DETECT_TIMEOUT (2.5): a flap faster
    # than the timeout is indistinguishable from slowness, so no observer
    # is ever told of the death — but the crash still voided m0, and the
    # rejoin-time link reset discarded the queued m1 instead of
    # resurrecting it at the fresh incarnation.
    assert rt.processes[0].events == [("alive", 1, 1.0 + DETECT_TIMEOUT)]
    assert result.outputs[1] == (
        (1.0 + DETECT_TIMEOUT + 0.5, ("post", 0)),
        (1.0 + DETECT_TIMEOUT + 1.5, ("post", 1)),
    )
    assert result.messages == 3
    assert result.dropped == 1


def test_post_rejoin_delivery_defers_through_down_interval():
    graph = topology.path_graph(2)
    faults = FaultSchedule(
        crashes={1: 0.25}, rejoins={1: 3.0},
        downs={(0, 1): [(5.5, 7.0)]},
    )
    result = AsyncRuntime(
        graph, RejoinAware, ConstantDelay(0.5), faults=faults
    ).run()
    # The greeting injects at the alive detect (5.25); its delivery would
    # fire at 5.75, inside [5.5, 7.0): deferred to the interval's end.
    # Down intervals and re-joins compose — deferral still never becomes
    # loss on the fresh incarnation's link.
    assert result.outputs[1] == (
        (7.0, ("post", 0)),
        (8.0, ("post", 1)),
    )
    assert result.dropped == 1  # only the original crash loss


def test_drop_stream_counts_across_incarnations():
    graph = topology.path_graph(2)
    faults = FaultSchedule(
        crashes={1: 0.25}, rejoins={1: 3.0}, drops=[(0, 1, 2)],
    )
    result = AsyncRuntime(
        graph, RejoinAware, ConstantDelay(0.5), faults=faults
    ).run()
    # The drop schedule keys the link's *injection* count, which a rejoin
    # does not reset: m0 was injection 1 (lost to the crash), so the first
    # greeting is injection 2 and the schedule drops it — receiver-side,
    # with the link-layer ack keeping the sender's pipeline moving.
    assert result.outputs[1] == ((3.0 + DETECT_TIMEOUT + 1.5, ("post", 1)),)
    assert result.dropped == 2
    assert result.messages == 3


@pytest.mark.parametrize("rejoin", [None, 4.0])
def test_delivery_in_flight_at_reset_link_is_never_delivered(rejoin):
    """The invariant that lets ``reset_link`` leave an in-flight delivery's
    pre-drawn acknowledgment alone (DESIGN.md §11): such a delivery never
    reaches a handler.  It is dropped while the receiver is down, and void
    once the receiver has re-joined."""
    graph = topology.path_graph(2)
    # m0 would arrive at 0.5, before node 1 crashes at 0.75, but the link
    # is down until 5.0: m0 is deferred and still in flight when node 0's
    # detector resets the link at 0.75 + DETECT_TIMEOUT = 3.0.  It then
    # fires at 5.0: node 1 is still down (no rejoin), or back since 4.0.
    rejoins = {} if rejoin is None else {1: rejoin}
    faults = FaultSchedule(
        crashes={1: 0.75}, rejoins=rejoins, downs={(0, 1): [(0.25, 5.0)]},
    )
    seen = []
    rt = AsyncRuntime(
        graph, RejoinAware, ConstantDelay(0.5), faults=faults,
        trace=lambda t, u, v, payload: seen.append((t, payload)),
    )
    result = rt.run()
    assert rt.processes[0].events[0] == ("dead", 1, 0.75 + DETECT_TIMEOUT)
    assert ("m", 0) not in [payload for _t, payload in seen]
    assert result.dropped == 1
    if rejoin is None:
        assert result.outputs.get(1) is None
        assert result.messages == 1
    else:
        # The returned incarnation sees only the post-rejoin greeting.
        t_alive = rejoin + DETECT_TIMEOUT
        assert result.outputs[1] == (
            (t_alive + 0.5, ("post", 0)),
            (t_alive + 1.5, ("post", 1)),
        )
        assert result.messages == 3


# ----------------------------------------------------------------------
# muted links: the pruned-sender guard in the link table
# ----------------------------------------------------------------------
class PrePost(TwoBurst):
    """Node 1 sends node 0 one message per incarnation (the reborn one four
    time units after its rejoin)."""

    def on_start(self):
        if self.ctx.node_id != 1:
            return
        if self.ctx.now == 0.0:
            self.ctx.send(0, ("pre", 0))
        else:
            self.ctx.schedule_environment_event(
                4.0, lambda: self.ctx.send(0, ("post", 0))
            )


class Muting(PrePost):
    """Node 0 mutes a neighbor detected dead and unmutes it when it is
    detected back — the recovery synchronizer's pruned-sender guard in
    miniature."""

    def on_neighbor_dead(self, neighbor):
        self.ctx.mute(neighbor)

    def on_neighbor_alive(self, neighbor):
        self.ctx.unmute(neighbor)


def test_mute_drops_late_deferred_message_from_pruned_sender():
    graph = topology.path_graph(2)
    # "pre" would arrive at 0.5 but the link is down until 10.0; its
    # sender crashes at 1.0 and is detected dead at 1.0 + DETECT_TIMEOUT.
    faults = FaultSchedule(crashes={1: 1.0}, downs={(0, 1): [(0.25, 10.0)]})
    straggler = AsyncRuntime(
        graph, PrePost, ConstantDelay(0.5), faults=faults
    ).run()
    assert straggler.outputs[0] == ((10.0, ("pre", 0)),)
    muted = AsyncRuntime(
        graph, Muting, ConstantDelay(0.5), faults=faults
    ).run()
    assert muted.outputs.get(0) is None
    # Muting discards at the receiver: the message was delivered by the
    # link (no fault drop) and its acknowledgment still returns.
    assert (muted.messages, muted.acks, muted.dropped) == (1, 1, 0)


def test_unmute_delivers_readmitted_senders_next_message():
    graph = topology.path_graph(2)
    faults = FaultSchedule(
        crashes={1: 1.0}, rejoins={1: 12.0}, downs={(0, 1): [(0.25, 10.0)]},
    )
    result = AsyncRuntime(
        graph, Muting, ConstantDelay(0.5), faults=faults
    ).run()
    # The straggler dies at the mute; the alive detect (12.0 +
    # DETECT_TIMEOUT) unmutes before the reborn node's send at 16.0.
    assert result.outputs[0] == ((16.5, ("post", 0)),)


def test_observer_rejoin_clears_its_mutes():
    class SelfMuting(TwoBurst):
        def on_start(self):
            if self.ctx.node_id == 0 and self.ctx.now == 0.0:
                self.ctx.mute(1)  # first incarnation only
            if self.ctx.node_id == 1:
                self.ctx.send(0, ("early", 0))
                self.ctx.schedule_environment_event(
                    5.0, lambda: self.ctx.send(0, ("late", 0))
                )

    graph = topology.path_graph(2)
    faults = FaultSchedule(crashes={0: 1.0}, rejoins={0: 2.0})
    result = AsyncRuntime(
        graph, SelfMuting, ConstantDelay(0.5), faults=faults
    ).run()
    # "early" (0.5) hits the mute; the fresh incarnation of node 0 is wired
    # unmuted, so "late" (5.5) reaches it.
    assert result.outputs[0] == ((5.5, ("late", 0)),)


def test_mute_applies_per_link_inside_a_same_time_batch():
    """Same-time deliveries to one node each consult their own link: a
    muted link must drop while its unmuted siblings deliver through the
    opcode table."""

    class TableHub(Process):
        NUM_OPCODES = 1

        def __init__(self, ctx):
            super().__init__(ctx)
            self.on_message_table = (self.on_message,)

        def on_start(self):
            if self.ctx.node_id == 0:
                self.ctx.mute(2)
            else:
                self.ctx.send(0, (0, self.ctx.node_id))

        def on_message(self, sender, payload):
            got = getattr(self, "got", ()) + (sender,)
            self.got = got
            self.ctx.set_output(got)

    result = AsyncRuntime(
        topology.star_graph(5), TableHub, ConstantDelay(0.5)
    ).run()
    assert result.outputs[0] == (1, 3, 4)


def test_mute_rejects_non_neighbor():
    rt = AsyncRuntime(topology.path_graph(3), TwoBurst, ConstantDelay(0.5))
    ctx = rt.processes[0].ctx
    with pytest.raises(UnknownLinkError):
        ctx.mute(2)
    with pytest.raises(UnknownLinkError):
        ctx.unmute(2)


#: ``events_fired`` under ``count_fused_acks=True`` of a recovery
#: synchronizer (BFS from 0) on cycle(128), per standard adversary at seed
#: 3, recorded when fault mode still fired every acknowledgment as an
#: event.  Fusing may only remove acks whose firing was a no-op, so raw
#: accounting must reproduce these exactly.
_RAW_RECOVERY_EVENTS = {
    "crash+rejoin+recurrent-down": (
        FaultSchedule(seed=5, crash_rate=0.1, rejoin_rate=1.0,
                      down_rate=0.05, recurrent=True, protect=(0,)),
        (9127, 9512, 9119, 9096, 8985, 9097, 9148, 9087),
    ),
    "crash+down+drop": (
        FaultSchedule(seed=7, crash_rate=0.1, down_rate=0.1,
                      drop_rate=0.05, protect=(0,)),
        (6444, 6498, 6465, 6514, 6530, 6465, 6485, 6474),
    ),
}


@pytest.mark.parametrize("cell", sorted(_RAW_RECOVERY_EVENTS))
def test_fault_mode_fusing_keeps_raw_event_count(cell):
    from repro.core.bfs_runner import registry_for_threshold
    from repro.core.recovery import RecoverySynchronizerProcess
    from repro.core.synchronizer import pulse_bound_for

    faults, pinned = _RAW_RECOVERY_EVENTS[cell]
    graph = topology.cycle_graph(128)
    assert faults.crashed_nodes(graph.nodes)
    spec = bfs_spec(0)
    max_pulse = pulse_bound_for(graph, spec)
    process_cls = type("PinnedRecovery", (RecoverySynchronizerProcess,), dict(
        spec=spec, registry=registry_for_threshold(graph, max_pulse, "ap"),
        max_pulse=max_pulse, initiators=frozenset(spec.initiators(graph)),
        infos=spec.make_infos(graph),
    ))
    raw_counts, fused_counts = [], []
    for model in standard_adversaries(3):
        raw = AsyncRuntime(graph, process_cls, model, faults=faults,
                           count_fused_acks=True).run()
        fused = AsyncRuntime(graph, process_cls, model, faults=faults).run()
        assert raw.stop_reason == fused.stop_reason == "quiescent"
        assert (fused.messages, fused.acks, fused.dropped, fused.outputs) == (
            raw.messages, raw.acks, raw.dropped, raw.outputs)
        raw_counts.append(raw.events_fired)
        fused_counts.append(fused.events_fired)
    assert tuple(raw_counts) == pinned
    assert all(f < r for f, r in zip(fused_counts, raw_counts))


def test_empty_schedule_is_byte_identical_to_no_schedule():
    graph = topology.cycle_graph(8)
    empty = FaultSchedule(seed=9)
    for model_idx in (0, 3, 6):
        plain_trace, empty_trace = [], []
        plain = AsyncRuntime(
            graph, TwoBurst, standard_adversaries(4)[model_idx],
            trace=lambda t, u, v, p: plain_trace.append((t, u, v, p)),
        ).run()
        with_empty = AsyncRuntime(
            graph, TwoBurst, standard_adversaries(4)[model_idx],
            faults=empty,
            trace=lambda t, u, v, p: empty_trace.append((t, u, v, p)),
        ).run()
        assert empty_trace == plain_trace
        assert with_empty == plain  # dataclass equality: every field


def test_sweep_replays_pin_faulty_schedules():
    """One schedule across sweep replays: every replay under the same delay
    model is byte-identical to a standalone faulty run (the pinnable-churn
    contract), and fault decisions are shared across models."""
    graph = topology.grid_graph(3, 4)
    faults = FaultSchedule(seed=21, crash_rate=0.2, down_rate=0.3,
                           drop_rate=0.1)
    sweep = AsyncSweep(graph, TwoBurst, faults=faults)
    for model_idx in (1, 5):
        model = standard_adversaries(2)[model_idx]
        sweep_trace, solo_trace, again_trace = [], [], []
        sweep_result = sweep.run(
            model, trace=lambda t, u, v, p: sweep_trace.append((t, u, v, p))
        )
        again_result = sweep.run(
            model, trace=lambda t, u, v, p: again_trace.append((t, u, v, p))
        )
        solo_result = AsyncRuntime(
            graph, TwoBurst, model, faults=faults,
            trace=lambda t, u, v, p: solo_trace.append((t, u, v, p)),
        ).run()
        assert sweep_trace == solo_trace == again_trace
        assert sweep_result == solo_result == again_result


# ----------------------------------------------------------------------
# draw-time delay validation (InvalidDelayError)
# ----------------------------------------------------------------------
class _BadGeneric:
    """No ``block_stream``: exercises the ``__call__`` block adapter."""

    def __init__(self, value):
        self.value = value

    def __call__(self, u, v, seq, now):
        return self.value


class _BadPair:
    """Legacy ``pair_stream``/``link_stream`` shapes the transport no longer
    reads: the invalid delay must still be caught through ``__call__``."""

    def __init__(self, delay, ack=0.5):
        self._pair = (delay, ack)

    def __call__(self, u, v, seq, now):
        return self._pair[0]

    def link_stream(self, u, v):
        d = self._pair[0]
        return lambda seq: d

    def pair_stream(self, u, v):
        pair = self._pair
        return lambda seq: pair


class _BadBlock:
    """block_stream filling the buffer with an invalid delay."""

    def __init__(self, value):
        self.value = value

    def __call__(self, u, v, seq, now):
        return self.value

    def link_stream(self, u, v):
        value = self.value
        return lambda seq: value

    def block_stream(self, u, v):
        value = self.value

        def fill(buf, base, start, n):
            for i in range(base, base + 2 * n):
                buf[i] = value

        return fill


class _Sender(Process):
    def on_start(self):
        if self.ctx.node_id == 0:
            self.ctx.send(1, "x")

    def on_message(self, sender, payload):
        pass


class _BadAckBlock:
    """block_stream with valid message slots and NaN acknowledgment slots."""

    def __call__(self, u, v, seq, now):
        return 0.5 if seq > 0 else nan

    def block_stream(self, u, v):
        def fill(buf, base, start, n):
            for i in range(base, base + 2 * n, 2):
                buf[i] = 0.5
                buf[i + 1] = nan

        return fill


@pytest.mark.parametrize("bad", [0.0, -1.0, nan, inf, 1.0000001])
def test_generic_path_rejects_bad_delay(bad):
    with pytest.raises(InvalidDelayError):
        AsyncRuntime(topology.path_graph(2), _Sender, _BadGeneric(bad)).run()


@pytest.mark.parametrize("bad", [0.0, nan, inf])
def test_pair_stream_path_rejects_bad_delay(bad):
    with pytest.raises(InvalidDelayError):
        AsyncRuntime(topology.path_graph(2), _Sender, _BadPair(bad)).run()


def test_block_stream_path_rejects_bad_ack():
    # The ack of the 0->1 message travels 1->0; the error names both.
    with pytest.raises(InvalidDelayError, match=r"on 1->0 \(ack of 0->1"):
        AsyncRuntime(topology.path_graph(2), _Sender, _BadAckBlock()).run()


def test_fill_error_names_first_bad_slot():
    # Valid until injection 3: the first fill covers injections 1..8, so
    # it fails there and names the message slot of injection 3.
    def late_bad(u, v, seq, now):
        return 0.5 if abs(seq) < 3 else 1.5

    with pytest.raises(InvalidDelayError,
                       match=r"1\.5 .* on 0->1 \(message, injection 3\)"):
        AsyncRuntime(topology.path_graph(2), _Sender, late_bad).run()


@pytest.mark.parametrize("bad", [0.0, nan, inf])
def test_block_stream_path_rejects_bad_delay(bad):
    with pytest.raises(InvalidDelayError, match=r"on 0->1 \(message"):
        AsyncRuntime(topology.path_graph(2), _Sender, _BadBlock(bad)).run()


def test_environment_event_rejects_bad_delay():
    class NegativeEnv(Process):
        def on_start(self):
            self.ctx.schedule_environment_event(-0.5, lambda: None)

    with pytest.raises(InvalidDelayError):
        AsyncRuntime(
            topology.path_graph(2), NegativeEnv, ConstantDelay(0.5)
        ).run()

    class NanEnv(Process):
        def on_start(self):
            self.ctx.schedule_environment_event(nan, lambda: None)

    with pytest.raises(InvalidDelayError):
        AsyncRuntime(
            topology.path_graph(2), NanEnv, ConstantDelay(0.5)
        ).run()


def test_invalid_delay_error_is_value_error():
    # Existing callers catching ValueError keep working.
    assert issubclass(InvalidDelayError, ValueError)


# ----------------------------------------------------------------------
# registration-stage poison regression
# ----------------------------------------------------------------------
class TestStagePoisoning:
    def _module(self, children, events):
        views = {
            0: ClusterView(cluster_id=0, parent=None, children=tuple(children))
        }
        return RegistrationModule(
            node_id=0,
            clusters=views,
            on_registered=lambda c, t: events.append(("registered", c, t)),
            on_go_ahead=lambda c, t: events.append(("go", c, t)),
            priority_fn=lambda tag: (0,),
            links={1: 1},
            send_link=lambda lid, payload, priority: events.append(
                ("send", lid, payload)),
        )

    def test_clean_cycle_recycles_slot(self):
        events = []
        module = self._module((), events)
        module.register(0, TAG)
        module.deregister(0, TAG)
        assert ("go", 0, TAG) in events
        assert module._stages == {}

    def test_crash_during_stage_poisons_slot(self):
        events = []
        module = self._module((1,), events)
        module.register(0, TAG)
        stage = next(iter(module._stages.values()))
        # The only child crashes mid-wave: the stage completes over the
        # survivors but must never be retired.
        module.prune_child(1)
        assert stage.poisoned
        assert ("registered", 0, TAG) in events
        module.deregister(0, TAG)
        assert ("go", 0, TAG) in events
        assert stage in module._stages.values()

    def test_poisoned_slot_never_reused(self):
        events = []
        module = self._module((1,), events)
        module.register(0, TAG)
        stage = next(iter(module._stages.values()))
        module.prune_child(1)
        module.deregister(0, TAG)
        # A later stage allocates fresh: it must not be the poisoned stage.
        module.register(0, TAG + 1)
        new_stage = module._stages.get((0 << 32) | (TAG + 1))
        assert new_stage is not None
        assert new_stage is not stage

    def test_poisoned_slot_stays_unpooled_after_readmit(self):
        """Re-join hygiene (DESIGN.md §15): readmission restores the
        pristine cluster view but is not absolution — a crash-touched
        stage is never retired, and the next stage allocates fresh while
        addressing the returned child again."""
        events = []
        module = self._module((1,), events)
        module.register(0, TAG)
        stage = next(iter(module._stages.values()))
        module.prune_child(1)
        assert stage.poisoned
        module.readmit_child(1)
        assert stage.poisoned                         # stays poisoned
        assert module.clusters[0].children == (1,)    # pristine view back
        module.deregister(0, TAG)
        assert stage in module._stages.values()       # never retired
        module.register(0, TAG + 1)
        new_stage = module._stages.get((0 << 32) | (TAG + 1))
        assert new_stage is not None and new_stage is not stage
        assert not new_stage.poisoned
        # Stages created after the readmission wait on the returned child
        # again (the live, re-closed stage kept its survivor view).
        assert new_stage.view.children == (1,)
        assert stage.view.children == ()

    def test_orphaned_stage_poisoned_on_parent_crash(self):
        events = []
        views = {
            0: ClusterView(cluster_id=0, parent=1, children=())
        }
        module = RegistrationModule(
            node_id=0,
            clusters=views,
            on_registered=lambda c, t: events.append(("registered", c, t)),
            on_go_ahead=lambda c, t: events.append(("go", c, t)),
            priority_fn=lambda tag: (0,),
            links={1: 1},
            send_link=lambda lid, payload, priority: events.append(
                ("send", lid, payload)),
        )
        module.register(0, TAG)
        stage = next(iter(module._stages.values()))
        module.prune_child(1)  # the parent died: the stage is orphaned
        assert stage.poisoned
        assert stage in module._stages.values()


# ----------------------------------------------------------------------
# sync engine fault mode
# ----------------------------------------------------------------------
class TestSyncFaults:
    def test_crashed_relay_blocks_bfs(self):
        graph = topology.path_graph(3)
        faults = FaultSchedule(crashes={1: 0.0})
        result = run_synchronous(graph, bfs_spec(0), faults=faults)
        assert result.outputs == {0: (0, None)}
        assert result.dropped >= 1

    def test_crashed_initiator_never_starts(self):
        graph = topology.path_graph(3)
        faults = FaultSchedule(crashes={0: 0.0})
        result = run_synchronous(graph, bfs_spec(0), faults=faults)
        assert result.outputs == {}
        assert result.messages == 0

    def test_drop_loses_one_message(self):
        graph = topology.path_graph(3)
        faults = FaultSchedule(drops=[(0, 1, 1)])
        result = run_synchronous(graph, bfs_spec(0), faults=faults)
        assert result.outputs == {0: (0, None)}
        assert result.dropped == 1

    def test_down_interval_defers_rounds(self):
        graph = topology.path_graph(3)
        faults = FaultSchedule(downs={(0, 1): [(1.0, 3.0)]})
        result = run_synchronous(graph, bfs_spec(0), faults=faults)
        # 0 -> 1 would arrive at round 1, inside [1, 3): deferred to 3.
        assert result.output_round[1] == 3
        assert result.output_round[2] == 4
        assert result.outputs[2] == (2, 1)
        assert result.dropped == 0

    def test_seeded_schedule_deterministic(self):
        graph = topology.cycle_graph(16)
        spec = bfs_spec(0)
        faults = FaultSchedule(seed=5, crash_rate=0.25, drop_rate=0.1,
                               protect=(0,))
        a = run_synchronous(graph, spec, faults=faults)
        b = run_synchronous(graph, spec, faults=faults)
        assert a.outputs == b.outputs
        assert a.messages == b.messages
        assert a.dropped == b.dropped

    def test_empty_schedule_identity(self):
        graph = topology.cycle_graph(10)
        spec = bfs_spec(0)
        plain = run_synchronous(graph, spec)
        empty = run_synchronous(graph, spec, faults=FaultSchedule(seed=3))
        assert empty == plain

    def test_rejoined_node_reborn_blank(self):
        graph = topology.path_graph(3)
        # Node 1 relays in round 1, answers, then crashes; its rebirth at
        # round 4 voids the answer and nobody re-floods (plain BFS sends
        # only on improvement), so the returned node ends blank while the
        # downstream answer it enabled survives.
        faults = FaultSchedule(crashes={1: 2.0}, rejoins={1: 4.0})
        result = run_synchronous(graph, bfs_spec(0), faults=faults)
        assert result.outputs == {0: (0, None), 2: (2, 1)}
        assert 1 not in result.output_round


# ----------------------------------------------------------------------
# churn recovery end to end
# ----------------------------------------------------------------------
class TestRunChurn:
    def _distances(self, graph, survivors, root):
        live = set(survivors)
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if u in live and u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    def test_unprotected_root_rejected(self):
        graph = topology.cycle_graph(8)
        faults = FaultSchedule(crashes={0: 1.0})
        with pytest.raises(ValueError, match="protect"):
            run_churn(graph, bfs_spec, standard_adversaries(0)[0], faults)

    def test_bad_mode_rejected(self):
        graph = topology.cycle_graph(8)
        faults = FaultSchedule(seed=1, crash_rate=0.2, protect=(0,))
        with pytest.raises(ValueError, match="mode"):
            run_churn(graph, bfs_spec, standard_adversaries(0)[0], faults,
                      mode="panic")

    @pytest.mark.parametrize("mode", ["degrade", "rebuild"])
    def test_churn_terminates_with_correct_survivor_outputs(self, mode):
        graph = topology.cycle_graph(24)
        model = standard_adversaries(7)[2]
        faults = FaultSchedule(seed=11, crash_rate=0.15, protect=(0,))
        out = run_churn(graph, bfs_spec, model, faults, mode=mode, root=0)
        assert out.stop_reason == "quiescent"
        assert out.crashed  # the seed does crash somebody
        assert 0 in out.survivors
        dist = self._distances(graph, out.survivors, 0)
        if mode == "rebuild":
            # Exact BFS distances on the surviving component.
            assert out.answered == len(out.survivors)
            for v in out.survivors:
                assert out.outputs[v][0] == dist[v]
            assert out.rebuild_messages > 0
        else:
            # Degrade: every answered survivor is bounded by
            # dist_G(v) <= output <= dist_H(v).
            assert out.rebuild_messages == 0
            for v, (d, _parent) in out.outputs.items():
                assert d <= dist[v]

    def test_reanchor_answers_every_survivor_within_sandwich(self):
        graph = topology.cycle_graph(24)
        model = standard_adversaries(7)[2]
        faults = FaultSchedule(seed=11, crash_rate=0.15, protect=(0,))
        out = run_churn(graph, bfs_spec, model, faults, mode="reanchor")
        degraded = run_churn(graph, bfs_spec, model, faults, mode="degrade")
        assert out.stop_reason == "quiescent"
        # Completeness: the patch wave reaches every orphaned survivor.
        assert out.answered == out.survivor_count >= degraded.answered
        dist_h = self._distances(graph, out.survivors, 0)
        dist_g = self._distances(graph, graph.nodes, 0)
        for v in out.survivors:
            assert dist_g[v] <= out.outputs[v][0] <= dist_h[v]
        # Cost ladder: the wave is cheaper than a full clean rebuild pass.
        rebuilt = run_churn(graph, bfs_spec, model, faults, mode="rebuild")
        assert 0 < out.reanchor_messages < rebuilt.rebuild_messages
        assert out.rebuild_messages == 0

    def test_rejoined_nodes_readmitted_and_reanswered(self):
        graph = topology.cycle_graph(24)
        model = standard_adversaries(7)[2]
        faults = FaultSchedule(seed=11, crash_rate=0.15, rejoin_rate=1.0,
                               protect=(0,))
        out = run_churn(graph, bfs_spec, model, faults, mode="degrade")
        assert out.stop_reason == "quiescent"
        # Every crashed node returned, H's final snapshot is the whole
        # graph, and the answers equal the fault-free run's exactly.
        assert out.rejoined == out.crashed
        assert len(out.survivors) == graph.num_nodes
        from repro.core.synchronizer import run_synchronized

        clean = run_synchronized(graph, bfs_spec(0), model)
        assert out.outputs == clean.outputs

    def test_churn_deterministic_across_runs(self):
        graph = topology.cycle_graph(24)
        model = standard_adversaries(7)[4]
        faults = FaultSchedule(seed=13, crash_rate=0.15, protect=(0,))
        a = run_churn(graph, bfs_spec, model, faults, mode="degrade")
        b = run_churn(graph, bfs_spec, model, faults, mode="degrade")
        assert a == b
        faults = FaultSchedule(seed=13, crash_rate=0.15, rejoin_rate=0.7,
                               protect=(0,))
        c = run_churn(graph, bfs_spec, model, faults, mode="reanchor")
        d = run_churn(graph, bfs_spec, model, faults, mode="reanchor")
        assert c == d

    def test_ack_deferred_past_detection_counts_once(self):
        """An ack held back by a down interval until after its receiver's
        crash is detected must not count a second time.

        Under ``ConstantDelay(1.0)`` root 0's pulse-0 program message
        reaches node 1 at t=31.  Its ack, due at 32, falls inside the down
        interval [31.5, 36) of edge {0, 1}, so it fires at 36.  Node 1
        crashes at 31.5, and node 0 prunes it at 31.5 + DETECT_TIMEOUT,
        which already cancels the ack node 1 owed.  The down interval on
        edge {0, 7} holds node 7's ack until 38, so pulse 0 still waits on
        it when node 1's late ack arrives: counted again, it would release
        pulse 0's leaf report at 36 instead of 38.
        """
        graph = topology.cycle_graph(8)
        crash, ack_at = 31.5, 36.0
        assert crash + DETECT_TIMEOUT < ack_at
        faults = FaultSchedule(
            crashes={1: crash},
            downs={(0, 1): [(crash, ack_at)], (0, 7): [(crash, 38.0)]},
        )
        app_to_1 = []

        def trace(t, src, dst, payload):
            if (src, dst) == (0, 1) and payload[0] == OP_APP:
                app_to_1.append(t)

        runtime = AsyncRuntime(
            graph, RecoverySynchronizerProcess.bind(graph, bfs_spec(0)),
            ConstantDelay(1.0), faults=faults, trace=trace,
        )
        result = runtime.run()
        assert app_to_1 == [31.0]
        assert result.stop_reason == "quiescent"
        vnodes = runtime.processes[0].node.vnodes
        assert [vn.sends_pending for vn in vnodes.values()] == [0]
        assert (result.messages, result.events_fired,
                digest_outputs(result.outputs)) == (217, 357, "e82a80a1bd092813")

    def test_link_churn_only_matches_fault_free_outputs(self):
        """Down intervals defer but never lose: a crash-free churn run must
        produce exactly the fault-free BFS outputs (only later)."""
        graph = topology.cycle_graph(16)
        model = standard_adversaries(3)[1]
        faults = FaultSchedule(seed=19, down_rate=0.3)
        from repro.core.synchronizer import run_synchronized

        clean = run_synchronized(graph, bfs_spec(0), model)
        churned = run_churn(graph, bfs_spec, model, faults, mode="degrade")
        assert churned.stop_reason == "quiescent"
        assert len(churned.survivors) == graph.num_nodes
        assert churned.outputs == clean.outputs
