"""The pulse engine the α, β and γ baselines share (Appendix A).

All three run the program the same way: a node generates pulse ``p`` by
feeding the program its pulse-``(p-1)`` arrivals, sends the program's
messages as ``("m", p, payload)`` at link priority ``(p,)``, and counts
their acknowledgments; once every one is in, pulse ``p`` is *safe* at the
node.  What differs is only how a node learns that its neighbors are safe
too — the *safety rule* a subclass supplies through :meth:`_safe` (pulse
``p`` is safe here) and :meth:`_control` (one of the rule's own messages
arrived), calling :meth:`_advance` once the next pulse may start.

:meth:`BaselineProcess.bind` fixes one run's setup on a subclass, and a
:class:`BaselineSweep` replays the bound class under many delay models;
``run_alpha``, ``run_beta`` and ``run_gamma`` are one replay of one.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..net.async_runtime import AsyncResult, Process, ProcessContext
from ..net.graph import Graph, NodeId
from ..net.program import NodeInfo, ProgramSpec, PulseApi
from ..net.sweep import ProtocolSweep, bound_process_class
from ..net.sync_runtime import run_synchronous


class BaselineProcess(Process):
    """One node of a baseline synchronizer: program, pulses, acks."""

    #: Family name, used in error messages ("alpha did not finish: ...").
    NAME: str

    # Set by :meth:`bind`:
    spec: ProgramSpec
    max_pulse: int
    initiators: FrozenSet[NodeId]
    infos: Dict[NodeId, NodeInfo]

    @classmethod
    def bind(
        cls,
        graph: Graph,
        spec: ProgramSpec,
        max_pulse: Optional[int] = None,
        **attrs: Any,
    ) -> type:
        """This class bound to one run: the round bound T (measured by one
        synchronous execution when not given — the baselines need it to
        stop generating pulses), the initiators, the node infos and the
        family's own ``attrs`` (β's tree, γ's cluster structure)."""
        if max_pulse is None:
            max_pulse = run_synchronous(graph, spec).rounds_total
        return bound_process_class("Bound" + cls.__name__, cls, dict(
            spec=spec,
            max_pulse=max_pulse,
            initiators=frozenset(spec.initiators(graph)),
            infos=spec.make_infos(graph),
            **attrs,
        ))

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.info = self.infos[ctx.node_id]
        self.program = self.spec.node_factory(self.info)
        self.pulse = 0
        #: The last pulse whose program messages are all acknowledged.
        self.safe_pulse = -1
        self.arrived: Dict[int, List[Tuple[NodeId, Any]]] = {}
        self.sends_pending = 0
        self._sent_last = False

    def on_start(self) -> None:
        api = PulseApi(self.info)
        if self.ctx.node_id in self.initiators:
            self.program.on_start(api)
        self._emit(api)

    def _advance(self) -> None:
        """Generate the next pulse (none past ``max_pulse``)."""
        if self.pulse >= self.max_pulse:
            return
        batch = tuple(sorted(self.arrived.pop(self.pulse, ())))
        self.pulse += 1
        api = PulseApi(self.info)
        if batch or self._sent_last:
            self.program.on_pulse(api, batch)
        self._emit(api)

    def _emit(self, api: PulseApi) -> None:
        """Output and send what the program did this pulse."""
        sends, has_output, value = api.collect()
        if has_output:
            self.ctx.set_output(value)
        self._sent_last = bool(sends)
        self.sends_pending = len(sends)
        p = self.pulse
        for to, payload in sends:
            self.ctx.send(to, ("m", p, payload), (p,))
        if not sends:
            self._acked()

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        if payload[0] != "m" or payload[1] != self.pulse:
            return
        self.sends_pending -= 1
        if self.sends_pending == 0:
            self._acked()

    def _acked(self) -> None:
        self.safe_pulse = self.pulse
        self._safe()

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        if payload[0] == "m":
            self.arrived.setdefault(payload[1], []).append((sender, payload[2]))
        elif not self._control(sender, payload):  # pragma: no cover
            raise ValueError(f"unknown {self.NAME} message {payload!r}")

    # -- the safety rule ------------------------------------------------
    def _safe(self) -> None:
        """Pulse ``self.pulse`` is safe at this node."""
        raise NotImplementedError

    def _control(self, sender: NodeId, payload: Tuple) -> bool:
        """Handle one safety-rule message; False if it is not one."""
        raise NotImplementedError


class BaselineSweep(ProtocolSweep):
    """Replay one bound baseline process class under many delay models.

    ``BaselineSweep(graph, AlphaProcess.bind(graph, spec)).run(model)`` is
    ``run_alpha(graph, spec, model)``; likewise for β and γ.
    """

    MAX_EVENTS = 100_000_000

    def finish(self, result: AsyncResult) -> AsyncResult:
        """Raise unless the run reached quiescence."""
        if result.stop_reason != "quiescent":
            raise RuntimeError(
                f"{self.process_cls.NAME} did not finish: {result.stop_reason}"
            )
        return result
