"""Awerbuch's α synchronizer (Appendix A).

Every node generates every pulse 1..T: after its pulse-p messages are all
acknowledged it declares itself *safe for p* to every neighbor, and it
generates pulse p+1 once it is safe for p and has heard safety-p from every
neighbor.  Time overhead O(1) per pulse; message complexity blows up to
``M(A) + 2·T·m`` — the bound the paper quotes as "asymptotically the highest
message complexity possible for the given time complexity".

α needs the round bound T to stop generating pulses (the classic
presentations ignore termination); the runner measures it with one
synchronous execution, exactly like the main synchronizer's Theorem 5.5
setting.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..net.async_runtime import AsyncResult, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ProgramSpec
from .common import BaselineProcess, BaselineSweep


class AlphaProcess(BaselineProcess):
    """α's rule: broadcast ``safe`` to every neighbor, advance once every
    neighbor's ``safe`` for the pulse is in."""

    NAME = "alpha"

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.neighbor_safe: Dict[int, Set[NodeId]] = {}

    def _safe(self) -> None:
        p = self.pulse
        for v in self.info.neighbors:
            self.ctx.send(v, ("safe", p), (p,))
        self._maybe_advance()

    def _maybe_advance(self) -> None:
        p = self.pulse
        if self.safe_pulse == p and (
            self.neighbor_safe.get(p, set()) >= set(self.info.neighbors)
        ):
            self._advance()

    def _control(self, sender: NodeId, payload: Tuple) -> bool:
        if payload[0] != "safe":  # pragma: no cover
            return False
        self.neighbor_safe.setdefault(payload[1], set()).add(sender)
        self._maybe_advance()
        return True


def run_alpha(
    graph: Graph,
    spec: ProgramSpec,
    delay_model: DelayModel,
    max_pulse: Optional[int] = None,
    max_events: int = 100_000_000,
) -> AsyncResult:
    """Run ``spec`` under the α synchronizer."""
    sweep = BaselineSweep(graph, AlphaProcess.bind(graph, spec, max_pulse))
    return sweep.run(delay_model, max_events=max_events)
