"""Config-driven fault injection: break the simulator on purpose.

Guardrails that are never seen firing are decoration.  The injector
mutates live simulation state at chosen instants so the test suite (and
``docs/robustness.md`` readers) can watch each guardrail catch its
fault class:

=====================  ==================================================
kind                   effect / expected detector
=====================  ==================================================
``drop_response``      remove a pending DRAM read response event —
                       caught by the stale-request watchdog (the read
                       is injected but never retires)
``delay_response``     postpone a pending response by ``delay_ns`` —
                       perturbs timing; caught by the stale watchdog
                       when the delay exceeds the bound
``duplicate_response`` deliver one response twice — caught by the
                       conservation ledger (second retire of one id)
``stuck_mc``           wedge a controller's event pump so it never
                       schedules again — caught by the stuck-MC
                       watchdog (pending work, no commands)
``corrupt_queue``      force a controller's read-queue accounting past
                       its configured capacity — caught by the
                       occupancy sweep
``illegal_command``    zero a channel's timing horizons so its next
                       commands violate GDDR5 constraints — caught by
                       the streaming protocol audit (``--audit``)
``crash``              raise :class:`FaultInjectionError` mid-run — a
                       hard failure at a chosen instant, surfaced to the
                       caller as the run's exception
=====================  ==================================================

Response faults operate on the controller->partition response events
(``on_dram_data``), i.e. they model loss/duplication on the DRAM data
return path *before* the system's retire accounting — which is what
makes the conservation ledger the right detector.

The injector only runs between event-queue segments (the guardrails
drive loop), so a fault lands at a quiescent instant and the mutation
is exactly what the spec describes — no half-executed event weirdness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.system import GPUSystem

__all__ = ["FAULT_KINDS", "FaultInjectionError", "FaultInjector", "FaultSpec"]

FAULT_KINDS = (
    "drop_response",
    "delay_response",
    "duplicate_response",
    "stuck_mc",
    "corrupt_queue",
    "illegal_command",
    "crash",
)

# Kinds that need a pending response event to exist; if none matches at
# the trigger instant the injector re-arms and retries next segment.
_RESPONSE_KINDS = frozenset(
    {"drop_response", "delay_response", "duplicate_response"}
)

_LONG_AGO = -(10**15)


class FaultInjectionError(RuntimeError):
    """Raised by the ``crash`` fault kind (deliberate mid-run failure)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_ns`` is simulated time; ``channel`` restricts the fault to one
    controller (-1 = any for response faults, channel 0 for the
    controller-targeting kinds).  ``delay_ns`` applies to
    ``delay_response`` only.
    """

    kind: str
    at_ns: float
    channel: int = -1
    delay_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at_ns < 0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.kind == "delay_response" and self.delay_ns <= 0:
            raise ValueError("delay_response needs delay_ns > 0")

    @property
    def at_ps(self) -> int:
        return int(self.at_ns * 1000)

    @property
    def delay_ps(self) -> int:
        return int(self.delay_ns * 1000)


class FaultInjector:
    """Applies a plan of :class:`FaultSpec` at their trigger instants."""

    def __init__(self, faults: tuple[FaultSpec, ...]) -> None:
        self.pending: list[FaultSpec] = sorted(faults, key=lambda s: s.at_ps)
        self.applied: list[tuple[int, str]] = []  # (instant, description)

    def __bool__(self) -> bool:
        return bool(self.pending)

    def next_due_ps(self) -> Optional[int]:
        """Earliest trigger instant among unapplied faults."""
        return self.pending[0].at_ps if self.pending else None

    def apply_due(self, system: "GPUSystem", now_ps: int) -> None:
        """Apply every fault whose instant has arrived.

        Response faults that find no in-flight response stay pending and
        are retried at the next segment boundary (the drive loop keeps
        polling while any fault is pending).
        """
        remaining: list[FaultSpec] = []
        for spec in self.pending:
            if spec.at_ps > now_ps:
                remaining.append(spec)
                continue
            if self._apply(system, spec, now_ps):
                self.applied.append((now_ps, f"{spec.kind} ch{spec.channel}"))
            else:
                remaining.append(spec)  # no target yet; retry later
        self.pending = remaining

    # ------------------------------------------------------------------
    # mechanics
    # ------------------------------------------------------------------
    def _apply(self, system: "GPUSystem", spec: FaultSpec, now_ps: int) -> bool:
        if spec.kind in _RESPONSE_KINDS:
            return self._apply_response_fault(system, spec, now_ps)
        if spec.kind == "stuck_mc":
            # Wedge the pump arming: _kick() sees an "armed" pump and
            # never schedules, and any in-flight _pump event bails on the
            # mismatched arm time.  The controller goes silent with its
            # queues intact — exactly the stuck-MC watchdog's fault model.
            system.mcs[max(spec.channel, 0)]._armed = _LONG_AGO
            return True
        if spec.kind == "corrupt_queue":
            mc = system.mcs[max(spec.channel, 0)]
            mc._reads_pending = mc.mc.read_queue_entries + 4
            return True
        if spec.kind == "illegal_command":
            self._zero_timing(system.mcs[max(spec.channel, 0)].channel)
            return True
        if spec.kind == "crash":
            raise FaultInjectionError(
                f"injected crash at {now_ps / 1000:.1f}ns (spec: {spec})"
            )
        raise AssertionError(f"unhandled fault kind {spec.kind}")

    def _apply_response_fault(
        self, system: "GPUSystem", spec: FaultSpec, now_ps: int
    ) -> bool:
        engine = system.engine
        target = None
        for entry in engine.iter_pending():
            _, _, fn, args = entry
            if getattr(fn, "__name__", "") != "on_dram_data":
                continue
            if not args or not isinstance(args[0], MemoryRequest):
                continue
            req = args[0]
            if req.is_write:
                continue
            if spec.channel >= 0 and req.channel != spec.channel:
                continue
            if target is None or entry[:2] < target[:2]:
                target = entry  # earliest matching response event
        if target is None:
            return False
        t, seq, fn, args = target
        if spec.kind == "drop_response":
            engine.remove_event(t, seq)
        elif spec.kind == "delay_response":
            engine.remove_event(t, seq)
            engine.schedule_at(max(now_ps, t + spec.delay_ps), fn, *args)
        else:  # duplicate_response
            engine.schedule_at(t, fn, *args)
        return True

    @staticmethod
    def _zero_timing(channel) -> None:
        """Erase a channel's timing horizons.

        The controller trusts these horizons when computing earliest
        legal issue instants, so from here on it emits commands that
        violate the device constraints its real history implies — the
        streaming auditor (which keeps its own history) flags the first
        one.
        """
        channel.next_cmd_free = 0
        channel.last_act_any = _LONG_AGO
        channel.act_window.clear()
        channel.last_col_cmd = _LONG_AGO
        channel.last_read_data_end = _LONG_AGO
        channel.last_write_data_end = _LONG_AGO
        channel.data_bus_free = 0
        for bank in channel.banks:
            bank.earliest_act = 0
            bank.earliest_pre = 0
            bank.earliest_col = 0
        # The erased horizons must be *seen*: invalidate any cached
        # next-legal-issue scan so the controller misbehaves immediately.
        channel.version += 1
