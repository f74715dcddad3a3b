"""Outside-in split of traced simulation time across the simulator's layers.

A :class:`LayerClock` is installed from outside the simulator, on a
built :class:`~repro.gpu.system.GPUSystem`:

* as the engine's profiler hook (the ``note(fn, seconds)`` interface of
  :class:`~repro.telemetry.profiler.EngineProfiler`, which it extends), so
  every engine event is timed and labelled ``Class.method``;
* as ``functools.wraps`` wrappers on each memory controller's own methods
  (``MC_LAYERS``), so the controller's event time is split into the
  pump, the transaction-scheduling policy and the command scheduler.

A layer's self time is its spans minus the wrapped spans nested in them.
An engine event is charged to its component's layer (``EVENT_LAYERS``,
``other`` when unmapped) minus the wrapped controller spans it contains
(``receive_read`` runs inside a ``MemoryPartition`` event, for example).
Engine dispatch is the traced ``GPUSystem.run`` wall minus the time of all
events, so the layers' self times add up to that wall.
"""

from __future__ import annotations

import functools
from time import perf_counter

from repro.telemetry.profiler import EngineProfiler, component_of

__all__ = ["LAYERS", "LayerClock"]

LAYERS = (
    "core.engine",
    "gpu.sm",
    "gpu.partition",
    "mc.pump",
    "mc.policy",
    "mc.command",
    "other",
)

#: Engine-event components by owning class; unlisted classes go to ``other``.
EVENT_LAYERS = {
    "SMCore": "gpu.sm",
    "MemoryPartition": "gpu.partition",
    "Crossbar": "gpu.partition",
}

#: Memory-controller methods wrapped on each controller instance, by layer.
#: ``_pump`` calls the policy steps and ``_issue_one_command`` (command
#: scheduler plus DRAM timing); the ``receive_*`` entry points are policy.
MC_LAYERS = {
    "mc.pump": ("_pump",),
    "mc.policy": (
        "_drain_overflow",
        "_update_drain_state",
        "_schedule_reads",
        "_schedule_writes",
        "receive_read",
        "receive_write",
        "receive_group_complete",
        "receive_coordination",
    ),
    "mc.command": ("_issue_one_command",),
}


class LayerClock(EngineProfiler):
    """Self seconds and calls per layer, across every instrumented system."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Wrapped calls that made no wrapped call themselves (a stale pump).
        self.childless = dict.fromkeys(LAYERS, 0)
        #: Seconds inside engine events (the profiler total).
        self.event_s = 0.0
        # [child seconds, child calls] of each open wrapped span.
        self._open: list[list] = []
        # Outermost wrapped seconds since the last event was charged.
        self._top_s = 0.0

    def instrument(self, system) -> None:
        """Wrap every controller of a built system (its engine profiler
        must already be this clock, wired through a ``TelemetryHub``)."""
        for mc in system.mcs:
            for layer, names in MC_LAYERS.items():
                for name in names:
                    setattr(mc, name, self._wrap(layer, getattr(mc, name)))

    def _wrap(self, layer: str, fn):
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args):
            open_spans.append([0.0, 0])
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                child_s, child_calls = open_spans.pop()
                self.self_s[layer] += dt - child_s
                self.calls[layer] += 1
                if not child_calls:
                    self.childless[layer] += 1
                if open_spans:
                    parent = open_spans[-1]
                    parent[0] += dt
                    parent[1] += 1
                else:
                    self._top_s += dt

        return span

    def note(self, fn, seconds: float) -> None:
        super().note(fn, seconds)
        layer = EVENT_LAYERS.get(component_of(fn).partition(".")[0], "other")
        self.self_s[layer] += seconds - self._top_s
        self.calls[layer] += 1
        self.event_s += seconds
        self._top_s = 0.0

    def split(self, run_s: float, events: int, dram_commands: int) -> dict:
        """Per-layer values for a traced run of ``run_s`` wall seconds.

        Seconds are raw (the caller normalizes them); ``share`` is of the
        sum of all layers' self time, which is ``run_s`` up to wrapped
        time outside any event.
        """
        self_s = {**self.self_s, "core.engine": run_s - self.event_s}
        calls = {**self.calls, "core.engine": events}
        total = sum(self_s.values())
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.share"] = self_s[layer] / total
        pumps = self.calls["mc.pump"]
        issues = self.calls["mc.command"]
        out["mc.pump.stale_frac"] = self.childless["mc.pump"] / pumps if pumps else 0.0
        out["mc.command.issue_frac"] = dram_commands / issues if issues else 0.0
        return out
