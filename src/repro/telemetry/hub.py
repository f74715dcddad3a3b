"""Telemetry hub: which optional consumers a run wires up.

A run built without a hub (the default) wires none of them, and a hub
with every feature off is equivalent: the simulated machine is never
touched, so summaries stay bit-identical either way (pinned by
``tests/test_telemetry.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.profiler import EngineProfiler
    from repro.telemetry.tracer import RequestTracer

__all__ = ["TelemetryHub"]


class TelemetryHub:
    """The optional telemetry consumers of one run.

    The hub itself only decides *what is wired up*; the consumers do the
    work:

    * ``sample_period_ns > 0`` — :class:`~repro.telemetry.sampler.IntervalSampler`
      records a time-series of the headline counters (created by
      :class:`~repro.gpu.system.GPUSystem`, which owns the components it
      samples);
    * ``trace=True`` — a :class:`~repro.telemetry.tracer.RequestTracer`
      collects per-request lifecycle records for Chrome-trace export;
    * ``profile=True`` — an :class:`~repro.telemetry.profiler.EngineProfiler`
      is installed on the engine and attributes wall-clock time to
      simulation components.
    """

    def __init__(
        self,
        *,
        sample_period_ns: float = 0.0,
        trace: bool = False,
        profile: bool = False,
    ) -> None:
        if sample_period_ns < 0:
            raise ValueError("sample_period_ns must be >= 0")
        self.sample_period_ps = int(round(sample_period_ns * 1000))
        self.tracer: Optional["RequestTracer"] = None
        self.profiler: Optional["EngineProfiler"] = None
        if trace:
            from repro.telemetry.tracer import RequestTracer

            self.tracer = RequestTracer()
        if profile:
            from repro.telemetry.profiler import EngineProfiler

            self.profiler = EngineProfiler()

    @property
    def sampling(self) -> bool:
        return self.sample_period_ps > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryHub(sample_period_ps={self.sample_period_ps}, "
            f"trace={self.tracer is not None}, profile={self.profiler is not None})"
        )
