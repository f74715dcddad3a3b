"""Instrumentation hub: named probes with zero overhead when disabled.

Design contract (the whole point of this module):

* an *emit site* inside a hot path costs exactly one truthiness check when
  nothing is listening::

      if self._p_read_done:                       # bool(list) — no call
          self._p_read_done.emit(ch, lat, hit)

* components that were built without a hub share the module-level
  :data:`NULL_PROBE`, which never has subscribers, so the same one-line
  pattern works whether telemetry exists or not;
* a :class:`Probe` only becomes truthy once something subscribed, so even
  with a hub attached, probes nobody reads stay free.

Probe names are a public, stable namespace (documented in
``docs/observability.md``):

==================  =====================================================
name                payload (positional args of ``emit``)
==================  =====================================================
``mc.read_done``    ``(channel_id, latency_ns, was_row_hit)``
``mc.drain``        ``(channel_id, active, reason)``
``dram.cmd``        ``(channel_id, kind, bank, now_ps)``
``bank.streak``     ``(channel_id, bank, row_hits_of_closed_streak)``
``gpu.warp_done``   ``(sm_id, warp_id, now_ps)``
==================  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.profiler import EngineProfiler
    from repro.telemetry.tracer import RequestTracer

__all__ = ["Probe", "TelemetryHub", "NULL_PROBE"]


class Probe(list):
    """A named event source; falsy (and free) until someone subscribes.

    The probe *is* its list of subscribers, so ``if probe:`` is a list's
    C-level truthiness test: no Python-level ``__bool__`` call.
    """

    __slots__ = ("name",)
    # Compare and hash by identity, as a plain object does, not by the
    # subscriber list.
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def subscribe(self, fn: Callable[..., None]) -> None:
        self.append(fn)

    def unsubscribe(self, fn: Callable[..., None]) -> None:
        self.remove(fn)

    def emit(self, *args) -> None:
        for fn in self:
            fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Probe({self.name!r}, subscribers={len(self)})"


#: Shared sentinel for components built without a hub: always falsy, so
#: every ``if probe: probe.emit(...)`` site short-circuits.
NULL_PROBE = Probe("null")


class TelemetryHub:
    """Owns the probe registry and the optional telemetry consumers.

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
        self._probes: dict[str, Probe] = {}
        self.sample_period_ps = int(round(sample_period_ns * 1000))
        self.tracer: Optional["RequestTracer"] = None
        self.profiler: Optional["EngineProfiler"] = None
        if trace:
            from repro.telemetry.tracer import RequestTracer

            self.tracer = RequestTracer()
        if profile:
            from repro.telemetry.profiler import EngineProfiler

            self.profiler = EngineProfiler()

    def probe(self, name: str) -> Probe:
        """The probe registered under ``name`` (created on first use)."""
        p = self._probes.get(name)
        if p is None:
            p = self._probes[name] = Probe(name)
        return p

    @property
    def sampling(self) -> bool:
        return self.sample_period_ps > 0

    @property
    def enabled(self) -> bool:
        """True when any consumer is active or any probe has a listener."""
        return (
            self.sampling
            or self.tracer is not None
            or self.profiler is not None
            or any(self._probes.values())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryHub(sample_period_ps={self.sample_period_ps}, "
            f"trace={self.tracer is not None}, profile={self.profiler is not None})"
        )
