"""repro.telemetry: interval metrics, request tracing, profiling.

Layered observability for the simulator, all strictly opt-in:

* :class:`TelemetryHub` — which of the consumers below a run wires up.
  Without a hub (the default) none is, and the simulation path is
  unchanged.
* :class:`IntervalSampler` — a periodic time-series of queue depths,
  row-hit rate, bus utilization, drain state and per-bank occupancy,
  attached to :class:`~repro.core.stats.SimStats` as ``stats.intervals``.
* :class:`RequestTracer` — per-request lifecycle records exportable as
  Chrome trace-event JSON (Perfetto / ``chrome://tracing``).
* :class:`EngineProfiler` — wall-clock attribution of host time to model
  components, installed on the event engine.

Typical use::

    from repro import SimConfig, simulate
    from repro.telemetry import TelemetryHub

    hub = TelemetryHub(sample_period_ns=100.0, trace=True, profile=True)
    stats = simulate(SimConfig(), kernel, telemetry=hub)
    stats.write_metrics("metrics.json")        # interval time-series
    hub.tracer.write("trace.json", stats.intervals)   # open in Perfetto
    print(hub.profiler.format())

See ``docs/observability.md`` for the file schemas.
"""

from repro.telemetry.hub import TelemetryHub
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.sampler import IntervalSampler
from repro.telemetry.tracer import RequestTracer

__all__ = [
    "EngineProfiler",
    "IntervalSampler",
    "RequestTracer",
    "TelemetryHub",
]
