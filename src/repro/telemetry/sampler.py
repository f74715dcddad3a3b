"""Periodic sampling of the memory system's headline counters.

The sampler rides the event engine: every ``period_ps`` it snapshots each
memory controller's instantaneous state (queue depths, per-bank command
queue occupancy, write-drain FSM state) and the *delta* of the cumulative
:class:`~repro.core.stats.ChannelStats` counters since the previous sample
(column accesses, row hits/misses, MERB deferrals, drain episodes, data-bus
busy time).  The result is a time-series that shows *when* a pathology
happened — a drain storm, a queue-depth spike, a row-hit-rate collapse —
rather than only that it happened somewhere inside an end-of-run total.

Per-interval read latencies arrive through each controller's
``on_read_done`` hook, which the sampler sets; each sample summarizes the
interval's latencies (count, mean, p50, p95) and starts a fresh list.

Samples are plain dictionaries with the stable key set
:data:`IntervalSampler.SCHEMA_KEYS` (validated by the test suite and
documented in ``docs/observability.md``); per-channel values are lists
indexed by channel id.

The sampler only re-arms itself while warps are still running, so it never
keeps the event queue alive after the workload finishes.
"""

from __future__ import annotations

__all__ = ["IntervalSampler"]

#: Cumulative ChannelStats counters sampled as per-interval deltas.
_DELTA_COUNTERS = (
    "reads",
    "writes",
    "row_hits",
    "row_misses",
    "merb_deferrals",
    "write_drains",
    "drain_writes",
    "read_queue_full_events",
)


class IntervalSampler:
    """Records a time-series of memory-system state at a fixed period."""

    #: Stable schema of every sample dictionary.
    SCHEMA_KEYS = (
        "t_ps",
        "events",
        "warps_done",
        "queue_depth",
        "write_queue_depth",
        "cmdq_occupancy",
        "bank_occupancy",
        "drain_active",
        "reads",
        "writes",
        "row_hits",
        "row_misses",
        "row_hit_rate",
        "bus_utilization",
        "bus_busy_ps",
        "merb_deferrals",
        "write_drains",
        "drain_writes",
        "read_queue_full_events",
        "lat_count",
        "lat_mean_ns",
        "lat_p50_ns",
        "lat_p95_ns",
    )

    def __init__(self, system, period_ps: int) -> None:
        if period_ps <= 0:
            raise ValueError("sampling period must be positive")
        self.system = system
        self.engine = system.engine
        self.period_ps = period_ps
        self.samples: list[dict] = []
        self._latencies: list[float] = []  # this interval's, in arrival order
        self._prev: dict[str, list[int]] = {
            name: [0] * len(system.mcs) for name in _DELTA_COUNTERS
        }
        self._prev_bus_busy = [0] * len(system.mcs)
        self._prev_t = 0
        for mc in system.mcs:
            mc.on_read_done = self._latencies.append

    # -- scheduling ----------------------------------------------------------
    def start(self) -> None:
        """Take the t=0 baseline sample and arm the periodic tick."""
        self._sample()
        self.engine.schedule_at(self.engine.now + self.period_ps, self._tick)

    def _tick(self) -> None:
        self._sample()
        # Re-arm only while the workload is still running: a perpetual
        # self-rescheduling event would keep Engine.run from ever draining.
        if self.system.warps_done < self.system.total_warps:
            self.engine.schedule_at(self.engine.now + self.period_ps, self._tick)

    def finalize(self) -> None:
        """Capture the end-of-run state (drain tail included)."""
        if not self.samples or self.engine.now > self.samples[-1]["t_ps"]:
            self._sample()
        if len(self.samples) < 2:  # degenerate zero-length run
            self._sample()

    # -- sampling ------------------------------------------------------------
    def _sample(self) -> None:
        now = self.engine.now
        mcs = self.system.mcs
        sample: dict = {
            "t_ps": now,
            "events": self.engine.events_processed,
            "warps_done": self.system.warps_done,
            "queue_depth": [
                mc._reads_pending + len(mc._read_overflow) for mc in mcs
            ],
            "write_queue_depth": [
                len(mc.write_queue) + len(mc._write_overflow) for mc in mcs
            ],
            "cmdq_occupancy": [mc.cq.total_occupancy() for mc in mcs],
            "bank_occupancy": [
                [mc.cq.occupancy(b) for b in range(mc.org.banks_per_channel)]
                for mc in mcs
            ],
            "drain_active": [int(mc.draining) for mc in mcs],
        }
        for name in _DELTA_COUNTERS:
            current = [getattr(mc.stats, name) for mc in mcs]
            prev = self._prev[name]
            sample[name] = [c - p for c, p in zip(current, prev)]
            self._prev[name] = current
        hits, misses = sum(sample["row_hits"]), sum(sample["row_misses"])
        sample["row_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        busy = [mc.channel.data_bus_busy_ps for mc in mcs]
        delta_busy = [c - p for c, p in zip(busy, self._prev_bus_busy)]
        self._prev_bus_busy = busy
        span = now - self._prev_t
        sample["bus_busy_ps"] = delta_busy
        sample["bus_utilization"] = (
            sum(delta_busy) / (span * len(mcs)) if span > 0 else 0.0
        )
        self._prev_t = now
        latencies = self._latencies
        total = 0.0
        # Summed left to right in arrival order: built-in sum() compensates
        # float rounding from Python 3.12 on, which would move the mean.
        for ns in latencies:
            total += ns
        ranked = sorted(latencies)
        sample["lat_count"] = len(latencies)
        sample["lat_mean_ns"] = total / len(latencies) if latencies else 0.0
        sample["lat_p50_ns"] = _percentile(ranked, 50)
        sample["lat_p95_ns"] = _percentile(ranked, 95)
        latencies.clear()
        self.samples.append(sample)


def _percentile(ranked: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) of the sorted ``ranked``: the value at
    ``q`` percent of its last index, rounded; 0.0 when it is empty."""
    return ranked[round(q / 100.0 * (len(ranked) - 1))] if ranked else 0.0
