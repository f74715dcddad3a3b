"""Statistics collection for simulations.

Three layers:

* :class:`Tally` — streaming count and total of one quantity;
* :class:`ChannelStats` — per-memory-controller counters (row hits, drains,
  bus occupancy);
* :class:`SimStats` — whole-run aggregation, including the per-load records
  that Figs. 3, 9 and 10 of the paper are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Tally", "ChannelStats", "LoadRecord", "SimStats"]


class Tally:
    """Streaming count and total of one quantity."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value


@dataclass
class ChannelStats:
    """Counters maintained by one memory controller / DRAM channel."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    activates: int = 0
    precharges: int = 0
    write_drains: int = 0
    drain_writes: int = 0
    refreshes: int = 0
    data_bus_busy_ps: int = 0
    read_queue_full_events: int = 0
    coordination_msgs_sent: int = 0
    coordination_msgs_applied: int = 0
    merb_deferrals: int = 0
    orphan_rescues: int = 0
    wgw_promotions: int = 0
    # Pending reads of the incomplete groups the WG family's read-queue
    # pressure fallback inserted, bypassing the BASJF pick.
    fallback_reads: int = 0
    # Latency breakdown (ns): time waiting for the transaction scheduler
    # vs. time from command-queue insertion to data.
    sorter_wait: Tally = field(default_factory=Tally)
    service_time: Tally = field(default_factory=Tally)


@dataclass(slots=True)
class LoadRecord:
    """Per-vector-load record used by the divergence/latency figures."""

    sm_id: int
    warp_id: int
    n_requests: int
    dram_requests: int
    channels_touched: int
    banks_touched: int
    t_issue: int
    t_first_return: int
    t_last_return: int
    t_first_dram: int = -1
    t_last_dram: int = -1

    @property
    def divergence_ps(self) -> int:
        """Gap between first and last *main-memory* reply (Fig. 3/10)."""
        if self.t_first_dram < 0:
            return 0
        return self.t_last_dram - self.t_first_dram

    @property
    def effective_latency_ps(self) -> int:
        """Issue to last reply: the warp's memory stall time (Fig. 9)."""
        return self.t_last_return - self.t_issue


class SimStats:
    """Whole-run aggregation."""

    def __init__(self, num_channels: int) -> None:
        self.channels = [ChannelStats() for _ in range(num_channels)]
        self.load_records: list[LoadRecord] = []
        self.warp_instructions = 0
        self.loads_issued = 0
        self.requests_issued = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.elapsed_ps = 0
        # Observability side-channels (not part of summary(): its key set
        # and values are pinned by the telemetry non-perturbation tests).
        self.intervals: list[dict] = []  # IntervalSampler time-series
        self.interval_period_ps = 0
        self.events_processed = 0  # engine events of the producing run
        self.wall_seconds = 0.0  # host wall-clock of the producing run

    # -- recording ----------------------------------------------------------
    def record_load(self, rec: LoadRecord) -> None:
        self.load_records.append(rec)

    # -- summary metrics ------------------------------------------------------
    def ipc(self) -> float:
        """Warp instructions retired per nanosecond (relative-IPC proxy).

        The paper reports IPC normalized to the GMC baseline; any fixed
        time unit cancels in the normalization, so instructions/ns is used.
        """
        return self.warp_instructions / (self.elapsed_ps / 1000.0) if self.elapsed_ps else 0.0

    def dram_loads(self) -> list[LoadRecord]:
        """Loads that touched DRAM at least once (the divergence population)."""
        return [r for r in self.load_records if r.dram_requests > 0]

    def mean_effective_latency_ns(self) -> float:
        recs = self.dram_loads()
        if not recs:
            return 0.0
        return sum(r.effective_latency_ps for r in recs) / len(recs) / 1000.0

    def mean_divergence_ns(self) -> float:
        recs = [r for r in self.dram_loads() if r.dram_requests > 1]
        if not recs:
            return 0.0
        return sum(r.divergence_ps for r in recs) / len(recs) / 1000.0

    def mean_last_over_first(self) -> float:
        """Mean last-reply latency over mean first-reply latency (Fig. 3).

        A ratio of means, as the paper phrases it ("the last request's
        latency is 1.6x the latency of the first request"); a mean of
        per-load ratios would be dominated by loads whose first reply was
        nearly instant.
        """
        recs = [
            r
            for r in self.dram_loads()
            if r.dram_requests > 1 and r.t_first_dram >= 0
        ]
        if not recs:
            return 1.0
        first = sum(r.t_first_dram - r.t_issue for r in recs)
        last = sum(r.t_last_dram - r.t_issue for r in recs)
        return last / first if first > 0 else 1.0

    def mean_channels_per_divergent_warp(self) -> float:
        recs = [r for r in self.dram_loads() if r.dram_requests > 1]
        if not recs:
            return 0.0
        return sum(r.channels_touched for r in recs) / len(recs)

    def mean_requests_per_load(self) -> float:
        if not self.load_records:
            return 0.0
        return sum(r.n_requests for r in self.load_records) / len(self.load_records)

    def frac_divergent_loads(self) -> float:
        """Fraction of loads producing more than one coalesced request (Fig. 2)."""
        if not self.load_records:
            return 0.0
        return sum(1 for r in self.load_records if r.n_requests > 1) / len(self.load_records)

    def total_row_hit_rate(self) -> float:
        hits = sum(c.row_hits for c in self.channels)
        total = hits + sum(c.row_misses for c in self.channels)
        return hits / total if total else 0.0

    def total_bandwidth_utilization(self) -> float:
        if not self.elapsed_ps:
            return 0.0
        busy = sum(c.data_bus_busy_ps for c in self.channels)
        return busy / (self.elapsed_ps * len(self.channels))

    def write_intensity(self) -> float:
        """Fraction of DRAM traffic that is writes (Fig. 12)."""
        reads = sum(c.reads for c in self.channels)
        writes = sum(c.writes for c in self.channels)
        total = reads + writes
        return writes / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """Flat dictionary of the headline metrics (stable keys)."""
        return {
            "ipc": self.ipc(),
            "elapsed_ns": self.elapsed_ps / 1000.0,
            "effective_latency_ns": self.mean_effective_latency_ns(),
            "divergence_ns": self.mean_divergence_ns(),
            "last_over_first": self.mean_last_over_first(),
            "channels_per_warp": self.mean_channels_per_divergent_warp(),
            "requests_per_load": self.mean_requests_per_load(),
            "frac_divergent_loads": self.frac_divergent_loads(),
            "row_hit_rate": self.total_row_hit_rate(),
            "bandwidth_utilization": self.total_bandwidth_utilization(),
            "write_intensity": self.write_intensity(),
            "l1_hits": float(self.l1_hits),
            "l2_hits": float(self.l2_hits),
            "requests_issued": float(self.requests_issued),
        }

    # -- metrics export -------------------------------------------------------
    def metrics_dict(self) -> dict:
        """Machine-readable bundle: summary + interval time-series.

        Schema (stable; the version constant is
        ``repro.analysis.schema.METRICS_SCHEMA`` and bumps on breaking
        changes)::

            {"schema_version": 1,
             "summary": {...},                # exactly summary()
             "events_processed": int,
             "wall_seconds": float,
             "interval_period_ps": int,
             "intervals": [{...}, ...]}       # IntervalSampler.SCHEMA_KEYS
        """
        # Imported lazily: repro.core must not import repro.analysis at
        # module load (analysis builds on core).
        from repro.analysis.schema import METRICS_SCHEMA

        return {
            "schema_version": METRICS_SCHEMA,
            "summary": self.summary(),
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
            "interval_period_ps": self.interval_period_ps,
            "intervals": self.intervals,
        }

    def intervals_csv(self) -> str:
        """The interval time-series as CSV, one row per sample.

        List-valued fields are flattened with an index suffix
        (``queue_depth_0`` … per channel; ``bank_occupancy_1_4`` for
        channel 1, bank 4).
        """
        if not self.intervals:
            return ""

        def flatten(sample: dict) -> dict[str, object]:
            flat: dict[str, object] = {}
            for key, value in sample.items():
                if isinstance(value, list):
                    for i, v in enumerate(value):
                        if isinstance(v, list):
                            for j, vv in enumerate(v):
                                flat[f"{key}_{i}_{j}"] = vv
                        else:
                            flat[f"{key}_{i}"] = v
                else:
                    flat[key] = value
            return flat

        rows = [flatten(s) for s in self.intervals]
        header = list(rows[0])
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row.get(col, "")) for col in header))
        return "\n".join(lines) + "\n"

    def write_metrics(self, path: str) -> None:
        """Write the metrics bundle to ``path`` (JSON, or CSV for ``.csv``)."""
        if path.endswith(".csv"):
            with open(path, "w") as fh:
                fh.write(self.intervals_csv())
            return
        import json

        with open(path, "w") as fh:
            json.dump(self.metrics_dict(), fh, indent=1)
