"""Unit tests for statistics aggregation."""

import random

from repro import Scale, SimConfig, TelemetryHub, build_benchmark
from repro.core.stats import LoadRecord, SimStats, Tally
from repro.gpu.system import GPUSystem


def rec(
    n=4, dram=4, channels=2, banks=2, t_issue=0, first=100, last=400,
    first_dram=100, last_dram=400,
) -> LoadRecord:
    return LoadRecord(
        sm_id=0, warp_id=0, n_requests=n, dram_requests=dram,
        channels_touched=channels, banks_touched=banks, t_issue=t_issue,
        t_first_return=first, t_last_return=last,
        t_first_dram=first_dram, t_last_dram=last_dram,
    )


def test_tally_counts_and_sums():
    t = Tally()
    for v in (1.5, 2.0, 3.5):
        t.add(v)
    assert (t.count, t.total) == (3, 7.0)


def interval_digests(latencies) -> list[tuple]:
    """The sampler's latency digest of each interval, for ``latencies``
    arriving at two controllers of a system that has not run."""
    cfg = SimConfig()
    system = GPUSystem(
        cfg, build_benchmark("sad", cfg, Scale.TINY, seed=1),
        telemetry=TelemetryHub(sample_period_ns=100.0),
    )
    for i, ns in enumerate(latencies):
        system.mcs[i % 2].on_read_done(ns)
    system.sampler.finalize()  # samples them, then an empty interval
    return [
        (s["lat_count"], s["lat_mean_ns"], s["lat_p50_ns"], s["lat_p95_ns"])
        for s in system.sampler.samples
    ]


def test_interval_sampler_digests_every_latency_of_its_interval():
    """Each sample digests exactly the read latencies that arrived since
    the previous one: their count, their mean and their p50/p95, taken
    at the rounded rank over all of them, however many there are."""
    empty = (0, 0.0, 0.0, 0.0)
    # Ranks round(0.5 * 4) = 2 and round(0.95 * 4) = 4 of the sorted five.
    assert interval_digests([400.0, 1000.0, 100.0, 300.0, 200.0]) == [
        (5, 400.0, 300.0, 1000.0), empty,
    ]
    many = [float(ns) for ns in range(5000)]
    random.Random(7).shuffle(many)
    # Ranks round(2499.5) = 2500 and round(4749.05) = 4749.
    assert interval_digests(many) == [(5000, 2499.5, 2500.0, 4749.0), empty]


def test_load_record_metrics():
    r = rec(first=100, last=400, first_dram=150, last_dram=390)
    assert r.divergence_ps == 240
    assert r.effective_latency_ps == 400


def test_load_record_without_dram_reply():
    r = rec(dram=0, first_dram=-1, last_dram=-1)
    assert r.divergence_ps == 0


def test_sim_stats_aggregations():
    s = SimStats(num_channels=2)
    s.warp_instructions = 1000
    s.elapsed_ps = 2_000_000  # 2 us
    assert s.ipc() == 0.5
    s.record_load(rec(n=1, dram=0, first_dram=-1, last_dram=-1))
    s.record_load(rec(n=4, dram=4))
    s.record_load(rec(n=6, dram=6, channels=3, last_dram=700, last=700))
    assert len(s.dram_loads()) == 2
    assert s.frac_divergent_loads() == 2 / 3
    assert abs(s.mean_requests_per_load() - 11 / 3) < 1e-9
    assert s.mean_channels_per_divergent_warp() == 2.5
    # divergences: 300 and 600 -> 450 ns mean 0.45
    assert abs(s.mean_divergence_ns() - 0.45) < 1e-9
    # Fig. 3 is a ratio of means: (400 + 700) / (100 + 100)
    assert s.mean_last_over_first() == 5.5
    s.channels[0].row_hits = 8
    s.channels[0].row_misses = 2
    assert s.total_row_hit_rate() == 0.8
    s.channels[0].reads, s.channels[0].writes = 90, 10
    assert s.write_intensity() == 0.1
    summary = s.summary()
    assert summary["ipc"] == 0.5
    assert set(summary) >= {"effective_latency_ns", "row_hit_rate", "write_intensity"}


def test_empty_stats_are_zero_not_nan():
    s = SimStats(num_channels=1)
    for value in s.summary().values():
        assert value == value  # not NaN
    assert s.ipc() == 0.0
    assert s.mean_last_over_first() == 1.0
