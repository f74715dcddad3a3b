"""Unit tests for statistics aggregation."""

from hypothesis import given, strategies as st

from repro.core.stats import Histogram, LoadRecord, SimStats


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


def histogram(values, **kwargs) -> Histogram:
    h = Histogram(**kwargs)
    for v in values:
        h.add(v)
    return h


def test_histogram_count_and_mean():
    h = histogram([1.0, 2.0, 3.0])
    assert h.mean == 2.0
    assert h.count == 3


def test_histogram_percentile():
    h = histogram(float(i) for i in range(101))
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 100.0
    assert 40 <= h.percentile(50) <= 60


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=500))
def test_histogram_reservoir_bounds(values):
    h = histogram(values, capacity=64)
    assert h.count == len(values)
    assert min(values) <= h.percentile(50) <= max(values)


def test_histogram_percentile_cache_invalidated_by_add():
    h = histogram([1.0, 2.0, 3.0])
    assert h.percentile(100) == 3.0
    h.add(10.0)  # must invalidate the cached sorted reservoir
    assert h.percentile(100) == 10.0
    assert h.percentile(0) == 1.0


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
