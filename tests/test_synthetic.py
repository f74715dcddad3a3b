"""Tests for the profile-driven synthetic workload generator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimConfig
from repro.gpu.address_map import AddressMap
from repro.gpu.coalescer import coalesce
from repro.workloads.profiles import ALL_PROFILES, IRREGULAR_PROFILES, BenchmarkProfile
from repro.workloads.synthetic import HotRowStreams, _sample_group_size, synthetic_trace

CFG = SimConfig()
LINE = CFG.dram_org.line_bytes


def small(profile: BenchmarkProfile) -> BenchmarkProfile:
    return dataclasses.replace(profile, warps=48, loads_per_warp=6)


def trace_signature(profile, seed=1):
    trace = synthetic_trace(small(profile), CFG, seed=seed)
    rpls = []
    for w in trace.warps:
        for s in w.segments:
            if s.mem is not None and not s.mem.is_write:
                rpls.append(len(coalesce(s.mem.lane_addrs, LINE)))
    return trace, np.asarray(rpls)


def test_requests_per_load_matches_profile():
    p = IRREGULAR_PROFILES["bfs"]
    _, rpls = trace_signature(p)
    assert abs(rpls.mean() - p.reqs_per_load) < 1.2
    frac_div = (rpls > 1).mean()
    assert abs(frac_div - p.frac_divergent) < 0.1


def test_regular_profile_coalesces_to_one():
    p = ALL_PROFILES["streamcluster"]
    _, rpls = trace_signature(p)
    assert rpls.mean() < 1.1


def test_channel_spread_respects_profile():
    amap = AddressMap(CFG.dram_org)
    for name in ("sad", "sssp"):
        p = IRREGULAR_PROFILES[name]
        trace, _ = trace_signature(p)
        spreads = []
        for w in trace.warps:
            for s in w.segments:
                if s.mem is None or s.mem.is_write:
                    continue
                lines = coalesce(s.mem.lane_addrs, LINE)
                if len(lines) < 2:
                    continue
                spreads.append(len({amap.decompose(a)[0] for a in lines}))
        assert spreads
        mean = float(np.mean(spreads))
        assert abs(mean - min(p.channels_per_warp, 6)) < 1.2, (name, mean)
    # Relative ordering: sssp spreads across more channels than sad.


def test_determinism_and_seed_sensitivity():
    p = IRREGULAR_PROFILES["spmv"]
    a = synthetic_trace(small(p), CFG, seed=3)
    b = synthetic_trace(small(p), CFG, seed=3)
    c = synthetic_trace(small(p), CFG, seed=4)
    flat = lambda t: [
        s.mem.lane_addrs
        for w in t.warps
        for s in w.segments
        if s.mem is not None
    ]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_scale_changes_loads_not_warps():
    p = IRREGULAR_PROFILES["bfs"]
    full = synthetic_trace(p, CFG, seed=1, scale=1.0)
    quick = synthetic_trace(p, CFG, seed=1, scale=0.3)
    assert len(full.warps) == len(quick.warps) == p.warps
    assert full.total_memory_ops() > quick.total_memory_ops()


def test_write_heavy_profiles_emit_stores():
    p = IRREGULAR_PROFILES["nw"]
    trace = synthetic_trace(small(p), CFG, seed=2)
    stores = sum(
        1 for w in trace.warps for s in w.segments if s.mem and s.mem.is_write
    )
    loads = sum(
        1 for w in trace.warps for s in w.segments if s.mem and not s.mem.is_write
    )
    assert stores > 0.5 * loads * p.write_ratio


def test_addresses_within_capacity():
    org = CFG.dram_org
    cap = org.num_channels * org.banks_per_channel * org.rows_per_bank * org.row_size_bytes
    trace = synthetic_trace(small(IRREGULAR_PROFILES["PVC"]), CFG, seed=5)
    for w in trace.warps:
        for s in w.segments:
            if s.mem is None:
                continue
            for a in s.mem.lane_addrs:
                assert a is None or 0 <= a < cap


def test_hot_row_streams_rotate_banks():
    amap = AddressMap(CFG.dram_org)
    rng = np.random.default_rng(1)
    hot = HotRowStreams(amap, n_streams=1, rng=rng)
    banks = []
    for _ in range(CFG.dram_org.lines_per_row * 4):
        ch, bank, row, col = amap.decompose(hot.next_line())
        banks.append(bank)
    # One row's worth of lines per bank, then the stream moves on.
    assert len(set(banks)) >= 3


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=12.0),
    st.integers(0, 2**31 - 1),
)
def test_property_group_size_in_range(frac_div, mean_rpl, seed):
    rng = np.random.default_rng(seed)
    profile = dataclasses.replace(
        IRREGULAR_PROFILES["bfs"],
        frac_divergent=frac_div,
        reqs_per_load=max(mean_rpl, 1.0 + frac_div),
    )
    for _ in range(20):
        n = _sample_group_size(rng, profile, 32)
        assert 1 <= n <= 32
