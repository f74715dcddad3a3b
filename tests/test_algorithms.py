"""Tests for the algorithmic workload generators (real-algorithm traces)."""

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.gpu.coalescer import coalesce
from repro.workloads.algorithms import (
    bfs_trace,
    bh_trace,
    cfd_trace,
    kmeans_trace,
    nw_trace,
    pvc_trace,
    random_csr,
    sad_trace,
    sp_trace,
    spmv_trace,
    ss_trace,
    sssp_trace,
    stencil_trace,
    stream_trace,
)
from repro.workloads.suite import IRREGULAR_SUITE, REGULAR_SUITE, Scale, build_benchmark

CFG = SimConfig()


def stats_of(trace):
    rpl, loads, stores = [], 0, 0
    for w in trace.warps:
        for s in w.segments:
            if s.mem is None:
                continue
            if s.mem.is_write:
                stores += 1
            else:
                loads += 1
                rpl.append(len(coalesce(s.mem.lane_addrs)))
    return np.asarray(rpl), loads, stores


def test_random_csr_well_formed():
    rng = np.random.default_rng(0)
    row_ptr, col = random_csr(1000, 4.0, rng)
    assert len(row_ptr) == 1001
    assert row_ptr[0] == 0
    assert np.all(np.diff(row_ptr) >= 1)
    assert row_ptr[-1] == len(col)
    assert col.min() >= 0 and col.max() < 1000


def test_bfs_emits_divergent_gathers():
    t = bfs_trace(CFG, n_vertices=30_000, seed=1, max_frontier_warps=120)
    rpl, loads, _ = stats_of(t)
    assert loads > 100
    assert rpl.mean() > 1.5  # MAI present
    assert (rpl > 1).mean() > 0.3


def test_bfs_deterministic():
    a = bfs_trace(CFG, n_vertices=5_000, seed=9, max_frontier_warps=40)
    b = bfs_trace(CFG, n_vertices=5_000, seed=9, max_frontier_warps=40)
    assert a.total_memory_ops() == b.total_memory_ops()
    assert a.total_instructions() == b.total_instructions()


def test_sssp_has_writes():
    t = sssp_trace(CFG, n_vertices=20_000, seed=2, max_warps=100)
    _, loads, stores = stats_of(t)
    assert stores > 0 and loads > 0


def test_bh_walks_diverge_with_depth():
    t = bh_trace(CFG, n_bodies=20_000, seed=3, max_warps=60)
    # Per warp: first tree-level gathers coalesce (few nodes), deep ones diverge.
    w = t.warps[0]
    gathers = [s.mem for s in w.segments if s.mem and not s.mem.is_write]
    first_level = len(coalesce(gathers[1].lane_addrs))
    deepest = len(coalesce(gathers[-1].lane_addrs))
    assert first_level <= 2
    assert deepest > first_level


def test_spmv_row_pointer_coalesced_x_gather_divergent():
    t = spmv_trace(CFG, n_rows=20_000, seed=4, max_warps=80)
    w = t.warps[0]
    mems = [s.mem for s in w.segments if s.mem is not None]
    # First op is the row_ptr stream: one or two requests.
    assert len(coalesce(mems[0].lane_addrs)) <= 2
    rpl, _, _ = stats_of(t)
    assert rpl.mean() > 2.0


def test_cfd_touches_many_channels():
    from repro.gpu.address_map import AddressMap

    amap = AddressMap(CFG.dram_org)
    t = cfd_trace(CFG, n_cells=30_000, seed=5, max_warps=60)
    spreads = []
    for w in t.warps[:20]:
        chans = set()
        for s in w.segments:
            if s.mem is None or s.mem.is_write:
                continue
            for a in coalesce(s.mem.lane_addrs):
                chans.add(amap.decompose(a)[0])
        spreads.append(len(chans))
    assert np.mean(spreads) >= 3


def test_kmeans_strided_features():
    t = kmeans_trace(CFG, n_points=10_000, seed=6, max_warps=40)
    rpl, _, _ = stats_of(t)
    assert 2.0 < rpl.mean() < 10.0


def test_pvc_write_traffic():
    t = pvc_trace(CFG, n_records=20_000, seed=7, max_warps=80)
    _, loads, stores = stats_of(t)
    assert stores >= loads * 0.3


def test_ss_gathers_cluster_in_windows():
    t = ss_trace(CFG, n_docs=20_000, n_pairs=20_000, seed=8, max_warps=60)
    rpl, _, _ = stats_of(t)
    assert 2.0 < rpl.mean() < 12.0


def test_sad_write_heavy_low_spread():
    t = sad_trace(CFG, frame_h=64, seed=9, max_warps=60)
    rpl, loads, stores = stats_of(t)
    assert stores > 0.4 * loads
    assert rpl.mean() < 5.0


def test_nw_wavefront_writes():
    t = nw_trace(CFG, n=512, seed=10, max_warps=80)
    _, loads, stores = stats_of(t)
    assert stores >= loads * 0.5


def test_sp_clause_gathers():
    t = sp_trace(CFG, n_vars=20_000, n_clauses=40_000, seed=11, max_warps=60)
    rpl, _, _ = stats_of(t)
    assert rpl.mean() > 3.0


def test_regular_generators_coalesce():
    for gen in (stream_trace, stencil_trace):
        t = gen(CFG, seed=12, max_warps=40)
        rpl, _, _ = stats_of(t)
        assert rpl.mean() < 1.3, gen.__name__


def test_suite_builders_cover_all_benchmarks():
    assert len(IRREGULAR_SUITE) == 11
    assert len(REGULAR_SUITE) == 6


def test_build_benchmark_unknown_name():
    with pytest.raises(ValueError):
        build_benchmark("nope", CFG, Scale.TINY)
