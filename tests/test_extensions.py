"""Tests for the optional extensions: refresh, TLB, WG-Share."""

import dataclasses

import pytest

from repro.core.config import SimConfig
from repro.gpu.system import simulate
from repro.gpu.tlb import TLB
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace


def small_trace(cfg, name="bfs", warps=32, loads=5, seed=4):
    profile = dataclasses.replace(
        IRREGULAR_PROFILES[name], warps=warps, loads_per_warp=loads
    )
    return synthetic_trace(profile, cfg, seed=seed, scale=1.0)


# -- refresh -----------------------------------------------------------------
def test_refresh_costs_time_and_counts():
    base = SimConfig().small()
    ref = dataclasses.replace(
        base,
        dram_timing=dataclasses.replace(
            base.dram_timing, refresh_enabled=True, trefi_ns=400.0, trfc_ns=160.0
        ),
    )
    trace = small_trace(base, warps=48, loads=8)
    s0 = simulate(base, trace)
    s1 = simulate(ref, trace)
    assert sum(c.refreshes for c in s1.channels) > 0
    assert s1.ipc() < s0.ipc()


def test_refresh_skipped_while_idle():
    base = SimConfig().small()
    ref = dataclasses.replace(
        base,
        dram_timing=dataclasses.replace(
            base.dram_timing, refresh_enabled=True, trefi_ns=400.0
        ),
    )
    # Tiny burst of work, long idle drain afterwards: the engine must not
    # spin on refresh events forever.
    trace = small_trace(ref, warps=4, loads=3)
    stats = simulate(ref, trace)
    assert stats.ipc() > 0


def test_refresh_timing_fields():
    t = SimConfig().dram_timing
    assert t.trefi_ps > t.trfc_ps > 0


# -- TLB ------------------------------------------------------------------------
def test_tlb_lru_and_rates():
    tlb = TLB(entries=2, page_bytes=4096)
    assert not tlb.lookup(0)
    tlb.fill(0)
    assert tlb.lookup(100)  # same page
    tlb.fill(4096)
    tlb.fill(8192)  # evicts page 0, the least recently used
    assert not tlb.lookup(0)
    assert tlb.lookup(4096) and tlb.lookup(8192)


def test_tlb_page_size_validation():
    with pytest.raises(ValueError):
        TLB(entries=4, page_bytes=3000)


def test_tlb_walk_addresses_line_aligned_and_bounded():
    tlb = TLB(entries=4, page_bytes=64 * 1024)
    for addr in (0, 1 << 20, 700 << 20):
        walk = tlb.walk_address(addr)
        assert walk < 768 << 20


def test_tlb_misses_add_walk_requests_and_cost():
    base = SimConfig().small()
    small_tlb = dataclasses.replace(
        base, use_tlb=True,
        gpu=dataclasses.replace(base.gpu, tlb_entries=4),
    )
    trace = small_trace(base, warps=32, loads=5)
    s0 = simulate(base, trace)
    s1 = simulate(small_tlb, trace)
    assert s1.requests_issued > s0.requests_issued  # page walks added
    assert s1.ipc() <= s0.ipc() * 1.02


def test_large_tlb_near_perfect_coverage():
    """The paper's §V argument: big pages + enough entries -> ~100% hits."""
    base = SimConfig().small()
    big = dataclasses.replace(
        base, use_tlb=True,
        gpu=dataclasses.replace(
            base.gpu, tlb_entries=4096, page_bytes=1 << 20
        ),
    )
    small = dataclasses.replace(
        base, use_tlb=True,
        gpu=dataclasses.replace(base.gpu, tlb_entries=4, page_bytes=4096),
    )
    trace = small_trace(base, warps=32, loads=8)
    lines = simulate(base, trace).requests_issued  # one TLB lookup each

    def walks_per_line(cfg):
        # Every request beyond the trace's own lines is a page walk.
        return (simulate(cfg, trace).requests_issued - lines) / lines

    big_walks = walks_per_line(big)
    small_walks = walks_per_line(small)
    # Large pages + capacity -> only compulsory misses remain.
    assert big_walks < 0.25
    assert small_walks > big_walks + 0.2


# -- WG-Share ---------------------------------------------------------------------
def test_wgshare_runs_and_stays_near_wgw():
    cfg = SimConfig().small()
    trace = small_trace(cfg, name="PVC", warps=48, loads=6)
    wgw = simulate(cfg.with_scheduler("wg-w"), trace)
    share = simulate(cfg.with_scheduler("wg-share"), trace)
    assert share.warp_instructions == wgw.warp_instructions
    assert share.ipc() > 0.9 * wgw.ipc()


def test_wgshare_bonus_computation():
    from repro.mc.warp_sorter import WarpSorter
    from helpers import MCHarness, make_request

    h = MCHarness("wg-share")
    mc = h.mc
    # Group of warp 1: one request on (bank0,row5); two other warps pend
    # on the same row.
    r = make_request(bank=0, row=5, warp_id=1)
    r.transaction = object.__new__(object)  # non-None sentinel
    mc.sorter.add(r, 0)
    for w in (2, 3):
        o = make_request(bank=0, row=5, warp_id=w)
        o.transaction = r.transaction
        mc.sorter.add(o, 0)
    entry = mc.sorter.get((0, 1))
    assert mc._sharing_bonus(entry) == 2
