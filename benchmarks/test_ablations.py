"""Ablation benches for the design choices and extensions DESIGN.md lists.

Not paper figures — these pin down the modeling decisions:

* refresh off (the paper's configuration) vs on: bounded overhead;
* TLB off (the paper's §V argument) vs small-TLB stress: page walks cost,
  and warp-aware scheduling keeps its edge with walks in the mix;
* WG-Share (the conclusion's future-work policy) does not regress WG-W;
* command-queue depth: the look-ahead the transaction scheduler needs.
"""

import dataclasses

import pytest

from repro.core.config import SimConfig
from repro.gpu.system import simulate
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace

from conftest import emit


def trace_for(cfg, name="bfs", warps=96, loads=6, seed=2):
    profile = dataclasses.replace(
        IRREGULAR_PROFILES[name], warps=warps, loads_per_warp=loads
    )
    return synthetic_trace(profile, cfg, seed=seed, scale=1.0)


@pytest.fixture(scope="module")
def base_cfg():
    return SimConfig()


def test_ablation_refresh_overhead(base_cfg):
    trace = trace_for(base_cfg)
    ref = dataclasses.replace(
        base_cfg,
        dram_timing=dataclasses.replace(base_cfg.dram_timing, refresh_enabled=True),
    )
    ratio = simulate(ref, trace).ipc() / simulate(base_cfg, trace).ipc()
    print(f"\nrefresh on/off IPC ratio: {ratio:.4f}")
    # tRFC/tREFI = 4%: overhead must be bounded and not negative.
    assert 0.90 <= ratio <= 1.01


def test_ablation_tlb_with_warp_aware(base_cfg):
    """§V claim: warp-aware scheduling keeps its benefit when TLB misses
    inject page-walk traffic."""
    tlb_cfg = dataclasses.replace(
        base_cfg, use_tlb=True,
        gpu=dataclasses.replace(base_cfg.gpu, tlb_entries=16),
    )
    trace = trace_for(base_cfg, name="spmv")
    gmc = simulate(tlb_cfg.with_scheduler("gmc"), trace).ipc()
    speedup = simulate(tlb_cfg.with_scheduler("wg-w"), trace).ipc() / gmc
    print(f"\nWG-W speedup with TLB walks: {speedup:.4f}")
    assert speedup > 0.97  # no collapse under walk traffic


def test_ablation_wgshare_vs_wgw(base_cfg):
    trace = trace_for(base_cfg, name="PVC")
    wgw = simulate(base_cfg.with_scheduler("wg-w"), trace).ipc()
    ratio = simulate(base_cfg.with_scheduler("wg-share"), trace).ipc() / wgw
    print(f"\nWG-Share / WG-W IPC: {ratio:.4f}")
    assert ratio > 0.95  # future-work heuristic must not regress


def test_ablation_command_queue_depth(base_cfg):
    trace = trace_for(base_cfg, name="cfd")
    out = {}
    for depth in (2, 4, 16):
        cfg = dataclasses.replace(
            base_cfg,
            mc=dataclasses.replace(base_cfg.mc, command_queue_depth=depth),
        )
        out[depth] = simulate(cfg.with_scheduler("wg-w"), trace).ipc()
    print("\nWG-W IPC by command-queue depth:", {k: round(v, 3) for k, v in out.items()})
    # All depths function; the default (4) is not the worst choice.
    assert min(out.values()) > 0
    assert out[4] >= min(out.values())
