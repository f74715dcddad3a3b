"""Tests for the Fig. 4 idealized opportunity models."""

import dataclasses

from repro.analysis.runner import ExperimentRunner
from repro.core.config import SimConfig
from repro.core.overrides import apply_overrides
from repro.gpu.coalescer import coalesce
from repro.gpu.system import simulate
from repro.idealized import perfect_coalescing
from repro.mc.registry import SCHEDULERS
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.suite import Scale
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace


def test_zero_div_registered():
    assert "zero-div" in SCHEDULERS


def test_perfect_coalescing_every_op_single_line():
    cfg = SimConfig()
    profile = dataclasses.replace(IRREGULAR_PROFILES["bh"], warps=32, loads_per_warp=4)
    trace = synthetic_trace(profile, cfg, seed=1)
    line_bytes = cfg.dram_org.line_bytes
    pc = perfect_coalescing(trace, line_bytes)
    assert pc.name.endswith("+perfect-coalescing")
    for w in pc.warps:
        for s in w.segments:
            if s.mem is None:
                continue
            assert len(coalesce(s.mem.lane_addrs, line_bytes)) == 1


def test_perfect_coalescing_follows_the_configured_line_size():
    """At a 64-byte line, every load of the perfectly coalesced trace the
    runner simulates issues exactly one request, as at the default 128."""
    cfg = apply_overrides(SimConfig(), {"dram_org.line_bytes": 64})
    runner = ExperimentRunner(config=cfg, scale=Scale.TINY, seeds=(1,))
    loads = [
        s.mem.lane_addrs
        for w in runner.trace("bfs", 1, perfect=True).warps
        for s in w.segments
        if s.mem is not None and not s.mem.is_write
    ]
    assert loads
    assert {len(coalesce(lanes, 64)) for lanes in loads} == {1}
    summary, _meta = runner.run_job("bfs", "gmc", 1, perfect=True)
    assert summary["requests_per_load"] == 1.0


def test_perfect_coalescing_preserves_structure():
    trace = KernelTrace("t", [
        WarpTrace(0, 0, [
            Segment(5, MemOp(False, [0, 4096, 8192] + [None] * 29)),
            Segment(2, None),
            Segment(1, MemOp(False, [None] * 32)),
        ])
    ])
    pc = perfect_coalescing(trace, SimConfig().dram_org.line_bytes)
    segs = pc.warps[0].segments
    assert segs[0].compute_cycles == 5
    assert segs[0].mem is not None
    assert segs[1].mem is None
    assert segs[2].mem is None  # fully-masked op collapses to compute


def test_perfect_coalescing_speeds_up_divergent_workload():
    cfg = SimConfig().small()
    profile = dataclasses.replace(IRREGULAR_PROFILES["bfs"], warps=32, loads_per_warp=5)
    trace = synthetic_trace(profile, cfg, seed=2)
    base = simulate(cfg, trace)
    ideal = simulate(cfg, perfect_coalescing(trace, cfg.dram_org.line_bytes))
    assert ideal.ipc() > base.ipc() * 1.3
    assert ideal.requests_issued < base.requests_issued


def test_zero_divergence_reduces_divergence_and_helps():
    cfg = SimConfig().small()
    profile = dataclasses.replace(IRREGULAR_PROFILES["bfs"], warps=48, loads_per_warp=6)
    trace = synthetic_trace(profile, cfg, seed=3)
    base = simulate(cfg.with_scheduler("gmc"), trace)
    zd = simulate(cfg.with_scheduler("zero-div"), trace)
    assert zd.mean_divergence_ns() < base.mean_divergence_ns()
    assert zd.ipc() > base.ipc()
    # Bandwidth is still charged: total DRAM reads essentially unchanged
    # (tiny deltas come from timing-dependent L2 MSHR merges).
    reads_zd = sum(c.reads for c in zd.channels)
    reads_base = sum(c.reads for c in base.channels)
    assert abs(reads_zd - reads_base) <= 0.02 * reads_base
