"""End-to-end integration tests of the full GPU system."""

import dataclasses

import pytest

from repro.core.config import SimConfig
from repro.gpu.system import GPUSystem, simulate
from repro.mc.registry import SCHEDULERS
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace


def tiny_trace(cfg: SimConfig, n_warps: int = 24, seed: int = 5) -> KernelTrace:
    profile = dataclasses.replace(
        IRREGULAR_PROFILES["bfs"], warps=n_warps, loads_per_warp=4
    )
    return synthetic_trace(profile, cfg, seed=seed, scale=1.0)


@pytest.fixture(scope="module")
def small_cfg():
    return SimConfig().small()


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_every_scheduler_completes_and_balances(sched, small_cfg):
    cfg = small_cfg.with_scheduler(sched)
    trace = tiny_trace(cfg)
    sys_ = GPUSystem(cfg, trace)
    stats = sys_.run(max_events=5_000_000)
    assert sys_.warps_done == len(trace.warps)
    # Conservation: every issued request is answered exactly once.
    assert stats.loads_issued == len(stats.load_records)
    total_reqs = sum(r.n_requests for r in stats.load_records)
    assert stats.requests_issued == total_reqs
    # Every DRAM-bound read was serviced by some channel.
    dram_reads = sum(c.reads for c in stats.channels)
    dram_noted = sum(r.dram_requests for r in stats.load_records)
    assert dram_reads == dram_noted
    # Controllers fully drained.
    for mc in sys_.mcs:
        assert mc.pending_work() == 0
    assert stats.elapsed_ps > 0
    assert stats.ipc() > 0


def test_determinism_same_seed(small_cfg):
    cfg = small_cfg.with_scheduler("wg-w")
    a = simulate(cfg, tiny_trace(cfg, seed=7)).summary()
    b = simulate(cfg, tiny_trace(cfg, seed=7)).summary()
    assert a == b


def test_different_seeds_differ(small_cfg):
    cfg = small_cfg.with_scheduler("gmc")
    a = simulate(cfg, tiny_trace(cfg, seed=7)).summary()
    b = simulate(cfg, tiny_trace(cfg, seed=8)).summary()
    assert a != b


def test_caches_reduce_dram_traffic(small_cfg):
    trace = tiny_trace(small_cfg)
    with_cache = simulate(small_cfg, trace).summary()
    nocache_cfg = dataclasses.replace(small_cfg, use_l1=False, use_l2=False)
    without = simulate(nocache_cfg, tiny_trace(nocache_cfg)).summary()
    assert with_cache["l1_hits"] > 0 or with_cache["l2_hits"] > 0
    reads_with = with_cache["requests_issued"]
    assert reads_with > 0 and without["requests_issued"] > 0


def test_write_traffic_reaches_dram(small_cfg):
    profile = dataclasses.replace(
        IRREGULAR_PROFILES["nw"], warps=32, loads_per_warp=8
    )
    trace = synthetic_trace(profile, small_cfg, seed=3, scale=1.0)
    stats = simulate(small_cfg, trace)
    assert sum(c.writes for c in stats.channels) > 0
    assert stats.write_intensity() > 0


def test_stall_detection_raises(small_cfg):
    # A trace referencing an SM beyond the configuration must fail fast.
    bad = KernelTrace(
        "bad", [WarpTrace(99, 0, [Segment(1, MemOp(False, [0] * 32))])]
    )
    with pytest.raises(ValueError):
        GPUSystem(small_cfg, bad)


def test_full_config_six_channels():
    cfg = SimConfig()
    trace = tiny_trace(cfg, n_warps=30)
    stats = simulate(cfg, trace)
    touched = sum(1 for c in stats.channels if c.reads > 0)
    assert touched == 6  # address hashing spreads across all channels


def test_zero_divergence_scheduler_runs(small_cfg):
    cfg = small_cfg.with_scheduler("zero-div")
    stats = simulate(cfg, tiny_trace(cfg))
    base = simulate(small_cfg.with_scheduler("gmc"), tiny_trace(small_cfg))
    # The idealized system cannot be slower than the baseline.
    assert stats.ipc() >= base.ipc() * 0.95
    assert stats.mean_divergence_ns() <= base.mean_divergence_ns()
