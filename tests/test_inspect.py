"""Tests for offline trace inspection and the parallel sweep runner."""

import dataclasses

import pytest

from repro.core.config import SimConfig
from repro.workloads.inspect import trace_signature
from repro.workloads.profiles import IRREGULAR_PROFILES, REGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

CFG = SimConfig()


def test_signature_of_handmade_trace():
    trace = KernelTrace("t", [
        WarpTrace(0, 0, [
            Segment(5, MemOp(False, [0, 4096] + [None] * 30)),  # 2 lines
            Segment(1, MemOp(False, [8192] + [None] * 31)),  # 1 line
            Segment(2, MemOp(True, [0] + [None] * 31)),  # 1 store line
        ])
    ])
    sig = trace_signature(trace, CFG)
    assert sig.warps == 1
    assert sig.loads == 2
    assert sig.stores == 1
    assert sig.requests_per_load == 1.5
    assert sig.frac_divergent_loads == 0.5
    assert sig.store_request_ratio == pytest.approx(1 / 3)
    assert sig.footprint_bytes == 8192 + 128
    assert sig.instructions == 11


def test_signature_matches_profile_without_simulation():
    p = dataclasses.replace(IRREGULAR_PROFILES["spmv"], warps=48, loads_per_warp=6)
    sig = trace_signature(synthetic_trace(p, CFG, seed=2), CFG)
    assert abs(sig.requests_per_load - p.reqs_per_load) < 1.5
    assert abs(sig.frac_divergent_loads - p.frac_divergent) < 0.12
    assert sig.distinct_rows > 50


def test_signature_regular_vs_irregular_ordering():
    irr = dataclasses.replace(IRREGULAR_PROFILES["bh"], warps=32, loads_per_warp=5)
    reg = dataclasses.replace(
        REGULAR_PROFILES["streamcluster"], warps=32, loads_per_warp=5
    )
    s_irr = trace_signature(synthetic_trace(irr, CFG, seed=3), CFG)
    s_reg = trace_signature(synthetic_trace(reg, CFG, seed=3), CFG)
    assert s_irr.requests_per_load > 2 * s_reg.requests_per_load
    assert s_irr.channels_per_divergent_load >= 1.0


def test_signature_empty_trace():
    sig = trace_signature(KernelTrace("empty", []), CFG)
    assert sig.loads == 0
    assert sig.requests_per_load == 0.0
    assert sig.footprint_bytes == 0
    assert set(sig.as_dict()) >= {"requests_per_load", "footprint_bytes"}


# -- parallel sweep -------------------------------------------------------------
def test_run_job_roundtrip(tmp_path):
    from repro.analysis.runner import ExperimentRunner
    from repro.workloads.suite import Scale

    def fresh_runner():
        return ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))

    summary, meta = fresh_runner().run_job("sad", "gmc", 1, False)
    assert summary["ipc"] > 0
    assert meta["simulated"] and meta["sim_events"] > 0
    # A second runner is served from the disk cache.
    summary2, meta2 = fresh_runner().run_job("sad", "gmc", 1, False)
    assert not meta2["simulated"] and summary2 == summary
    assert meta2["sim_events"] == meta["sim_events"]


def test_parallel_sweep_fills_runner_cache(tmp_path):
    from repro.analysis.runner import ExperimentRunner
    from repro.analysis.sweep import run_sweep
    from repro.workloads.suite import Scale

    r = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    report = run_sweep(r, ["sad"], ["gmc", "wg"], workers=2)
    assert report.n_done == 2 and report.n_failed == 0
    files = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    assert len(files) == 2  # one result per job, no other sweep state
    # The runner now serves results without simulating.
    assert r.mean("sad", "gmc")["ipc"] > 0
    assert r.last_outcome == "disk"
