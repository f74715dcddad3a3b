"""Tests for the experiment runner and drivers."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    DRIVERS,
    fig2_coalescing,
    fig3_divergence,
    fig8_ipc,
    prefetch,
    table1_merb,
)
from repro.analysis import runner as runner_module
from repro.analysis.runner import ExperimentRunner
from repro.core.config import SimConfig
from repro.idealized import perfect_coalescing
from repro.workloads.profiles import ALL_PROFILES
from repro.workloads.suite import Scale
from repro.workloads.synthetic import synthetic_trace

from helpers import count_trace_builds


def tiny_runner(**kw) -> ExperimentRunner:
    return ExperimentRunner(scale=Scale.TINY, seeds=(1,), **kw)


# -- runner ---------------------------------------------------------------------
def test_runner_rejects_bad_kind():
    with pytest.raises(ValueError):
        ExperimentRunner(kind="bogus")


def test_runner_memoizes_runs():
    r = tiny_runner()
    a = r.run("sad", "gmc", seed=1)
    b = r.run("sad", "gmc", seed=1)
    assert a is b  # cached object


def test_runner_disk_cache(tmp_path):
    r1 = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    a = r1.run("sad", "gmc", seed=1)
    r2 = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    b = r2.run("sad", "gmc", seed=1)
    assert a == b
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


def test_runner_extras_present():
    r = tiny_runner()
    s = r.run("sad", "gmc", seed=1)
    for key in ("unit_group_frac", "activates", "reads", "writes", "ipc"):
        assert key in s
    assert s["fallback_reads"] == 0.0  # only the WG family has the fallback


def test_perfect_trace_derives_from_the_memoized_base(monkeypatch):
    """The idealized trace reuses the base build and leaves it intact;
    releasing a (benchmark, seed) drops both."""
    builds = count_trace_builds(monkeypatch)
    r = tiny_runner()
    base = r.trace("sad", 1)
    perfect = r.trace("sad", 1, perfect=True)
    assert builds == [("sad", 1)]
    fresh = synthetic_trace(
        ALL_PROFILES["sad"], r.config, seed=1, scale=r.scale.factor
    )
    assert base == fresh
    assert perfect == perfect_coalescing(fresh, r.config.dram_org.line_bytes)
    r.release_traces("sad", 1)
    assert r._traces == {}


def test_speedup_is_relative():
    r = tiny_runner()
    assert r.speedup("sad", "gmc") == pytest.approx(1.0)


def test_distinct_configs_get_distinct_cache_entries(tmp_path):
    """Regression: two different SimConfigs must never share a cache entry.

    Pre-fix, the cache was keyed by a manual tag, so two runners with
    different configs (and no tag) silently read each other's results.
    Content-hash keys make the collision impossible.
    """
    base = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    alpha = ExperimentRunner(
        config=dataclasses.replace(
            SimConfig(), mc=dataclasses.replace(SimConfig().mc, sbwas_alpha=0.25)
        ),
        scale=Scale.TINY,
        seeds=(1,),
        cache_dir=str(tmp_path),
    )
    assert base.config_hash != alpha.config_hash
    a = base.run("sad", "sbwas", seed=1)
    b = alpha.run("sad", "sbwas", seed=1)
    assert a["ipc"] != b["ipc"]  # the alpha change is visible, not masked
    names = [p.name for p in tmp_path.iterdir() if p.suffix == ".json"]
    assert len(names) == 2
    assert any(base.config_hash in n for n in names)
    assert any(alpha.config_hash in n for n in names)
    # A fresh runner with the tweaked config reloads its own entry.
    alpha2 = ExperimentRunner(
        config=alpha.config, scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path)
    )
    assert alpha2.run("sad", "sbwas", seed=1) == b
    assert alpha2.last_outcome == "disk"


def test_config_hash_is_stable_and_sensitive():
    from repro.analysis.runner import config_hash

    assert config_hash(SimConfig()) == config_hash(SimConfig())
    tweaked = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, command_queue_depth=8)
    )
    assert config_hash(SimConfig()) != config_hash(tweaked)


def test_atomic_write_json_leaves_no_temp_files(tmp_path):
    from repro.analysis.runner import atomic_write_json

    path = tmp_path / "sub" / "x.json"
    atomic_write_json(str(path), {"a": 1})
    atomic_write_json(str(path), {"a": 2})  # overwrite in place
    import json

    assert json.loads(path.read_text()) == {"a": 2}
    assert [p.name for p in path.parent.iterdir()] == ["x.json"]


# -- drivers ---------------------------------------------------------------------
def test_table1_driver():
    res = table1_merb()
    assert res.rows[0] == [1, 31]
    assert res.rows[1] == [2, 20]
    assert "MERB" in res.table
    assert res.headline["single_bank_util_at_31"] == pytest.approx(0.62, abs=0.005)


def test_fig2_fig3_shapes():
    r = tiny_runner()
    f2 = fig2_coalescing(r)
    assert len(f2.rows) == 12  # 11 benchmarks + MEAN
    assert 0.3 < f2.headline["frac_divergent"] < 0.8
    assert 3.0 < f2.headline["requests_per_load"] < 9.0
    f3 = fig3_divergence(r)
    assert f3.headline["last_over_first"] > 1.0
    assert 1.0 < f3.headline["channels_per_warp"] < 4.0


def test_fig8_normalized_to_gmc():
    r = tiny_runner()
    res = fig8_ipc(r, schedulers=("wg",))
    assert res.rows[-1][0] == "GEOMEAN"
    assert "speedup_wg" in res.headline
    for row in res.rows[:-1]:
        assert row[1] > 0


def test_prefetch_fills_exactly_the_runs_the_drivers_read(tmp_path, monkeypatch):
    """After ``prefetch``, every driver but §VI-C (whose SBWAS runs use
    per-alpha configs) reads all its runs from the cache, and the
    prefetch ran nothing else."""

    def patched_runner() -> ExperimentRunner:
        r = tiny_runner(cache_dir=str(tmp_path))
        monkeypatch.setattr(r, "irregular_benchmarks", lambda: ("sad",))
        monkeypatch.setattr(r, "regular_benchmarks", lambda: ("streamcluster",))
        return r

    prefetch(patched_runner())
    # sad: gmc, the WG family, wafcfs, zero-div and perfect gmc;
    # streamcluster: gmc and wg-w.
    assert len(list(tmp_path.iterdir())) == 8 + 2
    r = patched_runner()

    def no_simulation(*args):
        raise AssertionError(f"simulated {args}")

    monkeypatch.setattr(runner_module, "simulate", no_simulation)
    for rid, driver in DRIVERS.items():
        if rid != "sec6c":
            assert driver(r).rows, rid
