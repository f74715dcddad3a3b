"""Tests for the experiment runner and drivers."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    DRIVERS,
    declared_sweeps,
    fig2_coalescing,
    fig3_divergence,
    fig8_ipc,
    table1_merb,
)
from repro.analysis import runner as runner_module
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import run_sweep
from repro.core.config import SimConfig
from repro.workloads.suite import Scale

from helpers import count_trace_builds, input_trace


def tiny_runner(**kw) -> ExperimentRunner:
    return ExperimentRunner(scale=Scale.TINY, seeds=(1,), **kw)


def sweep_declared(runner: ExperimentRunner, experiments) -> set[str]:
    """Sweep the runs ``experiments`` read in one inline sweep; their
    cache names."""
    sweeps = declared_sweeps(runner, experiments)
    if sweeps:
        run_sweep(sweeps, workers=0).raise_on_failure()
    return {
        sweep_runner.cache_name(bench, sched, seed, perfect)
        for sweep_runner, cells in sweeps
        for bench, sched, perfect in cells
        for seed in runner.seeds
    }


def one_input_per_suite(monkeypatch) -> None:
    """Shrink the irregular suite to sad and the regular one to
    streamcluster."""
    monkeypatch.setattr(
        ExperimentRunner, "irregular_benchmarks", staticmethod(lambda: ("sad",))
    )
    monkeypatch.setattr(
        ExperimentRunner, "regular_benchmarks",
        staticmethod(lambda: ("streamcluster",)),
    )


# -- runner ---------------------------------------------------------------------
def test_runner_rejects_bad_kind():
    with pytest.raises(ValueError):
        ExperimentRunner(kind="bogus")


def test_runner_memoizes_runs():
    r = tiny_runner()
    a, _meta = r.run_job("sad", "gmc", 1, False, input_trace(r, "sad"))
    b = r.run("sad", "gmc", seed=1)
    assert a is b  # cached object


def test_runner_disk_cache(tmp_path):
    r1 = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    a, _meta = r1.run_job("sad", "gmc", 1, False, input_trace(r1, "sad"))
    r2 = ExperimentRunner(scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path))
    b = r2.run("sad", "gmc", seed=1)
    assert a == b
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


def test_reading_an_unswept_run_names_it(tmp_path):
    """``run`` never simulates: a run in neither the memo nor the cache
    raises, naming the run."""
    r = tiny_runner(cache_dir=str(tmp_path))
    with pytest.raises(LookupError, match=r.cache_name("sad", "wg", 1)):
        r.mean("sad", "wg")


def test_runner_extras_present():
    r = tiny_runner()
    s, _meta = r.run_job("sad", "gmc", 1, False, input_trace(r, "sad"))
    for key in ("unit_group_frac", "activates", "reads", "writes", "ipc"):
        assert key in s
    assert s["fallback_reads"] == 0.0  # only the WG family has the fallback


def test_speedup_is_relative():
    r = tiny_runner()
    r.run_job("sad", "gmc", 1, False, input_trace(r, "sad"))
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
    trace = input_trace(base, "sad")
    a, _meta = base.run_job("sad", "sbwas", 1, False, trace)
    b, _meta = alpha.run_job("sad", "sbwas", 1, False, trace)
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


def test_config_hash_is_stable_and_sensitive():
    from repro.analysis.runner import config_hash

    assert config_hash(SimConfig()) == config_hash(SimConfig())
    tweaked = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, command_queue_depth=8)
    )
    assert config_hash(SimConfig()) != config_hash(tweaked)


# -- drivers ---------------------------------------------------------------------
def test_table1_driver():
    res = table1_merb()
    assert res.rows == [
        [1, 31], [2, 20], [3, 10], [4, 7], [5, 5], [6, 5], ["6-16", 5],
    ]
    assert "MERB" in res.table
    assert res.headline["single_bank_util_at_31"] == pytest.approx(0.62, abs=0.005)


@pytest.fixture(scope="module")
def swept_tiny(tmp_path_factory) -> ExperimentRunner:
    """A TINY seed-1 runner holding the runs Figs. 2, 3 and 8 read."""
    r = tiny_runner(cache_dir=str(tmp_path_factory.mktemp("cache")))
    sweep_declared(r, ["fig2", "fig3", "fig8"])
    return r


def test_fig2_fig3_shapes(swept_tiny):
    r = swept_tiny
    f2 = fig2_coalescing(r)
    assert len(f2.rows) == 12  # 11 benchmarks + MEAN
    assert 0.3 < f2.headline["frac_divergent"] < 0.8
    assert 3.0 < f2.headline["requests_per_load"] < 9.0
    f3 = fig3_divergence(r)
    assert f3.headline["last_over_first"] > 1.0
    assert 1.0 < f3.headline["channels_per_warp"] < 4.0


def test_fig8_normalized_to_gmc(swept_tiny):
    res = fig8_ipc(swept_tiny)
    assert res.rows[-1][0] == "GEOMEAN"
    assert "speedup_wg" in res.headline
    for row in res.rows[:-1]:
        assert row[1] > 0


@pytest.mark.parametrize("experiment", list(DRIVERS))
def test_each_experiment_reads_exactly_the_runs_it_declares(
    experiment, tmp_path, monkeypatch
):
    """Sweeping an experiment's declared runs into an empty cache fills
    exactly those entries, and the driver then renders from them alone,
    reading every one, with no simulation."""
    one_input_per_suite(monkeypatch)
    r = tiny_runner(cache_dir=str(tmp_path))
    declared = sweep_declared(r, [experiment])
    assert {p.name for p in tmp_path.iterdir()} == declared

    def no_simulation(*args):
        raise AssertionError(f"simulated {args}")

    monkeypatch.setattr(runner_module, "simulate", no_simulation)
    read = set()
    real_run = ExperimentRunner.run

    def run(self, bench, scheduler, seed, perfect=False):
        read.add(self.cache_name(bench, scheduler, seed, perfect))
        return real_run(self, bench, scheduler, seed, perfect)

    monkeypatch.setattr(ExperimentRunner, "run", run)
    assert DRIVERS[experiment].render(tiny_runner(cache_dir=str(tmp_path))).rows
    assert read == declared


def test_one_sweep_builds_each_declared_input_once(tmp_path, monkeypatch):
    """Every declared run, §VI-C's three SBWAS alphas included, sweeps
    in one call that builds each (benchmark, seed) trace once."""
    one_input_per_suite(monkeypatch)
    builds = count_trace_builds(monkeypatch, tmp_path)
    sweep_declared(tiny_runner(cache_dir=str(tmp_path / "cache")), list(DRIVERS))
    assert sorted(builds()) == [("sad", 1), ("streamcluster", 1)]
