"""Tests for the robust parallel sweep harness (repro.analysis.sweep)."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import sweep
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import _backoff_s, run_sweep
from repro.workloads.suite import Scale

from helpers import cache_entries, count_trace_builds, grid


def tiny_runner(tmp_path, seeds=(1,)) -> ExperimentRunner:
    return ExperimentRunner(scale=Scale.TINY, seeds=seeds, cache_dir=str(tmp_path))


def test_sweep_requires_cache_dir():
    r = ExperimentRunner(scale=Scale.TINY, seeds=(1,))
    with pytest.raises(ValueError):
        run_sweep(r, grid(["sad"], ["gmc"]))


def test_inline_sweep_fills_cache_with_one_entry_per_job(tmp_path):
    """The cache is the sweep's record of finished jobs: the directory
    holds one complete entry per job and nothing else."""
    r = tiny_runner(tmp_path)
    report = run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=0)
    assert report.n_done == 2 and report.n_failed == 0
    assert report.n_simulated == 2
    assert report.events_total > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        r.cache_name("sad", sched, 1) for sched in ("gmc", "wg")
    )
    for p in tmp_path.iterdir():
        assert json.loads(p.read_text())["ipc"] > 0


def test_interrupted_sweep_resumes_without_resimulating(tmp_path):
    """Rerunning a killed sweep re-simulates zero finished jobs: each
    finished job is served from its cache entry, with the event count
    and wall time of the simulation that produced it."""
    r = tiny_runner(tmp_path)
    # "Interrupted" run: only part of the grid completed before the kill.
    first = run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=0)
    assert first.n_simulated == 2
    mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    # Plain rerun over the full grid.
    second = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg", "wg-m"]), workers=0
    )
    assert second.n_cached == 2  # the finished jobs were not touched
    assert second.n_simulated == 1  # only the new cell ran
    assert second.n_failed == 0 and second.n_done == 3
    for p in tmp_path.iterdir():
        if p.name in mtimes:
            assert p.stat().st_mtime_ns == mtimes[p.name], p.name
    produced = {res.job.scheduler: res for res in first.results}
    for res in second.results:
        if not res.simulated:
            origin = produced[res.job.scheduler]
            assert res.sim_events == origin.sim_events > 0
            assert res.sim_wall_s == origin.sim_wall_s > 0
    # A third run is a complete no-op.
    third = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg", "wg-m"]), workers=0
    )
    assert third.n_cached == 3 and third.n_simulated == 0


def test_injected_crash_fails_only_that_job_and_is_retried(tmp_path, monkeypatch):
    """A job that raises fails only itself; one retry lets the sweep finish."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(
        tiny_runner(cache), grid(["sad"], ["gmc", "wg"]), workers=2, retries=1
    )
    assert report.n_failed == 0 and report.n_done == 2
    # Only the first job to start raised, and only it was resubmitted.
    assert sorted(r.retries for r in report.results) == [0, 1]
    # All cache entries are intact (no partial JSON from the failed attempt).
    assert sorted(cache_entries(cache)) == sorted(
        tiny_runner(cache).cache_name("sad", sched, 1) for sched in ("gmc", "wg")
    )


def test_injected_crash_without_retry_budget_is_isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(
        tiny_runner(cache), grid(["sad"], ["gmc", "wg"]), workers=2, retries=0
    )
    assert report.n_failed == 1  # only the job that raised
    assert report.n_done == 1  # the rest of the sweep completed
    assert "chaos: injected failure at job-start" in report.failed[0].error
    with pytest.raises(RuntimeError):
        report.raise_on_failure()
    # The failed job has no cache entry, so a rerun runs it (the !once
    # marker is claimed, so the second attempt runs clean).
    rerun = run_sweep(
        tiny_runner(cache), grid(["sad"], ["gmc", "wg"]), workers=0, retries=0
    )
    assert rerun.n_failed == 0
    assert rerun.n_cached == 1 and rerun.n_simulated == 1


def test_sweep_report_schema(tmp_path):
    r = tiny_runner(tmp_path)
    report = run_sweep(r, grid(["sad"], ["gmc"]), workers=0)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["schema_version"] == 1
    assert doc["jobs_total"] == 1 and doc["jobs_done"] == 1
    assert doc["config_hash"] == r.config_hash
    (job,) = doc["jobs"]
    assert job["bench"] == "sad" and job["scheduler"] == "gmc"
    assert job["status"] == "done" and job["simulated"]
    assert job["events_per_sec"] > 0
    assert doc["events_per_sec"] > 0


def test_rerun_simulates_job_whose_cache_entry_vanished(tmp_path):
    r = tiny_runner(tmp_path)
    run_sweep(r, grid(["sad"], ["gmc"]), workers=0)
    for p in tmp_path.iterdir():
        os.unlink(p)  # cache evicted
    report = run_sweep(tiny_runner(tmp_path), grid(["sad"], ["gmc"]), workers=0)
    assert report.n_cached == 0 and report.n_simulated == 1
    assert report.n_done == 1


def test_run_job_roundtrip(tmp_path):
    summary, meta = tiny_runner(tmp_path).run_job("sad", "gmc", 1, False)
    assert summary["ipc"] > 0
    assert meta["simulated"] and meta["sim_events"] > 0
    # A second runner is served from the disk cache.
    summary2, meta2 = tiny_runner(tmp_path).run_job("sad", "gmc", 1, False)
    assert not meta2["simulated"] and summary2 == summary
    assert meta2["sim_events"] == meta["sim_events"]


def test_parallel_sweep_fills_runner_cache(tmp_path):
    r = tiny_runner(tmp_path)
    report = run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=2)
    assert report.n_done == 2 and report.n_failed == 0
    files = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    assert len(files) == 2  # one result per job, no other sweep state
    # The runner reads what the worker processes wrote.
    assert r.mean("sad", "gmc")["ipc"] > 0


def test_progress_reports_counts_and_eta(tmp_path):
    lines = []
    r = tiny_runner(tmp_path)
    run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=0, progress=lines.append)
    assert any("1/2" in ln for ln in lines)
    assert any("2/2" in ln for ln in lines)
    assert "eta" in lines[0]
    assert "jobs done" in lines[-1]  # final summary line


# ---------------------------------------------------------------------------
# inline sweeps share the sweep's runner
# ---------------------------------------------------------------------------
def test_inline_sweep_builds_each_trace_once(tmp_path, monkeypatch):
    """Every scheduler of one (benchmark, seed) simulates one trace: the
    2 x 2 x 2 grid builds 4 traces, not one per job."""
    builds = count_trace_builds(monkeypatch)
    report = run_sweep(
        tiny_runner(tmp_path, seeds=(1, 2)), grid(["sad", "bfs"], ["gmc", "wg"]),
        workers=0,
    )
    assert report.n_done == 8 and report.n_simulated == 8
    assert sorted(builds) == [("bfs", 1), ("bfs", 2), ("sad", 1), ("sad", 2)]


def test_inline_sweep_releases_traces_after_their_last_job(tmp_path, monkeypatch):
    """The trace memo holds only (benchmark, seed)s that a job still to
    run reads, and nothing once the sweep returns."""
    r = tiny_runner(tmp_path, seeds=(1, 2))
    started, held = [], []
    real = r.run_job

    def run_job(bench, scheduler, seed, perfect):
        started.append((bench, seed))
        held.append({(b, s) for b, s, _p in r._traces})
        return real(bench, scheduler, seed, perfect)

    monkeypatch.setattr(r, "run_job", run_job)
    run_sweep(r, grid(["sad", "bfs"], ["gmc", "wg"]), workers=0)
    assert len(started) == 8
    for i, memo in enumerate(held):
        assert memo <= set(started[i:]), (i, memo)
    assert held[4] == set()  # sad's traces went with its last job
    assert r._traces == {}


def test_memo_hit_rewrites_a_deleted_cache_entry(tmp_path):
    """A job reported done has its cache entry on disk, even when the
    reused runner serves the job from its result memo."""
    r = tiny_runner(tmp_path)
    run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=0)
    victim = tmp_path / r.cache_name("sad", "gmc", 1)
    published = victim.read_text()
    victim.unlink()
    report = run_sweep(r, grid(["sad"], ["gmc", "wg"]), workers=0)
    assert report.n_failed == 0 and report.n_simulated == 0
    assert report.n_cached == 2 and report.n_done == 2
    for res in report.results:
        assert (tmp_path / r.cache_name("sad", res.job.scheduler, 1)).exists()
    assert victim.read_text() == published


@pytest.mark.parametrize("workers", [0, 1])
def test_unreadable_cache_entry_is_a_miss(tmp_path, workers):
    """A truncated cache entry is simulated again and rewritten, like a
    missing one, instead of aborting the sweep before any job runs."""
    run_sweep(tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg"]), workers=0)
    first = cache_entries(tmp_path)
    victim = tmp_path / tiny_runner(tmp_path).cache_name("sad", "gmc", 1)
    victim.write_text('{"ipc": 1.')
    report = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg"]), workers=workers
    )
    assert report.n_failed == 0
    assert report.n_simulated == 1 and report.n_cached == 1
    (redone,) = [r for r in report.results if r.simulated]
    assert redone.job.scheduler == "gmc"
    assert cache_entries(tmp_path) == first


# ---------------------------------------------------------------------------
# failed jobs
# ---------------------------------------------------------------------------
def test_exhausted_retries_record_error_type(tmp_path, monkeypatch):
    """When retries run out, the failed job reports what broke, and a
    plain rerun simulates it from zero."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(tiny_runner(cache), grid(["sad"], ["wg"]), workers=0, retries=0)
    assert report.n_failed == 1
    (failed,) = report.failed
    assert failed.error_type == "ChaosError"
    assert failed.to_dict()["error_type"] == "ChaosError"
    assert list(cache.iterdir()) == []  # nothing cached: a rerun runs it
    second = run_sweep(tiny_runner(cache), grid(["sad"], ["wg"]), workers=0)
    assert second.n_failed == 0 and second.n_done == 1
    (res,) = second.results
    assert res.simulated and res.retries == 0 and res.error_type == ""
    ref = tmp_path / "ref"
    monkeypatch.delenv("REPRO_CHAOS")
    run_sweep(tiny_runner(ref), grid(["sad"], ["wg"]), workers=0)
    assert cache_entries(cache) == cache_entries(ref)


# ---------------------------------------------------------------------------
# per-job timeout supervision and the shared retry policy
# ---------------------------------------------------------------------------
def test_hung_job_is_killed_at_timeout_not_abandoned(tmp_path, monkeypatch):
    """Regression (the abandoned-worker bug): a job that hung past its
    timeout used to have its future cancelled while the worker process
    kept running — and kept its pool slot — indefinitely.  The per-job
    supervisor must SIGKILL the worker at the deadline."""
    monkeypatch.setenv("REPRO_CHAOS", "job-start=stall:60")
    t0 = time.time()
    report = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc"]),
        workers=1, timeout_s=1.0, retries=0,
    )
    elapsed = time.time() - t0
    assert report.n_failed == 1
    assert report.failed[0].error_type == "TimeoutError"
    assert "timeout after 1s" in report.failed[0].error
    assert elapsed < 30  # nowhere near the 60s hang
    assert multiprocessing.active_children() == []  # worker actually dead
    (failed,) = report.results
    assert failed.status == "failed"
    assert failed.to_dict()["error_type"] == "TimeoutError"
    assert list(tmp_path.iterdir()) == []  # nothing cached: a rerun runs it


def test_worker_killed_without_result_is_detected(tmp_path, monkeypatch):
    """A worker that dies without reporting (OOM killer) is classified
    as a crash, not a hang — and does not poison the rest of the sweep."""
    monkeypatch.setenv("REPRO_CHAOS", "job-start=kill")
    report = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc"]),
        workers=1, timeout_s=60.0, retries=0,
    )
    assert report.n_failed == 1
    assert report.failed[0].error_type == "WorkerCrashed"
    assert "died without reporting" in report.failed[0].error


def test_crashed_worker_is_retried_once_chaos_passes(tmp_path, monkeypatch):
    """``!once`` chaos: the first attempt is SIGKILLed, the retry runs
    clean — proving the supervisor's retry path end to end."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=kill!once")
    report = run_sweep(
        tiny_runner(tmp_path / "cache"), grid(["sad"], ["gmc"]),
        workers=1, timeout_s=60.0, retries=1,
    )
    assert report.n_failed == 0 and report.n_done == 1
    (res,) = report.results
    assert res.retries == 1  # the kill cost exactly one attempt


def test_killed_worker_without_timeout_spares_the_other_jobs(tmp_path, monkeypatch):
    """Regression: the default multi-worker sweep (no ``timeout_s``) used
    a shared process pool, where one SIGKILLed worker broke every
    in-flight job and every retry.  Each job now has its own process, so
    the kill costs only its own job one attempt."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=kill!once")
    report = run_sweep(
        tiny_runner(tmp_path / "cache"), grid(["sad"], ["gmc", "wg"]),
        workers=2, retries=1,
    )
    assert report.n_done == 2 and report.n_failed == 0
    assert sorted(r.retries for r in report.results) == [0, 1]
    # The retried job's result is bit-identical to an unbroken inline run.
    monkeypatch.delenv("REPRO_CHAOS")
    ref = tmp_path / "ref"
    run_sweep(tiny_runner(ref), grid(["sad"], ["gmc", "wg"]), workers=0)
    assert cache_entries(tmp_path / "cache") == cache_entries(ref)


def test_sigkill_worker_mid_sweep_completes_bit_identical(tmp_path):
    """End to end through ``repro scenario run``: the first job's worker
    is SIGKILLed, the sweep still finishes every job with the kill
    costing exactly one retry, and the results are bit-identical to an
    inline run.  The CLI runs in a subprocess so the kill arm never
    reaches this test process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CHAOS", "REPRO_CHAOS_MARK_DIR")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_HISTORY"] = "0"
    env["REPRO_CHAOS"] = "job-start=kill!once"
    env["REPRO_CHAOS_MARK_DIR"] = str(tmp_path / "marks")
    spec = tmp_path / "grid.yaml"
    spec.write_text(
        "spec_version: 1\nname: sigkill-grid\npreset: gddr5\n"
        "workload:\n  kind: synthetic\n  benchmarks: [sad]\n"
        "schedulers: [gmc, wg]\nscale: tiny\nseeds: [1]\n"
    )
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", "run", str(spec),
         "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
         "--out", str(out)],
        env=env, timeout=120, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path / "marks")  # the kill really fired
    report = json.loads(out.read_text())["sweep"]
    assert report["jobs_failed"] == 0 and report["jobs_simulated"] == 2
    assert sorted(job["retries"] for job in report["jobs"]) == [0, 1]
    ref = tmp_path / "ref"
    run_sweep(tiny_runner(ref), grid(["sad"], ["gmc", "wg"]), workers=0)
    assert cache_entries(tmp_path / "cache") == cache_entries(ref)


def test_finished_job_is_never_dispatched(tmp_path, monkeypatch):
    """A rerun serves finished jobs from their cache entries without
    starting a worker: with every job start armed to SIGKILL, the rerun
    of a finished sweep still fails nothing."""
    run_sweep(tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg"]), workers=0)
    monkeypatch.setenv("REPRO_CHAOS", "job-start=kill")
    report = run_sweep(
        tiny_runner(tmp_path), grid(["sad"], ["gmc", "wg"]), workers=2, retries=0
    )
    assert report.n_failed == 0
    assert report.n_cached == 2 and report.n_simulated == 0


def test_runner_survives_pickling(tmp_path):
    """The ``spawn`` and ``forkserver`` start methods pickle a worker's
    arguments, the runner among them: a trace-kind runner must come back
    with the same settings and cache identity."""
    from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

    trace = KernelTrace("ext", [
        WarpTrace(0, w, [Segment(3, MemOp(False, [w * 4096 + i * 128 for i in range(32)]))])
        for w in range(4)
    ])
    trace.save_json(str(tmp_path / "ext.trace.json"))
    r = ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), kind="trace", cache_dir=str(tmp_path / "c"),
        trace_paths={"ext": str(tmp_path / "ext.trace.json")},
    )
    clone = pickle.loads(pickle.dumps(r))
    assert clone.config == r.config and clone.config_hash == r.config_hash
    assert (clone.kind, clone.scale, clone.seeds) == (r.kind, r.scale, r.seeds)
    assert clone.trace_paths == r.trace_paths
    assert clone.cache_name("ext", "gmc", 1) == r.cache_name("ext", "gmc", 1)


def test_backoff_is_deterministic_and_bounded():
    job_id = "synthetic/sad/gmc/TINY/s1/p0/0123456789ab"
    for attempt in range(1, 12):
        raw = min(30.0, 0.25 * 2.0 ** (attempt - 1))
        delay = _backoff_s(attempt, job_id)
        assert delay == _backoff_s(attempt, job_id)  # pure (job, attempt)
        assert raw * 0.5 <= delay <= raw  # jitter only shaves, never inflates
    # The schedule is pinned: reruns of a sweep wait exactly this long.
    assert _backoff_s(1, job_id) == 0.24391214098099367
    assert _backoff_s(9, job_id) == 18.493705028149755


def test_backoff_jitter_decorrelates_jobs():
    delays = {_backoff_s(3, f"job-{i}") for i in range(16)}
    assert len(delays) == 16  # distinct jobs, distinct schedules


def test_retry_policy_paces_local_retries(tmp_path, monkeypatch):
    """The seeded backoff is honored by both local dispatch paths
    (inline and per-job processes), with the deterministic delay visible
    in the progress log.  Inline, the retried job and the next scheduler
    still share one trace build, and the cache entries equal those of an
    uninterrupted sweep."""
    monkeypatch.setattr(sweep, "_BACKOFF_BASE_S", 0.4)
    monkeypatch.setattr(sweep, "_BACKOFF_JITTER", 0.0)  # exact delay
    builds = count_trace_builds(monkeypatch)
    for workers in (0, 2):
        cache = tmp_path / f"w{workers}"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / f"marks{workers}"))
        monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
        lines = []
        t0 = time.time()
        report = run_sweep(
            tiny_runner(cache), grid(["sad"], ["gmc", "wg"]),
            workers=workers, retries=1,
            progress=lines.append,
        )
        elapsed = time.time() - t0
        assert report.n_failed == 0 and report.n_done == 2
        assert sorted(r.retries for r in report.results) == [0, 1]
        assert elapsed >= 0.4  # the delay was actually slept, not skipped
        assert any("retrying" in ln and "0.40s" in ln for ln in lines)
        if workers == 0:
            assert builds == [("sad", 1)]
    monkeypatch.delenv("REPRO_CHAOS")
    ref = tmp_path / "ref"
    run_sweep(tiny_runner(ref), grid(["sad"], ["gmc", "wg"]), workers=0)
    assert cache_entries(tmp_path / "w0") == cache_entries(ref)
