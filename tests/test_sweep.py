"""Tests for the robust parallel sweep harness (repro.analysis.sweep)."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import runner as runner_module
from repro.analysis import sweep
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import MANIFEST_NAME, _backoff_s, load_manifest, run_sweep
from repro.workloads.suite import Scale


def tiny_runner(tmp_path, seeds=(1,)) -> ExperimentRunner:
    return ExperimentRunner(scale=Scale.TINY, seeds=seeds, cache_dir=str(tmp_path))


def test_sweep_requires_cache_dir():
    r = ExperimentRunner(scale=Scale.TINY, seeds=(1,))
    with pytest.raises(ValueError):
        run_sweep(r, ["sad"], ["gmc"])


def test_inline_sweep_fills_cache_and_manifest(tmp_path):
    r = tiny_runner(tmp_path)
    report = run_sweep(r, ["sad"], ["gmc", "wg"], workers=0)
    assert report.n_done == 2 and report.n_failed == 0
    assert report.n_simulated == 2
    assert report.events_total > 0
    manifest = load_manifest(str(tmp_path))
    assert len(manifest) == 2
    assert all(e["status"] == "done" for e in manifest.values())
    # Every published cache entry is complete, parseable JSON.
    for p in tmp_path.iterdir():
        if p.suffix == ".json" and p.name != MANIFEST_NAME:
            assert json.loads(p.read_text())["ipc"] > 0


def test_interrupted_sweep_resumes_without_resimulating(tmp_path):
    """A killed-then-resumed sweep re-simulates zero finished jobs."""
    r = tiny_runner(tmp_path)
    # "Interrupted" run: only part of the grid completed before the kill.
    first = run_sweep(r, ["sad"], ["gmc", "wg"], workers=0)
    assert first.n_simulated == 2
    mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    # Resumed run over the full grid.
    r2 = tiny_runner(tmp_path)
    second = run_sweep(r2, ["sad"], ["gmc", "wg", "wg-m"], workers=0, resume=True)
    assert second.n_skipped == 2  # the finished jobs were not touched
    assert second.n_simulated == 1  # only the new cell ran
    assert second.n_failed == 0
    for p in tmp_path.iterdir():
        if p.name in mtimes and p.name != MANIFEST_NAME:
            assert p.stat().st_mtime_ns == mtimes[p.name], p.name
    # A third resume is a complete no-op.
    third = run_sweep(
        tiny_runner(tmp_path), ["sad"], ["gmc", "wg", "wg-m"], workers=0, resume=True
    )
    assert third.n_skipped == 3 and third.n_simulated == 0


def test_without_resume_manifest_is_ignored_but_cache_still_hits(tmp_path):
    r = tiny_runner(tmp_path)
    run_sweep(r, ["sad"], ["gmc"], workers=0)
    again = run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0)
    assert again.n_done == 1
    assert again.n_simulated == 0 and again.n_cached == 1


def test_injected_crash_fails_only_that_job_and_is_retried(tmp_path, monkeypatch):
    """A job that raises fails only itself; one retry lets the sweep finish."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(
        tiny_runner(cache), ["sad"], ["gmc", "wg"], workers=2, retries=1
    )
    assert report.n_failed == 0 and report.n_done == 2
    # Only the first job to start raised, and only it was resubmitted.
    assert sorted(r.retries for r in report.results) == [0, 1]
    # All cache entries are intact (no partial JSON from the failed attempt).
    manifest = load_manifest(str(cache))
    assert all(e["status"] == "done" for e in manifest.values())


def test_injected_crash_without_retry_budget_is_isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(
        tiny_runner(cache), ["sad"], ["gmc", "wg"], workers=2, retries=0
    )
    assert report.n_failed == 1  # only the job that raised
    assert report.n_done == 1  # the rest of the sweep completed
    assert "chaos: injected failure at job-start" in report.failed[0].error
    with pytest.raises(RuntimeError):
        report.raise_on_failure()
    # The failed job is NOT marked done: a resume retries it (the !once
    # marker is claimed, so the second attempt runs clean).
    resumed = run_sweep(
        tiny_runner(cache), ["sad"], ["gmc", "wg"], workers=0,
        retries=0, resume=True,
    )
    assert resumed.n_failed == 0
    assert resumed.n_skipped == 1 and resumed.n_simulated == 1


def test_bench_report_schema(tmp_path):
    r = tiny_runner(tmp_path)
    report = run_sweep(r, ["sad"], ["gmc"], workers=0)
    out = tmp_path / "BENCH_sweep.json"
    report.write_bench(str(out))
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["jobs_total"] == 1 and doc["jobs_done"] == 1
    assert doc["config_hash"] == r.config_hash
    (job,) = doc["jobs"]
    assert job["bench"] == "sad" and job["scheduler"] == "gmc"
    assert job["status"] == "done" and job["simulated"]
    assert job["events_per_sec"] > 0
    assert doc["events_per_sec"] > 0


def test_corrupt_manifest_is_tolerated(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{not json")
    r = tiny_runner(tmp_path)
    report = run_sweep(r, ["sad"], ["gmc"], workers=0, resume=True)
    assert report.n_done == 1
    assert load_manifest(str(tmp_path))  # rewritten in valid form


def test_resume_reruns_job_whose_cache_entry_vanished(tmp_path):
    r = tiny_runner(tmp_path)
    run_sweep(r, ["sad"], ["gmc"], workers=0)
    for p in tmp_path.iterdir():
        if p.name != MANIFEST_NAME:
            os.unlink(p)  # cache evicted behind the manifest's back
    report = run_sweep(
        tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0, resume=True
    )
    assert report.n_skipped == 0 and report.n_done == 1


def test_progress_reports_counts_and_eta(tmp_path):
    lines = []
    r = tiny_runner(tmp_path)
    run_sweep(r, ["sad"], ["gmc", "wg"], workers=0, progress=lines.append)
    assert any("1/2" in ln for ln in lines)
    assert any("2/2" in ln for ln in lines)
    assert "eta" in lines[0]
    assert "jobs done" in lines[-1]  # final summary line


# ---------------------------------------------------------------------------
# checkpoint-backed resume (repro.guardrails integration)
# ---------------------------------------------------------------------------
def ckpt_runner(path) -> ExperimentRunner:
    return ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), cache_dir=str(path),
        checkpoint_period_ns=500.0,
    )


def cache_entries(path) -> dict[str, dict]:
    """Cache JSONs keyed by name, minus wall-clock (non-deterministic)."""
    return {
        p.name: {
            k: v
            for k, v in json.loads(p.read_text()).items()
            if k != "sim_wall_s"
        }
        for p in path.iterdir()
        if p.suffix == ".json" and p.name != MANIFEST_NAME
    }


def spy_checkpoint_loads(monkeypatch) -> list[str]:
    """Record the path of every snapshot an inline job resumes from."""
    loads = []
    real = runner_module.load_checkpoint

    def load(path, *args, **kwargs):
        system = real(path, *args, **kwargs)
        loads.append(path)
        return system

    monkeypatch.setattr(runner_module, "load_checkpoint", load)
    return loads


def test_mid_run_crash_retry_resumes_from_checkpoint(tmp_path, monkeypatch):
    """A job that dies mid-simulation, right after a periodic snapshot
    landed, is retried from that snapshot, and the resumed result is
    identical to an uninterrupted run."""
    work = tmp_path / "work"
    ref = tmp_path / "ref"
    work.mkdir(), ref.mkdir()
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "checkpoint-saved=raise!once")
    loads = spy_checkpoint_loads(monkeypatch)
    report = run_sweep(ckpt_runner(work), ["sad"], ["wg"], workers=0, retries=1)
    assert report.n_failed == 0 and report.n_done == 1
    (res,) = report.results
    assert res.retries == 1  # the first attempt failed after its first snapshot
    r = ckpt_runner(work)
    ckpt = r.checkpoint_path("sad", "wg", 1, False)
    assert loads == [ckpt]  # the retry resumed from it, not from zero
    # The checkpoint is consumed (deleted) once the job lands.
    assert not os.path.exists(ckpt)
    # An uninterrupted reference sweep produces the exact same cache entry.
    monkeypatch.delenv("REPRO_CHAOS")
    run_sweep(ckpt_runner(ref), ["sad"], ["wg"], workers=0)
    assert cache_entries(work) == cache_entries(ref)


def test_exhausted_retries_record_error_type_and_checkpoint(tmp_path, monkeypatch):
    """When retries run out, the manifest records what broke and where the
    last snapshot lives — and a later resume finishes from that snapshot."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "checkpoint-saved=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(ckpt_runner(cache), ["sad"], ["wg"], workers=0, retries=0)
    assert report.n_failed == 1
    entry = next(iter(load_manifest(str(cache)).values()))
    assert entry["status"] == "failed"
    assert entry["error_type"] == "ChaosError"
    assert entry["checkpoint"] and os.path.exists(entry["checkpoint"])
    # Resume: the snapshot finishes the job without restarting from zero.
    loads = spy_checkpoint_loads(monkeypatch)
    second = run_sweep(
        ckpt_runner(cache), ["sad"], ["wg"], workers=0, resume=True
    )
    assert second.n_failed == 0 and second.n_done == 1
    assert loads == [entry["checkpoint"]]
    entry = next(iter(load_manifest(str(cache)).values()))
    assert entry["status"] == "done" and entry["error_type"] == ""


def test_pre_run_crash_records_error_type_without_checkpoint(tmp_path, monkeypatch):
    """A crash before the simulation starts has no snapshot to point at."""
    monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / "marks"))
    monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
    cache = tmp_path / "cache"
    report = run_sweep(ckpt_runner(cache), ["sad"], ["wg"], workers=0, retries=0)
    assert report.n_failed == 1
    entry = next(iter(load_manifest(str(cache)).values()))
    assert entry["status"] == "failed"
    assert entry["error_type"] == "ChaosError"
    assert entry["checkpoint"] == ""


# ---------------------------------------------------------------------------
# manifest reconciliation against an edited grid
# ---------------------------------------------------------------------------
def test_manifest_marks_orphans_stale_and_revives_them(tmp_path):
    """Regression: rows for jobs no longer in the grid used to survive in
    the manifest forever.  A still-cache-backed orphan is now marked
    ``stale`` and turns live again when its job returns to the grid."""
    run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0)
    # Grid edit: gmc dropped, wg added.  The gmc cache entry survives.
    run_sweep(tiny_runner(tmp_path), ["sad"], ["wg"], workers=0)
    manifest = load_manifest(str(tmp_path))
    gmc_id = next(k for k in manifest if "/gmc/" in k)
    wg_id = next(k for k in manifest if "/wg/" in k)
    assert manifest[gmc_id]["stale"] is True
    assert "stale" not in manifest[wg_id]
    # The job returns: stale cleared, resume skips both without rerunning.
    report = run_sweep(
        tiny_runner(tmp_path), ["sad"], ["gmc", "wg"], workers=0, resume=True
    )
    assert report.n_skipped == 2 and report.n_simulated == 0
    manifest = load_manifest(str(tmp_path))
    assert all("stale" not in e for e in manifest.values())


def test_manifest_prunes_orphans_without_cache_backing(tmp_path):
    """An orphaned row whose cache entry is gone too is pruned outright."""
    run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0)
    for p in tmp_path.iterdir():
        if p.name != MANIFEST_NAME:
            os.unlink(p)  # cache evicted behind the manifest's back
    lines = []
    run_sweep(
        tiny_runner(tmp_path), ["sad"], ["wg"], workers=0,
        progress=lines.append,
    )
    manifest = load_manifest(str(tmp_path))
    assert not any("/gmc/" in k for k in manifest)
    assert any("pruned" in ln for ln in lines)


def test_manifest_reconciles_config_change_orphans(tmp_path):
    """Changing the config re-keys every job id; the old rows are marked
    stale (their cache entries remain valid for the old config)."""
    from repro.core.config import SimConfig

    run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0)
    other = ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), cache_dir=str(tmp_path),
        config=SimConfig(use_l1=False),
    )
    run_sweep(other, ["sad"], ["gmc"], workers=0)
    manifest = load_manifest(str(tmp_path))
    assert len(manifest) == 2
    stale = [e for e in manifest.values() if e.get("stale")]
    assert len(stale) == 1  # the old config's row, cache still on disk


def test_manifest_prunes_malformed_rows(tmp_path):
    run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0)
    path = tmp_path / MANIFEST_NAME
    doc = json.loads(path.read_text())
    doc["jobs"]["bogus-row"] = "not a dict"
    path.write_text(json.dumps(doc))
    run_sweep(tiny_runner(tmp_path), ["sad"], ["gmc"], workers=0, resume=True)
    assert "bogus-row" not in load_manifest(str(tmp_path))


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
        tiny_runner(tmp_path), ["sad"], ["gmc"],
        workers=1, timeout_s=1.0, retries=0,
    )
    elapsed = time.time() - t0
    assert report.n_failed == 1
    assert report.failed[0].error_type == "TimeoutError"
    assert "timeout after 1s" in report.failed[0].error
    assert elapsed < 30  # nowhere near the 60s hang
    assert multiprocessing.active_children() == []  # worker actually dead
    entry = next(iter(load_manifest(str(tmp_path)).values()))
    assert entry["status"] == "failed" and entry["error_type"] == "TimeoutError"


def test_worker_killed_without_result_is_detected(tmp_path, monkeypatch):
    """A worker that dies without reporting (OOM killer) is classified
    as a crash, not a hang — and does not poison the rest of the sweep."""
    monkeypatch.setenv("REPRO_CHAOS", "job-start=kill")
    report = run_sweep(
        tiny_runner(tmp_path), ["sad"], ["gmc"],
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
        tiny_runner(tmp_path / "cache"), ["sad"], ["gmc"],
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
        tiny_runner(tmp_path / "cache"), ["sad"], ["gmc", "wg"],
        workers=2, retries=1,
    )
    assert report.n_done == 2 and report.n_failed == 0
    assert sorted(r.retries for r in report.results) == [0, 1]
    # The retried job's result is bit-identical to an unbroken inline run.
    monkeypatch.delenv("REPRO_CHAOS")
    ref = tmp_path / "ref"
    run_sweep(tiny_runner(ref), ["sad"], ["gmc", "wg"], workers=0)
    assert cache_entries(tmp_path / "cache") == cache_entries(ref)


def test_sigkill_worker_mid_sweep_completes_bit_identical(tmp_path):
    """End to end through ``repro sweep``: the first job's worker is
    SIGKILLed, the sweep still finishes every job with the kill costing
    exactly one retry, and the results are bit-identical to an inline
    run.  The CLI runs in a subprocess so the kill arm never reaches
    this test process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CHAOS", "REPRO_CHAOS_MARK_DIR")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_HISTORY"] = "0"
    env["REPRO_CHAOS"] = "job-start=kill!once"
    env["REPRO_CHAOS_MARK_DIR"] = str(tmp_path / "marks")
    bench = tmp_path / "BENCH_sweep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--scale", "tiny",
         "--benchmarks", "sad", "--schedulers", "gmc", "wg", "--seeds", "1",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
         "--bench-out", str(bench)],
        env=env, timeout=120, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path / "marks")  # the kill really fired
    report = json.loads(bench.read_text())
    assert report["jobs_failed"] == 0 and report["jobs_simulated"] == 2
    assert sorted(job["retries"] for job in report["jobs"]) == [0, 1]
    ref = tmp_path / "ref"
    run_sweep(tiny_runner(ref), ["sad"], ["gmc", "wg"], workers=0)
    assert cache_entries(tmp_path / "cache") == cache_entries(ref)


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
    in the progress log."""
    monkeypatch.setattr(sweep, "_BACKOFF_BASE_S", 0.4)
    monkeypatch.setattr(sweep, "_BACKOFF_JITTER", 0.0)  # exact delay
    for workers in (0, 2):
        cache = tmp_path / f"w{workers}"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CHAOS_MARK_DIR", str(tmp_path / f"marks{workers}"))
        monkeypatch.setenv("REPRO_CHAOS", "job-start=raise!once")
        lines = []
        t0 = time.time()
        report = run_sweep(
            tiny_runner(cache), ["sad"], ["gmc"],
            workers=workers, retries=1,
            progress=lines.append,
        )
        elapsed = time.time() - t0
        assert report.n_failed == 0 and report.n_done == 1
        (res,) = report.results
        assert res.retries == 1
        assert elapsed >= 0.4  # the delay was actually slept, not skipped
        assert any("retrying" in ln and "0.40s" in ln for ln in lines)
