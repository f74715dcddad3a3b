"""Distributed sweep backend: retry policy, lease protocol, job store,
quarantine, manifest compaction, and cluster-vs-local bit-identity.

Process-killing fault injection lives in ``tests/test_cluster_chaos.py``;
this file proves the protocol building blocks and the happy/failure
paths that do not require SIGKILLing anybody.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import (
    MANIFEST_NAME,
    SweepJob,
    cluster_job_records,
    cluster_run_meta,
    load_manifest,
    run_sweep,
)
from repro.cluster.lease import Lease
from repro.cluster.retry import RetryPolicy
from repro.cluster.store import ClusterError, JobStore, compact_manifest, job_slug
from repro.cluster.worker import ClusterWorker
from repro.workloads.suite import Scale


def tiny_runner(path, **kw) -> ExperimentRunner:
    return ExperimentRunner(
        scale=Scale.TINY, seeds=(1,), cache_dir=str(path), **kw
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


# ----------------------------------------------------------------------
# RetryPolicy (satellite: one policy for local pool and cluster)
# ----------------------------------------------------------------------
def test_retry_policy_is_deterministic_and_bounded():
    p = RetryPolicy(base_s=0.25, cap_s=30.0, multiplier=2.0, jitter=0.5, seed=7)
    for attempt in range(1, 12):
        raw = min(30.0, 0.25 * 2.0 ** (attempt - 1))
        d1 = p.delay_s(attempt, token="core/sad/wg/tiny/s1")
        d2 = p.delay_s(attempt, token="core/sad/wg/tiny/s1")
        assert d1 == d2  # pure function of (seed, token, attempt)
        assert raw * 0.5 <= d1 <= raw  # jitter only shaves, never inflates
    assert p.delay_s(0) == 0.0 and p.delay_s(-3) == 0.0


def test_retry_policy_jitter_decorrelates_jobs():
    p = RetryPolicy(seed=0)
    delays = {p.delay_s(3, token=f"job-{i}") for i in range(16)}
    assert len(delays) == 16  # distinct tokens, distinct schedules


def test_retry_policy_seed_changes_schedule_zero_jitter_does_not():
    a, b = RetryPolicy(seed=1), RetryPolicy(seed=2)
    assert a.delay_s(2, token="x") != b.delay_s(2, token="x")
    flat = RetryPolicy(jitter=0.0, base_s=0.5)
    assert flat.delay_s(1, token="x") == 0.5
    assert flat.delay_s(3, token="y") == 2.0


def test_retry_policy_roundtrip_and_validation():
    p = RetryPolicy(base_s=0.1, cap_s=5.0, multiplier=3.0, jitter=0.25, seed=9)
    assert RetryPolicy.from_dict(p.to_dict()) == p
    assert RetryPolicy.from_dict({}) == RetryPolicy()
    with pytest.raises(ValueError):
        RetryPolicy(base_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# lease protocol
# ----------------------------------------------------------------------
def lease_at(tmp_path, expiry_s=10.0) -> Lease:
    return Lease(str(tmp_path / "leases" / "job.lease"), expiry_s)


def test_lease_claim_read_release(tmp_path):
    lease = lease_at(tmp_path)
    assert lease.read() is None and not lease.expired()
    assert lease.try_claim("w1", attempt=1)
    info = lease.read()
    assert info.owner == "w1" and info.attempt == 1 and not info.corrupt
    assert not lease.expired(info)
    # duplicate claim loses cleanly while the lease is live
    assert not lease.try_claim("w2", attempt=1)
    assert lease.read().owner == "w1"
    # release by a non-owner is a no-op; by the owner it clears the slot
    lease.release("w2")
    assert lease.read().owner == "w1"
    lease.release("w1")
    assert lease.read() is None


def test_lease_renew_verifies_ownership_and_preserves_claim_time(tmp_path):
    lease = lease_at(tmp_path)
    assert lease.try_claim("w1")
    first = lease.read()
    assert lease.renew("w1")
    renewed = lease.read()
    assert renewed.heartbeat >= first.heartbeat
    assert renewed.claimed == first.claimed  # original claim ts survives
    assert not lease.renew("w2")  # not the owner
    lease.release("w1")
    assert not lease.renew("w1")  # nothing to renew


def test_expired_lease_is_reclaimed(tmp_path):
    lease = lease_at(tmp_path, expiry_s=0.0)  # everything is instantly stale
    assert lease.try_claim("dead", attempt=1)
    assert lease.expired()
    assert lease.try_claim("rescuer", attempt=2)
    info = lease.read()
    assert info.owner == "rescuer" and info.attempt == 2
    # the stale owner's renewal now reports the takeover
    assert not lease.renew("dead")


def test_corrupt_lease_falls_back_to_mtime_and_ages_out(tmp_path):
    from repro.cluster.chaos import corrupt_file

    lease = lease_at(tmp_path, expiry_s=10.0)
    assert lease.try_claim("w1")
    corrupt_file(lease.path)
    info = lease.read()
    assert info.corrupt and info.owner == ""
    # a corrupt lease still holds the slot until it expires...
    assert not lease.expired(info)
    assert not lease.try_claim("w2")
    # ...then expires on the mtime schedule and is reclaimable
    old = info.heartbeat - 60.0
    os.utime(lease.path, (old, old))
    assert lease.expired()
    assert lease.try_claim("w2", attempt=2)
    assert lease.read().owner == "w2"


def test_truncated_lease_behaves_like_corrupt(tmp_path):
    from repro.cluster.chaos import truncate_file

    lease = lease_at(tmp_path)
    assert lease.try_claim("w1")
    truncate_file(lease.path)
    assert lease.read().corrupt
    assert not lease.renew("w1")  # owner cannot prove ownership any more


def _steal_proc(path: str, owner: str, out_dir: str, go: str) -> None:
    while not os.path.exists(go):  # start line: maximize the actual race
        pass
    lease = Lease(path, expiry_s=5.0)
    if lease.try_claim(owner, attempt=2):
        with open(os.path.join(out_dir, owner), "w") as fh:
            fh.write("won")


def test_concurrent_steal_of_expired_lease_has_one_winner(tmp_path):
    """The rename-based steal: N racing reclaimers, exactly one claim."""
    lease = lease_at(tmp_path, expiry_s=5.0)
    assert lease.try_claim("dead")
    # Backdate the heartbeat: the dead worker's lease is stale, but the
    # winner's fresh claim will NOT be (so losers cannot re-steal it).
    doc = json.load(open(lease.path))
    doc["heartbeat"] = doc["claimed"] = time.time() - 60.0
    with open(lease.path, "w") as fh:
        json.dump(doc, fh)
    assert lease.expired()
    out = tmp_path / "winners"
    out.mkdir()
    go = str(tmp_path / "go")
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(
            target=_steal_proc, args=(lease.path, f"thief{i}", str(out), go)
        )
        for i in range(8)
    ]
    for p in procs:
        p.start()
    open(go, "w").close()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    winners = sorted(os.listdir(out))
    assert len(winners) == 1  # never zero, never two
    assert Lease(lease.path, 10.0).read().owner == winners[0]


# ----------------------------------------------------------------------
# job store
# ----------------------------------------------------------------------
def make_store(tmp_path, cache_name="cache", **meta_kw) -> JobStore:
    cache = tmp_path / cache_name
    cache.mkdir(exist_ok=True)
    runner = tiny_runner(cache)
    meta = cluster_run_meta(runner, **meta_kw)
    store = JobStore.create(str(tmp_path / "run"), meta)
    jobs = [
        SweepJob(
            kind="synthetic", bench="sad", scheduler=sched, scale="TINY",
            seed=1, perfect=False, config_hash=runner.config_hash,
        )
        for sched in ("gmc", "wg")
    ]
    store.ensure_jobs(cluster_job_records(jobs))
    return store


def test_store_create_is_idempotent_but_rejects_other_configs(tmp_path):
    store = make_store(tmp_path)
    meta = dict(store.meta)
    again = JobStore.create(store.root, {k: v for k, v in meta.items()
                                         if k not in ("schema_version", "created")})
    assert again.meta["created"] == meta["created"]  # kept, not re-keyed
    with pytest.raises(ClusterError, match="refusing to enqueue"):
        JobStore.create(store.root, {**meta, "config_hash": "deadbeef"})


def test_store_open_rejects_non_run_directories(tmp_path):
    with pytest.raises(ClusterError, match="no readable run.json"):
        JobStore.open(str(tmp_path))
    (tmp_path / "run.json").write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ClusterError, match="schema"):
        JobStore.open(str(tmp_path))
    (tmp_path / "run.json").write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(ClusterError, match="missing"):
        JobStore.open(str(tmp_path))


def test_store_heals_corrupt_job_records(tmp_path):
    from repro.cluster.chaos import corrupt_file, truncate_file

    store = make_store(tmp_path)
    ids = store.job_ids()
    assert len(ids) == 2
    records = [store.job_record(j) for j in ids]
    paths = [os.path.join(store.jobs_dir, job_slug(j) + ".json") for j in ids]
    corrupt_file(paths[0])
    truncate_file(paths[1])
    assert store.job_ids() == []  # unreadable records drop out of the grid
    healed = store.ensure_jobs(records)
    assert healed == 2
    assert store.job_ids() == ids
    assert store.ensure_jobs(records) == 0  # idempotent once healthy


def test_store_state_machine(tmp_path):
    store = make_store(tmp_path, retries=5)
    job = store.job_ids()[0]
    assert store.state(job) == "pending"
    lease = store.lease(job)
    assert lease.try_claim("w1", attempt=1)
    assert store.state(job) == "running"
    # a failure + release puts the job in its backoff window...
    store.record_failure(job, {"owner": "w1", "ts": time.time()})
    lease.release("w1")
    assert store.state(job) == "backoff"
    # ...which ends after the policy delay
    later = store.next_eligible_s(job) + 0.001
    assert store.state(job, now=later) == "pending"
    store.publish_outcome(job, {"status": "done"})
    assert store.state(job) == "done"
    other = store.job_ids()[1]
    store.quarantine_mark(other, {"error": "poison"})
    assert store.state(other) == "quarantined"
    assert store.all_terminal()
    snap = store.snapshot()
    assert snap == {"done": [job], "quarantined": [other]}


def test_store_outcome_corruption_is_healed_once(tmp_path):
    from repro.cluster.chaos import corrupt_file

    store = make_store(tmp_path)
    job = store.job_ids()[0]
    assert store.publish_outcome(job, {"status": "done"})
    assert not store.publish_outcome(job, {"status": "done"})  # first wins
    path = os.path.join(store.outcomes_dir, job_slug(job) + ".json")
    corrupt_file(path)
    assert store.outcome(job) is None  # moved aside, job claimable again
    assert not os.path.exists(path)
    assert store.state(job) == "pending"
    assert store.publish_outcome(job, {"status": "done"})  # re-earned


def _failure_proc(root: str, job: str, owner: str, n: int) -> None:
    store = JobStore.open(root)
    for i in range(n):
        store.record_failure(job, {"owner": owner, "attempt": i})


def test_store_concurrent_failure_records_all_land(tmp_path):
    """Exclusive-create sequence numbering: no shared counter to corrupt."""
    store = make_store(tmp_path)
    job = store.job_ids()[0]
    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_failure_proc, args=(store.root, job, f"w{i}", 5))
        for i in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    fails = store.failures(job)
    assert len(fails) == 20
    assert sorted(f["seq"] for f in fails) == list(range(1, 21))


def test_failure_numbering_skips_inflight_temp_files(tmp_path):
    """An in-flight publisher's temp file is not a record: counting it
    would number the next record past a free slot and leave a gap."""
    store = make_store(tmp_path)
    job = store.job_ids()[0]
    directory = store._failure_dir(job)
    os.makedirs(directory)
    open(os.path.join(directory, ".tmp-inflight.json"), "w").close()
    assert store.record_failure(job, {"owner": "w0"}) == 1
    assert [f["seq"] for f in store.failures(job)] == [1]


def test_compact_manifest_folds_outcomes_and_quarantine(tmp_path):
    store = make_store(tmp_path)
    done, poisoned = store.job_ids()
    store.publish_outcome(done, {
        "status": "done", "simulated": True, "wall_s": 1.0,
        "sim_events": 10.0, "sim_wall_s": 0.5, "retries": 1,
        "error": "", "error_type": "", "checkpoint": "", "worker": "w1",
    })
    store.quarantine_mark(poisoned, {"error": "boom", "failures": 3})
    manifest = compact_manifest(store)
    assert manifest[done]["status"] == "done"
    assert manifest[done]["worker"] == "w1"
    assert manifest[done]["retries"] == 1
    assert manifest[poisoned]["status"] == "failed"
    assert manifest[poisoned]["error_type"] == "Quarantined"
    assert manifest[poisoned]["error"] == "boom"
    # and it landed in the classic on-disk manifest in the cache dir
    on_disk = load_manifest(store.meta["cache_dir"])
    assert set(on_disk) == {done, poisoned}


# ----------------------------------------------------------------------
# worker failure handling: terminal fail and poison quarantine
# ----------------------------------------------------------------------
def poison_store(tmp_path, **meta_kw) -> JobStore:
    """A store whose single job can never run (bench does not exist)."""
    cache = tmp_path / "cache"
    cache.mkdir(exist_ok=True)
    meta = cluster_run_meta(
        tiny_runner(cache),
        policy=RetryPolicy(base_s=0.01, cap_s=0.02),
        **meta_kw,
    )
    store = JobStore.create(str(tmp_path / "run"), meta)
    store.ensure_jobs([{
        "id": "core/nosuch/gmc/tiny/s1", "kind": "synthetic",
        "bench": "nosuch", "scheduler": "gmc", "scale": "TINY",
        "seed": 1, "perfect": False,
        "config_hash": meta["config_hash"],
    }])
    return store


def test_worker_exhausts_retries_into_failed_outcome(tmp_path):
    store = poison_store(tmp_path, retries=1, quarantine_owners=99)
    stats = ClusterWorker(store, worker_id="solo").drain()
    assert stats.failed_attempts == 2  # initial + one retry
    assert stats.done == 0
    outcome = store.outcome("core/nosuch/gmc/tiny/s1")
    assert outcome["status"] == "failed"
    assert outcome["error_type"] and outcome["error"]
    assert outcome["worker"] == "solo"
    assert len(store.failures("core/nosuch/gmc/tiny/s1")) == 2
    assert store.all_terminal()


def test_distinct_owner_failures_quarantine_poison_job(tmp_path):
    """Quarantine keys on *distinct* owners: one flaky host cannot poison
    a job, but a config that fails everywhere is frozen fleet-wide."""
    store = poison_store(tmp_path, retries=99, quarantine_owners=2)
    job = "core/nosuch/gmc/tiny/s1"
    a = ClusterWorker(store, worker_id="host-a").drain(max_jobs=1)
    assert a.failed_attempts == 1 and a.quarantined == 0
    assert store.quarantined(job) is None  # one owner is not enough
    b = ClusterWorker(store, worker_id="host-b").drain()
    assert b.quarantined == 1
    mark = store.quarantined(job)
    assert mark["owners"] == ["host-a", "host-b"]
    assert store.state(job) == "quarantined"
    # a third worker has nothing to claim: poison costs the fleet nothing
    c = ClusterWorker(store, worker_id="host-c").drain()
    assert c.claims == 0
    assert compact_manifest(store)[job]["error_type"] == "Quarantined"


def test_same_owner_failures_do_not_quarantine(tmp_path):
    store = poison_store(tmp_path, retries=2, quarantine_owners=2)
    stats = ClusterWorker(store, worker_id="only-host").drain()
    assert stats.failed_attempts == 3
    assert stats.quarantined == 0
    assert store.quarantined("core/nosuch/gmc/tiny/s1") is None
    assert store.outcome("core/nosuch/gmc/tiny/s1")["status"] == "failed"


# ----------------------------------------------------------------------
# run_sweep(cluster_dir=...): same API, same results, distributed drain
# ----------------------------------------------------------------------
def test_cluster_sweep_is_bit_identical_to_inline(tmp_path):
    work, ref = tmp_path / "work", tmp_path / "ref"
    work.mkdir(), ref.mkdir()
    report = run_sweep(
        tiny_runner(work), ["sad"], ["gmc", "wg"],
        workers=1, cluster_dir=str(tmp_path / "cluster"), history=False,
    )
    assert report.n_done == 2 and report.n_failed == 0
    assert all(r.worker for r in report.results)  # provenance stamped
    inline = run_sweep(
        tiny_runner(ref), ["sad"], ["gmc", "wg"], workers=0, history=False
    )
    assert inline.n_done == 2
    assert cache_entries(work) == cache_entries(ref)
    manifest = load_manifest(str(work))
    assert len(manifest) == 2
    assert all(e["status"] == "done" and e["worker"] for e in manifest.values())


def test_cluster_sweep_resume_skips_finished_jobs(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    run_sweep(
        tiny_runner(cache), ["sad"], ["gmc"],
        workers=1, cluster_dir=str(tmp_path / "c1"), history=False,
    )
    second = run_sweep(
        tiny_runner(cache), ["sad"], ["gmc", "wg"],
        workers=1, cluster_dir=str(tmp_path / "c2"),
        resume=True, history=False,
    )
    assert second.n_skipped == 1  # the finished job never re-enqueued
    assert second.n_simulated == 1
    assert second.n_failed == 0


def test_cluster_sweep_without_cluster_dir_is_unchanged(tmp_path):
    """Degradation contract: no cluster dir -> the local pool, and no
    cluster run directory materializes anywhere near the cache."""
    report = run_sweep(
        tiny_runner(tmp_path), ["sad"], ["gmc"], workers=2, history=False
    )
    assert report.n_done == 1
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == []
