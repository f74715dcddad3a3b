"""Robust parallel sweep harness over :class:`ExperimentRunner`.

``run_sweep`` executes a (benchmark x scheduler x seed) grid with one
supervised process per job and makes the sweep safe to run at scale:

* **harvest on completion** — results are collected as workers finish,
  with a live progress/ETA line per completion;
* **bounded retry** — a worker exception or death fails only that job,
  which is resubmitted up to ``retries`` times before being recorded as
  failed (the rest of the sweep always completes);
* **resume manifest** — every completion is appended to a manifest JSON
  in the cache directory; ``resume=True`` skips jobs the manifest marks
  done (whose cache entry still exists), so an interrupted sweep picks
  up exactly where it died with zero re-simulation.  Rows for jobs that
  are no longer in the grid (the grid was edited, the config changed)
  are reconciled on every sweep: still cache-backed rows are marked
  ``stale`` (they become live again if the grid returns), dead rows are
  pruned — orphans cannot accumulate across grid edits;
* **atomic cache writes** — workers publish results via temp-file +
  rename (see :func:`repro.analysis.runner.atomic_write_json`), so
  concurrent workers and readers never see partial JSON;
* **checkpoint resume** — when the runner has ``checkpoint_period_ns``
  set, each job writes periodic engine snapshots
  (:mod:`repro.guardrails.checkpoint`); a crashed or timed-out job's
  retry resumes from its last snapshot instead of re-simulating from
  zero, and a job that fails even its retries records the exception
  type and the snapshot path in the manifest for the next sweep;
* **real timeout enforcement** — a job running past ``timeout_s`` has
  its process **killed**, not abandoned, and a worker that dies without
  reporting (OOM-killed, SIGKILL) is detected by its exit code; both
  are retried like any other failure (:func:`_run_procs`);
* **seeded retry backoff** — retries wait out an exponential,
  deterministically-jittered delay (:class:`repro.cluster.RetryPolicy`)
  instead of re-firing instantly; the same policy type drives the
  distributed backend, so local and cluster drains of one grid back off
  identically;
* **distributed drain** — ``cluster_dir=...`` switches dispatch to the
  lease-based shared-filesystem backend (:mod:`repro.cluster`): the
  grid is enqueued as per-job records, ``workers - 1`` independent
  agent processes plus this orchestrator claim and drain them, and the
  manifest is compacted from per-job outcomes.

The returned :class:`SweepReport` carries per-job wall-clock and
events/sec and serializes to the machine-readable ``BENCH_sweep.json``
(:meth:`SweepReport.write_bench`) that tracks sweep throughput over time.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.runner import ExperimentRunner, atomic_write_json, run_one_job
from repro.analysis.schema import SWEEP_SCHEMA
from repro.cluster.retry import RetryPolicy

__all__ = [
    "JobResult",
    "MANIFEST_NAME",
    "SweepJob",
    "SweepReport",
    "cluster_job_records",
    "cluster_run_meta",
    "load_manifest",
    "run_sweep",
]

MANIFEST_NAME = "sweep-manifest.json"
_MANIFEST_SCHEMA = 1
_POLL_S = 0.05  # supervisor tick while no running job has reported


@dataclass(frozen=True)
class SweepJob:
    """One cell of the sweep grid (identity includes the config hash)."""

    kind: str
    bench: str
    scheduler: str
    scale: str  # Scale name
    seed: int
    perfect: bool
    config_hash: str

    @property
    def job_id(self) -> str:
        return (
            f"{self.kind}/{self.bench}/{self.scheduler}/{self.scale}"
            f"/s{self.seed}/p{int(self.perfect)}/{self.config_hash}"
        )


@dataclass
class JobResult:
    """Outcome of one sweep job."""

    job: SweepJob
    status: str  # "done" | "failed" | "skipped"
    simulated: bool = False  # False: served from cache (or skipped)
    wall_s: float = 0.0  # worker wall-clock for this job
    sim_events: float = 0.0  # engine events of the producing simulation
    sim_wall_s: float = 0.0  # wall-clock of the producing simulation
    retries: int = 0
    error: str = ""
    error_type: str = ""  # exception class name on failure
    checkpoint: str = ""  # last snapshot of a failed job (resume point)
    worker: str = ""  # cluster worker id that produced this result

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.job.job_id,
            "bench": self.job.bench,
            "scheduler": self.job.scheduler,
            "seed": self.job.seed,
            "perfect": self.job.perfect,
            "status": self.status,
            "simulated": self.simulated,
            "wall_s": round(self.wall_s, 4),
            "sim_events": self.sim_events,
            "sim_wall_s": round(self.sim_wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "retries": self.retries,
            "error": self.error,
            "error_type": self.error_type,
            "checkpoint": self.checkpoint,
            "worker": self.worker,
        }


class SweepReport:
    """Aggregate outcome of one ``run_sweep`` call."""

    def __init__(
        self,
        results: list[JobResult],
        *,
        scale: str,
        kind: str,
        config_hash: str,
        workers: int,
        wall_s: float,
        scenario_name: str = "",
        scenario_hash: str = "",
    ) -> None:
        self.results = results
        self.scale = scale
        self.kind = kind
        self.config_hash = config_hash
        self.workers = workers
        self.wall_s = wall_s
        # Set when the sweep came from a scenario spec (repro.scenarios):
        # stamped into the history record so runs group by scenario.
        self.scenario_name = scenario_name
        self.scenario_hash = scenario_hash

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def n_done(self) -> int:
        return self._count("done")

    @property
    def n_failed(self) -> int:
        return self._count("failed")

    @property
    def n_skipped(self) -> int:
        return self._count("skipped")

    @property
    def n_simulated(self) -> int:
        return sum(1 for r in self.results if r.simulated)

    @property
    def n_cached(self) -> int:
        """Jobs that completed by hitting an existing cache entry."""
        return sum(1 for r in self.results if r.status == "done" and not r.simulated)

    @property
    def failed(self) -> list[JobResult]:
        return [r for r in self.results if r.status == "failed"]

    @property
    def events_total(self) -> float:
        return sum(r.sim_events for r in self.results if r.simulated)

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulation throughput of this sweep invocation."""
        return self.events_total / self.wall_s if self.wall_s > 0 else 0.0

    def raise_on_failure(self) -> None:
        if self.failed:
            lines = ", ".join(
                f"{r.job.job_id} ({r.error.splitlines()[0] if r.error else '?'})"
                for r in self.failed
            )
            raise RuntimeError(f"{self.n_failed} sweep job(s) failed: {lines}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SWEEP_SCHEMA,
            "scale": self.scale,
            "kind": self.kind,
            "config_hash": self.config_hash,
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 4),
            "jobs_total": len(self.results),
            "jobs_done": self.n_done,
            "jobs_failed": self.n_failed,
            "jobs_skipped": self.n_skipped,
            "jobs_simulated": self.n_simulated,
            "jobs_cached": self.n_cached,
            "events_total": self.events_total,
            "events_per_sec": round(self.events_per_sec, 1),
            "jobs": [r.to_dict() for r in self.results],
        }

    def write_bench(self, path: str) -> None:
        """Emit the machine-readable sweep benchmark (BENCH_sweep.json)."""
        atomic_write_json(path, self.to_dict())

    def format(self) -> str:
        parts = [
            f"{self.n_done}/{len(self.results)} jobs done",
            f"{self.n_simulated} simulated",
            f"{self.n_cached} cache hits",
        ]
        if self.n_skipped:
            parts.append(f"{self.n_skipped} resumed (skipped)")
        if self.n_failed:
            parts.append(f"{self.n_failed} FAILED")
        rate = self.events_per_sec
        return (
            f"[sweep] {', '.join(parts)} in {self.wall_s:.1f}s"
            + (f" ({rate / 1000.0:.0f}k events/s)" if rate else "")
        )


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def _manifest_path(cache_dir: str, name: str = MANIFEST_NAME) -> str:
    return os.path.join(cache_dir, name)


def load_manifest(cache_dir: str, name: str = MANIFEST_NAME) -> dict:
    """{job_id: entry} from the sweep manifest (empty if absent/corrupt)."""
    path = _manifest_path(cache_dir, name)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    if doc.get("schema_version") != _MANIFEST_SCHEMA:
        return {}
    return doc.get("jobs", {})


def _save_manifest(cache_dir: str, jobs: dict, name: str = MANIFEST_NAME) -> None:
    atomic_write_json(
        _manifest_path(cache_dir, name),
        {"schema_version": _MANIFEST_SCHEMA, "jobs": jobs},
    )


def _cache_file_for(cache_dir: str, job_id: str) -> Optional[str]:
    """Cache path a manifest row's summary lives at, derived from its id.

    Returns None when the path cannot be derived (malformed id, or a
    ``trace``-kind row whose cache name carries a content fingerprint the
    id does not) — callers must then keep the row rather than prune it.
    """
    parts = job_id.split("/")
    if len(parts) != 7 or parts[0] == "trace":
        return None
    return os.path.join(cache_dir, "-".join(parts) + ".json")


def _reconcile_manifest(
    cache_dir: str, manifest: dict, grid_ids: set[str]
) -> tuple[dict, int, int, bool]:
    """Drop or stale-mark manifest rows that are not in the current grid.

    A row whose job is no longer swept but whose cache entry survives is
    marked ``stale: true`` (it turns live again the moment its job
    reappears); a row whose cache entry is gone too is pruned outright.
    Rows in the grid get any old ``stale`` mark cleared.  Returns
    ``(manifest, n_pruned, n_marked_stale, changed)``.
    """
    out: dict = {}
    n_pruned = n_marked = 0
    changed = False
    for job_id, entry in manifest.items():
        if not isinstance(entry, dict):
            changed = True  # malformed row: prune
            n_pruned += 1
            continue
        if job_id in grid_ids:
            if entry.pop("stale", None):
                changed = True
            out[job_id] = entry
            continue
        cache_file = _cache_file_for(cache_dir, job_id)
        if cache_file is None or os.path.exists(cache_file):
            if not entry.get("stale"):
                entry = {**entry, "stale": True}
                n_marked += 1
                changed = True
            out[job_id] = entry
        else:
            n_pruned += 1
            changed = True
    return out, n_pruned, n_marked, changed


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    runner: ExperimentRunner,
    benchmarks: Sequence[str],
    schedulers: Sequence[str],
    *,
    perfect: bool = False,
    workers: int = 4,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    manifest_name: str = MANIFEST_NAME,
    history: bool = True,
    scenario_name: str = "",
    scenario_hash: str = "",
    retry_policy: Optional[RetryPolicy] = None,
    cluster_dir: Optional[str] = None,
) -> SweepReport:
    """Run the (benchmark x scheduler x seed) grid; returns a report.

    ``workers >= 1`` runs up to that many jobs at once, each in its own
    supervised process; ``timeout_s=None`` means no deadline.
    ``workers <= 0`` executes inline (no processes, no timeout) — same
    retry/manifest semantics, useful under pytest and for debugging.
    Jobs communicate exclusively through the runner's ``cache_dir``,
    which is required.

    ``retry_policy`` spaces retry attempts (seeded exponential backoff,
    docs/distributed.md); the default policy retries quickly enough for
    tests while still decorrelating concurrent failers.

    ``cluster_dir`` switches to the fault-tolerant distributed backend:
    the grid is enqueued into a lease-based job store at that path and
    drained by ``workers - 1`` spawned agent processes plus this one
    (any number of additional ``repro cluster worker`` processes — on
    this host or any host sharing the filesystem — may join or leave at
    will).  The report, manifest, caching, and history behavior are
    identical to a local run; ``timeout_s`` is superseded by lease
    expiry there.

    The finished report is appended to the run-history store by default
    (docs/observability.md); ``history=False`` or ``REPRO_HISTORY=0``
    skips ingestion.
    """
    if runner.cache_dir is None:
        raise ValueError("a parallel sweep requires a cache_dir")
    os.makedirs(runner.cache_dir, exist_ok=True)

    jobs: list[SweepJob] = []
    seen: set[str] = set()
    for bench in benchmarks:
        for sched in schedulers:
            for seed in runner.seeds:
                job = SweepJob(
                    kind=runner.kind,
                    bench=bench,
                    scheduler=sched,
                    scale=runner.scale.name,
                    seed=seed,
                    perfect=perfect,
                    config_hash=runner.config_hash,
                )
                if job.job_id not in seen:
                    seen.add(job.job_id)
                    jobs.append(job)

    say = progress if progress is not None else (lambda _msg: None)

    manifest = load_manifest(runner.cache_dir, manifest_name)
    manifest, n_pruned, n_marked, changed = _reconcile_manifest(
        runner.cache_dir, manifest, seen
    )
    if changed:
        _save_manifest(runner.cache_dir, manifest, manifest_name)
    if n_pruned or n_marked:
        say(
            f"[sweep] manifest: {n_pruned} orphaned row(s) pruned, "
            f"{n_marked} marked stale (grid changed since last sweep)"
        )
    results: list[JobResult] = []
    todo: list[SweepJob] = []
    for job in jobs:
        entry = manifest.get(job.job_id)
        cache_file = os.path.join(
            runner.cache_dir,
            runner.cache_name(job.bench, job.scheduler, job.seed, job.perfect),
        )
        if (
            resume
            and entry is not None
            and entry.get("status") == "done"
            and os.path.exists(cache_file)
        ):
            results.append(
                JobResult(
                    job,
                    "skipped",
                    simulated=False,
                    sim_events=entry.get("sim_events", 0.0),
                    sim_wall_s=entry.get("sim_wall_s", 0.0),
                )
            )
        else:
            todo.append(job)

    t0 = time.time()
    total = len(jobs)

    def record(res: JobResult) -> None:
        results.append(res)
        manifest[res.job.job_id] = {
            "status": res.status,
            "simulated": res.simulated,
            "wall_s": round(res.wall_s, 4),
            "sim_events": res.sim_events,
            "sim_wall_s": round(res.sim_wall_s, 4),
            "retries": res.retries,
            "error": res.error,
            "error_type": res.error_type,
            "checkpoint": res.checkpoint,
            "worker": res.worker,
        }
        _save_manifest(runner.cache_dir, manifest, manifest_name)
        finished = len(results)
        elapsed = time.time() - t0
        live = finished - len([r for r in results if r.status == "skipped"])
        eta = (elapsed / live) * (total - finished) if live else 0.0
        n_failed = sum(1 for r in results if r.status == "failed")
        say(
            f"[sweep] {finished}/{total} "
            f"({n_failed} failed) | {elapsed:.0f}s elapsed, eta {eta:.0f}s"
        )

    def payload(job: SweepJob) -> tuple:
        return (
            runner.config,
            job.scale,
            runner.kind,
            job.bench,
            job.scheduler,
            job.seed,
            job.perfect,
            runner.cache_dir,
            runner.checkpoint_period_ns,
            runner.trace_paths or None,
        )

    policy = retry_policy if retry_policy is not None else RetryPolicy()

    def retry_or_fail(
        job: SweepJob, attempt: int, wall_s: float, error: str, error_type: str
    ) -> Optional[float]:
        """Backoff seconds before ``job``'s next attempt, or None once its
        retries are exhausted.

        An exhausted job is recorded as failed.  Its manifest entry names
        the exception type and — when the job was checkpointing — its last
        snapshot, so a later sweep (or a human) can resume it from where
        it died instead of from zero.
        """
        if attempt < retries:
            delay = policy.delay_s(attempt + 1, token=job.job_id)
            say(f"[sweep] retrying {job.job_id} in {delay:.2f}s: {error}")
            return delay
        ckpt = runner.checkpoint_path(job.bench, job.scheduler, job.seed, job.perfect)
        record(
            JobResult(
                job,
                "failed",
                wall_s=wall_s,
                retries=attempt,
                error=error,
                error_type=error_type,
                checkpoint=ckpt if ckpt and os.path.exists(ckpt) else "",
            )
        )
        return None

    if todo and cluster_dir is not None:
        _run_cluster(
            cluster_dir, runner, todo, workers, retries, policy,
            record, say, manifest_name,
        )
    elif todo and workers <= 0:
        _run_inline(todo, payload, record, retry_or_fail)
    elif todo:
        _run_procs(todo, payload, workers, timeout_s, record, retry_or_fail, say)

    report = SweepReport(
        results,
        scale=runner.scale.name,
        kind=runner.kind,
        config_hash=runner.config_hash,
        workers=workers,
        wall_s=time.time() - t0,
        scenario_name=scenario_name,
        scenario_hash=scenario_hash,
    )
    say(report.format())
    if history:
        from repro.history import record_run

        record = record_run(
            "sweep", report.to_dict(), config_hash=runner.config_hash
        )
        if record is not None:
            say(f"[sweep] history record {record.record_id} appended")
    return report


def _done_result(job: SweepJob, meta: dict, attempt: int) -> JobResult:
    return JobResult(
        job,
        "done",
        simulated=meta["simulated"],
        wall_s=meta["wall_s"],
        sim_events=meta["sim_events"],
        sim_wall_s=meta["sim_wall_s"],
        retries=attempt,
    )


def _run_inline(todo, payload, record, retry_or_fail) -> None:
    """Run each job in this process, one after another (no timeout)."""
    for job in todo:
        attempt = 0
        while True:
            t_start = time.time()
            try:
                _key, _summary, meta = run_one_job(payload(job))
            except Exception as exc:
                delay = retry_or_fail(
                    job, attempt, time.time() - t_start, str(exc), type(exc).__name__
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
                continue
            record(_done_result(job, meta, attempt))
            break


def _proc_entry(conn, job_payload) -> None:
    """Child entry for _run_procs: report (ok, value) through the pipe."""
    try:
        key_summary_meta = run_one_job(job_payload)
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        try:
            conn.send(("err", (str(exc), type(exc).__name__)))
        finally:
            conn.close()
        return
    conn.send(("ok", key_summary_meta))
    conn.close()


def _run_procs(todo, payload, workers, timeout_s, record, retry_or_fail, say) -> None:
    """Per-job supervised processes: one dead worker fails only its job.

    Every job is its own ``multiprocessing.Process``, at most
    ``workers`` at a time.  A worker that dies *without* reporting a
    result (OOM killer, SIGKILL) is detected by its exit code; one past
    ``timeout_s`` (if set) is SIGKILLed and its slot reclaimed at once.
    Either way the job is retried under the backoff policy, and every
    other job runs on untouched — unlike a shared executor, where one
    dead worker breaks every in-flight job and every later retry.
    """
    ctx = multiprocessing.get_context()
    queue: list = [(job, 0, 0.0) for job in todo]  # (job, attempt, ready_t)
    running: dict = {}  # proc -> (job, attempt, t_start, recv_conn)

    def finish(proc) -> None:
        _job, _attempt, _t, recv = running.pop(proc)
        recv.close()
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)

    def settle(job, attempt, t_start, error, error_type) -> None:
        delay = retry_or_fail(job, attempt, time.time() - t_start, error, error_type)
        if delay is not None:
            queue.append((job, attempt + 1, time.time() + delay))

    while queue or running:
        now = time.time()
        for item in [q for q in queue if q[2] <= now]:
            if len(running) >= max(1, workers):
                break
            queue.remove(item)
            job, attempt, _ready = item
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_proc_entry, args=(send, payload(job)))
            proc.daemon = True
            proc.start()
            send.close()  # child's end; parent sees EOF if the child dies
            running[proc] = (job, attempt, time.time(), recv)

        progressed = False
        for proc in list(running):
            job, attempt, t_start, recv = running[proc]
            message = None
            if recv.poll(0):
                try:
                    message = recv.recv()
                except (EOFError, OSError):
                    message = None  # died mid-send: treated as a crash
            if message is not None:
                finish(proc)
                progressed = True
                status, value = message
                if status == "ok":
                    _key, _summary, meta = value
                    record(_done_result(job, meta, attempt))
                else:
                    error, error_type = value
                    settle(job, attempt, t_start, error, error_type)
            elif not proc.is_alive():
                exitcode = proc.exitcode
                finish(proc)
                progressed = True
                settle(
                    job, attempt, t_start,
                    f"worker died without reporting (exit code {exitcode})",
                    "WorkerCrashed",
                )
            elif timeout_s is not None and time.time() - t_start > timeout_s:
                proc.kill()  # actually terminate — never abandon the job
                finish(proc)
                progressed = True
                say(f"[sweep] killed {job.job_id} after {timeout_s:.0f}s")
                settle(
                    job, attempt, t_start,
                    f"timeout after {timeout_s:.0f}s", "TimeoutError",
                )
        if not progressed:
            time.sleep(_POLL_S)


# ----------------------------------------------------------------------
# distributed (cluster) dispatch
# ----------------------------------------------------------------------
def cluster_job_records(jobs: Sequence[SweepJob]) -> list[dict]:
    """Per-job store records for a grid (what workers need to run one)."""
    return [
        {
            "id": job.job_id,
            "kind": job.kind,
            "bench": job.bench,
            "scheduler": job.scheduler,
            "scale": job.scale,
            "seed": job.seed,
            "perfect": job.perfect,
            "config_hash": job.config_hash,
        }
        for job in jobs
    ]


def cluster_run_meta(
    runner: ExperimentRunner,
    *,
    retries: int = 1,
    policy: Optional[RetryPolicy] = None,
    manifest_name: str = MANIFEST_NAME,
    heartbeat_s: float = 2.0,
    lease_expiry_s: float = 10.0,
    quarantine_owners: int = 3,
) -> dict:
    """The immutable ``run.json`` document for a cluster run.

    Carries everything a bare worker process needs to reconstruct the
    exact simulation (the config as data, cache dir, checkpoint period,
    traces) plus the fleet's shared knobs (lease timings, retry budget
    and backoff policy, quarantine bound).
    """
    return {
        "config": asdict(runner.config),
        "config_hash": runner.config_hash,
        "cache_dir": os.path.abspath(runner.cache_dir),
        "kind": runner.kind,
        "scale": runner.scale.name,
        "checkpoint_period_ns": runner.checkpoint_period_ns,
        "trace_paths": runner.trace_paths or None,
        "manifest_name": manifest_name,
        "retries": retries,
        "policy": (policy or RetryPolicy()).to_dict(),
        "heartbeat_s": heartbeat_s,
        "lease_expiry_s": lease_expiry_s,
        "quarantine_owners": quarantine_owners,
    }


def _agent_env() -> dict:
    """Env for spawned agents: make sure they can import this repro."""
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root + (os.pathsep + existing if existing else "")
    )
    return env


def _run_cluster(
    cluster_dir, runner, todo, workers, retries, policy, record, say,
    manifest_name,
) -> None:
    """Drain the grid through the lease-based distributed backend.

    The orchestrator enqueues per-job records, spawns ``workers - 1``
    agent subprocesses (``repro cluster worker``), and participates in
    the drain itself — so ``workers=N`` costs N processes either way,
    and ``workers<=1`` degrades to a single-process drain that still
    exercises the full store protocol.  Outcomes are harvested into the
    ordinary record() path, so the manifest, report, and history are
    exactly what a local run produces.
    """
    from repro.cluster.store import JobStore
    from repro.cluster.worker import ClusterWorker, default_worker_id

    store = JobStore.create(
        cluster_dir,
        cluster_run_meta(
            runner, retries=retries, policy=policy,
            manifest_name=manifest_name,
        ),
    )
    n_new = store.ensure_jobs(cluster_job_records(todo))
    say(
        f"[cluster] {n_new} job(s) enqueued into {store.root} "
        f"({len(todo) - n_new} already present)"
    )

    agents: list = []
    for i in range(max(0, workers - 1)):
        agents.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "cluster", "worker",
                    store.root, "--worker-id",
                    f"agent{i}-{default_worker_id()}",
                ],
                env=_agent_env(),
                stdout=subprocess.DEVNULL,
            )
        )
    if agents:
        say(f"[cluster] spawned {len(agents)} agent process(es)")

    me = ClusterWorker(
        store, worker_id=f"orch-{default_worker_id()}", progress=say
    )
    try:
        me.drain()  # returns when every job is done/failed/quarantined
    finally:
        for proc in agents:
            try:
                proc.wait(timeout=2.0 * store.lease_expiry_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    for job in todo:
        outcome = store.outcome(job.job_id)
        if outcome is None:
            quarantine = store.quarantined(job.job_id) or {}
            record(JobResult(
                job,
                "failed",
                retries=int(quarantine.get("failures", 0)),
                error=str(quarantine.get("error", "no outcome recorded")),
                error_type="Quarantined" if quarantine else "NoOutcome",
                worker="",
            ))
            continue
        record(JobResult(
            job,
            str(outcome.get("status", "done")),
            simulated=bool(outcome.get("simulated", False)),
            wall_s=float(outcome.get("wall_s", 0.0)),
            sim_events=float(outcome.get("sim_events", 0.0)),
            sim_wall_s=float(outcome.get("sim_wall_s", 0.0)),
            retries=int(outcome.get("retries", 0)),
            error=str(outcome.get("error", "")),
            error_type=str(outcome.get("error_type", "")),
            checkpoint=str(outcome.get("checkpoint", "")),
            worker=str(outcome.get("worker", "")),
        ))
