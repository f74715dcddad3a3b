"""Robust parallel sweep harness over :class:`ExperimentRunner`.

``run_sweep`` runs the (benchmark, scheduler, perfect) cells of one or
more runners, one per config variant, at each of their seeds, one
supervised process per job or inline (``workers <= 0``), and makes the
sweep safe at scale:

* **one trace per input** — jobs whose runners agree on what enters a
  trace (:meth:`ExperimentRunner.trace_key`) share one input, whose
  trace the sweep builds on its first job, hands to each of its jobs
  (worker processes build nothing) and drops after its last job;
* **the cache is the only state** — a job is done once its
  content-addressed cache entry is on disk.  Every sweep reads each
  job's entry up front and dispatches only the jobs without a readable
  one, so rerunning the same command finishes an interrupted sweep with
  zero re-simulation, and a damaged entry is simulated again instead of
  aborting the sweep;
* **harvest on completion** — results are collected as workers finish,
  with a live progress/ETA line per completion;
* **bounded retry** — a worker exception or death fails only that job,
  which is resubmitted up to ``retries`` times before being recorded as
  failed (the rest of the sweep always completes);
* **atomic cache writes** — workers publish results via temp-file +
  rename (:func:`repro.core.atomic.atomic_write_json`), so concurrent
  workers and readers never see partial JSON;
* **real timeout enforcement** — a job running past ``timeout_s`` has
  its process **killed**, not abandoned, and a worker that dies without
  reporting (OOM-killed, SIGKILL) is detected by its exit code; both
  are retried like any other failure (:func:`_run_procs`);
* **seeded retry backoff** — retries wait out an exponential,
  deterministically-jittered delay (:func:`_backoff_s`) instead of
  re-firing instantly, so a deterministic crash cannot spin and
  concurrent failers decorrelate.

The returned :class:`SweepReport` carries per-job wall-clock and
events/sec; :meth:`SweepReport.to_dict` is the machine-readable form
that the run history stores and ``repro scenario run --out`` writes
under ``"sweep"``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.runner import ExperimentRunner, build_trace
from repro.analysis.schema import SWEEP_SCHEMA
from repro.idealized import perfect_coalescing
from repro.workloads.trace import KernelTrace

__all__ = [
    "JobResult",
    "SweepJob",
    "SweepReport",
    "run_sweep",
]

_POLL_S = 0.05  # supervisor tick while no running job has reported

_BACKOFF_BASE_S = 0.25
_BACKOFF_MULTIPLIER = 2.0
_BACKOFF_CAP_S = 30.0
_BACKOFF_JITTER = 0.5


def _backoff_s(attempt: int, job_id: str) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based) of a job.

    The jitter is seeded, not sampled: the same ``(job_id, attempt)``
    always waits the same time, so reruns of a sweep back off on the
    same schedule, while distinct jobs still decorrelate.  The jitter
    only shaves: the delay lands in ``[raw * (1 - jitter), raw]``.
    """
    raw = min(
        _BACKOFF_CAP_S, _BACKOFF_BASE_S * _BACKOFF_MULTIPLIER ** (attempt - 1)
    )
    # The "0|" prefix keeps the draws of the former seed-0 default policy.
    draw = random.Random(f"0|{job_id}|{attempt}").random()
    return raw * (1.0 - _BACKOFF_JITTER * draw)


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
    status: str  # "done" | "failed"
    simulated: bool = False  # False: served from cache
    wall_s: float = 0.0  # worker wall-clock for this job
    sim_events: float = 0.0  # engine events of the producing simulation
    sim_wall_s: float = 0.0  # wall-clock of the producing simulation
    retries: int = 0
    error: str = ""
    error_type: str = ""  # exception class name on failure

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
                f"{r.job.job_id} ({r.error_type or '?'}: "
                f"{r.error.splitlines()[0] if r.error else '?'})"
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
            "jobs_simulated": self.n_simulated,
            "jobs_cached": self.n_cached,
            "events_total": self.events_total,
            "events_per_sec": round(self.events_per_sec, 1),
            "jobs": [r.to_dict() for r in self.results],
        }

    def format(self) -> str:
        parts = [
            f"{self.n_done}/{len(self.results)} jobs done",
            f"{self.n_simulated} simulated",
            f"{self.n_cached} cache hits",
        ]
        if self.n_failed:
            parts.append(f"{self.n_failed} FAILED")
        rate = self.events_per_sec
        return (
            f"[sweep] {', '.join(parts)} in {self.wall_s:.1f}s"
            + (f" ({rate / 1000.0:.0f}k events/s)" if rate else "")
        )


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    sweeps: Sequence[tuple[ExperimentRunner, Iterable[tuple[str, str, bool]]]],
    *,
    workers: int = 4,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    scenario_name: str = "",
    scenario_hash: str = "",
) -> SweepReport:
    """Run the (benchmark, scheduler, perfect) cells of each ``(runner,
    cells)`` pair at every seed of its runner; returns one report.

    A job whose cache entry is already on disk and readable is reported
    done from that entry and never dispatched; only the others run, a
    damaged entry counting as missing.  ``workers >= 1`` runs up to
    that many of them at once, each in its own supervised process;
    ``timeout_s=None`` means no deadline.  ``workers <= 0``
    executes inline (no processes, no timeout) with the same retry
    semantics.  Both paths run one input's jobs back to back, whichever
    pair they came from, each through its runner's ``run_job`` on the
    input's trace; its perfectly coalesced trace derives from that one
    build.  Inline, each runner's result memo then answers ``runner.run``
    for every job it ran; a worker process hands its result back through
    the runner's ``cache_dir``, which is required either way.

    Retry attempts are spaced by a seeded exponential backoff
    (:func:`_backoff_s`), quick enough for tests while still
    decorrelating concurrent failers.

    The report's ``kind``, ``scale`` and ``config_hash`` are the first
    runner's; each job's id carries its own config hash.  The finished
    report is appended to the run-history store (docs/observability.md)
    unless ``REPRO_HISTORY=0``.
    """
    if not sweeps:
        raise ValueError("a sweep needs at least one (runner, cells) pair")
    runners: dict[SweepJob, ExperimentRunner] = {}
    inputs: dict[SweepJob, tuple] = {}  # job -> its runner's trace_key
    by_input: dict[tuple, list[SweepJob]] = {}  # in first-seen order
    for runner, cells in sweeps:
        if runner.cache_dir is None:
            raise ValueError("a sweep requires a cache_dir")
        os.makedirs(runner.cache_dir, exist_ok=True)
        for bench, sched, perfect in cells:
            for seed in runner.seeds:
                job = SweepJob(
                    runner.kind, bench, sched, runner.scale.name, seed,
                    perfect, runner.config_hash,
                )
                if job not in runners:
                    runners[job] = runner
                    inputs[job] = runner.trace_key(bench, seed)
                    by_input.setdefault(inputs[job], []).append(job)

    say = progress if progress is not None else (lambda _msg: None)

    t0 = time.time()
    cached: list[JobResult] = []
    todo: list[SweepJob] = []
    for job in (job for jobs in by_input.values() for job in jobs):
        entry = runners[job].read_cache(
            job.bench, job.scheduler, job.seed, job.perfect
        )
        if entry is None:
            todo.append(job)
            continue
        cached.append(JobResult(
            job, "done", sim_events=entry.get("sim_events", 0.0),
            sim_wall_s=entry.get("sim_wall_s", 0.0),
        ))

    # The traces of inputs with unsettled jobs: {input: {perfect: trace}}.
    held: dict[tuple, dict[bool, KernelTrace]] = {}
    unsettled = Counter(inputs[job] for job in todo)

    def trace_of(job: SweepJob) -> KernelTrace:
        """``job``'s trace; a build that raises fails the attempt."""
        runner = runners[job]
        traces = held.setdefault(inputs[job], {})
        if False not in traces:
            traces[False] = build_trace(
                runner.kind, job.bench, runner.config, runner.scale,
                job.seed, runner.trace_paths.get(job.bench),
            )
        if job.perfect and True not in traces:
            traces[True] = perfect_coalescing(
                traces[False], runner.config.dram_org.line_bytes
            )
        return traces[job.perfect]

    dispatched: list[JobResult] = []

    def record(res: JobResult) -> None:
        dispatched.append(res)
        key = inputs[res.job]
        unsettled[key] -= 1
        if not unsettled[key]:  # the input's last job has settled
            held.pop(key, None)
        finished = len(dispatched)
        elapsed = time.time() - t0
        eta = (elapsed / finished) * (len(todo) - finished)
        n_failed = sum(1 for r in dispatched if r.status == "failed")
        say(
            f"[sweep] {finished}/{len(todo)} "
            f"({n_failed} failed) | {elapsed:.0f}s elapsed, eta {eta:.0f}s"
        )

    def retry_or_fail(
        job: SweepJob, attempt: int, wall_s: float, error: str, error_type: str
    ) -> Optional[float]:
        """Backoff seconds before ``job``'s next attempt, or None once its
        retries are exhausted and the job is recorded as failed, naming
        the exception type.  Every attempt simulates from zero.
        """
        if attempt < retries:
            delay = _backoff_s(attempt + 1, job.job_id)
            say(f"[sweep] retrying {job.job_id} in {delay:.2f}s: {error}")
            return delay
        record(JobResult(
            job, "failed", wall_s=wall_s, retries=attempt, error=error,
            error_type=error_type,
        ))
        return None

    if todo and workers <= 0:
        _run_inline(runners, todo, trace_of, record, retry_or_fail)
    elif todo:
        _run_procs(runners, todo, trace_of, workers, timeout_s, record,
                   retry_or_fail, say)

    runner = sweeps[0][0]
    report = SweepReport(
        cached + dispatched,
        scale=runner.scale.name,
        kind=runner.kind,
        config_hash=runner.config_hash,
        workers=workers,
        wall_s=time.time() - t0,
        scenario_name=scenario_name,
        scenario_hash=scenario_hash,
    )
    say(report.format())
    from repro.history import record_run

    stored = record_run("sweep", report.to_dict(), config_hash=runner.config_hash)
    if stored is not None:
        say(f"[sweep] history record {stored.record_id} appended")
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


def _run_inline(runners, todo, trace_of, record, retry_or_fail) -> None:
    """Run each job in this process through its runner (no timeout),
    so the sweep holds only the traces of the input running now."""
    for job in todo:
        attempt = 0
        while True:
            t_start = time.time()
            try:
                _summary, meta = runners[job].run_job(
                    job.bench, job.scheduler, job.seed, job.perfect,
                    trace_of(job),
                )
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


def _proc_entry(conn, runner: ExperimentRunner, job: SweepJob, trace) -> None:
    """Child entry for _run_procs: the inline job body, reported as
    ``("ok", meta)`` or ``("err", (message, type name))`` through the pipe."""
    try:
        _summary, meta = runner.run_job(
            job.bench, job.scheduler, job.seed, job.perfect, trace
        )
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        try:
            conn.send(("err", (str(exc), type(exc).__name__)))
        finally:
            conn.close()
        return
    conn.send(("ok", meta))
    conn.close()


def _run_procs(
    runners, todo, trace_of, workers, timeout_s, record, retry_or_fail, say
) -> None:
    """Per-job supervised processes: one dead worker fails only its job.

    Every job is its own ``multiprocessing.Process``, at most
    ``workers`` at a time, running ``run_job`` on its copy of the job's
    runner and of the trace built here for the job's input
    (:func:`_proc_entry`; inherited on fork).  A worker that dies
    *without* reporting a result (OOM killer, SIGKILL) is detected by
    its exit code; one past ``timeout_s`` (if set) is SIGKILLed and its
    slot reclaimed at once.  Either way the job is retried under the
    backoff policy, and every other job runs on untouched — unlike a
    shared executor, where one dead worker breaks every in-flight job
    and every later retry.
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
            try:
                trace = trace_of(job)
            except Exception as exc:
                settle(job, attempt, now, str(exc), type(exc).__name__)
                continue
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_proc_entry, args=(send, runners[job], job, trace)
            )
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
                    record(_done_result(job, value, attempt))
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
