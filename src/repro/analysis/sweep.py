"""Robust parallel sweep harness over :class:`ExperimentRunner`.

``run_sweep`` runs the (benchmark, scheduler, perfect) cells of one or
more runners, one per config variant, at each of their seeds, through
one supervised loop that starts a process per job or, with
``workers <= 0``, runs each job in this process, and makes the sweep
safe at scale:

* **one trace per input** — jobs whose runners agree on what enters a
  trace (:meth:`ExperimentRunner.trace_key`) share one input, whose
  trace the sweep builds on its first job, hands to each of its jobs
  (worker processes build nothing) and drops after its last job;
* **the cache is the only state** — a job's id is the name of its
  content-addressed cache entry, and the job is done once that entry
  reads back.  Every sweep reads each job's entry up front and
  dispatches only the jobs without a readable one, so rerunning the
  same command finishes an interrupted sweep with zero re-simulation,
  and a damaged entry is simulated again instead of aborting the sweep;
* **harvest on completion** — results are collected as workers finish,
  with a live progress/ETA line per completion;
* **bounded retry** — an exception, a worker's death or an entry that
  does not read back fails only that job's attempt, and the job is
  resubmitted up to ``retries`` times before being recorded as failed
  (the rest of the sweep always completes);
* **atomic cache writes** — workers publish results via temp-file +
  rename (:func:`repro.core.atomic.atomic_write_json`), so concurrent
  workers and readers never see partial JSON;
* **real timeout enforcement** — a job running past ``timeout_s`` has
  its process **killed**, not abandoned, and a worker that dies without
  reporting (OOM-killed, SIGKILL) is detected by its exit code; both
  are retried like any other failure (:func:`_dispatch`);
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
    """One run of the sweep grid, on the runner that simulates it."""

    runner: ExperimentRunner
    bench: str
    scheduler: str
    seed: int
    perfect: bool

    @property
    def job_id(self) -> str:
        """The job's cache entry name without ``.json``: two jobs are one
        exactly when they would write one entry."""
        return self.runner.cache_name(
            self.bench, self.scheduler, self.seed, self.perfect
        ).removesuffix(".json")

    @property
    def trace_key(self) -> tuple:
        """What enters the job's trace (:meth:`ExperimentRunner.trace_key`)."""
        return self.runner.trace_key(self.bench, self.seed)


@dataclass
class JobResult:
    """Outcome of one sweep job."""

    job: SweepJob
    status: str  # "done" | "failed"
    simulated: bool = False  # False: served from cache
    wall_s: float = 0.0  # last attempt's start to its settling, supervisor-timed
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

    Each job is named by the cache entry it writes, so cells that would
    write one entry are one job.  A job whose entry is already on disk
    and readable is reported done from that entry and never dispatched;
    only the others run, a damaged entry counting as missing.  They all
    go through one supervised loop (:func:`_dispatch`): ``workers >= 1``
    runs up to that many at once, each in its own process, and
    ``timeout_s=None`` means no deadline; ``workers <= 0`` runs each job
    in this process (no timeout), with the same queue, retries and
    backoff.  One input's jobs run back to back, whichever pair they came
    from, each through its runner's ``run_job`` on the input's trace; its
    perfectly coalesced trace derives from that one build.  Either way a
    job is done only once its entry reads back, and the report's
    ``sim_events`` and ``sim_wall_s`` come from that entry.

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
    # {input: {job id: job}}, both in first-seen order.
    by_input: dict[tuple, dict[str, SweepJob]] = {}
    for runner, cells in sweeps:
        os.makedirs(runner.cache_dir, exist_ok=True)
        for bench, sched, perfect in cells:
            for seed in runner.seeds:
                job = SweepJob(runner, bench, sched, seed, perfect)
                by_input.setdefault(job.trace_key, {}).setdefault(job.job_id, job)

    say = progress if progress is not None else (lambda _msg: None)

    t0 = time.time()
    cached: list[JobResult] = []
    queue: list[tuple[SweepJob, int, float]] = []  # (job, attempt, ready_t)
    for job in (job for group in by_input.values() for job in group.values()):
        res = _read_back(job)
        if res is None:
            queue.append((job, 0, 0.0))
        else:
            cached.append(res)
    n_todo = len(queue)

    # The traces of inputs with unsettled jobs: {input: {perfect: trace}}.
    held: dict[tuple, dict[bool, KernelTrace]] = {}
    unsettled = Counter(job.trace_key for job, _, _ in queue)

    def trace_of(job: SweepJob) -> KernelTrace:
        """``job``'s trace; a build that raises fails the attempt."""
        runner = job.runner
        traces = held.setdefault(job.trace_key, {})
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
        key = res.job.trace_key
        unsettled[key] -= 1
        if not unsettled[key]:  # the input's last job has settled
            held.pop(key, None)
        finished = len(dispatched)
        elapsed = time.time() - t0
        eta = (elapsed / finished) * (n_todo - finished)
        n_failed = sum(1 for r in dispatched if r.status == "failed")
        say(
            f"[sweep] {finished}/{n_todo} "
            f"({n_failed} failed) | {elapsed:.0f}s elapsed, eta {eta:.0f}s"
        )

    def settle(
        job: SweepJob, attempt: int, t_start: float,
        failure: Optional[tuple[str, str]],
    ) -> None:
        """Settle one attempt: done once the job's entry reads back;
        otherwise queued again after its backoff, or, with its retries
        spent, recorded as failed, naming the exception type.
        ``failure`` is the attempt's (message, type name), None when it
        reported success.  Every attempt simulates from zero.
        """
        wall_s = time.time() - t_start
        if failure is None:
            res = _read_back(job, simulated=True, wall_s=wall_s, retries=attempt)
            if res is not None:
                record(res)
                return
            failure = (
                "the job reported success but its cache entry does not "
                "read back", "MissingEntry",
            )
        error, error_type = failure
        if attempt < retries:
            delay = _backoff_s(attempt + 1, job.job_id)
            say(f"[sweep] retrying {job.job_id} in {delay:.2f}s: {error}")
            queue.append((job, attempt + 1, time.time() + delay))
            return
        record(JobResult(
            job, "failed", wall_s=wall_s, retries=attempt, error=error,
            error_type=error_type,
        ))

    _dispatch(queue, workers, timeout_s, trace_of, settle, say)

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


def _read_back(
    job: SweepJob, simulated: bool = False, wall_s: float = 0.0, retries: int = 0
) -> Optional[JobResult]:
    """``job`` done, with the cost of the simulation that wrote its cache
    entry read from that entry; None while the entry does not read back."""
    entry = job.runner.read_cache(job.bench, job.scheduler, job.seed, job.perfect)
    if entry is None:
        return None
    return JobResult(
        job,
        "done",
        simulated=simulated,
        wall_s=wall_s,
        sim_events=entry.get("sim_events", 0.0),
        sim_wall_s=entry.get("sim_wall_s", 0.0),
        retries=retries,
    )


def _attempt(job: SweepJob, trace: KernelTrace) -> Optional[tuple[str, str]]:
    """One attempt of ``job`` on ``trace``: None once ``run_job`` returns,
    else the exception's message and type name."""
    try:
        job.runner.run_job(job.bench, job.scheduler, job.seed, job.perfect, trace)
    except Exception as exc:
        return str(exc), type(exc).__name__
    return None


def _proc_entry(conn, job: SweepJob, trace: KernelTrace) -> None:
    """A worker process's body: one attempt, its outcome sent back."""
    try:
        conn.send(_attempt(job, trace))
    finally:
        conn.close()


def _dispatch(queue, workers, timeout_s, trace_of, settle, say) -> None:
    """The one supervised loop: start each queued attempt once its backoff
    has passed, and hand every outcome to ``settle``, which may queue a
    retry.

    Inline (``workers <= 0``) an attempt runs to its end in this process
    as it starts.  Otherwise every attempt is its own
    ``multiprocessing.Process``, at most ``workers`` at a time, running
    ``run_job`` on its copy of the job's runner and of the trace built
    here for the job's input (:func:`_proc_entry`; inherited on fork).  A
    worker that dies *without* reporting (OOM killer, SIGKILL) is detected
    by its exit code; one past ``timeout_s`` (if set) is SIGKILLed and its
    slot reclaimed at once.  Either way the job is retried under the
    backoff policy, and every other job runs on untouched — unlike a
    shared executor, where one dead worker breaks every in-flight job
    and every later retry.
    """
    ctx = multiprocessing.get_context()
    running: dict = {}  # proc -> (job, attempt, t_start, recv_conn)

    def start(job, attempt) -> None:
        t_build = time.time()
        try:
            trace = trace_of(job)
        except Exception as exc:
            settle(job, attempt, t_build, (str(exc), type(exc).__name__))
            return
        if workers <= 0:
            t_start = time.time()
            failure = _attempt(job, trace)
            settle(job, attempt, t_start, failure)
            return
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_proc_entry, args=(send, job, trace))
        proc.daemon = True
        proc.start()
        send.close()  # child's end; parent sees EOF if the child dies
        running[proc] = (job, attempt, time.time(), recv)

    def finish(proc) -> None:
        recv = running.pop(proc)[3]
        recv.close()
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)

    while queue or running:
        now = time.time()
        for item in [q for q in queue if q[2] <= now]:
            if len(running) >= max(1, workers):
                break
            queue.remove(item)
            start(*item[:2])

        progressed = False
        for proc in list(running):
            job, attempt, t_start, recv = running[proc]
            try:
                reported = recv.poll(0)
                failure = recv.recv() if reported else None
            except (EOFError, OSError):
                reported = False  # died mid-send: treated as a crash
            if reported:
                finish(proc)
                progressed = True
                settle(job, attempt, t_start, failure)
            elif not proc.is_alive():
                exitcode = proc.exitcode
                finish(proc)
                progressed = True
                settle(job, attempt, t_start, (
                    f"worker died without reporting (exit code {exitcode})",
                    "WorkerCrashed",
                ))
            elif timeout_s is not None and time.time() - t_start > timeout_s:
                proc.kill()  # actually terminate — never abandon the job
                finish(proc)
                progressed = True
                say(f"[sweep] killed {job.job_id} after {timeout_s:.0f}s")
                settle(job, attempt, t_start, (
                    f"timeout after {timeout_s:.0f}s", "TimeoutError",
                ))
        if not progressed and (queue or running):
            time.sleep(_POLL_S)
