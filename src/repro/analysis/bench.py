"""Core hot-path benchmark: ``python -m repro bench`` (docs/performance.md).

Measures raw simulator throughput — engine events per wall-clock second
and wall time — per scheduler on a fixed single-channel workload at TINY
and QUICK scale.  This is the harness behind the repo's performance
trajectory: ``results/BENCH_core_baseline.json`` pins the pre-optimization
numbers, ``results/BENCH_core.json`` the current ones, and the CI
``perf-smoke`` job fails when throughput regresses against the committed
reference.

Methodology
-----------
* Single channel: every request funnels through one memory controller, so
  the measurement is dominated by the scheduler/engine hot path the
  optimizations target, not by cross-channel fan-out.
* Each job builds its trace once and simulates it ``repeats`` times; the
  *best* wall time is reported (minimum is the standard noise-robust
  estimator for a deterministic workload).
* Simulated outcomes are asserted identical across repeats — a bench run
  doubles as a cheap determinism check.
* A pure-interpreter **calibration loop** (dict/int/list operations, no
  simulator code) runs alongside and its ops/sec is stored in the report.
  Regression checks compare *normalized* throughput
  (``events_per_sec / calibration``) so a slower CI machine does not read
  as a simulator regression.

The report mirrors the sweep-report shape (``BENCH_sweep.json``): a
``schema_version``/aggregate header plus one entry per job with
``sim_events``, ``sim_wall_s`` and ``events_per_sec``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.analysis.runner import atomic_write_json, config_hash
from repro.analysis.schema import BENCH_SCHEMA
from repro.core.config import SimConfig
from repro.gpu.system import GPUSystem
from repro.workloads.suite import Scale, build_benchmark

__all__ = [
    "BENCH_SCHEMA",
    "BenchJob",
    "BenchReport",
    "calibrate",
    "compare_reports",
    "default_jobs",
    "load_report",
    "run_bench",
]

#: Canonical bench workload: irregular, divergent, exercises the warp
#: sorter, MERB gate and write drain — the paths this bench exists to time.
DEFAULT_BENCHMARK = "bfs"

#: Schedulers measured by ``--quick`` (the CI gate): the paper's
#: presentation set, which covers every optimized code path (baseline
#: command scheduler, BASJF, coordination, MERB, write drain).
QUICK_SCHEDULERS = ("gmc", "wg", "wg-m", "wg-bw", "wg-w")


def _bench_config(scheduler: str) -> SimConfig:
    """Single-channel configuration so the controller is the bottleneck."""
    base = SimConfig(scheduler=scheduler)
    return dataclasses.replace(
        base, dram_org=dataclasses.replace(base.dram_org, num_channels=1)
    )


@dataclass(frozen=True)
class BenchJob:
    """One measurement cell: scheduler x scale on the bench workload."""

    bench: str
    scheduler: str
    scale: str  # Scale name
    seed: int = 1
    repeats: int = 3

    @property
    def job_id(self) -> str:
        return f"core/{self.bench}/{self.scheduler}/{self.scale.lower()}/s{self.seed}"


@dataclass
class JobMeasurement:
    job: BenchJob
    sim_events: int = 0
    sim_wall_s: float = 0.0  # best-of-repeats wall time
    wall_s_mean: float = 0.0
    elapsed_ps: int = 0  # simulated time (identical across repeats)

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.job.job_id,
            "bench": self.job.bench,
            "scheduler": self.job.scheduler,
            "scale": self.job.scale,
            "seed": self.job.seed,
            "repeats": self.job.repeats,
            "status": "done",
            "sim_events": self.sim_events,
            "sim_wall_s": round(self.sim_wall_s, 4),
            "wall_s_mean": round(self.wall_s_mean, 4),
            "elapsed_ps": self.elapsed_ps,
            "events_per_sec": round(self.events_per_sec, 1),
        }


@dataclass
class BenchReport:
    jobs: list[JobMeasurement]
    calibration_ops_per_sec: float
    wall_s: float = 0.0
    python: str = field(
        default_factory=lambda: ".".join(map(str, sys.version_info[:3]))
    )

    @property
    def events_total(self) -> int:
        return sum(m.sim_events for m in self.jobs)

    @property
    def events_per_sec(self) -> float:
        busy = sum(m.sim_wall_s for m in self.jobs)
        return self.events_total / busy if busy > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": BENCH_SCHEMA,
            "kind": "core",
            "python": self.python,
            "calibration_ops_per_sec": round(self.calibration_ops_per_sec, 1),
            "wall_s": round(self.wall_s, 4),
            "jobs_total": len(self.jobs),
            "jobs_done": len(self.jobs),
            "jobs_failed": 0,
            "events_total": self.events_total,
            "events_per_sec": round(self.events_per_sec, 1),
            "jobs": [m.to_dict() for m in self.jobs],
        }

    def write(self, path: str) -> None:
        atomic_write_json(path, self.to_dict())

    def format(self) -> str:
        lines = [
            f"{'job':40s} {'events':>9s} {'best':>8s} {'events/s':>10s}"
        ]
        for m in self.jobs:
            lines.append(
                f"{m.job.job_id:40s} {m.sim_events:9d} "
                f"{m.sim_wall_s:7.3f}s {m.events_per_sec / 1000.0:8.1f}k"
            )
        lines.append(
            f"[bench] {self.events_total} events in {self.wall_s:.1f}s wall "
            f"({self.events_per_sec / 1000.0:.0f}k events/s aggregate, "
            f"calibration {self.calibration_ops_per_sec / 1e6:.1f}M ops/s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(iterations: int = 400_000, rounds: int = 3) -> float:
    """Interpreter-speed reference: ops/sec of a fixed pure-Python loop.

    Deliberately touches only builtins (dict/list/int churn in the mix a
    discrete-event simulator exhibits) and none of the simulator code, so
    its speed moves with the host machine and Python build but *not* with
    the optimizations this bench measures.
    """
    best = float("inf")
    for _ in range(rounds):
        d: dict[int, int] = {}
        acc = 0
        t0 = perf_counter()
        for i in range(iterations):
            k = i & 1023
            d[k] = i
            acc += d[k] ^ (i >> 3)
            if k == 0:
                d.clear()
        dt = perf_counter() - t0
        best = min(best, dt)
    return iterations / best if best > 0 else 0.0


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def default_jobs(
    quick: bool = False,
    schedulers: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[str]] = None,
    bench: str = DEFAULT_BENCHMARK,
    seed: int = 1,
    repeats: Optional[int] = None,
) -> list[BenchJob]:
    import repro.idealized  # noqa: F401  (registers zero-div)
    from repro.mc.registry import SCHEDULERS

    if schedulers is None:
        schedulers = QUICK_SCHEDULERS if quick else sorted(SCHEDULERS)
    if scales is None:
        scales = ("TINY",) if quick else ("TINY", "QUICK")
    if repeats is None:
        repeats = 2 if quick else 3
    return [
        BenchJob(bench=bench, scheduler=s, scale=scale.upper(),
                 seed=seed, repeats=repeats)
        for scale in scales
        for s in schedulers
    ]


def _measure(job: BenchJob) -> JobMeasurement:
    config = _bench_config(job.scheduler)
    trace = build_benchmark(
        job.bench, config, Scale[job.scale], seed=job.seed
    )
    m = JobMeasurement(job)
    walls = []
    for rep in range(max(1, job.repeats)):
        system = GPUSystem(config, trace)
        t0 = perf_counter()
        stats = system.run()
        walls.append(perf_counter() - t0)
        if rep == 0:
            m.sim_events = system.engine.events_processed
            m.elapsed_ps = stats.elapsed_ps
        elif (system.engine.events_processed, stats.elapsed_ps) != (
            m.sim_events, m.elapsed_ps
        ):
            raise RuntimeError(
                f"{job.job_id}: non-deterministic repeat "
                f"({system.engine.events_processed} events / "
                f"{stats.elapsed_ps} ps vs {m.sim_events} / {m.elapsed_ps})"
            )
    m.sim_wall_s = min(walls)
    m.wall_s_mean = sum(walls) / len(walls)
    return m


def run_bench(
    jobs: Sequence[BenchJob],
    progress: Optional[Callable[[str], None]] = None,
    history: bool = True,
) -> BenchReport:
    """Measure every job and return the aggregate report.

    By default the finished report is also appended to the run-history
    store (docs/observability.md) so the dashboard's perf trajectory
    tracks every bench invocation; ``history=False`` (or
    ``REPRO_HISTORY=0``) skips ingestion.
    """
    say = progress or (lambda _msg: None)
    t0 = perf_counter()
    say("calibrating interpreter speed...")
    cal = calibrate()
    measurements = []
    for i, job in enumerate(jobs):
        m = _measure(job)
        measurements.append(m)
        say(
            f"[{i + 1}/{len(jobs)}] {job.job_id}: "
            f"{m.events_per_sec / 1000.0:.1f}k events/s "
            f"({m.sim_events} events, best {m.sim_wall_s:.3f}s)"
        )
    report = BenchReport(
        jobs=measurements,
        calibration_ops_per_sec=cal,
        wall_s=perf_counter() - t0,
    )
    if history:
        from repro.history import record_run

        # The grid spans schedulers, so the stamped hash identifies the
        # shared single-channel base config (scheduler field excluded by
        # convention: use the gmc member as the representative).
        record = record_run(
            "bench",
            report.to_dict(),
            config_hash=config_hash(_bench_config("gmc")),
        )
        if record is not None:
            say(f"history record {record.record_id} appended")
    return report


# ----------------------------------------------------------------------
# baseline comparison (the CI regression gate)
# ----------------------------------------------------------------------
def load_report(path: str) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema_version") != BENCH_SCHEMA or report.get("kind") != "core":
        raise ValueError(f"{path} is not a schema-{BENCH_SCHEMA} core bench report")
    return report


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.15
) -> tuple[list[str], list[str]]:
    """(per-job summary lines, regression messages) for current vs baseline.

    Jobs are matched by id; throughput is normalized by each report's
    calibration score before comparing, so reports taken on machines of
    different speed remain comparable.  A job regresses when its
    normalized events/sec falls more than ``tolerance`` below baseline.
    """
    cur_cal = current.get("calibration_ops_per_sec") or 1.0
    base_cal = baseline.get("calibration_ops_per_sec") or 1.0
    base_jobs = {j["id"]: j for j in baseline.get("jobs", ())}
    lines: list[str] = []
    regressions: list[str] = []
    for job in current.get("jobs", ()):
        ref = base_jobs.get(job["id"])
        if ref is None or not ref.get("events_per_sec"):
            lines.append(f"{job['id']}: no baseline entry, skipped")
            continue
        cur_norm = job["events_per_sec"] / cur_cal
        base_norm = ref["events_per_sec"] / base_cal
        ratio = cur_norm / base_norm if base_norm > 0 else float("inf")
        lines.append(
            f"{job['id']}: {job['events_per_sec'] / 1000.0:.1f}k events/s, "
            f"{ratio:.2f}x baseline (normalized)"
        )
        if ratio < 1.0 - tolerance:
            regressions.append(
                f"{job['id']} regressed to {ratio:.2f}x of baseline "
                f"(normalized {cur_norm:.3g} vs {base_norm:.3g}, "
                f"tolerance {1.0 - tolerance:.2f}x)"
            )
    return lines, regressions
