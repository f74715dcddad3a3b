"""Shared experiment runner with content-addressed result caching.

Figures 8-12 all derive from the same (benchmark x scheduler) sweep, so
experiments share one :class:`ExperimentRunner`: each simulation runs once
per (workload kind, benchmark, scheduler, scale, seed) and its summary
dict is cached in memory and optionally as JSON on disk.

Disk-cache keying
-----------------
Cache entries are keyed by a **content hash of the full** ``SimConfig``
(:func:`config_hash`) alongside the run coordinates, so *any* config
change — a timing parameter, a queue depth, an SBWAS alpha — lands in a
fresh cache entry automatically.  There is no manual tag or cache-version
counter to forget to bump: stale results cannot survive a config change.
Writes go through :func:`atomic_write_json` (temp file + ``os.replace``),
so concurrent sweep workers never observe a partially written entry.

Workload kinds:

* ``synthetic``   — profile-driven traces whose memory signatures are
  calibrated to the per-benchmark statistics the paper reports (default
  for figure regeneration);
* ``algorithmic`` — traces emitted by actually running each algorithm
  (secondary validation; see DESIGN.md);
* ``trace``       — externally supplied trace files replayed as-is
  (``trace_paths`` maps benchmark names to ``.json``/``.npz`` files; the
  cache key folds in a content fingerprint of each file, so editing a
  trace invalidates its entries like any config change would).

The parallel sweep harness built on top of this runner (worker dispatch,
retries, resume manifest, progress) lives in :mod:`repro.analysis.sweep`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Optional

from repro.core.atomic import atomic_write_json
from repro.core.config import SimConfig
from repro.gpu.system import GPUSystem, simulate
from repro.guardrails.chaos import chaos_point
from repro.guardrails.checkpoint import CheckpointError, load_checkpoint
from repro.guardrails.config import GuardrailConfig
from repro.idealized import perfect_coalescing
from repro.workloads.profiles import ALL_PROFILES, IRREGULAR_BENCHMARKS, REGULAR_BENCHMARKS
from repro.workloads.suite import Scale, build_benchmark
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace, load_trace_file

__all__ = [
    "ExperimentRunner",
    "atomic_write_json",
    "config_hash",
    "run_one_job",
]

# Folded into the hash input so a change to the *cache layout* (not the
# config) can also invalidate old entries without a rename convention.
_CACHE_SCHEMA = 1


def config_hash(config: SimConfig) -> str:
    """Stable 12-hex-digit content hash of a full :class:`SimConfig`.

    Derived from the canonical JSON of every field (nested dataclasses
    included), so two configs hash equal iff they are equal.
    """
    payload = json.dumps(
        {"schema": _CACHE_SCHEMA, "config": dataclasses.asdict(config)},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# atomic_write_json lives in repro.core.atomic (the result cache and the
# history store share it); re-exported here because this module is its
# historical home and external callers import it from here.


def _file_fingerprint(path: str) -> str:
    """12-hex content hash of a file (external-trace cache identity)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def run_one_job(job: tuple) -> tuple:
    """Worker entry point for parallel sweeps (must be module-level for
    pickling).  ``job`` = (config, scale_name, kind, bench, scheduler,
    seed, perfect, cache_dir[, checkpoint_period_ns[, trace_paths]]);
    returns
    ((bench, scheduler, seed, perfect), summary, meta) where ``meta``
    records whether the job actually simulated (and whether it resumed
    from a checkpoint) plus its wall time and engine event count.
    """
    config, scale_name, kind, bench, scheduler, seed, perfect, cache_dir = job[:8]
    checkpoint_period_ns = job[8] if len(job) > 8 else 0.0
    trace_paths = job[9] if len(job) > 9 else None
    # Chaos window at job entry (inert unless REPRO_CHAOS arms it): lets
    # the fault tests hang or SIGKILL a worker at a defined step — the
    # sweep's timeout supervisor and crash retry are proven against
    # exactly this point.
    chaos_point("job-start")
    runner = ExperimentRunner(
        config=config,
        scale=Scale[scale_name],
        seeds=(seed,),
        kind=kind,
        cache_dir=cache_dir,
        checkpoint_period_ns=checkpoint_period_ns,
        trace_paths=trace_paths,
    )
    t0 = time.time()
    summary = runner.run(bench, scheduler, seed, perfect)
    meta = {
        "simulated": runner.last_outcome in ("simulated", "resumed"),
        "resumed": runner.last_outcome == "resumed",
        "wall_s": time.time() - t0,
        "sim_events": summary.get("sim_events", 0.0),
        "sim_wall_s": summary.get("sim_wall_s", 0.0),
    }
    return (bench, scheduler, seed, perfect), summary, meta


class ExperimentRunner:
    """Runs (benchmark, scheduler) pairs once and caches their summaries."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        scale: Scale = Scale.QUICK,
        seeds: tuple[int, ...] = (1, 2),
        kind: str = "synthetic",
        cache_dir: Optional[str] = None,
        verbose: bool = False,
        checkpoint_period_ns: float = 0.0,
        trace_paths: Optional[dict[str, str]] = None,
    ) -> None:
        if kind not in ("synthetic", "algorithmic", "trace"):
            raise ValueError(
                "kind must be 'synthetic', 'algorithmic' or 'trace'"
            )
        if kind == "trace" and not trace_paths:
            raise ValueError(
                "kind='trace' needs trace_paths mapping names to files"
            )
        if kind != "trace" and trace_paths:
            raise ValueError("trace_paths only applies to kind='trace'")
        if checkpoint_period_ns > 0 and cache_dir is None:
            raise ValueError("checkpoint_period_ns requires a cache_dir")
        self.config = config or SimConfig()
        self.scale = scale
        self.seeds = seeds
        self.kind = kind
        self.cache_dir = cache_dir
        self.verbose = verbose
        self.checkpoint_period_ns = checkpoint_period_ns
        self.trace_paths = dict(trace_paths) if trace_paths else {}
        # Content fingerprint per external trace, folded into cache names:
        # an edited trace file can never serve a stale cached summary.
        self._trace_fps = {
            name: _file_fingerprint(path)
            for name, path in self.trace_paths.items()
        }
        self.config_hash = config_hash(self.config)
        # "memo" | "disk" | "simulated" | "resumed" (last run())
        self.last_outcome = ""
        self._traces: dict[tuple[str, int, bool], KernelTrace] = {}
        self._results: dict[tuple, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # workload construction
    # ------------------------------------------------------------------
    def trace(self, bench: str, seed: int, perfect: bool = False) -> KernelTrace:
        key = (bench, seed, perfect)
        if key not in self._traces:
            if self.kind == "synthetic":
                try:
                    profile = ALL_PROFILES[bench]
                except KeyError:
                    raise ValueError(
                        f"benchmark {bench!r} has no synthetic profile; "
                        "run it with kind='algorithmic'"
                    ) from None
                t = synthetic_trace(
                    profile, self.config, seed=seed, scale=self.scale.factor
                )
            elif self.kind == "trace":
                try:
                    path = self.trace_paths[bench]
                except KeyError:
                    raise ValueError(
                        f"no trace file registered for {bench!r}; known: "
                        f"{sorted(self.trace_paths)}"
                    ) from None
                t = load_trace_file(path)
            else:
                t = build_benchmark(bench, self.config, self.scale, seed=seed)
            if perfect:
                t = perfect_coalescing(t)
            self._traces[key] = t
        return self._traces[key]

    # ------------------------------------------------------------------
    # simulation with caching
    # ------------------------------------------------------------------
    def cache_name(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> str:
        """Cache file name for one run (config identity via content hash;
        external traces also carry their file's content fingerprint)."""
        bench_key = bench
        if self.kind == "trace" and bench in self._trace_fps:
            bench_key = f"{bench}@{self._trace_fps[bench]}"
        return (
            f"{self.kind}-{bench_key}-{scheduler}-{self.scale.name}"
            f"-s{seed}-p{int(perfect)}-{self.config_hash}.json"
        )

    def _cache_path(
        self, bench: str, scheduler: str, seed: int, perfect: bool
    ) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, self.cache_name(bench, scheduler, seed, perfect)
        )

    def checkpoint_path(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> Optional[str]:
        """Checkpoint file for one run (same identity as its cache entry).

        The snapshot outlives a crashed/timed-out job so its retry can
        resume; it is deleted once the run completes and its summary is
        safely in the cache.
        """
        if self.cache_dir is None:
            return None
        name = self.cache_name(bench, scheduler, seed, perfect)
        return os.path.join(self.cache_dir, name[: -len(".json")] + ".ckpt")

    def run(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> dict[str, float]:
        key = (self.kind, bench, scheduler, self.scale.name, seed, int(perfect))
        if key in self._results:
            self.last_outcome = "memo"
            return self._results[key]
        path = self._cache_path(bench, scheduler, seed, perfect)
        if path and os.path.exists(path):
            with open(path) as fh:
                result = json.load(fh)
            self._results[key] = result
            self.last_outcome = "disk"
            return result
        if self.verbose:
            print(f"  simulating {bench} / {scheduler} (seed {seed}) ...", flush=True)
        t0 = time.time()
        stats, resumed = self._simulate(bench, scheduler, seed, perfect)
        result = stats.summary()
        # Extras the figures need beyond the headline summary.
        recs = stats.dram_loads()
        result["unit_group_frac"] = (
            sum(1 for r in recs if r.dram_requests == 1) / len(recs) if recs else 0.0
        )
        result["banks_per_warp"] = (
            sum(r.banks_touched for r in recs if r.dram_requests > 1)
            / max(1, sum(1 for r in recs if r.dram_requests > 1))
        )
        result["activates"] = float(sum(c.activates for c in stats.channels))
        result["reads"] = float(sum(c.reads for c in stats.channels))
        result["writes"] = float(sum(c.writes for c in stats.channels))
        result["coord_msgs"] = float(
            sum(c.coordination_msgs_applied for c in stats.channels)
        )
        result["merb_deferrals"] = float(
            sum(c.merb_deferrals for c in stats.channels)
        )
        result["wgw_promotions"] = float(
            sum(c.wgw_promotions for c in stats.channels)
        )
        # Host-side cost of producing this entry (the sweep harness reports
        # events/sec per job from these).
        result["sim_events"] = float(stats.events_processed)
        result["sim_wall_s"] = stats.wall_seconds
        self._results[key] = result
        self.last_outcome = "resumed" if resumed else "simulated"
        if path:
            atomic_write_json(path, result)
        ckpt = self.checkpoint_path(bench, scheduler, seed, perfect)
        if ckpt and self.checkpoint_period_ns > 0 and os.path.exists(ckpt):
            os.unlink(ckpt)  # run finished; the snapshot served its purpose
        return result

    def _simulate(
        self, bench: str, scheduler: str, seed: int, perfect: bool
    ):
        """One simulation, checkpoint-aware.

        With ``checkpoint_period_ns`` set, the run writes periodic
        snapshots next to its cache entry, and — if a snapshot from a
        crashed or timed-out earlier attempt exists and matches this
        config — resumes from it instead of starting over.  Returns
        ``(stats, resumed)``.
        """
        sched_config = self.config.with_scheduler(scheduler)
        if self.checkpoint_period_ns <= 0:
            trace = self.trace(bench, seed, perfect)
            return simulate(sched_config, trace), False
        ckpt = self.checkpoint_path(bench, scheduler, seed, perfect)
        guardrails = GuardrailConfig(
            checkpoint_period_ns=self.checkpoint_period_ns,
            checkpoint_path=ckpt,
        )
        if os.path.exists(ckpt):
            try:
                system = load_checkpoint(
                    ckpt, expected_config_hash=config_hash(sched_config)
                )
            except CheckpointError:
                pass  # stale/foreign snapshot: fall through to a fresh run
            else:
                # Adopt the *current* guardrail settings: the snapshot
                # carries those of the attempt that wrote it.
                system.guardrails = guardrails
                return system.resume(), True
        trace = self.trace(bench, seed, perfect)
        system = GPUSystem(sched_config, trace, guardrails=guardrails)
        return system.run(), False

    def mean(self, bench: str, scheduler: str, perfect: bool = False) -> dict[str, float]:
        """Summary averaged over the runner's seeds."""
        runs = [self.run(bench, scheduler, s, perfect) for s in self.seeds]
        keys = set().union(*(r.keys() for r in runs))
        return {k: sum(r.get(k, 0.0) for r in runs) / len(runs) for k in keys}

    def seed_spread(self, bench: str, scheduler: str, metric: str = "ipc") -> tuple[float, float]:
        """(mean, max absolute deviation) of a metric across seeds — the
        noise floor to quote next to small scheduler deltas."""
        vals = [self.run(bench, scheduler, s)[metric] for s in self.seeds]
        mean = sum(vals) / len(vals)
        spread = max(abs(v - mean) for v in vals) if len(vals) > 1 else 0.0
        return mean, spread

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def speedup(self, bench: str, scheduler: str, base: str = "gmc") -> float:
        """IPC normalized to the baseline scheduler (Fig. 8's y-axis)."""
        return self.mean(bench, scheduler)["ipc"] / self.mean(bench, base)["ipc"]

    @staticmethod
    def irregular_benchmarks() -> tuple[str, ...]:
        return IRREGULAR_BENCHMARKS

    @staticmethod
    def regular_benchmarks() -> tuple[str, ...]:
        return REGULAR_BENCHMARKS
