"""Shared experiment runner with content-addressed result caching.

Figures 8-12 all derive from the same (benchmark x scheduler) sweep, so
experiments share one :class:`ExperimentRunner`: each simulation runs once
per (workload kind, benchmark, scheduler, scale, seed) and its summary
dict is cached in memory and optionally as JSON on disk.  Each
(benchmark, seed) trace is built once and shared by every scheduler that
simulates it.

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
  (``trace_paths`` maps benchmark names to JSON interchange files; the
  cache key folds in a content fingerprint of each file, so editing a
  trace invalidates its entries like any config change would).

The parallel sweep harness built on top of this runner (worker dispatch,
retries, progress) lives in :mod:`repro.analysis.sweep`; a sweep job is
done once its cache entry is on disk, so the cache is the sweep's only
record of finished work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Optional

from repro.core.atomic import atomic_write_json
from repro.core.config import SimConfig
from repro.gpu.system import simulate
from repro.guardrails.chaos import chaos_point
from repro.idealized import perfect_coalescing
from repro.workloads.profiles import ALL_PROFILES, IRREGULAR_BENCHMARKS, REGULAR_BENCHMARKS
from repro.workloads.suite import Scale, build_benchmark
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace

__all__ = [
    "ExperimentRunner",
    "atomic_write_json",
    "config_hash",
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
        self.config = config or SimConfig()
        self.scale = scale
        self.seeds = seeds
        self.kind = kind
        self.cache_dir = cache_dir
        self.verbose = verbose
        self.trace_paths = dict(trace_paths) if trace_paths else {}
        # Content fingerprint per external trace, folded into cache names:
        # an edited trace file can never serve a stale cached summary.
        self._trace_fps = {
            name: _file_fingerprint(path)
            for name, path in self.trace_paths.items()
        }
        self.config_hash = config_hash(self.config)
        # "memo" | "disk" | "simulated" (last run())
        self.last_outcome = ""
        self._traces: dict[tuple[str, int, bool], KernelTrace] = {}
        self._results: dict[tuple, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # workload construction
    # ------------------------------------------------------------------
    def trace(self, bench: str, seed: int, perfect: bool = False) -> KernelTrace:
        """The memoized trace of (bench, seed).

        Simulation only reads a trace, so every scheduler of one
        (bench, seed) shares it.  ``perfect=True`` derives the idealized
        trace from the memoized base: :func:`perfect_coalescing` builds
        new objects and never mutates its input.
        """
        key = (bench, seed, perfect)
        if key not in self._traces:
            if perfect:
                t = perfect_coalescing(
                    self.trace(bench, seed), self.config.dram_org.line_bytes
                )
            elif self.kind == "synthetic":
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
                t = KernelTrace.load_json(path)
            else:
                t = build_benchmark(bench, self.config, self.scale, seed=seed)
            self._traces[key] = t
        return self._traces[key]

    def release_traces(self, bench: str, seed: int) -> None:
        """Drop the memoized traces of (bench, seed), base and idealized."""
        self._traces.pop((bench, seed, False), None)
        self._traces.pop((bench, seed, True), None)

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

    def cache_path(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> Optional[str]:
        """Cache file for one run (None without a ``cache_dir``)."""
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, self.cache_name(bench, scheduler, seed, perfect)
        )

    def read_cache(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> Optional[dict[str, float]]:
        """One run's disk cache entry, or None when it is missing,
        unreadable or not a JSON object.

        A damaged entry (say, truncated by a full disk or a hand edit) is
        a miss like a missing one: the run simulates again and rewrites
        it atomically.
        """
        path = self.cache_path(bench, scheduler, seed, perfect)
        if path is None:
            return None
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def run(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> dict[str, float]:
        key = (self.kind, bench, scheduler, self.scale.name, seed, int(perfect))
        if key in self._results:
            self.last_outcome = "memo"
            return self._results[key]
        result = self.read_cache(bench, scheduler, seed, perfect)
        if result is not None:
            self._results[key] = result
            self.last_outcome = "disk"
            return result
        if self.verbose:
            print(
                f"  simulating {bench} / {scheduler} (seed {seed}) ...",
                file=sys.stderr, flush=True,
            )
        stats = simulate(
            self.config.with_scheduler(scheduler), self.trace(bench, seed, perfect)
        )
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
        result["fallback_reads"] = float(
            sum(c.fallback_reads for c in stats.channels)
        )
        # Host-side cost of producing this entry (the sweep harness reports
        # events/sec per job from these).
        result["sim_events"] = float(stats.events_processed)
        result["sim_wall_s"] = stats.wall_seconds
        self._results[key] = result
        self.last_outcome = "simulated"
        path = self.cache_path(bench, scheduler, seed, perfect)
        if path:
            atomic_write_json(path, result)
        return result

    def run_job(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> tuple[dict[str, float], dict]:
        """One sweep job: :meth:`run` plus what the sweep records.

        The sweep runs every job through this method, inline and in
        worker processes alike (:mod:`repro.analysis.sweep`).  Returns
        ``(summary, meta)``; ``meta`` records whether the job actually
        simulated, plus its wall time and engine event count.  A sweep
        reports a job done only with a readable cache entry on disk, so a
        memo hit whose file has since been deleted or damaged writes it
        again.
        """
        # Chaos window at job entry (inert unless REPRO_CHAOS arms it): lets
        # the fault tests hang, fail or SIGKILL a job at a defined step —
        # the sweep's timeout supervisor and crash retry are proven against
        # exactly this point.
        chaos_point("job-start")
        t0 = time.time()
        summary = self.run(bench, scheduler, seed, perfect)
        path = self.cache_path(bench, scheduler, seed, perfect)
        if (
            self.last_outcome == "memo"
            and path
            and self.read_cache(bench, scheduler, seed, perfect) is None
        ):
            atomic_write_json(path, summary)
        meta = {
            "simulated": self.last_outcome == "simulated",
            "wall_s": time.time() - t0,
            "sim_events": summary.get("sim_events", 0.0),
            "sim_wall_s": summary.get("sim_wall_s", 0.0),
        }
        return summary, meta

    def mean(self, bench: str, scheduler: str, perfect: bool = False) -> dict[str, float]:
        """Summary averaged over the runner's seeds."""
        runs = [self.run(bench, scheduler, s, perfect) for s in self.seeds]
        keys = set().union(*(r.keys() for r in runs))
        return {k: sum(r.get(k, 0.0) for r in runs) / len(runs) for k in keys}

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
