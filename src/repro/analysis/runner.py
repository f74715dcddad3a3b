"""Shared experiment runner with content-addressed result caching.

Figures 8-12 all derive from the same (benchmark x scheduler) sweep, so
experiments share one :class:`ExperimentRunner`.  Its ``run_job`` is the
one call that simulates a run, caching the summary in memory and
optionally as JSON on disk; ``run`` and ``mean`` only read those, and a
run nobody swept raises.

:func:`build_trace` is the one place a benchmark name becomes a trace;
:func:`repro.analysis.sweep.run_sweep` builds each input once and hands
it to ``run_job`` for every scheduler that simulates it.

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
import time
from typing import Optional

from repro.core.atomic import atomic_write_json
from repro.core.config import SimConfig
from repro.gpu.system import simulate
from repro.guardrails.chaos import chaos_point
from repro.workloads.profiles import ALL_PROFILES, IRREGULAR_BENCHMARKS, REGULAR_BENCHMARKS
from repro.workloads.suite import Scale, benchmark_names, build_benchmark
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace

__all__ = [
    "ExperimentRunner",
    "build_trace",
    "check_benchmark",
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


def check_benchmark(kind: str, bench: str) -> None:
    """Raise ``ValueError`` unless ``kind`` can build a trace of ``bench``."""
    if bench not in benchmark_names():
        raise ValueError(
            f"unknown benchmark {bench!r}; choose from {sorted(benchmark_names())}"
        )
    if kind == "synthetic" and bench not in ALL_PROFILES:
        raise ValueError(
            f"benchmark {bench!r} has no synthetic profile; use kind: algorithmic"
        )


def build_trace(
    kind: str, bench: str, config: SimConfig, scale: Scale, seed: int,
    path: Optional[str] = None,
) -> KernelTrace:
    """A fresh ``kind`` trace of ``bench``, the one place a benchmark name
    becomes a trace: drawn from its synthetic profile, built by running
    its algorithm, or loaded from ``path`` (kind ``trace``).  Of
    ``config``, only ``dram_org`` and ``gpu`` enter it.  The synthetic
    build calls this module's ``synthetic_trace`` global, which profilers
    wrap by name."""
    if kind == "trace":
        if path is None:
            raise ValueError(f"no trace file registered for {bench!r}")
        return KernelTrace.load_json(path)
    check_benchmark(kind, bench)
    if kind == "synthetic":
        return synthetic_trace(ALL_PROFILES[bench], config, seed=seed, scale=scale.factor)
    return build_benchmark(bench, config, scale, seed=seed)


def _file_fingerprint(path: str) -> str:
    """12-hex content hash of a file (external-trace cache identity)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


class ExperimentRunner:
    """Runs (benchmark, scheduler) pairs once and caches their summaries.

    It holds no traces: ``run_job`` simulates the one the sweep hands it."""

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        scale: Scale = Scale.QUICK,
        seeds: tuple[int, ...] = (1, 2),
        kind: str = "synthetic",
        cache_dir: Optional[str] = None,
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
        self.trace_paths = dict(trace_paths) if trace_paths else {}
        # Content fingerprint per external trace, folded into cache names:
        # an edited trace file can never serve a stale cached summary.
        self._trace_fps = {
            name: _file_fingerprint(path)
            for name, path in self.trace_paths.items()
        }
        self.config_hash = config_hash(self.config)
        self._results: dict[tuple, dict[str, float]] = {}

    def _bench_key(self, bench: str) -> str:
        """``bench``, with its trace file's fingerprint for kind ``trace``."""
        if self.kind == "trace" and bench in self._trace_fps:
            return f"{bench}@{self._trace_fps[bench]}"
        return bench

    def trace_key(self, bench: str, seed: int) -> tuple:
        """What enters the trace of (bench, seed); runners that differ
        only elsewhere (say, in ``mc.sbwas_alpha``) build equal traces."""
        return (
            self.kind, self._bench_key(bench), self.scale, seed,
            self.config.dram_org, self.config.gpu,
        )

    # ------------------------------------------------------------------
    # simulation with caching
    # ------------------------------------------------------------------
    def cache_name(
        self, bench: str, scheduler: str, seed: int, perfect: bool = False
    ) -> str:
        """Cache file name for one run (config identity via content hash;
        external traces also carry their file's content fingerprint)."""
        return (
            f"{self.kind}-{self._bench_key(bench)}-{scheduler}-{self.scale.name}"
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
        """One run's summary, from memory or the disk cache.

        Never simulates: a run that no :meth:`run_job` produced, here or
        into the shared ``cache_dir``, raises ``LookupError`` naming it.
        """
        key = (bench, scheduler, seed, perfect)
        if key not in self._results:
            entry = self.read_cache(bench, scheduler, seed, perfect)
            if entry is None:
                raise LookupError(
                    f"run {self.cache_name(bench, scheduler, seed, perfect)} "
                    "is in neither memory nor the cache; sweep it first"
                )
            self._results[key] = entry
        return self._results[key]

    def run_job(
        self, bench: str, scheduler: str, seed: int, perfect: bool,
        trace: KernelTrace,
    ) -> tuple[dict[str, float], dict]:
        """One sweep job: the run's summary, simulated on ``trace`` unless
        it is already in memory or on disk.

        The sweep runs every job through this method, inline and in
        worker processes alike, handing it the job's input trace
        (perfectly coalesced for ``perfect``; :mod:`repro.analysis.sweep`).
        Returns ``(summary, meta)``; ``meta`` records whether the job actually
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
        key = (bench, scheduler, seed, perfect)
        on_disk = self.read_cache(bench, scheduler, seed, perfect)
        summary = self._results.get(key, on_disk)
        simulated = summary is None
        if simulated:
            stats = simulate(self.config.with_scheduler(scheduler), trace)
            summary = stats.summary()
            # Extras the figures need beyond the headline summary.
            recs = stats.dram_loads()
            summary["unit_group_frac"] = (
                sum(1 for r in recs if r.dram_requests == 1) / len(recs)
                if recs else 0.0
            )
            summary["banks_per_warp"] = (
                sum(r.banks_touched for r in recs if r.dram_requests > 1)
                / max(1, sum(1 for r in recs if r.dram_requests > 1))
            )
            channels = stats.channels
            for extra, counter in (
                ("activates", "activates"), ("reads", "reads"), ("writes", "writes"),
                ("coord_msgs", "coordination_msgs_applied"),
                ("merb_deferrals", "merb_deferrals"),
                ("wgw_promotions", "wgw_promotions"),
                ("fallback_reads", "fallback_reads"),
            ):
                summary[extra] = float(sum(getattr(c, counter) for c in channels))
            # Host-side cost of producing this entry (the sweep harness
            # reports events/sec per job from these).
            summary["sim_events"] = float(stats.events_processed)
            summary["sim_wall_s"] = stats.wall_seconds
        self._results[key] = summary
        path = self.cache_path(bench, scheduler, seed, perfect)
        if path and on_disk is None:
            atomic_write_json(path, summary)
        meta = {
            "simulated": simulated,
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
