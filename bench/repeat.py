"""One benchmark repeat, in a fresh process started by ``bench/run.py``.

    PYTHONPATH=src python3 bench/repeat.py --workload bfs-wg --seed 1 [--traced]

The simulator is imported before anything is timed.  Then the
calibration loop runs, the workload runs once with each phase timed
around the calls into its functions, and the calibration loop runs
again.  The last stdout line is one JSON record:

* ``sha`` and ``events`` identify the simulated output;
* ``values`` holds raw measurements by metric name;
* ``scale`` (``CAL_REF_S`` over the mean calibration time) converts raw
  seconds into reference seconds, the seconds the repeat would have taken
  on a host running the calibration loop in ``CAL_REF_S``.

``--traced`` adds the per-layer split of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import heapq
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.analysis import runner as analysis_runner
from repro.core.config import SimConfig
from repro.core.stats import SimStats
from repro.gpu import system as gpu_system
from repro.scenarios import loader, runner as scenario_runner
from repro.telemetry.hub import TelemetryHub
from repro.workloads import suite

from layers import LayerClock

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: Median seconds of :func:`calibrate` in fresh processes on the host the
#: bounds in BENCHMARK.json were set on (2-vCPU Intel Xeon VM, CPython 3.11).
CAL_REF_S = 0.165
CAL_ITERATIONS = 200_000


class _Node:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop in the simulator's mix.

    Heap push/pop of tuples holding ``__slots__`` objects, plus dict
    lookups over keys drawn from a 1M span.  It touches no simulator code,
    so its speed follows the host, not the change under test.  The dict
    stays under 64k entries so it does not move ``peak_rss_mb``.  The
    garbage collector is off while it runs: after a simulation its passes
    would walk the simulator's live objects, which is not host speed.
    """
    heap: list = []
    table: dict[int, _Node] = {}
    push, pop, get = heapq.heappush, heapq.heappop, table.get
    x = 1
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(iterations):
            x = (x * 1103515245 + 12345) & 0xFFFFF
            node = get(x & 0xFFFF)
            if node is None:
                node = table[x & 0xFFFF] = _Node(x)
            node.hits += 1
            push(heap, (x, i, node))
            if len(heap) > 256:
                pop(heap)
        return perf_counter() - t0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _cell(bench: str, scheduler: str, scale: str):
    """One simulation on the default 6-channel config, trace to summary."""

    def run(seed: int, workdir: str) -> dict:
        config = SimConfig(scheduler=scheduler)
        trace = suite.build_benchmark(bench, config, suite.Scale[scale], seed=seed)
        return gpu_system.GPUSystem(config, trace).run().summary()

    return run


def _ci_tiny(seed: int, workdir: str) -> dict:
    """``scenarios/ci_tiny.yaml`` end to end, inline, into an empty cache."""
    spec = loader.load_spec(str(ROOT / "scenarios" / "ci_tiny.yaml"))
    spec = dataclasses.replace(spec, seeds=(seed,))
    return scenario_runner.run_scenario(spec, cache_dir=workdir, workers=0).metrics


WORKLOADS = {
    "bfs-wg": _cell("bfs", "wg", "QUICK"),
    "spmv-wgm": _cell("spmv", "wg-m", "TINY"),
    "nw-wgw": _cell("nw", "wg-w", "QUICK"),
    "stream-gmc": _cell("streamcluster", "gmc", "PAPER"),
    "ci-tiny": _ci_tiny,
}

#: (owner, attribute, phase): the functions each phase is timed around.
PHASES = (
    (SimConfig, "__init__", "config.load"),
    (loader, "load_spec", "config.load"),
    (suite, "build_benchmark", "workloads.build"),
    (analysis_runner, "synthetic_trace", "workloads.build"),
    (gpu_system.GPUSystem, "__init__", "gpu.system.init"),
    (gpu_system, "build_frontend_pools", "gpu.frontend.build"),
    (gpu_system.GPUSystem, "run", "simulate"),
    (SimStats, "summary", "core.stats.summary"),
)


def _time_phases(seconds: dict[str, float]) -> None:
    """Wrap every ``PHASES`` function; a call nested in another call of
    the same phase (``load_spec`` building a ``SimConfig``) counts once."""
    active: set[str] = set()
    for owner, attr, phase in PHASES:
        seconds.setdefault(phase, 0.0)

        def timed(fn, phase=phase):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                if phase in active:
                    return fn(*args, **kwargs)
                active.add(phase)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[phase] += perf_counter() - t0
                    active.discard(phase)

            return call

        setattr(owner, attr, timed(getattr(owner, attr)))


def _keep_runs(runs: list[SimStats]) -> None:
    """Collect the stats of every ``GPUSystem.run``."""
    original = gpu_system.GPUSystem.run

    @functools.wraps(original)
    def run(system, *args, **kwargs):
        stats = original(system, *args, **kwargs)
        runs.append(stats)
        return stats

    gpu_system.GPUSystem.run = run


def _trace_layers(clock: LayerClock) -> None:
    """Build every ``GPUSystem`` with ``clock`` as its engine profiler
    (through a ``TelemetryHub``) and the controller wrappers installed."""
    original = gpu_system.GPUSystem.__init__

    @functools.wraps(original)
    def init(system, *args, **kwargs):
        if kwargs.get("telemetry") is None:
            hub = TelemetryHub()
            hub.profiler = clock
            kwargs["telemetry"] = hub
        original(system, *args, **kwargs)
        clock.instrument(system)

    gpu_system.GPUSystem.__init__ = init


def _sim_values(runs: list[SimStats]) -> dict[str, float]:
    """Simulated-time counters over every run (deterministic per seed)."""
    channels = [c for s in runs for c in s.channels]
    wait_n = sum(c.sorter_wait.count for c in channels)
    service_n = sum(c.service_time.count for c in channels)
    sent = sum(c.coordination_msgs_sent for c in channels)
    hits = sum(c.row_hits for c in channels)
    columns = hits + sum(c.row_misses for c in channels)
    bus_ps = sum(s.elapsed_ps * len(s.channels) for s in runs)
    return {
        "ipc": sum(s.ipc() for s in runs) / len(runs),
        "divergence_ns": sum(s.mean_divergence_ns() for s in runs) / len(runs),
        "mc.sim_queue_wait_ns": (
            sum(c.sorter_wait.total for c in channels) / wait_n if wait_n else 0.0
        ),
        "mc.sim_service_ns": (
            sum(c.service_time.total for c in channels) / service_n
            if service_n else 0.0
        ),
        "mc.sim_coord_applied_frac": (
            sum(c.coordination_msgs_applied for c in channels) / sent if sent else 0.0
        ),
        "dram.sim_row_hit_rate": hits / columns if columns else 0.0,
        "dram.sim_bus_util": (
            sum(c.data_bus_busy_ps for c in channels) / bus_ps if bus_ps else 0.0
        ),
    }


def repeat(workload: str, seed: int, traced: bool) -> dict:
    """Run ``workload`` once and return its record (see module docstring).

    Wraps simulator functions in place, so it runs once per process.
    """
    body = WORKLOADS[workload]
    phases: dict[str, float] = {}
    runs: list[SimStats] = []
    _keep_runs(runs)
    _time_phases(phases)
    clock = None
    if traced:
        clock = LayerClock()
        _trace_layers(clock)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        # The first pass in a fresh process also pays for growing the
        # allocator's arenas, which is not host speed.
        calibrate(CAL_ITERATIONS // 4)
        cal_before = calibrate()
        t0 = perf_counter()
        output = body(seed, workdir)
        wall = perf_counter() - t0
        cal_after = calibrate()

    events = sum(s.events_processed for s in runs)
    setup = phases["config.load"] + phases["workloads.build"] + phases["gpu.system.init"]
    named = setup + phases["simulate"] + phases["core.stats.summary"]
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "simulate_s": phases["simulate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "core.engine.events": events,
        "core.engine.us_per_event": phases["simulate"] * 1e6 / events,
        "analysis.sweep.other_s": wall - named,
        **{f"{phase}_s": s for phase, s in phases.items() if phase != "simulate"},
        **_sim_values(runs),
    }
    if clock is not None:
        commands = sum(
            c.activates + c.precharges + c.reads + c.writes
            for s in runs
            for c in s.channels
        )
        values.update(clock.split(phases["simulate"], events, commands))
    digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "sha": digest[:16],
        "events": events,
        "cal_s": [cal_before, cal_after],
        "scale": CAL_REF_S / ((cal_before + cal_after) / 2),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(repeat(args.workload, args.seed, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
