"""repro: warp-aware GPU DRAM scheduling.

A from-scratch, trace-driven GPU + GDDR5 memory-system simulator
reproducing "Managing DRAM Latency Divergence in Irregular GPGPU
Applications" (SC 2014): the GMC baseline controller, the WG / WG-M /
WG-Bw / WG-W warp-aware scheduling policies, the SBWAS and WAFCFS
comparison schedulers, the irregular and regular workload suites, and a
harness regenerating every table and figure of the paper's evaluation.

Quick start::

    from repro import SimConfig, simulate, build_benchmark, Scale

    cfg = SimConfig(scheduler="wg-w")
    trace = build_benchmark("bfs", cfg, Scale.QUICK)
    stats = simulate(cfg, trace)
    print(stats.summary())
"""

from repro.core.config import (
    CacheConfig,
    DRAMOrgConfig,
    DRAMTimingConfig,
    GPUConfig,
    MCConfig,
    SimConfig,
)
from repro.core.stats import SimStats
from repro.gpu.system import GPUSystem, simulate
from repro.mc.registry import SCHEDULERS
from repro.telemetry import TelemetryHub
from repro.workloads.profiles import (
    ALL_PROFILES,
    IRREGULAR_BENCHMARKS,
    REGULAR_BENCHMARKS,
)
from repro.workloads.suite import Scale, benchmark_names, build_benchmark
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

__version__ = "1.0.0"

__all__ = [
    "ALL_PROFILES",
    "CacheConfig",
    "DRAMOrgConfig",
    "DRAMTimingConfig",
    "GPUConfig",
    "GPUSystem",
    "IRREGULAR_BENCHMARKS",
    "KernelTrace",
    "MCConfig",
    "MemOp",
    "REGULAR_BENCHMARKS",
    "SCHEDULERS",
    "Scale",
    "Segment",
    "SimConfig",
    "SimStats",
    "TelemetryHub",
    "WarpTrace",
    "benchmark_names",
    "build_benchmark",
    "simulate",
    "synthetic_trace",
    "__version__",
]
