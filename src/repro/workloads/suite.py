"""Benchmark suite assembly (Table III + the §VI-A regular set).

``build_benchmark(name, config, scale)`` returns the kernel trace of any
benchmark the paper evaluates, built by the corresponding algorithmic
generator at the requested scale.  ``Scale`` trades fidelity for run time:

* ``TINY``  — unit/bench tests (seconds per simulation);
* ``QUICK`` — default experiment scale (tens of seconds per simulation);
* ``PAPER`` — full-size runs for the committed EXPERIMENTS.md numbers.

Traces are deterministic in (name, scale, seed) and the GPU shape (SM
count, warp size) of ``config``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from repro.core.config import SimConfig
from repro.workloads.algorithms import (
    bfs_trace,
    bh_trace,
    cfd_trace,
    embedding_gather_trace,
    graph_sample_trace,
    index_scan_trace,
    kmeans_trace,
    nw_trace,
    pvc_trace,
    sad_trace,
    sp_trace,
    spmv_trace,
    ss_trace,
    sssp_trace,
    stencil_trace,
    stream_trace,
)
from repro.workloads.trace import KernelTrace

__all__ = [
    "Scale",
    "IRREGULAR_SUITE",
    "REGULAR_SUITE",
    "MODERN_SUITE",
    "build_benchmark",
    "benchmark_names",
]


class Scale(Enum):
    TINY = 0.10
    QUICK = 0.30
    PAPER = 1.0

    @property
    def factor(self) -> float:
        return self.value


def _s(x: float, f: float, lo: int = 32) -> int:
    return max(lo, int(x * f))


Builder = Callable[[SimConfig, float, int], KernelTrace]

# Problem sizes stay large at every scale (small footprints would fit in
# the caches and erase the irregularity the paper studies); the *warp
# budget* scales with the factor.
IRREGULAR_SUITE: dict[str, Builder] = {
    "bfs": lambda c, f, s: bfs_trace(
        c, n_vertices=150_000, seed=s, max_frontier_warps=_s(1200, f)
    ),
    "cfd": lambda c, f, s: cfd_trace(
        c, n_cells=120_000, seed=s, max_warps=_s(1300, f)
    ),
    "nw": lambda c, f, s: nw_trace(c, n=2048, seed=s, max_warps=_s(1400, f)),
    "kmeans": lambda c, f, s: kmeans_trace(
        c, n_points=150_000, seed=s, max_warps=_s(1300, f)
    ),
    "PVC": lambda c, f, s: pvc_trace(
        c, n_records=200_000, seed=s, max_warps=_s(1300, f)
    ),
    "SS": lambda c, f, s: ss_trace(
        c, n_pairs=200_000, n_docs=60_000, seed=s, max_warps=_s(1200, f)
    ),
    "sp": lambda c, f, s: sp_trace(
        c, n_vars=80_000, n_clauses=200_000, seed=s, max_warps=_s(1300, f)
    ),
    "bh": lambda c, f, s: bh_trace(
        c, n_bodies=100_000, seed=s, max_warps=_s(1200, f)
    ),
    "sssp": lambda c, f, s: sssp_trace(
        c, n_vertices=120_000, seed=s, max_warps=_s(1400, f)
    ),
    "spmv": lambda c, f, s: spmv_trace(
        c, n_rows=150_000, seed=s, max_warps=_s(1300, f)
    ),
    "sad": lambda c, f, s: sad_trace(
        c, frame_w=704, frame_h=480, seed=s, max_warps=_s(1300, f)
    ),
}

REGULAR_SUITE: dict[str, Builder] = {
    "streamcluster": lambda c, f, s: stream_trace(
        c, "streamcluster", seed=s, max_warps=_s(1200, f), write_every=8
    ),
    "srad2": lambda c, f, s: stencil_trace(
        c, "srad2", seed=s, max_warps=_s(1200, f), write_ratio=0.6
    ),
    "bp": lambda c, f, s: stream_trace(
        c, "bp", seed=s, max_warps=_s(1200, f), write_every=4
    ),
    "hotspot": lambda c, f, s: stencil_trace(
        c, "hotspot", seed=s, max_warps=_s(1200, f), write_ratio=0.4
    ),
    "InvertedIndex": lambda c, f, s: index_scan_trace(
        c, "InvertedIndex", seed=s, max_warps=_s(1200, f), write_ratio=0.2
    ),
    "PageViewRank": lambda c, f, s: index_scan_trace(
        c, "PageViewRank", seed=s, max_warps=_s(1200, f), write_ratio=0.3
    ),
}

# Modern irregular workloads beyond the paper's Table III (algorithmic
# kind only — no synthetic profile): recommendation embedding-bag gather
# and GNN neighborhood sampling, for the scenario library's device ×
# workload sweeps (docs/scenarios.md).
MODERN_SUITE: dict[str, Builder] = {
    "embgather": lambda c, f, s: embedding_gather_trace(
        c, seed=s, max_warps=_s(1300, f)
    ),
    "graphsample": lambda c, f, s: graph_sample_trace(
        c, seed=s, max_warps=_s(1200, f)
    ),
}

_ALL = {**IRREGULAR_SUITE, **REGULAR_SUITE, **MODERN_SUITE}


def benchmark_names() -> tuple[str, ...]:
    return tuple(_ALL)


def build_benchmark(
    name: str,
    config: SimConfig,
    scale: Scale = Scale.QUICK,
    seed: int = 1,
) -> KernelTrace:
    """Build the named benchmark's kernel trace."""
    try:
        builder = _ALL[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(_ALL)}") from None
    return builder(config, scale.factor, seed)
