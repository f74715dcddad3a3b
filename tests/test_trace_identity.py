"""Trace-identity regression gate for the workload generators.

Generator speed-ups (a vectorized level expansion, a leaner
``WarpBuilder``) are pure optimizations: every trace they build must stay
byte-identical, and with it every simulated outcome downstream.  This
gate pins that claim against committed fingerprints taken on the code
before the speed-ups: for every registered benchmark at TINY, plus the
repository benchmark's algorithmic cells at their own scales, the trace's
JSON form must hash to the committed SHA-256 and hold the committed warp
count.  The module also keeps the scalar bfs loop that the vectorized
generator replaced, as the reference of a property test on small graphs.

The fixture (``tests/fixtures/trace_identity.json``) must only be
regenerated when a generator's output changes intentionally::

    PYTHONPATH=src python tests/test_trace_identity.py --regen

The hashes cover NumPy ``Generator`` streams, which NumPy does not
promise to keep stable across releases; a mismatch on every case at once
points at the NumPy version before the code.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.workloads.algorithms.graphs import _edge_steps, bfs_trace, random_csr
from repro.workloads.builder import Layout, TraceBuilder
from repro.workloads.suite import Scale, benchmark_names, build_benchmark
from repro.workloads.trace import KernelTrace

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "trace_identity.json")

SEEDS = (1, 2)

#: The algorithmic cells of ``BENCHMARK.json`` (bfs-wg, nw-wgw, spmv-wgm,
#: stream-gmc) at the scale each one runs.
BENCH_CELLS = (
    ("bfs", Scale.QUICK),
    ("nw", Scale.QUICK),
    ("spmv", Scale.TINY),
    ("streamcluster", Scale.PAPER),
)

CASES = tuple(
    dict.fromkeys(
        [(name, Scale.TINY, seed) for name in benchmark_names() for seed in SEEDS]
        + [(name, scale, seed) for name, scale in BENCH_CELLS for seed in SEEDS]
    )
)


def case_key(name: str, scale: Scale, seed: int) -> str:
    return f"{name}-{scale.name}-s{seed}"


def trace_fingerprint(trace: KernelTrace) -> dict:
    """SHA-256 of the trace's canonical JSON form, plus its warp count."""
    doc = json.dumps(trace.to_json_dict(), sort_keys=True)
    return {
        "sha": hashlib.sha256(doc.encode()).hexdigest(),
        "warps": len(trace.warps),
    }


def fingerprint(name: str, scale: Scale, seed: int) -> dict:
    # The trace depends on the GPU shape only (SM count, warp size); the
    # default config is the one the repository benchmark runs.
    return trace_fingerprint(build_benchmark(name, SimConfig(), scale, seed=seed))


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,scale,seed", CASES, ids=[case_key(*case) for case in CASES]
)
def test_trace_identity_against_reference(name, scale, seed):
    key = case_key(name, scale, seed)
    reference = _load_fixture()
    assert key in reference, (
        f"no committed fingerprint for {key!r}; regenerate with "
        f"`PYTHONPATH=src python tests/test_trace_identity.py --regen` "
        f"(only legitimate for intentional trace changes)"
    )
    current = fingerprint(name, scale, seed)
    expected = reference[key]
    assert current["warps"] == expected["warps"], (
        f"{key}: warp count changed ({current['warps']} vs {expected['warps']})"
    )
    assert current["sha"] == expected["sha"], (
        f"{key}: trace diverged from the committed reference"
    )


def scalar_bfs_trace(
    config: SimConfig,
    n_vertices: int = 150_000,
    avg_degree: float = 5.0,
    seed: int = 11,
    max_edge_steps: int = 6,
    max_frontier_warps: int = 1200,
    n_sources: int = 64,
) -> KernelTrace:
    """The per-block, per-step, per-lane ``bfs_trace`` loop that the
    vectorized generator replaced, kept verbatim as its reference."""
    rng = np.random.default_rng(seed)
    row_ptr, col = random_csr(n_vertices, avg_degree, rng, locality=0.7)
    lay = Layout()
    a_frontier = lay.alloc("frontier", n_vertices)
    a_rowptr = lay.alloc("row_ptr", n_vertices + 1)
    a_col = lay.alloc("col_idx", len(col))
    a_dist = lay.alloc("dist", n_vertices)

    tb = TraceBuilder("bfs", config.gpu.num_sms, config.gpu.warp_size)
    # Rodinia's vertex-centric kernel: one thread per vertex, every level;
    # threads whose vertex is not in the frontier mask off.  Warps over
    # consecutive vertex ids -> coalesced frontier/row_ptr reads; the MAI
    # comes from the col_idx walks and dist[neighbor] gathers.
    in_frontier = np.zeros(n_vertices, dtype=bool)
    sources = rng.integers(0, n_vertices, size=n_sources)
    in_frontier[sources] = True
    dist = np.full(n_vertices, -1, dtype=np.int64)
    dist[sources] = 0
    warps_emitted = 0
    level = 0
    while in_frontier.any() and warps_emitted < max_frontier_warps:
        next_frontier = np.zeros(n_vertices, dtype=bool)
        lanes_per_block = np.add.reduceat(in_frontier, np.arange(0, n_vertices, 32))
        active_blocks = np.flatnonzero(lanes_per_block)
        # Spend the warp budget on steady-state levels: while the frontier
        # is still thin (a lane or two per warp), expand it without
        # emitting trace warps — real benchmark harnesses skip the trivial
        # warm-up hops the same way.
        emit = bool(len(active_blocks)) and lanes_per_block[active_blocks].mean() >= 3.0
        for blk in active_blocks:
            vs = np.arange(blk * 32, min(blk * 32 + 32, n_vertices))
            mask = in_frontier[vs]
            wb = None
            if emit and warps_emitted < max_frontier_warps:
                wb = tb.new_warp()
                warps_emitted += 1
                # frontier flags + row_ptr: consecutive ids, coalesced
                wb.compute(6).load_stream(a_frontier, int(vs[0]))
                wb.compute(2).load_stream(a_rowptr, int(vs[0]))
            deg = np.where(mask, row_ptr[vs + 1] - row_ptr[vs], 0)
            steps = _edge_steps(deg, max_edge_steps)
            for k in range(steps):
                active = deg > k
                if not active.any():
                    break
                eidx = np.minimum(row_ptr[vs] + k, len(col) - 1)
                nbr = col[eidx]
                if wb is not None:
                    # col_idx[e]: active lanes walk their adjacency runs
                    wb.compute(2).load_gather(
                        a_col, [int(e) if a else None for e, a in zip(eidx, active)]
                    )
                    # dist[neighbor]: the data-dependent gather (highest MAI)
                    wb.compute(1).load_gather(
                        a_dist, [int(x) if a else None for x, a in zip(nbr, active)]
                    )
                discovered = []
                for x, a in zip(nbr, active):
                    if a and dist[x] < 0:
                        dist[x] = level + 1
                        next_frontier[x] = True
                        discovered.append(int(x))
                    else:
                        discovered.append(None)
                if wb is not None and any(d is not None for d in discovered):
                    wb.store_gather(a_dist, discovered)
            if wb is not None:
                wb.compute(4)
        in_frontier = next_frontier
        level += 1
    return tb.build()


@settings(max_examples=60, deadline=None)
@given(
    n_vertices=st.integers(1, 1500).filter(lambda n: n % 32),
    avg_degree=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**16),
    max_edge_steps=st.integers(1, 6),
    max_frontier_warps=st.integers(1, 40),
    n_sources=st.integers(1, 8),
)
# The budget runs out inside a level.
@example(n_vertices=1000, avg_degree=5.0, seed=1, max_edge_steps=6,
         max_frontier_warps=20, n_sources=2)
# Several emitting levels that each reach the short tail block.
@example(n_vertices=45, avg_degree=4.0, seed=0, max_edge_steps=3,
         max_frontier_warps=40, n_sources=3)
def test_bfs_matches_scalar_reference(
    n_vertices, avg_degree, seed, max_edge_steps, max_frontier_warps, n_sources
):
    """The vectorized level expansion emits the scalar loop's exact trace:
    short tail blocks, every edge-step cap, budgets that run out
    mid-level, and few sources (long warm-up)."""
    config = SimConfig().small()
    kwargs = dict(
        n_vertices=n_vertices,
        avg_degree=avg_degree,
        seed=seed,
        max_edge_steps=max_edge_steps,
        max_frontier_warps=max_frontier_warps,
        n_sources=n_sources,
    )
    assert trace_fingerprint(bfs_trace(config, **kwargs)) == trace_fingerprint(
        scalar_bfs_trace(config, **kwargs)
    )


def _regen() -> None:
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    reference = {}
    for case in CASES:
        key = case_key(*case)
        reference[key] = fingerprint(*case)
        print(f"{key:28s} {reference[key]['sha'][:12]} "
              f"({reference[key]['warps']} warps)")
    with open(FIXTURE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
