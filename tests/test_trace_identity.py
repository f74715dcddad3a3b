"""Trace-identity regression gate for the workload generators.

Generator speed-ups (a vectorized level expansion, a leaner
``WarpBuilder``) are pure optimizations: every trace they build must stay
byte-identical, and with it every simulated outcome downstream.  This
gate pins that claim against committed fingerprints taken on the code
before the speed-ups: for every registered benchmark at TINY, plus the
repository benchmark's algorithmic cells at their own scales, the trace's
JSON form must hash to the committed SHA-256 and hold the committed warp
count.  The module also keeps the code that leaner generators replaced,
each as the reference of a property test on small inputs: the scalar bfs
loop, the full-size spmv matrix and the one-shot ``random_csr``; and it
pins the NumPy behavior those generators rely on, that a ``Generator``
draw taken in pieces equals one draw (``draw_prefix``).

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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.workloads import builder
from repro.workloads.algorithms.graphs import _edge_steps, bfs_trace, random_csr
from repro.workloads.algorithms.sparse import spmv_trace
from repro.workloads.builder import Layout, TraceBuilder, draw_prefix
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


def one_shot_random_csr(
    n: int, avg_degree: float, rng: np.random.Generator, locality: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """``random_csr`` with each draw taken at full size in one call, as it
    was before ``col`` was filled in chunks, kept verbatim as its
    reference."""
    degrees = np.clip(
        rng.lognormal(mean=np.log(max(avg_degree, 1.0)), sigma=0.5, size=n), 1, 8 * avg_degree
    ).astype(np.int64)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    m = int(row_ptr[-1])
    col = np.empty(m, dtype=np.int64)
    local = rng.random(m) < locality
    src = np.repeat(np.arange(n), degrees)
    near = (src + rng.integers(-40, 41, size=m)) % n
    far = rng.integers(0, n, size=m)
    col[:] = np.where(local, near, far)
    return row_ptr, col


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    avg_degree=st.floats(1.0, 12.0),
    locality=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    chunk=st.integers(1, 700),
)
# 471 edges: chunks that split rows and end in a one-edge chunk, and
# chunks that divide the edge count.
@example(n=100, avg_degree=5.0, locality=0.7, seed=1, chunk=2)
@example(n=100, avg_degree=5.0, locality=0.7, seed=1, chunk=3)
def test_random_csr_matches_one_shot_reference(n, avg_degree, locality, seed, chunk):
    """Filling ``col`` chunk by chunk yields the one-shot graph and leaves
    the generator where the one-shot draws do, whether or not the edge
    count is a multiple of the chunk."""
    ref_rng = np.random.default_rng(seed)
    ref_ptr, ref_col = one_shot_random_csr(n, avg_degree, ref_rng, locality)
    rng = np.random.default_rng(seed)
    with mock.patch.object(builder, "_DRAW_CHUNK", chunk):
        row_ptr, col = random_csr(n, avg_degree, rng, locality)
    np.testing.assert_array_equal(row_ptr, ref_ptr)
    np.testing.assert_array_equal(col, ref_col)
    assert col.dtype == ref_col.dtype
    assert rng.random() == ref_rng.random()


def full_spmv_trace(
    config: SimConfig,
    n_rows: int = 150_000,
    avg_nnz: float = 8.0,
    seed: int = 23,
    max_nnz_steps: int = 8,
    max_warps: int = 1300,
) -> KernelTrace:
    """``spmv_trace`` building the whole matrix, as it did before it kept
    only the entries its warps read, kept verbatim as its reference."""
    rng = np.random.default_rng(seed)
    nnz_per_row = np.clip(
        rng.lognormal(np.log(avg_nnz), 0.5, size=n_rows), 1, 6 * avg_nnz
    ).astype(np.int64)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(nnz_per_row, out=row_ptr[1:])
    nnz = int(row_ptr[-1])
    # Banded-random sparsity: mostly near the diagonal, some far entries.
    src = np.repeat(np.arange(n_rows), nnz_per_row)
    near = (src + rng.integers(-64, 65, size=nnz)) % n_rows
    far = rng.integers(0, n_rows, size=nnz)
    cols = np.where(rng.random(nnz) < 0.7, near, far)

    lay = Layout()
    a_rowptr = lay.alloc("row_ptr", n_rows + 1)
    a_vals = lay.alloc("vals", nnz)
    a_cols = lay.alloc("cols", nnz)
    a_x = lay.alloc("x", n_rows)
    a_y = lay.alloc("y", n_rows)

    tb = TraceBuilder("spmv", config.gpu.num_sms, config.gpu.warp_size)
    warps_emitted = 0
    for base in range(0, n_rows, 32):
        if warps_emitted >= max_warps:
            break
        rows = np.arange(base, min(base + 32, n_rows))
        wb = tb.new_warp()
        warps_emitted += 1
        wb.compute(4).load_stream(a_rowptr, base)  # coalesced row_ptr
        deg = nnz_per_row[rows]
        steps = int(min(max_nnz_steps, deg.max(initial=0)))
        for k in range(steps):
            active = deg > k
            if not active.any():
                break
            eidx = np.minimum(row_ptr[rows] + k, nnz - 1)
            # vals/cols: each lane at its own cursor -> divergent gather
            wb.compute(1).load_gather(
                a_vals, [int(e) if a else None for e, a in zip(eidx, active)]
            )
            wb.load_gather(
                a_cols, [int(e) if a else None for e, a in zip(eidx, active)]
            )
            xs = cols[eidx]
            # x[col]: the irregular gather
            wb.compute(2).load_gather(
                a_x, [int(x) if a else None for x, a in zip(xs, active)]
            )
        wb.compute(6)
        wb.store_stream(a_y, base)
    return tb.build()


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.integers(1, 700),
    avg_nnz=st.floats(1.0, 8.0),
    seed=st.integers(0, 2**16),
    max_nnz_steps=st.integers(1, 8),
    budget=st.sampled_from(["below", "at", "past"]),
    spare=st.integers(0, 3),
    chunk=st.integers(1, 500),
)
# The last warp is a short tail block, and the budget ends on it.
@example(n_rows=45, avg_nnz=3.0, seed=0, max_nnz_steps=8, budget="at",
         spare=0, chunk=7)
# Budget ends below the last row with the deepest edge-step cap.
@example(n_rows=640, avg_nnz=8.0, seed=1, max_nnz_steps=8, budget="below",
         spare=3, chunk=500)
def test_spmv_matches_full_size_reference(
    n_rows, avg_nnz, seed, max_nnz_steps, budget, spare, chunk
):
    """Keeping only the entries the warps read emits the full-size
    matrix's exact trace, whether the warp budget ends below, at or past
    the last row, for every edge-step cap."""
    blocks = -(-n_rows // 32)
    max_warps = {
        "below": max(1, blocks - 1 - spare),
        "at": blocks,
        "past": blocks + 1 + spare,
    }[budget]
    config = SimConfig().small()
    kwargs = dict(
        n_rows=n_rows,
        avg_nnz=avg_nnz,
        seed=seed,
        max_nnz_steps=max_nnz_steps,
        max_warps=max_warps,
    )
    with mock.patch.object(builder, "_DRAW_CHUNK", chunk):
        trace = spmv_trace(config, **kwargs)
    assert trace_fingerprint(trace) == trace_fingerprint(
        full_spmv_trace(config, **kwargs)
    )


#: Draws to split: the integer ranges and the double draw that spmv and
#: ``random_csr`` split, other ranges and an int32 dtype, and the normal
#: family.
DRAWS = {
    "integers-81": lambda rng, n: rng.integers(-40, 41, size=n),
    "integers-129": lambda rng, n: rng.integers(-64, 65, size=n),
    "integers-150000": lambda rng, n: rng.integers(0, 150_000, size=n),
    "integers-2**40": lambda rng, n: rng.integers(0, 1 << 40, size=n),
    "integers-int32": lambda rng, n: rng.integers(0, 150_000, size=n, dtype=np.int32),
    "random": lambda rng, n: rng.random(n),
    "lognormal": lambda rng, n: rng.lognormal(np.log(8.0), 0.5, size=n),
    "normal": lambda rng, n: rng.normal(0.0, 1.0, size=n),
    "exponential": lambda rng, n: rng.exponential(2.0, size=n),
}

DRAW_TOTAL = 200_000


def _whole_draw(draw) -> tuple[np.ndarray, float]:
    """One full draw, and the generator's next value after it."""
    rng = np.random.default_rng(7)
    values = draw(rng, DRAW_TOTAL)
    return values, rng.random()


@pytest.mark.parametrize("dist", DRAWS)
def test_generator_draw_in_pieces_equals_one_draw(dist):
    """The NumPy property behind ``draw_prefix`` and the chunked
    ``random_csr``: a draw split into pieces yields the values of one
    draw and leaves the generator in the same state."""
    draw = DRAWS[dist]
    whole, after = _whole_draw(draw)
    sizes = [1, 7, 65_536, 100_000, 3]
    sizes.append(DRAW_TOTAL - sum(sizes))
    rng = np.random.default_rng(7)
    pieces = np.concatenate([draw(rng, n) for n in sizes])
    np.testing.assert_array_equal(pieces, whole)
    assert rng.random() == after


@pytest.mark.parametrize("dist", DRAWS)
@pytest.mark.parametrize("keep", [0, 1, 35_000, DRAW_TOTAL - 1, DRAW_TOTAL])
def test_draw_prefix_matches_one_full_draw(dist, keep):
    """``draw_prefix`` returns the head of one full draw and leaves the
    generator where that draw does, for an empty and a whole prefix too."""
    draw = DRAWS[dist]
    whole, after = _whole_draw(draw)
    rng = np.random.default_rng(7)
    head = draw_prefix(lambda n: draw(rng, n), DRAW_TOTAL, keep)
    np.testing.assert_array_equal(head, whole[:keep])
    assert rng.random() == after


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
