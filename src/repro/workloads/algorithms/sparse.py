"""Sparse/unstructured compute: spmv (Parboil), cfd (Rodinia), kmeans (Rodinia).

``spmv`` uses the scalar-row CSR kernel (one thread per row): row pointers
are coalesced, but each thread walks its own nonzero run and gathers
``x[col]`` — the classic divergence pattern the paper's Fig. 2 measures.

``cfd`` models the Rodinia Euler solver: per-cell gathers of the four
neighboring cells' flow variables through an unstructured connectivity
array, spreading each warp across many channels (§VI reports cfd touching
~3.2 controllers per warp).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SimConfig
from repro.workloads.builder import Layout, TraceBuilder, draw_prefix
from repro.workloads.trace import KernelTrace

__all__ = ["spmv_trace", "cfd_trace", "kmeans_trace"]


def spmv_trace(
    config: SimConfig,
    n_rows: int = 150_000,
    avg_nnz: float = 8.0,
    seed: int = 23,
    max_nnz_steps: int = 8,
    max_warps: int = 1300,
) -> KernelTrace:
    """CSR SpMV, scalar-row kernel (Parboil spmv).

    The warps read rows below ``rows_used`` and, per row, at most
    ``max_nnz_steps`` entries from its start, so every entry they index
    (masked lanes included) lies below ``used``.  Only those ``cols`` are
    built: each full-size draw keeps its prefix and skips its tail
    (:func:`draw_prefix`), so ``row_ptr``, the layout and every address
    stay those of the whole matrix (docs/performance.md, "Trace memory").
    """
    rng = np.random.default_rng(seed)
    nnz_per_row = np.clip(
        rng.lognormal(np.log(avg_nnz), 0.5, size=n_rows), 1, 6 * avg_nnz
    ).astype(np.int64)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(nnz_per_row, out=row_ptr[1:])
    nnz = int(row_ptr[-1])
    rows_used = min(n_rows, 32 * max_warps)
    used = min(nnz, int(row_ptr[rows_used]) + max_nnz_steps)
    # Every row holds a nonzero, so the first ``used`` entries lie in the
    # first ``rows_used + max_nnz_steps`` rows.
    src_rows = min(n_rows, rows_used + max_nnz_steps)
    # Banded-random sparsity: mostly near the diagonal, some far entries.
    src = np.repeat(np.arange(src_rows), nnz_per_row[:src_rows])[:used]
    offsets = draw_prefix(lambda n: rng.integers(-64, 65, size=n), nnz, used)
    near = (src + offsets) % n_rows
    far = draw_prefix(lambda n: rng.integers(0, n_rows, size=n), nnz, used)
    # Nothing draws after this one, so its tail is never drawn.
    cols = np.where(rng.random(used) < 0.7, near, far)

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


def cfd_trace(
    config: SimConfig,
    n_cells: int = 120_000,
    seed: int = 29,
    iterations: int = 2,
    n_vars: int = 5,
    max_warps: int = 1300,
) -> KernelTrace:
    """Rodinia CFD Euler solver: per-cell neighbor-variable gathers."""
    rng = np.random.default_rng(seed)
    cells_all = np.arange(n_cells)
    # Unstructured tetrahedral connectivity: two close face-neighbors, one
    # a mesh-stride away, one remote (renumbering artifacts) — the mix that
    # spreads cfd warps over ~3 controllers.
    jitter = rng.integers(-8, 9, size=n_cells)
    nbrs = np.stack(
        [
            (cells_all + 1) % n_cells,
            (cells_all - 1 + jitter) % n_cells,
            (cells_all + 347 + jitter) % n_cells,
            rng.integers(0, n_cells, size=n_cells),
        ],
        axis=1,
    )  # (n_cells, 4)
    lay = Layout()
    a_nbr = lay.alloc("neighbors", n_cells * 4)
    a_vars = lay.alloc("variables", n_cells * n_vars)
    a_flux = lay.alloc("fluxes", n_cells * n_vars)
    a_area = lay.alloc("areas", n_cells)

    tb = TraceBuilder("cfd", config.gpu.num_sms, config.gpu.warp_size)
    warps_emitted = 0
    for _ in range(iterations):
        for base in range(0, n_cells, 32):
            if warps_emitted >= max_warps:
                return tb.build()
            cells = np.arange(base, min(base + 32, n_cells))
            wb = tb.new_warp()
            warps_emitted += 1
            wb.compute(6).load_stream(a_area, base)
            wb.load_gather(a_vars, (cells * n_vars).tolist())
            wb.compute(2).load_gather(a_nbr, (cells * 4).tolist())
            for j in range(4):
                nb = nbrs[cells, j]
                # neighbor variables: the irregular cross-channel gather
                wb.compute(8).load_gather(a_vars, (nb * n_vars).tolist())
            wb.compute(20)
            wb.store_gather(a_flux, (cells * n_vars).tolist())
    return tb.build()


def kmeans_trace(
    config: SimConfig,
    n_points: int = 150_000,
    n_features: int = 6,
    n_clusters: int = 24,
    seed: int = 31,
    iterations: int = 1,
    max_warps: int = 1300,
) -> KernelTrace:
    """Rodinia kmeans: point-major feature walks + centroid gathers.

    The Rodinia kernel keeps features point-major, so each thread strides
    by ``n_features`` — consecutive lanes touch different cache lines,
    producing several requests per load (MAI without any indirection).
    """
    rng = np.random.default_rng(seed)
    lay = Layout()
    a_feat = lay.alloc("features", n_points * n_features)
    a_cent = lay.alloc("centroids", n_clusters * n_features)
    a_member = lay.alloc("membership", n_points)

    tb = TraceBuilder("kmeans", config.gpu.num_sms, config.gpu.warp_size)
    assign = rng.integers(0, n_clusters, size=n_points)
    warps_emitted = 0
    for _ in range(iterations):
        for base in range(0, n_points, 32):
            if warps_emitted >= max_warps:
                return tb.build()
            pts = np.arange(base, min(base + 32, n_points))
            wb = tb.new_warp()
            warps_emitted += 1
            for f in range(n_features):
                # point-major stride: lanes 8 lines apart per feature step
                wb.compute(2).load_gather(a_feat, (pts * n_features + f).tolist())
                # current centroid's feature f: data-dependent, cache-warm
                wb.load_gather(a_cent, (assign[pts] * n_features + f).tolist())
            wb.compute(16)
            assign[pts] = rng.integers(0, n_clusters, size=len(pts))
            wb.store_stream(a_member, base)
    return tb.build()
