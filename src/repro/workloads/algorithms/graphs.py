"""Graph workloads: bfs, sssp (Lonestar/Rodinia), bh, sp (LonestarGPU).

Each generator *runs the algorithm on the host* over a synthetic input and
emits the per-lane addresses its GPU kernel would issue, so the memory
access irregularity is genuine: frontier-dependent gathers, neighbor-array
walks, tree descents and factor-graph message exchanges.

Layout note: arrays are placed by the bump allocator, so spatially adjacent
elements land in the same DRAM rows exactly as a real allocation would.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SimConfig
from repro.workloads.builder import Layout, TraceBuilder, draw_chunks
from repro.workloads.trace import KernelTrace

__all__ = ["random_csr", "bfs_trace", "sssp_trace", "bh_trace", "sp_trace"]


def random_csr(
    n: int, avg_degree: float, rng: np.random.Generator, locality: float = 0.3
) -> tuple[np.ndarray, np.ndarray]:
    """Random directed graph in CSR form with skewed degrees.

    ``locality`` is the fraction of edges pointing near their source —
    real graphs (meshes, road networks) have some, which gives warps their
    ~30% intra-warp row locality.

    ``col`` is filled in place, one :func:`draw_chunks` piece of edges at
    a time, in the order of one full-size draw each: every locality
    double, then every near offset, then every far target.  Only ``col``
    and the locality mask are ever full-size.
    """
    degrees = np.clip(
        rng.lognormal(mean=np.log(max(avg_degree, 1.0)), sigma=0.5, size=n), 1, 8 * avg_degree
    ).astype(np.int64)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    m = int(row_ptr[-1])
    chunks = list(draw_chunks(m))
    local = np.empty(m, dtype=bool)
    for lo, hi in chunks:
        local[lo:hi] = rng.random(hi - lo) < locality
    col = np.empty(m, dtype=np.int64)
    for lo, hi in chunks:
        # Rows [r0, r1) hold the chunk's edges; their sources are those
        # rows' ids repeated by degree, cut to the chunk.
        r0 = int(np.searchsorted(row_ptr, lo, side="right")) - 1
        r1 = int(np.searchsorted(row_ptr, hi, side="left"))
        skip = lo - int(row_ptr[r0])
        src = np.repeat(np.arange(r0, r1), degrees[r0:r1])[skip : skip + hi - lo]
        col[lo:hi] = (src + rng.integers(-40, 41, size=hi - lo)) % n
    for lo, hi in chunks:
        np.copyto(col[lo:hi], rng.integers(0, n, size=hi - lo), where=~local[lo:hi])
    return row_ptr, col


def _edge_steps(deg: np.ndarray, cap: int) -> int:
    return int(min(cap, deg.max(initial=0)))


def bfs_trace(
    config: SimConfig,
    n_vertices: int = 150_000,
    avg_degree: float = 5.0,
    seed: int = 11,
    max_edge_steps: int = 6,
    max_frontier_warps: int = 1200,
    n_sources: int = 64,
) -> KernelTrace:
    """Level-synchronous BFS (Rodinia bfs): one thread per frontier vertex.

    Multiple sources (benchmark-harness style) make the frontier dense
    quickly, so the emitted warps reflect the steady-state levels rather
    than the trivial first hops.

    Each level is expanded at once, in the kernel's (block, edge step,
    lane) order, and the walk ends at the warp budget: ``dist`` and the
    next frontier are local, so blocks past the budget are unobservable
    (docs/performance.md, "Trace generation").
    """
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
    # comes from the col_idx walks and dist[neighbor] gathers.  Per-thread
    # arrays pad the last block with threads that have no edges.
    n_blocks = -(-n_vertices // 32)
    degree = np.pad(np.diff(row_ptr), (0, n_blocks * 32 - n_vertices))
    in_frontier = np.zeros(n_blocks * 32, dtype=bool)
    sources = rng.integers(0, n_vertices, size=n_sources)
    in_frontier[sources] = True
    dist = np.full(n_vertices, -1, dtype=np.int64)
    dist[sources] = 0
    warps_emitted = 0
    level = 0
    while in_frontier.any() and warps_emitted < max_frontier_warps:
        lanes_per_block = in_frontier.reshape(n_blocks, 32).sum(axis=1)
        blocks = np.flatnonzero(lanes_per_block)
        # Spend the warp budget on steady-state levels: while the frontier
        # is still thin (a lane or two per warp), expand it without
        # emitting trace warps — real benchmark harnesses skip the trivial
        # warm-up hops the same way.
        emit = lanes_per_block[blocks].mean() >= 3.0
        if emit:
            blocks = blocks[: max_frontier_warps - warps_emitted]
        vs = blocks[:, None] * 32 + np.arange(32)
        deg = np.where(in_frontier[vs], degree[vs], 0)
        # walks[block, k, lane]: the lane reads its k-th edge at step k.
        walks = deg[:, None, :] > np.arange(_edge_steps(deg, max_edge_steps))[:, None]
        cand = np.flatnonzero(walks)  # (block, step, lane) order
        row, k, lane = np.unravel_index(cand, walks.shape)
        eidx = row_ptr[vs[row, lane]] + k
        nbr = col[eidx]
        # First candidate per unvisited neighbor, in the kernel's order.
        fresh = np.flatnonzero(dist[nbr] < 0)
        _, first = np.unique(nbr[fresh], return_index=True)
        found = fresh[first]
        dist[nbr[found]] = level + 1
        in_frontier = np.zeros_like(in_frontier)
        in_frontier[nbr[found]] = True
        level += 1
        if not emit:
            continue
        # (edge, neighbor, discovered) lanes per (block, step); None masks.
        lanes = np.full((3, *walks.shape), None, dtype=object)
        flat = lanes.reshape(3, -1)
        flat[0, cand] = eidx
        flat[1, cand] = nbr
        flat[2, cand[found]] = nbr[found]
        steps = walks.any(axis=2).sum(axis=1).tolist()
        for i, blk in enumerate(blocks.tolist()):
            edges, targets, discovered = lanes[:, i].tolist()
            wb = tb.new_warp()
            # frontier flags + row_ptr: consecutive ids, coalesced
            wb.compute(6).load_stream(a_frontier, blk * 32)
            wb.compute(2).load_stream(a_rowptr, blk * 32)
            for step in range(steps[i]):
                # col_idx[e]: active lanes walk their adjacency runs
                wb.compute(2).load_gather(a_col, edges[step])
                # dist[neighbor]: the data-dependent gather (highest MAI)
                wb.compute(1).load_gather(a_dist, targets[step])
                if any(d is not None for d in discovered[step]):
                    wb.store_gather(a_dist, discovered[step])
            wb.compute(4)
        warps_emitted += len(blocks)
    return tb.build()


def sssp_trace(
    config: SimConfig,
    n_vertices: int = 120_000,
    avg_degree: float = 5.0,
    seed: int = 13,
    rounds: int = 2,
    max_edge_steps: int = 6,
    max_warps: int = 1400,
) -> KernelTrace:
    """Bellman-Ford-style SSSP (LonestarGPU): edge relaxations with writes."""
    rng = np.random.default_rng(seed)
    row_ptr, col = random_csr(n_vertices, avg_degree, rng, locality=0.45)
    weights = rng.integers(1, 16, size=len(col))
    lay = Layout()
    a_rowptr = lay.alloc("row_ptr", n_vertices + 1)
    a_col = lay.alloc("col_idx", len(col))
    a_wts = lay.alloc("weights", len(col))
    a_dist = lay.alloc("dist", n_vertices)

    tb = TraceBuilder("sssp", config.gpu.num_sms, config.gpu.warp_size)
    dist = np.full(n_vertices, 1 << 30, dtype=np.int64)
    # Multi-source (benchmark-harness style): relaxations happen from the
    # first round on, not only around a single slowly-growing frontier.
    sources = rng.integers(0, n_vertices, size=max(64, n_vertices // 256))
    dist[sources] = 0
    warps_emitted = 0
    for _ in range(rounds):
        # Warps own 32 *consecutive* vertices (coalesced row_ptr/dist reads,
        # as in the real kernel); the block order is shuffled.
        blocks = rng.permutation(n_vertices // 32)
        for blk in blocks:
            if warps_emitted >= max_warps:
                return tb.build()
            vs = np.arange(blk * 32, blk * 32 + 32)
            wb = tb.new_warp()
            warps_emitted += 1
            wb.compute(4).load_gather(a_rowptr, vs.tolist())
            wb.compute(1).load_gather(a_dist, vs.tolist())
            deg = (row_ptr[vs + 1] - row_ptr[vs]).astype(np.int64)
            steps = _edge_steps(deg, max_edge_steps)
            for k in range(steps):
                active = deg > k
                if not active.any():
                    break
                eidx = np.minimum(row_ptr[vs] + k, len(col) - 1)
                wb.compute(2).load_gather(
                    a_col, [int(e) if a else None for e, a in zip(eidx, active)]
                )
                wb.load_gather(
                    a_wts, [int(e) if a else None for e, a in zip(eidx, active)]
                )
                nbr = col[eidx]
                wb.compute(1).load_gather(
                    a_dist, [int(x) if a else None for x, a in zip(nbr, active)]
                )
                relaxed = []
                for v, x, e, a in zip(vs, nbr, eidx, active):
                    if a and dist[v] + weights[e] < dist[x]:
                        dist[x] = dist[v] + weights[e]
                        relaxed.append(int(x))
                    else:
                        relaxed.append(None)
                if any(r is not None for r in relaxed):
                    wb.store_gather(a_dist, relaxed)
            wb.compute(6)
    return tb.build()


def bh_trace(
    config: SimConfig,
    n_bodies: int = 100_000,
    seed: int = 17,
    fanout: int = 8,
    max_warps: int = 1200,
) -> KernelTrace:
    """Barnes-Hut force pass (LonestarGPU bh): per-body tree descents.

    All lanes start at the root (perfectly coalesced, cache-friendly) and
    diverge as the walk deepens — the canonical irregular tree workload.
    """
    rng = np.random.default_rng(seed)
    # Implicit complete tree in an array; leaves own the bodies.
    depth = 1
    while fanout**depth < n_bodies:
        depth += 1
    n_nodes = sum(fanout**d for d in range(depth + 1))
    lay = Layout()
    a_nodes = lay.alloc("nodes", n_nodes * 4)  # (mass, cx, cy, cz) per node
    a_bodies = lay.alloc("bodies", n_bodies * 4)
    a_accel = lay.alloc("accel", n_bodies * 4)

    level_base = np.zeros(depth + 1, dtype=np.int64)
    for d in range(1, depth + 1):
        level_base[d] = level_base[d - 1] + fanout ** (d - 1)

    tb = TraceBuilder("bh", config.gpu.num_sms, config.gpu.warp_size)
    warps_emitted = 0
    # Bodies are spatially sorted (the real BH implementation sorts them),
    # so a warp's 32 bodies take *similar* tree paths: walks coalesce near
    # the root and fan out with depth.
    for base in range(0, n_bodies, 32):
        if warps_emitted >= max_warps:
            break
        ids = np.arange(base, min(base + 32, n_bodies))
        wb = tb.new_warp()
        warps_emitted += 1
        wb.compute(4).load_gather(a_bodies, (ids * 4).tolist())
        node = np.zeros(len(ids), dtype=np.int64)  # all at root
        for d in range(depth):
            wb.compute(6).load_gather(
                a_nodes, (node * 4 + level_base[d] * 4).tolist()
            )
            # Spatially similar bodies mostly pick the same child; a
            # quarter of the lanes deviate, so paths diverge gradually.
            majority = int(rng.integers(0, fanout))
            child = np.where(
                rng.random(len(ids)) < 0.75,
                majority,
                rng.integers(0, fanout, size=len(ids)),
            )
            node = node * fanout + child
        wb.compute(12)
        wb.store_gather(a_accel, (ids * 4).tolist())
    return tb.build()


def sp_trace(
    config: SimConfig,
    n_vars: int = 80_000,
    n_clauses: int = 200_000,
    seed: int = 19,
    rounds: int = 1,
    max_warps: int = 1300,
    community: int = 256,
) -> KernelTrace:
    """Survey propagation (LonestarGPU sp): message passing on a random
    3-SAT factor graph with community structure.  Per clause: gather the
    three variable states (spread over several channels), compute, scatter
    a message per literal."""
    rng = np.random.default_rng(seed)
    # Community structure: a clause's variables come from a window around
    # its home community (communities run along the clause index, so one
    # warp's 32 consecutive clauses gather from one window), with
    # occasional long-range literals.
    home = np.arange(n_clauses, dtype=np.int64) * n_vars // n_clauses
    offs = rng.integers(0, community, size=(n_clauses, 3))
    lits = (home[:, None] + offs) % n_vars
    remote = rng.random((n_clauses, 3)) < 0.15
    lits = np.where(remote, rng.integers(0, n_vars, size=(n_clauses, 3)), lits)
    lay = Layout()
    a_lits = lay.alloc("literals", n_clauses * 3)
    a_var = lay.alloc("var_state", n_vars)
    a_msg = lay.alloc("messages", n_clauses * 3)

    tb = TraceBuilder("sp", config.gpu.num_sms, config.gpu.warp_size)
    warps_emitted = 0
    for _ in range(rounds):
        blocks = rng.permutation(n_clauses // 32)
        for blk in blocks:
            if warps_emitted >= max_warps:
                return tb.build()
            cs = np.arange(blk * 32, blk * 32 + 32)
            wb = tb.new_warp()
            warps_emitted += 1
            wb.compute(4).load_gather(a_lits, (cs * 3).tolist())
            for j in range(3):
                vars_j = lits[cs, j]
                wb.compute(3).load_gather(a_var, vars_j.tolist())
            wb.compute(10)
            wb.store_gather(a_msg, (cs * 3 + rng.integers(0, 3)).tolist())
            # occasional variable-state update (biased decimation)
            if rng.random() < 0.4:
                wb.store_gather(a_var, lits[cs, 0].tolist())
    return tb.build()
