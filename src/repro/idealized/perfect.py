"""Idealized opportunity models (Fig. 4).

Two hypothetical systems bound the benefit of warp-aware scheduling:

* **Perfect coalescing** — every vector load produces exactly one memory
  request.  Realized as a trace transform: all lanes of each memory op are
  redirected to the op's first line.  The paper measures ~5x speedup
  (it removes bandwidth demand *and* divergence) and calls it unrealizable.

* **Zero latency divergence** — a memory controller, registered as the
  ``zero-div`` scheduler (:mod:`repro.mc.zerodiv`).
"""

from __future__ import annotations

from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

__all__ = ["perfect_coalescing"]


def perfect_coalescing(kernel: KernelTrace) -> KernelTrace:
    """Transform a trace so every memory op touches exactly one line."""
    new_warps = []
    for w in kernel.warps:
        segs = []
        for s in w.segments:
            if s.mem is None:
                segs.append(Segment(s.compute_cycles, None))
                continue
            first = next((a for a in s.mem.lane_addrs if a is not None), None)
            if first is None:
                segs.append(Segment(s.compute_cycles, None))
                continue
            base = first & ~127
            lanes = [
                None if a is None else base + (i * 4) % 128
                for i, a in enumerate(s.mem.lane_addrs)
            ]
            segs.append(Segment(s.compute_cycles, MemOp(s.mem.is_write, lanes)))
        new_warps.append(WarpTrace(w.sm_id, w.warp_id, segs))
    return KernelTrace(kernel.name + "+perfect-coalescing", new_warps)
