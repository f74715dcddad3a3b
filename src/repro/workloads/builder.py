"""Trace-construction helpers shared by all workload generators.

``Layout`` is a bump allocator over the simulated physical address space
(GPU kernels see a flat allocation; we keep arrays 256B-aligned so the
interleaving of §II-C applies as on hardware).

``TraceBuilder``/``WarpBuilder`` accumulate per-warp segments with
convenience emitters:

* ``load_stream``  — 32 consecutive 4B elements: perfectly coalesced,
  exactly one 128B request;
* ``load_gather``  — arbitrary per-lane element indices: the coalescer
  will merge what it can (this is where MAI comes from);
* matching ``store_*`` variants.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

__all__ = ["Layout", "TraceBuilder", "WarpBuilder", "chunk_lanes", "ELEM_BYTES"]

ELEM_BYTES = 4  # all arrays hold 32-bit elements


class Layout:
    """Bump allocator for simulated device arrays."""

    def __init__(self, base: int = 0, alignment: int = 256, capacity: int = 768 << 20):
        self.cursor = base
        self.alignment = alignment
        self.capacity = capacity
        self.arrays: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, n_elems: int, elem_bytes: int = ELEM_BYTES) -> int:
        """Reserve an array; returns its base byte address."""
        size = n_elems * elem_bytes
        base = (self.cursor + self.alignment - 1) // self.alignment * self.alignment
        if base + size > self.capacity:
            raise MemoryError(
                f"layout overflow allocating {name}: {base + size} > {self.capacity}"
            )
        self.cursor = base + size
        self.arrays[name] = (base, size)
        return base


class WarpBuilder:
    """Accumulates the segment list of one warp."""

    def __init__(self, sm_id: int, warp_id: int, warp_size: int = 32) -> None:
        self.sm_id = sm_id
        self.warp_id = warp_id
        self.warp_size = warp_size
        self.segments: list[Segment] = []
        self._pending_compute = 0

    # -- compute ------------------------------------------------------------
    def compute(self, cycles: int) -> "WarpBuilder":
        self._pending_compute += max(0, int(cycles))
        return self

    def _emit(self, mem: Optional[MemOp]) -> None:
        self.segments.append(Segment(self._pending_compute, mem))
        self._pending_compute = 0

    # -- memory ops -----------------------------------------------------------
    def _lanes_from_elems(
        self, base: int, elem_idx: Sequence[Optional[int]], elem_bytes: int
    ) -> list[Optional[int]]:
        """Lane byte addresses from Python-int indices; ``None`` = masked."""
        lanes = [
            None if e is None else base + e * elem_bytes
            for e in elem_idx[: self.warp_size]
        ]
        return lanes + [None] * (self.warp_size - len(lanes))

    def _stream_lanes(self, base: int, first_elem: int, elem_bytes: int) -> range:
        start = base + first_elem * elem_bytes
        return range(start, start + self.warp_size * elem_bytes, elem_bytes)

    def load_gather(
        self,
        base: int,
        elem_idx: Sequence[Optional[int]],
        elem_bytes: int = ELEM_BYTES,
    ) -> "WarpBuilder":
        self._emit(MemOp(False, self._lanes_from_elems(base, elem_idx, elem_bytes)))
        return self

    def load_stream(
        self, base: int, first_elem: int, elem_bytes: int = ELEM_BYTES
    ) -> "WarpBuilder":
        return self.load_addresses(self._stream_lanes(base, first_elem, elem_bytes))

    def store_gather(
        self,
        base: int,
        elem_idx: Sequence[Optional[int]],
        elem_bytes: int = ELEM_BYTES,
    ) -> "WarpBuilder":
        self._emit(MemOp(True, self._lanes_from_elems(base, elem_idx, elem_bytes)))
        return self

    def store_stream(
        self, base: int, first_elem: int, elem_bytes: int = ELEM_BYTES
    ) -> "WarpBuilder":
        return self.store_addresses(self._stream_lanes(base, first_elem, elem_bytes))

    def load_addresses(self, lane_addrs: Sequence[Optional[int]]) -> "WarpBuilder":
        """Raw byte-address variant (synthetic generator)."""
        self._emit(MemOp(False, list(lane_addrs)))
        return self

    def store_addresses(self, lane_addrs: Sequence[Optional[int]]) -> "WarpBuilder":
        self._emit(MemOp(True, list(lane_addrs)))
        return self

    def finish(self) -> WarpTrace:
        if self._pending_compute:
            self._emit(None)
        return WarpTrace(self.sm_id, self.warp_id, self.segments)


class TraceBuilder:
    """Builds a :class:`KernelTrace`, assigning warps to SMs round-robin."""

    def __init__(self, name: str, num_sms: int, warp_size: int = 32) -> None:
        self.name = name
        self.num_sms = num_sms
        self.warp_size = warp_size
        self._warps: list[WarpBuilder] = []
        self._next_warp_per_sm = [0] * num_sms
        self._next_sm = 0

    def new_warp(self) -> WarpBuilder:
        sm = self._next_sm
        self._next_sm = (self._next_sm + 1) % self.num_sms
        wid = self._next_warp_per_sm[sm]
        self._next_warp_per_sm[sm] += 1
        wb = WarpBuilder(sm, wid, self.warp_size)
        self._warps.append(wb)
        return wb

    def build(self) -> KernelTrace:
        return KernelTrace(self.name, [wb.finish() for wb in self._warps])

    @property
    def num_warps(self) -> int:
        return len(self._warps)


def chunk_lanes(values: np.ndarray, warp_size: int = 32) -> list[np.ndarray]:
    """Split a flat element-index array into per-warp lane groups."""
    return [values[i : i + warp_size] for i in range(0, len(values), warp_size)]
