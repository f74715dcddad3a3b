"""Trace-construction helpers shared by all workload generators.

``Layout`` is a bump allocator over the simulated physical address space
(GPU kernels see a flat allocation; we keep arrays 256B-aligned so the
interleaving of §II-C applies as on hardware).

``TraceBuilder``/``WarpBuilder`` accumulate per-warp segments with
convenience emitters:

* ``load_stream``  — 32 consecutive 4B elements: perfectly coalesced,
  exactly one 128B request; its lanes stay a ``range`` (48 bytes, where
  a list of 32 ints costs about 1.3 KB);
* ``load_gather``  — arbitrary per-lane element indices: the coalescer
  will merge what it can (this is where MAI comes from);
* matching ``store_*`` variants.

``draw_prefix`` lets a generator keep only the head of a large random
draw without moving any later draw of the same ``Generator``;
``draw_chunks`` gives the bounds of the pieces such a draw is taken in.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.workloads.trace import KernelTrace, MemOp, Segment, WarpTrace

__all__ = [
    "Layout",
    "TraceBuilder",
    "WarpBuilder",
    "draw_chunks",
    "draw_prefix",
    "ELEM_BYTES",
]

ELEM_BYTES = 4  # all arrays hold 32-bit elements

#: Values per call when a draw is taken in pieces (:func:`draw_chunks`):
#: 512 KB of float64 or int64.
_DRAW_CHUNK = 65_536


def draw_chunks(total: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` bounds splitting ``[start, total)`` into consecutive
    pieces of at most ``_DRAW_CHUNK`` values, in ascending order."""
    for lo in range(start, total, _DRAW_CHUNK):
        yield lo, min(lo + _DRAW_CHUNK, total)


def draw_prefix(
    draw: Callable[[int], np.ndarray], total: int, keep: int
) -> np.ndarray:
    """The first ``keep`` values of ``draw(total)``, leaving the generator
    where ``draw(total)`` would.

    ``draw(n)`` takes ``n`` values from one NumPy ``Generator``, e.g.
    ``lambda n: rng.integers(0, 9, size=n)``.  A Generator fills an array
    value by value from its bit stream, so ``draw(a)`` followed by
    ``draw(b)`` yields the values of ``draw(a + b)`` and leaves the same
    state (``tests/test_trace_identity.py`` pins this per distribution).
    The tail is drawn and dropped in :func:`draw_chunks` pieces, so it
    never exists as one full-size array.
    """
    keep = min(keep, total)
    head = draw(keep)
    for lo, hi in draw_chunks(total, keep):
        draw(hi - lo)
    return head


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
        self._emit(MemOp(False, self._stream_lanes(base, first_elem, elem_bytes)))
        return self

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
        self._emit(MemOp(True, self._stream_lanes(base, first_elem, elem_bytes)))
        return self

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
