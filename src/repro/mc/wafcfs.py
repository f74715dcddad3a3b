"""WAFCFS: warp-aware first-come first-served (Yuan et al. [51], §VI-C2).

Models the complexity-effective proposal where the interconnect preserves
intra-warp request adjacency and the controller services warp-groups in
completion order with plain in-order FCFS inside each group.  For regular
workloads the preserved spatial locality makes a simple controller viable;
for irregular workloads in-order servicing achieves almost no row hits and
the paper measures an 11.2% *loss* versus the GMC baseline.
"""

from __future__ import annotations

import heapq

from repro.core.request import MemoryRequest
from repro.mc.base import MemoryController
from repro.mc.warp_sorter import WarpGroupEntry, WarpSorter

__all__ = ["WAFCFSController"]


class WAFCFSController(MemoryController):
    name = "wafcfs"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sorter = WarpSorter()
        # Min-heap of (completed_ps, seq, key): group service order.
        self._order: list[tuple[int, int, tuple[int, int]]] = []
        self._orderseq = 0
        self._queued: set[tuple[int, int]] = set()

    def _accept_read(self, req: MemoryRequest) -> None:
        entry = self.sorter.add(req, self.engine.now)
        self._maybe_enqueue(entry)

    def _sorter_empty(self) -> bool:
        return self.sorter.empty()

    def _mark_group_complete(self, key: tuple[int, int], expected: int) -> None:
        self.sorter.mark_complete(key, expected, self.engine.now)
        entry = self.sorter.get(key)
        if entry is not None:
            self._maybe_enqueue(entry)

    def _maybe_enqueue(self, entry: WarpGroupEntry) -> None:
        if entry.complete and not entry.empty and entry.key not in self._queued:
            self._queued.add(entry.key)
            heapq.heappush(
                self._order, (entry.completed_ps, self._orderseq, entry.key)
            )
            self._orderseq += 1

    def _schedule_reads(self, now: int) -> None:
        while self._order:
            _, _, key = self._order[0]
            entry = self.sorter.get(key)
            if entry is None or entry.empty:
                heapq.heappop(self._order)
                self._queued.discard(key)
                continue
            if not self.cq.full.isdisjoint(entry.by_bank):
                return
            # Strict arrival order inside the group: no row-locality sort.
            for req in sorted(
                entry.requests(), key=lambda r: (r.t_mc_arrival, r.req_id)
            ):
                self.sorter.remove_request(req)
                self.cq.insert(req, now)
            heapq.heappop(self._order)
            self._queued.discard(key)
        self._pressure_flush(now)

    def _pressure_flush(self, now: int) -> None:
        """Deadlock escape: with the read queue full and no complete group,
        drain the oldest group partially (see WGController for rationale)."""
        if self._reads_pending < self.mc.read_queue_entries and not self._read_overflow:
            return
        while self.sorter.groups and not self._order:
            oldest = min(
                (e for e in self.sorter.groups.values() if not e.empty),
                key=lambda e: e.arrival_ps,
                default=None,
            )
            if oldest is None:
                return
            for req in sorted(
                oldest.requests(), key=lambda r: (r.t_mc_arrival, r.req_id)
            ):
                self.sorter.remove_request(req)
                self.cq.insert(req, now)
