"""Naive First-Come First-Served controller (§III-A).

Reads are moved into the per-bank command queues in strict global arrival
order.  The command scheduler still interleaves banks, but no row-locality
reordering ever happens — the paper uses this to show why FCFS wastes
bandwidth and fails to keep warp-groups together anyway (per-bank queue
occupancies diverge).
"""

from __future__ import annotations

from collections import deque

from repro.core.request import MemoryRequest
from repro.mc.base import MemoryController

__all__ = ["FCFSController"]


class FCFSController(MemoryController):
    name = "fcfs"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fifo: deque[MemoryRequest] = deque()

    def _accept_read(self, req: MemoryRequest) -> None:
        self._fifo.append(req)

    def _sorter_empty(self) -> bool:
        return not self._fifo

    def _schedule_reads(self, now: int) -> None:
        while self._fifo and self._fifo[0].bank not in self.cq.full:
            self.cq.insert(self._fifo.popleft(), now)
