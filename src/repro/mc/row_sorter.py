"""Baseline row sorter (Fig. 1, box 3) and the controller shell around it.

Incoming reads are sorted by (bank, row); requests to the same row merge
into a FIFO *stream* of row hits the transaction scheduler can service
back-to-back.  Per-row FIFOs preserve arrival order, which the age-based
starvation guard relies on.

:class:`RowSorterController` is the transaction scheduler shared by the
policies built on the sorter (GMC, FR-FCFS, SBWAS); each supplies only
its per-bank choice, ``_next_for_bank``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.request import MemoryRequest
from repro.mc.base import MemoryController

__all__ = ["RowSorter", "RowSorterController"]


class RowSorter:
    """Per-bank, per-row pending-read index."""

    def __init__(self, num_banks: int) -> None:
        self.num_banks = num_banks
        # banks[b] maps row -> deque of requests in arrival order.
        self.banks: list[dict[int, deque[MemoryRequest]]] = [
            {} for _ in range(num_banks)
        ]
        #: Banks with at least one pending request (maintained by
        #: add/pop/remove).
        self.pending: set[int] = set()
        self._count = 0

    def add(self, req: MemoryRequest) -> None:
        rows = self.banks[req.bank]
        stream = rows.get(req.row)
        if stream is None:
            rows[req.row] = deque((req,))
            self.pending.add(req.bank)
        else:
            stream.append(req)
        self._count += 1

    def pop(self, bank: int, row: int) -> MemoryRequest:
        rows = self.banks[bank]
        stream = rows[row]
        req = stream.popleft()
        if not stream:
            del rows[row]
            if not rows:
                self.pending.discard(bank)
        self._count -= 1
        return req

    def remove(self, req: MemoryRequest) -> None:
        """Remove a specific request (possibly mid-FIFO)."""
        rows = self.banks[req.bank]
        stream = rows[req.row]
        stream.remove(req)
        if not stream:
            del rows[req.row]
            if not rows:
                self.pending.discard(req.bank)
        self._count -= 1

    def rows_for(self, bank: int) -> dict[int, deque[MemoryRequest]]:
        return self.banks[bank]

    def has_row(self, bank: int, row: int) -> bool:
        return row in self.banks[bank]

    def oldest_in_bank(
        self, bank: int, exclude_row: Optional[int] = None
    ) -> Optional[MemoryRequest]:
        """Oldest pending request to a bank (front of some row FIFO),
        optionally ignoring one row (the stream currently being serviced)."""
        best: Optional[MemoryRequest] = None
        for row, stream in self.banks[bank].items():
            if row == exclude_row:
                continue
            head = stream[0]
            if best is None or head.t_mc_arrival < best.t_mc_arrival:
                best = head
        return best

    def stream_len(self, bank: int, row: int) -> int:
        stream = self.banks[bank].get(row)
        return len(stream) if stream else 0

    def __len__(self) -> int:
        return self._count

    def empty(self) -> bool:
        return self._count == 0


class RowSorterController(MemoryController):
    """Controller whose pending reads live in a :class:`RowSorter`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sorter = RowSorter(self.org.banks_per_channel)

    def _accept_read(self, req: MemoryRequest) -> None:
        self.sorter.add(req)

    def _sorter_empty(self) -> bool:
        return self.sorter.empty()

    def _schedule_reads(self, now: int) -> None:
        # Only a bank with both a pending request and queue room can take
        # one, and inserting touches no other bank's membership.  Banks go
        # in ascending order: SBWAS's per-warp counts couple them.
        pending = self.sorter.pending
        full = self.cq.full
        if pending <= full:
            return
        for bank in sorted(pending - full):
            while bank in pending and bank not in full:
                self.cq.insert(self._next_for_bank(bank, now), now)

    def _next_for_bank(self, bank: int, now: int) -> MemoryRequest:
        """Take the next request of a bank with pending requests out of
        the sorter."""
        raise NotImplementedError
