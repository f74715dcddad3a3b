"""SBWAS: single-bank warp-aware scheduling (Lakshminarayana et al. [32]).

The comparison scheduler of §VI-C1.  Per bank, a potential function decides
between (a) continuing the stream of row hits to the bank's open row and
(b) servicing a request from the warp with the fewest requests remaining
at this controller.  A profiling-derived parameter alpha in {0.25, 0.5,
0.75} biases the choice toward the short warp: we realize the bias as a
remaining-request threshold k = round(4*alpha) below which the shortest
warp's request preempts the row-hit stream.

Two fidelity-relevant differences from the WG family, both from the paper:

* the policy is per-bank only — no cross-bank or cross-channel view;
* writes are interleaved with reads rather than drained in batches, which
  costs bus turnarounds on write-heavy workloads (e.g. ``sad``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.request import MemoryRequest
from repro.mc.row_sorter import RowSorterController

__all__ = ["SBWASController"]


class SBWASController(RowSorterController):
    name = "sbwas"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._remaining: dict[tuple[int, int], int] = {}
        self._writes_in_sorter = 0
        k = round(4 * self.mc.sbwas_alpha)
        self.short_warp_threshold = max(0, min(4, k))

    # -- arrivals -----------------------------------------------------------
    def _accept_read(self, req: MemoryRequest) -> None:
        self.sorter.add(req)
        key = req.warp
        self._remaining[key] = self._remaining.get(key, 0) + 1

    def receive_write(self, req: MemoryRequest) -> None:
        # Writes bypass the drain machinery and join the sorter directly.
        req.t_mc_arrival = self.engine.now
        self.sorter.add(req)
        self._writes_in_sorter += 1
        self._kick()

    def _read_side_idle(self) -> bool:
        # No write-queue batching: the drain FSM must never trigger.
        return False

    def _update_drain_state(self) -> None:
        self.draining = False

    def _on_column_issued(self, req: MemoryRequest, now: int) -> None:
        if req.is_write:
            self._writes_in_sorter -= 1

    def pending_work(self) -> int:
        return super().pending_work() + self._writes_in_sorter

    # -- per-bank potential-function choice ------------------------------------
    def _next_for_bank(self, bank: int, now: int) -> MemoryRequest:
        rows = self.sorter.rows_for(bank)
        # Candidate (a): head of the *read* stream hitting the scheduled-open
        # row.  Writes are interleaved in plain arrival order (the paper
        # notes this difference from the drain-batching baseline erodes
        # SBWAS on write-heavy workloads: every write in the read stream
        # costs a bus turnaround).
        open_row = self.cq.last_sched_row[bank]
        hit: Optional[MemoryRequest] = None
        if open_row is not None and open_row in rows:
            for cand in rows[open_row]:
                if not cand.is_write:
                    hit = cand
                    break

        # Candidate (b): oldest read of the warp with fewest remaining
        # requests at this controller.
        short: Optional[MemoryRequest] = None
        short_left = None
        for stream in rows.values():
            for r in stream:
                if r.is_write:
                    continue
                left = self._remaining.get(r.warp, 1)
                cand = (left, r.t_mc_arrival, r.req_id)
                if short_left is None or cand < short_left:
                    short, short_left = r, cand

        if (
            short is not None
            and short_left[0] <= self.short_warp_threshold
            and short is not hit
        ):
            req = short
        elif hit is not None:
            req = hit
        else:
            req = self.sorter.oldest_in_bank(bank)
        self.sorter.remove(req)
        if not req.is_write:
            key = req.warp
            left = self._remaining.get(key, 0) - 1
            if left <= 0:
                self._remaining.pop(key, None)
            else:
                self._remaining[key] = left
        return req
