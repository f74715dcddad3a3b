"""Per-bank command queues (Fig. 1, box 5).

The transaction scheduler deposits *requests* here; the command scheduler
walks the queue heads and emits the actual PRE/ACT/RD/WR command sequences
in strict queue order per bank (the paper's command scheduler never reorders
within a bank so as not to disturb transaction-scheduler decisions).

The queues also maintain the bookkeeping the warp-aware policies need:

* ``last_sched_row``   — row address of the last request scheduled to each
  bank; the WG score predicts hit/miss against it (§IV-B);
* ``queue_score``      — sum of the scores of requests pending per bank,
  the "queuing latency score" of §IV-B;
* ``hits_since_row_change`` — planning-time analog of the per-bank 5-bit
  MERB counter of §IV-D (row-hit requests scheduled since the last
  scheduled row change);
* ``full``             — the banks whose queue holds ``depth`` or more
  entries, the banks a transaction scheduler must skip.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.config import DRAMOrgConfig
from repro.core.request import MemoryRequest

__all__ = ["CommandQueues", "SCORE_HIT", "SCORE_MISS"]

SCORE_HIT = 1  # tCAS ~ 12 ns
SCORE_MISS = 3  # tRP + tRCD + tCAS ~ 36 ns


class CommandQueues:
    """All per-bank command queues of one controller."""

    def __init__(self, org: DRAMOrgConfig, depth: int) -> None:
        n = org.banks_per_channel
        self.org = org
        self.depth = depth
        self.queues: list[deque[MemoryRequest]] = [deque() for _ in range(n)]
        self.queue_score = [0] * n
        self.last_sched_row: list[Optional[int]] = [None] * n
        self.hits_since_row_change = [0] * n
        #: Banks with ``len(queue) >= depth``, exact under the WG-family
        #: whole-group overshoot (maintained by insert/pop).
        self.full: set[int] = set()
        # O(1) occupancy aggregates (maintained by insert/pop).
        self._total = 0
        self._reads = 0
        self._busy = 0
        #: Bumped on every insert/pop; consumers (the command scheduler's
        #: next-legal-issue cache, the incremental warp-group scores) may
        #: cache derived state until it moves.
        self.version = 0

    # -- scoring helpers ------------------------------------------------------
    def predicted_hit(self, bank: int, row: int) -> bool:
        """Would a request to (bank,row) be a row hit when it drains?"""
        return self.last_sched_row[bank] == row

    def request_score(self, bank: int, row: int) -> int:
        return SCORE_HIT if self.predicted_hit(bank, row) else SCORE_MISS

    # -- occupancy -------------------------------------------------------------
    def space(self, bank: int) -> int:
        return max(0, self.depth - len(self.queues[bank]))

    def occupancy(self, bank: int) -> int:
        return len(self.queues[bank])

    def total_occupancy(self) -> int:
        return self._total

    def busy_banks(self) -> int:
        """Number of banks with pending work (MERB table index)."""
        return self._busy

    def empty(self) -> bool:
        return self._total == 0

    def pending_reads(self) -> int:
        return self._reads

    # -- mutation ----------------------------------------------------------------
    def insert(self, req: MemoryRequest, now_ps: int) -> None:
        """Append a request to its bank queue, scoring it (§IV-B) and
        stamping ``t_scheduled``."""
        bank = req.bank
        score = self.request_score(bank, req.row)
        req.score = score
        q = self.queues[bank]
        if not q:
            self._busy += 1
        q.append(req)
        if len(q) >= self.depth:
            self.full.add(bank)
        self._total += 1
        if not req.is_write:
            self._reads += 1
        self.version += 1
        self.queue_score[bank] += score
        if score == SCORE_HIT:
            # The MERB counter counts row-hit *bursts* (§IV-D).
            self.hits_since_row_change[bank] = min(
                31, self.hits_since_row_change[bank] + self.org.bursts_per_access
            )
        else:
            self.hits_since_row_change[bank] = 0
        self.last_sched_row[bank] = req.row
        req.t_scheduled = now_ps

    def pop(self, bank: int) -> MemoryRequest:
        """Remove the head request after its column command issued."""
        q = self.queues[bank]
        req = q.popleft()
        if len(q) < self.depth:
            self.full.discard(bank)
        if not q:
            self._busy -= 1
        self._total -= 1
        if not req.is_write:
            self._reads -= 1
        self.version += 1
        self.queue_score[bank] -= req.score
        return req

    def head(self, bank: int) -> Optional[MemoryRequest]:
        q = self.queues[bank]
        return q[0] if q else None
