"""Baseline throughput-optimized GPU memory controller (GMC, §II-C).

The transaction scheduler services *streams* of row-hit requests per bank,
interleaving banks for bank-level parallelism.  Two fairness guards bound
latency:

* an age threshold — a request older than ``age_threshold_ns`` preempts the
  current stream of its bank;
* a maximum row-hit streak — a stream yields after ``max_row_hit_streak``
  consecutive requests even if more hits are pending.

This is the paper's performance baseline; every Fig. 8 number is IPC
normalized to this controller.
"""

from __future__ import annotations

from typing import Optional

from repro.core.request import MemoryRequest
from repro.mc.row_sorter import RowSorterController

__all__ = ["GMCController"]


class GMCController(RowSorterController):
    name = "gmc"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stream_row: list[Optional[int]] = [None] * self.org.banks_per_channel
        self._streak = [0] * self.org.banks_per_channel

    # -- stream selection --------------------------------------------------------
    def _next_for_bank(self, bank: int, now: int) -> MemoryRequest:
        rows = self.sorter.rows_for(bank)
        stream_row = self._stream_row[bank]
        stream_live = stream_row is not None and stream_row in rows
        # The oldest request *outside* the current stream: the starvation
        # guard and the streak limit both divert service to it.
        oldest_other = self.sorter.oldest_in_bank(
            bank, exclude_row=stream_row if stream_live else None
        )

        if (
            oldest_other is not None
            and now - oldest_other.t_mc_arrival > self.age_threshold_ps
        ):
            # Starvation guard: an over-age request hijacks the stream.
            target = oldest_other.row
        elif stream_live and self._streak[bank] < self.mc.max_row_hit_streak:
            target = stream_row
        elif oldest_other is not None:
            # Stream exhausted its streak (or emptied): rotate to the
            # oldest waiting row.
            target = oldest_other.row
        else:
            # Only the stream row has requests; keep going (streak resets).
            target = next(iter(rows))

        if target != stream_row:
            self._stream_row[bank] = target
            self._streak[bank] = 0
        self._streak[bank] += 1
        return self.sorter.pop(bank, target)
