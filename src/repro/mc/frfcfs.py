"""First-Ready FCFS controller (Rixner et al. [42]).

Per bank: schedule the oldest request that hits the row the bank will have
open (first-ready), falling back to the oldest request outright.  This is
the classic bandwidth-oriented policy the GMC baseline refines; it has no
starvation guard beyond FCFS fallback and no streak limit.
"""

from __future__ import annotations

from repro.core.request import MemoryRequest
from repro.mc.row_sorter import RowSorterController

__all__ = ["FRFCFSController"]


class FRFCFSController(RowSorterController):
    name = "frfcfs"

    def _next_for_bank(self, bank: int, now: int) -> MemoryRequest:
        last = self.cq.last_sched_row[bank]
        if last is not None and self.sorter.has_row(bank, last):
            return self.sorter.pop(bank, last)
        return self.sorter.pop(bank, self.sorter.oldest_in_bank(bank).row)
