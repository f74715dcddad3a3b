"""WG-Bw: bandwidth-optimized warp-group scheduling (§IV-D).

Extends WG-M with the MERB row-miss gate.  When the selected warp-group
wants to schedule a row-miss on a bank whose (scheduled) open row still has
pending row-hit requests from other warps, the transaction scheduler first
schedules enough of those hits to reach the MERB threshold for the current
number of busy banks — so the precharge/activate of the miss is hidden
behind transfers elsewhere — and then applies *orphan control*: if only one
or two hits would remain stranded on the row, they are scheduled too.

The deliberately bounded extra latency this adds to the row-miss
((MERB+2)·2·tCK worst case) buys back the bandwidth WG-M gives up.
"""

from __future__ import annotations

from repro.core.request import MemoryRequest
from repro.mc.merb import merb_table
from repro.mc.wgm import WGMController

__all__ = ["WGBwController"]

ORPHAN_LIMIT = 2


class WGBwController(WGMController):
    name = "wg-bw"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._merb = merb_table(self.t, self.org.banks_per_channel)

    def _insert_request(self, req: MemoryRequest, now: int) -> None:
        bank = req.bank
        open_row = self.cq.last_sched_row[bank]
        if (
            open_row is not None
            and open_row != req.row
            and not req.is_write
        ):
            self._merb_gate(bank, open_row, now)
        super()._insert_request(req, now)

    def _merb_gate(self, bank: int, open_row: int, now: int) -> None:
        """Schedule filler row-hits before allowing the row change.

        Fillers are capped at the bank queue's remaining space (minus one
        slot reserved for the row-miss request the caller is about to
        insert): the group's pick only guaranteed the bank is not full, so
        an uncapped gate could push the queue past ``command_queue_depth``.
        """
        room = self.cq.space(bank) - 1
        if room <= 0:
            return
        busy = self.cq.busy_banks()
        if not self.cq.queues[bank]:
            busy += 1  # the target bank is about to have work
        busy = max(1, min(busy, len(self._merb) - 1))
        need = self._merb[busy]

        pending = self.sorter.pending_hits(bank, open_row)
        while pending and room > 0 and self.cq.hits_since_row_change[bank] < need:
            filler = pending[0]
            self.sorter.remove_request(filler)
            self.cq.insert(filler, now)
            self.stats.merb_deferrals += 1
            room -= 1
            pending = self.sorter.pending_hits(bank, open_row)

        # Orphan control: don't strand one or two hits behind the row change.
        pending = self.sorter.pending_hits(bank, open_row)
        if 0 < len(pending) <= ORPHAN_LIMIT:
            for filler in list(pending)[:room]:
                self.sorter.remove_request(filler)
                self.cq.insert(filler, now)
                self.stats.orphan_rescues += 1
