"""A GDDR5 channel: banks, bank groups, shared command and data buses.

The channel owns every cross-bank timing constraint:

* command bus — one command per command clock (tCK);
* tRRD — minimum spacing between ACTs to different banks;
* tFAW — at most four ACTs in any tFAW window (GDDR5's stronger power
  delivery gives it a low tFAW; the value comes from the timing config);
* tCCDL / tCCDS — column-command spacing within / across bank groups (the
  bank-group advantage of GDDR5 that the baseline GMC command scheduler
  exploits);
* data-bus occupancy and read<->write turnaround (tWTR, tRTRS).

All methods are expressed as *earliest-issue queries* plus *issue actions*
so a memory controller can ask "when could I do X?" without committing.
"""

from __future__ import annotations

from repro.core.config import DRAMOrgConfig, DRAMTimingConfig
from repro.dram.bank import Bank

__all__ = ["Channel"]


class Channel:
    """Timing-accurate model of one 64-bit GDDR5 channel (single rank)."""

    def __init__(self, org: DRAMOrgConfig, timing: DRAMTimingConfig) -> None:
        self.org = org
        self.t = timing
        self.bursts_per_access = org.bursts_per_access
        self.banks = [
            Bank(i, i // org.banks_per_group) for i in range(org.banks_per_channel)
        ]
        # Hot timing parameters, resolved once (the earliest-issue queries
        # run per candidate bank per pump wake — property indirection on
        # the config object is measurable there).  Each pairwise spacing
        # is the *total* floor between two commands with the tCK
        # command-bus term folded in: that is bit-identical to tracking
        # tCK separately, because ``next_cmd_free`` (last command of any
        # kind + tCK) always dominates ``last_<kind>`` + tCK.  So every
        # query is a max() over adds with no parameter branches left.
        tck = timing.tck_ps
        self._tck = tck
        self._act_act = max(tck, timing.trrd_ps)  # tRRD is group-blind
        self._ccd_diff = max(tck, timing.tccds_ps)
        self._ccd_same = max(tck, timing.tccdl_ps)
        self._rd_lead = timing.tcas_ps
        self._wr_lead = timing.twl_ps
        self._rd2wr = timing.trtrs_ps - timing.twl_ps
        self._wr2rd = timing.twtr_ps
        self._tfaw = timing.tfaw_ps
        self._tburst = timing.tburst_ps
        #: Bumped on every timing-state mutation (any command issue; the
        #: refresh gate bumps it too when it adjusts bank/bus state).
        #: Earliest-issue answers are pure functions of (state, now) with
        #: ``earliest(t1) = max(t1, earliest(t0))`` for t1 >= t0 while the
        #: version holds, so controllers may cache them until it changes.
        self.version = 0
        self.next_cmd_free = 0  # command bus
        self.last_act_any = -(10**15)  # tRRD tracking
        self.act_window: list[int] = []  # last 4 ACT instants (tFAW)
        self.last_col_cmd = -(10**15)
        self.last_col_group = -1
        self.last_read_data_end = -(10**15)
        self.last_write_data_end = -(10**15)
        self.data_bus_free = 0
        self.data_bus_busy_ps = 0
        self.commands_issued = 0
        # Optional protocol audit trail (see repro.dram.validate).
        self.log = None

    # ------------------------------------------------------------------
    # earliest-issue queries
    # ------------------------------------------------------------------
    def earliest_act(self, bank_idx: int, now: int) -> int:
        b = self.banks[bank_idx]
        # The -(10**15) sentinels need no guard: sentinel + spacing stays
        # far below any reachable ``now`` and loses every max().
        t = max(now, b.earliest_act, self.next_cmd_free, self.last_act_any + self._act_act)
        if len(self.act_window) >= 4:
            t = max(t, self.act_window[-4] + self._tfaw)
        return t

    def earliest_pre(self, bank_idx: int, now: int) -> int:
        b = self.banks[bank_idx]
        return max(now, b.earliest_pre, self.next_cmd_free)

    def earliest_col(self, bank_idx: int, is_write: bool, now: int) -> int:
        b = self.banks[bank_idx]
        # Column-to-column spacing depends on bank-group relationship.
        ccd = self._ccd_same if b.group == self.last_col_group else self._ccd_diff
        if is_write:
            # Write data must not start before the bus frees (plus a
            # turnaround bubble after read data).
            return max(
                now,
                b.earliest_col,
                self.next_cmd_free,
                self.last_col_cmd + ccd,
                self.data_bus_free - self._wr_lead,
                self.last_read_data_end + self._rd2wr,
            )
        # tWTR: end of write data -> next read *command*.
        return max(
            now,
            b.earliest_col,
            self.next_cmd_free,
            self.last_col_cmd + ccd,
            self.data_bus_free - self._rd_lead,
            self.last_write_data_end + self._wr2rd,
        )

    def scan_terms(self, now: int) -> tuple[int, int, int, int, int, int, int]:
        """Channel-global earliest-issue terms, hoisted for a bank scan.

        Returns ``(base, act, col_rd, col_wr, ccd_same_t, ccd_diff_t,
        col_group)``: the per-command floors that do not depend on the
        candidate bank.  A command scheduler visiting every bank combines
        them with per-bank state only::

            PRE: max(base, bank.earliest_pre)
            ACT: max(act, bank.earliest_act)
            RD : max(col_rd, ccd_t(bank.group), bank.earliest_col)
            WR : max(col_wr, ccd_t(bank.group), bank.earliest_col)

        where ``ccd_t(group)`` is ``ccd_same_t`` when ``group ==
        col_group`` else ``ccd_diff_t``.  Each formula folds exactly the
        terms of the corresponding ``earliest_*`` query, so the combined
        value is bit-identical to calling it — the scan just stops
        recomputing the shared terms per bank.
        """
        base = now if now > self.next_cmd_free else self.next_cmd_free
        act = max(base, self.last_act_any + self._act_act)
        if len(self.act_window) >= 4:
            faw = self.act_window[-4] + self._tfaw
            if faw > act:
                act = faw
        col_rd = max(
            base,
            self.data_bus_free - self._rd_lead,
            self.last_write_data_end + self._wr2rd,
        )
        col_wr = max(
            base,
            self.data_bus_free - self._wr_lead,
            self.last_read_data_end + self._rd2wr,
        )
        last_col = self.last_col_cmd
        return (
            base,
            act,
            col_rd,
            col_wr,
            last_col + self._ccd_same,
            last_col + self._ccd_diff,
            self.last_col_group,
        )

    # ------------------------------------------------------------------
    # issue actions (caller must respect the earliest-issue times)
    # ------------------------------------------------------------------
    def _consume_cmd_bus(self, now: int) -> None:
        self.next_cmd_free = now + self._tck
        self.commands_issued += 1
        self.version += 1

    def issue_act(self, bank_idx: int, row: int, now: int) -> None:
        b = self.banks[bank_idx]
        b.do_activate(now, row, self.t)
        self.last_act_any = now
        self.act_window.append(now)
        if len(self.act_window) > 8:
            del self.act_window[:4]
        self._consume_cmd_bus(now)
        if self.log is not None:
            from repro.dram.commands import CommandKind

            self.log.record(now, CommandKind.ACT, bank_idx, row)

    def issue_pre(self, bank_idx: int, now: int) -> None:
        self.banks[bank_idx].do_precharge(now, self.t)
        self._consume_cmd_bus(now)
        if self.log is not None:
            from repro.dram.commands import CommandKind

            self.log.record(now, CommandKind.PRE, bank_idx)

    def issue_col(self, bank_idx: int, is_write: bool, now: int) -> int:
        """Issue RD/WR (one line-sized access); returns data completion time."""
        b = self.banks[bank_idx]
        data_end = b.do_column(now, is_write, self.t, self.bursts_per_access)
        self.last_col_cmd = now
        self.last_col_group = b.group
        self.data_bus_free = data_end
        self.data_bus_busy_ps += self.bursts_per_access * self._tburst
        if is_write:
            self.last_write_data_end = data_end
        else:
            self.last_read_data_end = data_end
        self._consume_cmd_bus(now)
        if self.log is not None:
            from repro.dram.commands import CommandKind

            lead = self.t.twl_ps if is_write else self.t.tcas_ps
            self.log.record(
                now,
                CommandKind.WR if is_write else CommandKind.RD,
                bank_idx,
                b.open_row if b.open_row is not None else -1,
                data_start_ps=now + lead,
                data_end_ps=data_end,
            )
        return data_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        open_rows = {b.index: b.open_row for b in self.banks if b.open_row is not None}
        return f"Channel(open={open_rows}, cmd_free={self.next_cmd_free})"
