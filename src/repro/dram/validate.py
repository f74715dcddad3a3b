"""DRAM protocol auditor.

USIMM-style validation, streaming: a :class:`StreamingAuditor` installed
*as* a channel's log checks each command the instant it is recorded and
(by default) aborts the run with a precise diagnostic, so a scheduler bug
surfaces at the first illegal command instead of as wrong end-of-run
numbers.  This is what ``python -m repro run --audit`` wires up (see
:mod:`repro.guardrails`); with ``collect=True`` it keeps every violation
instead, which is how the tests audit a whole command stream.

The simulator's timestamp algebra is designed to make violations
impossible; the auditor is the independent proof (and the first tool to
reach for if a scheduler change ever produces suspicious timing).

Checked constraints:

====================  ====================================================
rule                  meaning
====================  ====================================================
CMD_BUS               one command per command clock
ACT_TO_ACT_SAME       tRC between ACTs to one bank
ACT_TO_ACT_DIFF       tRRD between ACTs to different banks
FAW                   at most 4 ACTs in any tFAW window
ACT_TO_COL            tRCD before a column command
ACT_TO_PRE            tRAS before precharging
PRE_TO_ACT            tRP before re-activating
RD_TO_PRE             tRTP after a read before precharge
WR_TO_PRE             write recovery (tWR after write data)
CCD                   tCCDL / tCCDS column spacing by bank group
DATA_BUS              data bursts never overlap
WTR                   end of write data to next read command
ROW_STATE             column commands only to the open row; no double ACT
====================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import DRAMOrgConfig, DRAMTimingConfig
from repro.dram.commands import CommandKind

__all__ = [
    "ProtocolViolationError",
    "StreamingAuditor",
    "Violation",
]


@dataclass(slots=True)
class Violation:
    rule: str
    time_ps: int
    bank: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.rule}] t={self.time_ps}ps bank={self.bank}: {self.detail}"


class ProtocolViolationError(RuntimeError):
    """A streaming audit found a protocol-illegal command (run aborted)."""

    def __init__(self, violation: Violation, channel_id: int = -1) -> None:
        self.violation = violation
        self.channel_id = channel_id
        where = f"channel {channel_id}: " if channel_id >= 0 else ""
        super().__init__(f"DRAM protocol violation: {where}{violation}")


@dataclass
class _BankState:
    open_row: Optional[int] = None
    last_act: int = -(1 << 60)
    last_rd: int = -(1 << 60)
    last_wr_data_end: int = -(1 << 60)
    last_pre: int = -(1 << 60)


class _AuditState:
    """Incremental protocol checker: one channel's rule state machine."""

    def __init__(self, timing: DRAMTimingConfig, org: DRAMOrgConfig) -> None:
        self.t = timing
        self.banks = [_BankState() for _ in range(org.banks_per_channel)]
        self.group_of = [
            b // org.banks_per_group for b in range(org.banks_per_channel)
        ]
        self.last_cmd_time = -(1 << 60)
        self.last_act_any = -(1 << 60)
        self.act_times: list[int] = []
        self.last_col_time = -(1 << 60)
        self.last_col_group = -1
        self.last_data_end = -(1 << 60)
        self.last_wr_data_end_any = -(1 << 60)

    def check(
        self,
        t: int,
        kind: CommandKind,
        bank: int,
        row: int,
        data_start_ps: int,
        data_end_ps: int,
    ) -> list[Violation]:
        """Check one command against the state so far; advance the state."""
        timing = self.t
        v: list[Violation] = []
        b = self.banks[bank]

        def bad(rule: str, detail: str) -> None:
            v.append(Violation(rule, t, bank, detail))

        if self.last_cmd_time > -(1 << 59) and t - self.last_cmd_time < timing.tck_ps:
            bad("CMD_BUS", f"{t - self.last_cmd_time}ps since previous command")
        self.last_cmd_time = t

        if kind == CommandKind.ACT:
            if b.open_row is not None:
                bad("ROW_STATE", "ACT with a row already open")
            if t - b.last_act < timing.trc_ps:
                bad("ACT_TO_ACT_SAME", f"tRC: {t - b.last_act}ps")
            if self.last_act_any > -(1 << 59) and t - self.last_act_any < timing.trrd_ps:
                bad("ACT_TO_ACT_DIFF", f"tRRD: {t - self.last_act_any}ps")
            if b.last_pre > -(1 << 59) and t - b.last_pre < timing.trp_ps:
                bad("PRE_TO_ACT", f"tRP: {t - b.last_pre}ps")
            recent = [x for x in self.act_times if t - x < timing.tfaw_ps]
            if len(recent) >= 4:
                bad("FAW", f"{len(recent) + 1} ACTs in tFAW window")
            self.act_times.append(t)
            if len(self.act_times) > 16:
                del self.act_times[:8]
            self.last_act_any = t
            b.last_act = t
            b.open_row = row

        elif kind == CommandKind.PRE:
            if b.open_row is None:
                bad("ROW_STATE", "PRE with no open row")
            if t - b.last_act < timing.tras_ps:
                bad("ACT_TO_PRE", f"tRAS: {t - b.last_act}ps")
            if b.last_rd > -(1 << 59) and t - b.last_rd < timing.trtp_ps:
                bad("RD_TO_PRE", f"tRTP: {t - b.last_rd}ps")
            if (
                b.last_wr_data_end > -(1 << 59)
                and t - b.last_wr_data_end < timing.twr_ps
            ):
                bad("WR_TO_PRE", f"tWR: {t - b.last_wr_data_end}ps")
            b.last_pre = t
            b.open_row = None

        else:  # RD / WR
            if b.open_row is None:
                bad("ROW_STATE", "column command with bank closed")
            elif row >= 0 and row != b.open_row:
                bad("ROW_STATE", f"column to row {row} but row {b.open_row} open")
            if t - b.last_act < timing.trcd_ps:
                bad("ACT_TO_COL", f"tRCD: {t - b.last_act}ps")
            if self.last_col_time > -(1 << 59):
                ccd = (
                    timing.tccdl_ps
                    if self.group_of[bank] == self.last_col_group
                    else timing.tccds_ps
                )
                if t - self.last_col_time < ccd:
                    bad("CCD", f"{t - self.last_col_time}ps since last column")
            if kind == CommandKind.RD:
                if (
                    self.last_wr_data_end_any > -(1 << 59)
                    and t - self.last_wr_data_end_any < timing.twtr_ps
                ):
                    bad("WTR", f"{t - self.last_wr_data_end_any}ps after write data")
                b.last_rd = t
            if data_start_ps >= 0:
                if data_start_ps < self.last_data_end:
                    bad(
                        "DATA_BUS",
                        f"burst starts {self.last_data_end - data_start_ps}ps early",
                    )
                self.last_data_end = max(self.last_data_end, data_end_ps)
            if kind == CommandKind.WR and data_end_ps >= 0:
                b.last_wr_data_end = data_end_ps
                self.last_wr_data_end_any = data_end_ps
            self.last_col_time = t
            self.last_col_group = self.group_of[bank]

        return v


class StreamingAuditor:
    """Online protocol audit: a drop-in for ``Channel.log``.

    Install one per channel (``mc.channel.log = StreamingAuditor(...)``)
    and every command is validated the instant it issues.  By default a
    violation raises :class:`ProtocolViolationError` carrying the exact
    rule, instant and bank; set ``collect=True`` to accumulate violations
    in :attr:`violations` instead (useful for tests and tooling).

    The auditor keeps O(1) state (no command history), so it is safe to
    leave on for arbitrarily long runs, and it is picklable, so it rides
    along in checkpoint snapshots.
    """

    def __init__(
        self,
        timing: DRAMTimingConfig,
        org: DRAMOrgConfig,
        channel_id: int = -1,
        collect: bool = False,
    ) -> None:
        self.channel_id = channel_id
        self.collect = collect
        self.commands_checked = 0
        self.violations: list[Violation] = []
        self._state = _AuditState(timing, org)

    def record(
        self,
        issue_ps: int,
        kind: CommandKind,
        bank: int,
        row: int = -1,
        data_start_ps: int = -1,
        data_end_ps: int = -1,
    ) -> None:
        found = self._state.check(
            issue_ps, kind, bank, row, data_start_ps, data_end_ps
        )
        self.commands_checked += 1
        if not found:
            return
        if self.collect:
            self.violations.extend(found)
        else:
            raise ProtocolViolationError(found[0], self.channel_id)

    def __len__(self) -> int:
        return self.commands_checked
