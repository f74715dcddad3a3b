"""Per-bank DRAM state machine using timestamp algebra.

Instead of stepping every clock, each bank records the earliest picosecond
at which each command kind may legally be issued to it.  Issuing a command
advances those horizons according to the GDDR5 timing constraints:

=============  =========================================================
constraint     meaning
=============  =========================================================
tRCD           ACT -> column command, same bank
tRAS           ACT -> PRE, same bank
tRC            ACT -> ACT, same bank
tRP            PRE -> ACT, same bank
tRTP           RD  -> PRE, same bank
tWR            end of write data -> PRE, same bank (write recovery)
=============  =========================================================

Cross-bank constraints (tRRD, tFAW, tCCDL/tCCDS, bus turnarounds) are owned
by :class:`repro.dram.channel.Channel`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DRAMTimingConfig

__all__ = ["Bank"]


class Bank:
    """State of one DRAM bank."""

    __slots__ = (
        "index",
        "group",
        "open_row",
        "earliest_act",
        "earliest_pre",
        "earliest_col",
    )

    def __init__(self, index: int, group: int) -> None:
        self.index = index
        self.group = group
        self.open_row: Optional[int] = None
        # Earliest legal issue instants for commands targeting this bank.
        self.earliest_act = 0
        self.earliest_pre = 0
        self.earliest_col = 0

    # -- state transitions ----------------------------------------------------
    def do_activate(self, now: int, row: int, t: DRAMTimingConfig) -> None:
        if self.open_row is not None:
            raise RuntimeError(f"bank {self.index}: ACT with row {self.open_row} open")
        if now < self.earliest_act:
            raise RuntimeError(f"bank {self.index}: ACT at {now} before {self.earliest_act}")
        self.open_row = row
        self.earliest_col = max(self.earliest_col, now + t.trcd_ps)
        self.earliest_pre = max(self.earliest_pre, now + t.tras_ps)
        self.earliest_act = max(self.earliest_act, now + t.trc_ps)

    def do_precharge(self, now: int, t: DRAMTimingConfig) -> None:
        if self.open_row is None:
            raise RuntimeError(f"bank {self.index}: PRE with no row open")
        if now < self.earliest_pre:
            raise RuntimeError(f"bank {self.index}: PRE at {now} before {self.earliest_pre}")
        self.open_row = None
        self.earliest_act = max(self.earliest_act, now + t.trp_ps)

    def do_column(
        self, now: int, is_write: bool, t: DRAMTimingConfig, n_bursts: int = 1
    ) -> int:
        """Issue a column access of ``n_bursts`` back-to-back bursts;
        returns the data completion time."""
        if self.open_row is None:
            raise RuntimeError(f"bank {self.index}: column access with no row open")
        if now < self.earliest_col:
            raise RuntimeError(f"bank {self.index}: COL at {now} before {self.earliest_col}")
        burst_ps = n_bursts * t.tburst_ps
        if is_write:
            data_start = now + t.twl_ps
            data_end = data_start + burst_ps
            # Write recovery gates the next precharge.
            self.earliest_pre = max(self.earliest_pre, data_end + t.twr_ps)
        else:
            data_start = now + t.tcas_ps
            data_end = data_start + burst_ps
            self.earliest_pre = max(self.earliest_pre, now + t.trtp_ps)
        return data_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bank{self.index}(g{self.group}, row={self.open_row})"
