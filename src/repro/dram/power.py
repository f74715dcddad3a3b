"""GDDR5 power model (Micron power-calculator methodology, §VI-B).

The paper estimates DRAM power with the Micron DDR3 calculator adapted to
GDDR5 datasheet currents and reports that although WG-W lowers the
row-buffer hit rate by 16%, total GDDR5 power rises only ~1.8% — because
most GDDR5 power is burned in the high-speed I/O drivers, not the arrays.

We reproduce that methodology: per-chip power is the sum of

* background (active standby) power,
* activate/precharge power  — proportional to the ACT rate,
* read/write array power    — proportional to data-bus utilization,
* I/O and termination power — proportional to data-bus utilization, and
  by far the largest term at GDDR5 data rates.

Current/voltage constants approximate a 6 Gbps x32 GDDR5 part.  Absolute
watts are indicative; the experiment asserts the *relative* sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DRAMOrgConfig, DRAMTimingConfig

__all__ = ["GDDR5PowerParams", "PowerBreakdown", "estimate_channel_power"]


@dataclass(frozen=True)
class GDDR5PowerParams:
    """Electrical parameters of one x32 GDDR5 chip."""

    vdd: float = 1.5
    idd3n_a: float = 0.045  # active standby current
    idd0_a: float = 0.070  # one-bank ACT-PRE cycling current
    idd4r_a: float = 0.230  # burst read current
    idd4w_a: float = 0.225  # burst write current
    # I/O + ODT power of one chip with its 32 DQs at 100% bus utilization.
    io_w_at_full_bw: float = 2.6
    chips_per_channel: int = 2

    @property
    def activate_energy_j(self) -> float:
        """Energy of one ACT/PRE pair (charged over tRC at IDD0-IDD3N)."""
        trc_s = 40e-9
        return self.vdd * (self.idd0_a - self.idd3n_a) * trc_s


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-channel power in watts."""

    background_w: float
    activate_w: float
    array_rw_w: float
    io_w: float

    @property
    def total_w(self) -> float:
        return self.background_w + self.activate_w + self.array_rw_w + self.io_w


def estimate_channel_power(
    activates: int,
    reads: int,
    writes: int,
    data_bus_busy_ps: int,
    elapsed_ps: int,
    timing: DRAMTimingConfig,
    params: GDDR5PowerParams = GDDR5PowerParams(),
) -> PowerBreakdown:
    """Estimate average power of one channel over a simulated interval."""
    if elapsed_ps <= 0:
        raise ValueError("elapsed_ps must be positive")
    elapsed_s = elapsed_ps * 1e-12
    utilization = min(1.0, data_bus_busy_ps / elapsed_ps)
    n = params.chips_per_channel

    background_w = n * params.vdd * params.idd3n_a
    activate_w = n * activates * params.activate_energy_j / elapsed_s

    col = reads + writes
    if col:
        read_frac = reads / col
        idd4 = read_frac * params.idd4r_a + (1.0 - read_frac) * params.idd4w_a
    else:
        idd4 = 0.0
    array_rw_w = n * params.vdd * max(0.0, idd4 - params.idd3n_a) * utilization
    io_w = n * params.io_w_at_full_bw * utilization

    return PowerBreakdown(
        background_w=background_w,
        activate_w=activate_w,
        array_rw_w=array_rw_w,
        io_w=io_w,
    )
