"""Configuration dataclasses for the GPU + GDDR5 memory-system model.

Defaults reproduce Table II of the paper (GTX-480-class GPU, six 64-bit
GDDR5 channels built from Hynix H5GQ1H24AFR-class parts).  All DRAM timing
parameters are given in nanoseconds or command-clock cycles (tCK) and are
converted once, at construction, to integer picoseconds aligned to command
clock edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = [
    "DRAMTimingConfig",
    "DRAMOrgConfig",
    "MCConfig",
    "CacheConfig",
    "GPUConfig",
    "SimConfig",
    "PS_PER_NS",
]

PS_PER_NS = 1000


def _to_ps(ns: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(ns * PS_PER_NS))


@dataclass(frozen=True)
class DRAMTimingConfig:
    """GDDR5 timing parameters (Table II of the paper).

    Durations are expressed in nanoseconds except the ``*_ck`` fields which
    are in command-clock cycles.  Derived ``*_ps`` attributes are integer
    picoseconds rounded up to command-clock edges so that command scheduling
    happens on clock boundaries like real hardware.
    """

    tck_ns: float = 0.667  # command clock period (1.5 GHz)
    trc_ns: float = 40.0  # ACT -> ACT, same bank
    trcd_ns: float = 12.0  # ACT -> column command
    trp_ns: float = 12.0  # PRE -> ACT
    tcas_ns: float = 12.0  # RD -> first data (CL)
    tras_ns: float = 28.0  # ACT -> PRE
    trrd_ns: float = 5.5  # ACT -> ACT, different banks
    twtr_ns: float = 5.0  # end of write data -> RD
    tfaw_ns: float = 23.0  # four-activate window
    trtp_ns: float = 2.0  # RD -> PRE
    twr_ns: float = 12.0  # end of write data -> PRE (write recovery)
    twl_ck: int = 4  # WR -> first data (write latency)
    tburst_ck: int = 2  # data burst duration per column access
    trtrs_ck: int = 1  # rank-to-rank / bus turnaround bubble
    tccdl_ck: int = 3  # column-to-column, same bank group
    tccds_ck: int = 2  # column-to-column, different bank group
    # Refresh (disabled by default: the paper's USIMM configuration omits
    # it, and it affects every scheduler identically; enable for the
    # fidelity ablation).
    refresh_enabled: bool = False
    trefi_ns: float = 3900.0  # average refresh interval
    trfc_ns: float = 160.0  # refresh cycle time (1Gb-class device)

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ValueError("tCK must be positive")

    # -- derived integer-picosecond values ---------------------------------
    @cached_property
    def tck_ps(self) -> int:
        return _to_ps(self.tck_ns)

    def _ck_align(self, ns: float) -> int:
        """ns -> ps, rounded *up* to a whole number of command clocks."""
        cycles = math.ceil(round(ns / self.tck_ns, 9))
        return cycles * self.tck_ps

    @cached_property
    def trc_ps(self) -> int:
        return self._ck_align(self.trc_ns)

    @cached_property
    def trcd_ps(self) -> int:
        return self._ck_align(self.trcd_ns)

    @cached_property
    def trp_ps(self) -> int:
        return self._ck_align(self.trp_ns)

    @cached_property
    def tcas_ps(self) -> int:
        return self._ck_align(self.tcas_ns)

    @cached_property
    def tras_ps(self) -> int:
        return self._ck_align(self.tras_ns)

    @cached_property
    def trrd_ps(self) -> int:
        return self._ck_align(self.trrd_ns)

    @cached_property
    def twtr_ps(self) -> int:
        return self._ck_align(self.twtr_ns)

    @cached_property
    def tfaw_ps(self) -> int:
        return self._ck_align(self.tfaw_ns)

    @cached_property
    def trtp_ps(self) -> int:
        return self._ck_align(self.trtp_ns)

    @cached_property
    def twr_ps(self) -> int:
        return self._ck_align(self.twr_ns)

    @cached_property
    def twl_ps(self) -> int:
        return self.twl_ck * self.tck_ps

    @cached_property
    def tburst_ps(self) -> int:
        return self.tburst_ck * self.tck_ps

    @cached_property
    def trtrs_ps(self) -> int:
        return self.trtrs_ck * self.tck_ps

    @cached_property
    def tccdl_ps(self) -> int:
        return self.tccdl_ck * self.tck_ps

    @cached_property
    def tccds_ps(self) -> int:
        return self.tccds_ck * self.tck_ps

    @cached_property
    def trefi_ps(self) -> int:
        return self._ck_align(self.trefi_ns)

    @cached_property
    def trfc_ps(self) -> int:
        return self._ck_align(self.trfc_ns)


@dataclass(frozen=True)
class DRAMOrgConfig:
    """Channel organization: one rank of two x32 GDDR5 chips per channel."""

    num_channels: int = 6
    banks_per_channel: int = 16
    banks_per_group: int = 4
    row_size_bytes: int = 2048  # row-buffer footprint per channel
    rows_per_bank: int = 4096
    line_bytes: int = 128  # transfer / cache-line granularity
    interleave_bytes: int = 256  # consecutive-line block mapped together
    # One GDDR5 burst (BL8 on a 64-bit channel, WCK at 2x CK) moves 64 bytes
    # in tBURST = 2 tCK; a 128B line therefore needs two back-to-back bursts.
    bytes_per_burst: int = 64

    def __post_init__(self) -> None:
        if self.banks_per_channel % self.banks_per_group:
            raise ValueError("banks_per_channel must be a multiple of banks_per_group")
        if self.row_size_bytes % self.line_bytes:
            raise ValueError("row_size_bytes must be a multiple of line_bytes")

    @property
    def num_bank_groups(self) -> int:
        return self.banks_per_channel // self.banks_per_group

    @property
    def lines_per_row(self) -> int:
        return self.row_size_bytes // self.line_bytes

    @property
    def bursts_per_access(self) -> int:
        """Data-bus bursts one line-sized access occupies."""
        return max(1, self.line_bytes // self.bytes_per_burst)


@dataclass(frozen=True)
class MCConfig:
    """Per-controller queueing and scheduling parameters."""

    read_queue_entries: int = 64
    write_queue_entries: int = 64
    write_high_watermark: int = 32
    write_low_watermark: int = 16
    command_queue_depth: int = 4  # per-bank
    age_threshold_ns: float = 1000.0  # GMC starvation guard
    max_row_hit_streak: int = 16  # GMC streak limit
    wgw_drain_guard_entries: int = 8  # WG-W: distance from high watermark
    sbwas_alpha: float = 0.5  # SBWAS bias parameter


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache level.  Its line size is
    ``DRAMOrgConfig.line_bytes``; its MSHRs are unbounded (DESIGN.md §4)."""

    size_bytes: int
    ways: int = 8
    hit_latency_ns: float = 5.0


@dataclass(frozen=True)
class GPUConfig:
    """SM-side parameters (Table II)."""

    num_sms: int = 30
    warp_size: int = 32
    max_warps_per_sm: int = 32  # 1024 threads / 32 lanes
    core_clock_ghz: float = 1.4
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=8, hit_latency_ns=5.0)
    )
    l2_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=128 * 1024, ways=16, hit_latency_ns=20.0
        )
    )
    xbar_latency_ns: float = 15.0
    xbar_bytes_per_ns: float = 64.0  # per-partition injection bandwidth
    # Optional per-SM TLB (see repro.gpu.tlb; enabled via SimConfig.use_tlb).
    tlb_entries: int = 32
    page_bytes: int = 64 * 1024

    @property
    def core_cycle_ps(self) -> int:
        return int(round(1000.0 / self.core_clock_ghz))


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    dram_timing: DRAMTimingConfig = field(default_factory=DRAMTimingConfig)
    dram_org: DRAMOrgConfig = field(default_factory=DRAMOrgConfig)
    mc: MCConfig = field(default_factory=MCConfig)
    scheduler: str = "gmc"
    use_l1: bool = True
    use_l2: bool = True
    use_tlb: bool = False  # §V extension: per-SM TLB with page walks

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject physically inconsistent parameter combinations.

        The component dataclasses check their own local shape (power-of-two
        bank counts, positive tCK); the cross-parameter GDDR5 identities
        and the cache geometry (sets of ``dram_org.line_bytes`` lines)
        only make sense on the composed config, so they live here.  Runs on
        every construction (``__post_init__``), which covers ``replace()``
        and therefore every config the fuzzer's generator produces.
        """
        t = self.dram_timing
        if t.tras_ns < t.trcd_ns + t.trtp_ns:
            raise ValueError(
                f"tRAS ({t.tras_ns}ns) < tRCD + tRTP "
                f"({t.trcd_ns}+{t.trtp_ns}ns): a row would close before its "
                "first column access could complete; raise tRAS"
            )
        if t.trc_ns < t.tras_ns + t.trp_ns:
            raise ValueError(
                f"tRC ({t.trc_ns}ns) < tRAS + tRP ({t.tras_ns}+{t.trp_ns}ns): "
                "the ACT-to-ACT window cannot fit the row cycle; raise tRC"
            )
        if t.tfaw_ns < 4 * t.trrd_ns:
            raise ValueError(
                f"tFAW ({t.tfaw_ns}ns) < 4*tRRD ({4 * t.trrd_ns}ns): the "
                "four-activate window would never bind; raise tFAW or lower tRRD"
            )
        mc = self.mc
        for name, value in (
            ("read_queue_entries", mc.read_queue_entries),
            ("write_queue_entries", mc.write_queue_entries),
            ("command_queue_depth", mc.command_queue_depth),
        ):
            if value <= 0:
                raise ValueError(
                    f"mc.{name} must be a positive queue size, got {value}"
                )
        if not 0 <= mc.write_low_watermark < mc.write_high_watermark:
            raise ValueError(
                f"write watermarks must satisfy 0 <= low < high, got "
                f"low={mc.write_low_watermark} high={mc.write_high_watermark}"
            )
        if self.gpu.num_sms <= 0:
            raise ValueError(f"num_sms must be positive, got {self.gpu.num_sms}")
        line = self.dram_org.line_bytes
        for name, cache in (("l1", self.gpu.l1), ("l2_slice", self.gpu.l2_slice)):
            if cache.size_bytes % (line * cache.ways):
                raise ValueError(
                    f"gpu.{name}.size_bytes ({cache.size_bytes}) must be a "
                    f"multiple of dram_org.line_bytes * ways ({line}*{cache.ways})"
                )
        if self.dram_org.num_channels <= 0:
            raise ValueError(
                f"num_channels must be positive, got {self.dram_org.num_channels}"
            )

    def with_scheduler(self, name: str) -> "SimConfig":
        """Return a copy configured for a different memory scheduler."""
        return replace(self, scheduler=name)

    def small(self) -> "SimConfig":
        """A reduced configuration for unit tests (fewer SMs/channels)."""
        return replace(
            self,
            gpu=replace(self.gpu, num_sms=4),
            dram_org=replace(self.dram_org, num_channels=2),
        )
