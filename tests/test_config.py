"""Unit tests for configuration dataclasses and timing conversion."""

import dataclasses

import pytest

from repro.core.config import (
    CacheConfig,
    DRAMOrgConfig,
    DRAMTimingConfig,
    GPUConfig,
    MCConfig,
    SimConfig,
)
from repro.core.overrides import field_paths
from repro.gpu.cache import Cache


def test_gddr5_defaults_match_table2():
    t = DRAMTimingConfig()
    assert t.tck_ps == 667
    # All paper values, rounded up to command-clock edges.
    assert t.trc_ps == 60 * 667
    assert t.trcd_ps == 18 * 667
    assert t.trp_ps == 18 * 667
    assert t.tcas_ps == 18 * 667
    assert t.tras_ps == 42 * 667
    assert t.tfaw_ps == 35 * 667
    assert t.trrd_ps == 9 * 667
    assert t.twtr_ps == 8 * 667
    assert t.trtp_ps == 3 * 667
    assert t.tburst_ps == 2 * 667
    assert t.twl_ps == 4 * 667
    assert t.tccdl_ps == 3 * 667
    assert t.tccds_ps == 2 * 667


def test_row_miss_penalty_is_36ns():
    t = DRAMTimingConfig()
    # tRP + tRCD + tCAS for a row-buffer miss, tCAS alone for a hit.
    assert abs((t.trp_ps + t.trcd_ps + t.tcas_ps) / 1000 - 36.0) < 0.1
    assert abs(t.tcas_ps / 1000 - 12.0) < 0.1


def test_invalid_tck_rejected():
    with pytest.raises(ValueError):
        DRAMTimingConfig(tck_ns=0)


def test_org_defaults_and_validation():
    org = DRAMOrgConfig()
    assert org.num_channels == 6
    assert org.banks_per_channel == 16
    assert org.num_bank_groups == 4
    assert org.lines_per_row == 16
    assert org.bursts_per_access == 2  # 128B line over 64B bursts
    with pytest.raises(ValueError):
        DRAMOrgConfig(banks_per_channel=10, banks_per_group=4)
    with pytest.raises(ValueError):
        DRAMOrgConfig(row_size_bytes=100)


def test_cache_config_sets():
    assert Cache(CacheConfig(size_bytes=32 * 1024, ways=8), 128).num_sets == 32
    with pytest.raises(ValueError, match="gpu.l1.size_bytes"):
        SimConfig(gpu=GPUConfig(l1=CacheConfig(size_bytes=1000, ways=8)))
    # The line size is dram_org's: three sets of 128B lines, 1.5 of 256B.
    l2 = CacheConfig(size_bytes=3 * 16 * 128, ways=16)
    SimConfig(gpu=GPUConfig(l2_slice=l2))
    with pytest.raises(ValueError, match="gpu.l2_slice.size_bytes"):
        SimConfig(gpu=GPUConfig(l2_slice=l2), dram_org=DRAMOrgConfig(line_bytes=256))


def test_no_leaf_the_simulator_ignores():
    """Deleted knobs stay deleted: none of these changed a simulation."""
    dead = {
        "seed",
        "gpu.l1.line_bytes",
        "gpu.l1.mshr_entries",
        "gpu.l2_slice.line_bytes",
        "gpu.l2_slice.mshr_entries",
    }
    assert dead.isdisjoint(field_paths())


def test_gpu_defaults_match_table2():
    g = GPUConfig()
    assert g.num_sms == 30
    assert g.warp_size == 32
    assert g.max_warps_per_sm == 32
    assert g.l1.size_bytes == 32 * 1024
    assert g.l2_slice.size_bytes == 128 * 1024
    assert g.l2_slice.ways == 16


def test_simconfig_with_scheduler_and_small():
    cfg = SimConfig()
    wg = cfg.with_scheduler("wg-w")
    assert wg.scheduler == "wg-w"
    assert cfg.scheduler == "gmc"  # original untouched
    small = cfg.small()
    assert small.gpu.num_sms == 4
    assert small.dram_org.num_channels == 2


def test_mc_watermarks():
    cfg = SimConfig()
    assert cfg.mc.write_high_watermark == 32
    assert cfg.mc.write_low_watermark == 16
    assert cfg.mc.read_queue_entries == 64
    assert cfg.mc.write_queue_entries == 64


# -- SimConfig.validate() -----------------------------------------------------
def test_validate_accepts_defaults_and_presets():
    SimConfig().validate()
    SimConfig().small().validate()


def test_validate_rejects_tras_below_trcd_plus_trtp():
    timing = dataclasses.replace(DRAMTimingConfig(), tras_ns=5.0)
    with pytest.raises(ValueError, match="tRAS.*raise tRAS"):
        SimConfig(dram_timing=timing)


def test_validate_rejects_trc_below_tras_plus_trp():
    timing = dataclasses.replace(DRAMTimingConfig(), trc_ns=20.0)
    with pytest.raises(ValueError, match="tRC.*raise tRC"):
        SimConfig(dram_timing=timing)


def test_validate_rejects_tfaw_below_four_trrd():
    timing = dataclasses.replace(DRAMTimingConfig(), tfaw_ns=10.0)
    with pytest.raises(ValueError, match="tFAW.*4\\*tRRD"):
        SimConfig(dram_timing=timing)


@pytest.mark.parametrize("field", [
    "read_queue_entries",
    "write_queue_entries",
    "command_queue_depth",
])
@pytest.mark.parametrize("bad", [0, -4])
def test_validate_rejects_nonpositive_queue_sizes(field, bad):
    mc = dataclasses.replace(MCConfig(), **{field: bad})
    with pytest.raises(ValueError, match=f"mc.{field}.*positive"):
        SimConfig(mc=mc)


def test_validate_rejects_inverted_watermarks():
    mc = dataclasses.replace(
        MCConfig(), write_low_watermark=32, write_high_watermark=16
    )
    with pytest.raises(ValueError, match="watermarks"):
        SimConfig(mc=mc)


def test_validate_runs_on_dataclasses_replace():
    cfg = SimConfig()
    bad_timing = dataclasses.replace(cfg.dram_timing, tras_ns=5.0)
    with pytest.raises(ValueError, match="tRAS"):
        dataclasses.replace(cfg, dram_timing=bad_timing)


def test_validate_allows_exact_boundaries():
    # DDR3-style identity: tRC == tRAS + tRP exactly must be accepted.
    t = DRAMTimingConfig()
    timing = dataclasses.replace(t, trc_ns=t.tras_ns + t.trp_ns)
    SimConfig(dram_timing=timing).validate()
