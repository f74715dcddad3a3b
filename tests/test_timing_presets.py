"""Tests for DRAM timing presets and the DDR3 ablation configuration."""

from repro.core.config import DRAMOrgConfig
from repro.dram.channel import Channel
from repro.dram.timing import DDR3_TIMING, GDDR5_ORG, GDDR5_TIMING, ddr3_org


def test_gddr5_org_matches_table2():
    assert GDDR5_ORG.num_channels == 6
    assert GDDR5_ORG.banks_per_channel == 16
    assert GDDR5_ORG.banks_per_group == 4


def test_ddr3_is_slower_where_it_matters():
    assert DDR3_TIMING.tck_ns > GDDR5_TIMING.tck_ns
    assert DDR3_TIMING.tfaw_ns > GDDR5_TIMING.tfaw_ns
    # DDR3 has no bank-group advantage.
    assert DDR3_TIMING.tccdl_ck == DDR3_TIMING.tccds_ck


def test_ddr3_org_has_8_flat_banks():
    org = ddr3_org()
    assert org.banks_per_channel == 8
    assert org.num_bank_groups == 1


def test_ddr3_channel_runs():
    org = ddr3_org(num_channels=1)
    ch = Channel(org, DDR3_TIMING)
    t = ch.earliest_act(0, 0)
    ch.issue_act(0, 3, t)
    tc = ch.earliest_col(0, False, t)
    end = ch.issue_col(0, False, tc)
    assert end > tc > t >= 0


def test_bursts_per_access_scales_with_line_size():
    wide = DRAMOrgConfig(bytes_per_burst=128)
    assert wide.bursts_per_access == 1
    assert GDDR5_ORG.bursts_per_access == 2


def test_single_channel_throughput_bound():
    """A saturated GDDR5 channel moves one 128B line per 4 tCK."""
    org = ddr3_org(num_channels=1)  # shape irrelevant; use GDDR5 timing
    ch = Channel(GDDR5_ORG, GDDR5_TIMING)
    t = ch.earliest_act(0, 1, )
    ch.issue_act(0, 1, t)
    now = ch.banks[0].earliest_col
    starts = []
    for _ in range(10):
        tc = ch.earliest_col(0, False, now)
        ch.issue_col(0, False, tc)
        starts.append(tc)
        now = tc
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    burst = GDDR5_ORG.bursts_per_access * GDDR5_TIMING.tburst_ps
    assert all(g >= burst for g in gaps)
    # Back-to-back row hits reach full bus occupancy (no extra bubbles).
    assert min(gaps) == burst


# ---------------------------------------------------------------------------
# named preset registry (repro.dram.timing.DRAM_PRESETS)
# ---------------------------------------------------------------------------
import pytest

from repro.core.config import SimConfig
from repro.dram.timing import (
    DRAM_PRESETS,
    GDDR6_ORG,
    GDDR6_TIMING,
    HBM2_ORG,
    HBM2_TIMING,
    get_preset,
    preset_names,
)

_NS_FIELDS = (
    "trc_ns", "trcd_ns", "trp_ns", "tcas_ns", "tras_ns", "trrd_ns",
    "twtr_ns", "tfaw_ns", "trtp_ns", "twr_ns",
)


def test_preset_registry_contents():
    assert preset_names() == ("ddr3", "gddr5", "gddr6", "hbm2")
    for name in preset_names():
        preset = get_preset(name)
        assert preset.name == name
        assert preset.description


def test_unknown_preset_names_choices():
    with pytest.raises(ValueError, match="gddr5"):
        get_preset("gddr7")


def test_gddr5_preset_is_the_default_config():
    """The gddr5 preset must resolve bit-identically to SimConfig() —
    scenario specs naming it share the default config's cache entries."""
    preset = get_preset("gddr5")
    assert SimConfig(dram_timing=preset.timing, dram_org=preset.org) == SimConfig()


@pytest.mark.parametrize("name", ["ddr3", "gddr5", "gddr6", "hbm2"])
def test_preset_timings_are_legal(name):
    """Every preset passes the config tree's physical-consistency checks
    and its ns-domain identities (pinned so edits can't sneak in an
    unbuildable device)."""
    preset = get_preset(name)
    SimConfig(dram_timing=preset.timing, dram_org=preset.org)  # validates
    t = preset.timing
    assert t.tras_ns >= t.trcd_ns + t.trtp_ns
    assert t.trc_ns >= t.tras_ns + t.trp_ns
    # NOTE: no ps-domain tFAW >= 4*tRRD check — ck rounding legitimately
    # breaks it (GDDR5: 35ck < 4*9ck); the engine enforces tFAW directly.


@pytest.mark.parametrize("name", ["ddr3", "gddr5", "gddr6", "hbm2"])
def test_preset_derived_ps_are_ck_aligned(name):
    """All derived picosecond timings are integer multiples of tCK."""
    t = get_preset(name).timing
    for field in _NS_FIELDS:
        ps = getattr(t, field.replace("_ns", "_ps"))
        assert ps % t.tck_ps == 0, field
        assert ps >= getattr(t, field) * 1000 - 1e-6, field  # ceil, not floor


def test_gddr6_preset_shape():
    assert GDDR6_TIMING.tck_ns == 0.5  # faster clock than GDDR5
    assert GDDR6_TIMING.tccdl_ck > GDDR6_TIMING.tccds_ck  # bank groups
    assert GDDR6_ORG.banks_per_group == 4
    assert GDDR6_ORG.bursts_per_access == 2


def test_hbm2_preset_shape():
    assert HBM2_ORG.num_channels == 8  # wide, slow stacks
    assert HBM2_ORG.row_size_bytes == 1024  # small rows
    assert HBM2_ORG.bytes_per_burst == 32
    assert HBM2_ORG.bursts_per_access == 4  # 128B line = 4 bursts
    assert HBM2_TIMING.tck_ns > GDDR6_TIMING.tck_ns


@pytest.mark.parametrize("name", ["ddr3", "gddr6", "hbm2"])
def test_preset_channels_run(name):
    preset = get_preset(name)
    org = preset.org
    ch = Channel(org, preset.timing)
    t = ch.earliest_act(0, 0)
    ch.issue_act(0, 3, t)
    tc = ch.earliest_col(0, False, t)
    end = ch.issue_col(0, False, tc)
    assert end > tc > t >= 0


@pytest.mark.parametrize("name", ["ddr3", "gddr5", "gddr6", "hbm2"])
def test_preset_simulation_is_bit_deterministic(name):
    """Two TINY runs of the same benchmark on one preset are identical."""
    from repro import simulate
    from repro.workloads.suite import Scale, build_benchmark

    preset = get_preset(name)
    cfg = SimConfig(dram_timing=preset.timing, dram_org=preset.org)
    trace = build_benchmark("sad", cfg, Scale.TINY, seed=3)
    a = simulate(cfg, trace).summary()
    b = simulate(cfg, trace).summary()
    assert a == b
    assert a["ipc"] > 0


# ---------------------------------------------------------------------------
# channel queries == branchy reference under randomized command streams
# ---------------------------------------------------------------------------
import random

_PRESET_TIMINGS = {
    "ddr3": DDR3_TIMING,
    "gddr5": GDDR5_TIMING,
    "gddr6": GDDR6_TIMING,
    "hbm2": HBM2_TIMING,
}


def _ref_earliest_act(ch, bank_idx, now):
    """Raw parameters, explicit branches + sentinel guards."""
    t = ch.t
    b = ch.banks[bank_idx]
    e = max(now, b.earliest_act, ch.next_cmd_free)
    if ch.last_act_any >= 0:
        e = max(e, ch.last_act_any + max(t.tck_ps, t.trrd_ps))
    if len(ch.act_window) >= 4:
        e = max(e, ch.act_window[-4] + t.tfaw_ps)
    return e


def _ref_earliest_col(ch, bank_idx, is_write, now):
    t = ch.t
    b = ch.banks[bank_idx]
    e = max(now, b.earliest_col, ch.next_cmd_free)
    if ch.last_col_group >= 0:
        if b.group == ch.last_col_group:
            e = max(e, ch.last_col_cmd + max(t.tck_ps, t.tccdl_ps))
        else:
            e = max(e, ch.last_col_cmd + max(t.tck_ps, t.tccds_ps))
    if is_write:
        e = max(e, ch.data_bus_free - t.twl_ps)
        if ch.last_read_data_end >= 0:
            e = max(e, ch.last_read_data_end + (t.trtrs_ps - t.twl_ps))
    else:
        e = max(e, ch.data_bus_free - t.tcas_ps)
        if ch.last_write_data_end >= 0:
            e = max(e, ch.last_write_data_end + t.twtr_ps)
    return e


def _assert_queries_match_reference(ch, now):
    terms = ch.scan_terms(now)
    base, act, col_rd, col_wr, ccd_same_t, ccd_diff_t, col_group = terms
    for bank_idx, b in enumerate(ch.banks):
        assert ch.earliest_act(bank_idx, now) == _ref_earliest_act(ch, bank_idx, now)
        for is_write in (False, True):
            assert ch.earliest_col(bank_idx, is_write, now) == _ref_earliest_col(
                ch, bank_idx, is_write, now
            )
        # scan_terms + per-bank state folds to exactly the earliest_* calls.
        assert max(base, b.earliest_pre) == ch.earliest_pre(bank_idx, now)
        assert max(act, b.earliest_act) == ch.earliest_act(bank_idx, now)
        ccd_t = ccd_same_t if b.group == col_group else ccd_diff_t
        assert max(col_rd, ccd_t, b.earliest_col) == ch.earliest_col(
            bank_idx, False, now
        )
        assert max(col_wr, ccd_t, b.earliest_col) == ch.earliest_col(
            bank_idx, True, now
        )


@pytest.mark.parametrize("name", sorted(_PRESET_TIMINGS))
def test_channel_queries_match_branchy_reference(name):
    """Drive each preset's channel with a randomized legal command stream
    and check, at every step and for every bank, that the earliest-issue
    queries (tCK folded into each spacing) and the hoisted scan_terms
    combination both equal the branchy reference."""
    preset = get_preset(name)
    ch = Channel(preset.org, preset.timing)
    rng = random.Random(f"0xC0FFEE|{name}")  # str seeds are not salted
    now = 0
    _assert_queries_match_reference(ch, now)  # cold state, sentinels live
    for _ in range(120):
        bank_idx = rng.randrange(len(ch.banks))
        b = ch.banks[bank_idx]
        if b.open_row is None:
            t = ch.earliest_act(bank_idx, now)
            ch.issue_act(bank_idx, rng.randrange(64), t)
        elif rng.random() < 0.25:
            t = ch.earliest_pre(bank_idx, now)
            ch.issue_pre(bank_idx, t)
        else:
            is_write = rng.random() < 0.4
            t = ch.earliest_col(bank_idx, is_write, now)
            ch.issue_col(bank_idx, is_write, t)
        now = t + rng.randrange(0, 3 * preset.timing.tck_ps)
        _assert_queries_match_reference(ch, now)
