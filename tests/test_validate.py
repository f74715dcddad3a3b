"""Tests for the DRAM protocol auditor — including the end-to-end proof
that every scheduler's command stream is timing-legal."""

import dataclasses

import pytest

from repro.core.config import DRAMOrgConfig, DRAMTimingConfig, SimConfig
from repro.dram.commands import CommandKind
from repro.dram.validate import StreamingAuditor
from repro.gpu.system import GPUSystem
from repro.workloads.profiles import IRREGULAR_PROFILES
from repro.workloads.synthetic import synthetic_trace

T = DRAMTimingConfig()
ORG = DRAMOrgConfig()


def audit(*cmds) -> list:
    """Every violation a collecting auditor finds in ``cmds``."""
    auditor = StreamingAuditor(T, ORG, collect=True)
    for c in cmds:
        auditor.record(*c)
    assert auditor.commands_checked == len(cmds)
    return auditor.violations


def test_clean_sequence_passes():
    t0 = 0
    rd = t0 + T.trcd_ps
    cmds = (
        (t0, CommandKind.ACT, 0, 5),
        (rd, CommandKind.RD, 0, 5, rd + T.tcas_ps, rd + T.tcas_ps + T.tburst_ps),
        (max(t0 + T.tras_ps, rd + T.trtp_ps), CommandKind.PRE, 0),
    )
    assert audit(*cmds) == []


def test_detects_trcd_violation():
    cmds = (
        (0, CommandKind.ACT, 0, 5),
        (T.tck_ps, CommandKind.RD, 0, 5),
    )
    rules = {v.rule for v in audit(*cmds)}
    assert "ACT_TO_COL" in rules


def test_detects_trrd_violation():
    cmds = (
        (0, CommandKind.ACT, 0, 5),
        (T.tck_ps, CommandKind.ACT, 1, 5),
    )
    rules = {v.rule for v in audit(*cmds)}
    assert "ACT_TO_ACT_DIFF" in rules


def test_detects_faw_violation():
    gap = (T.tfaw_ps // 4) - T.tck_ps  # five ACTs squeezed into one window
    cmds = [(i * gap, CommandKind.ACT, i, 1) for i in range(5)]
    rules = {v.rule for v in audit(*cmds)}
    assert "FAW" in rules


def test_detects_row_state_errors():
    cmds = (
        (0, CommandKind.RD, 0, 5),  # closed bank
        (T.tck_ps * 10, CommandKind.PRE, 1),  # no row open
    )
    rules = [v.rule for v in audit(*cmds)]
    assert rules.count("ROW_STATE") == 2


def test_detects_wrong_row_column():
    rd = T.trcd_ps
    cmds = (
        (0, CommandKind.ACT, 0, 5),
        (rd, CommandKind.RD, 0, 6),  # row 6 not open
    )
    rules = {v.rule for v in audit(*cmds)}
    assert "ROW_STATE" in rules


def test_detects_data_bus_overlap():
    t1 = T.trcd_ps
    cmds = (
        (0, CommandKind.ACT, 0, 5),
        (t1, CommandKind.RD, 0, 5, t1 + T.tcas_ps, t1 + T.tcas_ps + 4 * T.tburst_ps),
        (t1 + T.tccdl_ps, CommandKind.RD, 0, 5,
         t1 + T.tccdl_ps + T.tcas_ps, t1 + T.tccdl_ps + T.tcas_ps + T.tburst_ps),
    )
    rules = {v.rule for v in audit(*cmds)}
    assert "DATA_BUS" in rules


def test_detects_early_precharge_after_write():
    wr = T.trcd_ps
    data_end = wr + T.twl_ps + T.tburst_ps
    cmds = (
        (0, CommandKind.ACT, 0, 5),
        (wr, CommandKind.WR, 0, 5, wr + T.twl_ps, data_end),
        (data_end + T.tck_ps, CommandKind.PRE, 0),  # tWR not elapsed
    )
    rules = {v.rule for v in audit(*cmds)}
    assert "WR_TO_PRE" in rules


def test_violation_formatting():
    v = audit((0, CommandKind.RD, 0, 5))[0]
    assert "ROW_STATE" in str(v)


@pytest.mark.parametrize("sched", ["gmc", "wg-w", "sbwas", "wafcfs", "fcfs"])
def test_end_to_end_command_streams_are_legal(sched):
    """Attach a collecting auditor to every channel of a full simulation and
    verify the scheduler never violates a timing constraint."""
    cfg = SimConfig().small().with_scheduler(sched)
    profile = dataclasses.replace(
        IRREGULAR_PROFILES["nw"], warps=24, loads_per_warp=4
    )
    trace = synthetic_trace(profile, cfg, seed=6, scale=1.0)
    sys_ = GPUSystem(cfg, trace)
    auditors = []
    for mc in sys_.mcs:
        mc.channel.log = StreamingAuditor(
            cfg.dram_timing, cfg.dram_org, mc.channel_id, collect=True
        )
        auditors.append(mc.channel.log)
    sys_.run()
    total = 0
    for auditor in auditors:
        total += auditor.commands_checked
        assert auditor.violations == [], auditor.violations[:5]
    assert total > 100  # the audit actually saw a real command stream
