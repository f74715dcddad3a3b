"""Unit tests for the per-bank DRAM state machine."""

import pytest

from repro.core.config import DRAMTimingConfig
from repro.dram.bank import Bank

T = DRAMTimingConfig()


def test_activate_then_column_respects_trcd():
    b = Bank(0, 0)
    b.do_activate(0, row=5, t=T)
    assert b.open_row == 5
    assert b.earliest_col == T.trcd_ps
    with pytest.raises(RuntimeError):
        b.do_column(0, is_write=False, t=T)  # before tRCD
    end = b.do_column(T.trcd_ps, is_write=False, t=T)
    assert end == T.trcd_ps + T.tcas_ps + T.tburst_ps


def test_double_activate_rejected():
    b = Bank(0, 0)
    b.do_activate(0, row=5, t=T)
    with pytest.raises(RuntimeError):
        b.do_activate(T.trc_ps, row=6, t=T)  # row still open


def test_precharge_requires_open_row_and_tras():
    b = Bank(0, 0)
    with pytest.raises(RuntimeError):
        b.do_precharge(0, T)
    b.do_activate(0, row=1, t=T)
    with pytest.raises(RuntimeError):
        b.do_precharge(T.tras_ps - 1, T)
    b.do_precharge(T.tras_ps, T)
    assert b.open_row is None
    # tRP gates the next activate
    assert b.earliest_act >= T.tras_ps + T.trp_ps


def test_read_to_precharge_trtp():
    b = Bank(0, 0)
    b.do_activate(0, row=1, t=T)
    t_rd = T.trcd_ps + 100 * T.tck_ps  # read late: tRTP dominates tRAS
    b.do_column(t_rd, is_write=False, t=T)
    assert b.earliest_pre >= t_rd + T.trtp_ps


def test_write_recovery_gates_precharge():
    b = Bank(0, 0)
    b.do_activate(0, row=1, t=T)
    end = b.do_column(T.trcd_ps, is_write=True, t=T)
    assert end == T.trcd_ps + T.twl_ps + T.tburst_ps
    assert b.earliest_pre >= end + T.twr_ps


def test_trc_same_bank_activate_spacing():
    b = Bank(0, 0)
    b.do_activate(0, row=1, t=T)
    b.do_column(T.trcd_ps, is_write=False, t=T)
    b.do_precharge(T.tras_ps, T)
    assert b.earliest_act >= T.trc_ps


def test_multi_burst_column():
    b = Bank(0, 0)
    b.do_activate(0, row=1, t=T)
    end = b.do_column(T.trcd_ps, is_write=False, t=T, n_bursts=2)
    assert end == T.trcd_ps + T.tcas_ps + 2 * T.tburst_ps
