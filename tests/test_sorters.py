"""Unit tests for the row sorter (baseline) and warp sorter (§IV-B)."""

import pytest

from repro.core.config import DRAMOrgConfig
from repro.mc.command_queue import SCORE_HIT, SCORE_MISS, CommandQueues
from repro.mc.row_sorter import RowSorter
from repro.mc.warp_sorter import WarpSorter

from helpers import make_request

ORG = DRAMOrgConfig()


# -- RowSorter ---------------------------------------------------------------
def test_row_sorter_streams_fifo():
    rs = RowSorter(4)
    a = make_request(bank=0, row=1)
    b = make_request(bank=0, row=1)
    rs.add(a)
    rs.add(b)
    assert list(rs.rows_for(0)[1]) == [a, b]
    assert rs.pop(0, 1) is a
    assert rs.pop(0, 1) is b
    assert not rs.has_row(0, 1)
    assert rs.empty()


def test_row_sorter_oldest_in_bank():
    rs = RowSorter(4)
    a = make_request(bank=0, row=1)
    b = make_request(bank=0, row=2)
    a.t_mc_arrival, b.t_mc_arrival = 20, 10
    rs.add(a)
    rs.add(b)
    assert rs.oldest_in_bank(0) is b
    assert rs.oldest_in_bank(1) is None


def test_row_sorter_remove_mid_fifo():
    rs = RowSorter(4)
    a, b, c = (make_request(bank=1, row=3) for _ in range(3))
    for r in (a, b, c):
        rs.add(r)
    rs.remove(b)
    assert rs.pop(1, 3) is a
    assert rs.pop(1, 3) is c
    assert len(rs) == 0


def test_row_sorter_pending_tracks_add_and_pop():
    rs = RowSorter(4)
    assert rs.pending == set()
    a, b = make_request(bank=2, row=1), make_request(bank=2, row=4)
    c = make_request(bank=3, row=1)
    for r in (a, b, c):
        rs.add(r)
    assert rs.pending == {2, 3}
    rs.pop(2, 1)
    assert rs.pending == {2, 3}  # row 4 still waits on bank 2
    rs.pop(2, 4)
    assert rs.pending == {3}
    rs.pop(3, 1)
    assert rs.pending == set()


def test_row_sorter_pending_tracks_mid_fifo_remove():
    rs = RowSorter(4)
    a, b, c = (make_request(bank=1, row=3) for _ in range(3))
    for r in (a, b, c):
        rs.add(r)
    rs.remove(b)
    rs.remove(c)
    assert rs.pending == {1}
    rs.remove(a)
    assert rs.pending == set()


def test_sbwas_writes_join_and_leave_the_pending_banks(harness):
    h = harness("sbwas")
    mc = h.mc
    w = h.write(bank=2, row=7)
    r = h.read(bank=2, row=7, warp_id=1)
    assert mc.sorter.pending == {2}
    assert mc._remaining == {r.warp: 1}  # writes are not counted
    # Each pick takes its request out of the sorter and off the warp's
    # remaining count; the bank leaves the set with its last request.
    first = mc._next_for_bank(2, 0)
    assert first is r and mc._remaining == {}
    assert mc.sorter.pending == {2}
    assert mc._next_for_bank(2, 0) is w
    assert mc.sorter.pending == set()


# -- WarpSorter ---------------------------------------------------------------
def _txn_req(warp_id: int, bank: int = 0, row: int = 0):
    """A request that looks transaction-backed (not auto-complete)."""
    req = make_request(bank=bank, row=row, warp_id=warp_id)
    req.transaction = object()  # sentinel: not None
    return req


def test_group_completes_only_at_expected_count():
    ws = WarpSorter()
    r1 = _txn_req(1, bank=0, row=5)
    r2 = _txn_req(1, bank=2, row=7)
    e = ws.add(r1, 10)
    assert not e.complete
    ws.mark_complete((0, 1), expected=2, now_ps=20)
    assert not e.complete  # only one of two admitted
    ws.add(r2, 30)
    assert e.complete
    assert e.completed_ps == 30
    assert list(ws.complete_groups()) == [e]


def test_expected_before_any_request():
    ws = WarpSorter()
    ws.mark_complete((0, 1), expected=1, now_ps=5)
    e = ws.add(_txn_req(1), 10)
    assert e.complete


def test_raw_requests_always_schedulable():
    ws = WarpSorter()
    e = ws.add(make_request(warp_id=3), 0)
    assert e.complete
    ws.add(make_request(warp_id=3), 1)
    assert e.complete and e.n_requests == 2


def test_remove_request_drops_finished_groups():
    ws = WarpSorter()
    r = _txn_req(1)
    ws.add(r, 0)
    ws.mark_complete((0, 1), expected=1, now_ps=0)
    ws.remove_request(r)
    assert ws.get((0, 1)) is None
    assert ws.empty()


def test_remove_unknown_request_raises():
    ws = WarpSorter()
    with pytest.raises(KeyError):
        ws.remove_request(make_request(warp_id=9))


def test_mark_complete_prunes_drained_incomplete_group():
    """Fillers can drain a group before its size announcement arrives."""
    ws = WarpSorter()
    r = _txn_req(1)
    ws.add(r, 0)
    ws.remove_request(r)  # pulled as a MERB filler
    assert ws.get((0, 1)) is not None  # lingers: might get more requests
    ws.mark_complete((0, 1), expected=1, now_ps=50)
    assert ws.get((0, 1)) is None


def test_pending_hits_index():
    ws = WarpSorter()
    a = _txn_req(1, bank=3, row=9)
    b = _txn_req(2, bank=3, row=9)
    c = _txn_req(3, bank=3, row=8)
    for r in (a, b, c):
        ws.add(r, 0)
    assert ws.pending_hits(3, 9) == [a, b]
    ws.remove_request(a)
    assert ws.pending_hits(3, 9) == [b]
    assert ws.pending_hits(0, 0) == []


# -- scoring (§IV-B) -----------------------------------------------------------
def test_score_threads_rows_within_group():
    cq = CommandQueues(ORG, 8)
    ws = WarpSorter()
    # Four requests to the same fresh row on one bank: 3 + 1 + 1 + 1.
    for _ in range(4):
        ws.add(_txn_req(1, bank=0, row=5), 0)
    e = ws.get((0, 1))
    score, hits = WarpSorter.score(e, cq)
    assert score == SCORE_MISS + 3 * SCORE_HIT
    assert hits == 3


def test_score_includes_queue_backlog_and_max_over_banks():
    cq = CommandQueues(ORG, 8)
    # Bank 0 carries two queued misses (backlog 6); bank 1 is empty.
    cq.insert(make_request(bank=0, row=1), 0)
    cq.insert(make_request(bank=0, row=2), 0)
    ws = WarpSorter()
    ws.add(_txn_req(1, bank=0, row=3), 0)  # 6 backlog + 3 = 9
    ws.add(_txn_req(1, bank=1, row=3), 0)  # 0 backlog + 3 = 3
    e = ws.get((0, 1))
    score, _ = WarpSorter.score(e, cq)
    assert score == 2 * SCORE_MISS + SCORE_MISS  # max over banks = bank 0


def test_remote_score_clamps_ranking():
    """§IV-C: a peer's completion score caps the local score."""
    cq = CommandQueues(ORG, 8)
    cq.insert(make_request(bank=0, row=1), 0)
    cq.insert(make_request(bank=0, row=2), 0)  # backlog 6
    ws = WarpSorter()
    ws.add(_txn_req(1, bank=0, row=3), 0)
    e = ws.get((0, 1))
    base, _ = WarpSorter.score(e, cq)
    assert base == 9
    e.remote_score = 4
    assert WarpSorter.score(e, cq)[0] == 4
    e.remote_score = 100  # peer slower than us: no effect
    assert WarpSorter.score(e, cq)[0] == 9


def test_score_predicted_hit_against_queue_tail():
    cq = CommandQueues(ORG, 8)
    cq.insert(make_request(bank=0, row=7), 0)  # bank 0 will be on row 7
    ws = WarpSorter()
    ws.add(_txn_req(1, bank=0, row=7), 0)
    e = ws.get((0, 1))
    score, hits = WarpSorter.score(e, cq)
    assert hits == 1
    assert score == SCORE_MISS + SCORE_HIT  # backlog 3 + hit 1
