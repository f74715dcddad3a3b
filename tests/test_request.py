"""Unit tests for LoadTransaction group bookkeeping."""

import pytest

from repro.core.request import LoadTransaction, MemoryRequest, warp_key


def _req(channel: int, addr: int = 0, t_data: int = -1) -> MemoryRequest:
    r = MemoryRequest(addr=addr, is_write=False, sm_id=0, warp_id=0)
    r.channel = channel
    r.bank = 0
    r.t_data = t_data
    return r


def test_completion_callback_and_timing():
    done = []
    txn = LoadTransaction(0, 1, n_requests=3, t_issue=100, on_complete=done.append)
    txn.note_return(200)
    txn.note_return(300)
    assert done == []
    txn.note_return(450)
    assert done == [txn]
    assert (txn.t_issue, txn.t_first_return, txn.t_last_return) == (100, 200, 450)


def test_dram_divergence_tracks_memory_served_replies_only():
    txn = LoadTransaction(0, 1, n_requests=3, t_issue=0)
    txn.note_return(50)  # L1 hit: no request object
    txn.note_return(200, _req(0, t_data=190))
    txn.note_return(500, _req(1, t_data=480))
    # Only the memory-served replies (200, 500) count, not the L1 hit.
    assert (txn.t_first_dram, txn.t_last_dram) == (200, 500)
    assert txn.t_first_return == 50


def test_extra_reply_raises():
    txn = LoadTransaction(0, 1, n_requests=1, t_issue=0)
    txn.note_return(10)
    with pytest.raises(ValueError):
        txn.note_return(20)


def test_zero_requests_rejected():
    with pytest.raises(ValueError):
        LoadTransaction(0, 1, n_requests=0, t_issue=0)


def test_group_complete_fires_per_channel_with_counts():
    txn = LoadTransaction(0, 7, n_requests=4, t_issue=0)
    a, b, c, d = _req(0), _req(0), _req(1), _req(2)
    for r in (b, c, d):  # the last request to each channel
        r.closes_group = True
    # channel 1's only request resolves as an L2 hit: no group there.
    assert txn.note_resolved(c, to_dram=False) == 0
    # channel 0: one DRAM admission + one L2 hit on the closing request
    # -> group of size 1.
    assert txn.note_resolved(a, to_dram=True) == 0
    assert txn.note_resolved(b, to_dram=False) == 1
    assert txn.note_resolved(d, to_dram=True) == 1


def test_group_size_counts_only_admitted_requests():
    txn = LoadTransaction(0, 7, n_requests=3, t_issue=0)
    reqs = [_req(0) for _ in range(3)]
    reqs[-1].closes_group = True
    assert [txn.note_resolved(r, to_dram=True) for r in reqs] == [0, 0, 3]


def test_resolution_after_closing_request_raises():
    """The crossbar and the L2 keep a load's requests to one channel in
    order, so a resolution after the closing one would mis-size the
    group: it must raise rather than announce."""
    txn = LoadTransaction(0, 7, n_requests=2, t_issue=0)
    closing, late = _req(0), _req(0)
    closing.closes_group = True
    assert txn.note_resolved(closing, to_dram=True) == 1
    with pytest.raises(ValueError, match="after its load's closing request"):
        txn.note_resolved(late, to_dram=True)
    # Other channels are unaffected.
    other = _req(1)
    other.closes_group = True
    assert txn.note_resolved(other, to_dram=True) == 1


def test_note_dram_bound_statistics():
    txn = LoadTransaction(0, 1, n_requests=3, t_issue=0)
    a = _req(0)
    b = _req(2)
    b.bank = 5
    txn.note_dram_bound(a)
    txn.note_dram_bound(b)
    assert txn.dram_requests == 2
    assert txn.channels_touched == {0, 2}
    assert txn.banks_touched == {(0, 0), (2, 5)}


def test_warp_key_helper():
    assert warp_key(3, 9) == (3, 9)
