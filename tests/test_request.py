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
    fired = []
    txn = LoadTransaction(
        0, 7, n_requests=4, t_issue=0,
        on_group_complete=lambda ch, key, n: fired.append((ch, key, n)),
    )
    for ch in (0, 0, 1):
        txn.note_dispatched(ch)
    txn.note_dispatched(2)
    txn.finish_dispatch()
    # channel 1's only request resolves as an L2 hit: no group there.
    txn.note_resolved(1, to_dram=False)
    assert fired == []
    # channel 0: one L2 hit + one DRAM admission -> group of size 1.
    txn.note_resolved(0, to_dram=True)
    assert fired == []  # still waiting for channel 0's second lookup
    txn.note_resolved(0, to_dram=False)
    assert fired == [(0, (0, 7), 1)]
    txn.note_resolved(2, to_dram=True)
    assert fired == [(0, (0, 7), 1), (2, (0, 7), 1)]


def test_group_complete_waits_for_dispatch_finish():
    fired = []
    txn = LoadTransaction(
        0, 7, n_requests=2, t_issue=0,
        on_group_complete=lambda ch, key, n: fired.append(ch),
    )
    txn.note_dispatched(0)
    txn.note_resolved(0, to_dram=True)
    assert fired == []  # the SM may still dispatch more to channel 0
    txn.finish_dispatch()
    assert fired == [0]


def test_dispatch_after_finish_rejected():
    txn = LoadTransaction(0, 1, n_requests=2, t_issue=0)
    txn.finish_dispatch()
    with pytest.raises(ValueError):
        txn.note_dispatched(0)


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
