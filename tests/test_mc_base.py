"""Controller-shell tests: queues, drain FSM, forwarding, backpressure."""

import dataclasses

from repro.core.config import SimConfig

from helpers import MCHarness, make_request, record_announcements, tagged_load


def test_reads_complete_and_deliver(harness):
    h = harness("gmc")
    reqs = [h.read(bank=b % 4, row=1) for b in range(8)]
    h.run()
    assert len(h.delivered) == 8
    assert {r.req_id for r in h.delivered} == {r.req_id for r in reqs}
    for r in reqs:
        assert r.t_data > r.t_mc_arrival
    assert h.stats.reads == 8


def test_read_forwarded_from_write_queue(harness):
    h = harness("gmc")
    w = h.write(bank=0, row=1, col=3)
    r = h.read(bank=0, row=1, col=3, addr=w.addr)
    h.run()
    assert r.serviced_by == "wq"
    # Forwarding answers at CAS latency without a DRAM read.
    assert h.stats.reads == 0
    assert len(h.delivered) == 1


def test_watermark_drain_triggers_and_stops(harness):
    h = harness("gmc")
    hw = h.config.mc.write_high_watermark
    lw = h.config.mc.write_low_watermark
    for i in range(hw):
        h.write(bank=i % 4, row=i % 3)
    # Keep a read stream alive so the idle-drain path is not what fires.
    for i in range(4):
        h.read(bank=8 + i % 2, row=1)
    h.run()
    assert h.stats.write_drains >= 1
    assert h.stats.drain_writes >= hw - lw
    assert h.stats.writes >= hw - lw


def test_idle_drain_flushes_writes_without_watermark(harness):
    h = harness("gmc")
    for i in range(4):  # far below the high watermark
        h.write(bank=i, row=2)
    h.run()
    assert h.stats.writes == 4
    assert h.mc.pending_work() == 0
    # Opportunistic drains don't count as watermark drains.
    assert h.stats.write_drains == 0


def test_read_queue_backpressure_overflow(harness):
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, read_queue_entries=4)
    )
    h = harness("gmc", cfg)
    for i in range(12):
        h.read(bank=i % 2, row=i)
    assert h.stats.read_queue_full_events > 0
    h.run()
    assert len(h.delivered) == 12  # everything still completes
    assert h.mc.pending_work() == 0


def test_read_forwarded_from_overflowed_write(harness):
    """Regression: a write parked in the overflow buffer must still be
    visible to write-to-read forwarding.  Pre-fix, only writes admitted to
    the write queue were indexed, so a read to an overflowed write's line
    went to DRAM instead of being answered from the buffer."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, write_queue_entries=4)
    )
    h = harness("gmc", cfg)
    for i in range(4):  # fill the write queue
        h.write(bank=0, row=i)
    parked = h.write(bank=1, row=9)  # lands in _write_overflow
    assert len(h.mc._write_overflow) == 1
    r = h.read(bank=1, row=9, addr=parked.addr)
    assert r.serviced_by == "wq"  # pre-fix: "dram"
    h.run()
    assert h.stats.writes == 5  # every buffered write still drains
    assert h.mc.pending_work() == 0


def test_forwarding_prefers_newest_write_across_overflow(harness):
    """With the same line buffered both in the queue and in overflow, the
    overflow entry is newer and must win the forwarding index."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, write_queue_entries=2)
    )
    h = harness("gmc", cfg)
    first = h.write(bank=0, row=1, col=3)
    h.write(bank=0, row=2)
    newest = h.write(bank=0, row=1, col=3, addr=first.addr)  # overflows
    assert h.mc._wq_index[first.addr] is newest
    r = h.read(bank=0, row=1, col=3, addr=first.addr)
    assert r.serviced_by == "wq"
    h.run()
    assert h.mc.pending_work() == 0
    assert h.mc._wq_index == {}  # drained writes are fully de-indexed


def test_write_overflow_drains_in_fifo_order(harness):
    """A write arriving while the overflow buffer is non-empty must queue
    behind it (not jump into freed write-queue space out of order)."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, write_queue_entries=2)
    )
    h = harness("gmc", cfg)
    for i in range(3):
        h.write(bank=0, row=i)
    late = h.write(bank=0, row=7)
    assert list(h.mc._write_overflow)[-1] is late
    h.run()
    assert h.stats.writes == 4
    assert h.mc.pending_work() == 0


def test_row_hit_stream_counted(harness):
    h = harness("gmc")
    for i in range(6):
        h.read(bank=0, row=7, col=i)
    h.run()
    assert h.stats.row_misses == 1  # first access opens the row
    assert h.stats.row_hits == 5


def test_bank_interleaving_uses_bank_groups(harness):
    """With one request per bank across groups, all four activates issue
    within a tFAW window (bank-group round-robin, tRRD-limited)."""
    h = harness("gmc")
    for b in (0, 4, 8, 12):  # one bank per bank group
        h.read(bank=b, row=1)
    h.run()
    t = h.config.dram_timing
    span = max(r.t_data for r in h.delivered) - min(r.t_data for r in h.delivered)
    # Row cycles overlap: total span far below 4 serial row misses.
    assert span < 2 * (t.trp_ps + t.trcd_ps + t.tcas_ps)


def test_write_then_read_same_bank_round_trip(harness):
    h = harness("gmc")
    h.write(bank=0, row=1)
    r = h.read(bank=0, row=2)
    h.run()
    assert h.stats.writes == 1
    assert r.t_data > 0


def test_pending_work_accounting(harness):
    h = harness("gmc")
    assert h.mc.pending_work() == 0
    h.read(bank=0, row=1)
    h.write(bank=1, row=1)
    assert h.mc.pending_work() == 2
    h.run()
    assert h.mc.pending_work() == 0


def test_deterministic_replay():
    def run_once():
        h = MCHarness("gmc")
        reqs = [h.read(bank=i % 5, row=(i * 7) % 3, col=i % 16) for i in range(20)]
        h.run()
        return [r.t_data for r in reqs]  # by submission order

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# The group tag (§IV-B) resolved inside the controller: a load's closing
# request announces the group's size wherever the controller resolves it.
# ---------------------------------------------------------------------------
def test_closing_write_queue_forward_announces_the_admitted_requests(harness):
    h = harness("wg")
    announced = record_announcements(h.mc)
    own, fwd = tagged_load(1, [(0, 1), (3, 4)])
    h.write(bank=3, row=4, addr=fwd.addr)
    h.mc.receive_read(own)
    assert announced == []
    h.mc.receive_read(fwd)
    assert fwd.serviced_by == "wq"
    assert announced == [((0, 1), 1, 0)]  # only the admitted request counts
    h.run()
    assert own.t_data > 0 and h.stats.reads == 1


def test_closing_request_parked_in_the_read_overflow_announces(harness):
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, read_queue_entries=2)
    )
    h = harness("wg", cfg)
    announced = record_announcements(h.mc)
    for i in range(2):  # fill the read queue with other warps' reads
        h.read(bank=i, row=7, warp_id=10 + i)
    reqs = tagged_load(1, [(4, 1), (5, 2)])
    for req in reqs:
        h.mc.receive_read(req)
    # Both parked, and the closing one announced the pair on parking.
    assert list(h.mc._read_overflow) == reqs
    assert announced == [((0, 1), 2, 0)]
    h.run()
    assert all(r.t_data > 0 for r in reqs)
    assert h.mc.pending_work() == 0
