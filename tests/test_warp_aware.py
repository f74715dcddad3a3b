"""Behavioral tests for WG-M coordination, WG-Bw MERB gating and WG-W
write-aware draining."""

import dataclasses

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stats import ChannelStats
from repro.mc.coordination import CoordinationNetwork
from repro.mc.registry import controller_class

from helpers import MCHarness, make_request
from test_schedulers import send_group


# ---------------------------------------------------------------------------
# WG-M coordination (§IV-C)
# ---------------------------------------------------------------------------
def build_pair(scheduler: str = "wg-m"):
    cfg = SimConfig()
    eng = Engine()
    net = CoordinationNetwork(eng)
    mcs, stats, delivered = [], [], []
    for ch in range(2):
        st = ChannelStats()
        mc = controller_class(scheduler)(eng, ch, cfg, st, delivered.append)
        mc.attach_network(net)
        mcs.append(mc)
        stats.append(st)
    return eng, net, mcs, stats, delivered


def test_selection_broadcasts_to_peers():
    eng, net, mcs, stats, _ = build_pair()
    req = make_request(bank=0, row=1, warp_id=1)
    mcs[0].receive_read(req)
    eng.run(max_events=100_000)
    assert stats[0].coordination_msgs_sent == 1


def test_remote_score_discount_promotes_laggard_group():
    eng, net, mcs, stats, _ = build_pair()
    from repro.core.request import LoadTransaction

    # Backlog of foreign singleton groups on channel 1, bank 0, at t=0.
    backlog = []
    for i in range(8):
        r = make_request(bank=0, row=10 + i, warp_id=50 + i, channel=1)
        mcs[1].receive_read(r)
        backlog.append(r)

    r0 = make_request(bank=0, row=1, warp_id=1, channel=0)
    r1 = make_request(bank=0, row=99, warp_id=1, channel=1)

    def inject_warp1():
        # Warp 1 spans both channels, arriving after the backlog has
        # occupied channel 1's command queues.
        txn = LoadTransaction(0, 1, n_requests=2, t_issue=eng.now)
        for r in (r0, r1):
            r.transaction = txn
            r.closes_group = True  # each is its channel's only request
        mcs[0].receive_read(r0)
        mcs[1].receive_read(r1)

    eng.schedule_at(2000, inject_warp1)
    eng.run(max_events=300_000)
    # Channel 0 selects warp 1 immediately (its only group), broadcasts a
    # low score; channel 1 — where the group would otherwise wait behind
    # the backlog — applies the discount and promotes it.
    assert stats[1].coordination_msgs_applied >= 1
    assert r1.t_scheduled < max(b.t_scheduled for b in backlog)
    assert r0.t_data > 0 and r1.t_data > 0


def test_discount_ignored_when_local_score_lower():
    eng, net, mcs, stats, _ = build_pair()
    # A message about a warp the peer doesn't hold is a no-op.
    mcs[1].receive_coordination((0, 123), remote_score=5)
    assert stats[1].coordination_msgs_applied == 0


# ---------------------------------------------------------------------------
# WG-Bw MERB gate (§IV-D)
# ---------------------------------------------------------------------------
def test_merb_gate_defers_row_miss_behind_pending_hits(harness):
    h = harness("wg-bw")
    # Prime bank 0 on row 1 via an initial group.
    send_group(h, warp_id=1, specs=[(0, 1)])
    h.run()
    h.delivered.clear()
    # Pending row hits from an incomplete background warp...
    from repro.core.request import LoadTransaction

    bg = LoadTransaction(0, 9, n_requests=8, t_issue=h.engine.now)
    hit_reqs = []
    for i in range(6):  # its closing request never arrives
        r = make_request(bank=0, row=1, col=i, warp_id=9)
        r.transaction = bg
        h.mc.receive_read(r)
        hit_reqs.append(r)
    # ...and a complete single-request group that misses the row.
    miss = send_group(h, warp_id=2, specs=[(0, 77)])[0]
    h.run(max_events=200_000)
    # The MERB gate schedules (some of) the pending hits before the miss.
    assert h.stats.merb_deferrals > 0
    serviced_before_miss = sum(1 for r in hit_reqs if 0 < r.t_data < miss.t_data)
    assert serviced_before_miss > 0


def test_orphan_control_rescues_stranded_hits():
    """Direct-state test of the orphan rule: when the MERB threshold is
    already met and only 1-2 hits remain on the open row, they are
    scheduled ahead of the row change."""
    h = MCHarness("wg-bw")
    mc = h.mc
    # Bank 0's queue tail is on row 1 with a saturated hit counter (the
    # MERB threshold can't defer further), other banks busy.
    mc.cq.last_sched_row[0] = 1
    mc.cq.hits_since_row_change[0] = 31
    # Two stranded row-1 hits from an incomplete background group.
    from repro.core.request import LoadTransaction

    bg = LoadTransaction(0, 9, n_requests=4, t_issue=0)
    orphans = []
    for i in range(2):
        r = make_request(bank=0, row=1, col=i, warp_id=9)
        r.transaction = bg
        mc.sorter.add(r, 0)
        orphans.append(r)
    # Insert a row-miss request: orphan control must pull both hits first.
    miss = make_request(bank=0, row=77, warp_id=2)
    miss.transaction = LoadTransaction(0, 2, n_requests=1, t_issue=0)
    mc.sorter.add(miss, 0)
    mc._insert_request(miss, 0)
    assert h.stats.orphan_rescues == 2
    order = list(mc.cq.queues[0])
    assert order == orphans + [miss]


def test_merb_gate_respects_command_queue_depth():
    """Regression: the MERB gate must not push a bank's command queue past
    ``command_queue_depth``.  Pre-fix it inserted fillers until the MERB
    threshold (up to 31 hit-bursts) was met, even though the group's pick
    only guaranteed one free slot."""
    h = MCHarness("wg-bw")
    mc = h.mc
    depth = mc.cq.depth
    mc.cq.last_sched_row[0] = 1  # planning-time open row on bank 0
    from repro.core.request import LoadTransaction

    bg = LoadTransaction(0, 9, n_requests=32, t_issue=0)
    for i in range(3 * depth):  # far more pending hits than queue space
        r = make_request(bank=0, row=1, col=i, warp_id=9)
        r.transaction = bg
        mc.sorter.add(r, 0)
    miss = make_request(bank=0, row=77, warp_id=2)
    miss.transaction = LoadTransaction(0, 2, n_requests=1, t_issue=0)
    mc.sorter.add(miss, 0)
    mc._insert_request(miss, 0)
    # Pre-fix: 3*depth fillers + the miss in a `depth`-deep queue.
    assert mc.cq.occupancy(0) <= depth
    # The gate still made progress: it used every slot it could while
    # reserving one for the row-miss itself.
    assert h.stats.merb_deferrals == depth - 1
    assert mc.cq.queues[0][-1] is miss


def test_merb_gate_noop_when_queue_full():
    """With no free slot beyond the miss's own, the gate defers nothing."""
    h = MCHarness("wg-bw")
    mc = h.mc
    from repro.core.request import LoadTransaction

    filler_txn = LoadTransaction(0, 9, n_requests=32, t_issue=0)
    for i in range(mc.cq.depth - 1):  # leave exactly one slot
        seed = make_request(bank=0, row=1, col=i, warp_id=7)
        mc.sorter.add(seed, 0)
        mc._insert_request(seed, 0)
    stray = make_request(bank=0, row=1, col=14, warp_id=9)
    stray.transaction = filler_txn
    mc.sorter.add(stray, 0)
    before = h.stats.merb_deferrals
    miss = make_request(bank=0, row=77, warp_id=2)
    miss.transaction = LoadTransaction(0, 2, n_requests=1, t_issue=0)
    mc.sorter.add(miss, 0)
    mc._insert_request(miss, 0)
    assert h.stats.merb_deferrals == before
    assert mc.cq.occupancy(0) == mc.cq.depth


def test_wgbw_command_queues_never_exceed_depth_end_to_end(harness):
    """System-level guard: with singleton foreground groups (so the base
    scheduler itself never overshoots), the MERB gate must keep bank 0's
    queue within its configured depth at every insert."""
    h = harness("wg-bw")
    depth = h.mc.cq.depth
    send_group(h, warp_id=1, specs=[(0, 1)])  # prime bank 0 on row 1
    h.run()
    h.delivered.clear()
    from repro.core.request import LoadTransaction

    bg = LoadTransaction(0, 9, n_requests=16, t_issue=h.engine.now)
    for i in range(12):  # incomplete background hits: filler candidates
        r = make_request(bank=0, row=1, col=i, warp_id=9)
        r.transaction = bg
        h.mc.receive_read(r)
    original_insert = h.mc.cq.insert
    max_seen = 0

    def checked_insert(req, now_ps):
        nonlocal max_seen
        original_insert(req, now_ps)
        max_seen = max(max_seen, h.mc.cq.occupancy(req.bank))

    h.mc.cq.insert = checked_insert
    send_group(h, warp_id=2, specs=[(0, 77)])  # row miss triggers the gate
    h.run(max_events=400_000)
    # Pre-fix the gate pulled all 12 hits at once (occupancy 13 > depth).
    assert max_seen <= depth
    # Post-fix: depth-1 fillers plus the miss were serviced.
    assert len(h.delivered) == depth


# ---------------------------------------------------------------------------
# WG pressure fallback (read queue full, no complete group)
# ---------------------------------------------------------------------------
def incomplete_singleton(h, warp_id: int, bank: int, row: int):
    """A one-request group whose size announcement never arrives (the
    request does not close its group, and the closing one never comes)."""
    from repro.core.request import LoadTransaction

    txn = LoadTransaction(0, warp_id, n_requests=2, t_issue=h.engine.now)
    req = make_request(bank=bank, row=row, warp_id=warp_id)
    req.transaction = txn
    h.mc.receive_read(req)
    return req


def test_pressure_fallback_services_incomplete_groups(harness):
    """With the read queue full and no complete group, the fallback must
    partially service the oldest groups instead of deadlocking."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, read_queue_entries=4)
    )
    h = harness("wg", cfg)
    reqs = [incomplete_singleton(h, warp_id=i, bank=i % 4, row=i) for i in range(6)]
    assert h.stats.read_queue_full_events > 0  # backpressure reached
    h.run(max_events=400_000)
    assert len(h.delivered) == 6  # nothing deadlocked
    assert {r.req_id for r in h.delivered} == {r.req_id for r in reqs}
    assert h.mc.pending_work() == 0
    # Oldest-first: the fallback drains groups in arrival order.
    assert reqs[0].t_scheduled <= reqs[-1].t_scheduled


def test_pressure_fallback_counts_the_reads_it_inserts(harness):
    """``fallback_reads`` counts every pending read of each group the
    fallback inserts; GMC, which has no fallback, reports 0 on the same
    read-queue pressure."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, read_queue_entries=4)
    )
    for scheduler, expected in (("wg", 6), ("gmc", 0)):
        h = harness(scheduler, cfg)
        for i in range(6):
            incomplete_singleton(h, warp_id=i, bank=i % 4, row=i)
        assert h.stats.read_queue_full_events > 0  # backpressure reached
        h.run(max_events=400_000)
        assert len(h.delivered) == 6
        assert h.stats.fallback_reads == expected, scheduler


def test_no_fallback_below_queue_pressure(harness):
    """Incomplete groups wait for their stragglers while the read queue
    has room: the fallback must NOT fire."""
    h = harness("wg")
    incomplete_singleton(h, warp_id=1, bank=0, row=1)
    incomplete_singleton(h, warp_id=2, bank=1, row=2)
    h.run()
    assert len(h.delivered) == 0  # still waiting, by design
    assert h.mc.pending_work() == 2
    assert not h.mc.sorter.empty()


def test_fallback_unblocks_arrival_of_completions(harness):
    """After a pressure spill, a late size announcement still completes
    the remaining groups normally."""
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, read_queue_entries=4)
    )
    h = harness("wg", cfg)
    reqs = [incomplete_singleton(h, warp_id=i, bank=i % 4, row=i) for i in range(5)]
    # One group's announcement eventually arrives (size = what it holds).
    h.engine.schedule_at(500, lambda: h.mc.receive_group_complete((0, 4), 1))
    h.run(max_events=400_000)
    assert len(h.delivered) == 5
    assert all(r.t_data > 0 for r in reqs)


# ---------------------------------------------------------------------------
# WG-W write-aware drain (§IV-E)
# ---------------------------------------------------------------------------
def test_wgw_promotes_unit_groups_near_drain(harness):
    h = harness("wg-w")
    guard = h.config.mc.write_high_watermark - h.config.mc.wgw_drain_guard_entries
    # Fill the write queue up to the guard band (no drain yet).
    for i in range(guard):
        h.write(bank=4 + i % 4, row=i)
    # A big low-priority group and a unit-size group with a *worse* score.
    big = send_group(h, warp_id=1, specs=[(0, 1), (0, 1), (0, 1)])
    unit = send_group(h, warp_id=2, specs=[(0, 50)])[0]  # row miss: higher score
    h.run(max_events=400_000)
    assert h.stats.wgw_promotions >= 1
    assert unit.t_scheduled <= min(r.t_scheduled for r in big)


def test_wgw_no_promotion_below_guard_band(harness):
    """One write short of the guard band: unit groups keep their normal
    rank and no promotion is counted."""
    h = harness("wg-w")
    guard = h.config.mc.write_high_watermark - h.config.mc.wgw_drain_guard_entries
    for i in range(guard - 1):
        h.write(bank=4 + i % 4, row=i)
    send_group(h, warp_id=1, specs=[(0, 1), (0, 1), (0, 1)])
    unit = send_group(h, warp_id=2, specs=[(0, 50)])[0]
    h.run(max_events=400_000)
    assert h.stats.wgw_promotions == 0
    assert unit.t_data > 0
    assert h.mc.pending_work() == 0


def test_wgw_behaves_like_wgbw_without_write_pressure(harness):
    ha, hb = harness("wg-w"), harness("wg-bw")
    for h in (ha, hb):
        send_group(h, warp_id=1, specs=[(0, 1), (1, 2)])
        send_group(h, warp_id=2, specs=[(0, 3)])
        h.run()
    assert [r.t_data for r in ha.delivered] == [r.t_data for r in hb.delivered]
    assert ha.stats.wgw_promotions == 0


# ---------------------------------------------------------------------------
# Adversarial coordination orderings: late, duplicated and useless
# messages must be no-ops, never corruption (see docs/robustness.md).
# ---------------------------------------------------------------------------
def incomplete_group(mc, channel=0, warp_id=5):
    """Park one request of a still-dispatching warp in the sorter."""
    from repro.core.request import LoadTransaction

    txn = LoadTransaction(0, warp_id, n_requests=4, t_issue=0)
    r = make_request(bank=0, row=1, warp_id=warp_id, channel=channel)
    r.transaction = txn
    mc.receive_read(r)
    return (0, warp_id)


def test_coordination_message_for_completed_warp_is_noop():
    """A broadcast that arrives after the warp drained locally is dropped."""
    eng, net, mcs, stats, delivered = build_pair()
    req = make_request(bank=0, row=1, warp_id=1, channel=1)
    mcs[1].receive_read(req)
    eng.run(max_events=100_000)
    assert req.t_data > 0  # the warp's only request completed
    applied_before = stats[1].coordination_msgs_applied
    mcs[1].receive_coordination((0, 1), remote_score=0)
    assert stats[1].coordination_msgs_applied == applied_before
    assert mcs[1].sorter.get((0, 1)) is None  # nothing resurrected
    eng.run(max_events=100_000)  # and the controller stays healthy


def test_duplicate_broadcasts_apply_once():
    eng, net, mcs, stats, _ = build_pair()
    key = incomplete_group(mcs[1], channel=1)
    mcs[1].receive_coordination(key, remote_score=7)
    mcs[1].receive_coordination(key, remote_score=7)  # exact duplicate
    mcs[1].receive_coordination(key, remote_score=9)  # stale (worse) score
    assert stats[1].coordination_msgs_applied == 1
    assert mcs[1].sorter.get(key).remote_score == 7
    mcs[1].receive_coordination(key, remote_score=3)  # genuinely better
    assert stats[1].coordination_msgs_applied == 2
    assert mcs[1].sorter.get(key).remote_score == 3


def test_remote_score_above_local_never_promotes():
    """LC <= RC: a peer that would finish *later* must not change our
    ranking (the clamp only ever lowers the local score)."""
    from repro.mc.warp_sorter import WarpSorter

    eng, net, mcs, stats, _ = build_pair()
    key = incomplete_group(mcs[1], channel=1)
    entry = mcs[1].sorter.get(key)
    score_before, hits_before = WarpSorter.score(entry, mcs[1].cq)
    mcs[1].receive_coordination(key, remote_score=score_before + 10**6)
    assert WarpSorter.score(entry, mcs[1].cq) == (score_before, hits_before)
    # ...whereas a lower remote score clamps the local one down to it.
    mcs[1].receive_coordination(key, remote_score=0)
    assert WarpSorter.score(entry, mcs[1].cq) == (0, hits_before)
