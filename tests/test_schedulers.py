"""Behavioral tests for the individual scheduling policies.

These drive controllers directly with hand-built request patterns whose
correct service order is known from the paper's policy descriptions.
"""

import dataclasses

from repro.core.config import SimConfig
from repro.core.request import LoadTransaction

from helpers import MCHarness, make_request, tagged_load


def send_group(h: MCHarness, warp_id: int, specs, sm_id: int = 0):
    """Inject a complete warp-group: specs = [(bank, row), ...].

    Uses a real LoadTransaction and tags the last request, so the
    group-size announcement flows exactly as in the full system.
    """
    reqs = tagged_load(warp_id, specs, sm_id=sm_id)
    for req in reqs:
        h.mc.receive_read(req)
    return reqs


# ---------------------------------------------------------------------------
# FCFS / FR-FCFS
# ---------------------------------------------------------------------------
def test_fcfs_services_in_arrival_order_per_bank(harness):
    h = harness("fcfs")
    a = h.read(bank=0, row=1)
    b = h.read(bank=0, row=2)
    c = h.read(bank=0, row=1)  # row hit available, but FCFS ignores it
    h.run()
    assert a.t_data < b.t_data < c.t_data
    assert h.stats.row_hits == 0  # 1,2,1 never hits


def test_frfcfs_prefers_row_hits(harness):
    h = harness("frfcfs")
    a = h.read(bank=0, row=1)
    b = h.read(bank=0, row=2)
    c = h.read(bank=0, row=1)
    h.run()
    # c (row hit after a) jumps ahead of b.
    assert c.t_data < b.t_data
    assert h.stats.row_hits == 1


# ---------------------------------------------------------------------------
# GMC baseline
# ---------------------------------------------------------------------------
def test_gmc_max_streak_yields_to_other_row():
    cfg = dataclasses.replace(
        SimConfig(), mc=dataclasses.replace(SimConfig().mc, max_row_hit_streak=4)
    )
    h = MCHarness("gmc", cfg)
    hits = [h.read(bank=0, row=1, col=i % 16) for i in range(10)]
    other = h.read(bank=0, row=2)
    h.run()
    # The streak limit forces row 2 in before all ten row-1 requests drain.
    assert other.t_data < max(r.t_data for r in hits)


def test_gmc_age_threshold_rescues_starved_request():
    # Tiny threshold so requests age while the command queue drains; the
    # streak limit is disabled to isolate the age guard.
    cfg = dataclasses.replace(
        SimConfig(),
        mc=dataclasses.replace(
            SimConfig().mc, age_threshold_ns=10.0, max_row_hit_streak=1 << 20
        ),
    )
    h = MCHarness("gmc", cfg)
    h.read(bank=0, row=1, col=0)
    starved = h.read(bank=0, row=2)
    # A long row-1 stream that would starve row 2 forever without aging.
    for i in range(60):
        h.read(bank=0, row=1, col=i % 16)
    h.run()
    finished_after = sum(1 for r in h.delivered if r.t_data > starved.t_data)
    assert finished_after >= 10  # the starved miss preempted the stream


# ---------------------------------------------------------------------------
# WG (§IV-B)
# ---------------------------------------------------------------------------
def test_wg_shortest_group_first(harness):
    h = harness("wg")
    # Long group: 6 requests, all fresh rows on bank 0.
    long_group = send_group(h, warp_id=1, specs=[(0, r) for r in range(2, 8)])
    # Short group: 1 request on the same bank, arriving later.
    short_group = send_group(h, warp_id=2, specs=[(0, 99)])
    h.run()
    # SJF: the later, shorter group completes before the long one.
    assert short_group[0].t_data < max(r.t_data for r in long_group)


def test_wg_group_scheduled_together(harness):
    h = harness("wg")
    grp = send_group(h, warp_id=1, specs=[(0, 5), (1, 6), (2, 7)])
    # competing singles from other warps
    for i in range(6):
        send_group(h, warp_id=10 + i, specs=[(i % 3, 40 + i)])
    h.run()
    t_sched = [r.t_scheduled for r in grp]
    assert max(t_sched) == min(t_sched)  # pulled as one unit


def test_wg_waits_for_group_completion(harness):
    h = harness("wg")
    txn = LoadTransaction(0, 1, n_requests=2, t_issue=0)
    first = make_request(bank=0, row=1, warp_id=1)
    first.transaction = txn
    h.mc.receive_read(first)
    # Competing complete singleton arrives later but is schedulable.
    other = send_group(h, warp_id=2, specs=[(0, 2)])[0]
    h.engine.run(max_events=10_000)
    assert other.t_data > 0
    assert first.t_data < 0  # still waiting: group incomplete
    # Second request arrives; group completes and drains.
    second = make_request(bank=1, row=1, warp_id=1)
    second.transaction = txn
    second.closes_group = True
    h.mc.receive_read(second)
    h.run()
    assert first.t_data > 0 and second.t_data > 0


def test_wg_tie_break_prefers_row_hits(harness):
    h = harness("wg")
    # Prime bank 0 to row 5 and bank 1 to row 9.
    send_group(h, warp_id=1, specs=[(0, 5)])
    send_group(h, warp_id=2, specs=[(1, 9)])
    h.run()
    h.delivered.clear()
    # Two new singleton groups, same structure; one hits bank 0's row.
    hit = send_group(h, warp_id=3, specs=[(0, 5)])[0]
    miss = send_group(h, warp_id=4, specs=[(0, 6)])[0]
    h.run()
    assert hit.t_data < miss.t_data


# ---------------------------------------------------------------------------
# WAFCFS (§VI-C2)
# ---------------------------------------------------------------------------
def test_wafcfs_strict_completion_order(harness):
    h = harness("wafcfs")
    g1 = send_group(h, warp_id=1, specs=[(0, 1), (0, 3)])
    g2 = send_group(h, warp_id=2, specs=[(0, 2)])
    h.run()
    # Group 1 completed first, so *all* of it is serviced before group 2,
    # even though g2 would be a shorter job.
    assert max(r.t_data for r in g1) < g2[0].t_data


def test_wafcfs_no_row_reordering_inside_group(harness):
    h = harness("wafcfs")
    grp = send_group(h, warp_id=1, specs=[(0, 1), (0, 2), (0, 1)])
    h.run()
    order = sorted(grp, key=lambda r: r.t_data)
    assert [r.row for r in order] == [1, 2, 1]
    assert h.stats.row_hits == 0


# ---------------------------------------------------------------------------
# SBWAS (§VI-C1)
# ---------------------------------------------------------------------------
def test_sbwas_short_warp_preempts_row_stream(harness):
    h = harness("sbwas")
    # Warm a long row-hit stream on bank 0 for warp 1 (many remaining).
    stream = [h.read(bank=0, row=1, col=i % 16, warp_id=1) for i in range(12)]
    # Warp 2 has a single remaining request: row miss on the same bank.
    short = h.read(bank=0, row=2, warp_id=2)
    h.run()
    assert short.t_data < max(r.t_data for r in stream)


def test_sbwas_interleaves_writes_without_drain(harness):
    h = harness("sbwas")
    for i in range(6):
        h.read(bank=0, row=1, col=i % 16, warp_id=1)
    w = h.write(bank=0, row=1, col=7)
    h.run()
    assert h.stats.writes == 1
    assert h.stats.write_drains == 0
    assert h.mc.pending_work() == 0
