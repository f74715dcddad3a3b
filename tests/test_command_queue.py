"""Unit tests for the per-bank command queues and score bookkeeping."""

from repro.core.config import DRAMOrgConfig
from repro.mc.command_queue import SCORE_HIT, SCORE_MISS, CommandQueues

from helpers import make_request

ORG = DRAMOrgConfig()


def fresh(depth: int = 8) -> CommandQueues:
    return CommandQueues(ORG, depth)


def test_first_insert_scores_as_miss():
    cq = fresh()
    req = make_request(bank=0, row=5)
    cq.insert(req, 0)
    assert req.score == SCORE_MISS
    assert cq.queue_score[0] == SCORE_MISS
    assert cq.last_sched_row[0] == 5


def test_same_row_scores_as_hit():
    cq = fresh()
    cq.insert(make_request(bank=0, row=5), 0)
    req = make_request(bank=0, row=5)
    cq.insert(req, 0)
    assert req.score == SCORE_HIT
    assert cq.queue_score[0] == SCORE_MISS + SCORE_HIT


def test_row_change_resets_hit_counter():
    cq = fresh()
    cq.insert(make_request(bank=0, row=5), 0)
    cq.insert(make_request(bank=0, row=5), 0)
    assert cq.hits_since_row_change[0] == ORG.bursts_per_access
    cq.insert(make_request(bank=0, row=6), 0)
    assert cq.hits_since_row_change[0] == 0


def test_hit_counter_saturates_at_31():
    """The MERB counter the WG-Bw gate reads is 5 bits wide (§IV-D)."""
    cq = fresh(depth=64)
    for _ in range(40):
        cq.insert(make_request(bank=0, row=5), 0)
    assert cq.hits_since_row_change[0] == 31


def test_pop_restores_score():
    cq = fresh()
    first = make_request(bank=0, row=5)
    cq.insert(first, 0)
    cq.insert(make_request(bank=0, row=5), 0)
    assert cq.pop(0) is first
    assert first.score == SCORE_MISS
    assert cq.queue_score[0] == SCORE_HIT
    cq.pop(0)
    assert cq.queue_score[0] == 0


def test_space_and_occupancy():
    cq = fresh(depth=2)
    assert cq.space(0) == 2
    cq.insert(make_request(bank=0, row=1), 0)
    assert cq.space(0) == 1
    assert cq.occupancy(0) == 1
    cq.insert(make_request(bank=0, row=1), 0)
    cq.insert(make_request(bank=0, row=1), 0)  # soft overflow allowed
    assert cq.space(0) == 0
    assert cq.total_occupancy() == 3


def test_full_set_holds_through_overshoot_until_below_depth():
    cq = fresh(depth=2)
    cq.insert(make_request(bank=1, row=1), 0)
    assert cq.full == set()
    cq.insert(make_request(bank=1, row=1), 0)
    assert cq.full == {1}
    cq.insert(make_request(bank=1, row=1), 0)  # WG-family group overshoot
    cq.insert(make_request(bank=1, row=1), 0)
    assert cq.full == {1}
    cq.pop(1)
    cq.pop(1)  # back at depth: still full
    assert cq.full == {1}
    cq.pop(1)  # depth - 1: room again
    assert cq.full == set()
    cq.pop(1)
    assert cq.full == set()


def test_full_set_is_per_bank():
    cq = fresh(depth=1)
    cq.insert(make_request(bank=0, row=1), 0)
    cq.insert(make_request(bank=5, row=2, is_write=True), 0)
    assert cq.full == {0, 5}
    cq.pop(5)
    assert cq.full == {0}


def test_busy_banks_and_pending_reads():
    cq = fresh()
    cq.insert(make_request(bank=0, row=1), 0)
    cq.insert(make_request(bank=3, row=1, is_write=True), 0)
    assert cq.busy_banks() == 2
    assert cq.pending_reads() == 1
    assert not cq.empty()


def test_head_and_timestamps():
    cq = fresh()
    req = make_request(bank=2, row=9)
    cq.insert(req, 1234)
    assert list(cq.queues[2]) == [req]  # the queue holds the request itself
    assert req.t_scheduled == 1234
    assert not cq.queues[3]


def test_predicted_hit_tracks_queue_tail():
    cq = fresh()
    assert not cq.predicted_hit(0, 7)
    cq.insert(make_request(bank=0, row=7), 0)
    assert cq.predicted_hit(0, 7)
    assert cq.request_score(0, 7) == SCORE_HIT
    assert cq.request_score(0, 8) == SCORE_MISS
