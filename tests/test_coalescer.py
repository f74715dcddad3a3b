"""Unit and property tests for the memory coalescer (§III-A)."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu.coalescer import CoalescerStats, coalesce


def test_perfectly_coalesced_load_is_one_request():
    lanes = [1024 + 4 * i for i in range(32)]
    assert coalesce(lanes) == [1024]


def test_unaligned_contiguous_load_spans_two_lines():
    lanes = [1000 + 4 * i for i in range(32)]
    assert coalesce(lanes) == [896, 1024]


def test_fully_divergent_load():
    lanes = [i * 4096 for i in range(32)]
    assert len(coalesce(lanes)) == 32


def test_masked_lanes_skipped():
    lanes = [None] * 30 + [256, 512]
    assert coalesce(lanes) == [256, 512]


def test_all_masked_returns_empty_and_no_stats():
    stats = CoalescerStats()
    assert coalesce([None] * 32, stats=stats) == []
    assert stats.loads == 0


def test_first_appearance_order_preserved():
    lanes = [512, 0, 513, 128, 1]
    assert coalesce(lanes) == [512, 0, 128]


def test_stats_accumulate():
    stats = CoalescerStats()
    coalesce([0, 4, 8], stats=stats)
    coalesce([0, 4096], stats=stats)
    assert stats.loads == 2
    assert stats.requests == 3
    assert stats.divergent_loads == 1
    assert stats.requests_per_load == 1.5
    assert stats.frac_divergent == 0.5


def test_empty_stats_are_zero():
    stats = CoalescerStats()
    assert stats.requests_per_load == 0.0
    assert stats.frac_divergent == 0.0


@given(st.lists(st.one_of(st.none(), st.integers(0, 1 << 30)), max_size=32))
def test_property_results_are_unique_aligned_lines(lanes):
    lines = coalesce(lanes)
    assert len(lines) == len(set(lines))
    for line in lines:
        assert line % 128 == 0
    active = {a & ~127 for a in lanes if a is not None}
    assert set(lines) == active


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
def test_property_count_bounded_by_lanes(lanes):
    assert 1 <= len(coalesce(lanes)) <= len(lanes)


@pytest.mark.parametrize("line_bytes", [32, 64, 128])
def test_range_lanes_coalesce_like_their_list(line_bytes):
    """A ``range`` of lanes (a stream's lanes stay one) gives the lines,
    order and stats of the same addresses as a list: strides 1 to 2x the
    line, negative strides, and empty or single-lane ranges."""
    steps = [*range(1, 2 * line_bytes + 1), -1, -4, -line_bytes, -3 * line_bytes]
    for step in steps:
        for start in (0, 4, line_bytes - 1, 4096 + 12):
            for n_lanes in (0, 1, 2, 32):
                lanes = range(start, start + n_lanes * step, step)
                ranged, listed = CoalescerStats(), CoalescerStats()
                assert coalesce(lanes, line_bytes, ranged) == coalesce(
                    list(lanes), line_bytes, listed
                ), (step, start, n_lanes)
                assert (ranged.loads, ranged.requests, ranged.divergent_loads) == (
                    listed.loads,
                    listed.requests,
                    listed.divergent_loads,
                )
