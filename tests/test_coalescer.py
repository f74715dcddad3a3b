"""Unit and property tests for the memory coalescer (§III-A)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import SimConfig
from repro.gpu.coalescer import coalesce

LINE = SimConfig().dram_org.line_bytes


def test_perfectly_coalesced_load_is_one_request():
    lanes = [1024 + 4 * i for i in range(32)]
    assert coalesce(lanes, LINE) == [1024]


def test_unaligned_contiguous_load_spans_two_lines():
    lanes = [1000 + 4 * i for i in range(32)]
    assert coalesce(lanes, LINE) == [896, 1024]


def test_fully_divergent_load():
    lanes = [i * 4096 for i in range(32)]
    assert len(coalesce(lanes, LINE)) == 32


def test_masked_lanes_skipped():
    lanes = [None] * 30 + [256, 512]
    assert coalesce(lanes, LINE) == [256, 512]


def test_all_masked_returns_empty():
    assert coalesce([None] * 32, LINE) == []


def test_first_appearance_order_preserved():
    lanes = [512, 0, 513, 128, 1]
    assert coalesce(lanes, LINE) == [512, 0, 128]


@given(st.lists(st.one_of(st.none(), st.integers(0, 1 << 30)), max_size=32))
def test_property_results_are_unique_aligned_lines(lanes):
    lines = coalesce(lanes, LINE)
    assert len(lines) == len(set(lines))
    for line in lines:
        assert line % 128 == 0
    active = {a & ~127 for a in lanes if a is not None}
    assert set(lines) == active


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
def test_property_count_bounded_by_lanes(lanes):
    assert 1 <= len(coalesce(lanes, LINE)) <= len(lanes)


@pytest.mark.parametrize("line_bytes", [32, 64, 128])
def test_range_lanes_coalesce_like_their_list(line_bytes):
    """A ``range`` of lanes (a stream's lanes stay one) gives the lines
    and order of the same addresses as a list: strides 1 to 2x the line,
    negative strides, and empty or single-lane ranges."""
    steps = [*range(1, 2 * line_bytes + 1), -1, -4, -line_bytes, -3 * line_bytes]
    for step in steps:
        for start in (0, 4, line_bytes - 1, 4096 + 12):
            for n_lanes in (0, 1, 2, 32):
                lanes = range(start, start + n_lanes * step, step)
                assert coalesce(lanes, line_bytes) == coalesce(
                    list(lanes), line_bytes
                ), (step, start, n_lanes)
