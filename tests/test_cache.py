"""Unit and property tests for the cache and MSHR substrates."""

from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig
from repro.gpu.cache import MSHR, Cache


def small_cache(ways: int = 2, sets: int = 4) -> Cache:
    return Cache(CacheConfig(size_bytes=128 * ways * sets, ways=ways))


def test_miss_then_hit_after_fill():
    c = small_cache()
    assert not c.lookup(0)
    c.fill(0)
    assert c.lookup(0)
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = small_cache(ways=2, sets=1)
    c.fill(0)
    c.fill(128)
    c.lookup(0)  # 0 becomes MRU
    victim = c.fill(256)  # evicts 128 (LRU), clean -> no writeback
    assert victim is None
    assert c.contains(0) and c.contains(256) and not c.contains(128)


def test_dirty_eviction_returns_victim():
    c = small_cache(ways=1, sets=1)
    c.fill(0, dirty=True)
    assert c.fill(128) == 0  # the dirty victim comes back for writeback
    assert c.fill(256) is None  # the clean one does not


def test_write_hit_marks_dirty():
    c = small_cache(ways=1, sets=1)
    c.fill(0)
    c.lookup(0, mark_dirty=True)
    assert c.fill(128) == 0  # dirty writeback


def test_fill_existing_line_is_idempotent():
    c = small_cache(ways=2, sets=1)
    c.fill(0)
    assert c.fill(0) is None
    assert c.occupancy() == 1


def test_invalidate():
    c = small_cache()
    c.fill(0)
    c.invalidate(0)
    assert not c.contains(0)
    c.invalidate(0)  # idempotent


def test_hit_rate():
    c = small_cache()
    c.fill(0)
    c.lookup(0)
    c.lookup(128)
    assert c.hit_rate() == 0.5


def test_set_isolation():
    c = small_cache(ways=1, sets=4)
    # Lines mapping to different sets must not evict each other.
    c.fill(0 * 128)
    c.fill(1 * 128)
    c.fill(2 * 128)
    c.fill(3 * 128)
    assert c.occupancy() == 4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_property_occupancy_bounded(line_indices):
    c = small_cache(ways=2, sets=4)
    for idx in line_indices:
        if not c.lookup(idx * 128):
            c.fill(idx * 128)
    assert c.occupancy() <= 8
    # A just-filled line is always resident.
    assert c.contains(line_indices[-1] * 128)


# -- MSHR -------------------------------------------------------------------
def test_mshr_primary_and_merge():
    m = MSHR(entries=4)
    assert m.allocate(0, "a") is True
    assert m.allocate(0, "b") is False  # merged
    assert m.pending(0)
    assert m.complete(0) == ["a", "b"]
    assert not m.pending(0)
    assert m.merges == 1


def test_mshr_complete_unknown_line_is_empty():
    m = MSHR(entries=4)
    assert m.complete(999) == []


def test_mshr_overflow_counted_but_tracked():
    m = MSHR(entries=1)
    m.allocate(0, "a")
    assert m.allocate(128, "b") is True
    assert m.overflows == 1
    assert m.complete(128) == ["b"]


def test_mshr_len():
    m = MSHR(entries=8)
    m.allocate(0, "a")
    m.allocate(128, "b")
    assert len(m) == 2
