"""Unit and property tests for the cache and MSHR substrates."""

from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig
from repro.gpu.cache import MSHR, Cache


def small_cache(ways: int = 2, sets: int = 4) -> Cache:
    return Cache(CacheConfig(size_bytes=128 * ways * sets, ways=ways), 128)


def test_miss_then_hit_after_fill():
    c = small_cache()
    assert not c.lookup(0)
    c.fill(0)
    assert c.lookup(0)


def test_lru_eviction_order():
    c = small_cache(ways=2, sets=1)
    c.fill(0)
    c.fill(128)
    c.lookup(0)  # 0 becomes MRU
    victim = c.fill(256)  # evicts 128 (LRU), clean -> no writeback
    assert victim is None
    assert c.lookup(0) and c.lookup(256) and not c.lookup(128)


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
    # The refill took no second way: a new line fits beside it.
    assert c.fill(128) is None
    assert c.lookup(0) and c.lookup(128)


def test_set_isolation():
    c = small_cache(ways=1, sets=4)
    # Lines mapping to different sets must not evict each other.
    for i in range(4):
        c.fill(i * 128)
    assert all(c.lookup(i * 128) for i in range(4))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_property_occupancy_bounded(line_indices):
    c = small_cache(ways=2, sets=4)
    for idx in line_indices:
        if not c.lookup(idx * 128):
            c.fill(idx * 128)
    # A just-filled line is always resident.
    assert c.lookup(line_indices[-1] * 128)
    # Lookups never evict, so they count the resident lines.
    assert sum(c.lookup(idx * 128) for idx in set(line_indices)) <= 8


# -- MSHR -------------------------------------------------------------------
def test_mshr_primary_and_merge():
    m = MSHR()
    assert m.allocate(0, "a") is True
    assert m.allocate(0, "b") is False  # merged
    assert m.complete(0) == ["a", "b"]
    # The entry is gone: the next miss to the line is primary again.
    assert m.allocate(0, "c") is True


def test_mshr_complete_unknown_line_is_empty():
    m = MSHR()
    assert m.complete(999) == []


def test_mshr_has_no_entry_limit():
    """Every distinct-line miss is primary, however many are in flight
    (the unbounded-MSHR deviation, DESIGN.md §4)."""
    m = MSHR()
    lines = [i * 128 for i in range(1000)]
    assert all(m.allocate(line, line) for line in lines)
    assert all(m.complete(line) == [line] for line in lines)
