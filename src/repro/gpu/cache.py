"""Set-associative LRU caches (L1 per SM, L2 slice per memory partition)
with MSHR-based miss merging.

The L1 is write-through/no-write-allocate (GPU-typical); the L2 slice is
write-back with write-validate allocation (a full 128B line store allocates
directly without a fill read — GPU stores are line-granular after
coalescing).  Dirty L2 evictions are the source of the DRAM write traffic
whose drains §IV-E manages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.config import CacheConfig

__all__ = ["Cache", "MSHR"]


class Cache:
    """A single cache level.  Addresses are line-aligned byte addresses."""

    def __init__(self, cfg: CacheConfig, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        self.num_sets = cfg.size_bytes // (line_bytes * cfg.ways)
        self.ways = cfg.ways
        # Per set: OrderedDict line_addr -> dirty flag, LRU order (oldest first).
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _set_of(self, line: int) -> OrderedDict[int, bool]:
        idx = (line // self.line_bytes) % self.num_sets
        return self._sets[idx]

    # -- operations --------------------------------------------------------
    def lookup(self, line: int, mark_dirty: bool = False) -> bool:
        """Probe for a line; updates LRU and dirty bit on hit."""
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            if mark_dirty:
                s[line] = True
            return True
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted dirty line's address or None."""
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            if dirty:
                s[line] = True
            return None
        victim_writeback = None
        if len(s) >= self.ways:
            victim, was_dirty = s.popitem(last=False)
            if was_dirty:
                victim_writeback = victim
        s[line] = dirty
        return victim_writeback


class MSHR:
    """Miss-status holding registers: merge misses to in-flight lines.

    ``allocate`` returns True when the line miss is *primary* (a new fill
    must be requested) and False when it merged into an existing entry.
    Waiters are arbitrary opaque objects returned by ``complete``.  There
    is no entry limit: a primary miss is never stalled (a deviation,
    DESIGN.md §4).
    """

    def __init__(self) -> None:
        self._pending: dict[int, list] = {}

    def allocate(self, line: int, waiter) -> bool:
        waiters = self._pending.get(line)
        if waiters is not None:
            waiters.append(waiter)
            return False
        self._pending[line] = [waiter]
        return True

    def complete(self, line: int) -> list:
        """Fill arrived: pop and return all waiters for the line."""
        return self._pending.pop(line, [])
