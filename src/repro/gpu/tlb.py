"""Optional per-SM TLB model (§V discussion).

The paper does not simulate TLBs, arguing GPU TLBs with large pages have
virtually 100% coverage — but notes that *if* TLB misses mattered [41],
warp-aware scheduling would do strictly better: a warp stalled on a page
walk should not have its other requests waste DRAM bandwidth, and the
sparse page-table walk reads are exactly the row-miss traffic MERB hides
behind row-hit streams.

Enable with ``SimConfig(use_tlb=True)``: each SM gets an LRU TLB; a load
touching unmapped pages issues one page-table read per missing page as
part of the same load transaction (the warp blocks on it like on any
other request), and the translation is installed when the walk returns.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["TLB", "PAGE_TABLE_REGION"]

# Page tables live in a reserved region of physical memory (high addresses
# within DRAM capacity); eight bytes per PTE.
PAGE_TABLE_REGION = 700 << 20


class TLB:
    """A fully-associative LRU TLB."""

    def __init__(self, entries: int, page_bytes: int) -> None:
        if page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        self._map: OrderedDict[int, None] = OrderedDict()

    def page_of(self, addr: int) -> int:
        return addr >> self._shift

    def lookup(self, addr: int) -> bool:
        page = self.page_of(addr)
        if page in self._map:
            self._map.move_to_end(page)
            return True
        return False

    def fill(self, addr: int) -> None:
        page = self.page_of(addr)
        if page in self._map:
            self._map.move_to_end(page)
            return
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[page] = None

    def walk_address(self, addr: int) -> int:
        """Physical address of the PTE for ``addr``'s page (8B entries,
        read as part of the owning 128B line)."""
        return PAGE_TABLE_REGION + (self.page_of(addr) * 8) % (32 << 20)
