"""Memory coalescer (§III-A).

Combines the 32 per-lane addresses of a warp's vector memory instruction
into the minimal set of cache-line requests (``DRAMOrgConfig.line_bytes``,
128 bytes by default).  Perfectly coalesced
regular code produces a single request; irregular gathers produce up to 32
(the paper measures 5.9 on average for its irregular suite, Fig. 2).
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["coalesce"]


def coalesce(lane_addrs: Sequence[Optional[int]], line_bytes: int) -> list[int]:
    """Unique line base addresses touched by a warp instruction.

    ``None`` entries model lanes masked off by control divergence.  Order
    of first appearance is preserved — the interconnect and controllers
    receive a warp's requests in lane order, as on real hardware.
    """
    mask = ~(line_bytes - 1)
    seen: dict[int, None] = {}
    for a in lane_addrs:
        if a is None:
            continue
        seen.setdefault(a & mask, None)
    return list(seen)
