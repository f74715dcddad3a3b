"""Dedicated MC-to-MC coordination network (§IV-C).

The paper assumes a narrow all-to-all network (30 links × 16 bits) distinct
from the SM crossbar.  A 32-bit message — SM id, warp id, and the local
completion score of the just-selected warp-group — is broadcast to the
other five controllers; receivers check their ports every cycle.

We model the network as contention-free with a fixed one-command-clock
delivery delay, which matches the paper's assumption that a 32-bit message
crosses two 16-bit flits in back-to-back cycles on an otherwise idle link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.mc.base import MemoryController

__all__ = ["CoordinationNetwork"]


class CoordinationNetwork:
    """Broadcast fabric connecting all memory controllers."""

    def __init__(self, engine: Engine, delay_ps: int = 1334) -> None:
        self.engine = engine
        self.delay_ps = delay_ps
        self.controllers: list["MemoryController"] = []

    def attach(self, controller: "MemoryController") -> None:
        self.controllers.append(controller)

    def broadcast(
        self, src_channel: int, key: tuple[int, int], score: int
    ) -> None:
        """Announce that ``src_channel`` selected warp-group ``key``."""
        for mc in self.controllers:
            if mc.channel_id == src_channel:
                continue
            self.engine.schedule(self.delay_ps, mc.receive_coordination, key, score)
