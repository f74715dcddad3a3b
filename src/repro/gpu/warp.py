"""Runtime state of a warp executing on an SM."""

from __future__ import annotations

from repro.workloads.trace import Segment, WarpTrace

__all__ = ["WarpState"]


class WarpState:
    """A warp's execution cursor (SIMT: all 32 lanes move together)."""

    __slots__ = ("trace", "pc")

    def __init__(self, trace: WarpTrace) -> None:
        self.trace = trace
        self.pc = 0

    @property
    def sm_id(self) -> int:
        return self.trace.sm_id

    @property
    def warp_id(self) -> int:
        return self.trace.warp_id

    def current_segment(self) -> Segment:
        return self.trace.segments[self.pc]

    def advance(self) -> None:
        self.pc += 1

    @property
    def finished(self) -> bool:
        return self.pc >= len(self.trace.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(sm{self.sm_id}, w{self.warp_id}, pc={self.pc}/"
            f"{len(self.trace.segments)})"
        )
