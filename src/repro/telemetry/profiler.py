"""Wall-clock attribution of simulation time to model components.

When installed on an :class:`~repro.core.engine.Engine`, every event
callback is timed with ``time.perf_counter`` and the elapsed host time is
charged to the callback's *component* — the qualified name of the bound
method or, for the ``lambda`` trampolines the models use, the enclosing
method (``MemoryController.receive_read.<locals>.<lambda>`` is charged to
``MemoryController.receive_read``).

Only meaningful when telemetry is on: the per-event ``perf_counter`` pair
roughly doubles Python dispatch cost, so the engine times events only
while a profiler is installed.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["EngineProfiler"]


def component_of(fn: Callable[[], None]) -> str:
    """Stable component label for an event callback."""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:  # functools.partial / odd callables
        qualname = type(fn).__name__
    # Charge closure trampolines to the method that created them.
    head, sep, _ = qualname.partition(".<locals>.")
    return head if sep else qualname


class EngineProfiler:
    """Accumulates per-component call counts and wall-clock seconds."""

    __slots__ = ("by_component",)

    def __init__(self) -> None:
        # component -> [calls, seconds]
        self.by_component: dict[str, list] = {}

    def note(self, fn: Callable[[], None], seconds: float) -> None:
        cell = self.by_component.get(component_of(fn))
        if cell is None:
            cell = self.by_component[component_of(fn)] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    # -- reporting -----------------------------------------------------------
    def total_seconds(self) -> float:
        return sum(sec for _, sec in self.by_component.values())

    def rows(self) -> list[tuple[str, int, float]]:
        """(component, calls, seconds) sorted by descending time."""
        return sorted(
            ((name, calls, sec) for name, (calls, sec) in self.by_component.items()),
            key=lambda r: r[2],
            reverse=True,
        )

    def format(self, top: int = 12) -> str:
        """Human-readable table of the hottest components."""
        total = self.total_seconds()
        lines = [f"{'component':40s} {'events':>10s} {'time':>9s} {'share':>6s}"]
        for name, calls, sec in self.rows()[:top]:
            share = sec / total if total > 0 else 0.0
            lines.append(f"{name:40s} {calls:10d} {sec:8.3f}s {share:6.1%}")
        return "\n".join(lines)
