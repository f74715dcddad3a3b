"""Discrete-event simulation engine.

The whole simulator shares a single global clock measured in integer
picoseconds.  Components never poll: they schedule callbacks at the next
instant their state can change, which keeps Python overhead proportional to
the number of *events* (DRAM commands, request hops) rather than cycles.

Pending events live in one ``heapq`` of ``(time, seq, fn, args)``.  Ties
in time are broken by the insertion counter ``seq``, which makes runs
fully deterministic for a given seed.

Callbacks are stored as ``(fn, args)`` pairs rather than closures so the
pending-event queue is *serializable*: when every scheduled ``fn`` is a
bound method of a model component (the convention throughout the
simulator), the whole engine — queue included — pickles, which is what
the checkpoint/restore machinery in :mod:`repro.guardrails` relies on.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Optional

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for inconsistent engine usage (e.g. scheduling in the past)."""


class Engine:
    """A minimal but fast event-driven simulation kernel.

    Attributes
    ----------
    now:
        Current simulation time in picoseconds.
    profiler:
        Optional :class:`repro.telemetry.profiler.EngineProfiler` (any
        object with a ``note(fn, seconds)`` method).  When set, every
        callback is timed and attributed to its component; when ``None``
        (the default) the only cost is one identity check per event.
    """

    __slots__ = ("now", "_queue", "_seq", "events_processed", "profiler")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq: int = 0
        self.events_processed: int = 0
        self.profiler = None

    def schedule(self, delay_ps: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` ``delay_ps`` picoseconds from now (delay >= 0)."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay {delay_ps}")
        self.schedule_at(self.now + delay_ps, fn, *args)

    def schedule_at(self, time_ps: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at absolute ``time_ps`` (must not be in the past)."""
        if time_ps < self.now:
            raise SimulationError(
                f"scheduling at {time_ps} ps but now is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_ps, seq, fn, args))

    def run(
        self, until_ps: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until_ps:
            Stop once the next event would be later than this time.  The
            clock then parks *exactly* at ``until_ps`` whether the queue
            still holds later events or drained at (or before) the
            boundary — the one terminal-``now`` contract the guardrails'
            segmented drive loop depends on.  The clock never moves
            backward, and a call on an engine with nothing pending at all
            leaves it untouched.
        max_events:
            Safety valve against runaway simulations.
        """
        queue = self._queue
        heappop = heapq.heappop
        had_work = bool(queue)
        limit = None if max_events is None else self.events_processed + max_events
        while queue:
            if until_ps is not None and queue[0][0] > until_ps:
                break
            self.now, _, fn, args = heappop(queue)
            self.events_processed += 1
            if self.profiler is None:
                fn(*args)
            else:
                t0 = perf_counter()
                fn(*args)
                self.profiler.note(fn, perf_counter() - t0)
            if limit is not None and self.events_processed >= limit:
                raise SimulationError(
                    f"exceeded max_events={max_events} (possible livelock)"
                )
        if had_work and until_ps is not None and until_ps > self.now:
            self.now = until_ps

    def empty(self) -> bool:
        return not self._queue

    # -- pending-event surgery (fault injection / introspection) ----------
    def iter_pending(self):
        """Yield every pending event as ``(time_ps, seq, fn, args)``.

        Unordered.  For tooling (the fault injector's response
        targeting) — not a hot path.
        """
        yield from self._queue

    def remove_event(self, time_ps: int, seq: int) -> bool:
        """Remove the pending event with this ``(time, seq)``; False if absent."""
        for i, entry in enumerate(self._queue):
            if entry[0] == time_ps and entry[1] == seq:
                del self._queue[i]
                heapq.heapify(self._queue)
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self.now} ps, pending={len(self._queue)})"
