"""Unit tests for the discrete-event engine."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import Engine, SimulationError


def test_events_fire_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule_at(30, lambda: seen.append(30))
    eng.schedule_at(10, lambda: seen.append(10))
    eng.schedule_at(20, lambda: seen.append(20))
    eng.run()
    assert seen == [10, 20, 30]
    assert eng.now == 30


def test_ties_break_by_insertion_order():
    eng = Engine()
    seen = []
    for i in range(5):
        eng.schedule_at(7, lambda i=i: seen.append(i))
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_relative_delay():
    eng = Engine()
    seen = []
    eng.schedule(5, lambda: eng.schedule(5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [10]


def test_scheduling_in_past_raises():
    eng = Engine()
    eng.schedule_at(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    seen = []
    eng.schedule_at(10, lambda: seen.append("a"))
    eng.schedule_at(100, lambda: seen.append("b"))
    eng.run(until_ps=50)
    assert seen == ["a"]
    assert eng.now == 50
    eng.run()
    assert seen == ["a", "b"]


def test_max_events_guards_against_livelock():
    eng = Engine()

    def rearm():
        eng.schedule(0, rearm)

    eng.schedule(0, rearm)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_events_processed_counter():
    eng = Engine()
    for t in range(10):
        eng.schedule_at(t, lambda: None)
    eng.run()
    assert eng.events_processed == 10


def test_max_events_exact_boundary():
    # The budget is a safety valve: hitting it raises even if the Nth
    # event happened to be the last one queued. One spare event suffices.
    eng = Engine()
    for t in range(10):
        eng.schedule_at(t, lambda: None)
    eng.run(max_events=11)  # budget above the queue length: must not raise
    assert eng.events_processed == 10
    assert eng.empty()
    for t in range(10):
        eng.schedule_at(eng.now + 1 + t, lambda: None)
    with pytest.raises(SimulationError) as exc:
        eng.run(max_events=10)
    assert "max_events" in str(exc.value)
    # All ten events did run before the budget check tripped.
    assert eng.events_processed == 20
    assert eng.empty()


def test_until_ps_between_events_advances_clock_exactly():
    eng = Engine()
    seen = []
    eng.schedule_at(10, lambda: seen.append(10))
    eng.schedule_at(40, lambda: seen.append(40))
    eng.run(until_ps=25)  # lands strictly between the two events
    assert seen == [10]
    assert eng.now == 25  # clock parked at the bound, not at 10 or 40
    # Scheduling relative to the advanced clock works as expected.
    eng.schedule(5, lambda: seen.append(eng.now))
    eng.run(until_ps=30)
    assert seen == [10, 30]
    eng.run()
    assert seen == [10, 30, 40]


def test_until_ps_inclusive_of_event_at_bound():
    eng = Engine()
    seen = []
    eng.schedule_at(50, lambda: seen.append(50))
    eng.run(until_ps=50)  # events exactly at the bound still fire
    assert seen == [50]
    assert eng.now == 50


def test_until_ps_with_empty_queue_leaves_clock_unchanged():
    eng = Engine()
    eng.run(until_ps=1000)
    # No event to process and nothing to cut short: the bound is not a
    # time-warp, the clock only moves when events (or a cut) demand it.
    assert eng.now == 0


def test_until_ps_when_queue_drains_before_bound_parks_at_bound():
    # The guardrails' segmented drive loop slices a run into
    # run(until_ps=...) windows; the terminal clock must be *consistent*
    # whether the last window still holds events or drained early.
    eng = Engine()
    seen = []
    eng.schedule_at(10, lambda: seen.append(10))
    eng.schedule_at(20, lambda: seen.append(20))
    eng.run(until_ps=100)  # queue drains well before the bound
    assert seen == [10, 20]
    assert eng.now == 100  # parked at the bound, same as the events-remain case
    # A follow-up bound on the now-empty engine is a no-op (no time-warp).
    eng.run(until_ps=500)
    assert eng.now == 100


def test_until_ps_drain_exactly_at_bound():
    eng = Engine()
    eng.schedule_at(50, lambda: None)
    eng.run(until_ps=50)
    assert eng.now == 50


def test_until_ps_never_moves_clock_backward():
    eng = Engine()
    eng.schedule_at(100, lambda: None)
    eng.run()
    assert eng.now == 100
    eng.schedule_at(150, lambda: None)
    eng.run(until_ps=40)  # bound already in the past: nothing fires...
    assert eng.now == 100  # ...and the clock does not rewind
    eng.run()
    assert eng.now == 150


def test_schedule_at_now_runs_this_instant_in_insertion_order():
    eng = Engine()
    seen = []
    eng.schedule_at(10, lambda: seen.append("event"))

    def driver():
        seen.append("driver")
        eng.schedule_at(eng.now, lambda: seen.append("kick1"))
        eng.schedule(0, lambda: seen.append("zero-delay"))
        eng.schedule_at(eng.now, lambda: seen.append("kick2"))

    eng.schedule_at(5, driver)
    eng.run()
    # Events scheduled for this instant fire in insertion order, and all
    # before the strictly-later event.
    assert seen == ["driver", "kick1", "zero-delay", "kick2", "event"]
    assert eng.now == 10


def test_ties_break_by_insertion_order_across_scheduling_distances():
    # Two events at the same instant, one scheduled from far away, one
    # scheduled later from close by: insertion order still wins.
    eng = Engine()
    t = 12_000
    seen = []
    eng.schedule_at(t, lambda: seen.append("far-first"))
    eng.schedule_at(
        t - 10, lambda: eng.schedule_at(t, lambda: seen.append("near-second"))
    )
    eng.run()
    assert seen == ["far-first", "near-second"]

    # And the mirror image: the event scheduled from close by is
    # inserted before the one scheduled from far away.
    eng2 = Engine()
    t2 = 24_000
    seen2 = []

    def plant_near():
        eng2.schedule_at(t2, lambda: seen2.append("near-first"))
        eng2.schedule_at(t2 + 8_000, lambda: seen2.append("far-later"))

    eng2.schedule_at(t2 - 10, plant_near)
    eng2.schedule_at(t2, lambda: seen2.append("far-second"))
    eng2.run()
    assert seen2 == ["far-second", "near-first", "far-later"]


@given(
    st.lists(
        st.integers(min_value=0, max_value=12_000),
        min_size=1,
        max_size=60,
    )
)
def test_property_order_is_a_stable_sort_by_time(times):
    # Firing order must equal a stable sort by time (ties by insertion).
    eng = Engine()
    fired = []
    for i, t in enumerate(times):
        eng.schedule_at(t, lambda i=i: fired.append(i))
    eng.run()
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: p[1])]
    assert fired == expected


class _PickleProbe:
    """Bound methods of module-level classes pickle; lambdas do not."""

    def __init__(self):
        self.calls = 0

    def hit(self):
        self.calls += 1


def test_engine_pickles_with_pending_events():
    eng = Engine()
    probe = _PickleProbe()
    eng.schedule_at(10, probe.hit)
    eng.schedule_at(16_000, probe.hit)
    clone = pickle.loads(pickle.dumps(eng))
    clone.run()
    assert clone.events_processed == 2
    assert clone.now == 16_000
    # The original engine is untouched and still runs its own copies.
    eng.run()
    assert probe.calls == 2


def test_profiler_hook_times_each_event():
    class Recorder:
        def __init__(self):
            self.notes = []

        def note(self, fn, seconds):
            self.notes.append((fn, seconds))

    eng = Engine()
    eng.profiler = Recorder()
    eng.schedule_at(1, lambda: None)
    eng.schedule_at(2, lambda: None)
    eng.run()
    assert len(eng.profiler.notes) == 2
    assert all(sec >= 0 for _, sec in eng.profiler.notes)


def test_profiler_attributes_both_dispatch_tiers():
    # EngineProfiler.note must see every callback, whether it was
    # scheduled far ahead or for the current instant: component
    # attribution is a property of the callback alone.
    from repro.telemetry.profiler import EngineProfiler

    class Component:
        def __init__(self, eng):
            self.eng = eng

        def tick(self):
            # Re-arm for this instant (the MC pump-kick idiom).
            if self.eng.events_processed < 3:
                self.eng.schedule_at(self.eng.now, self.tick)

    eng = Engine()
    eng.profiler = EngineProfiler()
    comp = Component(eng)
    eng.schedule_at(16_000, comp.tick)
    eng.run()
    rows = {name: calls for name, calls, _sec in eng.profiler.rows()}
    key = "test_profiler_attributes_both_dispatch_tiers"
    assert rows == {key: 3}  # 1 scheduled ahead + 2 re-armed, one component


def test_iter_pending_and_remove_event():
    # The fault injector's only engine hooks: list pending events, then
    # drop one by its (time, seq) identity.
    eng = Engine()
    seen = []
    for t, name in ((30, "c"), (10, "a"), (20, "b"), (10, "a2")):
        eng.schedule_at(t, seen.append, name)
    pending = sorted(eng.iter_pending())
    assert [(t, seq, args) for t, seq, _fn, args in pending] == [
        (10, 1, ("a",)), (10, 3, ("a2",)), (20, 2, ("b",)), (30, 0, ("c",)),
    ]
    assert all(fn == seen.append for _t, _seq, fn, _args in pending)
    assert eng.remove_event(20, 2)
    assert not eng.remove_event(20, 2)  # already gone
    assert not eng.remove_event(10, 2)  # time and seq must both match
    assert len(list(eng.iter_pending())) == 3
    eng.run()
    assert seen == ["a", "a2", "c"]
    assert eng.empty()
    assert not eng.remove_event(30, 0)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_property_clock_monotonic(times):
    eng = Engine()
    observed = []
    for t in times:
        eng.schedule_at(t, lambda: observed.append(eng.now))
    eng.run()
    assert observed == sorted(times)
