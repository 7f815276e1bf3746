"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Facility, SimulationError
from repro.sim.events import PRIORITY_EARLY, PRIORITY_LATE, PRIORITY_NORMAL


def test_schedule_and_run_fires_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(2.0, fired.append, "b")
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(3.0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 3.0


def test_equal_time_ties_break_by_priority_then_insertion():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "normal-1")
    engine.schedule(1.0, fired.append, "late", priority=PRIORITY_LATE)
    engine.schedule(1.0, fired.append, "early", priority=PRIORITY_EARLY)
    engine.schedule(1.0, fired.append, "normal-2")
    engine.run()
    assert fired == ["early", "normal-1", "normal-2", "late"]


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(5.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [5.5]


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(10.0, fired.append, "b")
    engine.run(until=5.0)
    assert fired == ["a"]
    assert engine.now == 5.0  # clock advanced to `until` like YACSIM
    engine.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    engine.schedule(2.0, fired.append, "y")
    handle.cancel()
    engine.run()
    assert fired == ["y"]


def test_pending_drops_when_events_are_cancelled():
    engine = Engine()
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert engine.pending == 5
    handles[0].cancel()
    handles[3].cancel()
    assert engine.pending == 3
    # Cancelling twice must not double-count.
    handles[0].cancel()
    assert engine.pending == 3
    engine.run()
    assert engine.pending == 0
    assert engine.events_fired == 3


def test_pending_counts_live_events_during_run():
    engine = Engine()
    seen = []

    def observe():
        seen.append(engine.pending)

    guard = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, observe)
    guard.cancel()
    engine.schedule(3.0, observe)
    engine.run()
    # At t=2 only the t=3 observer remains; at t=3 nothing does.
    assert seen == [1, 0]


def test_cancel_after_fire_does_not_skew_pending():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    handle.cancel()  # already fired: harmless no-op
    assert engine.pending == 1
    engine.run()
    assert engine.pending == 0


def test_cancel_after_drain_does_not_skew_pending():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.drain()
    assert engine.pending == 0
    handle.cancel()
    assert engine.pending == 0
    engine.schedule(2.0, lambda: None)
    assert engine.pending == 1


def test_calendar_compaction_evicts_cancelled_corpses():
    engine = Engine()
    live = [engine.schedule(1000.0 + i, lambda: None) for i in range(4)]
    corpses = [engine.schedule(5000.0 + i, lambda: None) for i in range(200)]
    for handle in corpses:
        handle.cancel()
    # Cancelled entries outnumbered live ones: the heap was compacted.
    assert engine.pending == 4
    assert len(engine._calendar) < 64
    fired = []
    for handle in live:
        handle.action = fired.append  # replaced for observability
        handle.args = (handle.time,)
    engine.run()
    assert fired == [1000.0, 1001.0, 1002.0, 1003.0]


def test_compaction_preserves_tie_order():
    engine = Engine()
    fired = []
    keep = [engine.schedule(1.0, fired.append, i) for i in range(10)]
    corpses = [engine.schedule(1.0, fired.append, 100 + i) for i in range(300)]
    for handle in corpses:
        handle.cancel()
    engine.run()
    assert fired == list(range(10))
    assert keep[0].cancelled is False


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_max_events_bounds_execution():
    engine = Engine()
    count = [0]

    def recur():
        count[0] += 1
        engine.schedule(1.0, recur)

    engine.schedule(0.0, recur)
    engine.run(max_events=10)
    assert count[0] == 10


def test_step_returns_false_when_empty():
    engine = Engine()
    assert engine.step() is False


def test_events_fired_counter():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_fired == 5


def test_drain_discards_pending():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "x")
    engine.drain()
    engine.run()
    assert fired == []


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [1.0]


def test_engine_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, reenter)
    engine.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# Calendar order against a sorted reference model
# ----------------------------------------------------------------------
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0])
_PRIORITIES = st.sampled_from([PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES),
    st.tuples(st.just("schedule_at"), _DELAYS, _PRIORITIES),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    # A burst of far-future events, almost all cancelled at once: enough
    # corpses to cross the compaction threshold mid-sequence.
    st.tuples(st.just("burst"), st.integers(64, 130), st.integers(1, 4)),
    # The same, but the cancels come from a callback, compacting the
    # calendar while run() is popping it.
    st.tuples(st.just("burst-in-run"), st.integers(64, 130), st.integers(1, 4)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
)


class _ReferenceCalendar:
    """Entries ``[time, priority, seq, label, state]`` fired by sorting."""

    def __init__(self) -> None:
        self.now = 0.0
        self.entries: list[list] = []
        #: label -> labels its callback cancels when it fires.
        self.cancels_on_fire: dict[int, list[int]] = {}

    def add(self, time: float, priority: int) -> int:
        label = len(self.entries)
        self.entries.append([time, priority, label, label, "live"])
        return label

    def cancel(self, label: int) -> None:
        if self.entries[label][4] == "live":
            self.entries[label][4] = "cancelled"

    @property
    def pending(self) -> int:
        return sum(1 for e in self.entries if e[4] == "live")

    def run(self, until, max_events) -> list[int]:
        fired = []
        # Callbacks only cancel, never add: one sort, skipping entries a
        # fired callback cancelled.
        for entry in sorted(e for e in self.entries if e[4] == "live"):
            if entry[4] != "live":
                continue
            if max_events is not None and len(fired) >= max_events:
                break
            if until is not None and entry[0] > until:
                break
            entry[4] = "fired"
            self.now = entry[0]
            fired.append(entry[3])
            for label in self.cancels_on_fire.get(entry[3], ()):
                self.cancel(label)
        if until is not None and self.now < until:
            self.now = until
        return fired


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_calendar_fires_in_reference_key_order(ops):
    engine = Engine()
    model = _ReferenceCalendar()
    fired: list[int] = []
    handles = []

    def cancel_all(label, doomed):
        fired.append(label)
        for handle in doomed:
            handle.cancel()

    def add(kind, delay, priority):
        label = model.add(model.now + delay, priority)
        if kind == "schedule":
            handle = engine.schedule(delay, fired.append, label, priority=priority)
        else:
            handle = engine.schedule_at(
                engine.now + delay, fired.append, label, priority=priority
            )
        handles.append(handle)

    for op in ops:
        if op[0] in ("schedule", "schedule_at"):
            add(*op)
        elif op[0] == "cancel":
            if handles:
                label = op[1] % len(handles)
                handles[label].cancel()
                model.cancel(label)
        elif op[0] in ("burst", "burst-in-run"):
            _, size, keep_every = op
            first = len(handles)
            for i in range(size):
                add("schedule", 100.0 + (i % 7), PRIORITY_NORMAL)
            doomed = [
                label
                for label in range(first, first + size)
                if (label - first) % (keep_every * 16)
            ]
            if op[0] == "burst":
                for label in doomed:
                    handles[label].cancel()
                    model.cancel(label)
            else:
                trigger = model.add(model.now + 0.5, PRIORITY_NORMAL)
                model.cancels_on_fire[trigger] = doomed
                targets = [handles[label] for label in doomed]
                handles.append(engine.schedule(0.5, cancel_all, trigger, targets))
        else:
            _, offset, max_events = op
            until = None if offset is None else engine.now + offset
            before = len(fired)
            engine.run(until=until, max_events=max_events)
            assert fired[before:] == model.run(until, max_events)
        assert engine.now == model.now
        assert engine.pending == model.pending
    before = len(fired)
    engine.run()
    assert fired[before:] == model.run(None, None)
    assert engine.pending == 0
    assert engine.events_fired == len(fired)


def test_class_level_wrappers_see_every_event_and_push(monkeypatch):
    steps = []
    pushes = []
    original_step = Engine.step
    original_schedule_at = Engine.schedule_at

    def step(self):
        fired = original_step(self)
        steps.append(fired)
        return fired

    def schedule_at(self, time, action, *args, **kwargs):
        pushes.append(time)
        return original_schedule_at(self, time, action, *args, **kwargs)

    monkeypatch.setattr(Engine, "step", step)
    monkeypatch.setattr(Engine, "schedule_at", schedule_at)
    engine = Engine()
    facility = Facility(engine)
    done = []
    for i in range(5):
        engine.schedule(float(i), facility.request, 1.5, done.append, i)
    engine.schedule_at(2.0, lambda: None, priority=PRIORITY_LATE).cancel()
    engine.run(until=3.0)
    engine.run()
    assert done == [0, 1, 2, 3, 4]
    # 5 arrivals + 5 service completions fired; those plus the cancelled
    # guard were pushed, every one through schedule_at.
    assert steps == [True] * 10
    assert engine.events_fired == 10
    assert len(pushes) == 11
