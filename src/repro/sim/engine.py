"""Discrete-event simulation engine.

A minimal, deterministic replacement for the YACSIM toolkit the paper used
(Jump, Rice University, 1993).  The engine owns a simulation clock and an
event calendar (binary heap).  Model code schedules callbacks with
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` and runs the simulation
with :meth:`Engine.run`.

The calendar is a binary heap of ``(time, priority, seq, event)`` tuples.
``seq`` is a per-engine insertion counter, so every key is unique and
``heapq`` orders entries by comparing floats and ints in C without ever
reaching the :class:`~repro.sim.events.Event` handle in slot 3.

Determinism: events at equal time fire in (priority, insertion order); all
randomness in models must come from seeded generators (:mod:`repro.sim.rng`),
so a simulation is a pure function of its configuration and seed.

Cancellation is lazy (a cancelled event stays heaped until popped) but
*accounted*: the engine tracks the number of cancelled entries still on
the calendar, so :attr:`Engine.pending` reports live events exactly, and
the calendar is compacted — cancelled corpses dropped, heap rebuilt —
whenever they outnumber the live entries.  Timeout-guard workloads that
schedule and immediately cancel far-future events therefore keep the
heap (and every ``heappush`` after them) small.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from ..units import Seconds
from .events import PRIORITY_NORMAL, Event, SimulationError


class Engine:
    """The simulation clock and event calendar."""

    __slots__ = (
        "_now", "_calendar", "_seq", "_running", "_events_fired", "_cancelled"
    )

    #: Calendars smaller than this are never compacted (rebuild churn guard).
    _COMPACT_MIN = 64

    def __init__(self, start_time: Seconds = Seconds(0.0)) -> None:
        self._now = Seconds(float(start_time))
        self._calendar: list[tuple[Seconds, int, int, Event]] = []
        #: Insertion counter: the last tie-breaker of the calendar key.
        self._seq = itertools.count()
        self._running = False
        self._events_fired = 0
        #: Cancelled events still sitting on the calendar.
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> Seconds:
        """Current simulated time (seconds, by convention)."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still on the calendar."""
        return len(self._calendar) - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: Seconds,
        action: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, action, *args, priority=priority)

    def schedule_at(
        self,
        time: Seconds,
        action: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        event = Event(time, action, args, self)
        heappush(self._calendar, (time, priority, next(self._seq), event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when empty."""
        calendar = self._calendar
        while calendar:
            time, _, _, event = heappop(calendar)
            if event.cancelled:
                self._cancelled -= 1
                continue
            # Detach before firing: a late cancel() on an already-fired
            # event must not perturb the live count.
            event.engine = None
            self._now = time
            self._events_fired += 1
            event.action(*event.args)
            return True
        return False

    def run(
        self, until: Seconds | None = None, max_events: int | None = None
    ) -> Seconds:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final clock value.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, mirroring YACSIM's
        ``simulate(t)``.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        # Compaction rebuilds the calendar in place, so this alias stays
        # valid while callbacks cancel events.
        calendar = self._calendar
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        # Looked up once per run, on the instance, so a wrapper installed
        # on the class beforehand still sees every fired event.
        step = self.step
        fired = 0
        try:
            while calendar and fired < limit:
                when, _, _, head = calendar[0]
                if head.cancelled:
                    heappop(calendar)
                    self._cancelled -= 1
                    continue
                if when > horizon:
                    break
                step()
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def drain(self) -> None:
        """Discard all pending events (used by tests and teardown)."""
        for entry in self._calendar:
            entry[3].engine = None
        self._calendar.clear()
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Cancellation accounting (called by Event.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Record one cancellation; compact when corpses dominate the heap."""
        self._cancelled += 1
        size = len(self._calendar)
        if size >= self._COMPACT_MIN and self._cancelled * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        O(live) — amortized constant per cancellation, since a compaction
        at least halves the calendar and resets the cancelled count.
        Safe at any point outside :func:`heapq` calls: calendar keys are
        unique, so ``heapify`` restores the exact pop sequence.  The list
        is rebuilt in place, keeping aliases such as :meth:`run`'s valid.
        """
        calendar = self._calendar
        calendar[:] = [entry for entry in calendar if not entry[3].cancelled]
        heapify(calendar)
        self._cancelled = 0
