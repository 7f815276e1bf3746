"""Event primitives for the discrete-event simulation engine.

The engine (:mod:`repro.sim.engine`) keeps its calendar as a binary heap of
``(time, priority, seq, event)`` tuples, so ``heapq`` orders entries by
comparing plain floats and ints in C.  Ties in simulated time are broken
first by the integer ``priority`` (lower fires first) and then by ``seq``,
the engine's insertion counter, so the simulation is fully deterministic
for a fixed seed.  Because ``seq`` is unique the :class:`Event` itself is
never compared: it is only the handle a caller holds to cancel the
callback, and it carries no ordering of its own.

This module is the bottom layer of our YACSIM substitute (see DESIGN.md §2):
YACSIM's "event" and "activity" notions both map to a scheduled callback,
whose :class:`Event` handle is defined here.
"""

from __future__ import annotations

from typing import Any, Callable

from ..units import Seconds


#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping events that must observe a time step before
#: ordinary events fire (e.g. statistics snapshots).
PRIORITY_EARLY = -10
#: Priority for events that must run after all ordinary events at a time step
#: (e.g. reconfiguration decisions that should see completed arrivals).
PRIORITY_LATE = 10


class Event:
    """A scheduled callback: ``action(*args)`` at simulated ``time``.

    The calendar key ``(time, priority, seq)`` lives in the engine's heap
    entry, not here; the event holds only what firing and cancelling need.
    """

    __slots__ = ("time", "action", "args", "cancelled", "engine")

    def __init__(
        self,
        time: Seconds,
        action: Callable[..., None],
        args: tuple[Any, ...],
        engine: Any,
    ) -> None:
        self.time = time
        self.action = action
        self.args = args
        self.cancelled = False
        #: Back-reference to the owning engine (set at scheduling time,
        #: cleared when the event leaves the calendar) so cancellation is
        #: accounted for in O(1) without scanning the heap.  Duck-typed to
        #: avoid a circular import; anything with a ``_note_cancelled()``
        #: method works.
        self.engine = engine

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine skips it when popped.

        Idempotent.  While the event is still on a calendar, the owning
        engine is notified so its live-event count (and the compaction
        heuristic) stay exact; cancelling an event that already fired or
        was drained is a harmless no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.engine is not None:
            self.engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.action, "__qualname__", repr(self.action))
        return f"Event(t={self.time:.6g}, {name})"


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""
