"""Queueing resources: YACSIM-style facilities and utilization monitors.

The paper's simulator models each metadata server as a FIFO queueing station
("servers use a first-in-first-out queuing discipline", §7).  A
:class:`Facility` is exactly that: a single server with an unbounded FIFO
queue.  Jobs are submitted with :meth:`Facility.request`; the completion
callback fires after queueing delay plus service time.

:class:`Monitor` accumulates time-weighted statistics (mean queue length,
utilization) and per-job statistics (waiting time, sojourn time) so tests can
assert standard queueing identities (e.g. Little's law) against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .engine import Engine
from .events import SimulationError


@dataclass
class Monitor:
    """Accumulates job- and time-weighted statistics for a facility."""

    jobs_completed: int = 0
    total_wait: float = 0.0
    total_service: float = 0.0
    total_sojourn: float = 0.0
    busy_time: float = 0.0
    _area_queue: float = 0.0
    _last_change: float = 0.0
    _last_qlen: int = 0

    def record_queue_change(self, now: float, qlen: int) -> None:
        """Account time-weighted queue length up to ``now``."""
        self._area_queue += self._last_qlen * (now - self._last_change)
        self._last_change = now
        self._last_qlen = qlen

    def mean_queue_length(self, now: float) -> float:
        """Time-average number in system up to ``now``."""
        if now <= 0:
            return 0.0
        area = self._area_queue + self._last_qlen * (now - self._last_change)
        return area / now

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.jobs_completed if self.jobs_completed else 0.0

    @property
    def mean_sojourn(self) -> float:
        return self.total_sojourn / self.jobs_completed if self.jobs_completed else 0.0

    def utilization(self, now: float) -> float:
        """Busy time over wall time up to ``now``."""
        return self.busy_time / now if now > 0 else 0.0


@dataclass(slots=True)
class _Job:
    arrival: float
    service_time: float
    on_complete: Callable[..., None] | None = None
    #: Positional arguments for ``on_complete`` (no per-job closure).
    args: tuple[Any, ...] = ()


class Facility:
    """A single-server FIFO queueing station.

    ``request(service_time, on_complete, *args)`` enqueues a job.  When the
    job finishes service, ``on_complete(*args)`` is invoked.  Service is
    non-preemptive.  The facility can be drained/paused for modelling
    failures via :meth:`pause` / :meth:`resume_service`.
    """

    def __init__(self, engine: Engine, name: str = "facility") -> None:
        self.engine = engine
        self.name = name
        self.monitor = Monitor()
        self._queue: deque[_Job] = deque()
        self._in_service: _Job | None = None
        self._service_event = None
        self._paused = False

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs in system (waiting + in service)."""
        return len(self._queue) + (1 if self._in_service is not None else 0)

    @property
    def busy(self) -> bool:
        return self._in_service is not None

    # ------------------------------------------------------------------
    def request(
        self,
        service_time: float,
        on_complete: Callable[..., None] | None = None,
        *args: Any,
    ) -> None:
        """Enqueue a job requiring ``service_time`` seconds of service;
        ``on_complete(*args)`` fires when it finishes."""
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time!r}")
        now = self.engine._now
        self._queue.append(_Job(now, service_time, on_complete, args))
        self.monitor.record_queue_change(now, self.queue_length)
        self._try_start()

    def pause(self) -> None:
        """Stop starting new jobs (the job in service, if any, completes)."""
        self._paused = True

    def resume_service(self) -> None:
        """Resume starting jobs after :meth:`pause` or :meth:`fail`."""
        self._paused = False
        self._try_start()

    def fail(self) -> int:
        """Crash the facility: abort the job in service, drop all waiting
        jobs, and pause.  Returns the number of jobs evicted (no completion
        callbacks fire for them).  Models a server crash — callers that
        track outstanding work re-dispatch it elsewhere.
        """
        evicted = 0
        if self._in_service is not None:
            if self._service_event is not None:
                self._service_event.cancel()
                self._service_event = None
            self._in_service = None
            evicted += 1
        evicted += len(self._queue)
        self._queue.clear()
        self._paused = True
        self.monitor.record_queue_change(self.engine.now, 0)
        return evicted

    # ------------------------------------------------------------------
    def _try_start(self) -> None:
        if self._paused or self._in_service is not None or not self._queue:
            return
        job = self._queue.popleft()
        self._in_service = job
        now = self.engine._now
        self.monitor.total_wait += now - job.arrival
        self._service_event = self.engine.schedule_at(
            now + job.service_time, self._finish, job
        )

    def _finish(self, job: _Job) -> None:
        assert self._in_service is job
        self._in_service = None
        self._service_event = None
        now = self.engine._now
        mon = self.monitor
        mon.jobs_completed += 1
        mon.total_service += job.service_time
        mon.busy_time += job.service_time
        mon.total_sojourn += now - job.arrival
        mon.record_queue_change(now, len(self._queue))
        if job.on_complete is not None:
            job.on_complete(*job.args)
        self._try_start()
