"""Trace container: the request stream that drives a simulation.

A :class:`Trace` is a time-ordered sequence of metadata requests, each
belonging to a *file set* and carrying a service *cost* in work units —
the seconds a speed-1 server needs to serve it (a speed-``k`` server takes
``cost / k``, the paper's server-heterogeneity model).

Storage is columnar (NumPy arrays) so traces with 10^5–10^7 requests slice
and aggregate in vectorized time; the per-record view
(:class:`TraceRecord`) is materialized lazily for the simulator's event
loop.  Traces round-trip through ``.npz`` files for reuse across runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from ..sim.rng import StreamFactory

#: Rows converted per batch by :meth:`Trace.records`: large enough that the
#: per-batch ``tolist`` calls vanish, small enough that the Python-object
#: copy of the columns stays a few hundred KB however long the trace.
RECORD_CHUNK = 4096


class TraceRecord(NamedTuple):
    """One metadata request (immutable)."""

    time: float
    fileset: str
    cost: float


class Trace:
    """A time-ordered columnar request trace."""

    def __init__(
        self,
        times: np.ndarray,
        fileset_ids: np.ndarray,
        costs: np.ndarray,
        fileset_names: list[str],
        duration: float | None = None,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        fileset_ids = np.asarray(fileset_ids, dtype=np.int64)
        costs = np.asarray(costs, dtype=np.float64)
        if not (len(times) == len(fileset_ids) == len(costs)):
            raise ValueError("column lengths differ")
        if len(times) and np.any(np.diff(times) < 0):
            raise ValueError("trace times must be non-decreasing")
        if len(times) and (times[0] < 0):
            raise ValueError("negative request time")
        if np.any(costs < 0):
            raise ValueError("negative request cost")
        if len(fileset_ids) and (
            fileset_ids.min() < 0 or fileset_ids.max() >= len(fileset_names)
        ):
            raise ValueError("fileset id out of range")
        if len(set(fileset_names)) != len(fileset_names):
            raise ValueError("duplicate file-set names")
        self.times = times
        self.fileset_ids = fileset_ids
        self.costs = costs
        self.fileset_names = list(fileset_names)
        self.duration = float(duration) if duration is not None else (
            float(times[-1]) if len(times) else 0.0
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_filesets(self) -> int:
        return len(self.fileset_names)

    def records(self) -> Iterator[TraceRecord]:
        """Lazy per-record view in time order.

        Columns are converted to Python objects ``RECORD_CHUNK`` rows at a
        time with ``tolist`` (exact for float64 and int64), and each record
        is built straight from its row tuple.
        """
        names = self.fileset_names
        make = tuple.__new__
        for lo in range(0, len(self), RECORD_CHUNK):
            hi = lo + RECORD_CHUNK
            rows = zip(
                self.times[lo:hi].tolist(),
                [names[i] for i in self.fileset_ids[lo:hi].tolist()],
                self.costs[lo:hi].tolist(),
            )
            for row in rows:
                yield make(TraceRecord, row)

    # ------------------------------------------------------------------
    # Aggregations (vectorized)
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "Trace":
        """Sub-trace of requests with ``start <= time < end``."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return Trace(
            self.times[lo:hi],
            self.fileset_ids[lo:hi],
            self.costs[lo:hi],
            self.fileset_names,
            duration=end - start,
        )

    def demand_by_fileset(
        self, start: float | None = None, end: float | None = None
    ) -> dict[str, float]:
        """Total work (cost sum) per file set inside [start, end).

        This is the quantity the prescient oracle reads for its lookahead.
        File sets with no requests in the window report 0.
        """
        sub = self if start is None and end is None else self.window(
            start or 0.0, end if end is not None else float("inf")
        )
        sums = np.bincount(
            sub.fileset_ids, weights=sub.costs, minlength=self.n_filesets
        )
        return {name: float(sums[i]) for i, name in enumerate(self.fileset_names)}

    def counts_by_fileset(self) -> dict[str, int]:
        """Request count per file set over the whole trace."""
        counts = np.bincount(self.fileset_ids, minlength=self.n_filesets)
        return {name: int(counts[i]) for i, name in enumerate(self.fileset_names)}

    def total_work(self) -> float:
        """Sum of all request costs (speed-1 seconds)."""
        return float(self.costs.sum())

    def offered_load(self, total_speed: float) -> float:
        """Offered utilization against a cluster of given aggregate speed."""
        if total_speed <= 0:
            raise ValueError(f"total_speed must be positive, got {total_speed!r}")
        if self.duration <= 0:
            return 0.0
        return self.total_work() / (self.duration * total_speed)

    def heterogeneity_ratio(self) -> float:
        """Most-active over least-active file-set request count.

        Infinite when some file set has no requests at all.
        """
        counts = np.bincount(self.fileset_ids, minlength=self.n_filesets)
        if counts.max(initial=0) == 0:
            return 1.0
        low = counts.min()
        return float("inf") if low == 0 else float(counts.max() / low)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace to an ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            times=self.times,
            fileset_ids=self.fileset_ids,
            costs=self.costs,
            fileset_names=np.array(self.fileset_names, dtype=object),
            duration=np.array([self.duration]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=True) as data:
            return cls(
                times=data["times"],
                fileset_ids=data["fileset_ids"],
                costs=data["costs"],
                fileset_names=[str(x) for x in data["fileset_names"]],
                duration=float(data["duration"][0]),
            )

    @classmethod
    def from_records(
        cls, records: list[TraceRecord], duration: float | None = None
    ) -> "Trace":
        """Build a trace from explicit records (sorted by time first)."""
        ordered = sorted(records, key=lambda r: r.time)
        names = sorted({r.fileset for r in ordered})
        index = {n: i for i, n in enumerate(names)}
        return cls(
            times=np.array([r.time for r in ordered]),
            fileset_ids=np.array([index[r.fileset] for r in ordered]),
            costs=np.array([r.cost for r in ordered]),
            fileset_names=names,
            duration=duration,
        )

    def thin(self, fraction: float, seed: int = 0) -> "Trace":
        """Random sub-sample keeping ~``fraction`` of requests.

        Used for cheap what-if runs (e.g. capacity planning) on long
        measured traces: thinning a Poisson stream by independent coin
        flips yields a Poisson stream at the scaled rate, so per-file-set
        rate ratios (the heterogeneity that matters) are preserved.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
        if fraction == 1.0 or len(self) == 0:
            return Trace(self.times, self.fileset_ids, self.costs,
                         self.fileset_names, duration=self.duration)
        rng = StreamFactory(seed).stream("trace.thin")
        keep = rng.random(len(self)) < fraction
        return Trace(
            self.times[keep], self.fileset_ids[keep], self.costs[keep],
            self.fileset_names, duration=self.duration,
        )

    @classmethod
    def concatenate(cls, traces: list["Trace"]) -> "Trace":
        """Append traces end-to-end along the time axis.

        Each trace's times are shifted by the cumulative duration of its
        predecessors; the file-set universe is the union (by name).  Used
        to build piecewise workloads (e.g. diurnal rate profiles) from
        independently generated segments.
        """
        if not traces:
            raise ValueError("nothing to concatenate")
        names = sorted({n for t in traces for n in t.fileset_names})
        index = {n: i for i, n in enumerate(names)}
        times_parts: list[np.ndarray] = []
        id_parts: list[np.ndarray] = []
        cost_parts: list[np.ndarray] = []
        offset = 0.0
        for t in traces:
            remap = np.array(
                [index[n] for n in t.fileset_names], dtype=np.int64
            )
            times_parts.append(t.times + offset)
            id_parts.append(
                remap[t.fileset_ids] if len(t) else t.fileset_ids
            )
            cost_parts.append(t.costs)
            offset += t.duration
        return cls(
            np.concatenate(times_parts),
            np.concatenate(id_parts),
            np.concatenate(cost_parts),
            names,
            duration=offset,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({len(self)} requests, {self.n_filesets} file sets, "
            f"duration={self.duration:.1f}s)"
        )
