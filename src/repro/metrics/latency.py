"""Per-server latency collection and windowed series.

The paper's figures plot, for each server, the mean request latency in
successive sample windows ("the latency of each server is collected over a
specified interval of time and written into a log file", §7).  The
:class:`LatencyCollector` stores raw (completion time, latency) samples per
server and produces:

- :meth:`LatencyCollector.interval_report` — mean latency + count over an
  arbitrary window (what each server reports to the delegate);
- :meth:`LatencyCollector.series` — the fixed-window time series a figure
  plots.

Storage is columnar and window selection is bisection-based: each server
keeps parallel, append-only completion-time/latency lists, mirrored into
NumPy buffers that grow by doubling.  A read converts only the samples
appended since the previous read and returns views of the buffers' filled
prefix, so a run that queries every tuning round converts each sample
once instead of once per round.  Windowed queries (:meth:`interval_report`,
:meth:`percentile`) locate their ``[start, end)`` slice with
``searchsorted`` instead of scanning the sample log, and
:meth:`tail_summary` computes all four quantiles from one pooled pass
instead of four re-pool/re-sort rounds.  Completion times in a
discrete-event run arrive non-decreasing, so the buffers are already
time-sorted; once an append breaks that order the server's columns are
rebuilt from the lists with one stable argsort per read instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.tuning import ServerReport
from ..units import Seconds

#: Shared empty column, returned for servers with no samples.
_NO_SAMPLES = np.empty(0, dtype=float)


def _grow(buffer: np.ndarray, filled: int, needed: int) -> np.ndarray:
    """A buffer of at least ``needed`` slots (doubling) holding
    ``buffer[:filled]``; views of the old buffer stay valid."""
    grown = np.zeros(max(needed, 2 * len(buffer)), dtype=float)
    grown[:filled] = buffer[:filled]
    return grown


@dataclass
class LatencySeries:
    """A per-server windowed latency series (one figure panel)."""

    window: Seconds
    #: Window-start times (seconds).
    times: np.ndarray
    #: server -> mean latency per window (NaN-free: empty windows are 0).
    mean_latency: dict[str, np.ndarray]
    #: server -> request count per window.
    counts: dict[str, np.ndarray]

    @property
    def servers(self) -> list[str]:
        return sorted(self.mean_latency)

    def peak(self, server: str) -> float:
        """Highest windowed mean latency for ``server``."""
        arr = self.mean_latency[server]
        return float(arr.max()) if len(arr) else 0.0

    def mean_over_run(self, server: str) -> float:
        """Request-weighted mean latency for ``server`` over the whole run."""
        lat = self.mean_latency[server]
        cnt = self.counts[server]
        total = cnt.sum()
        return float((lat * cnt).sum() / total) if total else 0.0

    def tail_window_mean(self, server: str, windows: int) -> float:
        """Request-weighted mean latency over the last ``windows`` windows."""
        lat = self.mean_latency[server][-windows:]
        cnt = self.counts[server][-windows:]
        total = cnt.sum()
        return float((lat * cnt).sum() / total) if total else 0.0


@dataclass
class LatencyCollector:
    """Accumulates (completion time, latency) samples per server.

    Samples live in per-server append-only columns (``_times`` /
    ``_latencies``); ``_columns`` materializes them as time-sorted NumPy
    arrays, cached per server until more samples arrive and extended
    in place (``_buffers``) while samples arrive in time order.
    """

    _times: dict[str, list[float]] = field(default_factory=dict)
    _latencies: dict[str, list[float]] = field(default_factory=dict)
    #: server -> False once an append broke completion-time order.
    _monotone: dict[str, bool] = field(default_factory=dict)
    #: server -> (sample count at build, sorted times, matching latencies).
    _sorted_cache: dict[str, tuple[int, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: server -> (times, latencies) NumPy buffers whose filled prefix
    #: mirrors the lists (monotone servers only).
    _buffers: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def ensure_server(self, server: str) -> None:
        """Register a server so it appears in series even if idle."""
        if server not in self._times:
            self._times[server] = []
            self._latencies[server] = []
            self._monotone[server] = True

    def record(
        self, server: str, completion_time: Seconds, latency: Seconds
    ) -> None:
        """Add one (completion time, latency) sample."""
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        times = self._times.get(server)
        if times is None:
            self.ensure_server(server)
            times = self._times[server]
        elif times and completion_time < times[-1]:
            self._monotone[server] = False
        times.append(float(completion_time))
        self._latencies[server].append(float(latency))

    # ------------------------------------------------------------------
    def _columns(self, server: str) -> tuple[np.ndarray, np.ndarray]:
        """Time-sorted (times, latencies) arrays for ``server``, cached.

        The cache key is the sample count: appends invalidate, reads
        reuse.  In-order samples extend the server's buffers by the new
        tail only; after an out-of-order append the arrays are rebuilt
        with a stable argsort, so ties keep insertion order and preserve
        the engine's deterministic completion order.
        """
        times = self._times.get(server)
        if not times:
            return _NO_SAMPLES, _NO_SAMPLES
        count = len(times)
        cached = self._sorted_cache.get(server)
        if cached is not None and cached[0] == count:
            return cached[1], cached[2]
        latencies = self._latencies[server]
        if self._monotone[server]:
            built = 0 if cached is None else cached[0]
            t_buf, lat_buf = self._buffers.get(server, (_NO_SAMPLES, _NO_SAMPLES))
            if count > len(t_buf):
                t_buf = _grow(t_buf, built, count)
                lat_buf = _grow(lat_buf, built, count)
                self._buffers[server] = (t_buf, lat_buf)
            t_buf[built:count] = times[built:count]
            lat_buf[built:count] = latencies[built:count]
            t, lat = t_buf[:count], lat_buf[:count]
        else:
            self._buffers.pop(server, None)
            t = np.asarray(times, dtype=float)
            lat = np.asarray(latencies, dtype=float)
            order = np.argsort(t, kind="stable")
            t = t[order]
            lat = lat[order]
        self._sorted_cache[server] = (count, t, lat)
        return t, lat

    def _window_slice(
        self, server: str, start: Seconds, end: Seconds
    ) -> np.ndarray:
        """Latencies of ``server`` completed in ``[start, end)``."""
        t, lat = self._columns(server)
        if not len(t):
            return lat
        if start <= t[0] and (math.isinf(end) or end > t[-1]):
            return lat
        lo = int(np.searchsorted(t, float(start), side="left"))
        hi = int(np.searchsorted(t, float(end), side="left"))
        return lat[lo:hi]

    # ------------------------------------------------------------------
    def interval_report(
        self, server: str, start: Seconds, end: Seconds
    ) -> ServerReport:
        """Mean latency and count for completions in [start, end)."""
        window = self._window_slice(server, start, end)
        count = len(window)
        mean = float(window.sum() / count) if count else 0.0
        return ServerReport(name=server, mean_latency=mean, request_count=count)

    def reports(
        self, servers: list[str], start: Seconds, end: Seconds
    ) -> list[ServerReport]:
        """Interval reports for every listed server (absent servers report 0)."""
        return [self.interval_report(s, start, end) for s in servers]

    # ------------------------------------------------------------------
    def series(self, duration: Seconds, window: Seconds) -> LatencySeries:
        """Bin all samples into fixed windows covering [0, duration)."""
        if window <= 0 or duration <= 0:
            raise ValueError("window and duration must be positive")
        n_windows = int(np.ceil(duration / window))
        edges = np.arange(n_windows + 1) * window
        mean_latency: dict[str, np.ndarray] = {}
        counts: dict[str, np.ndarray] = {}
        for server in self._times:
            t, lat = self._columns(server)
            if len(t):
                idx = np.clip((t // window).astype(int), 0, n_windows - 1)
                cnt = np.bincount(idx, minlength=n_windows).astype(float)
                tot = np.bincount(idx, weights=lat, minlength=n_windows)
                with np.errstate(invalid="ignore"):
                    mean = np.where(cnt > 0, tot / np.maximum(cnt, 1), 0.0)
            else:
                cnt = np.zeros(n_windows)
                mean = np.zeros(n_windows)
            mean_latency[server] = mean
            counts[server] = cnt
        return LatencySeries(
            window=window,
            times=edges[:-1],
            mean_latency=mean_latency,
            counts=counts,
        )

    def sample_count(self, server: str | None = None) -> int:
        """Samples recorded for one server (or all)."""
        if server is not None:
            return len(self._times.get(server, ()))
        return sum(len(v) for v in self._times.values())

    def _pooled(
        self, server: str | None, start: Seconds, end: Seconds
    ) -> np.ndarray:
        """Latency pool for one server (or all) over [start, end)."""
        names = [server] if server is not None else list(self._times)
        slices = [self._window_slice(s, start, end) for s in names]
        slices = [s for s in slices if len(s)]
        if not slices:
            return _NO_SAMPLES
        if len(slices) == 1:
            return slices[0]
        return np.concatenate(slices)

    def percentile(
        self,
        q: float,
        server: str | None = None,
        start: Seconds = Seconds(0.0),
        end: Seconds = Seconds(float("inf")),
    ) -> Seconds:
        """The q-th latency percentile (q in [0, 100]) over [start, end).

        ``server=None`` pools samples from every server — the system-wide
        tail a client experiences.  Returns 0.0 with no samples.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q!r}")
        values = self._pooled(server, start, end)
        if not len(values):
            return Seconds(0.0)
        return Seconds(float(np.percentile(values, q)))

    def tail_summary(
        self, server: str | None = None
    ) -> dict[str, float]:
        """p50/p95/p99/max of all samples (tables and benches).

        Computed from one pooled pass — a single quantile call over one
        materialized pool — and bit-identical to evaluating the four
        percentiles independently.
        """
        values = self._pooled(
            server, Seconds(0.0), Seconds(float("inf"))
        )
        if not len(values):
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        p50, p95, p99, top = np.percentile(values, (50.0, 95.0, 99.0, 100.0))
        return {
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": float(top),
        }
