"""Equivalence tests for the bisect-based LatencyCollector fast paths.

The collector's windowed queries were rewritten from full-log scans to
time-sorted columns with ``searchsorted`` selection, and ``tail_summary``
from four independent re-pool/re-sort passes to one pooled quantile call.
These tests pin the rewrite to the original semantics:

- ``tail_summary`` must match the old four-call implementation
  **bit-for-bit** (pooled and per-server), under hypothesis-generated
  sample sets including out-of-order completion times;
- ``percentile`` windows must match the old filter-then-percentile
  implementation bit-for-bit;
- ``interval_report`` must match the old reverse-scan accumulator (up to
  float summation order, hence ``isclose`` rather than equality).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencyCollector

finite_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
latencies = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(st.tuples(finite_times, latencies), max_size=60)
server_samples = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), sample_lists, max_size=3
)


def build_collector(samples: dict[str, list[tuple[float, float]]]) -> LatencyCollector:
    collector = LatencyCollector()
    for server, pairs in samples.items():
        collector.ensure_server(server)
        for t, lat in pairs:
            collector.record(server, t, lat)
    return collector


def reference_percentile(
    samples: dict[str, list[tuple[float, float]]],
    q: float,
    server: str | None,
    start: float = 0.0,
    end: float = float("inf"),
) -> float:
    """The pre-rewrite implementation: re-pool, filter, np.percentile."""
    if server is not None:
        pools = [samples.get(server, [])]
    else:
        pools = list(samples.values())
    values = [lat for pool in pools for (t, lat) in pool if start <= t < end]
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


def reference_tail_summary(
    samples: dict[str, list[tuple[float, float]]], server: str | None
) -> dict[str, float]:
    """The pre-rewrite four-call tail summary."""
    return {
        "p50": reference_percentile(samples, 50.0, server),
        "p95": reference_percentile(samples, 95.0, server),
        "p99": reference_percentile(samples, 99.0, server),
        "max": reference_percentile(samples, 100.0, server),
    }


@settings(max_examples=200, deadline=None)
@given(samples=server_samples)
def test_tail_summary_matches_four_call_reference_bit_for_bit(samples):
    collector = build_collector(samples)
    for server in [None, "a", "b", "c"]:
        assert collector.tail_summary(server) == reference_tail_summary(
            samples, server
        )


@settings(max_examples=200, deadline=None)
@given(
    samples=server_samples,
    q=st.sampled_from([0.0, 25.0, 50.0, 95.0, 99.0, 100.0]),
    window=st.tuples(finite_times, finite_times),
)
def test_windowed_percentile_matches_reference_bit_for_bit(samples, q, window):
    start, end = sorted(window)
    collector = build_collector(samples)
    for server in [None, "a"]:
        got = collector.percentile(q, server, start=start, end=end)
        want = reference_percentile(samples, q, server, start, end)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(samples=server_samples, window=st.tuples(finite_times, finite_times))
def test_interval_report_matches_reference(samples, window):
    start, end = sorted(window)
    collector = build_collector(samples)
    for server in ["a", "b", "c"]:
        in_window = [
            lat for (t, lat) in samples.get(server, []) if start <= t < end
        ]
        report = collector.interval_report(server, start, end)
        assert report.request_count == len(in_window)
        want_mean = sum(in_window) / len(in_window) if in_window else 0.0
        assert math.isclose(
            report.mean_latency, want_mean, rel_tol=1e-9, abs_tol=1e-12
        )


def test_out_of_order_appends_are_resorted():
    collector = LatencyCollector()
    for t, lat in [(30.0, 0.3), (10.0, 0.1), (20.0, 0.2), (5.0, 0.5)]:
        collector.record("s", t, lat)
    report = collector.interval_report("s", 10.0, 25.0)
    assert report.request_count == 2
    assert math.isclose(report.mean_latency, 0.15)
    assert collector.percentile(100.0, "s", start=0.0, end=10.0) == 0.5


def test_sorted_columns_cache_invalidates_on_append():
    collector = LatencyCollector()
    collector.record("s", 1.0, 0.1)
    assert collector.percentile(100.0, "s") == 0.1
    collector.record("s", 2.0, 0.9)  # append after a cached read
    assert collector.percentile(100.0, "s") == 0.9
    assert collector.sample_count("s") == 2


def test_tie_times_keep_insertion_order_in_windows():
    collector = LatencyCollector()
    collector.record("s", 1.0, 0.1)
    collector.record("s", 1.0, 0.2)
    collector.record("s", 0.5, 0.4)  # forces the argsort path
    report = collector.interval_report("s", 1.0, 1.5)
    assert report.request_count == 2
    assert math.isclose(report.mean_latency, 0.15)


def test_percentile_returns_zero_seconds_on_empty_pools():
    collector = LatencyCollector()
    assert collector.percentile(95.0) == 0.0
    assert collector.percentile(95.0, "ghost") == 0.0
    assert collector.tail_summary() == {
        "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
    }


# ----------------------------------------------------------------------
# Incremental columns
# ----------------------------------------------------------------------
_COLUMN_OPS = st.one_of(
    st.tuples(
        st.just("record"),
        st.sampled_from(["a", "b", "late"]),
        st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5]),
        latencies,
    ),
    # Completion time behind the server's last sample: the argsort path.
    st.tuples(st.just("record-back"), st.sampled_from(["a", "b"]), latencies),
    st.tuples(st.just("ensure"), st.sampled_from(["late", "idle"])),
    st.tuples(
        st.just("query"),
        st.sampled_from(["report", "percentile", "series", "tail"]),
        st.tuples(finite_times, finite_times),
    ),
)


def rebuilt_columns(pairs: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch columns: convert everything, stable-sort by time."""
    t = np.asarray([p[0] for p in pairs], dtype=float)
    lat = np.asarray([p[1] for p in pairs], dtype=float)
    order = np.argsort(t, kind="stable")
    return t[order], lat[order]


def query(collector: LatencyCollector, kind: str, window, servers) -> list:
    start, end = sorted(window)
    if kind == "report":
        return [collector.reports(servers, start, end)]
    if kind == "percentile":
        return [collector.percentile(95.0, s, start, end) for s in [None, *servers]]
    if kind == "series":
        series = collector.series(max(end, 1.0), max(end - start, 0.5))
        return [
            (s, series.mean_latency[s].tobytes(), series.counts[s].tobytes())
            for s in series.servers
        ]
    return [collector.tail_summary(s) for s in [None, *servers]]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_COLUMN_OPS, max_size=80))
def test_incremental_columns_equal_from_scratch_rebuild(ops):
    collector = LatencyCollector()
    collector.ensure_server("a")
    collector.ensure_server("b")
    samples: dict[str, list[tuple[float, float]]] = {"a": [], "b": []}
    clock = 0.0
    for op in ops:
        if op[0] == "record":
            _, server, step, lat = op
            clock += step
            collector.record(server, clock, lat)
            samples.setdefault(server, []).append((clock, lat))
        elif op[0] == "record-back":
            _, server, lat = op
            t = max(clock - 3.0, 0.0)
            collector.record(server, t, lat)
            samples[server].append((t, lat))
        elif op[0] == "ensure":
            collector.ensure_server(op[1])
            samples.setdefault(op[1], [])
        else:
            _, kind, window = op
            servers = sorted(samples)
            fresh = build_collector(samples)
            assert query(collector, kind, window, servers) == query(
                fresh, kind, window, servers
            )
            assert_columns_rebuilt(collector, samples)
    assert_columns_rebuilt(collector, samples)


def assert_columns_rebuilt(collector, samples) -> None:
    for server, pairs in samples.items():
        t, lat = collector._columns(server)
        want_t, want_lat = rebuilt_columns(pairs)
        assert t.tobytes() == want_t.tobytes()
        assert lat.tobytes() == want_lat.tobytes()
