"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.workloads.trace import RECORD_CHUNK, Trace, TraceRecord


def small_trace() -> Trace:
    return Trace(
        times=np.array([0.0, 1.0, 2.0, 2.5, 9.0]),
        fileset_ids=np.array([0, 1, 0, 2, 1]),
        costs=np.array([0.1, 0.2, 0.1, 0.3, 0.2]),
        fileset_names=["fsA", "fsB", "fsC"],
        duration=10.0,
    )


def test_basic_properties():
    t = small_trace()
    assert len(t) == 5
    assert t.n_filesets == 3
    assert t.duration == 10.0


def test_validation_rejects_bad_columns():
    with pytest.raises(ValueError):
        Trace(np.array([0.0, 1.0]), np.array([0]), np.array([0.1]), ["a"])
    with pytest.raises(ValueError):
        Trace(np.array([1.0, 0.5]), np.array([0, 0]), np.array([0.1, 0.1]), ["a"])
    with pytest.raises(ValueError):
        Trace(np.array([0.0]), np.array([1]), np.array([0.1]), ["a"])
    with pytest.raises(ValueError):
        Trace(np.array([0.0]), np.array([0]), np.array([-0.1]), ["a"])
    with pytest.raises(ValueError):
        Trace(np.array([0.0]), np.array([0]), np.array([0.1]), ["a", "a"])


def test_records_in_order():
    t = small_trace()
    recs = list(t.records())
    assert [r.fileset for r in recs] == ["fsA", "fsB", "fsA", "fsC", "fsB"]
    assert recs[0] == TraceRecord(time=0.0, fileset="fsA", cost=0.1)


@pytest.mark.parametrize(
    "rows", [0, 1, RECORD_CHUNK - 1, RECORD_CHUNK, RECORD_CHUNK + 1]
)
def test_records_match_per_element_reference_at_chunk_boundaries(rows):
    rng = np.random.default_rng(rows)
    names = ["fsA", "fsB", "fsC"]
    t = Trace(
        times=np.sort(rng.random(rows) * 100.0),
        fileset_ids=rng.integers(0, len(names), rows),
        costs=rng.random(rows),
        fileset_names=names,
        duration=100.0,
    )
    want = [
        TraceRecord(time=float(a), fileset=names[int(f)], cost=float(c))
        for a, f, c in zip(t.times, t.fileset_ids, t.costs)
    ]
    got = list(t.records())
    assert got == want
    assert all(type(r.time) is float and type(r.cost) is float for r in got)


def test_window_slicing():
    t = small_trace()
    sub = t.window(1.0, 3.0)
    assert len(sub) == 3
    assert sub.duration == 2.0
    assert list(sub.times) == [1.0, 2.0, 2.5]


def test_window_empty():
    t = small_trace()
    assert len(t.window(100.0, 200.0)) == 0


def test_demand_by_fileset():
    t = small_trace()
    demand = t.demand_by_fileset()
    assert demand == pytest.approx({"fsA": 0.2, "fsB": 0.4, "fsC": 0.3})
    windowed = t.demand_by_fileset(0.0, 2.2)
    assert windowed == pytest.approx({"fsA": 0.2, "fsB": 0.2, "fsC": 0.0})


def test_counts_and_heterogeneity():
    t = small_trace()
    assert t.counts_by_fileset() == {"fsA": 2, "fsB": 2, "fsC": 1}
    assert t.heterogeneity_ratio() == 2.0


def test_heterogeneity_infinite_with_silent_fileset():
    t = Trace(
        np.array([0.0]), np.array([0]), np.array([0.1]), ["a", "b"], duration=1.0
    )
    assert t.heterogeneity_ratio() == float("inf")


def test_total_work_and_offered_load():
    t = small_trace()
    assert t.total_work() == pytest.approx(0.9)
    assert t.offered_load(total_speed=9.0) == pytest.approx(0.9 / 90.0)
    with pytest.raises(ValueError):
        t.offered_load(0.0)


def test_save_load_round_trip(tmp_path):
    t = small_trace()
    path = tmp_path / "trace.npz"
    t.save(path)
    loaded = Trace.load(path)
    assert np.array_equal(loaded.times, t.times)
    assert np.array_equal(loaded.fileset_ids, t.fileset_ids)
    assert np.array_equal(loaded.costs, t.costs)
    assert loaded.fileset_names == t.fileset_names
    assert loaded.duration == t.duration


def test_from_records_sorts_and_indexes():
    recs = [
        TraceRecord(2.0, "b", 0.1),
        TraceRecord(1.0, "a", 0.2),
        TraceRecord(3.0, "a", 0.3),
    ]
    t = Trace.from_records(recs, duration=5.0)
    assert list(t.times) == [1.0, 2.0, 3.0]
    assert t.fileset_names == ["a", "b"]
    assert t.counts_by_fileset() == {"a": 2, "b": 1}


def test_empty_trace():
    t = Trace(np.empty(0), np.empty(0, dtype=int), np.empty(0), ["a"], duration=1.0)
    assert len(t) == 0
    assert t.total_work() == 0.0
    assert t.offered_load(1.0) == 0.0
    assert t.heterogeneity_ratio() == 1.0
