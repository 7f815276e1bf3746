"""The benchmark's own tests (run: ``python -m pytest perfbench/tests -q``).

They cover the self-time arithmetic, every workload at tiny scale, the
conservation check, the traced run's metric set and the refusal to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins REPRO_CONTRACTS and the import path first)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_a_hand_built_tree():
    # root [0, 100)
    #   a [10, 40)      children a1 [12, 20), a2 [18, 30) overlap: union 18
    #   b [50, 90)      child b1 [45, 60) starts before b: clipped to 10
    #   c [95, 95)      empty span
    # d [200, 210)      a second root, no children
    start = np.array([0, 10, 12, 18, 50, 45, 95, 200])
    end = np.array([100, 40, 20, 30, 90, 60, 95, 210])
    parent = np.array([-1, 0, 1, 1, 0, 4, 0, -1])
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == [
        100 - 30 - 40 - 0,  # root: a and b cover 70
        30 - 18,            # a: a1 and a2 cover [12, 30)
        8,                  # a1
        12,                 # a2
        40 - 10,            # b: b1 covers [50, 60)
        15,                 # b1 keeps its own duration
        0,                  # c
        10,                 # d
    ]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    tracer = tracing.Tracer()

    def leaf():
        return int(rng.integers(0, 3))

    inner = tracer.span("x.inner", lambda: [tracer.span("x.leaf", leaf)() for _ in range(3)])
    for _ in range(20):
        tracer.span("bench.run", inner)()
    cols = tracer.arrays()
    own = tracing.self_times(cols["start"], cols["end"], cols["parent"])
    roots = cols["parent"] < 0
    assert (own >= 0).all()
    assert own.sum() == (cols["end"] - cols["start"])[roots].sum()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_at_tiny_scale(name):
    prepare = workloads.WORKLOADS[name]
    first = prepare(11, tiny=True)()
    again = prepare(11, tiny=True)()
    assert first.errors == []
    assert first.completed == first.attempted > 0
    assert first.ops_failed == 0
    assert first.wait_samples > 0 and first.moves > 0
    assert again.digest == first.digest


def _outcome(**overrides) -> workloads.Outcome:
    fields = dict(attempted=500, completed=500, ops_failed=0, wait_mean=0.01,
                  wait_p50=0.0, wait_p999=0.3, wait_samples=500, moves=3,
                  digest="d")
    return workloads.Outcome(**{**fields, **overrides})


def test_a_lost_completion_trips_conservation_and_counts_as_failed():
    from repro.cluster.cluster import ClusterSimulation
    from repro.experiments.config import figure8
    from repro.experiments.runner import make_policy
    from repro.workloads.synthetic import SyntheticConfig, generate_synthetic

    trace = generate_synthetic(
        SyntheticConfig(n_filesets=20, n_requests=500, duration=200.0, seed=4)
    )
    result = ClusterSimulation(figure8().cluster, make_policy("anu"), trace).run()
    assert workloads.check_conservation("ok", len(trace), result) == []
    server = next(s for s, n in result.completed.items() if n)
    result.completed[server] -= 1
    errors = workloads.check_conservation("lost", len(trace), result)
    assert len(errors) == 1 and "conservation broken" in errors[0]

    errors, attempted, failed = run.judge([_outcome(), _outcome(errors=errors)])
    assert errors and failed == 500
    share = run.simulated(_outcome(), attempted, failed)["failed_share"][0]
    assert share == 0.5


def test_a_digest_mismatch_between_repeats_is_a_failure():
    errors, _, failed = run.judge([_outcome(), _outcome(digest="e")])
    assert errors == ["repeat 1: output digest differs from repeat 0"]
    assert failed == 500


@pytest.mark.parametrize("name", ["fig6-protocol", "fs-semantic"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path, monkeypatch):
    from repro.sim.engine import Engine

    step = Engine.__dict__["step"]
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    build = workloads.WORKLOADS[name]
    metrics, first, errors, attempted, failed = run.per_layer(
        lambda seed: build(seed, tiny=True), 3, name
    )
    assert errors == [] and failed == 0 and attempted == 2 * first.attempted
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"], spec["name"]
    shares = [v for k, (v, _) in metrics.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)
    assert Engine.__dict__["step"] is step  # patches undone
    assert (tmp_path / f"spans-{name}-seed3.npz").is_file()


def test_end_to_end_metrics_match_the_spec():
    build = workloads.WORKLOADS["fig8"]
    metrics, _, errors, _, _ = run.end_to_end(lambda s: build(s, tiny=True), 1, 0.01)
    assert errors == []
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v > 0 for v, _ in metrics.values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
