"""Unit tests for the ``repro-bench`` harness (repro.bench).

Covers the timer (calibration, median-of-k statistics, pedantic mode),
suite discovery without pytest (parametrize expansion, fixture
injection), report schema round-trips, the regression gate, and the CLI
end-to-end against a synthetic suite in a temporary repo layout.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import contracts
from repro.bench.cli import main
from repro.bench.discovery import (
    DEFAULT_SUITES,
    DiscoveryError,
    collect_cases,
    discover_suites,
    find_benchmarks_dir,
    load_suite_module,
    run_case,
    run_suite,
)
from repro.bench.report import (
    SCHEMA_VERSION,
    ReportError,
    build_document,
    compare,
    format_gate_result,
    git_rev,
    load_document,
    write_document,
)
from repro.bench.timing import BenchTimer, TimerConfig, TimingStats

#: Contract mode compiled into this pytest process; the CLI is always
#: invoked with it so _ensure_contract_mode never needs to re-exec (an
#: os.execve would replace the test runner).
CURRENT_MODE = "off" if contracts.COMPILED_OUT else "on"

#: Near-instant timer knobs for tests.
FAST = TimerConfig(warmup_rounds=0, rounds=2, min_round_ns=0)

SUITE_SOURCE = textwrap.dedent(
    """
    import pytest

    def test_plain(benchmark):
        benchmark(sum, range(16))

    @pytest.mark.parametrize("n", [2, 4])
    def test_param(benchmark, n):
        result = benchmark(sum, range(n))
        benchmark.extra_info["n"] = n

    def test_quick_flag(benchmark, quick):
        benchmark.pedantic(lambda: quick, rounds=1)
        benchmark.extra_info["quick"] = quick
    """
)


@pytest.fixture()
def fake_repo(tmp_path: Path) -> Path:
    """A minimal repo layout: pyproject.toml + benchmarks/bench_toy.py."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'toy'\n")
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_toy.py").write_text(SUITE_SOURCE)
    return tmp_path


# ----------------------------------------------------------------------
# Timer
# ----------------------------------------------------------------------
def test_timer_config_validation():
    TimerConfig().validate()
    with pytest.raises(ValueError):
        TimerConfig(rounds=0).validate()
    with pytest.raises(ValueError):
        TimerConfig(warmup_rounds=-1).validate()
    with pytest.raises(ValueError):
        TimerConfig(min_round_ns=-1).validate()
    with pytest.raises(ValueError):
        TimerConfig(max_iterations=0).validate()


def test_timing_stats_from_round_times():
    stats = TimingStats.from_round_times([10, 20, 30], iterations=10)
    assert stats.median_ns == 2.0
    assert stats.min_ns == 1.0
    assert stats.max_ns == 3.0
    assert stats.rounds == 3
    assert stats.iterations == 10
    assert set(stats.as_dict()) == {
        "median_ns", "mean_ns", "stddev_ns", "min_ns", "max_ns",
        "rounds", "iterations",
    }
    with pytest.raises(ValueError):
        TimingStats.from_round_times([], iterations=1)


def test_bench_timer_call_returns_last_result_and_records_stats():
    timer = BenchTimer(FAST)
    calls = []

    def target(x):
        calls.append(x)
        return x * 2

    assert timer(target, 21) == 42
    assert timer.stats is not None
    assert timer.stats.rounds == FAST.rounds
    # calibration call + timed rounds (no warmup under FAST)
    assert len(calls) >= 1 + FAST.rounds


def test_bench_timer_calibration_scales_iterations():
    timer = BenchTimer(TimerConfig(min_round_ns=1_000, max_iterations=50))
    assert timer._calibrate(single_ns=2_000) == 1
    assert timer._calibrate(single_ns=100) == 10
    assert timer._calibrate(single_ns=30) == 34  # ceil(1000/30)
    assert timer._calibrate(single_ns=1) == 50  # capped at max_iterations


def test_bench_timer_pedantic_pins_rounds():
    timer = BenchTimer(FAST)
    seen = []
    timer.pedantic(seen.append, args=(1,), rounds=3, iterations=2)
    assert timer.stats is not None
    assert timer.stats.rounds == 3
    assert timer.stats.iterations == 2
    assert len(seen) == 6


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def test_find_benchmarks_dir_walks_up(fake_repo: Path):
    nested = fake_repo / "src" / "deep"
    nested.mkdir(parents=True)
    assert find_benchmarks_dir(nested) == fake_repo / "benchmarks"
    with pytest.raises(DiscoveryError):
        find_benchmarks_dir(Path("/nonexistent-root-for-bench"))


def test_discover_suites_maps_names(fake_repo: Path):
    suites = discover_suites(fake_repo / "benchmarks")
    assert suites == {"toy": fake_repo / "benchmarks" / "bench_toy.py"}
    empty = fake_repo / "empty"
    empty.mkdir()
    with pytest.raises(DiscoveryError):
        discover_suites(empty)


def test_repo_default_suites_are_discoverable():
    bench_dir = find_benchmarks_dir(Path(__file__).resolve().parent)
    available = discover_suites(bench_dir)
    for name in DEFAULT_SUITES:
        assert name in available


def test_collect_cases_expands_parametrize(fake_repo: Path):
    module = load_suite_module(fake_repo / "benchmarks" / "bench_toy.py")
    names = [case.name for case in collect_cases(module)]
    assert names == [
        "test_plain",
        "test_param[n=2]",
        "test_param[n=4]",
        "test_quick_flag",
    ]


def test_run_case_injects_fixtures(fake_repo: Path):
    module = load_suite_module(fake_repo / "benchmarks" / "bench_toy.py")
    cases = {c.name: c for c in collect_cases(module)}
    result = run_case(cases["test_param[n=4]"], FAST, quick=False)
    assert result.params == {"n": 4}
    assert result.extra_info == {"n": 4}
    assert result.stats["rounds"] == FAST.rounds
    quick_result = run_case(cases["test_quick_flag"], FAST, quick=True)
    assert quick_result.extra_info == {"quick": True}


def test_run_case_rejects_unknown_fixture(fake_repo: Path):
    bench_dir = fake_repo / "benchmarks"
    (bench_dir / "bench_bad.py").write_text(
        "def test_needs_db(benchmark, database):\n    benchmark(sum, [])\n"
    )
    module = load_suite_module(bench_dir / "bench_bad.py")
    with pytest.raises(DiscoveryError, match="database"):
        run_case(collect_cases(module)[0], FAST, quick=False)


def test_run_case_requires_timer_use(fake_repo: Path):
    bench_dir = fake_repo / "benchmarks"
    (bench_dir / "bench_lazy.py").write_text(
        "def test_never_measures(benchmark):\n    pass\n"
    )
    module = load_suite_module(bench_dir / "bench_lazy.py")
    with pytest.raises(DiscoveryError, match="never invoked"):
        run_case(collect_cases(module)[0], FAST, quick=False)


def test_run_suite_end_to_end(fake_repo: Path):
    results = run_suite(fake_repo / "benchmarks" / "bench_toy.py", FAST)
    assert len(results) == 4
    assert all(r.stats["median_ns"] > 0 for r in results)


# ----------------------------------------------------------------------
# Report + gate
# ----------------------------------------------------------------------
def make_document(fake_repo: Path, **overrides):
    results = run_suite(fake_repo / "benchmarks" / "bench_toy.py", FAST)
    doc = build_document(
        "toy",
        results,
        config=FAST,
        seed=0,
        quick=False,
        contracts=CURRENT_MODE,
        rev=git_rev(fake_repo),
    )
    doc.update(overrides)
    return doc


def test_document_roundtrip_and_schema(fake_repo: Path, tmp_path: Path):
    doc = make_document(fake_repo)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["suite"] == "toy"
    assert doc["git_rev"] == "unknown"  # tmp repo is outside git
    assert {"warmup_rounds", "rounds", "min_round_ns"} <= set(doc["timer"])
    path = tmp_path / "BENCH_toy.json"
    write_document(doc, path)
    assert load_document(path) == doc
    # stable, diff-friendly formatting
    assert path.read_text().endswith("\n")


def test_load_document_rejects_bad_inputs(tmp_path: Path):
    bad_json = tmp_path / "corrupt.json"
    bad_json.write_text("{nope")
    with pytest.raises(ReportError, match="not valid JSON"):
        load_document(bad_json)
    wrong_version = tmp_path / "old.json"
    wrong_version.write_text(json.dumps({"schema_version": 999, "results": []}))
    with pytest.raises(ReportError, match="schema_version"):
        load_document(wrong_version)
    no_results = tmp_path / "empty.json"
    no_results.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    with pytest.raises(ReportError, match="results"):
        load_document(no_results)


def result_entry(name: str, median: float) -> dict:
    return {"name": name, "median_ns": median}


def test_compare_flags_regressions_only_past_gate():
    current = {"suite": "toy", "results": [
        result_entry("a", 130.0),  # +30% -> breach at 25%
        result_entry("b", 120.0),  # +20% -> ok
        result_entry("new", 50.0),
    ]}
    baseline = {"results": [
        result_entry("a", 100.0),
        result_entry("b", 100.0),
        result_entry("gone", 10.0),
    ]}
    verdict = compare(current, baseline, gate=0.25)
    assert [c.name for c in verdict.compared] == ["a", "b"]
    assert [c.name for c in verdict.regressions] == ["a"]
    assert verdict.only_current == ["new"]
    assert verdict.only_baseline == ["gone"]
    assert not verdict.passed
    text = format_gate_result(verdict, 0.25)
    assert "REGRESSION" in text and "FAIL" in text
    # Relaxing the gate past the slowdown passes.
    relaxed = compare(current, baseline, gate=0.5)
    assert relaxed.passed
    assert "PASS" in format_gate_result(relaxed, 0.5)
    with pytest.raises(ReportError):
        compare(current, baseline, gate=-0.1)


def test_compare_zero_baseline_is_not_a_breach():
    current = {"suite": "toy", "results": [result_entry("a", 5.0)]}
    baseline = {"results": [result_entry("a", 0.0)]}
    assert compare(current, baseline).passed


def test_compare_refuses_quick_against_full():
    quick = {"suite": "toy", "quick": True, "results": [result_entry("a", 5.0)]}
    full = {"suite": "toy", "quick": False, "results": [result_entry("a", 50.0)]}
    with pytest.raises(ReportError, match="quick"):
        compare(quick, full)
    with pytest.raises(ReportError, match="quick"):
        compare(full, quick)
    assert compare(quick, dict(quick)).passed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(fake_repo: Path, *extra: str) -> int:
    return main([
        "--benchmarks-dir", str(fake_repo / "benchmarks"),
        "--output-dir", str(fake_repo),
        "--suites", "toy",
        "--rounds", "1",
        "--warmup", "0",
        "--min-round-ms", "0",
        "--contracts", CURRENT_MODE,
        *extra,
    ])


def test_cli_writes_reports_and_skips_gate_without_baseline(
    fake_repo: Path, capsys
):
    assert cli(fake_repo) == 0
    out = capsys.readouterr().out
    assert "gate skipped" in out
    document = load_document(fake_repo / "BENCH_toy.json")
    assert document["suite"] == "toy"
    assert len(document["results"]) == 4


def test_cli_creates_missing_output_dir(fake_repo: Path, capsys):
    out_dir = fake_repo / "reports" / "nested"
    assert not out_dir.exists()
    assert cli(fake_repo, "--output-dir", str(out_dir)) == 0
    assert load_document(out_dir / "BENCH_toy.json")["suite"] == "toy"
    assert str(out_dir / "BENCH_toy.json") in capsys.readouterr().out


def test_cli_update_baseline_then_gate_passes(fake_repo: Path, capsys):
    assert cli(fake_repo, "--update-baseline") == 0
    baseline_path = fake_repo / "benchmarks" / "baselines" / "BENCH_toy.json"
    assert baseline_path.is_file()
    # Single-round sub-microsecond timings are wildly noisy, so the PASS
    # path is made deterministic: inflate the baseline medians until no
    # rerun can breach — this stays a pure plumbing test (reports found,
    # cases matched by name, verdict PASS, exit 0).
    doc = load_document(baseline_path)
    for entry in doc["results"]:
        entry["median_ns"] = entry["median_ns"] * 1e6
    write_document(doc, baseline_path)
    assert cli(fake_repo) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_gate_breach_exits_one(fake_repo: Path, capsys):
    assert cli(fake_repo, "--update-baseline") == 0
    baseline_path = fake_repo / "benchmarks" / "baselines" / "BENCH_toy.json"
    doc = load_document(baseline_path)
    for entry in doc["results"]:
        entry["median_ns"] = entry["median_ns"] / 1e6  # force huge slowdown
    write_document(doc, baseline_path)
    assert cli(fake_repo) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # --no-gate measures without comparing.
    assert cli(fake_repo, "--no-gate") == 0
    # A relaxed-enough gate would still fail here; disabling wins.


def test_cli_quick_mode_keeps_its_own_report_and_baseline(
    fake_repo: Path, capsys, monkeypatch
):
    # --quick exports REPRO_BENCH_QUICK=1; restore it after the test.
    monkeypatch.setenv("REPRO_BENCH_QUICK", "0")
    baselines = fake_repo / "benchmarks" / "baselines"
    assert cli(fake_repo, "--update-baseline") == 0
    assert cli(fake_repo, "--quick") == 0
    assert "gate skipped" in capsys.readouterr().out
    assert load_document(fake_repo / "BENCH_toy.quick.json")["quick"] is True
    assert load_document(fake_repo / "BENCH_toy.json")["quick"] is False
    assert cli(fake_repo, "--quick", "--update-baseline") == 0
    assert load_document(baselines / "BENCH_toy.quick.json")["quick"] is True
    assert load_document(baselines / "BENCH_toy.json")["quick"] is False


def test_cli_list_and_unknown_suite(fake_repo: Path, capsys):
    assert main([
        "--benchmarks-dir", str(fake_repo / "benchmarks"), "--list",
    ]) == 0
    assert "toy" in capsys.readouterr().out
    assert cli(fake_repo, "--suites", "nope") == 2
    assert "unknown suite" in capsys.readouterr().err
