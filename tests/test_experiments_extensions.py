"""Tests for CSV export, the scale study, and new CLI paths."""

import csv

import pytest

from repro.experiments.cli import main
from repro.experiments.config import figure8
from repro.experiments.export import (
    export_experiment,
    write_series_csv,
    write_summary_csv,
)
from repro.experiments.runner import generate_trace, run_policy
from repro.experiments.scale import measure_scale_point, scale_study, scale_table
from repro.workloads import SyntheticConfig


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_result():
    trace = generate_trace(
        SyntheticConfig(n_filesets=20, n_requests=1500, duration=400.0)
    )
    cfg = figure8(quick=True).cluster
    return {"round-robin": run_policy("round-robin", trace, cfg)}


def test_write_series_csv(tmp_path, small_result):
    res = small_result["round-robin"]
    path = write_series_csv(res.series, tmp_path / "series.csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time_s"
    assert len(rows) - 1 == len(res.series.times)
    # 1 time column + 2 per server.
    assert len(rows[0]) == 1 + 2 * len(res.series.servers)


def test_write_summary_csv(tmp_path, small_result):
    path = write_summary_csv(small_result, tmp_path / "summary.csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "policy"
    assert rows[1][0] == "round-robin"
    assert float(rows[1][7]) == 1500  # total_requests


def test_export_experiment(tmp_path, small_result):
    written = export_experiment("figX", small_result, tmp_path / "out")
    names = {p.name for p in written}
    assert names == {"figX_round-robin.csv", "figX_summary.csv"}
    assert all(p.exists() for p in written)


# ----------------------------------------------------------------------
# Scale study
# ----------------------------------------------------------------------
def test_measure_scale_point_metrics():
    pt = measure_scale_point(8, filesets_per_server=30, seed=1)
    assert pt.n_servers == 8
    assert pt.n_filesets == 240
    assert pt.partitions >= 2 * (8 + 1)
    assert 1.5 < pt.mean_probes < 2.5
    assert 0 <= pt.add_moved_fraction < 0.5
    assert pt.balance_cov < 0.6


def test_scale_table_renders():
    pts = scale_study(sizes=(5,), filesets_per_server=20)
    table = scale_table(pts)
    assert "CoV" in table and "probes" in table


# ----------------------------------------------------------------------
# CLI additions
# ----------------------------------------------------------------------
def test_cli_scale_quick(capsys):
    assert main(["scale", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Scale study" in out and "probes" in out


def test_cli_csv_export(tmp_path, capsys, cli_reads_paper_runs):
    assert main(["fig9", "--quick", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "CSV" in out
    assert (tmp_path / "fig9_summary.csv").exists()
    assert (tmp_path / "fig9_anu.csv").exists()


def test_cli_list_mentions_scale(capsys):
    assert main(["list"]) == 0
    assert "scale" in capsys.readouterr().out
