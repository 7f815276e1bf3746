"""Tests for the CLI entry point."""

import pytest

from repro.experiments.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig6" in out


def test_fig3_demo(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "server heterogeneity" in out
    assert "final shares" in out


def test_fig4_demo(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "workload heterogeneity" in out


def test_fig5_demo(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "boundaries preserved: True" in out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_quick_simulation_runs(capsys, cli_reads_paper_runs):
    assert main(["fig9", "--quick", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "prescient" in out and "anu" in out
    assert "policy" in out  # comparison table header
