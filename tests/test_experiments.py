"""Tests for the experiment harness: configs, runner, Figure 3 demo, reporting.

The figure claims, with the paper's bounds, live in test_paper_claims.py."""

import pytest

from repro.experiments.config import (
    FIGURES,
    figure6,
    figure7,
    figure8,
    figure10,
    figure11,
)
from repro.experiments.figures import figure3_demo, run_figure
from repro.experiments.report import (
    comparison_table,
    interval_bar,
    render_experiment,
    series_block,
    sparkline,
)
from repro.experiments.runner import (
    available_policies,
    generate_trace,
    make_policy,
    run_policy,
)
from repro.workloads.dfstrace import DFSTraceLikeConfig
from repro.workloads.synthetic import SyntheticConfig


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
def test_all_figures_registered():
    assert set(FIGURES) == {"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}


def test_figure6_paper_parameters():
    cfg = figure6()
    assert cfg.dfstrace is not None
    assert cfg.dfstrace.n_requests == 112_590
    assert cfg.dfstrace.n_filesets == 21
    assert cfg.cluster.tuning_interval == 120.0
    speeds = sorted(cfg.cluster.speeds.values())
    assert speeds == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert set(cfg.policies) == {
        "simple-random", "round-robin", "prescient", "anu",
    }


def test_figure8_paper_parameters():
    cfg = figure8()
    assert cfg.synthetic is not None
    assert cfg.synthetic.n_filesets == 500
    assert cfg.synthetic.n_requests == 100_000
    assert cfg.synthetic.duration == 10_000.0


def test_quick_configs_are_smaller():
    assert figure6(quick=True).dfstrace.n_requests < figure6().dfstrace.n_requests
    assert figure8(quick=True).synthetic.n_requests < figure8().synthetic.n_requests


def test_figure10_and_11_policy_sets():
    assert figure10().policies == ("anu-aggressive", "anu")
    assert set(figure11().policies) == {
        "anu-threshold-only", "anu-top-off-only", "anu-divergent-only",
    }


def test_workload_config_accessor():
    assert isinstance(figure6().workload_config(), DFSTraceLikeConfig)
    assert isinstance(figure8().workload_config(), SyntheticConfig)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_available_policies_cover_paper_and_extensions():
    names = available_policies()
    for expected in ("anu", "simple-random", "round-robin", "prescient",
                     "consistent-hash", "anu-decentralized"):
        assert expected in names


def test_make_policy_fresh_instances():
    a = make_policy("anu")
    b = make_policy("anu")
    assert a is not b


def test_make_policy_unknown():
    with pytest.raises(ValueError):
        make_policy("quantum")


def test_generate_trace_dispatch():
    t = generate_trace(SyntheticConfig(n_filesets=5, n_requests=100, duration=10.0))
    assert len(t) == 100
    t2 = generate_trace(DFSTraceLikeConfig(n_requests=100))
    assert len(t2) == 100
    with pytest.raises(TypeError):
        generate_trace(object())  # type: ignore[arg-type]


def test_run_policy_smoke():
    cfg = figure8(quick=True)
    trace = generate_trace(
        SyntheticConfig(n_filesets=20, n_requests=1000, duration=400.0)
    )
    res = run_policy("round-robin", trace, cfg.cluster)
    assert res.total_requests == 1000


# ----------------------------------------------------------------------
# Figure 3 demo
# ----------------------------------------------------------------------
def test_figure3_fast_servers_end_with_more_load():
    demo = figure3_demo()
    fast = demo.final_counts["server1"] + demo.final_counts["server2"]
    slow = demo.final_counts["server3"] + demo.final_counts["server4"]
    assert fast > slow
    assert demo.final_latency_spread < 1.5
    demo.placement.check_invariants()


def test_figure3_fast_regions_grow():
    demo = figure3_demo()
    fast_share = demo.final_shares["server1"] + demo.final_shares["server2"]
    slow_share = demo.final_shares["server3"] + demo.final_shares["server4"]
    assert fast_share > slow_share


# ----------------------------------------------------------------------
# run_figure (quick)
# ----------------------------------------------------------------------
def test_run_figure_unknown_id():
    with pytest.raises(ValueError):
        run_figure("fig99")


def test_run_figure_quick_fig7_shapes(paper_runs):
    config = figure7(quick=True)
    results = paper_runs(0).dfstrace
    assert set(results) == set(figure6(quick=True).policies)
    for policy in config.policies:
        assert results[policy].total_requests == config.dfstrace.n_requests


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_sparkline_basic():
    assert sparkline([]) == ""
    assert len(sparkline([1.0] * 100, width=40)) == 40
    assert sparkline([0.0, 0.0]) == "▁▁"
    s = sparkline([0.0, 1.0])
    assert s[0] == "▁" and s[-1] == "█"


def test_series_block_and_tables_render(capsys=None):
    trace = generate_trace(
        SyntheticConfig(n_filesets=10, n_requests=500, duration=300.0)
    )
    cfg = figure8(quick=True)
    res = run_policy("round-robin", trace, cfg.cluster)
    block = series_block("[rr]", res.series)
    assert "[rr]" in block and "server0" in block
    table = comparison_table({"round-robin": res})
    assert "round-robin" in table
    full = render_experiment("figX", "desc", {"round-robin": res})
    assert "figX" in full


def test_interval_bar_renders_all_servers():
    from repro.core import MappedInterval

    iv = MappedInterval(["a", "b"])
    bar = interval_bar(iv, width=40)
    assert "0=a" in bar and "1=b" in bar
    assert "." in bar  # unmapped half visible
