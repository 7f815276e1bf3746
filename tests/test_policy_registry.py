"""One policy registry behind both entry points.

The figure runner (:func:`repro.experiments.runner.run_policy`) and the
sweep worker (:func:`repro.sweep.worker.run_cell`) resolve policy names
through :mod:`repro.placement.registry`, so the same name on the same
trace and fleet must produce the same run — knowledge grants included.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, paper_servers
from repro.experiments.runner import run_policy
from repro.placement.registry import available_policies
from repro.sweep.cli import main as sweep_main
from repro.sweep.grid import GridSpec
from repro.sweep.worker import _summarize, run_cell
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic

QUICK = {"n_filesets": 12, "n_requests": 60, "duration": 120.0,
         "tuning_interval": 30.0}
SEED = 3


@pytest.mark.parametrize("policy", [
    "anu",
    "simple-random",
    "round-robin",
    "two-choice",
    "prescient",
    "consistent-hash",
    "two-choice-weighted",
])
def test_sweep_cell_matches_run_policy(policy):
    plan = GridSpec(
        axes={"policy": [policy]}, seeds=[SEED], base=dict(QUICK)
    ).build_plan()
    row = run_cell(plan.cells[0].payload())

    trace = generate_synthetic(SyntheticConfig(
        n_filesets=QUICK["n_filesets"],
        n_requests=QUICK["n_requests"],
        duration=QUICK["duration"],
        seed=SEED,
    ))
    cluster = ClusterConfig(
        servers=paper_servers(),
        tuning_interval=QUICK["tuning_interval"],
        sample_window=60.0,
        seed=SEED,
    )
    assert row["summary"] == _summarize(run_policy(policy, trace, cluster))


def test_list_policies_prints_the_registry(capsys):
    assert sweep_main(["--list-policies"]) == 0
    assert capsys.readouterr().out.split() == available_policies()


def test_unregistered_policy_name_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep_main(["--policies", "random", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "random" in capsys.readouterr().err
