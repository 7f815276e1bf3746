"""Session-wide fixtures for the test suite."""

import functools
import pathlib
from dataclasses import dataclass, replace
from typing import Callable

import pytest

from repro.cluster import RunResult
from repro.experiments import cli as experiments_cli
from repro.experiments.config import FIGURES, figure8
from repro.experiments.figures import run_figure
from repro.experiments.runner import run_experiment
from repro.lint import lint_paths
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cache import LintCache

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Every tree ``repro-lint`` checks, each under its own rule policy.
LINTED_TREES = ("src", "tests", "benchmarks", "examples")


@dataclass(frozen=True)
class ColdLint:
    """One cold full-tree lint run and the cache it primed."""

    trees: list[pathlib.Path]
    cache_dir: pathlib.Path
    findings: list[Diagnostic]


@pytest.fixture(scope="session")
def cold_full_tree_lint(tmp_path_factory) -> ColdLint:
    """Lint every tree once from an empty cache, shared by the session.

    A cold full-tree run is the suite's most expensive step; the clean
    gate reads its findings and the cache guard times a warm rerun
    against the cache it primed.
    """
    trees = [REPO_ROOT / t for t in LINTED_TREES if (REPO_ROOT / t).is_dir()]
    cache_dir = tmp_path_factory.mktemp("lint-cache")
    findings = lint_paths(trees, cache=LintCache(cache_dir))
    return ColdLint(trees, cache_dir, findings)


#: Seeds every seeded paper claim is checked at.
CLAIM_SEEDS = (0, 1, 2, 3, 4)
#: Figure 8's policies plus the fig10/fig11 ANU variants: all five
#: synthetic-workload figures run on one figure8 trace.
SYNTHETIC_POLICIES = (
    "simple-random", "round-robin", "prescient", "anu", "anu-aggressive",
    "anu-threshold-only", "anu-top-off-only", "anu-divergent-only",
)


@dataclass(frozen=True)
class PaperRuns:
    """One seed's quick-scale runs behind the paper's §7 figures."""

    #: figure6's four policies on the DFSTrace-like trace (fig6, fig7).
    dfstrace: dict[str, RunResult]
    #: SYNTHETIC_POLICIES on one figure8 trace (fig8 through fig11).
    synthetic: dict[str, RunResult]


@pytest.fixture(scope="session")
def paper_runs() -> Callable[[int], PaperRuns]:
    """``paper_runs(seed)``: the seed's two runs, made once per session.

    Each seed costs about 4 s with contracts on; every claim at that
    seed reads the same results.
    """

    @functools.cache
    def runs(seed: int) -> PaperRuns:
        synthetic = replace(figure8(quick=True, seed=seed),
                            policies=SYNTHETIC_POLICIES)
        # fig6 goes through run_figure so its happy path stays covered.
        return PaperRuns(
            dfstrace=run_figure("fig6", quick=True, seed=seed)[1],
            synthetic=run_experiment(synthetic),
        )

    return runs


@pytest.fixture()
def cli_reads_paper_runs(monkeypatch, paper_runs) -> None:
    """Serve ``repro-experiments figN --quick`` from ``paper_runs``.

    Every quick figure is a policy subset of one seed's two runs, so the
    CLI tests check rendering and export without simulating again.
    """

    def served_figure(experiment_id: str, quick: bool = False, seed: int = 0):
        assert quick, "only quick figures are served from paper_runs"
        config = FIGURES[experiment_id](quick=True, seed=seed)
        runs = paper_runs(seed)
        pool = runs.dfstrace if config.dfstrace is not None else runs.synthetic
        return config, {p: pool[p] for p in config.policies}

    monkeypatch.setattr(experiments_cli, "run_figure", served_figure)
