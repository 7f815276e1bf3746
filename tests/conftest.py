"""Session-wide fixtures for the test suite."""

import pathlib
from dataclasses import dataclass

import pytest

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
