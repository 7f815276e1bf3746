"""Schema-versioned benchmark reports and the regression gate.

``repro-bench`` emits one ``BENCH_<suite>.json`` per suite at the repo
root.  The document schema (``SCHEMA_VERSION`` = 1) is::

    {
      "schema_version": 1,
      "suite": "micro_core",
      "git_rev": "9e49477",          # short HEAD, "unknown" outside git
      "seed": 0,                      # pinned workload seed, recorded
      "quick": false,                 # reduced-scale (CI) mode
      "contracts": "off",             # runtime-contract state during the run
      "python": "3.12.3",
      "timer": {"warmup_rounds": 1, "rounds": 5, "min_round_ns": ...},
      "results": [
        {"name": "test_locate_throughput[n_servers=20]",
         "median_ns": ..., "mean_ns": ..., "stddev_ns": ...,
         "min_ns": ..., "max_ns": ..., "rounds": 5, "iterations": 128,
         "params": {"n_servers": 20}, "extra_info": {}}
      ]
    }

The *median* is the comparison statistic; stddev/min/max record
dispersion.  :func:`compare` matches current results to a committed
baseline by case name and flags every case whose median slowed down by
more than the gate threshold (default 25%).  Baselines live in
``benchmarks/baselines/`` and are refreshed with
``repro-bench --update-baseline`` (see CONTRIBUTING.md).
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .discovery import CaseResult
from .timing import TimerConfig

#: Version of the BENCH_*.json document layout.
SCHEMA_VERSION = 1

#: Default regression gate: fail when median_ns grows by more than 25%.
DEFAULT_GATE = 0.25


class ReportError(ValueError):
    """Raised for malformed or incompatible benchmark documents."""


def git_rev(repo_root: Path) -> str:
    """Short HEAD revision of ``repo_root`` ("unknown" outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build_document(
    suite: str,
    results: list[CaseResult],
    *,
    config: TimerConfig,
    seed: int,
    quick: bool,
    contracts: str,
    rev: str,
) -> dict[str, Any]:
    """Assemble the schema-versioned JSON document for one suite run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "git_rev": rev,
        "seed": seed,
        "quick": quick,
        "contracts": contracts,
        "python": platform.python_version(),
        "timer": {
            "warmup_rounds": config.warmup_rounds,
            "rounds": config.rounds,
            "min_round_ns": config.min_round_ns,
        },
        "results": [
            {"name": r.name, **r.stats, "params": r.params, "extra_info": r.extra_info}
            for r in results
        ],
    }


def write_document(document: dict[str, Any], path: Path) -> None:
    """Write a report document as stable, diff-friendly JSON, creating
    missing parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_document(path: Path) -> dict[str, Any]:
    """Load and schema-check one BENCH_*.json document."""
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}: not valid JSON: {exc}") from exc
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReportError(
            f"{path}: schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(document.get("results"), list):
        raise ReportError(f"{path}: missing results list")
    return document


@dataclass(frozen=True)
class Comparison:
    """One case's current-vs-baseline outcome."""

    name: str
    baseline_ns: float
    current_ns: float

    @property
    def ratio(self) -> float:
        """current / baseline median (>1 means slower)."""
        return self.current_ns / self.baseline_ns if self.baseline_ns > 0 else 1.0

    def breaches(self, gate: float) -> bool:
        """Whether this case slowed past the gate threshold."""
        return self.ratio > 1.0 + gate


@dataclass(frozen=True)
class GateResult:
    """Suite-level verdict of the regression gate."""

    suite: str
    compared: list[Comparison]
    regressions: list[Comparison]
    only_current: list[str]
    only_baseline: list[str]

    @property
    def passed(self) -> bool:
        """True when no compared case breached the gate."""
        return not self.regressions


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    gate: float = DEFAULT_GATE,
) -> GateResult:
    """Match cases by name and apply the slowdown gate to medians.

    Cases present on only one side are reported (new benchmarks appear,
    retired ones disappear) but never fail the gate by themselves.
    """
    if gate < 0:
        raise ReportError(f"gate threshold must be >= 0, got {gate}")
    cur = {r["name"]: r for r in current["results"]}
    base = {r["name"]: r for r in baseline["results"]}
    compared = [
        Comparison(name, float(base[name]["median_ns"]), float(cur[name]["median_ns"]))
        for name in sorted(set(cur) & set(base))
    ]
    return GateResult(
        suite=str(current.get("suite", "?")),
        compared=compared,
        regressions=[c for c in compared if c.breaches(gate)],
        only_current=sorted(set(cur) - set(base)),
        only_baseline=sorted(set(base) - set(cur)),
    )


def format_gate_result(result: GateResult, gate: float) -> str:
    """Human-readable one-suite gate summary for the CLI."""
    lines = [f"suite {result.suite}: {len(result.compared)} case(s) compared"]
    for c in result.compared:
        verdict = "REGRESSION" if c.breaches(gate) else "ok"
        lines.append(
            f"  {verdict:>10}  {c.name}: {c.baseline_ns:,.0f} -> "
            f"{c.current_ns:,.0f} ns ({c.ratio:.2f}x)"
        )
    for name in result.only_current:
        lines.append(f"  {'new':>10}  {name}: no baseline entry")
    for name in result.only_baseline:
        lines.append(f"  {'missing':>10}  {name}: in baseline only")
    status = "PASS" if result.passed else "FAIL"
    lines.append(
        f"  gate {status} at +{gate * 100:.0f}% "
        f"({len(result.regressions)} regression(s))"
    )
    return "\n".join(lines)
