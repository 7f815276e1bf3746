"""Discovery and execution of the ``benchmarks/bench_*.py`` suites.

The benchmark suites are plain pytest-style modules: functions named
``test_*`` taking a ``benchmark`` fixture, optionally stacked with
``@pytest.mark.parametrize``.
This module loads those files *without* pytest: it imports each suite by
path, expands parametrize marks into concrete cases, and injects a
:class:`repro.bench.timing.BenchTimer` for the ``benchmark`` parameter —
so the exact same suite files serve both ``pytest benchmarks/`` (rich
interactive output) and ``repro-bench`` (schema-versioned regression
JSON).

Naming convention: suite ``micro_core`` lives in
``benchmarks/bench_micro_core.py`` and emits ``BENCH_micro_core.json``.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

from .timing import BenchTimer, TimerConfig

#: Suites run (and gated) by default: the hot-path microbenchmarks.
DEFAULT_SUITES = (
    "micro_core",
    "micro_sim",
    "fs_substrate",
    "runtime",
    "membership",
    "routing",
    "dsan",
    "sweep",
)

#: Fixture names the runner can inject, beyond parametrized arguments.
_INJECTABLE = ("benchmark",)


class DiscoveryError(RuntimeError):
    """Raised when a suite file cannot be found, loaded, or executed."""


@dataclass(frozen=True)
class BenchCase:
    """One concrete benchmark invocation (a function + pinned parameters)."""

    #: Display/report id, e.g. ``test_locate_throughput[n_servers=20]``.
    name: str
    #: The suite function to invoke.
    func: Callable[..., Any]
    #: Parametrized arguments, already bound to concrete values.
    params: dict[str, Any]


@dataclass(frozen=True)
class CaseResult:
    """Timing outcome of one :class:`BenchCase`."""

    name: str
    stats: dict[str, Any]
    extra_info: dict[str, Any]
    params: dict[str, Any]


def find_benchmarks_dir(start: Path | None = None) -> Path:
    """Locate the repository's ``benchmarks/`` directory.

    Walks up from ``start`` (default: the current working directory)
    looking for a ``benchmarks`` directory next to a ``pyproject.toml`` —
    the repo-root signature — so ``repro-bench`` works from any subdir.
    """
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        bench = candidate / "benchmarks"
        if bench.is_dir() and (candidate / "pyproject.toml").is_file():
            return bench
    raise DiscoveryError(
        f"no benchmarks/ directory found walking up from {here}"
    )


def discover_suites(bench_dir: Path) -> dict[str, Path]:
    """Map suite name -> file for every ``bench_*.py`` under ``bench_dir``."""
    suites = {
        path.stem.removeprefix("bench_"): path
        for path in sorted(bench_dir.glob("bench_*.py"))
    }
    if not suites:
        raise DiscoveryError(f"no bench_*.py files under {bench_dir}")
    return suites


def load_suite_module(path: Path) -> ModuleType:
    """Import a suite file by path (its directory joins ``sys.path``).

    The directory insertion lets suites do ``from conftest import
    run_once`` exactly as they do under pytest; ``benchmarks/conftest.py``
    also pins ``REPRO_CONTRACTS`` off for any not-yet-imported modules.
    """
    directory = str(path.parent.resolve())
    if directory not in sys.path:
        sys.path.insert(0, directory)
    module_name = f"_repro_bench_suite_{path.stem}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise DiscoveryError(f"cannot build an import spec for {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise DiscoveryError(f"error importing suite {path.name}: {exc}") from exc
    return module


def _parametrize_marks(func: Callable[..., Any]) -> list[tuple[list[str], list[Any]]]:
    """Extract ``@pytest.mark.parametrize`` data without importing pytest.

    Returns ``[(argnames, argvalues), ...]`` in application order (the
    mark written closest to the function first, matching pytest).
    """
    out: list[tuple[list[str], list[Any]]] = []
    for mark in getattr(func, "pytestmark", []):
        if getattr(mark, "name", None) != "parametrize":
            continue
        argnames, argvalues = mark.args[0], list(mark.args[1])
        names = (
            [n.strip() for n in argnames.split(",")]
            if isinstance(argnames, str)
            else list(argnames)
        )
        out.append((names, argvalues))
    return out


def _expand_params(func: Callable[..., Any]) -> Iterator[dict[str, Any]]:
    """Yield one bound-parameter dict per parametrize combination."""
    combos: list[dict[str, Any]] = [{}]
    for names, values in _parametrize_marks(func):
        expanded: list[dict[str, Any]] = []
        for value in values:
            bound = dict(zip(names, value if len(names) > 1 else (value,)))
            expanded.extend({**combo, **bound} for combo in combos)
        combos = expanded
    yield from combos


def _case_name(func_name: str, params: dict[str, Any]) -> str:
    if not params:
        return func_name
    inner = "-".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{func_name}[{inner}]"


def collect_cases(module: ModuleType) -> list[BenchCase]:
    """All runnable benchmark cases of a loaded suite, in source order."""
    cases: list[BenchCase] = []
    for name, obj in vars(module).items():
        if not name.startswith("test_") or not inspect.isfunction(obj):
            continue
        for params in _expand_params(obj):
            cases.append(BenchCase(_case_name(name, params), obj, params))
    return cases


def run_case(case: BenchCase, config: TimerConfig) -> CaseResult:
    """Execute one case with an injected timer; returns its statistics."""
    timer = BenchTimer(config)
    kwargs: dict[str, Any] = dict(case.params)
    signature = inspect.signature(case.func)
    for param in signature.parameters.values():
        if param.name in kwargs:
            continue
        if param.name == "benchmark":
            kwargs[param.name] = timer
        elif param.default is inspect.Parameter.empty:
            raise DiscoveryError(
                f"{case.name}: cannot inject fixture {param.name!r} "
                f"(supported: {', '.join(_INJECTABLE)})"
            )
    case.func(**kwargs)
    if timer.stats is None:
        raise DiscoveryError(
            f"{case.name}: benchmark fixture never invoked; nothing measured"
        )
    return CaseResult(
        name=case.name,
        stats=timer.stats.as_dict(),
        extra_info=dict(timer.extra_info),
        params=dict(case.params),
    )


def run_suite(path: Path, config: TimerConfig) -> list[CaseResult]:
    """Load one suite file and run every case it defines."""
    module = load_suite_module(path)
    return [run_case(case, config) for case in collect_cases(module)]
