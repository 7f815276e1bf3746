"""Shared helpers for the benchmark suite.

Benchmarks run at full published scale by default; set
``REPRO_BENCH_QUICK=1`` to run the same shapes at reduced scale (CI).
Each ablation bench prints the rows it measures, so ``pytest benchmarks/
--benchmark-only`` output doubles as the record EXPERIMENTS.md's ablation
table quotes.  The paper's figure claims are tier-1 tests
(``tests/test_paper_claims.py``); the figure tables print through
``repro-experiments figN`` and ``repro-experiments scale``.
"""

from __future__ import annotations

import os

# Benchmarks measure the production hot path: compile the runtime contract
# layer out (see repro.contracts) unless the caller explicitly overrides.
# This must run before any ``repro`` import, which is why it lives here.
os.environ.setdefault("REPRO_CONTRACTS", "off")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
