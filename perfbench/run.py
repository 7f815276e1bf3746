"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 15 --trace 0

Each workload runs in this one single-threaded process, with runtime
contracts compiled out (``REPRO_CONTRACTS=off``).  A run warms up on a
tiny instance, then repeats *set up + run* until ``--seconds`` of
measurement have passed (at least twice, so repeats can be compared),
checks every repeat's outputs, and prints one JSON object as the last
line of standard output:

- ``--trace 0``: the end-to-end metrics (host throughput, set-up time,
  peak memory), each the median over the repeats;
- ``--trace 1``: one untraced and one traced repeat; the per-layer
  metrics from the traced one, plus the tracing overhead.  Spans are
  written under ``.perfbench_out/``.

The simulated results (wait mean/p50/p99.9, moves, failed share) are
printed on the line before the JSON.  A failed output check prints the
result with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pinned before numpy and repro are imported: both read them once.
os.environ["REPRO_CONTRACTS"] = "off"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no package sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: Set-up is timed at least MIN_SETUPS times and, while the samples add
#: up to less than SETUP_SECONDS, up to MAX_SETUPS times (median reported):
#: a 30 ms set-up needs many samples to give a steady median.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_SECONDS = 1.0
#: Repeats per untraced run: at least two (compared by digest).
MIN_REPEATS = 2
MAX_REPEATS = 50
SPAN_DIR = ROOT / ".perfbench_out"


def measure(prepare, seed: int) -> tuple[float, float, Outcome]:
    """One repeat: (setup seconds, run seconds, outcome)."""
    gc.collect()
    t0 = time.perf_counter()
    run = prepare(seed)
    t1 = time.perf_counter()
    outcome = run()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, outcome


def judge(outcomes: list[Outcome]) -> tuple[list[str], int, int]:
    """Check every repeat; returns (errors, attempted, failed).

    A repeat that failed a check, or whose digest differs from the first
    repeat's, counts all of its requests as failed.
    """
    errors: list[str] = []
    attempted = failed = 0
    for i, outcome in enumerate(outcomes):
        attempted += outcome.attempted
        bad = list(outcome.errors)
        if outcome.digest != outcomes[0].digest:
            bad.append(f"repeat {i}: output digest differs from repeat 0")
        errors += bad
        failed += outcome.attempted if bad else outcome.ops_failed
    return errors, attempted, failed


def simulated(outcome: Outcome, attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    """The simulated results of one repeat (identical across repeats)."""
    return {
        "sim_wait_mean_ms": (outcome.wait_mean * 1e3, "ms"),
        "sim_wait_p50_ms": (outcome.wait_p50 * 1e3, "ms"),
        "sim_wait_p999_ms": (outcome.wait_p999 * 1e3, "ms"),
        "sim_wait_samples": (outcome.wait_samples, "count"),
        "sim_moves": (outcome.moves, "count"),
        "failed_share": (failed / attempted if attempted else 0.0, "ratio"),
    }


def end_to_end(prepare, seed: int, seconds: float):
    """Repeats of set-up + run for ``seconds`` (at least two), then extra
    set-ups; end-to-end metrics as medians over them."""
    setups, runs, outcomes = [], [], []
    measured = 0.0
    while len(outcomes) < MIN_REPEATS or (
        measured < seconds and len(outcomes) < MAX_REPEATS
    ):
        setup_s, run_s, outcome = measure(prepare, seed)
        setups.append(setup_s)
        runs.append(run_s)
        outcomes.append(outcome)
        measured += setup_s + run_s
        print(f"repeat {len(outcomes)}: setup {setup_s:.4f} s, run {run_s:.4f} s",
              file=sys.stderr)
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
    ):
        gc.collect()
        t0 = time.perf_counter()
        prepare(seed)
        setups.append(time.perf_counter() - t0)
    errors, attempted, failed = judge(outcomes)
    metrics = {
        "host_req_per_s": (
            statistics.median(o.completed / r for o, r in zip(outcomes, runs)), "1/s"
        ),
        "setup_s": (statistics.median(setups), "s"),
        "host_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return metrics, outcomes[0], errors, attempted, failed


def per_layer(prepare, seed: int, workload: str):
    """One untraced and one traced repeat; per-layer metrics from spans."""
    base_setup, base_run, base = measure(prepare, seed)
    tracer = tracing.Tracer(run_id=seed)
    tracing.install(tracer)
    try:
        with_root = tracer.span("bench.run", lambda run: run())
        gc.collect()
        t0 = time.perf_counter()
        run = tracer.span("bench.setup", prepare)(seed)
        t1 = time.perf_counter()
        traced = with_root(run)
        t2 = time.perf_counter()
    finally:
        tracer.close()
    errors, attempted, failed = judge([base, traced])
    tracer.write(SPAN_DIR / f"spans-{workload}-seed{seed}")
    metrics = layer_metrics(tracer, traced, base_run, t2 - t1, base_setup, t1 - t0)
    return metrics, base, errors, attempted, failed


def layer_metrics(tracer: tracing.Tracer, outcome: Outcome, base_run: float,
                  traced_run: float, base_setup: float, traced_setup: float):
    spans = tracer.summary("bench.run")
    setup_spans = tracer.summary("bench.setup")
    counts = outcome.counts

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = counts.get("events_fired", 0)
    pushes = tracer.calls.get("sim.heap_pushes", 0)
    sent = counts.get("messages_sent", 0)
    dropped = counts.get("messages_dropped", 0)
    emit_s = self_s("telemetry.emit")
    tel_bytes = counts.get("telemetry_bytes", 0)
    started = counts.get("moves_started", 0)
    values = {
        "sim.events_fired": (events, "count"),
        "sim.heap_pushes": (pushes, "count"),
        "sim.useful_event_ratio": (ratio(events, pushes), "ratio"),
        "sim.self_s": (self_s("sim.step"), "s"),
        "sim.host_ns_per_event": (ratio(base_run * 1e9, events), "ns"),
        "cluster.submits": (calls("cluster.submit"), "count"),
        "cluster.submit_s": (self_s("cluster.submit"), "s"),
        "cluster.retries": (counts.get("retries", 0), "count"),
        "cluster.moves_started": (started, "count"),
        "cluster.moves_completed": (counts.get("moves_completed", 0), "count"),
        "cluster.move_useful_ratio": (
            ratio(counts.get("moves_completed", 0), started), "ratio"
        ),
        "routing.choose_calls": (calls("routing.choose"), "count"),
        "routing.choose_s": (self_s("routing.choose"), "s"),
        "loop.rounds": (counts.get("tuning_rounds", 0), "count"),
        "loop.context_s": (self_s("loop.context"), "s"),
        "loop.realize_s": (self_s("loop.realize"), "s"),
        "placement.update_calls": (calls("placement.update"), "count"),
        "placement.update_s": (self_s("placement.update"), "s"),
        "placement.changed_ratio": (
            ratio(tracer.tallies.get("placement.changed", 0), calls("placement.update")),
            "ratio",
        ),
        "placement.membership_s": (self_s("placement.membership"), "s"),
        "placement.replica_refresh_s": (self_s("placement.replica_refresh"), "s"),
        "placement.set_shares_s": (self_s("placement.set_shares"), "s"),
        "membership.events": (calls("membership.apply"), "count"),
        "membership.apply_s": (self_s("membership.apply"), "s"),
        "membership.orphans": (tracer.tallies.get("membership.orphans", 0), "count"),
        "metrics.records": (calls("metrics.record"), "count"),
        "metrics.record_s": (self_s("metrics.record"), "s"),
        "metrics.report_s": (self_s("metrics.report"), "s"),
        "metrics.series_s": (self_s("metrics.series"), "s"),
        "telemetry.records": (counts.get("telemetry_records", 0), "count"),
        "telemetry.emit_s": (emit_s, "s"),
        "telemetry.bytes": (tel_bytes, "B"),
        "telemetry.host_mb_per_s": (ratio(tel_bytes / 1e6, emit_s), "MB/s"),
        "proto.messages_sent": (sent, "count"),
        "proto.messages_dropped": (dropped, "count"),
        "proto.delivery_ratio": (ratio(sent - dropped, sent), "ratio"),
        "proto.send_s": (self_s("proto.send"), "s"),
        "proto.elections": (counts.get("elections", 0), "count"),
        "fs.submits": (calls("fs.submit"), "count"),
        "fs.submit_s": (self_s("fs.submit"), "s"),
        "fs.fileset_of_s": (self_s("fs.fileset_of"), "s"),
        "fs.execute_s": (self_s("fs.execute"), "s"),
        "fs.ops_failed": (counts.get("ops_failed", 0), "count"),
        "fs.moves": (counts.get("fs_moves", 0), "count"),
        "workloads.generate_s": (setup_spans["workloads.generate"]["self_s"], "s"),
        "tracing.spans": (len(tracer.start), "count"),
        "tracing.overhead_s": (traced_run - base_run, "s"),
        "tracing.overhead_ratio": (ratio(traced_run - base_run, base_run), "ratio"),
        "tracing.setup_overhead_s": (traced_setup - base_setup, "s"),
    }
    # Each layer's share of the traced run phase (self time of its spans);
    # ``other`` is run-phase time outside every layer span.
    run_total = spans["bench.run"]["total_s"]
    for layer in tracing.LAYERS:
        layer_self = sum(
            v["self_s"] for k, v in spans.items()
            if k.split(".", 1)[0] == layer
        )
        values[f"share.{layer}"] = (ratio(layer_self, run_total), "ratio")
    values["share.other"] = (ratio(self_s("bench.run"), run_total), "ratio")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build = WORKLOADS[args.workload]

    # Warm-up: lazy imports and first-call costs, outside every timing.
    build(args.seed, tiny=True)()

    if args.trace:
        metrics, first, errors, attempted, failed = per_layer(
            build, args.seed, args.workload
        )
    else:
        metrics, first, errors, attempted, failed = end_to_end(
            build, args.seed, args.seconds
        )
    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "simulated": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in simulated(first, attempted, failed).items()
        },
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
