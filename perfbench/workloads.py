"""The benchmark's four workloads, each built from its seed alone.

Every workload is split into a *setup* phase (generate inputs, fault
schedule and namespace; construct the simulations) and a *run* phase
(execute and summarize).  ``prepare`` does the first and returns a
callable that does the second, so the two are timed apart.
Only the package's public API is called.

``tiny=True`` shrinks every input to a few thousand requests with the same
shape; the benchmark's own tests use it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.cluster.cluster import ClusterConfig, ClusterSimulation, RunResult
from repro.cluster import ProtocolDrivenCluster
from repro.experiments.config import figure6, figure8
from repro.experiments.runner import make_policy
from repro.fs import FsWorkloadConfig, MetadataCluster
from repro.fs import workload as fs_workload
from repro.fs.simulation import FullSystemConfig, FullSystemSimulation
from repro.membership import injector as injector_mod
from repro.membership.faults import FaultSchedule
from repro.placement.prescient import PrescientPolicy
from repro.runtime.routing import make_router
from repro.runtime.telemetry import CallbackSink, JsonlSink, TeeSink
from repro.units import Seconds
from repro.workloads import dfstrace, synthetic

#: Policies of the paper's Figure 8, in the figure's order.
FIG8_POLICIES = ("simple-random", "round-robin", "prescient", "anu")

#: Paper fleet (Figure 6-11): processing power 1, 3, 5, 7, 9.
FS_SPEEDS = {f"server{i}": float(s) for i, s in enumerate((1, 3, 5, 7, 9))}


@dataclass
class Outcome:
    """What one run phase produced, plus the checks it failed."""

    #: Simulated requests (or operations) the run was asked to serve.
    attempted: int
    #: Requests completed, summed over every simulation of the run.
    completed: int
    #: Operations that completed with an error (semantic stack only).
    ops_failed: int
    #: The reported simulation's wait statistics, in simulated seconds.
    wait_mean: float
    wait_p50: float
    wait_p999: float
    wait_samples: int
    #: File-set moves started in the reported simulation.
    moves: int
    #: sha256 over every simulation's series, ledger and final assignment.
    digest: str
    #: Exact work counters read from result objects (traced run reports).
    counts: dict[str, float] = field(default_factory=dict)
    #: One line per failed output check; empty when the run is correct.
    errors: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Output checks and digests
# ----------------------------------------------------------------------
def series_digest(result) -> str:
    """sha256 over the windowed series, ledger, completions and final
    assignment of one result (the golden-summary fingerprint)."""
    series = result.series
    blob = json.dumps(
        {
            "times": series.times.tolist(),
            "mean_latency": {s: series.mean_latency[s].tolist() for s in series.servers},
            "counts": {s: series.counts[s].tolist() for s in series.servers},
            "ledger": result.ledger.summary(),
            "completed": result.completed,
            "final_assignment": result.final_assignment,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_conservation(label: str, attempted: int, result) -> list[str]:
    """Every attempted request completed exactly once: the completion
    counters, the result total and the collector's samples all agree."""
    errors = []
    completed = sum(result.completed.values())
    samples = result.collector.sample_count()
    if not completed == result.total_requests == samples == attempted:
        errors.append(
            f"{label}: conservation broken: attempted={attempted} "
            f"completed={completed} total={result.total_requests} "
            f"samples={samples}"
        )
    return errors


def _checked(label: str, check: Callable[[], None]) -> list[str]:
    """Run one invariant check; a raise becomes an error line."""
    try:
        check()
    except (AssertionError, ValueError, RuntimeError) as exc:
        return [f"{label}: {type(exc).__name__}: {exc}"]
    return []


def _cluster_checks(label: str, sim: ClusterSimulation, attempted: int,
                    result: RunResult) -> list[str]:
    errors = check_conservation(label, attempted, result)
    errors += _checked(f"{label} sim invariants", sim.check_invariants)
    placement = getattr(sim.policy, "placement", None)
    if placement is not None:
        errors += _checked(f"{label} placement invariants",
                           placement.check_invariants)
    return errors


def _wait_stats(result) -> dict[str, float]:
    collector = result.collector
    return {
        "wait_mean": result.mean_latency,
        "wait_p50": float(collector.percentile(50.0)),
        "wait_p999": float(collector.percentile(99.9)),
        "wait_samples": collector.sample_count(),
    }


def _combine(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def _cluster_counts(sims: list[ClusterSimulation],
                    results: list[RunResult]) -> dict[str, float]:
    return {
        "events_fired": sum(s.engine.events_fired for s in sims),
        "retries": sum(r.retries for r in results),
        "moves_started": sum(r.moves_started for r in results),
        "moves_completed": sum(r.moves_completed for r in results),
        "tuning_rounds": sum(r.tuning_rounds for r in results),
    }


def _make_policy(name: str, trace, cluster: ClusterConfig):
    """A fresh policy; prescient gets its oracle the way the figure
    runner grants it (true speeds + first-horizon demand)."""
    policy = make_policy(name)
    if isinstance(policy, PrescientPolicy):
        horizon = cluster.oracle_horizon or cluster.tuning_interval
        policy.grant_oracle(cluster.speeds, trace.demand_by_fileset(0.0, horizon))
    return policy


# ----------------------------------------------------------------------
# fig8: paper Figure 8 at published scale, four policies
# ----------------------------------------------------------------------
def prepare_fig8(seed: int, tiny: bool = False) -> Callable[[], Outcome]:
    """500 file sets, 100k requests over 10,000 s, x^4 weights; policies
    simple-random, round-robin, prescient and anu; r=1, no faults."""
    config = figure8(seed=seed)
    workload = config.synthetic
    if tiny:
        workload = replace(workload, n_filesets=60, n_requests=3000, duration=600.0)
    trace = synthetic.generate_synthetic(workload)
    sims = [
        ClusterSimulation(config.cluster, _make_policy(name, trace, config.cluster), trace)
        for name in FIG8_POLICIES
    ]

    def run() -> Outcome:
        results = [sim.run() for sim in sims]
        errors: list[str] = []
        for name, sim, result in zip(FIG8_POLICIES, sims, results):
            errors += _cluster_checks(f"fig8/{name}", sim, len(trace), result)
        anu = results[FIG8_POLICIES.index("anu")]
        return Outcome(
            attempted=len(trace) * len(sims),
            completed=sum(r.total_requests for r in results),
            ops_failed=0,
            moves=anu.moves_started,
            digest=_combine([series_digest(r) for r in results]),
            counts=_cluster_counts(sims, results),
            errors=errors,
            **_wait_stats(anu),
        )

    return run


# ----------------------------------------------------------------------
# churn: ANU r=2 + JSQ(2) under a seeded FULL_CHURN fault schedule
# ----------------------------------------------------------------------
#: Membership events per churn run.  Over a fixed horizon a FULL_CHURN
#: schedule's event count swings with the seed (195 to 336 events over
#: 5,000 s at seeds 1-5) and the run time follows it (6.1 to 8.6 s), so
#: the benchmark takes a fixed number of events and spreads them over the
#: trace: the seed picks which events, not how much churn.
CHURN_EVENTS = 300


def churn_schedule(speeds: dict[str, float], seed: int, n_events: int,
                   horizon: float) -> FaultSchedule:
    """The first ``n_events`` of a seeded FULL_CHURN schedule, their times
    scaled so the last one falls at 98% of ``horizon`` (scaling keeps the
    order, so the schedule stays valid)."""
    injector = injector_mod.FaultInjector(speeds, injector_mod.FULL_CHURN, seed=seed)
    events = list(itertools.islice(injector.events(Seconds(math.inf)), n_events))
    scale = 0.98 * horizon / events[-1].time
    schedule = FaultSchedule()
    for event in events:
        schedule.add(replace(event, time=Seconds(event.time * scale)))
    return schedule


def prepare_churn(seed: int, tiny: bool = False) -> Callable[[], Outcome]:
    """fig8's fleet and trace family at fig8's arrival rate, half length
    (50k requests over 5,000 s); ANU with r=2, the jsq2 router and 300
    seeded FULL_CHURN membership events spread over the trace."""
    cluster = figure8(seed=seed).cluster
    workload = synthetic.SyntheticConfig(
        n_requests=50_000, duration=5_000.0, seed=seed + 1
    )
    n_events = CHURN_EVENTS
    if tiny:
        workload = replace(workload, n_filesets=60, n_requests=3000, duration=300.0)
        n_events = 20
    trace = synthetic.generate_synthetic(workload)
    faults = churn_schedule(cluster.speeds, seed, n_events, trace.duration)
    sim = ClusterSimulation(
        cluster, make_policy("anu"), trace, faults,
        router=make_router("jsq2"), replication=2,
    )

    def run() -> Outcome:
        result = sim.run()
        return Outcome(
            attempted=len(trace),
            completed=result.total_requests,
            ops_failed=0,
            moves=result.moves_started,
            digest=series_digest(result),
            counts=_cluster_counts([sim], [result]),
            errors=_cluster_checks("churn", sim, len(trace), result),
            **_wait_stats(result),
        )

    return run


# ----------------------------------------------------------------------
# fig6-protocol: Figure 6 trace, ANU over the message protocol, JSONL on
# ----------------------------------------------------------------------
#: Delegate crashes at a quarter, half and three quarters of the trace.
FIG6_CRASH_FRACTIONS = (0.25, 0.5, 0.75)

#: Bytes per slice when scanning the JSONL buffer.
_SLICE = 1 << 20

#: Telemetry record classes that must each appear once per request.
REQUEST_RECORDS = ("RequestArrived", "RequestDispatched", "RequestCompleted")


def prepare_fig6_protocol(seed: int, tiny: bool = False) -> Callable[[], Outcome]:
    """Figure 6's DFSTrace-like trace (21 bursty file sets, 112,590
    requests in 3,600 s) tuned over the section-4 message protocol with
    three delegate crashes; every telemetry record is serialized by
    ``JsonlSink`` into an in-memory buffer."""
    config = figure6(seed=seed)
    workload = config.dfstrace
    if tiny:
        workload = replace(workload, n_requests=3000, duration=600.0, epochs=4)
    trace = dfstrace.generate_dfstrace_like(workload)
    buffer = io.BytesIO()
    emitted: Counter[str] = Counter()
    text_io = io.TextIOWrapper(buffer, encoding="utf-8")
    sink = TeeSink(
        JsonlSink(text_io),
        CallbackSink(lambda record: emitted.update((type(record).__name__,))),
    )
    stack = ProtocolDrivenCluster(
        config.cluster,
        trace,
        delegate_crash_times=[f * trace.duration for f in FIG6_CRASH_FRACTIONS],
        telemetry=sink,
    )

    def run() -> Outcome:
        outcome = stack.run()
        result = outcome.run
        sink.close()
        errors = _cluster_checks("fig6-protocol", stack.sim, len(trace), result)
        # Hash and count the stream in slices: a full copy of a 37 MB
        # buffer would set the run's peak memory.
        stream = buffer.getbuffer()
        stream_hash = hashlib.sha256(stream)
        lines = sum(
            stream[i:i + _SLICE].tobytes().count(b"\n")
            for i in range(0, len(stream), _SLICE)
        )
        n_bytes = len(stream)
        stream.release()
        if lines != sum(emitted.values()):
            errors.append(
                f"fig6-protocol: {lines} JSONL lines for "
                f"{sum(emitted.values())} records emitted"
            )
        for kind in REQUEST_RECORDS:
            if emitted[kind] != len(trace):
                errors.append(
                    f"fig6-protocol: {emitted[kind]} {kind} records for "
                    f"{len(trace)} requests"
                )
        counts = _cluster_counts([stack.sim], [result])
        counts.update(
            messages_sent=outcome.messages_sent,
            messages_dropped=outcome.messages_dropped,
            elections=sum(n.elections_started for n in stack.nodes.values()),
            telemetry_records=sum(emitted.values()),
            telemetry_bytes=n_bytes,
        )
        return Outcome(
            attempted=len(trace),
            completed=result.total_requests,
            ops_failed=0,
            moves=result.moves_started,
            digest=_combine([series_digest(result), stream_hash.hexdigest()]),
            counts=counts,
            errors=errors,
            **_wait_stats(result),
        )

    return run


# ----------------------------------------------------------------------
# fs-semantic: the timed semantic stack over a populated namespace
# ----------------------------------------------------------------------
FS_ROOTS = {f"fs{i:02d}": f"/p{i:02d}" for i in range(24)}


def prepare_fs_semantic(seed: int, tiny: bool = False) -> Callable[[], Outcome]:
    """24 file-set roots, 37,000 default-mix operations at 10 op/s (about
    40.8k after the generator pairs unlinks and unlocks, so p99.9 leaves
    40 samples beyond it), 5 paper servers, delegate tuning.

    File-set popularity is uniform: the path resolver scans roots in a
    fixed order, so under a skewed popularity the run time followed where
    the seed's shuffle put the hot file sets (6.9 s at seed 1, 8.1 s at
    seed 5).  The namespace is populated the way the golden capture does
    it, with ``populate`` on the simulation's own cluster:
    ``Scenario.run_full_system`` never populates, so through that API most
    operations fail ``NotFound``."""
    workload = FsWorkloadConfig(
        n_operations=37_000, duration=3_700.0, popularity_skew=0.0, seed=seed
    )
    if tiny:
        workload = replace(workload, n_operations=2_000, duration=200.0)
    operations = fs_workload.generate_operations(
        MetadataCluster(["gen"], FS_ROOTS), workload
    )
    sim = FullSystemSimulation(
        FullSystemConfig(server_speeds=FS_SPEEDS, fileset_roots=FS_ROOTS, seed=seed),
        operations,
    )
    fs_workload.populate(sim.cluster, workload)

    def run() -> Outcome:
        result = sim.run()
        errors = check_conservation("fs-semantic", len(operations), result)
        errors += _checked("fs-semantic consistency", sim.cluster.check_consistency)
        counts = {
            "events_fired": sim.engine.events_fired,
            "tuning_rounds": result.tuning_rounds,
            "fs_moves": result.moves_started,
            "ops_failed": result.ops_failed,
        }
        return Outcome(
            attempted=len(operations),
            completed=result.total_requests,
            ops_failed=result.ops_failed,
            moves=result.moves_started,
            digest=_combine([
                series_digest(result),
                hashlib.sha256(
                    json.dumps(result.cluster.placement.shares(), sort_keys=True)
                    .encode("utf-8")
                ).hexdigest(),
            ]),
            counts=counts,
            errors=errors,
            **_wait_stats(result),
        )

    return run


#: Workload name -> ``prepare(seed, tiny)``.
WORKLOADS: dict[str, Callable[..., Callable[[], Outcome]]] = {
    "fig8": prepare_fig8,
    "churn": prepare_churn,
    "fig6-protocol": prepare_fig6_protocol,
    "fs-semantic": prepare_fs_semantic,
}
