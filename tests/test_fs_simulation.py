"""Tests for the timed full-system simulation.

The headline property: a timed, tuned, reconfiguring run executes every
operation exactly once on its file set's owner, and the resulting
namespace state equals an untimed replay of the same stream.
"""

import pytest

from repro.fs import (
    FsWorkloadConfig,
    MetadataCluster,
    generate_operations,
    populate,
)
from repro.fs.simulation import (
    FullSystemConfig,
    FullSystemSimulation,
)

ROOTS = {f"fs{i}": f"/p{i}" for i in range(8)}
SPEEDS = {f"server{i}": float(2 * i + 1) for i in range(5)}
WL = FsWorkloadConfig(n_operations=4000, duration=2000.0, seed=4,
                      popularity_skew=1.2)


def make_ops():
    gen_cluster = MetadataCluster(["gen"], ROOTS)
    return generate_operations(gen_cluster, WL)


def make_sim(ops, **overrides) -> FullSystemSimulation:
    cfg_kwargs = dict(
        server_speeds=SPEEDS,
        fileset_roots=ROOTS,
        tuning_interval=120.0,
        sample_window=60.0,
        mean_op_cost=0.2,
        seed=1,
    )
    cfg_kwargs.update(overrides)
    sim = FullSystemSimulation(FullSystemConfig(**cfg_kwargs), ops)
    populate(sim.cluster, WL)
    return sim


def test_config_validation():
    with pytest.raises(ValueError):
        FullSystemConfig(server_speeds={}, fileset_roots=ROOTS)
    with pytest.raises(ValueError):
        FullSystemConfig(server_speeds={"a": 0.0}, fileset_roots=ROOTS)
    with pytest.raises(ValueError):
        FullSystemConfig(server_speeds={"a": 1.0}, fileset_roots=ROOTS,
                         move_delay_min=5.0, move_delay_max=1.0)


def test_all_operations_execute_exactly_once():
    ops = make_ops()
    sim = make_sim(ops)
    result = sim.run()
    assert result.ops_completed + result.ops_failed == len(ops)
    assert result.failures == []
    assert result.ops_failed == 0


def test_tuning_happens_and_moves_images():
    ops = make_ops()
    sim = make_sim(ops)
    result = sim.run()
    assert result.tuning_rounds >= 10
    assert result.moves_completed > 0


def test_final_state_equals_untimed_replay():
    ops = make_ops()
    # Timed, tuned, reconfiguring run.
    sim = make_sim(ops)
    timed = sim.run()
    # Untimed single-server reference replay.
    ref = MetadataCluster(["ref"], ROOTS)
    populate(ref, WL)
    for op in ops:
        _, res = ref.submit(op)
        assert res.ok, (op, res.error)
    # Compare every file set's namespace content.
    for fileset in ref.registry.filesets:
        ref_ns = ref.services["ref"]._owned[fileset]
        owner = timed.cluster.owner_of(fileset)
        timed_ns = timed.cluster.services[owner]._owned[fileset]
        ref_paths = {p for p, _ in ref_ns.walk()}
        timed_paths = {p for p, _ in timed_ns.walk()}
        assert ref_paths == timed_paths, fileset


def test_latency_series_produced():
    ops = make_ops()
    result = make_sim(ops).run()
    assert set(result.series.servers) == set(SPEEDS)
    total = sum(result.series.counts[s].sum() for s in result.series.servers)
    assert total == result.ops_completed + result.ops_failed


def test_deterministic_replay():
    ops = make_ops()
    r1 = make_sim(ops).run()
    r2 = make_sim(make_ops()).run()
    assert r1.moves_completed == r2.moves_completed
    assert r1.ops_completed == r2.ops_completed
    for s in r1.series.servers:
        assert list(r1.series.counts[s]) == list(r2.series.counts[s])


def test_tuning_shifts_load_away_from_slow_server():
    ops = make_ops()
    result = make_sim(ops).run()
    counts = {
        s: float(result.series.counts[s][-10:].sum())
        for s in result.series.servers
    }
    total = sum(counts.values()) or 1.0
    # The slowest server ends with (much) less than its fair count share.
    assert counts["server0"] / total < 0.2


def test_empty_operation_stream():
    sim = make_sim([])
    result = sim.run()
    assert result.ops_completed == 0
    assert result.moves_completed == 0


def test_unlock_after_move_seed44_regression():
    """Seed 44 of the 24-root, 5-server benchmark stream: a tuning move
    lands between the paired LOCK and UNLOCK of ``/p10/d03/f001`` (UNLOCK
    at t=127.36).  The lock moves with its file set, so the UNLOCK
    succeeds.  The first 150 s of the stream reproduce the case."""
    roots = {f"fs{i:02d}": f"/p{i:02d}" for i in range(24)}
    speeds = {f"server{i}": float(s) for i, s in enumerate((1, 3, 5, 7, 9))}
    workload = FsWorkloadConfig(
        n_operations=37_000, duration=3_700.0, popularity_skew=0.0, seed=44
    )
    ops = [
        op for op in generate_operations(MetadataCluster(["gen"], roots), workload)
        if op.time <= 150.0
    ]
    assert any(
        op.op.name == "UNLOCK" and op.path == "/p10/d03/f001" for op in ops
    )
    sim = FullSystemSimulation(
        FullSystemConfig(server_speeds=speeds, fileset_roots=roots, seed=44), ops
    )
    populate(sim.cluster, workload)
    result = sim.run()
    assert result.moves_completed > 0
    assert result.ops_failed == 0, result.failures
    sim.cluster.check_consistency()
