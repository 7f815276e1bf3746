"""The paper's evaluation claims, checked at quick scale over five seeds.

Each test is one named claim of the paper (Wu & Burns, SC'03; the
section numbers are the paper's, summarized in PAPER.md §1).  The §7
figure claims are directional: who wins, and roughly by what factor.
They run over every seed in ``CLAIM_SEEDS``, on the two runs per seed the
session fixture ``paper_runs`` makes, so a claim that holds at one seed
only shows up here.  A (claim, seed) pair known not to hold is a strict
xfail whose reason gives the measured values; EXPERIMENTS.md lists them
under "Known deviations".

The figure tables themselves print through ``repro-experiments figN``
and ``repro-experiments scale``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import figure3_demo, figure4_demo, figure5_demo
from repro.experiments.scale import scale_study
from repro.metrics import convergence_time, count_idle_hot_cycles, find_spikes

from .conftest import CLAIM_SEEDS

STATIC = ("simple-random", "round-robin")
HEURISTICS = ("anu-threshold-only", "anu-top-off-only", "anu-divergent-only")


def over_seeds(deviations: dict[int, str] | None = None):
    """Parametrize a claim over CLAIM_SEEDS.

    ``deviations`` maps a seed at which the claim does not hold to the
    measured values there; that (claim, seed) pair is a strict xfail.
    """
    deviations = deviations or {}
    return pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(
            strict=True, reason=deviations[seed]))
        if seed in deviations else seed
        for seed in CLAIM_SEEDS
    ])


def steady_worst(res) -> float:
    """Worst server's mean latency over the last ten windows."""
    return max(res.series.tail_window_mean(s, 10) for s in res.series.servers)


def run_worst(res) -> float:
    """Worst server's mean latency over the whole run."""
    return max(res.series.mean_over_run(s) for s in res.series.servers)


def first_window_worst(res) -> float:
    return max(res.series.mean_latency[s][0] for s in res.series.servers)


def weak_tail_share(res) -> float:
    """server0's share of the requests served in the last ten windows."""
    tail = {s: float(res.series.counts[s][-10:].sum()) for s in res.series.servers}
    return tail["server0"] / (sum(tail.values()) or 1.0)


# ----------------------------------------------------------------------
# Figures 3-5: the interval demos (deterministic, no seed)
# ----------------------------------------------------------------------
def test_fig3_fast_servers_grow_their_regions():
    """§4, Fig. 3: with two servers twice as fast as the others, tuning
    grows the fast servers' mapped regions and balances the latency proxy."""
    demo = figure3_demo()
    fast_share = demo.final_shares["server1"] + demo.final_shares["server2"]
    slow_share = demo.final_shares["server3"] + demo.final_shares["server4"]
    assert fast_share > 1.3 * slow_share
    fast = demo.final_counts["server1"] + demo.final_counts["server2"]
    slow = demo.final_counts["server3"] + demo.final_counts["server4"]
    assert fast > slow
    assert demo.final_latency_spread < 1.3
    demo.placement.check_invariants()


def test_fig4_regions_absorb_workload_skew():
    """§4, Fig. 4: on uniform servers with skewed file sets, region
    scaling balances the latency proxy while file-set counts diverge."""
    demo = figure4_demo()
    assert demo.final_latency_spread < demo.initial_latency_spread
    assert demo.final_latency_spread < 1.3
    counts = demo.final_counts.values()
    assert max(counts) > 1.5 * min(counts)
    demo.placement.check_invariants()


def test_fig5_adding_a_server_moves_no_boundary():
    """§5, Fig. 5: adding a server repartitions the interval without
    moving an existing boundary, and a free partition remains."""
    rep = figure5_demo()
    assert rep.partitions_after >= rep.partitions_before
    assert rep.boundaries_preserved
    assert rep.free_partitions_after >= 1
    assert "server5" in rep.after and rep.after["server5"]


# ----------------------------------------------------------------------
# Figures 6-7: DFSTrace-like workload
# ----------------------------------------------------------------------
@over_seeds()
def test_fig6_prescient_beats_best_static(paper_runs, seed):
    """§7, Fig. 6: prescient's steady-state worst server beats even the
    luckier static policy's."""
    results = paper_runs(seed).dfstrace
    static_worst = min(steady_worst(results[p]) for p in STATIC)
    assert steady_worst(results["prescient"]) < static_worst


@over_seeds({1: "ANU steady worst 39.2 ms against simple-random's 19.7 ms"})
def test_fig6_anu_beats_best_static(paper_runs, seed):
    """§7, Fig. 6: once converged, ANU's worst server beats even the
    luckier static policy's (run means include ANU's transient, which
    quick runs cannot amortize, so the claim is on the last ten windows)."""
    results = paper_runs(seed).dfstrace
    static_worst = min(steady_worst(results[p]) for p in STATIC)
    assert steady_worst(results["anu"]) < static_worst


@over_seeds()
def test_fig6_static_policies_never_move(paper_runs, seed):
    """§7: simple randomization and round-robin never move a file set."""
    results = paper_runs(seed).dfstrace
    assert results["round-robin"].moves_started == 0
    assert results["simple-random"].moves_started == 0


@over_seeds()
def test_fig6_anu_matches_prescient_with_fewer_moves(paper_runs, seed):
    """§5, §7, Figs. 6-7: ANU's mean latency is within an order of
    magnitude of the perfect-knowledge prescient policy's, and it gets
    there moving file sets conservatively: it preserves placements (and
    so caches) better than the permuting prescient packer.  Quick runs
    are dominated by convergence rounds, hence the 0.6 preservation
    floor; the full run sits above 0.8."""
    results = paper_runs(seed).dfstrace
    anu, presc = results["anu"], results["prescient"]
    assert anu.mean_latency < 10 * max(presc.mean_latency, 1e-4)
    assert 0 < anu.moves_started
    assert anu.ledger.preservation > 0.6
    assert anu.ledger.preservation > presc.ledger.preservation


@over_seeds()
def test_fig7_anu_converges_from_its_uniform_guess(paper_runs, seed):
    """§7, Fig. 7: ANU starts from a uniform guess and converges "over the
    first 3 sample periods (6 minutes)": its worst window after the
    first six is below its initial transient."""
    anu = paper_runs(seed).dfstrace["anu"]
    t_anu = convergence_time(anu.series, threshold=0.05, stable_windows=3)
    if t_anu is not None:
        assert t_anu <= 6 * 60.0 + 1e-9
    first = first_window_worst(anu)
    steady = max(
        float(np.max(anu.series.mean_latency[s][6:])) for s in anu.series.servers
    )
    assert steady < max(first, 1e-9) or first == 0.0


@over_seeds()
def test_fig7_prescient_starts_balanced(paper_runs, seed):
    """§7, Fig. 7: prescient packs the first interval's demand before the
    run, so its first window is no worse than ANU's uniform guess."""
    results = paper_runs(seed).dfstrace
    assert first_window_worst(results["prescient"]) <= first_window_worst(
        results["anu"])


# ----------------------------------------------------------------------
# Figures 8-9: synthetic workload
# ----------------------------------------------------------------------
@over_seeds()
def test_fig8_prescient_worst_below_best_static(paper_runs, seed):
    """§7, Fig. 8: static policies cannot deal with heterogeneity; the
    prescient policy's worst run-mean server beats the best static one."""
    results = paper_runs(seed).synthetic
    static_worst = min(run_worst(results[p]) for p in STATIC)
    assert run_worst(results["prescient"]) < static_worst


@over_seeds({
    3: "ANU worst run-mean 581.7 ms against the best static 347.9 ms",
    4: "ANU worst run-mean 360.6 ms against the best static 141.2 ms",
})
def test_fig8_anu_worst_below_best_static(paper_runs, seed):
    """§7, Fig. 8: ANU discovers the heterogeneity; its worst run-mean
    server beats the best static policy's."""
    results = paper_runs(seed).synthetic
    static_worst = min(run_worst(results[p]) for p in STATIC)
    assert run_worst(results["anu"]) < static_worst


@over_seeds()
def test_fig8_prescient_mean_below_static_third(paper_runs, seed):
    """§7, Fig. 8: prescient's mean latency is below a third of the best
    static policy's."""
    results = paper_runs(seed).synthetic
    static_mean = min(results[p].mean_latency for p in STATIC)
    assert results["prescient"].mean_latency < static_mean / 3


@over_seeds({
    3: "ANU mean 30.9 ms against a static third of 23.3 ms",
    4: "ANU mean 21.1 ms against a static third of 9.2 ms",
})
def test_fig8_anu_mean_below_static_third(paper_runs, seed):
    """§7, Fig. 8: ANU's mean latency is below a third of the best static
    policy's."""
    results = paper_runs(seed).synthetic
    static_mean = min(results[p].mean_latency for p in STATIC)
    assert results["anu"].mean_latency < static_mean / 3


@over_seeds()
def test_fig8_prescient_configuration_is_stable(paper_runs, seed):
    """§7, Fig. 8: on a stationary workload prescient retains its
    configuration; it does not re-deal the file sets every round."""
    presc = paper_runs(seed).synthetic["prescient"]
    rounds = max(presc.tuning_rounds, 1)
    assert presc.ledger.total_moves / rounds < 0.25 * len(presc.final_assignment)


@over_seeds()
def test_fig9_anu_parks_the_weak_server(paper_runs, seed):
    """§7, Fig. 9: ANU cannot choose which file set lands where, so the
    least powerful server ends with little to no load; its attempts to
    acquire a file set are countable spikes, not sustained load; and the
    servers that carry the load stay low, comparable to prescient."""
    anu = paper_runs(seed).synthetic["anu"]
    assert weak_tail_share(anu) < 0.10
    assert len(find_spikes(anu.series, "server0", threshold=0.05)) <= 6
    carrying = [s for s in anu.series.servers if s != "server0"]
    assert max(anu.series.tail_window_mean(s, 10) for s in carrying) < 0.2


@over_seeds()
def test_fig9_prescient_keeps_every_server_low(paper_runs, seed):
    """§7, Fig. 9: prescient keeps every server's run-mean latency low."""
    presc = paper_runs(seed).synthetic["prescient"]
    for s in presc.series.servers:
        assert presc.series.mean_over_run(s) < 0.5


@over_seeds({
    1: "ANU steady worst window 239.6 ms against a first window of 159.3 ms",
})
def test_fig9_anu_steady_below_first_window(paper_runs, seed):
    """§7, Fig. 9: ANU's steady-state worst window is no worse than its
    initial transient."""
    anu = paper_runs(seed).synthetic["anu"]
    first = first_window_worst(anu)
    steady = max(
        float(np.max(anu.series.mean_latency[s][10:])) for s in anu.series.servers
    )
    assert steady <= first or first == 0.0


# ----------------------------------------------------------------------
# Figures 10-11: over-tuning and its heuristics
# ----------------------------------------------------------------------
@over_seeds()
def test_fig10_heuristics_cut_churn_at_no_latency_cost(paper_runs, seed):
    """§6, Fig. 10: with the three heuristics ANU still tunes, but moves
    fewer file sets than aggressive tuning, and its mean latency is at
    most twice the aggressive one."""
    results = paper_runs(seed).synthetic
    cured, aggressive = results["anu"], results["anu-aggressive"]
    assert 0 < cured.moves_started < aggressive.moves_started
    assert cured.mean_latency <= 2.0 * max(aggressive.mean_latency, 1e-4)


@over_seeds({1: "weakest-server oscillations: anu 2 against anu-aggressive 1"})
def test_fig10_heuristics_cut_oscillation(paper_runs, seed):
    """§6, Fig. 10: without the heuristics the weakest server cycles idle
    -> hot -> idle; with them ANU still tunes, and the weakest server
    cycles no more often.  (A policy that never tunes never cycles; that
    is no cure, hence the first check.)"""
    results = paper_runs(seed).synthetic
    assert results["anu"].moves_started > 0
    osc = {p: count_idle_hot_cycles(results[p].series, "server0", 0.05)
           for p in ("anu", "anu-aggressive")}
    assert osc["anu"] <= osc["anu-aggressive"]


@over_seeds()
def test_fig11_each_heuristic_alone_balances(paper_runs, seed):
    """§6, Fig. 11: each heuristic alone completes the workload at a
    usable balance (means in the tens of ms, not static hundreds)."""
    results = paper_runs(seed).synthetic
    total = results["anu-threshold-only"].total_requests
    for policy in HEURISTICS:
        assert results[policy].total_requests == total
        assert results[policy].mean_latency < 0.2


@over_seeds()
def test_fig11_top_off_parks_the_weakest_server(paper_runs, seed):
    """§6, Fig. 11: top-off is "the single most effective" heuristic: it
    leaves the weakest server the smallest steady-state request share
    (and it gets there by tuning, not by standing still)."""
    results = paper_runs(seed).synthetic
    assert results["anu-top-off-only"].moves_started > 0
    shares = {p: weak_tail_share(results[p]) for p in HEURISTICS}
    others = min(shares["anu-threshold-only"], shares["anu-divergent-only"])
    assert shares["anu-top-off-only"] <= others + 0.02


# ----------------------------------------------------------------------
# Robustness across seeds
# ----------------------------------------------------------------------
@over_seeds()
def test_anu_steady_worst_beats_static_at_every_seed(paper_runs, seed):
    """§7: adaptive beats static on the synthetic workload at every seed,
    not just on average: ANU's steady-state worst server is below both
    static policies'."""
    results = paper_runs(seed).synthetic
    anu = steady_worst(results["anu"])
    for policy in STATIC:
        assert anu < steady_worst(results[policy])


def test_anu_steady_worst_mean_below_static(paper_runs):
    """§7: averaged over the seeds, ANU's steady-state worst server is
    below each static policy's."""
    mean = {
        p: np.mean([steady_worst(paper_runs(s).synthetic[p]) for s in CLAIM_SEEDS])
        for p in ("anu", *STATIC)
    }
    for policy in STATIC:
        assert mean["anu"] < mean[policy]


# ----------------------------------------------------------------------
# Scale (the conclusion's "previously unmanageable sizes")
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_points():
    """The analytic scale study at the sizes of ``repro-experiments scale
    --quick``; the full sweep (up to n = 80) prints without ``--quick``."""
    return {pt.n_servers: pt for pt in scale_study(sizes=(5, 10, 20))}


def test_scale_addressing_stays_two_probes(scale_points):
    """§4: locating a file set takes about two probes at every size."""
    assert all(1.7 < pt.mean_probes < 2.3 for pt in scale_points.values())


def test_scale_add_movement_shrinks_like_one_over_n(scale_points):
    """§5: adding a server moves about its fair 1/n share of file sets."""
    largest, smallest = max(scale_points), min(scale_points)
    moved = scale_points[largest].add_moved_fraction
    assert moved < scale_points[smallest].add_moved_fraction
    assert moved < 3.0 / largest + 0.05


def test_scale_replicated_state_is_linear_in_servers(scale_points):
    """§5: the replicated region map is O(servers), not O(file sets)."""
    assert all(pt.segments < 4 * pt.n_servers for pt in scale_points.values())


def test_scale_balance_holds_at_every_size(scale_points):
    """Conclusion: capacity-normalized balance stays within a small
    constant after tuning, at every size."""
    assert all(pt.balance_cov < 0.6 for pt in scale_points.values())
