"""Heterogeneous cluster comparison — the paper's headline experiment.

Run:  python examples/heterogeneous_cluster.py

Simulates the paper's five-server cluster (speeds 1, 3, 5, 7, 9) serving a
skewed synthetic metadata workload under four placement policies and prints
per-server latency sparklines plus the comparison table.  This is a
reduced-scale version of Figure 8; run ``repro-experiments fig8`` (or the
benchmarks) for the full published scale.
"""

from repro import ClusterConfig, ClusterSimulation, SyntheticConfig, generate_synthetic, paper_servers
from repro.experiments import comparison_table, series_block
from repro.experiments.runner import run_policy

POLICIES = ("simple-random", "round-robin", "prescient", "anu")


def main() -> None:
    workload = SyntheticConfig(
        n_filesets=120, n_requests=20_000, duration=2_000.0, seed=1
    )
    trace = generate_synthetic(workload)
    cluster = ClusterConfig(
        servers=paper_servers(),
        tuning_interval=120.0,
        sample_window=60.0,
        oracle_horizon=workload.duration,  # stationary workload
        seed=0,
    )
    print(f"workload: {trace}")
    print(f"cluster : speeds {sorted(cluster.speeds.values())}, "
          f"2-minute tuning interval\n")

    results = {}
    for name in POLICIES:
        results[name] = run_policy(name, trace, cluster)
        print(series_block(f"[{name}]", results[name].series))
        print()

    print(comparison_table(results))
    print(
        "\nReading the table: the static policies leave the slow server\n"
        "overloaded (high worst-server latency); prescient needs perfect\n"
        "knowledge to balance; ANU gets comparable balance from latency\n"
        "observations alone, moving only a few file sets per adjustment."
    )


if __name__ == "__main__":
    main()
