"""Microbenchmarks of the core placement operations.

These quantify the paper's §5 scalability claims: addressing and locating
load is hashing only (microseconds, no I/O), and reconfiguration state
scales with servers, not file sets.
"""

import pytest

from repro.core import ANUPlacement, HashFamily, MappedInterval, hash_to_unit
from repro.placement.prescient import lpt_assign

NAMES = [f"/projects/fs{i:05d}" for i in range(1000)]


def test_hash_probe_throughput(benchmark):
    """First probe of 1,000 names on a fresh family: BLAKE2b, not memo hits."""

    def probe_all():
        family = HashFamily()
        for name in NAMES:
            family.probe(name, 0)

    benchmark(probe_all)


def test_hash_to_unit_single(benchmark):
    benchmark(hash_to_unit, "/projects/fs00042", 0)


@pytest.mark.parametrize("n_servers", [5, 20, 80])
def test_locate_throughput(benchmark, n_servers):
    placement = ANUPlacement([f"s{i}" for i in range(n_servers)])
    benchmark.extra_info["n_servers"] = n_servers

    def locate_all():
        for name in NAMES:
            placement.locate(name)

    benchmark(locate_all)


def test_locate_owner_set_throughput(benchmark):
    """Replica owner sets (r=2) of 1,000 names: the churn re-derivation path."""
    placement = ANUPlacement([f"s{i}" for i in range(20)])

    def owner_sets_all():
        for name in NAMES:
            placement.locate_owner_set(name, 2)

    benchmark(owner_sets_all)


@pytest.mark.parametrize("n_servers", [5, 20, 80])
def test_set_shares_cost(benchmark, n_servers):
    """One full rescale of every mapped region (the delegate's write path)."""
    servers = [f"s{i}" for i in range(n_servers)]
    interval = MappedInterval(servers)
    weights_a = {s: 1.0 + (i % 7) for i, s in enumerate(servers)}
    weights_b = {s: 1.0 + ((i + 3) % 5) for i, s in enumerate(servers)}
    state = {"flip": False}

    def rescale():
        state["flip"] = not state["flip"]
        interval.set_shares(weights_a if state["flip"] else weights_b)

    benchmark(rescale)
    interval.check_invariants()


@pytest.mark.parametrize("n_servers", [20, 80])
def test_segments_query_cost(benchmark, n_servers):
    """Repeated mapped-region reads on a static interval (monitor path)."""
    servers = [f"s{i}" for i in range(n_servers)]
    interval = MappedInterval(
        servers, {s: 1.0 + (i % 7) for i, s in enumerate(servers)}
    )
    benchmark.extra_info["n_servers"] = n_servers

    def query_all():
        total = 0
        for s in servers:
            total += len(interval.segments(s))
        return total

    benchmark(query_all)


def test_add_remove_server_cost(benchmark):
    interval = MappedInterval([f"s{i}" for i in range(10)])

    def cycle():
        interval.add_server("extra")
        interval.remove_server("extra")

    benchmark(cycle)
    interval.check_invariants()


def test_lpt_assign_cost(benchmark):
    """The bin-packing comparator's cost at paper scale (500 x 5)."""
    demand = {f"fs{i}": float((i * 7919) % 100 + 1) for i in range(500)}
    speeds = {f"s{i}": float(2 * i + 1) for i in range(5)}
    benchmark(lpt_assign, demand, speeds)
