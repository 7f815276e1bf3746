"""Unit and property tests for ANUPlacement."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ANUPlacement, HashFamily, diff_assignment


def names(n: int, prefix: str = "fs") -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(n)]


def test_locate_is_deterministic():
    p = ANUPlacement(["a", "b", "c"])
    assert p.locate("fs1") == p.locate("fs1")


def test_all_filesets_get_a_live_server():
    p = ANUPlacement(["a", "b", "c", "d", "e"])
    assignment = p.assignment(names(1000))
    assert set(assignment.values()) <= {"a", "b", "c", "d", "e"}
    assert len(assignment) == 1000


def test_initial_assignment_roughly_uniform():
    p = ANUPlacement([f"s{i}" for i in range(5)])
    counts = collections.Counter(p.assignment(names(5000)).values())
    for c in counts.values():
        assert 800 < c < 1200  # 1000 +- 20%


def test_expected_probe_count_is_about_two():
    """Half occupancy => geometric with p=1/2 => mean ~2 probes."""
    p = ANUPlacement([f"s{i}" for i in range(5)])
    rounds = [p.locate_with_rounds(n)[1] for n in names(4000)]
    mean = sum(rounds) / len(rounds)
    assert 1.8 < mean < 2.2


def test_fallback_probability_matches_two_to_minus_k():
    family = HashFamily(max_rounds=3)  # fallback probability 1/8
    p = ANUPlacement([f"s{i}" for i in range(5)], hash_family=family)
    fallbacks = sum(
        1 for n in names(8000) if p.locate_with_rounds(n)[1] == 4
    )
    assert fallbacks / 8000 == pytest.approx(1 / 8, abs=0.02)


def test_share_scaling_shifts_assignment_mass():
    p = ANUPlacement(["a", "b"])
    p.set_shares({"a": 9.0, "b": 1.0})
    counts = collections.Counter(p.assignment(names(4000)).values())
    assert counts["a"] > 3200
    assert counts["b"] < 800


def test_zero_share_server_receives_only_fallbacks():
    family = HashFamily(max_rounds=8)
    p = ANUPlacement(["a", "b"], hash_family=family)
    p.set_shares({"a": 1.0, "b": 0.0})
    counts = collections.Counter(p.assignment(names(4000)).values())
    # b can only be hit by the 2^-8 direct-to-server fallback.
    assert counts.get("b", 0) < 4000 * (2**-8) * 5 + 5


def test_growth_only_captures_not_scrambles():
    """When only server 'a' grows, no file set moves between b and c."""
    p = ANUPlacement(["a", "b", "c"])
    ns = names(3000)
    before = p.assignment(ns)
    shares = p.shares()
    # Shrink a's region, others' ratio unchanged.
    p.set_shares({"a": shares["a"] * 0.4, "b": shares["b"], "c": shares["c"]})
    after = p.assignment(ns)
    for name in ns:
        if before[name] != after[name]:
            # Legal moves: off the shrunk server, or capture by a region
            # that grew (b or c); never b <-> c swaps of settled sets...
            # b and c both grew (renormalization), so moves land anywhere,
            # but moves *from* b or c must go to a grown server, and 'a'
            # only shrank: nothing may move TO 'a'.
            assert after[name] != "a"


def test_remove_server_moves_only_its_filesets_mostly():
    p = ANUPlacement([f"s{i}" for i in range(5)])
    ns = names(2000)
    before = p.assignment(ns)
    p.remove_server("s2")
    after = p.assignment(ns)
    moved_not_from_s2 = [
        n for n in ns if before[n] != after[n] and before[n] != "s2"
    ]
    # Survivors' regions grow, so some earlier-probe captures occur, but the
    # overwhelming majority of moves are the failed server's file sets.
    assert len(moved_not_from_s2) < 0.15 * len(ns)
    # Every s2 file set found a new home.
    assert all(after[n] != "s2" for n in ns)


def test_add_server_takes_roughly_fair_share():
    p = ANUPlacement([f"s{i}" for i in range(4)])
    ns = names(4000)
    p.add_server("s4")
    counts = collections.Counter(p.assignment(ns).values())
    assert counts["s4"] == pytest.approx(4000 / 5, rel=0.25)


def test_set_servers_removes_then_adds_in_sorted_order():
    reshaped = ANUPlacement(["a", "c", "d", "e"])
    manual = ANUPlacement(["a", "c", "d", "e"])
    reshaped.set_servers(["f", "b", "a", "e"])
    for name in ("c", "d"):
        manual.remove_server(name)
    for name in ("b", "f"):
        manual.add_server(name)
    assert reshaped.servers == manual.servers
    assert reshaped.shares() == manual.shares()
    assert reshaped.assignment(names(500)) == manual.assignment(names(500))


def test_minimal_movement_on_small_rescale():
    p = ANUPlacement([f"s{i}" for i in range(5)])
    ns = names(3000)
    before = p.assignment(ns)
    shares = {k: float(v) for k, v in p.shares().items()}
    shares["s0"] *= 0.9  # 10% trim of one server
    p.set_shares(shares)
    diff = diff_assignment(before, p.assignment(ns))
    # Far less than a full reshuffle: bounded by a small multiple of the
    # share change (2% of the interval) plus capture noise.
    assert diff.moved_fraction < 0.08


@given(
    n_servers=st.integers(min_value=1, max_value=8),
    n_files=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=30, deadline=None)
def test_assignment_total_and_liveness(n_servers, n_files):
    p = ANUPlacement([f"s{i}" for i in range(n_servers)])
    assignment = p.assignment(names(n_files))
    assert len(assignment) == n_files
    assert set(assignment.values()) <= set(p.servers)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_locate_stable_between_reconfigurations(data):
    """Between reconfigurations, locate() is a pure function."""
    p = ANUPlacement([f"s{i}" for i in range(4)])
    ns = names(100)
    shares = {
        s: data.draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        for s in p.servers
    }
    p.set_shares(shares)
    first = p.assignment(ns)
    second = p.assignment(ns)
    assert first == second
