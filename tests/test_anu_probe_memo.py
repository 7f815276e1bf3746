"""ANU hashes each file-set probe once, and memoized placement is exact.

A probe point is a pure function of ``(name, round)``; only the interval
changes between lookups.  These tests pin both halves of that claim:

- a work counter on the BLAKE2b primitive shows re-probing after share
  and membership changes costs interval walks, not rehashes;
- a property test replays random reconfigurations and compares every
  lookup against a reference built from uncached ``hash_to_unit`` and
  the per-point tick arithmetic, for owner sets of size 1..4.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hashing as hashing
from repro.core import ANUPlacement
from repro.core.hashing import hash_to_choice, hash_to_unit
from repro.core.interval import RESOLUTION, MappedInterval

NAMES = [f"/projects/fs{i:04d}" for i in range(200)]


def count_probe_hashes(monkeypatch, max_rounds: int) -> list[tuple[str, int]]:
    """Record every probe-round ``hash64`` call (fallback rounds excluded)."""
    probe_hashes: list[tuple[str, int]] = []
    real_hash64 = hashing.hash64

    def counting_hash64(name, round_, namespace="anu"):
        if round_ < max_rounds:
            probe_hashes.append((name, round_))
        return real_hash64(name, round_, namespace)

    monkeypatch.setattr(hashing, "hash64", counting_hash64)
    return probe_hashes


def test_reprobing_hashes_each_probe_at_most_once(monkeypatch):
    placement = ANUPlacement([f"s{i}" for i in range(5)])
    max_rounds = placement.hashes.max_rounds
    probe_hashes = count_probe_hashes(monkeypatch, max_rounds)

    def lookup_all():
        for name in NAMES:
            placement.locate(name)
            placement.locate_owner_set(name, 2)

    lookup_all()
    placement.set_shares({s: 1.0 + i for i, s in enumerate(placement.servers)})
    lookup_all()
    placement.remove_server("s2")
    lookup_all()
    placement.add_server("s9")
    lookup_all()
    assert len(probe_hashes) == len(set(probe_hashes))
    assert len(probe_hashes) <= len(NAMES) * max_rounds


def test_probe_memo_fills_only_the_rounds_walked(monkeypatch):
    placement = ANUPlacement([f"s{i}" for i in range(5)])
    max_rounds = placement.hashes.max_rounds
    probe_hashes = count_probe_hashes(monkeypatch, max_rounds)
    for name in NAMES:
        before = len(probe_hashes)
        _owner, rounds = placement.locate_with_rounds(name)
        assert len(probe_hashes) - before == min(rounds, max_rounds)


def test_locate_along_reports_points_consumed():
    interval = MappedInterval(["a", "b"])
    mapped = [
        (seg.start + seg.end) / 2 for s in ("a", "b") for seg in interval.segments(s)
    ]
    free = next(
        x / 64 for x in range(64) if interval.locate_point(x / 64) is None
    )
    a, b = interval.locate_point(mapped[0]), interval.locate_point(mapped[-1])
    assert interval.locate_along([free, mapped[0], mapped[0], mapped[-1]], 2) == (
        [a, b], 4
    )
    assert interval.locate_along([free, mapped[0], mapped[-1]], 1) == ([a], 2)
    assert interval.locate_along([free, free], 3) == ([], 2)
    # k == 0 consumes nothing, so even an out-of-range point is never read.
    assert interval.locate_along([2.0], 0) == ([], 0)


def reference_point(interval: MappedInterval, x: float) -> str | None:
    """Owner of ``x`` by the per-point tick arithmetic, no shared walk."""
    tick = int(x * RESOLUTION)
    psize = interval.partition_ticks
    idx = tick // psize
    owner = interval._owner[idx]
    if owner is None:
        return None
    return owner if tick - idx * psize < interval._prefix[idx] else None


def reference_owner_set(placement: ANUPlacement, name: str, r: int):
    """``locate_with_rounds`` and ``locate_owner_set`` from uncached hashes."""
    family = placement.hashes
    servers = sorted(placement.servers)
    owners: list[str] = []
    first_hit = None
    for round_ in range(family.max_rounds):
        owner = reference_point(
            placement.interval, hash_to_unit(name, round_, family.namespace)
        )
        if owner is None:
            continue
        if first_hit is None:
            first_hit = (owner, round_ + 1)
        if owner not in owners and len(owners) < r:
            owners.append(owner)
    fallback = servers[
        hash_to_choice(name, family.max_rounds, len(servers), family.namespace)
    ]
    if first_hit is None:
        first_hit = (fallback, family.max_rounds + 1)
    while len(owners) < r:
        remaining = [s for s in servers if s not in owners]
        if not remaining:
            break
        owners.append(
            remaining[hash_to_choice(
                name, family.max_rounds, len(remaining), family.namespace
            )]
        )
    return first_hit, tuple(owners)


OPS = st.one_of(
    st.tuples(
        st.just("shares"),
        st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=16, max_size=16),
    ),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("add"), st.floats(0.05, 0.6, allow_nan=False)),
)


@given(
    names=st.lists(st.text(max_size=12), min_size=1, max_size=25, unique=True),
    n_servers=st.integers(1, 6),
    ops=st.lists(OPS, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_memoized_placement_matches_uncached_reference(names, n_servers, ops):
    placement = ANUPlacement([f"s{i}" for i in range(n_servers)])
    added = 0

    def check():
        for name in names:
            first_hit, owners = reference_owner_set(placement, name, 4)
            assert placement.locate_with_rounds(name) == first_hit
            for r in range(1, 5):
                assert placement.locate_owner_set(name, r) == owners[:r]

    check()
    for op, arg in ops:
        servers = placement.servers
        if op == "shares":
            weights = dict(zip(servers, arg))
            if not any(weights.values()):
                continue
            placement.set_shares(weights)
        elif op == "remove":
            if len(servers) == 1:
                continue
            placement.remove_server(servers[arg % len(servers)])
        else:
            added += 1
            placement.add_server(f"n{added}", arg)
        check()
