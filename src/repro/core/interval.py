"""The partitioned unit interval and server mapped regions.

This is the data structure at the heart of ANU randomization (§4 of the
paper).  The unit interval is divided into ``p`` equal *partitions*, where
``p`` is the smallest power of two with ``p >= 2*(n+1)`` for ``n`` servers.
Each server owns a *mapped region*: a set of whole partitions plus at most
one *prefix* of a partition (the "partial" partition).  A partition is owned
by at most one server.  The sum of all mapped-region lengths is exactly 1/2
— the paper's *half-occupancy invariant* — which guarantees both that every
probe hits a mapped region with probability 1/2 and that a wholly-free
partition always exists for a recovered or newly added server:

    occupied partitions <= (1/2)/psize + n = p/2 + n  <  p   (since p >= 2n+2)

Arithmetic is exact: the interval is ``2**RESOLUTION_BITS`` integer *ticks*,
and because ``p`` is a power of two the partition size in ticks is an exact
integer.  Shares are therefore integers that sum to exactly half the
resolution, and every invariant below is checked without tolerance.

Repartitioning (needed when servers are added) splits every partition in
half.  Splitting never moves an existing region boundary, reproducing the
paper's claim that "further partitioning the unit interval does not move any
existing load".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..contracts import checks_invariants, preserves
from ..sweep.api import register_process_cache
from ..units import Ticks

RESOLUTION_BITS = 48
#: Total ticks in the unit interval.
RESOLUTION = 1 << RESOLUTION_BITS
#: Ticks that must be mapped (the half-occupancy invariant).
HALF = RESOLUTION >> 1


class IntervalError(ValueError):
    """Raised on operations that would violate interval invariants."""


#: Live intervals whose memoized segment maps must be dropped at a
#: process boundary.  The segments() cache is keyed by a *per-process*
#: mutation counter; a forked child inheriting a parent's warm cache
#: alongside a reset-or-matching generation counter could serve stale
#: segment lists, so worker initializers wipe every live instance.
_LIVE_INTERVALS: "weakref.WeakSet[MappedInterval]" = weakref.WeakSet()


@register_process_cache
def clear_interval_caches() -> None:
    """Drop every live interval's memoized segment map (worker-start hook)."""
    for interval in list(_LIVE_INTERVALS):
        interval._segments_cache.clear()
        interval._segments_gen = -1


def min_partitions(n_servers: int) -> int:
    """Smallest power of two >= 2*(n+1): the paper's partition-count rule."""
    if n_servers < 1:
        raise IntervalError(f"need at least one server, got {n_servers}")
    need = 2 * (n_servers + 1)
    p = 1
    while p < need:
        p <<= 1
    return p


def fractions_to_ticks(
    shares: Mapping[str, float], total: int = HALF
) -> dict[str, Ticks]:
    """Round non-negative float shares to integer ticks summing exactly to ``total``.

    Uses largest-remainder rounding; shares are first normalized.  A share of
    exactly 0 stays 0 (idle servers under top-off tuning own nothing).
    """
    names = sorted(shares)
    vals = [float(shares[k]) for k in names]
    if any(v < 0 for v in vals):
        raise IntervalError(f"negative share in {shares!r}")
    s = sum(vals)
    if s <= 0:
        raise IntervalError("all shares are zero; at least one server must own load")
    quotas = [v / s * total for v in vals]
    floors = [int(q) for q in quotas]
    shortfall = total - sum(floors)
    # Give the leftover ticks to the largest fractional remainders, but never
    # to an exactly-zero share (ties broken by name for determinism).
    order = sorted(
        range(len(names)),
        key=lambda i: (-(quotas[i] - floors[i]), names[i]),
    )
    for i in order:
        if shortfall == 0:
            break
        if vals[i] > 0:
            floors[i] += 1
            shortfall -= 1
    if shortfall != 0:  # every positive share already got a tick; spill anyway
        for i in order:
            if shortfall == 0:
                break
            floors[i] += 1
            shortfall -= 1
    return dict(zip(names, floors))


@dataclass(frozen=True)
class Segment:
    """A half-open sub-interval [start, end) of the unit interval (floats)."""

    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


class MappedInterval:
    """Partitioned unit interval with per-server mapped regions.

    Parameters
    ----------
    servers:
        Initial server names.  Shares default to equal fractions of the
        mapped half.
    shares:
        Optional initial share fractions (relative weights; normalized).
    """

    def __init__(
        self,
        servers: Iterable[str],
        shares: Mapping[str, float] | None = None,
    ) -> None:
        names = list(servers)
        if len(set(names)) != len(names):
            raise IntervalError(f"duplicate server names in {names!r}")
        if not names:
            raise IntervalError("need at least one server")
        self._p = min_partitions(len(names))
        # Partition state: owner name (or None) and owned prefix in ticks.
        self._owner: list[str | None] = [None] * self._p
        self._prefix: list[int] = [0] * self._p
        # Per-server state.
        self._full: dict[str, set[int]] = {name: set() for name in names}
        self._partial: dict[str, tuple[int, int] | None] = {name: None for name in names}
        self._shares: dict[str, int] = {name: 0 for name in names}
        # Mutation epoch for the segments() cache: every operation that can
        # move a region boundary bumps it, so cached segment lists are
        # reused only while the mapping is provably unchanged.  Invariant
        # checks (the @preserves capture on repartition, monitoring reads)
        # therefore stop rebuilding the full segment map on every call.
        self._generation = 0
        self._segments_cache: dict[str, list[Segment]] = {}
        self._segments_gen = -1
        _LIVE_INTERVALS.add(self)
        if shares is None:
            shares = {name: 1.0 for name in names}
        self.set_shares(shares)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> int:
        """Current number of partitions ``p``."""
        return self._p

    @property
    def partition_ticks(self) -> Ticks:
        """Exact partition size in ticks."""
        return Ticks(RESOLUTION // self._p)

    @property
    def servers(self) -> list[str]:
        """Registered server names, sorted."""
        return sorted(self._shares)

    @property
    def n_servers(self) -> int:
        return len(self._shares)

    def share_ticks(self, name: str) -> Ticks:
        """Mapped-region size of ``name`` in ticks."""
        return Ticks(self._shares[name])

    def share_fraction(self, name: str) -> float:
        """Mapped-region size of ``name`` as a fraction of the unit interval."""
        return self._shares[name] / RESOLUTION

    def shares(self) -> dict[str, Ticks]:
        """All share sizes in ticks (copy)."""
        return dict(self._shares)

    def free_partitions(self) -> list[int]:
        """Indices of wholly-free partitions."""
        return [i for i in range(self._p) if self._owner[i] is None]

    def segments(self, name: str) -> list[Segment]:
        """The mapped region of ``name`` as merged float segments.

        Cached per mutation generation: repeated reads between mutations
        (invariant captures, monitors, figure rendering) reuse the built
        list instead of re-merging the partition map.  The returned list
        is a fresh copy; callers may do with it as they please.
        """
        if self._segments_gen != self._generation:
            self._segments_cache.clear()
            self._segments_gen = self._generation
        cached = self._segments_cache.get(name)
        if cached is None:
            cached = self._build_segments(name)
            self._segments_cache[name] = cached
        return list(cached)

    def _build_segments(self, name: str) -> list[Segment]:
        """Merge ``name``'s partitions into float segments (uncached)."""
        psize = self.partition_ticks
        raw: list[tuple[int, int]] = []
        for idx in self._full[name]:
            raw.append((idx * psize, (idx + 1) * psize))
        partial = self._partial[name]
        if partial is not None:
            idx, ticks = partial
            raw.append((idx * psize, idx * psize + ticks))
        raw.sort()
        merged: list[list[int]] = []
        for start, end in raw:
            if merged and merged[-1][1] == start:
                merged[-1][1] = end
            else:
                merged.append([start, end])
        return [Segment(s / RESOLUTION, e / RESOLUTION) for s, e in merged]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def locate_point(self, x: float) -> str | None:
        """The server whose mapped region contains point ``x``, else None.

        The domain is the half-open ``[0, 1)``; ``x == 1.0`` is rejected.
        Hash-derived probe points satisfy this by construction —
        :func:`repro.core.hashing.hash_to_unit` clamps its quotient below
        1.0 (see its docstring for why the raw division can round up) —
        and for any ``x <= 1 - 2**-53`` the tick product ``x * RESOLUTION``
        is exact (both factors are powers-of-two scalings of <=53-bit
        integers), so the computed tick always stays below ``RESOLUTION``.
        """
        owners, _used = self.locate_along((x,), 1)
        return owners[0] if owners else None

    def locate_distinct(self, points: Iterable[float], k: int) -> list[str]:
        """Up to ``k`` *distinct* owners along a probe-point sequence.

        The replicated-ownership view: walking a hash family's probe
        sequence through this method yields the first ``k`` different
        servers the probes land on, in probe order — slot 0 is exactly
        what :meth:`locate_point` returns for the first mapped probe, so
        the primary owner of an owner set built this way coincides with
        the classic single-owner placement.  Unmapped probes and repeat
        hits are skipped; fewer than ``k`` owners come back when the
        sequence runs out first.
        """
        owners, _used = self.locate_along(points, k)
        return owners

    def locate_along(
        self, points: Iterable[float], k: int
    ) -> tuple[list[str], int]:
        """The first ``k`` distinct owners along ``points``, and the points used.

        The one probe walk behind :meth:`locate_point` and
        :meth:`locate_distinct`: each point is checked against ``[0, 1)``
        and resolved to its partition's owner when its tick falls inside
        the owned prefix.  The walk stops at the ``k``-th owner, so the
        count of consumed points is the round of that last hit plus one
        (or the whole sequence when fewer than ``k`` owners were found).
        """
        if k < 0:
            raise IntervalError(f"need a non-negative owner count, got {k!r}")
        owners: list[str] = []
        used = 0
        if k == 0:
            return owners, used
        psize = RESOLUTION // self._p
        owner_of = self._owner
        prefix = self._prefix
        for x in points:
            used += 1
            if not 0.0 <= x < 1.0:
                raise IntervalError(f"point {x!r} outside [0, 1)")
            tick = int(x * RESOLUTION)
            idx = tick // psize
            owner = owner_of[idx]
            if (
                owner is not None
                and tick - idx * psize < prefix[idx]
                and owner not in owners
            ):
                owners.append(owner)
                if len(owners) == k:
                    break
        return owners, used

    # ------------------------------------------------------------------
    # Share updates (minimal movement)
    # ------------------------------------------------------------------
    @checks_invariants
    def set_shares(self, shares: Mapping[str, float]) -> None:
        """Rescale mapped regions to the given relative shares.

        The update is *minimal-movement*: a server's existing partitions are
        kept wherever possible; shrinking trims its partial prefix first,
        then releases whole partitions; growing extends the partial prefix,
        then claims free partitions.  All shrinks happen before all grows so
        free space always suffices.
        """
        if set(shares) != set(self._shares):
            raise IntervalError(
                f"shares for {sorted(shares)} do not match servers {self.servers}"
            )
        targets = fractions_to_ticks(shares, HALF)
        # Phase 1: shrink.
        for name in sorted(targets):
            delta = self._shares[name] - targets[name]
            if delta > 0:
                self._shrink(name, delta)
        # Phase 2: grow.
        for name in sorted(targets):
            delta = targets[name] - self._shares[name]
            if delta > 0:
                self._grow(name, delta)

    def _mutated(self) -> None:
        """Invalidate cached derived state (the segments cache)."""
        self._generation += 1

    def _release_partition(self, name: str, idx: int) -> None:
        self._mutated()
        self._owner[idx] = None
        self._prefix[idx] = 0
        self._full[name].discard(idx)

    def _shrink(self, name: str, delta: int) -> None:
        self._mutated()
        psize = self.partition_ticks
        partial = self._partial[name]
        if partial is not None:
            idx, ticks = partial
            if ticks > delta:
                self._partial[name] = (idx, ticks - delta)
                self._prefix[idx] = ticks - delta
                self._shares[name] -= delta
                return
            # Release the whole partial.
            delta -= ticks
            self._shares[name] -= ticks
            self._partial[name] = None
            self._release_partition(name, idx)
        # Release whole full partitions (highest index first: keeps low,
        # long-lived partitions stable, which preserves more placements).
        for idx in sorted(self._full[name], reverse=True):
            if delta < psize:
                break
            self._release_partition(name, idx)
            self._shares[name] -= psize
            delta -= psize
        if delta > 0:
            # Convert one full partition into a partial with the remainder.
            if not self._full[name]:
                raise IntervalError(
                    f"internal: cannot shrink {name!r} by {delta} ticks further"
                )
            idx = max(self._full[name])
            self._full[name].remove(idx)
            ticks = psize - delta
            self._partial[name] = (idx, ticks)
            self._prefix[idx] = ticks
            self._shares[name] -= delta

    def _grow(self, name: str, delta: int) -> None:
        self._mutated()
        psize = self.partition_ticks
        partial = self._partial[name]
        if partial is not None:
            idx, ticks = partial
            room = psize - ticks
            take = min(room, delta)
            ticks += take
            delta -= take
            self._shares[name] += take
            if ticks == psize:
                self._partial[name] = None
                self._full[name].add(idx)
            else:
                self._partial[name] = (idx, ticks)
            self._prefix[idx] = ticks
        if delta == 0:
            return
        free = sorted(i for i in range(self._p) if self._owner[i] is None)
        for idx in free:
            if delta == 0:
                break
            take = min(psize, delta)
            self._owner[idx] = name
            self._prefix[idx] = take
            self._shares[name] += take
            delta -= take
            if take == psize:
                self._full[name].add(idx)
            else:
                self._partial[name] = (idx, take)
        if delta > 0:
            raise IntervalError(
                f"internal: no free space left growing {name!r} ({delta} ticks short)"
            )

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    @checks_invariants
    def add_server(self, name: str, share_fraction: float | None = None) -> None:
        """Add (commission or recover) a server.

        The newcomer receives ``share_fraction`` of the mapped half
        (default: an equal ``1/n_new`` portion); all other servers are
        scaled back proportionally, as the paper prescribes.  The interval
        is repartitioned first if ``p < 2*(n_new+1)``.
        """
        if name in self._shares:
            raise IntervalError(f"server {name!r} already present")
        n_new = self.n_servers + 1
        if share_fraction is None:
            share_fraction = 1.0 / n_new
        if not 0.0 < share_fraction < 1.0:
            raise IntervalError(f"share_fraction {share_fraction!r} outside (0, 1)")
        # All argument checks passed: only now may the interval change.
        # Repartitioning before validating would leave p doubled (state
        # torn) when a bad share_fraction raises (RPL106).
        self._mutated()
        while self._p < 2 * (n_new + 1):
            self.repartition()
        old = {s: self._shares[s] for s in self._shares}
        self._full[name] = set()
        self._partial[name] = None
        self._shares[name] = 0
        scale = 1.0 - share_fraction
        new_shares = {s: v * scale for s, v in old.items()}
        new_shares[name] = share_fraction * HALF
        self.set_shares(new_shares)

    @checks_invariants
    def remove_server(self, name: str) -> None:
        """Remove (fail or decommission) a server.

        Its region is freed and all survivors are scaled up proportionally
        to restore the half-occupancy invariant.
        """
        if name not in self._shares:
            raise IntervalError(f"unknown server {name!r}")
        if self.n_servers == 1:
            raise IntervalError("cannot remove the last server")
        self._mutated()
        for idx in list(self._full[name]):
            self._release_partition(name, idx)
        partial = self._partial[name]
        if partial is not None:
            self._release_partition(name, partial[0])
        del self._full[name]
        del self._partial[name]
        del self._shares[name]
        survivors = {s: max(v, 1) for s, v in self._shares.items()}
        self.set_shares(survivors)

    @checks_invariants
    @preserves(
        lambda self: {s: self.segments(s) for s in self.servers},
        message="repartition moved a mapped-region boundary",
    )
    def repartition(self) -> None:
        """Split every partition in half (p doubles); moves no boundary."""
        self._mutated()
        old_p = self._p
        psize_new = RESOLUTION // (old_p * 2)
        owner_new: list[str | None] = [None] * (old_p * 2)
        prefix_new: list[int] = [0] * (old_p * 2)
        full_new: dict[str, set[int]] = {s: set() for s in self._shares}
        partial_new: dict[str, tuple[int, int] | None] = {s: None for s in self._shares}
        for idx in range(old_p):
            owner = self._owner[idx]
            if owner is None:
                continue
            ticks = self._prefix[idx]
            lo, hi = 2 * idx, 2 * idx + 1
            if ticks >= psize_new:
                owner_new[lo] = owner
                prefix_new[lo] = psize_new
                full_new[owner].add(lo)
                rest = ticks - psize_new
                if rest > 0:
                    owner_new[hi] = owner
                    prefix_new[hi] = rest
                    if rest == psize_new:
                        full_new[owner].add(hi)
                    else:
                        partial_new[owner] = (hi, rest)
            else:
                owner_new[lo] = owner
                prefix_new[lo] = ticks
                partial_new[owner] = (lo, ticks)
        self._p = old_p * 2
        self._owner = owner_new
        self._prefix = prefix_new
        self._full = full_new
        self._partial = partial_new

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert every structural invariant; raises IntervalError on breach."""
        psize = self.partition_ticks
        if psize * self._p != RESOLUTION:
            raise IntervalError("partition size does not divide the interval")
        if self._p < 2 * (self.n_servers + 1):
            raise IntervalError(
                f"p={self._p} < 2*(n+1)={2 * (self.n_servers + 1)}"
            )
        # Per-partition consistency.
        seen_shares = {s: 0 for s in self._shares}
        for idx in range(self._p):
            owner = self._owner[idx]
            ticks = self._prefix[idx]
            if owner is None:
                if ticks != 0:
                    raise IntervalError(f"free partition {idx} has prefix {ticks}")
                continue
            if not 0 < ticks <= psize:
                raise IntervalError(f"partition {idx} prefix {ticks} out of range")
            seen_shares[owner] += ticks
            if ticks == psize:
                if idx not in self._full[owner]:
                    raise IntervalError(f"full partition {idx} missing from {owner!r}")
            else:
                if self._partial[owner] != (idx, ticks):
                    raise IntervalError(
                        f"partial partition {idx} not recorded for {owner!r}"
                    )
        # Per-server consistency.
        partial_count: dict[str, int] = {}
        for name in self._shares:
            if seen_shares[name] != self._shares[name]:
                raise IntervalError(
                    f"{name!r}: share {self._shares[name]} != observed {seen_shares[name]}"
                )
            partial = self._partial[name]
            partial_count[name] = 0 if partial is None else 1
            if partial is not None and partial[0] in self._full[name]:
                raise IntervalError(f"{name!r}: partition both full and partial")
        if any(c > 1 for c in partial_count.values()):
            raise IntervalError("server with more than one partial partition")
        # Half occupancy, exactly.
        total = sum(self._shares.values())
        if total != HALF:
            raise IntervalError(f"total mapped ticks {total} != HALF {HALF}")
        # A wholly-free partition must always exist.
        if not any(o is None for o in self._owner):
            raise IntervalError("no wholly-free partition available")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{s}={self.share_fraction(s):.4f}" for s in self.servers
        )
        return f"MappedInterval(p={self._p}, {parts})"
