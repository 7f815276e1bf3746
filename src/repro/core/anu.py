"""ANU (adaptive, non-uniform) randomized placement.

:class:`ANUPlacement` combines the partitioned unit interval
(:class:`repro.core.interval.MappedInterval`) with the probe-sequence hash
family (:class:`repro.core.hashing.HashFamily`) into the placement function
the paper describes in §4:

1. hash the file-set name to a point in the unit interval;
2. if the point is unmapped, re-hash with the next family member;
3. after ``max_rounds`` misses (probability ``2**-max_rounds`` under the
   half-occupancy invariant) hash directly to a server.

Placement is a **pure function** of the current interval state: any node can
locate any file set by hashing alone, with no per-file-set directory state —
the scalability property of §5 ("shared state scales with the number of
servers, rather than the number of file sets").  Consequently, when mapped
regions are rescaled, the new assignment of every file set is recomputed by
re-probing; the minimal-movement property is inherited from the interval's
minimal-movement region updates and is verified empirically by the movement
benchmarks.  The hash family memoizes each name's probe points, but that
memo is only a local cache of the agreed family — every node computes the
same points — so it adds no shared state: what changes on a rescale is the
interval alone, and re-probing after one costs an interval walk, not a
rehash.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..contracts import checks_invariants
from .hashing import HashFamily
from .interval import MappedInterval


class ANUPlacement:
    """Placement and lookup of file sets onto servers via ANU randomization."""

    def __init__(
        self,
        servers: Iterable[str],
        hash_family: HashFamily | None = None,
        shares: Mapping[str, float] | None = None,
    ) -> None:
        self.interval = MappedInterval(servers, shares)
        self.hashes = hash_family or HashFamily()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def locate(self, name: str) -> str:
        """The server currently responsible for file set ``name``."""
        server, _rounds = self.locate_with_rounds(name)
        return server

    def locate_with_rounds(self, name: str) -> tuple[str, int]:
        """Locate ``name`` and report how many hash probes were used.

        A fallback (direct-to-server) assignment reports
        ``max_rounds + 1`` probes.
        """
        owners, used = self.interval.locate_along(
            self.hashes.probe_sequence(name), 1
        )
        if owners:
            return owners[0], used
        server = self.hashes.fallback_choice(name, self.interval.servers)
        return server, self.hashes.max_rounds + 1

    def assignment(self, names: Iterable[str]) -> dict[str, str]:
        """Assignment of every name in ``names`` under the current state."""
        return {name: self.locate(name) for name in names}

    def locate_owner_set(self, name: str, r: int) -> tuple[str, ...]:
        """The first ``r`` distinct servers along ``name``'s probe path.

        The probe-native replicated-ownership view: slot 0 is exactly
        :meth:`locate` (the first mapped probe, or the direct-to-server
        fallback when every probe misses), and later slots are the next
        *different* servers the probe sequence hits.  When the bounded
        probe walk yields fewer than ``r`` distinct owners, the rest are
        filled by the deterministic fallback choice over the not-yet-
        chosen servers — so ``r`` owners always come back while the fleet
        has that many.
        """
        if r < 1:
            raise ValueError(f"need at least one owner, got r={r!r}")
        owners = self.interval.locate_distinct(self.hashes.probe_sequence(name), r)
        chosen = set(owners)
        while len(owners) < r:
            remaining = [s for s in self.interval.servers if s not in chosen]
            if not remaining:
                break
            pick = self.hashes.fallback_choice(name, remaining)
            chosen.add(pick)
            owners.append(pick)
        return tuple(owners)

    # ------------------------------------------------------------------
    # Reconfiguration (delegates to the interval)
    # ------------------------------------------------------------------
    @property
    def servers(self) -> list[str]:
        return self.interval.servers

    def shares(self) -> dict[str, int]:
        """Current mapped-region sizes in interval ticks."""
        return self.interval.shares()

    @checks_invariants
    def set_shares(self, shares: Mapping[str, float]) -> None:
        """Rescale mapped regions (minimal movement); see the interval docs."""
        self.interval.set_shares(shares)

    @checks_invariants
    def add_server(self, name: str, share_fraction: float | None = None) -> None:
        """Commission or recover a server."""
        self.interval.add_server(name, share_fraction)

    @checks_invariants
    def remove_server(self, name: str) -> None:
        """Fail or decommission a server."""
        self.interval.remove_server(name)

    def set_servers(self, servers: Iterable[str]) -> None:
        """Reshape the server set to exactly ``servers``.

        Departed servers are removed, then new ones added, each in sorted
        order, so the result depends only on the old and new sets.
        """
        current = set(self.servers)
        target = set(servers)
        for name in sorted(current - target):
            self.remove_server(name)
        for name in sorted(target - current):
            self.add_server(name)

    def check_invariants(self) -> None:
        """Assert the interval's structural invariants."""
        self.interval.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ANUPlacement({self.interval!r})"
