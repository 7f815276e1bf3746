"""Deterministic keyed hash family for file-set placement.

ANU randomization needs "an agreed upon family of hash functions" (§4): the
probe sequence ``h_0(name), h_1(name), ...`` maps a file-set name to points
in the unit interval; file sets whose probe lands in unmapped space are
re-hashed with the next family member; after ``max_rounds`` probes the name
is hashed *directly to a server* instead, bounding the probe count (the miss
probability per round is exactly the unmapped fraction, 1/2 under the
half-occupancy invariant, so the fallback triggers with probability
``2**-max_rounds``).

The family must be:

- deterministic across processes and Python versions (so every server in a
  cluster computes the same placement) — we therefore use BLAKE2b with a
  per-round salt rather than Python's randomized ``hash()``;
- well-mixed — each round is an independent-looking uniform draw on [0, 1).

A probe point is a pure function of ``(name, round)``, so
:class:`HashFamily` hashes each one once: it keeps a private per-name list
of the points computed so far and extends it lazily, only as far as a
lookup actually walks.  The memo holds at most ``max_rounds`` floats per
name the family has located; it is a cache of the agreed family, not
state any other node needs.
"""

from __future__ import annotations

import hashlib
import math
from itertools import islice
from typing import Iterator, Sequence

_TWO_64 = float(2**64)

#: Largest double below 1.0 — the clamp ceiling for unit-interval points.
_MAX_UNIT = math.nextafter(1.0, 0.0)


def hash64(name: str, round_: int, namespace: str = "anu") -> int:
    """A 64-bit keyed hash of ``name`` for probe round ``round_``."""
    if round_ < 0:
        raise ValueError(f"round must be >= 0, got {round_!r}")
    key = f"{namespace}|{round_}".encode("utf-8")[:16]
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def hash_to_unit(name: str, round_: int, namespace: str = "anu") -> float:
    """Map ``name`` to a point in [0, 1) for probe round ``round_``.

    The raw ``hash64 / 2**64`` quotient is *not* guaranteed to stay below
    1.0: doubles have 53 significant bits, so every digest in the top
    ``2**10`` values of the 64-bit range (within half an ULP of ``2**64``)
    rounds up and divides to exactly 1.0 — roughly one name per ``2**54``
    probes.  :meth:`repro.core.interval.MappedInterval.locate_point`
    requires points in the half-open ``[0, 1)``, so the quotient is
    clamped to the largest double below 1.0.  The clamp only moves those
    astronomically rare top-of-range digests (by one ULP), leaving every
    other probe value bit-identical.
    """
    point = hash64(name, round_, namespace) / _TWO_64
    return point if point < 1.0 else _MAX_UNIT


def hash_to_choice(name: str, round_: int, n: int, namespace: str = "anu") -> int:
    """Map ``name`` to an index in [0, n) (the direct-to-server fallback)."""
    if n <= 0:
        raise ValueError(f"need at least one choice, got n={n!r}")
    return hash64(name, round_, namespace) % n


def hash_to_distinct_choices(
    name: str, k: int, n: int, namespace: str = "anu", start_round: int = 0
) -> tuple[int, ...]:
    """``k`` *distinct* indices in [0, n), deterministically from ``name``.

    Successive ``hash_to_choice(name, round, n)`` draws are independent
    uniform picks, so two rounds can collide on the same index — a d=2
    candidate pair silently collapses to d=1 with probability 1/n.  This
    samples *without replacement*: each round's hash indexes the still-
    unchosen positions, so the draw is always fresh and exactly
    ``min(k, n)`` indices come back (in draw order, first draw first).
    """
    if n <= 0:
        raise ValueError(f"need at least one choice, got n={n!r}")
    if k < 0:
        raise ValueError(f"need a non-negative draw count, got k={k!r}")
    remaining = list(range(n))
    chosen: list[int] = []
    for round_ in range(start_round, start_round + min(k, n)):
        idx = hash64(name, round_, namespace) % len(remaining)
        chosen.append(remaining.pop(idx))
    return tuple(chosen)


class HashFamily:
    """A bounded probe sequence over the unit interval with server fallback.

    ``probes(name)`` yields the first ``max_rounds`` unit-interval points of
    the family for ``name``; :meth:`fallback_choice` deterministically picks
    among the live servers when every probe missed.

    Probe points are memoized per name, filled lazily: a lookup that stops
    at round ``j`` hashes rounds ``0..j`` at most once over the family's
    lifetime, and the memo never holds more than ``max_rounds`` floats per
    name located.
    """

    def __init__(self, max_rounds: int = 8, namespace: str = "anu") -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds!r}")
        self.max_rounds = max_rounds
        self.namespace = namespace
        #: name -> probe points of rounds 0..len-1, extended on demand.
        self._points: dict[str, list[float]] = {}

    def probe_sequence(self, name: str) -> Iterator[float]:
        """The probe points for ``name`` in round order, hashed on first use.

        Rounds the consumer never reaches are never hashed, so a walk that
        stops at its first mapped probe leaves the memo that short.
        """
        points = self._points.get(name)
        if points is None:
            points = self._points[name] = []
        for round_ in range(self.max_rounds):
            if round_ == len(points):
                points.append(hash_to_unit(name, round_, self.namespace))
            yield points[round_]

    def probe(self, name: str, round_: int) -> float:
        """The ``round_``-th probe point for ``name``."""
        if round_ >= self.max_rounds:
            raise ValueError(
                f"round {round_} >= max_rounds {self.max_rounds}; use fallback_choice"
            )
        if round_ < 0:
            raise ValueError(f"round must be >= 0, got {round_!r}")
        return next(islice(self.probe_sequence(name), round_, None))

    def probes(self, name: str) -> list[float]:
        """All probe points for ``name``, in order (a fresh list)."""
        return list(self.probe_sequence(name))

    def fallback_choice(self, name: str, candidates: Sequence[str]) -> str:
        """Deterministic direct-to-server choice among ``candidates``.

        Candidates are sorted first so the choice does not depend on the
        caller's ordering (every cluster node must agree).
        """
        ordered = sorted(candidates)
        if not ordered:
            raise ValueError("no candidate servers for fallback")
        idx = hash_to_choice(name, self.max_rounds, len(ordered), self.namespace)
        return ordered[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(max_rounds={self.max_rounds}, namespace={self.namespace!r})"
