"""The placement-policy registry: one name, one configured policy.

Every policy name the runners accept lives in one table, with the one
configuration it stands for.  :func:`make_policy` builds a fresh instance
(policies are stateful, so sharing one across runs would leak tuning
state); :func:`granted_policy` also hands it the knowledge the paper's
ANU randomization does without, and is the only place that does so:

- ``prescient`` gets its oracle: the true server speeds and the per-file-set
  demand over the first ``horizon`` seconds, so it "begins in a
  load-balanced state at time 0" as the paper's comparator does;
- the ``-weighted`` variants get the server speeds as static capacity
  weights.  They model an administrator configuring weights by hand,
  which the paper's self-configuring claim argues against needing.

Both the figure runner (:mod:`repro.experiments.runner`) and the sweep
worker (:mod:`repro.sweep.worker`) resolve policy names here.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.tuning import (
    AGGRESSIVE,
    ALL_HEURISTICS,
    DIVERGENT_ONLY,
    THRESHOLD_ONLY,
    TOP_OFF_ONLY,
)
from .anu_policy import ANUPolicy, DecentralizedANUPolicy
from .base import PlacementPolicy
from .consistent_hash import ConsistentHashPolicy
from .prescient import PrescientPolicy
from .round_robin import RoundRobinPolicy
from .simple_random import SimpleRandomPolicy
from .two_choice import TwoChoicePolicy

if TYPE_CHECKING:
    from ..workloads.trace import Trace

__all__ = ["available_policies", "granted_policy", "make_policy"]

#: ``grant(policy, speeds, trace, horizon)``: hand a fresh policy its knowledge.
Grant = Callable[[Any, Mapping[str, float], "Trace", float], None]


def _grant_oracle(
    policy: PrescientPolicy,
    speeds: Mapping[str, float],
    trace: "Trace",
    horizon: float,
) -> None:
    policy.grant_oracle(speeds, trace.demand_by_fileset(0.0, horizon))


def _grant_choice_weights(
    policy: TwoChoicePolicy,
    speeds: Mapping[str, float],
    trace: "Trace",
    horizon: float,
) -> None:
    policy.grant_weights(speeds)


def _grant_ring_weights(
    policy: ConsistentHashPolicy,
    speeds: Mapping[str, float],
    trace: "Trace",
    horizon: float,
) -> None:
    policy.weights = dict(speeds)


#: Policy name -> (fresh-policy factory, knowledge grant or ``None``).
_POLICIES: dict[str, tuple[Callable[[], PlacementPolicy], Grant | None]] = {
    "simple-random": (SimpleRandomPolicy, None),
    "round-robin": (RoundRobinPolicy, None),
    "prescient": (PrescientPolicy, _grant_oracle),
    "consistent-hash": (ConsistentHashPolicy, None),
    "anu": (partial(ANUPolicy, ALL_HEURISTICS), None),
    "anu-aggressive": (partial(ANUPolicy, AGGRESSIVE), None),
    "anu-threshold-only": (partial(ANUPolicy, THRESHOLD_ONLY), None),
    "anu-top-off-only": (partial(ANUPolicy, TOP_OFF_ONLY), None),
    "anu-divergent-only": (partial(ANUPolicy, DIVERGENT_ONLY), None),
    "anu-decentralized": (DecentralizedANUPolicy, None),
    "two-choice": (TwoChoicePolicy, None),
    "two-choice-weighted": (TwoChoicePolicy, _grant_choice_weights),
    "consistent-hash-weighted": (ConsistentHashPolicy, _grant_ring_weights),
}


def available_policies() -> list[str]:
    """Every registered policy name, sorted."""
    return sorted(_POLICIES)


def _entry(name: str) -> tuple[Callable[[], PlacementPolicy], Grant | None]:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None


def make_policy(name: str) -> PlacementPolicy:
    """A fresh policy instance for ``name``, granted no knowledge."""
    factory, _ = _entry(name)
    return factory()


def granted_policy(
    name: str,
    speeds: Mapping[str, float],
    trace: "Trace",
    horizon: float,
) -> PlacementPolicy:
    """A fresh policy for ``name`` holding the knowledge its name grants.

    ``speeds`` are the server speeds the policy may know; ``trace`` and
    ``horizon`` give the prescient oracle its demand for ``[0, horizon)``.
    Policies that are granted nothing ignore all three.
    """
    factory, grant = _entry(name)
    policy = factory()
    if grant is not None:
        grant(policy, speeds, trace, horizon)
    return policy
