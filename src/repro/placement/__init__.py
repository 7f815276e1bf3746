"""Placement policies: ANU randomization and the paper's baselines.

- :class:`~repro.placement.anu_policy.ANUPolicy` — the paper's algorithm;
- :class:`~repro.placement.anu_policy.DecentralizedANUPolicy` — §5 variant;
- :class:`~repro.placement.simple_random.SimpleRandomPolicy` — static random;
- :class:`~repro.placement.round_robin.RoundRobinPolicy` — static equal-count;
- :class:`~repro.placement.prescient.PrescientPolicy` — perfect-knowledge LPT;
- :class:`~repro.placement.consistent_hash.ConsistentHashPolicy` — related-work
  baseline;
- :class:`~repro.placement.replicated.ReplicatedPolicy` — r-way owner-set
  wrapper over any of the above (the assignment plane of the two-plane
  placement split; see :mod:`repro.runtime.routing` for the other plane).

Runners resolve policy *names* through :mod:`repro.placement.registry`,
the one name → configured-policy table.
"""

from .anu_policy import ANUPolicy, DecentralizedANUPolicy
from .base import (
    OwnerSet,
    PlacementPolicy,
    TuningContext,
    normalize_owner_set,
    normalize_owner_sets,
    validate_assignment,
    validate_owner_sets,
)
from .consistent_hash import ConsistentHashPolicy, ConsistentHashRing
from .prescient import PrescientPolicy, lpt_assign, predicted_makespan
from .replicated import ReplicatedPolicy, derive_owner_set, derive_owner_sets
from .round_robin import RoundRobinPolicy
from .simple_random import SimpleRandomPolicy
from .two_choice import TwoChoicePolicy

__all__ = [
    "OwnerSet",
    "PlacementPolicy",
    "TuningContext",
    "normalize_owner_set",
    "normalize_owner_sets",
    "validate_assignment",
    "validate_owner_sets",
    "ReplicatedPolicy",
    "derive_owner_set",
    "derive_owner_sets",
    "ANUPolicy",
    "DecentralizedANUPolicy",
    "SimpleRandomPolicy",
    "TwoChoicePolicy",
    "RoundRobinPolicy",
    "PrescientPolicy",
    "lpt_assign",
    "predicted_makespan",
    "ConsistentHashPolicy",
    "ConsistentHashRing",
]
