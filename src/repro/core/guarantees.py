"""Privacy guarantee objects and the paper's conversion lemmas.

Guarantees are small immutable value objects that mechanisms expose via a
``guarantee`` property and that the accountant composes:

* :class:`DPGuarantee` — epsilon-differential privacy (Definition 2.2);
* :class:`OSDPGuarantee` — (P, epsilon)-one-sided DP (Definition 3.3);
* :class:`EOSDPGuarantee` — extended OSDP (Definition 10.2);
* :class:`PDPGuarantee` — personalized DP (Section 3.4 comparison).

The module-level functions implement the statements proved in the paper:

========================  =======================================
``dp_to_osdp``            Lemma 3.1 (DP implies OSDP for any P)
``osdp_all_sensitive_to_dp``  Lemma 3.2 (P_all-OSDP implies DP)
``relax_guarantee``       Theorem 3.2 (privacy relaxation)
``sequential_composition``  Theorem 3.3 (composition over P_mr)
``eosdp_to_osdp``         Theorem 10.1 (eOSDP implies 2*eps OSDP)
``parallel_composition``  Theorem 10.2 (eOSDP parallel composition)
========================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.policy import Policy, minimum_relaxation


def _validate_epsilon(epsilon: float) -> None:
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


@dataclass(frozen=True)
class DPGuarantee:
    """epsilon-differential privacy under the bounded model."""

    epsilon: float

    def __post_init__(self) -> None:
        _validate_epsilon(self.epsilon)

    def __str__(self) -> str:
        return f"{self.epsilon}-DP"


@dataclass(frozen=True)
class OSDPGuarantee:
    """(P, epsilon)-one-sided differential privacy (Definition 3.3)."""

    policy: Policy
    epsilon: float

    def __post_init__(self) -> None:
        _validate_epsilon(self.epsilon)

    def __str__(self) -> str:
        return f"({self.policy.name}, {self.epsilon})-OSDP"


@dataclass(frozen=True)
class EOSDPGuarantee:
    """(P, epsilon)-extended one-sided DP (Definition 10.2)."""

    policy: Policy
    epsilon: float

    def __post_init__(self) -> None:
        _validate_epsilon(self.epsilon)

    def __str__(self) -> str:
        return f"({self.policy.name}, {self.epsilon})-eOSDP"


@dataclass(frozen=True)
class PDPGuarantee:
    """Personalized differential privacy (Jorgensen et al.), Section 3.4.

    ``epsilon_of`` maps each record to its personal privacy parameter;
    ``float('inf')`` models non-sensitive records.  PDP guarantees do
    *not* imply freedom from exclusion attacks — that is the paper's key
    criticism (Theorem 3.4) — so this class intentionally provides no
    conversion to :class:`OSDPGuarantee`.
    """

    epsilon_of: Callable[[object], float] = field(repr=False)
    description: str = "PDP"

    def __str__(self) -> str:
        return self.description


def dp_to_osdp(guarantee: DPGuarantee, policy: Policy) -> OSDPGuarantee:
    """Lemma 3.1: an epsilon-DP mechanism is (P, epsilon)-OSDP for any P."""
    return OSDPGuarantee(policy=policy, epsilon=guarantee.epsilon)


def osdp_all_sensitive_to_dp(guarantee: OSDPGuarantee) -> DPGuarantee:
    """Lemma 3.2: (P_all, epsilon)-OSDP implies epsilon-DP.

    Only valid when the guarantee's policy is all-sensitive: its IR is
    ``True`` — ``P_all`` itself, or a composition of ``P_all`` with
    itself, which the IR normalises to ``True`` (opaque policies are
    black boxes and never qualify).
    """
    if guarantee.policy.ir is not True:
        raise ValueError(
            "Lemma 3.2 applies only to guarantees under the all-sensitive policy"
        )
    return DPGuarantee(epsilon=guarantee.epsilon)


def relax_guarantee(guarantee: OSDPGuarantee, weaker_policy: Policy) -> OSDPGuarantee:
    """Theorem 3.2: a (P2, eps)-OSDP mechanism is (P1, eps)-OSDP for P1 <=_p P2.

    The caller is responsible for ``weaker_policy`` actually being a
    relaxation (policies are semantic objects; use
    :func:`repro.core.policy.is_relaxation_of` to check over a universe).
    """
    return OSDPGuarantee(policy=weaker_policy, epsilon=guarantee.epsilon)


def sequential_composition(guarantees: Sequence[OSDPGuarantee]) -> OSDPGuarantee:
    """Theorem 3.3: compose (P_i, eps_i)-OSDP into (P_mr, sum eps_i)-OSDP."""
    if not guarantees:
        raise ValueError("cannot compose an empty sequence of guarantees")
    policy = minimum_relaxation(*[g.policy for g in guarantees])
    return OSDPGuarantee(policy=policy, epsilon=sum(g.epsilon for g in guarantees))


def eosdp_to_osdp(guarantee: EOSDPGuarantee) -> OSDPGuarantee:
    """Theorem 10.1: (P, eps)-eOSDP implies (P, 2*eps)-OSDP."""
    return OSDPGuarantee(policy=guarantee.policy, epsilon=2.0 * guarantee.epsilon)


def parallel_composition(guarantees: Sequence[EOSDPGuarantee]) -> EOSDPGuarantee:
    """Theorem 10.2: eOSDP mechanisms on disjoint partitions compose to max eps.

    Valid only when each mechanism consumes a distinct cell of a
    partition of the database; the accountant enforces the bookkeeping,
    this function just performs the arithmetic.
    """
    if not guarantees:
        raise ValueError("cannot compose an empty sequence of guarantees")
    policy = minimum_relaxation(*[g.policy for g in guarantees])
    return EOSDPGuarantee(
        policy=policy, epsilon=max(g.epsilon for g in guarantees)
    )
