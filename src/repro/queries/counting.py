"""Scalar counting queries under OSDP.

The histogram machinery of Section 5 specializes to single counts:
``COUNT(*) WHERE <predicate>``.  Over non-sensitive records a one-sided
neighbor can only increase the count (by at most 1), so one-sided noise
suffices — the scalar core of Theorem 5.2.  Both continuous
(``Lap^-``) and integer (one-sided geometric) noise are provided, plus
the DP Laplace baseline at the bounded-model sensitivity of 1.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.accountant import PrivacyAccountant
from repro.core.guarantees import DPGuarantee, OSDPGuarantee
from repro.core.policy import Policy
from repro.distributions.geometric import OneSidedGeometric
from repro.mechanisms.batch_sampling import laplace_rows, one_sided_rows

SINGLE_COUNT_SENSITIVITY = 1.0

Predicate = Callable[[object], bool]


def _true_count(records: Iterable[object], predicate: Predicate | None) -> int:
    if predicate is None:
        return sum(1 for _ in records)
    return sum(1 for r in records if predicate(r))


class OsdpCount:
    """One-sided noisy count over the non-sensitive records.

    ``integer=True`` switches to one-sided geometric noise so the
    release stays an integer (useful when counts feed discrete
    downstream logic).  Outputs are clipped at zero, which preserves the
    exact-zero property: an empty predicate count is released as 0.
    """

    def __init__(
        self,
        policy: Policy,
        epsilon: float,
        predicate: Predicate | None = None,
        integer: bool = False,
        clip: bool = True,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.policy = policy
        self.epsilon = epsilon
        self.predicate = predicate
        self.integer = integer
        self.clip = clip

    @property
    def guarantee(self) -> OSDPGuarantee:
        return OSDPGuarantee(policy=self.policy, epsilon=self.epsilon)

    def release(
        self,
        records: Iterable[object],
        rng: np.random.Generator,
        accountant: PrivacyAccountant | None = None,
    ) -> float:
        if accountant is not None:
            accountant.charge(self.policy, self.epsilon, label="OsdpCount")
        non_sensitive = self.policy.non_sensitive_subset(records)
        count = float(_true_count(non_sensitive, self.predicate))
        if self.integer:
            noisy = count + float(
                OneSidedGeometric.from_epsilon(
                    self.epsilon, SINGLE_COUNT_SENSITIVITY
                ).sample(rng)
            )
        else:
            noisy = float(
                one_sided_rows(
                    rng, SINGLE_COUNT_SENSITIVITY / self.epsilon, [count], 1
                )[0, 0]
            )
        return max(noisy, 0.0) if self.clip else noisy


class DpCount:
    """The epsilon-DP Laplace count baseline (sensitivity 1, bounded)."""

    def __init__(
        self, epsilon: float, predicate: Predicate | None = None, clip: bool = True
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.predicate = predicate
        self.clip = clip

    @property
    def guarantee(self) -> DPGuarantee:
        return DPGuarantee(epsilon=self.epsilon)

    def release(
        self, records: Iterable[object], rng: np.random.Generator
    ) -> float:
        count = float(_true_count(list(records), self.predicate))
        noisy = float(
            laplace_rows(rng, SINGLE_COUNT_SENSITIVITY / self.epsilon, [count], 1)[0, 0]
        )
        return max(noisy, 0.0) if self.clip else noisy
