"""``OsdpRR`` — truthful release of non-sensitive records (Algorithm 1).

Each non-sensitive record is released independently with probability
``1 - e^-eps``; sensitive records are always suppressed.  Theorem 4.1
shows this satisfies (P, eps)-OSDP: suppression of a sensitive record is
indistinguishable (within ``e^eps``) from the chance suppression of any
replacement record.

Table 1's release rates fall out of the retention probability:
eps = 1.0 -> ~63%, eps = 0.5 -> ~39%, eps = 0.1 -> ~9.5%.

``OsdpRRHistogram`` runs a histogram query over the released sample.
On histogram inputs the per-record Bernoulli sampling is exactly
binomial thinning of the non-sensitive counts, which is how it is
implemented.  Optional inverse-probability scaling (dividing by the
retention probability) is unbiased for ``x_ns`` and is pure
post-processing, hence privacy-free; the paper's plots use the raw
(unscaled) sample, which is the default.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.accountant import PrivacyAccountant
from repro.core.guarantees import OSDPGuarantee
from repro.core.policy import Policy
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import binomial_support_rows, scatter_rows
from repro.queries.histogram import HistogramInput, ns_support_sorted


def release_probability(epsilon: float) -> float:
    """Retention probability ``1 - e^-eps`` of Algorithm 1."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 1.0 - math.exp(-epsilon)


class OsdpRR:
    """Algorithm 1: sample non-sensitive records with prob ``1 - e^-eps``."""

    def __init__(self, policy: Policy, epsilon: float):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.policy = policy
        self.epsilon = epsilon

    @property
    def retention_probability(self) -> float:
        return release_probability(self.epsilon)

    @property
    def guarantee(self) -> OSDPGuarantee:
        return OSDPGuarantee(policy=self.policy, epsilon=self.epsilon)

    def sample(
        self,
        records: Iterable[object],
        rng: np.random.Generator,
        accountant: PrivacyAccountant | None = None,
    ) -> list[object]:
        """The released true-data sample ``S`` (Algorithm 1, lines 1-7)."""
        if accountant is not None:
            accountant.charge(self.policy, self.epsilon, label="OsdpRR")
        p = self.retention_probability
        released = []
        for record in records:
            if self.policy.is_non_sensitive(record) and rng.random() < p:
                released.append(record)
        return released

    def output_distribution(self, db: Sequence) -> dict:
        """Exact output distribution over subsets (for the verifier).

        Outputs are frozen multisets encoded as sorted tuples of
        (index, record) pairs — released records keep their positions so
        the distribution enumerates all 2^k subsets of non-sensitive
        positions.  Exponential in the database size; testing only.
        """
        p = self.retention_probability
        ns_positions = [
            i for i, r in enumerate(db) if self.policy.is_non_sensitive(r)
        ]
        dist: dict = {}
        for mask in range(2 ** len(ns_positions)):
            chosen = [
                ns_positions[j]
                for j in range(len(ns_positions))
                if mask >> j & 1
            ]
            prob = p ** len(chosen) * (1 - p) ** (len(ns_positions) - len(chosen))
            output = tuple(sorted((i, db[i]) for i in chosen))
            dist[output] = dist.get(output, 0.0) + prob
        return dist


class OsdpRRHistogram(HistogramMechanism):
    """Histogram over an OsdpRR sample (the §5.1 primitive).

    Releases ``Binomial(x_ns, 1 - e^-eps)``; with ``scaled=True`` the
    counts are divided by the retention probability (unbiased for
    ``x_ns``, post-processing only).  Expected L1 error (unscaled) is
    ``||x_s||_1 + e^-eps ||x_ns||_1`` — Theorem 5.1's bound.

    ``ns_ratio`` additionally divides the counts by a known (or
    privately estimated) non-sensitive mass fraction, making the
    estimate unbiased for the *full* histogram under opt-in/opt-out
    policies whose sampling is value-independent.  Post-processing only;
    see EXPERIMENTS.md (DPBench reproduction decisions).
    """

    name = "osdp_rr"

    def __init__(
        self,
        epsilon: float,
        policy: Policy | None = None,
        scaled: bool = False,
        ns_ratio: float | None = None,
    ):
        super().__init__(epsilon)
        if ns_ratio is not None and not 0.0 < ns_ratio <= 1.0:
            raise ValueError("ns_ratio must lie in (0, 1]")
        self.scaled = scaled
        self.ns_ratio = ns_ratio
        self.policy = policy

    @property
    def retention_probability(self) -> float:
        return release_probability(self.epsilon)

    @property
    def guarantee(self) -> OSDPGuarantee:
        from repro.core.policy import AllSensitivePolicy

        policy = self.policy if self.policy is not None else AllSensitivePolicy()
        return OSDPGuarantee(policy=policy, epsilon=self.epsilon)

    def expected_l1_error(self, hist: HistogramInput) -> float:
        """Suppression error: all sensitive mass plus ``e^-eps`` of x_ns."""
        sensitive_mass = float(hist.x_sensitive.sum())
        return sensitive_mass + math.exp(-self.epsilon) * float(hist.x_ns.sum())

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        # Binomial thinning of an empty bin is deterministically 0, so
        # only the nonzero x_ns bins are sampled; sorting the counts
        # lets numpy reuse its per-count sampler setup.
        cols, sorted_counts = ns_support_sorted(hist)
        vals = binomial_support_rows(
            rng, sorted_counts, self.retention_probability, n_trials
        )
        if self.scaled:
            vals /= self.retention_probability
        if self.ns_ratio is not None:
            vals /= self.ns_ratio
        return scatter_rows(vals, cols, len(np.asarray(hist.x_ns)))
