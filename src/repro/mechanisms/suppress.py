"""``Suppress`` — the personalized-DP baseline of Section 3.4.

PDP models non-sensitive records as having privacy parameter infinity.
``Suppress`` with threshold tau drops every record whose personal
parameter is below tau (here: all sensitive records) and runs a tau-DP
computation on the remainder.  It satisfies PDP, but:

* with tau = inf it releases the non-sensitive records exactly — the
  canonical exclusion-attack-vulnerable mechanism;
* with finite tau it achieves only *tau*-freedom from exclusion attacks
  (Theorem 3.4), so Fig 10's Suppress100 buys utility at 100x weaker
  protection than the (P, 1)-OSDP competitors.

``SuppressHistogram`` is the histogram instantiation used in Fig 10:
``x_ns + Lap(2/tau)``.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.guarantees import PDPGuarantee
from repro.core.policy import Policy
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import laplace_rows
from repro.queries.histogram import HISTOGRAM_L1_SENSITIVITY, HistogramInput


class Suppress:
    """Record-level Suppress: drop sensitive records, tau-DP on the rest.

    ``tau=None`` models tau = inf (release non-sensitive records
    truthfully) — exactly the Threshold algorithm the paper shows is
    vulnerable to exclusion attacks.
    """

    def __init__(self, policy: Policy, tau: float | None):
        if tau is not None and tau <= 0:
            raise ValueError("tau must be positive (or None for infinity)")
        self.policy = policy
        self.tau = tau

    @property
    def guarantee(self) -> PDPGuarantee:
        tau_text = "inf" if self.tau is None else f"{self.tau:g}"
        return PDPGuarantee(
            epsilon_of=lambda r: (
                math.inf if self.policy.is_non_sensitive(r) else (self.tau or math.inf)
            ),
            description=f"Suppress(tau={tau_text})-PDP",
        )

    @property
    def exclusion_freedom_phi(self) -> float:
        """Theorem 3.4: Suppress is only tau-free from exclusion attacks."""
        return math.inf if self.tau is None else self.tau

    def retained(self, records: Iterable[object]) -> list[object]:
        """The records that survive suppression (all non-sensitive ones)."""
        return [r for r in records if self.policy.is_non_sensitive(r)]

    def output_distribution(self, db: tuple) -> dict:
        """Exact output distribution for tau = inf (for exclusion demos)."""
        if self.tau is not None:
            raise NotImplementedError(
                "exact distributions implemented for the tau=inf release only"
            )
        released = tuple(sorted(self.retained(db), key=repr))
        return {released: 1.0}


class SuppressHistogram(HistogramMechanism):
    """Fig 10's PDP competitor: ``x_ns + Lap(2/tau)``.

    Note the ``epsilon`` constructor argument of the base class is the
    *tau* of the suppress threshold — the mechanism's nominal DP budget
    on the retained records, and per Theorem 3.4 its exclusion-attack
    freedom parameter.  It is **not** an OSDP epsilon.
    """

    def __init__(
        self,
        tau: float,
        policy: Policy | None = None,
        ns_ratio: float | None = None,
    ):
        super().__init__(epsilon=tau)
        if ns_ratio is not None and not 0.0 < ns_ratio <= 1.0:
            raise ValueError("ns_ratio must lie in (0, 1]")
        self.tau = tau
        self.policy = policy
        self.ns_ratio = ns_ratio

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"suppress{self.tau:g}"

    @property
    def guarantee(self) -> PDPGuarantee:
        def epsilon_of(record: object) -> float:
            if self.policy is None or self.policy.is_non_sensitive(record):
                return math.inf
            return self.tau

        return PDPGuarantee(
            epsilon_of=epsilon_of, description=f"Suppress(tau={self.tau:g})-PDP"
        )

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        scale = HISTOGRAM_L1_SENSITIVITY / self.tau
        out = laplace_rows(rng, scale, np.asarray(hist.x_ns, dtype=float), n_trials)
        np.maximum(out, 0.0, out=out)
        if self.ns_ratio is not None:
            out /= self.ns_ratio
        return out
