"""One-sided Laplace mechanisms for counting queries (Section 5.1).

Under OSDP, a one-sided neighbor replaces a sensitive record with an
arbitrary one, so counts over the *non-sensitive* records can only grow:
``x_ns <= x'_ns`` with ``||x'_ns - x_ns||_1 <= 1``.  Strictly negative
noise therefore suffices:

* :class:`OsdpLaplaceHistogram` — ``x_ns + Lap^-(1/eps)`` (Theorem 5.2),
  noise variance 1/8 that of the DP Laplace histogram at matched eps;
* :class:`OsdpLaplaceL1Histogram` — Algorithm 2: clip negatives to zero
  (exact zero counts stay exactly zero) and de-bias the surviving
  positive counts by the one-sided noise median ``ln 2 / eps``;
* :class:`HybridOsdpLaplace` — the Section 6.3.3.1 construction for
  value-based policies, where bins are purely sensitive or purely
  non-sensitive: ordinary Laplace noise on the sensitive-only bins and
  one-sided noise on the rest, composed sequentially.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.guarantees import OSDPGuarantee
from repro.core.policy import AllSensitivePolicy, Policy
from repro.distributions.one_sided_laplace import OneSidedLaplace
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import laplace_rows, one_sided_rows, scatter_rows
from repro.queries.histogram import (
    HISTOGRAM_L1_SENSITIVITY,
    HistogramInput,
    ns_support,
)


def _guarantee_for(policy: Policy | None, epsilon: float) -> OSDPGuarantee:
    return OSDPGuarantee(
        policy=policy if policy is not None else AllSensitivePolicy(),
        epsilon=epsilon,
    )


class OsdpLaplaceHistogram(HistogramMechanism):
    """``x_ns + Lap^-(1/eps)`` per bin — (P, eps)-OSDP (Theorem 5.2).

    ``ns_ratio`` (optional) divides the noisy counts by a known
    non-sensitive mass fraction — post-processing that de-biases the
    estimate toward the full histogram under value-independent
    (opt-in style) policies; see EXPERIMENTS.md.
    """

    name = "osdp_laplace"

    def __init__(
        self,
        epsilon: float,
        policy: Policy | None = None,
        ns_ratio: float | None = None,
    ):
        super().__init__(epsilon)
        if ns_ratio is not None and not 0.0 < ns_ratio <= 1.0:
            raise ValueError("ns_ratio must lie in (0, 1]")
        self.policy = policy
        self.ns_ratio = ns_ratio
        self.noise = OneSidedLaplace(scale=1.0 / epsilon)

    @property
    def guarantee(self) -> OSDPGuarantee:
        return _guarantee_for(self.policy, self.epsilon)

    @property
    def noise_variance(self) -> float:
        """``1/eps**2`` — 1/8 of the DP Laplace histogram's ``8/eps**2``."""
        return self.noise.variance

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        # Unclipped release: every bin gets noise, including empty ones.
        out = one_sided_rows(
            rng, self.noise.scale, np.asarray(hist.x_ns, dtype=float), n_trials
        )
        if self.ns_ratio is not None:
            out /= self.ns_ratio
        return out


class OsdpLaplaceL1Histogram(HistogramMechanism):
    """Algorithm 2 (``OsdpLaplaceL1``): clipped, de-biased one-sided noise.

    Steps: add ``Lap^-(1/eps)``; clip negatives to zero (so true zero
    counts are released as exact zeros); add back the noise median
    ``ln 2 / eps`` to the remaining positive counts to remove the
    one-sided bias.  ``debias=False`` disables step 4 (for the ablation
    bench).
    """

    name = "osdp_laplace_l1"

    def __init__(
        self,
        epsilon: float,
        policy: Policy | None = None,
        debias: bool = True,
        ns_ratio: float | None = None,
    ):
        super().__init__(epsilon)
        if ns_ratio is not None and not 0.0 < ns_ratio <= 1.0:
            raise ValueError("ns_ratio must lie in (0, 1]")
        self.policy = policy
        self.debias = debias
        self.ns_ratio = ns_ratio
        self.noise = OneSidedLaplace(scale=1.0 / epsilon)

    @property
    def guarantee(self) -> OSDPGuarantee:
        return _guarantee_for(self.policy, self.epsilon)

    @property
    def median_correction(self) -> float:
        """``-median = ln 2 / eps``, added back to positive noisy counts."""
        return -self.noise.median

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        # Bins with x_ns = 0 release exactly 0 (strictly negative noise
        # is clipped and the de-bias only touches positive counts), so
        # only the support needs sampling — a large win on the sparse
        # DPBench inputs.
        x_ns = np.asarray(hist.x_ns, dtype=float)
        idx = ns_support(hist)
        noisy = one_sided_rows(rng, self.noise.scale, x_ns[idx], n_trials)
        if self.debias:
            vals = np.where(noisy > 0.0, noisy + self.median_correction, 0.0)
        else:
            vals = np.maximum(noisy, 0.0)
        if self.ns_ratio is not None:
            vals /= self.ns_ratio
        return scatter_rows(vals, idx, len(x_ns))


class HybridOsdpLaplace(HistogramMechanism):
    """Per-bin hybrid for value-based policies (Section 6.3.3.1).

    Requires ``hist.sensitive_bin_mask``: bins whose records are all
    sensitive receive ordinary Laplace noise (scale ``2/eps_dp``) on
    their true counts, all other bins receive the OsdpLaplaceL1 treatment
    (scale ``1/eps_os``) on their non-sensitive counts.  Sequential
    composition gives (P, eps_dp + eps_os)-OSDP; ``split`` apportions the
    total epsilon (default an even split).

    Falls back to plain OsdpLaplaceL1 when no mask is available.
    """

    name = "osdp_hybrid"

    def __init__(
        self, epsilon: float, policy: Policy | None = None, split: float = 0.5
    ):
        super().__init__(epsilon)
        if not 0.0 < split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")
        self.policy = policy
        self.split = split
        self.epsilon_dp = split * epsilon
        self.epsilon_os = (1.0 - split) * epsilon

    @property
    def guarantee(self) -> OSDPGuarantee:
        return _guarantee_for(self.policy, self.epsilon)

    def _l1_part(self, hist: HistogramInput) -> OsdpLaplaceL1Histogram:
        """OsdpLaplaceL1 at ``eps_os`` — or at all of ``eps`` without a mask."""
        no_mask = hist.sensitive_bin_mask is None
        eps = self.epsilon if no_mask else self.epsilon_os
        return OsdpLaplaceL1Histogram(eps, policy=self.policy)

    def _sensitive_only(self, hist: HistogramInput) -> np.ndarray | None:
        """The sensitive-only bins as a bool mask, or None when there are none."""
        if hist.sensitive_bin_mask is None or not np.any(hist.sensitive_bin_mask):
            return None
        return np.asarray(hist.sensitive_bin_mask, dtype=bool)

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        # The L1 pass, then the Laplace pass, each over all trials.
        estimate = self._l1_part(hist).release_batch(hist, rng, n_trials)
        mask = self._sensitive_only(hist)
        if mask is not None:
            dp_scale = HISTOGRAM_L1_SENSITIVITY / self.epsilon_dp
            x = np.asarray(hist.x, dtype=float)[mask]
            noisy = laplace_rows(rng, dp_scale, x, n_trials)
            estimate[:, mask] = np.maximum(noisy, 0.0, out=noisy)
        return estimate


def theorem_5_1_crossover(n_records: int, n_bins: int, epsilon: float) -> bool:
    """True when Theorem 5.1 predicts OsdpRR loses to the Laplace mechanism.

    The condition ``n * eps > 2 d * e^eps`` (equation 2): suppression
    error of even a fully-non-sensitive OsdpRR release exceeds the
    Laplace mechanism's expected L1 error.
    """
    return n_records * epsilon > 2.0 * n_bins * math.exp(epsilon)
