"""DAWAz (Algorithm 3) and the general OSDP recipe of Section 5.2.

The recipe upgrades any two-phase DP histogram algorithm: spend a
fraction ``rho`` of the budget on an OSDP *zero-set detection* pass over
the non-sensitive histogram, run the DP algorithm with the remaining
``(1 - rho) * eps``, then post-process — zero out the detected-empty
bins and redistribute each partition's removed mass over its surviving
bins.  Sequential composition (Theorem 3.3) gives (P, eps)-OSDP overall
(Theorem 5.3); the post-processing is privacy-free.

Zero detection follows the paper's experimental setup: an OsdpRR pass
(binomial thinning of ``x_ns`` with retention ``1 - e^{-rho * eps}``)
whose empty bins form ``Z``.  An OsdpLaplaceL1 detector is provided for
the ablation bench — its clipping step also produces exact zeros.

A note on Algorithm 3's line 9: the paper prints the rescale ratio as
``|B| / |Z ∩ B|``, which is non-finite for partitions with no zeroed
bins and does not preserve bucket mass; we implement the evident intent,
``|B| / (|B| - |Z ∩ B|)`` — spread each bucket's estimated total over
its surviving bins (see EXPERIMENTS.md, deviations).
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from repro.core.guarantees import OSDPGuarantee
from repro.core.policy import AllSensitivePolicy, Policy
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import binomial_zero_rows, one_sided_rows
from repro.mechanisms.dawa.dawa import Dawa, DawaBatchResult, DawaResult
from repro.mechanisms.dawa.partition import buckets_tile_domain
from repro.mechanisms.osdp_rr import release_probability
from repro.queries.histogram import HistogramInput, ns_support_sorted

ZeroDetector = Literal["osdp_rr", "osdp_laplace_l1"]


def detect_zero_bins_batch(
    hist: HistogramInput,
    epsilon: float,
    rng: np.random.Generator,
    n_trials: int,
    detector: ZeroDetector = "osdp_rr",
) -> np.ndarray:
    """``n_trials`` OSDP zero sets ``Z`` as an ``(n_trials, d)`` bool mask.

    ``Z`` holds the bins whose noisy non-sensitive count is 0.  Each row
    satisfies (P, epsilon)-OSDP — it is exactly an OSDP primitive of
    Section 5.1 applied to ``x_ns``, with the zero test as
    post-processing.  Bins with ``x_ns = 0`` are deterministically in
    every trial's zero set, so only the support is sampled.
    """
    x_ns = np.asarray(hist.x_ns)
    d = len(x_ns)
    masks = np.ones((n_trials, d), dtype=bool)
    cols, sorted_counts = ns_support_sorted(hist)
    if len(cols) == 0:
        return masks
    if detector == "osdp_rr":
        retention = release_probability(epsilon)
        masks[:, cols] = binomial_zero_rows(
            rng, sorted_counts, retention, n_trials
        )
        return masks
    if detector == "osdp_laplace_l1":
        vals = np.asarray(x_ns, dtype=float)[cols]
        noisy = one_sided_rows(rng, 1.0 / epsilon, vals, n_trials)
        masks[:, cols] = noisy <= 0.0
        return masks
    raise ValueError(f"unknown zero detector {detector!r}")


def _redistribute_removed_mass(
    estimate: np.ndarray,
    zero_mask: np.ndarray,
    starts: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    """Zero ``zero_mask`` and spread each tiling bucket's removed mass.

    Per-bucket zeroed counts and removed mass come from
    ``np.add.reduceat`` over the bucket starts, and the redistribution
    is one ``np.repeat`` + ``np.where`` pass.  Redistributing the
    removed mass uniformly over the surviving bins keeps each bucket
    total invariant (the ``|B| / (|B| - |Z∩B|)`` rescaling of the
    uniform expansion).
    """
    n_zeroed = np.add.reduceat(zero_mask.astype(np.int64), starts)
    removed = np.add.reduceat(np.where(zero_mask, estimate, 0.0), starts)
    survivors = widths - n_zeroed
    per_survivor = np.divide(
        removed,
        survivors,
        out=np.zeros(len(starts)),
        where=survivors > 0,
    )
    return np.where(zero_mask, 0.0, estimate + np.repeat(per_survivor, widths))


def apply_zero_postprocessing(
    result: DawaResult, zero_mask: np.ndarray
) -> np.ndarray:
    """Algorithm 3 lines 5-11: zero out Z and rescale within partitions."""
    estimate = np.asarray(result.estimate, dtype=float)
    zero_mask = np.asarray(zero_mask, dtype=bool)
    if zero_mask.shape != estimate.shape:
        raise ValueError("zero mask must match the estimate's shape")
    if len(result.buckets) == 0:
        return estimate.copy()
    arr = np.asarray(result.buckets, dtype=np.int64).reshape(-1, 2)
    starts, ends = arr[:, 0], arr[:, 1]
    if not buckets_tile_domain(starts, ends, len(estimate)):
        raise ValueError("the buckets must tile the estimate")
    return _redistribute_removed_mass(estimate, zero_mask, starts, ends - starts)


def apply_zero_postprocessing_trials(
    batch: DawaBatchResult, zero_masks: np.ndarray
) -> np.ndarray:
    """:func:`apply_zero_postprocessing` for every trial in one flat pass.

    The trials' buckets tile the concatenated domain, so the batch is
    the single-trial pass over ``estimates.ravel()`` — row ``t`` equals
    ``apply_zero_postprocessing(batch[t], zero_masks[t])`` bit for bit.
    """
    estimates = np.asarray(batch.estimates, dtype=float)
    zero_masks = np.asarray(zero_masks, dtype=bool)
    if zero_masks.shape != estimates.shape:
        raise ValueError("zero masks must match the estimates' shape")
    if estimates.size == 0:
        return estimates.copy()
    partitions = batch.partitions
    flat = _redistribute_removed_mass(
        estimates.ravel(),
        zero_masks.ravel(),
        partitions.flat_starts(),
        partitions.widths,
    )
    return flat.reshape(estimates.shape)


class TwoPhaseOsdpRecipe(HistogramMechanism):
    """Section 5.2's recipe around any partition-producing DP algorithm.

    ``dp_factory(epsilon)`` must build a mechanism exposing
    ``release_with_partition_batch(hist, rng, n_trials) -> DawaBatchResult``.
    """

    name = "osdp_recipe"

    def __init__(
        self,
        epsilon: float,
        dp_factory: Callable[[float], Dawa],
        rho: float = 0.1,
        policy: Policy | None = None,
        zero_detector: ZeroDetector = "osdp_rr",
    ):
        super().__init__(epsilon)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        self.rho = rho
        self.policy = policy
        self.zero_detector = zero_detector
        self.epsilon_zero = rho * epsilon
        self.epsilon_dp = (1.0 - rho) * epsilon
        self.dp_algorithm = dp_factory(self.epsilon_dp)

    @property
    def guarantee(self) -> OSDPGuarantee:
        """Theorem 5.3 via sequential composition: (P, eps)-OSDP."""
        return OSDPGuarantee(
            policy=self.policy if self.policy is not None else AllSensitivePolicy(),
            epsilon=self.epsilon,
        )

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        # All trials' zero sets in one support-restricted sampling pass.
        masks = detect_zero_bins_batch(
            hist, self.epsilon_zero, rng, n_trials, detector=self.zero_detector
        )
        return apply_zero_postprocessing_trials(
            self.dp_algorithm.release_with_partition_batch(hist, rng, n_trials),
            masks,
        )


class DawaZ(TwoPhaseOsdpRecipe):
    """Algorithm 3: the recipe instantiated with DAWA (rho = 0.1)."""

    name = "dawaz"

    def __init__(
        self,
        epsilon: float,
        rho: float = 0.1,
        policy: Policy | None = None,
        zero_detector: ZeroDetector = "osdp_rr",
        dawa_split: float = 0.5,
    ):
        super().__init__(
            epsilon,
            dp_factory=lambda eps: Dawa(eps, split=dawa_split),
            rho=rho,
            policy=policy,
            zero_detector=zero_detector,
        )
