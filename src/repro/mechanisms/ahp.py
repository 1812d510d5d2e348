"""AHP-lite: a second two-phase DP histogram algorithm for the recipe.

Section 5.2 lists AHP (Zhang et al., *Towards Accurate Histogram
Publication under Differential Privacy*) among the two-phase algorithms
the OSDP recipe upgrades, leaving "extensions of other algorithms" as
future work.  This module implements a faithful lightweight variant and
its recipe instantiation ``AhpZ``:

Phase 1 (eps1): release a noisy histogram, threshold small counts to
zero, and *cluster* the surviving bins by sorted noisy value into groups
of near-equal counts (the partition is derived from noisy data only —
post-processing).

Phase 2 (eps2): release each cluster's total with Laplace noise and
spread it uniformly across the cluster's bins.

Unlike DAWA's contiguous buckets, AHP clusters arbitrary bins with
similar counts, so it shines when similar values are scattered across
the domain.  ``release_with_partition`` exposes the clusters in the
same ``DawaResult``-like shape consumed by the recipe post-processing —
here as a list of index groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.guarantees import DPGuarantee
from repro.core.policy import AllSensitivePolicy, Policy
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import laplace_rows
from repro.mechanisms.dawaz import detect_zero_bins_batch
from repro.queries.histogram import HISTOGRAM_L1_SENSITIVITY, HistogramInput


@dataclass(frozen=True)
class AhpResult:
    """An AHP release with its bin clusters (index arrays)."""

    estimate: np.ndarray
    clusters: list[np.ndarray]


class Ahp(HistogramMechanism):
    """AHP-lite: noisy sort-and-cluster + per-cluster estimation."""

    name = "ahp"

    def __init__(
        self,
        epsilon: float,
        split: float = 0.5,
        cluster_width: float = 2.0,
        threshold_factor: float = 1.0,
    ):
        super().__init__(epsilon)
        if not 0.0 < split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")
        if cluster_width <= 0:
            raise ValueError("cluster_width must be positive")
        self.split = split
        self.cluster_width = cluster_width
        self.threshold_factor = threshold_factor
        self.epsilon1 = split * epsilon
        self.epsilon2 = (1.0 - split) * epsilon

    @property
    def guarantee(self) -> DPGuarantee:
        return DPGuarantee(epsilon=self.epsilon)

    def _cluster(self, noisy: np.ndarray) -> list[np.ndarray]:
        """Group bins with similar noisy counts (post-processing)."""
        threshold = self.threshold_factor * HISTOGRAM_L1_SENSITIVITY / self.epsilon1
        zeroed = noisy <= threshold
        clusters: list[np.ndarray] = []
        zero_bins = np.flatnonzero(zeroed)
        if len(zero_bins):
            clusters.append(zero_bins)
        surviving = np.flatnonzero(~zeroed)
        if len(surviving) == 0:
            return clusters
        order = surviving[np.argsort(noisy[surviving])]
        # Greedy runs: a cluster closes when the next value exceeds the
        # run's start by a noise-scaled multiplicative band.
        band = self.cluster_width * HISTOGRAM_L1_SENSITIVITY / self.epsilon1
        start = 0
        for i in range(1, len(order) + 1):
            if i == len(order) or noisy[order[i]] > noisy[order[start]] + band:
                clusters.append(order[start:i])
                start = i
        return clusters

    def release_with_partition(
        self, hist: HistogramInput, rng: np.random.Generator
    ) -> AhpResult:
        x = np.asarray(hist.x, dtype=float)
        scale1 = HISTOGRAM_L1_SENSITIVITY / self.epsilon1
        clusters = self._cluster(laplace_rows(rng, scale1, x, 1)[0])

        totals = np.array([x[cluster].sum() for cluster in clusters])
        scale2 = HISTOGRAM_L1_SENSITIVITY / self.epsilon2
        totals = laplace_rows(rng, scale2, totals, 1)[0]
        estimate = np.zeros_like(x)
        for cluster, total in zip(clusters, totals):
            estimate[cluster] = max(total, 0.0) / len(cluster)
        return AhpResult(estimate=estimate, clusters=clusters)

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        return np.stack(
            [
                self.release_with_partition(hist, rng).estimate
                for _ in range(n_trials)
            ]
        )


class AhpZ(HistogramMechanism):
    """The §5.2 recipe applied to AHP: OSDP zero-set + AHP + rescaling.

    Mirrors DAWAz (Algorithm 3) with AHP clusters in place of DAWA
    buckets: bins in the OSDP-detected zero set are forced to zero and
    each cluster's removed mass is redistributed over its survivors.
    """

    name = "ahpz"

    def __init__(
        self,
        epsilon: float,
        rho: float = 0.1,
        policy: Policy | None = None,
        ahp_split: float = 0.5,
    ):
        super().__init__(epsilon)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        self.rho = rho
        self.policy = policy
        self.epsilon_zero = rho * epsilon
        self.epsilon_dp = (1.0 - rho) * epsilon
        self.dp_algorithm = Ahp(self.epsilon_dp, split=ahp_split)

    @property
    def guarantee(self):
        from repro.core.guarantees import OSDPGuarantee

        return OSDPGuarantee(
            policy=self.policy if self.policy is not None else AllSensitivePolicy(),
            epsilon=self.epsilon,
        )

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        zero_masks = detect_zero_bins_batch(hist, self.epsilon_zero, rng, n_trials)
        rows = []
        for zero_mask in zero_masks:
            result = self.dp_algorithm.release_with_partition(hist, rng)
            estimate = result.estimate
            for cluster in result.clusters:
                in_zero = zero_mask[cluster]
                n_zeroed = int(in_zero.sum())
                if n_zeroed == 0:
                    continue
                if n_zeroed == len(cluster):
                    estimate[cluster] = 0.0
                    continue
                removed = float(estimate[cluster][in_zero].sum())
                estimate[cluster[in_zero]] = 0.0
                survivors = cluster[~in_zero]
                estimate[survivors] += removed / len(survivors)
            rows.append(estimate)
        return np.stack(rows)
