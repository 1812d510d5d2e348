"""DAWA: private partition (stage 1) + noisy uniform expansion (stage 2).

The budget splits as ``eps1 = split * eps`` for partition selection and
``eps2 = (1 - split) * eps`` for bucket estimation; sequential
composition gives ``eps``-DP overall.  The per-bucket penalty passed to
the partition DP is ``penalty_factor * 2 / eps2`` — the expected L1 cost
of one more bucket's Laplace noise in stage 2 — so the partition
balances deviation bias against estimation noise exactly as the original
algorithm does.

``release_with_partition_batch`` also returns the chosen buckets;
DAWAz's post-processing redistributes bucket mass and needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.guarantees import DPGuarantee
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.dawa.estimate import uniform_bucket_estimate_trials
from repro.mechanisms.dawa.partition import (
    Bucket,
    DyadicScaffold,
    TrialBuckets,
    optimal_partition_batch,
    scaffold_for,
)
from repro.queries.histogram import HistogramInput


@dataclass(frozen=True)
class DawaResult:
    """A DAWA release together with the partition that produced it.

    ``buckets`` holds ``[start, end)`` rows — an ``(k, 2)`` int64 array
    on the fast path, or an equivalent list of tuples; every consumer
    accepts both.
    """

    estimate: np.ndarray
    buckets: "np.ndarray | list[Bucket]"


@dataclass(frozen=True)
class DawaBatchResult:
    """The trials of one batched release; ``self[t]`` is trial ``t``.

    Row ``t`` of ``estimates`` was expanded over ``partitions[t]``; the
    per-trial :class:`DawaResult` items hold views of both.
    """

    estimates: np.ndarray
    partitions: TrialBuckets

    def __len__(self) -> int:
        return len(self.partitions)

    def __getitem__(self, trial: int) -> DawaResult:
        return DawaResult(
            estimate=self.estimates[trial], buckets=self.partitions[trial]
        )


class Dawa(HistogramMechanism):
    """The dyadic DAWA variant (see DESIGN.md §5) — epsilon-DP."""

    name = "dawa"

    def __init__(
        self,
        epsilon: float,
        split: float = 0.5,
        penalty_factor: float = 1.0,
    ):
        super().__init__(epsilon)
        if not 0.0 < split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")
        if penalty_factor <= 0:
            raise ValueError("penalty_factor must be positive")
        self.split = split
        self.penalty_factor = penalty_factor
        self.epsilon1 = split * epsilon
        self.epsilon2 = (1.0 - split) * epsilon

    @property
    def guarantee(self) -> DPGuarantee:
        return DPGuarantee(epsilon=self.epsilon)

    @property
    def bucket_penalty(self) -> float:
        """Stage-2 noise cost charged per bucket in the partition DP."""
        return self.penalty_factor * 2.0 / self.epsilon2

    def release_with_partition_batch(
        self,
        hist: HistogramInput,
        rng: np.random.Generator,
        n_trials: int,
        scaffold: DyadicScaffold | None = None,
    ) -> DawaBatchResult:
        """``n_trials`` independent releases, every stage one flat pass.

        Stage 1: the exact dyadic deviation costs are data-dependent but
        request-independent (the histogram's memoised scaffold); all
        trials' noisy cost levels come from one sampler call, and the
        Bellman recursion and the top-down selection each run once
        across trials
        (:func:`repro.mechanisms.dawa.partition.optimal_partition_batch`).

        Stage 2: every trial's bucket totals, noise and uniform
        expansion in the concatenated domain
        (:func:`repro.mechanisms.dawa.estimate.uniform_bucket_estimate_trials`).
        """
        if scaffold is None:
            scaffold = scaffold_for(hist)
        costs = scaffold.noisy_costs_batch(self.epsilon1, rng, n_trials)
        partitions = optimal_partition_batch(
            costs, self.bucket_penalty
        ).clipped(scaffold.n_original)
        estimates = uniform_bucket_estimate_trials(
            hist.x, partitions, self.epsilon2, rng
        )
        return DawaBatchResult(estimates=estimates, partitions=partitions)

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        return self.release_with_partition_batch(hist, rng, n_trials).estimates
