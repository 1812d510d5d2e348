"""DAWA stage 2: noisy bucket totals expanded over their bins.

Given the stage-1 partition, each bucket's total count is released with
``Lap(2/eps2)`` noise (one record replacement changes at most two bucket
totals by one each) and spread uniformly across the bucket's bins —
uniform expansion is the workload-optimal estimator for the histogram
(identity) workload the paper evaluates.

``hierarchical_estimate`` is the range-workload extension: a binary tree
of noisy subtree totals with inverse-variance (Honaker-style) weighted
averaging on the way down, provided for the workload experiments beyond
the paper's identity setting.
"""

from __future__ import annotations

import numpy as np

from repro.mechanisms.batch_sampling import laplace_rows
from repro.mechanisms.dawa.partition import TrialBuckets, buckets_tile_domain

BUCKET_TOTAL_SENSITIVITY = 2.0


def uniform_bucket_estimate_trials(
    x: np.ndarray,
    partitions: TrialBuckets,
    epsilon2: float,
    rng: np.random.Generator,
    clip_negative_totals: bool = True,
) -> np.ndarray:
    """Noisy bucket totals, uniformly expanded, per trial.  eps2-DP.

    Each bucket's total gets ``Lap(2/eps2)`` noise and is spread evenly
    over the bucket's bins.  The trials' buckets tile the concatenated
    domain, so the whole batch is one ``np.add.reduceat`` over the tiled
    counts, one ``laplace_rows`` draw with an entry per bucket of every
    trial, and one ``np.repeat`` — O(sum of bucket counts), whether the
    trials chose the same partition or all different ones.
    """
    if epsilon2 <= 0:
        raise ValueError("epsilon2 must be positive")
    x = np.asarray(x, dtype=float)
    n_trials = len(partitions)
    if len(x) == 0:
        return np.zeros((n_trials, 0))
    starts, widths = partitions.flat_starts(), partitions.widths
    if not buckets_tile_domain(starts, starts + widths, n_trials * len(x)):
        raise ValueError("each trial's buckets must tile the histogram")
    totals = np.add.reduceat(np.tile(x, n_trials), starts)
    totals = laplace_rows(rng, BUCKET_TOTAL_SENSITIVITY / epsilon2, totals, 1)[0]
    if clip_negative_totals:
        np.maximum(totals, 0.0, out=totals)
    return np.repeat(totals / widths, widths).reshape(n_trials, len(x))


class HierarchicalHistogram:
    """HB-style hierarchy of noisy counts for range workloads.

    A b-ary tree of interval sums over the domain, each level charged
    ``epsilon / n_levels`` (sensitivity 2 per level under the bounded
    model).  Range queries are answered by the canonical decomposition
    into at most ``b * log_b(n)`` tree nodes, which is where the
    hierarchy beats per-bin noise: prefix/range error grows
    polylogarithmically rather than with the range length.

    Provided as the range-workload extension of DAWA's stage 2 (the
    paper's experiments use the identity workload, where uniform bucket
    expansion is the right estimator).
    """

    def __init__(self, epsilon: float, branching: int = 16):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if branching < 2:
            raise ValueError("branching factor must be at least 2")
        self.epsilon = epsilon
        self.branching = branching
        self._levels: list[np.ndarray] | None = None  # leaves first
        self._n: int | None = None
        self._size: int | None = None

    def fit(self, x: np.ndarray, rng: np.random.Generator) -> "HierarchicalHistogram":
        x = np.asarray(x, dtype=float)
        self._n = len(x)
        size = 1
        while size < self._n:
            size *= self.branching
        self._size = size
        padded = np.zeros(size)
        padded[: self._n] = x

        widths = []
        width = 1
        while width <= size:
            widths.append(width)
            width *= self.branching
        eps_per_level = self.epsilon / len(widths)
        scale = BUCKET_TOTAL_SENSITIVITY / eps_per_level
        self._levels = []
        for width in widths:
            sums = padded.reshape(-1, width).sum(axis=1)
            self._levels.append(laplace_rows(rng, scale, sums, 1)[0])
        return self

    def _require_fit(self) -> None:
        if self._levels is None:
            raise RuntimeError("call fit() before querying")

    def range_query(self, lo: int, hi: int) -> float:
        """Noisy answer to ``sum(x[lo:hi])`` via node decomposition."""
        self._require_fit()
        if not 0 <= lo < hi <= self._n:  # type: ignore[operator]
            raise ValueError(f"invalid range ({lo}, {hi})")
        return self._answer(lo, hi, len(self._levels) - 1, 0)  # type: ignore[arg-type]

    def _answer(self, lo: int, hi: int, level: int, index: int) -> float:
        width = self.branching**level
        start = index * width
        end = start + width
        if lo <= start and end <= hi:
            return float(self._levels[level][index])  # type: ignore[index]
        if level == 0:
            # Partially-covered leaf can't happen: leaves have width 1.
            raise AssertionError("unreachable: leaf partially covered")
        total = 0.0
        child_width = width // self.branching
        first_child = index * self.branching
        for child in range(first_child, first_child + self.branching):
            c_start = child * child_width
            c_end = c_start + child_width
            if c_end <= lo or c_start >= hi:
                continue
            total += self._answer(max(lo, c_start), min(hi, c_end), level - 1, child)
        return total

    def leaf_estimates(self) -> np.ndarray:
        """Per-bin estimates (the raw noisy leaves, trimmed to n)."""
        self._require_fit()
        return self._levels[0][: self._n].copy()  # type: ignore[index]


def hierarchical_estimate(
    x: np.ndarray, epsilon: float, rng: np.random.Generator, branching: int = 16
) -> np.ndarray:
    """Convenience wrapper: fit a hierarchy and return leaf estimates."""
    return HierarchicalHistogram(epsilon, branching=branching).fit(x, rng).leaf_estimates()
