"""The Laplace mechanism (Definition 2.5) — the classic DP baseline.

``LaplaceMechanism`` is the generic vector form: ``f(D) + Lap(S(f)/eps)``
per coordinate.  ``LaplaceHistogram`` specializes to histogram release
under the bounded model, where a record replacement moves one count down
and one up, giving L1-sensitivity 2 and per-bin noise ``Lap(2/eps)`` —
matching the paper's expected L1 error of ``2d/eps`` (Theorem 5.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.guarantees import DPGuarantee
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.batch_sampling import laplace_rows
from repro.queries.histogram import HISTOGRAM_L1_SENSITIVITY, HistogramInput


class LaplaceMechanism:
    """Generic epsilon-DP additive-noise release for numeric queries."""

    def __init__(self, epsilon: float, sensitivity: float):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        self.epsilon = epsilon
        self.sensitivity = sensitivity

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    @property
    def guarantee(self) -> DPGuarantee:
        return DPGuarantee(epsilon=self.epsilon)

    def release(
        self, value: float | np.ndarray, rng: np.random.Generator
    ) -> float | np.ndarray:
        """Add calibrated Laplace noise to a scalar or vector answer.

        Scalar-ness follows the coerced array's dimensionality, so
        numpy scalars and 0-d arrays release floats like Python numbers
        do (``np.isscalar`` misses those forms).
        """
        arr = np.asarray(value, dtype=float)
        noisy = laplace_rows(rng, self.scale, arr.ravel(), 1)
        if arr.ndim == 0:
            return float(noisy[0, 0])
        return noisy.reshape(arr.shape)


class LaplaceHistogram(HistogramMechanism):
    """epsilon-DP histogram release: ``x + Lap(2/eps)^d``.

    Expected L1 error ``2 d / eps``; this is the DP baseline the OSDP
    primitives are measured against in Theorem 5.1 and Section 6.3.3.
    """

    name = "laplace"

    def __init__(self, epsilon: float, clip_negative: bool = False):
        super().__init__(epsilon)
        self.clip_negative = clip_negative
        self._inner = LaplaceMechanism(
            epsilon=epsilon, sensitivity=HISTOGRAM_L1_SENSITIVITY
        )

    @property
    def guarantee(self) -> DPGuarantee:
        return DPGuarantee(epsilon=self.epsilon)

    @property
    def expected_l1_error(self) -> float:
        """Per Theorem 5.1: ``2 d / eps`` for a d-bin histogram; per bin 2/eps."""
        return HISTOGRAM_L1_SENSITIVITY / self.epsilon

    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        out = laplace_rows(
            rng, self._inner.scale, np.asarray(hist.x, dtype=float), n_trials
        )
        if self.clip_negative:
            np.maximum(out, 0.0, out=out)
        return out
