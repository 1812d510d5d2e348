"""The one-sided Laplace distribution ``Lap^-(lambda)`` of Definition 5.1.

This is the mirrored exponential distribution, with all probability mass
on the non-positive reals:

    f(x; lambda) = exp(x / lambda) / lambda   for x <= 0, and 0 otherwise.

Adding ``Lap^-(1/epsilon)`` noise to counts computed over *non-sensitive*
records yields the ``OsdpLaplace`` mechanism (Theorem 5.2): one-sided
neighbors can only *increase* non-sensitive counts, so strictly negative
noise suffices for indistinguishability.

Key facts used by the paper and verified in the test suite:

* median = ``-lambda * ln 2`` (the de-biasing constant of Algorithm 2),
* mean = ``-lambda``, variance = ``lambda**2``,
* at matched epsilon the variance is 1/8 that of the histogram Laplace
  mechanism's noise (exponential halves the variance; the sensitivity
  drop from 2 to 1 contributes another factor of 4).

This is the analytic form; the noise itself is drawn by
:func:`repro.mechanisms.batch_sampling.one_sided_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.distributions.common import as_float_array as _as_float_array


@dataclass(frozen=True)
class OneSidedLaplace:
    """One-sided Laplace (negative exponential) with scale ``scale``."""

    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density: ``exp(x/scale)/scale`` for x <= 0, else 0."""
        arr, scalar = _as_float_array(x)
        out = np.where(arr <= 0, np.exp(arr / self.scale) / self.scale, 0.0)
        return float(out) if scalar else out

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Log-density; ``-inf`` on the positive reals."""
        arr, scalar = _as_float_array(x)
        with np.errstate(divide="ignore"):
            out = np.where(
                arr <= 0, arr / self.scale - math.log(self.scale), -np.inf
            )
        return float(out) if scalar else out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """CDF: ``exp(x/scale)`` for x <= 0, else 1."""
        arr, scalar = _as_float_array(x)
        out = np.where(arr <= 0, np.exp(np.minimum(arr, 0.0) / self.scale), 1.0)
        return float(out) if scalar else out

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantile function: ``scale * ln q`` for q in (0, 1]."""
        arr, scalar = _as_float_array(q)
        if np.any((arr <= 0) | (arr > 1)):
            raise ValueError("quantile levels must lie in (0, 1]")
        out = self.scale * np.log(arr)
        return float(out) if scalar else out

    @property
    def mean(self) -> float:
        return -self.scale

    @property
    def median(self) -> float:
        """``-scale * ln 2``; Algorithm 2 adds this back to de-bias."""
        return -self.scale * math.log(2.0)

    @property
    def variance(self) -> float:
        return self.scale**2

    @property
    def expected_abs(self) -> float:
        """E|X| = scale (all mass is non-positive)."""
        return self.scale
