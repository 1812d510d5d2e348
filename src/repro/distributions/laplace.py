"""The (two-sided) Laplace distribution of Definition 2.3.

``LaplaceDistribution(scale=b, loc=mu)`` has density

    f(x; mu, b) = exp(-|x - mu| / b) / (2 b)

The paper writes ``Lap(b)`` for the zero-mean variant; the classical
Laplace mechanism (Definition 2.5) adds ``Lap(S(f)/epsilon)`` noise to a
query answer with L1-sensitivity ``S(f)``.  This is the analytic form;
the noise itself is drawn by
:func:`repro.mechanisms.batch_sampling.laplace_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.distributions.common import as_float_array as _as_float_array


@dataclass(frozen=True)
class LaplaceDistribution:
    """Laplace distribution with location ``loc`` and scale ``scale``."""

    scale: float
    loc: float = 0.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Probability density at ``x``."""
        arr, scalar = _as_float_array(x)
        z = np.abs(arr - self.loc) / self.scale
        out = np.exp(-z) / (2.0 * self.scale)
        return float(out) if scalar else out

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Log-density at ``x`` (useful for likelihood-ratio checks)."""
        arr, scalar = _as_float_array(x)
        z = np.abs(arr - self.loc) / self.scale
        out = -z - math.log(2.0 * self.scale)
        return float(out) if scalar else out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Cumulative distribution function at ``x``."""
        arr, scalar = _as_float_array(x)
        z = (arr - self.loc) / self.scale
        out = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
        return float(out) if scalar else out

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantile function (inverse CDF) at probability ``q``."""
        arr, scalar = _as_float_array(q)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        out = np.where(
            arr < 0.5,
            self.loc + self.scale * np.log(2.0 * arr),
            self.loc - self.scale * np.log(2.0 * (1.0 - arr)),
        )
        return float(out) if scalar else out

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def variance(self) -> float:
        return 2.0 * self.scale**2

    @property
    def expected_abs(self) -> float:
        """E|X - loc|; the expected L1 noise magnitude per coordinate."""
        return self.scale
