"""Noise distributions used by the DP and OSDP mechanisms.

The paper relies on two continuous distributions:

* the (two-sided) Laplace distribution (Definition 2.3), used by the
  classical Laplace mechanism, and
* the *one-sided* Laplace distribution ``Lap^-(lambda)`` (Definition 5.1),
  a mirrored exponential with all mass on the non-positive reals, used by
  ``OsdpLaplace`` and ``OsdpLaplaceL1``.

The two continuous ones are analytic here (pdf, cdf, ppf, moments) and
sampled only by :mod:`repro.mechanisms.batch_sampling`.  A discrete
two-sided/one-sided geometric pair is provided as the integer
counterpart (an extension beyond the paper, useful for exact-count
releases).
"""

from repro.distributions.laplace import LaplaceDistribution
from repro.distributions.one_sided_laplace import OneSidedLaplace
from repro.distributions.geometric import OneSidedGeometric, TwoSidedGeometric

__all__ = [
    "LaplaceDistribution",
    "OneSidedLaplace",
    "OneSidedGeometric",
    "TwoSidedGeometric",
]
