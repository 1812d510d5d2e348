"""DAWA: the data-aware two-phase DP histogram algorithm (Li et al.).

The paper uses DAWA (the state-of-the-art DP algorithm in the DPBench
study) as its main baseline and as the substrate for DAWAz.  The
reference implementation is reproduced here as a *dyadic* variant (see
``DESIGN.md`` §5): stage 1 privately selects a partition of the domain
into buckets from the dyadic interval tree by minimizing noisy
L1-deviation costs; stage 2 estimates each bucket's total with Laplace
noise and spreads it uniformly.  This preserves DAWA's defining
behaviour — wide buckets over smooth or empty regions amortize noise,
spiky regions fall back to identity-like bins — which is everything the
paper's comparisons exercise.
"""

from repro.mechanisms.dawa.dawa import Dawa, DawaResult
from repro.mechanisms.dawa.estimate import hierarchical_estimate
from repro.mechanisms.dawa.partition import interval_deviation_cost

__all__ = [
    "Dawa",
    "DawaResult",
    "hierarchical_estimate",
    "interval_deviation_cost",
]
