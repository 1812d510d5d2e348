"""Figs 4 & 5: low-dimensional 2-D histogram release on TIPPERS (§6.3.3.1).

The query counts user-day presence events per (AP, hour) cell — a
64 x 24 histogram.  The policy is *value based* (an event at a sensitive
AP is sensitive), so every bin is purely sensitive or purely
non-sensitive; ``OsdpLaplaceL1`` is therefore run in its hybrid form —
ordinary Laplace noise on the sensitive bins, one-sided noise on the
rest — exactly the construction the paper describes for this figure.

Algorithms: OsdpLaplaceL1 (hybrid), DAWAz, DAWA.  Metrics: MRE for
eps in {1, 0.01} (Fig 4), Rel50 and Rel95 at eps = 1 (Fig 5).

Expected shape: OSDP algorithms beat DAWA for policies with >= 25%
non-sensitive records at eps = 1; at eps = 0.01 DAWAz stays competitive
everywhere while the pure OSDP primitive loses below ~25%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.tippers import TippersConfig, generate_tippers
from repro.evaluation.metrics import mean_relative_error, rel_percentile
from repro.evaluation.runner import spawn_rngs
from repro.mechanisms.dawa import Dawa
from repro.mechanisms.dawaz import DawaZ
from repro.mechanisms.osdp_laplace import HybridOsdpLaplace
from repro.queries.histogram import HistogramInput

ALGORITHMS = ("osdp_laplace_l1", "dawaz", "dawa")
N_HOURS = 24


@dataclass(frozen=True)
class TippersHistogramConfig:
    """Configuration for the Fig 4/5 experiments."""

    tippers: TippersConfig = field(
        default_factory=lambda: TippersConfig(n_users=400, n_days=50, seed=7)
    )
    policies: tuple[float, ...] = (99, 90, 75, 50, 25, 10, 1)
    epsilons: tuple[float, ...] = (1.0, 0.01)
    n_trials: int = 10
    seed: int = 0


def build_histogram_input(dataset, policy) -> HistogramInput:
    """(AP, hour) event histogram split by the AP-level policy."""
    n_aps = dataset.config.n_aps
    x = np.zeros(n_aps * N_HOURS, dtype=float)
    x_ns = np.zeros_like(x)
    sensitive_aps = frozenset(policy.to_spec()["aps"])
    for _user, _day, ap, hour in dataset.presence_events():
        index = ap * N_HOURS + hour
        x[index] += 1.0
        if ap not in sensitive_aps:
            x_ns[index] += 1.0
    mask = np.zeros(n_aps * N_HOURS, dtype=bool)
    for ap in sensitive_aps:
        mask[ap * N_HOURS : (ap + 1) * N_HOURS] = True
    return HistogramInput(x=x, x_ns=x_ns, sensitive_bin_mask=mask)


def _make_mechanism(name: str, epsilon: float):
    if name == "osdp_laplace_l1":
        return HybridOsdpLaplace(epsilon)
    if name == "dawaz":
        return DawaZ(epsilon)
    if name == "dawa":
        return Dawa(epsilon)
    raise ValueError(f"unknown algorithm {name!r}")


def run_tippers_histogram(config: TippersHistogramConfig | None = None) -> dict:
    """Run the Fig 4/5 sweep.

    Returns ``{"mre": {eps: {policy: {algo: value}}},
    "rel50"/"rel95": {policy: {algo: value}}  (at the first epsilon)}``.
    """
    config = config or TippersHistogramConfig()
    dataset = generate_tippers(config.tippers)

    mre: dict[float, dict[float, dict[str, float]]] = {}
    rel50: dict[float, dict[str, float]] = {}
    rel95: dict[float, dict[str, float]] = {}

    for epsilon in config.epsilons:
        mre[epsilon] = {}
        for rho in config.policies:
            policy = dataset.policy_for_fraction(rho)
            hist = build_histogram_input(dataset, policy)
            per_algo_mre: dict[str, float] = {}
            per_algo_rel50: dict[str, float] = {}
            per_algo_rel95: dict[str, float] = {}
            for name in ALGORITHMS:
                mech = _make_mechanism(name, epsilon)
                mres, r50s, r95s = [], [], []
                for rng in spawn_rngs(config.seed, config.n_trials):
                    estimate = mech.release(hist, rng)
                    mres.append(mean_relative_error(hist.x, estimate))
                    r50s.append(rel_percentile(hist.x, estimate, 50))
                    r95s.append(rel_percentile(hist.x, estimate, 95))
                per_algo_mre[name] = float(np.mean(mres))
                per_algo_rel50[name] = float(np.mean(r50s))
                per_algo_rel95[name] = float(np.mean(r95s))
            mre[epsilon][rho] = per_algo_mre
            if epsilon == config.epsilons[0]:
                rel50[rho] = per_algo_rel50
                rel95[rho] = per_algo_rel95
    return {"mre": mre, "rel50": rel50, "rel95": rel95}
