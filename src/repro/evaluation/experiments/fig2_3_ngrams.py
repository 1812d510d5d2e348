"""Figs 2 & 3: MRE of high-dimensional n-gram histograms (§6.3.2).

Task: count, per n-gram (n consecutive APs in a daily trajectory), the
number of trajectories containing it — a histogram over ``64**n`` cells.
Algorithms:

* **All NS** — exact counts over the non-sensitive trajectories (not
  OSDP; the PDP/Threshold strategy);
* **OsdpRR** — exact counts over an Algorithm-1 sample of the
  non-sensitive trajectories (OSDP; zero cells stay exactly zero);
* **LM T1** — Laplace mechanism with truncation k = 1 (sensitivity 2):
  the DP baseline;
* **LM T\\*** — Laplace mechanism with the (non-private) error-optimal
  truncation, selected by sweeping k.

The Laplace baselines conceptually perturb *every* cell of the 64**n
domain; only the truth's support is materialized and the zero cells'
expected contribution ``E|Lap(2k/eps)| = 2k/eps`` per cell enters the
MRE analytically — the paper's own accounting (§6.3.2).

Expected shape: All NS <= OsdpRR with a modest gap; at eps = 1 LM is
comparable to OsdpRR near the 50% policy; at eps = 0.01 LM is an order
of magnitude worse everywhere.

By default the experiment runs **columnar**: the trace comes from
:func:`repro.data.tippers.generate_tippers_columnar` (the generator;
the row path reads its rebuilt ``Trajectory`` rows), policies from
:func:`repro.data.tippers.policy_for_fraction_columnar`, selections
from vectorized masks, and n-gram counting from
:meth:`repro.queries.ngram.NGramCounter.count_columnar`.  Both paths
consume identical rng streams over identical supports, so the reported
numbers are **bit-identical** (``tests/test_ngram.py`` pins it);
``columnar=False`` keeps the row-object reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.policy import NON_SENSITIVE
from repro.data.tippers import (
    TippersConfig,
    TippersDataset,
    generate_tippers,
    generate_tippers_columnar,
    policy_for_fraction_columnar,
)
from repro.evaluation.runner import spawn_rngs
from repro.mechanisms.batch_sampling import laplace_rows
from repro.mechanisms.osdp_rr import release_probability
from repro.queries.ngram import NGramCounter, SparseHistogram, sparse_mre


@dataclass(frozen=True)
class NGramConfig:
    """Configuration for the Fig 2/3 n-gram experiments."""

    tippers: TippersConfig = field(
        default_factory=lambda: TippersConfig(n_users=400, n_days=50, seed=7)
    )
    n: int = 4
    policies: tuple[float, ...] = (99, 90, 75, 50, 25, 10, 1)
    epsilons: tuple[float, ...] = (1.0, 0.01)
    truncation_sweep: tuple[int, ...] = (1, 2, 3, 5, 8)
    n_trials: int = 5
    seed: int = 0
    columnar: bool = True


def _laplace_ngram_mre(
    truth: SparseHistogram,
    truncated: SparseHistogram,
    epsilon: float,
    k: int,
    rng: np.random.Generator,
) -> float:
    """MRE of the truncated-Laplace release, zero cells analytic."""
    scale = 2.0 * k / epsilon
    support = sorted(truth.support() | truncated.support())
    noisy = laplace_rows(
        rng, scale, [truncated[gram] for gram in support], 1
    )[0]
    estimate = dict(zip(support, noisy))
    return sparse_mre(
        truth, estimate, expected_abs_noise_on_zeros=scale
    )


def _osdp_rr_mre(
    truth: SparseHistogram,
    counter: NGramCounter,
    dataset_ns: list,
    epsilon: float,
    rng: np.random.Generator,
) -> float:
    keep = rng.random(len(dataset_ns)) < release_probability(epsilon)
    sample = [t for t, k in zip(dataset_ns, keep) if k]
    estimate = counter.count(sample)
    return sparse_mre(truth, estimate.counts)


def _osdp_rr_mre_columnar(
    truth: SparseHistogram,
    counter: NGramCounter,
    ns_db,
    epsilon: float,
    rng: np.random.Generator,
) -> float:
    """The columnar twin of :func:`_osdp_rr_mre`.

    The Bernoulli draw has the same length and consumes the same rng
    stream as the row path (``len(ns_db)`` equals the row path's
    non-sensitive count), so the sampled record set — and hence the
    MRE — is bit-identical.
    """
    keep = rng.random(len(ns_db)) < release_probability(epsilon)
    estimate = counter.count_columnar(ns_db.select(keep))
    return sparse_mre(truth, estimate.counts)


class _ColumnarTrace:
    """Data-access layer of the columnar path (no row objects)."""

    def __init__(self, config: NGramConfig):
        self.config = config
        self.db = generate_tippers_columnar(config.tippers)

    def count(self, counter: NGramCounter) -> SparseHistogram:
        return counter.count_columnar(self.db)

    def policy_rows(self, rho: float):
        policy = policy_for_fraction_columnar(
            self.db, rho, self.config.tippers.n_aps
        )
        return self.db.select(
            policy.evaluate_batch(self.db) == NON_SENSITIVE
        )

    osdp_mre = staticmethod(_osdp_rr_mre_columnar)


class _RowTrace:
    """Data-access layer of the reference row path."""

    def __init__(self, config: NGramConfig):
        self.dataset: TippersDataset = generate_tippers(config.tippers)

    def count(self, counter: NGramCounter) -> SparseHistogram:
        return counter.count(self.dataset.trajectories)

    def policy_rows(self, rho: float):
        policy = self.dataset.policy_for_fraction(rho)
        return [
            t
            for t in self.dataset.trajectories
            if policy.is_non_sensitive(t)
        ]

    osdp_mre = staticmethod(_osdp_rr_mre)


def run_ngram_experiment(config: NGramConfig | None = None) -> dict:
    """Run the Fig 2 (n=4) or Fig 3 (n=5) sweep.

    Returns ``{"mre": {eps: {policy: {algo: MRE}}}, "lm_kstar": k}`` —
    the LM rows are policy-independent (the paper draws them as
    horizontal lines) but are repeated per policy for uniformity.  The
    two data paths (``config.columnar``) differ only in *how* counts
    and selections are computed, never in which values the rngs see, so
    they report identical numbers.
    """
    config = config or NGramConfig()
    trace = _ColumnarTrace(config) if config.columnar else _RowTrace(config)

    counter_full = NGramCounter(n=config.n, n_aps=config.tippers.n_aps)
    truth = trace.count(counter_full)

    results: dict[float, dict[float, dict[str, float]]] = {}
    lm_kstar: dict[float, int] = {}
    for epsilon in config.epsilons:
        results[epsilon] = {}
        rngs = spawn_rngs(config.seed, config.n_trials)

        # LM errors are policy independent: compute once per epsilon.
        lm_by_k: dict[int, float] = {}
        for k in config.truncation_sweep:
            truncated = trace.count(
                NGramCounter(
                    n=config.n, n_aps=config.tippers.n_aps, truncation=k
                )
            )
            lm_by_k[k] = float(
                np.mean(
                    [
                        _laplace_ngram_mre(truth, truncated, epsilon, k, rng)
                        for rng in spawn_rngs(config.seed + k, config.n_trials)
                    ]
                )
            )
        best_k = min(lm_by_k, key=lm_by_k.__getitem__)
        lm_kstar[epsilon] = best_k
        lm_t1 = lm_by_k[min(config.truncation_sweep)]
        lm_tstar = lm_by_k[best_k]

        for rho in config.policies:
            non_sensitive = trace.policy_rows(rho)
            all_ns_estimate = (
                counter_full.count_columnar(non_sensitive)
                if config.columnar
                else counter_full.count(non_sensitive)
            )
            all_ns = sparse_mre(truth, all_ns_estimate.counts)
            osdp_rr = float(
                np.mean(
                    [
                        trace.osdp_mre(
                            truth, counter_full, non_sensitive, epsilon, rng
                        )
                        for rng in rngs
                    ]
                )
            )
            results[epsilon][rho] = {
                "all_ns": all_ns,
                "osdp_rr": osdp_rr,
                "lm_t1": lm_t1,
                "lm_tstar": lm_tstar,
            }
    return {
        "mre": results,
        "lm_kstar": lm_kstar,
        "n_support": len(truth),
        "domain_size": truth.domain_size,
    }
