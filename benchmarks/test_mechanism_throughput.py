"""Timing microbenchmarks: mechanism release throughput at DPBench scale.

Three benchmark families over 4096-bin histograms:

* ``test_release_throughput`` — one ``release`` call (the original
  series, kept for cross-PR comparability);
* ``test_sequential_trials`` — the paper's 10-trial protocol exactly as
  the seed repository ran it: ``spawn_rngs`` + one ``release`` per
  trial, stacked into the ``(10, d)`` estimate matrix;
* ``test_batch_trials`` — the same 10 trials through the vectorized
  ``release_batch`` fast path (one generator, one noise matrix).

Every run exports the measured stats and the batch-over-sequential
speedups to the git-ignored ``benchmarks/out/BENCH_mechanisms.json``;
the tracked copy at the repo root is the last recorded snapshot,
refreshed by copying (docs/TESTING.md section 3).  Two datasets bound the
sparsity range: ``adult`` (0.98 sparse — the support-restricted fast
paths shine) and ``searchlogs`` (0.51 sparse, ~168K non-sensitive
records — binomial-sampling bound).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import OUT_DIR
from repro.data.dpbench import generate_dpbench
from repro.data.sampling import m_sampling
from repro.evaluation.experiments.fig6_10_dpbench import make_mechanism
from repro.evaluation.runner import spawn_rngs
from repro.queries.histogram import HistogramInput

JSON_PATH = OUT_DIR / "BENCH_mechanisms.json"

N_TRIALS = 10
EPSILON = 1.0
NS_RATIO = 0.5

SINGLE_ALGORITHMS = (
    "laplace",
    "osdp_rr",
    "osdp_laplace",
    "osdp_laplace_l1",
    "dawa",
    "dawaz",
)
# (dataset, algorithm) grid for the 10-trial protocols; adult covers the
# full pool, searchlogs the per-bin mechanisms.
TRIAL_CASES = [
    ("adult", algo) for algo in SINGLE_ALGORITHMS
] + [
    ("searchlogs", algo)
    for algo in ("laplace", "osdp_rr", "osdp_laplace", "osdp_laplace_l1")
]

_hists: dict[str, HistogramInput] = {}
_stats: dict[tuple[str, str, str], dict] = {}


def _hist(dataset: str) -> HistogramInput:
    if dataset not in _hists:
        x = generate_dpbench(dataset, seed=0).astype(float)
        x_ns = m_sampling(x, NS_RATIO, np.random.default_rng(0)).x_ns.astype(float)
        hist = HistogramInput(x=x, x_ns=x_ns)
        hist.ns_support_sorted  # warm the cached support views
        _hists[dataset] = hist
    return _hists[dataset]


def _capture(benchmark, dataset: str, algorithm: str, mode: str) -> None:
    if benchmark.stats is None:  # --benchmark-disable smoke runs
        return
    stats = benchmark.stats.stats
    _stats[(dataset, algorithm, mode)] = {
        "dataset": dataset,
        "algorithm": algorithm,
        "mode": mode,
        "n_bins": 4096,
        "n_trials": N_TRIALS if mode != "single" else 1,
        "min_s": stats.min,
        "mean_s": stats.mean,
        "median_s": stats.median,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }


@pytest.fixture(scope="module", autouse=True)
def _export_json():
    """Write BENCH_mechanisms.json once the module's benches have run.

    Only a complete run may overwrite the fresh record: a filtered
    (``-k``) or timing-disabled session leaves the existing file alone.
    """
    yield
    required = [
        (ds, algo, mode)
        for ds, algo in TRIAL_CASES
        for mode in ("sequential_trials", "batch_trials")
    ] + [("searchlogs", algo, "single") for algo in SINGLE_ALGORITHMS]
    if not all(key in _stats for key in required):
        return
    speedups: dict[str, dict[str, dict[str, float]]] = {}
    for (dataset, algorithm, mode) in list(_stats):
        if mode != "batch_trials":
            continue
        seq = _stats.get((dataset, algorithm, "sequential_trials"))
        bat = _stats[(dataset, algorithm, "batch_trials")]
        if seq is None:
            continue
        speedups.setdefault(dataset, {})[algorithm] = {
            "sequential_min_s": seq["min_s"],
            "batch_min_s": bat["min_s"],
            # Min-over-rounds is pytest-benchmark's primary statistic:
            # robust to scheduler noise, so it is the headline ratio.
            "speedup": seq["min_s"] / bat["min_s"],
            "speedup_median": seq["median_s"] / bat["median_s"],
            "speedup_mean": seq["mean_s"] / bat["mean_s"],
        }
    payload = {
        "description": (
            "Mechanism release throughput on 4096-bin DPBench histograms. "
            "'sequential_trials' is the paper's 10-trial protocol "
            "(spawn_rngs + one release per trial, stacked); 'batch_trials' "
            "is release_batch(hist, rng, 10) — the vectorized fast path. "
            "speedup_* = sequential time / batch time for the same "
            "10-trial workload."
        ),
        "protocol": {
            "n_bins": 4096,
            "n_trials": N_TRIALS,
            "epsilon": EPSILON,
            "ns_ratio": NS_RATIO,
            "datasets": {
                "adult": "sparsity 0.98 (sparse)",
                "searchlogs": "sparsity 0.51 (~168K non-sensitive records)",
            },
        },
        "speedup_batch_over_sequential": speedups,
        "benchmarks": sorted(
            _stats.values(),
            key=lambda r: (r["dataset"], r["algorithm"], r["mode"]),
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("algorithm", SINGLE_ALGORITHMS)
def test_release_throughput(benchmark, algorithm):
    hist = _hist("searchlogs")
    mech = make_mechanism(algorithm, epsilon=EPSILON, ns_ratio=NS_RATIO)
    rng = np.random.default_rng(99)
    out = benchmark(mech.release, hist, rng)
    assert out.shape == hist.x.shape
    _capture(benchmark, "searchlogs", algorithm, "single")


@pytest.mark.parametrize("dataset,algorithm", TRIAL_CASES)
def test_sequential_trials(benchmark, dataset, algorithm):
    """10 sequential release calls under the spawned-rng trial protocol."""
    hist = _hist(dataset)
    mech = make_mechanism(algorithm, epsilon=EPSILON, ns_ratio=NS_RATIO)

    def run():
        return np.stack(
            [mech.release(hist, rng) for rng in spawn_rngs(7, N_TRIALS)]
        )

    out = benchmark(run)
    assert out.shape == (N_TRIALS, hist.n_bins)
    _capture(benchmark, dataset, algorithm, "sequential_trials")


@pytest.mark.parametrize("dataset,algorithm", TRIAL_CASES)
def test_batch_trials(benchmark, dataset, algorithm):
    """The same 10 trials through the release_batch fast path."""
    hist = _hist(dataset)
    mech = make_mechanism(algorithm, epsilon=EPSILON, ns_ratio=NS_RATIO)

    def run():
        return mech.release_batch(hist, np.random.default_rng(7), N_TRIALS)

    out = benchmark(run)
    assert out.shape == (N_TRIALS, hist.n_bins)
    _capture(benchmark, dataset, algorithm, "batch_trials")
