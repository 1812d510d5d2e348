"""Trial-vectorized DAWA stage 1: exact equivalence with the per-trial DP.

``noisy_costs_batch`` samples all trials' noisy cost levels as
``(n_trials, level)`` matrices and ``optimal_partition_batch`` runs the
partition Bellman recursion and the top-down selection once across
trials.  Given the *same* noisy
costs, the batched DP must choose exactly the buckets the per-trial
:func:`optimal_partition_array` chooses — float-op-for-float-op — which
is what these tests pin down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dpbench import generate_dpbench
from repro.mechanisms.dawa.dawa import Dawa
from repro.mechanisms.dawa.partition import (
    DyadicScaffold,
    TrialBuckets,
    optimal_partition_array,
    optimal_partition_batch,
    validate_partition,
)
from repro.mechanisms.dawaz import DawaZ
from repro.queries.histogram import HistogramInput


@pytest.fixture(scope="module")
def adult_x() -> np.ndarray:
    return generate_dpbench("adult", seed=1).astype(float)


class TestBatchCosts:
    def test_shapes_and_level0(self, adult_x):
        scaffold = DyadicScaffold(adult_x)
        costs = scaffold.noisy_costs_batch(0.5, np.random.default_rng(0), 7)
        assert costs.n_trials == 7
        assert costs.n == scaffold.n_padded
        assert len(costs.levels) == scaffold.n_levels
        # Level 0 (singletons) is exactly zero — data-independent, no
        # noise, no budget.
        assert not costs.levels[0].any()
        for level, matrix in enumerate(costs.levels):
            assert matrix.shape == (7, scaffold.n_padded >> level)
            assert (matrix >= 0.0).all()  # clipped like the scalar path

    def test_trial_view_round_trips(self, adult_x):
        scaffold = DyadicScaffold(adult_x)
        costs = scaffold.noisy_costs_batch(0.5, np.random.default_rng(1), 3)
        single = costs.trial(2)
        assert len(single.levels) == len(costs.levels)
        for level, matrix in enumerate(costs.levels):
            assert np.array_equal(single.levels[level], matrix[2])

    def test_rejects_bad_arguments(self, adult_x):
        scaffold = DyadicScaffold(adult_x)
        with pytest.raises(ValueError):
            scaffold.noisy_costs_batch(0.0, np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            scaffold.noisy_costs_batch(1.0, np.random.default_rng(0), 0)


class TestBatchPartitionExactEquivalence:
    @pytest.mark.parametrize("penalty", [0.0, 1.0, 4.0, 40.0])
    def test_matches_per_trial_path_bit_for_bit(self, adult_x, penalty):
        scaffold = DyadicScaffold(adult_x)
        costs = scaffold.noisy_costs_batch(0.5, np.random.default_rng(2), 6)
        batch = optimal_partition_batch(costs, penalty)
        assert len(batch) == 6
        for t in range(6):
            reference = optimal_partition_array(costs.trial(t), penalty)
            assert np.array_equal(batch[t], reference), f"trial {t}"

    def test_small_synthetic_domain(self):
        x = np.array([5.0, 5.0, 5.0, 5.0, 90.0, 0.0, 0.0, 1.0, 2.0])
        scaffold = DyadicScaffold(x)
        costs = scaffold.noisy_costs_batch(1.0, np.random.default_rng(3), 12)
        batch = optimal_partition_batch(costs, 2.0)
        for t in range(12):
            assert np.array_equal(
                batch[t], optimal_partition_array(costs.trial(t), 2.0)
            )

    def test_partitions_tile_the_padded_domain(self, adult_x):
        scaffold = DyadicScaffold(adult_x)
        costs = scaffold.noisy_costs_batch(0.5, np.random.default_rng(4), 4)
        for buckets in optimal_partition_batch(costs, 4.0):
            validate_partition(buckets, scaffold.n_padded)


class TestBatchedReleases:
    def test_release_with_partition_batch_results(self, adult_x):
        hist = HistogramInput(x=adult_x, x_ns=np.floor(adult_x * 0.6))
        dawa = Dawa(1.0)
        results = dawa.release_with_partition_batch(
            hist, np.random.default_rng(5), 5
        )
        assert len(results) == 5
        for result in results:
            assert result.estimate.shape == adult_x.shape
            validate_partition(result.buckets, len(adult_x))

    def test_dawa_batch_error_comparable_to_sequential(self, adult_x):
        hist = HistogramInput(x=adult_x, x_ns=np.floor(adult_x * 0.6))
        dawa = Dawa(1.0)
        batch = dawa.release_batch(hist, np.random.default_rng(6), 8)
        sequential = np.stack(
            [
                dawa.release(hist, np.random.default_rng(seed))
                for seed in range(8)
            ]
        )
        err_batch = np.abs(batch - adult_x).sum(axis=1).mean()
        err_seq = np.abs(sequential - adult_x).sum(axis=1).mean()
        assert err_batch == pytest.approx(err_seq, rel=0.5)

    def test_dawaz_batch_goes_through_vectorized_stage1(self, adult_x):
        hist = HistogramInput(x=adult_x, x_ns=np.floor(adult_x * 0.6))
        mech = DawaZ(1.0)
        out = mech.release_batch(hist, np.random.default_rng(7), 6)
        assert out.shape == (6, len(adult_x))
        assert np.isfinite(out).all()
        # Zero-detected bins release exact zeros; with rho=0.1 the
        # empty-support bins are always zeroed.
        empty = np.asarray(hist.x_ns) == 0
        assert (out[:, empty] == 0.0).all()


def _repeated(buckets, n_rows: int, n: int) -> TrialBuckets:
    """``n_rows`` trials that all chose ``buckets`` (offsets repeat)."""
    rows = np.tile(np.asarray(buckets, dtype=np.int64), (n_rows, 1))
    return TrialBuckets(rows, np.arange(n_rows + 1) * len(buckets), n)


class TestGroupedStage2:
    """Stage 2 over every trial's buckets in one flat pass — trials
    that share a stage-1 partition are the case where offsets repeat."""

    def test_uniform_bucket_estimate_trials_rows(self):
        from repro.mechanisms.dawa.estimate import (
            uniform_bucket_estimate_trials,
        )

        x = np.array([4.0, 9.0, 0.0, 0.0, 25.0, 1.0, 1.0, 1.0])
        buckets = [(0, 2), (2, 5), (5, 8)]
        rows = uniform_bucket_estimate_trials(
            x, _repeated(buckets, 400, len(x)), 2.0, np.random.default_rng(0)
        )
        assert rows.shape == (400, len(x))
        # uniform expansion: constant within each bucket, every trial
        for start, end in buckets:
            assert np.all(rows[:, start:end] == rows[:, start:start + 1])
        # each row distributed as one single-trial draw: compare
        # bucket-total means against 400 independently seeded trials
        reference = np.stack(
            [
                uniform_bucket_estimate_trials(
                    x, _repeated(buckets, 1, len(x)), 2.0, np.random.default_rng(s)
                )[0]
                for s in range(400)
            ]
        )
        assert np.allclose(
            rows.mean(axis=0), reference.mean(axis=0), atol=0.35
        )
        assert np.allclose(
            rows.std(axis=0), reference.std(axis=0), rtol=0.25
        )

    def test_gapped_buckets_are_rejected(self):
        from repro.mechanisms.dawa.estimate import (
            uniform_bucket_estimate_trials,
        )

        x = np.arange(6, dtype=float)
        gapped = [(0, 2), (4, 6)]  # does not tile the domain
        with pytest.raises(ValueError):
            uniform_bucket_estimate_trials(
                x, _repeated(gapped, 2, len(x)), 1.0, np.random.default_rng(3)
            )

    def test_grouped_release_preserves_trial_order_and_independence(
        self, adult_x
    ):
        hist = HistogramInput(x=adult_x, x_ns=adult_x)
        dawa = Dawa(0.05)  # noisy stage 1 -> repeated coarse partitions
        results = dawa.release_with_partition_batch(
            hist, np.random.default_rng(5), 12
        )
        assert len(results) == 12
        partitions = {}
        for result in results:
            validate_partition(
                [tuple(b) for b in np.asarray(result.buckets)], len(adult_x)
            )
            partitions.setdefault(
                np.asarray(result.buckets).tobytes(), []
            ).append(result)
        # trials sharing a partition must still be independent draws
        for group in partitions.values():
            for a, b in zip(group, group[1:]):
                assert not np.array_equal(a.estimate, b.estimate)

    def test_dawaz_batch_still_shaped_and_distinct(self, adult_x):
        hist = HistogramInput(x=adult_x, x_ns=np.minimum(adult_x, 50))
        rows = DawaZ(0.1).release_batch(hist, np.random.default_rng(2), 6)
        assert rows.shape == (6, len(adult_x))
        assert not np.array_equal(rows[0], rows[1])
