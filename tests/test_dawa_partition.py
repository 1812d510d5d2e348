"""Tests for DAWA stage 1: dyadic cost computation and partition DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms.dawa.partition import (
    DyadicCosts,
    DyadicScaffold,
    interval_deviation_cost,
    optimal_dyadic_partition,
    optimal_partition_batch,
    validate_partition,
)


def _one_trial_costs(x, epsilon1, rng) -> DyadicCosts:
    """Row 0 of a one-trial batch of eps1-DP noisy dyadic costs."""
    return DyadicScaffold(x).noisy_costs_batch(epsilon1, rng, 1).trial(0)


class TestDeviationCost:
    def test_constant_interval_costs_zero(self):
        assert interval_deviation_cost(np.full(8, 5.0)) == 0.0

    def test_single_bin_costs_zero(self):
        assert interval_deviation_cost(np.array([42.0])) == 0.0

    def test_known_value(self):
        # median of [0, 0, 10, 10] is 5 -> cost 20.
        assert interval_deviation_cost(np.array([0.0, 0.0, 10.0, 10.0])) == 20.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interval_deviation_cost(np.array([]))

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=16),
        st.integers(0, 15),
    )
    @settings(max_examples=60)
    def test_lipschitz_in_each_coordinate(self, values, index):
        """|dev(x) - dev(x +/- e_i)| <= 1 — the sensitivity argument
        behind the stage-1 noise calibration."""
        x = np.array(values, dtype=float)
        index = index % len(x)
        bumped = x.copy()
        bumped[index] += 1.0
        assert abs(
            interval_deviation_cost(x) - interval_deviation_cost(bumped)
        ) <= 1.0 + 1e-9


class TestNoisyCosts:
    def test_level_zero_is_exact_zero(self, rng):
        costs = _one_trial_costs(np.arange(8.0), 1.0, rng)
        assert np.all(costs.levels[0] == 0.0)

    def test_costs_clipped_non_negative(self, rng):
        costs = _one_trial_costs(np.zeros(64), 0.01, rng)
        for level in costs.levels:
            assert np.all(level >= 0.0)

    def test_level_shapes(self, rng):
        costs = _one_trial_costs(np.zeros(16), 1.0, rng)
        assert [len(level) for level in costs.levels] == [16, 8, 4, 2, 1]

    def test_pads_to_power_of_two(self, rng):
        costs = _one_trial_costs(np.zeros(12), 1.0, rng)
        assert costs.n == 16

    def test_epsilon_validation(self, rng):
        with pytest.raises(ValueError):
            _one_trial_costs(np.zeros(8), 0.0, rng)


class TestPartitionDP:
    def _exact_costs(self, x: np.ndarray) -> DyadicCosts:
        """Noise-free costs for deterministic DP testing."""
        n = len(x)
        levels = [np.zeros(n)]
        width = 2
        while width <= n:
            rows = x.reshape(-1, width)
            med = np.median(rows, axis=1, keepdims=True)
            levels.append(np.abs(rows - med).sum(axis=1))
            width *= 2
        return DyadicCosts(levels=tuple(levels))

    def test_uniform_data_merges_to_one_bucket(self):
        x = np.full(16, 9.0)
        buckets = optimal_dyadic_partition(self._exact_costs(x), bucket_penalty=1.0)
        assert buckets == [(0, 16)]

    def test_spiky_data_splits(self):
        x = np.zeros(16)
        x[3] = 1000.0
        x[11] = 800.0
        buckets = optimal_dyadic_partition(self._exact_costs(x), bucket_penalty=1.0)
        assert len(buckets) > 2

    def test_zero_penalty_splits_everything(self):
        x = np.arange(16.0)
        buckets = optimal_dyadic_partition(self._exact_costs(x), bucket_penalty=0.0)
        assert buckets == [(i, i + 1) for i in range(16)]

    def test_huge_penalty_merges_everything(self):
        x = np.arange(16.0)
        buckets = optimal_dyadic_partition(
            self._exact_costs(x), bucket_penalty=10_000.0
        )
        assert buckets == [(0, 16)]

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            optimal_dyadic_partition(self._exact_costs(np.zeros(4)), -1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_partition_always_tiles_domain(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 100))
        x = rng.poisson(4.0, size=n).astype(float)
        costs = DyadicScaffold(x).noisy_costs_batch(0.5, rng, 1)
        buckets = optimal_partition_batch(costs, bucket_penalty=2.0).clipped(n)[0]
        validate_partition(buckets, n)


class TestValidatePartition:
    def test_accepts_exact_tiling(self):
        validate_partition([(0, 3), (3, 8)], 8)

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            validate_partition([(0, 3), (4, 8)], 8)

    def test_rejects_short_coverage(self):
        with pytest.raises(ValueError):
            validate_partition([(0, 3)], 8)

    def test_rejects_empty_bucket(self):
        with pytest.raises(ValueError):
            validate_partition([(0, 0), (0, 8)], 8)
