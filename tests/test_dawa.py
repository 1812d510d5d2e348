"""Tests for DAWA stage 2 and the end-to-end mechanism."""

import numpy as np
import pytest

from repro.core.guarantees import DPGuarantee
from repro.mechanisms.dawa import Dawa, hierarchical_estimate
from repro.mechanisms.dawa.estimate import uniform_bucket_estimate_trials
from repro.mechanisms.dawa.partition import TrialBuckets, validate_partition
from repro.mechanisms.laplace import LaplaceHistogram
from repro.queries.histogram import HistogramInput


def _trials(buckets, n_trials: int, n: int) -> TrialBuckets:
    """``n_trials`` trials that all chose ``buckets``."""
    rows = np.tile(np.asarray(buckets, dtype=np.int64), (n_trials, 1))
    return TrialBuckets(rows, np.arange(n_trials + 1) * len(buckets), n)


class TestUniformBucketEstimate:
    def test_preserves_bucket_structure(self, rng):
        x = np.array([10.0, 10.0, 0.0, 0.0])
        buckets = [(0, 2), (2, 4)]
        out = uniform_bucket_estimate_trials(x, _trials(buckets, 1, 4), 1000.0, rng)[0]
        assert out[0] == pytest.approx(out[1])
        assert out[2] == pytest.approx(out[3])
        assert out[0] == pytest.approx(10.0, abs=0.1)

    def test_noise_amortized_across_wide_buckets(self, rng):
        """Per-bin noise of a width-w bucket is total-noise / w."""
        x = np.zeros(1024)
        wide = _trials([(0, 1024)], 30, 1024)
        narrow = _trials([(i, i + 1) for i in range(1024)], 5, 1024)
        err_wide = np.abs(uniform_bucket_estimate_trials(x, wide, 1.0, rng)).mean()
        err_narrow = np.abs(uniform_bucket_estimate_trials(x, narrow, 1.0, rng)).mean()
        assert err_wide < err_narrow / 50

    def test_epsilon_validation(self, rng):
        with pytest.raises(ValueError):
            uniform_bucket_estimate_trials(np.zeros(4), _trials([(0, 4)], 1, 4), 0.0, rng)

    def test_negative_totals_clipped(self, rng):
        x = np.zeros(8)
        outs = uniform_bucket_estimate_trials(x, _trials([(0, 8)], 50, 8), 0.1, rng)
        assert np.all(outs >= 0.0)


class TestHierarchicalEstimate:
    def test_shape_preserved(self, rng):
        out = hierarchical_estimate(np.zeros(100), 1.0, rng)
        assert out.shape == (100,)

    def test_high_epsilon_accurate(self, rng):
        x = np.array([5.0, 1.0, 7.0, 3.0, 0.0, 0.0, 2.0, 9.0])
        out = hierarchical_estimate(x, 1000.0, rng)
        assert np.allclose(out, x, atol=0.5)

    def test_range_query_exact_at_high_epsilon(self, rng):
        from repro.mechanisms.dawa.estimate import HierarchicalHistogram

        x = rng.poisson(5, size=100).astype(float)
        tree = HierarchicalHistogram(10_000.0).fit(x, rng)
        for lo, hi in [(0, 100), (3, 17), (50, 51), (0, 1)]:
            assert tree.range_query(lo, hi) == pytest.approx(
                x[lo:hi].sum(), abs=1.0
            )

    def test_range_query_validation(self, rng):
        from repro.mechanisms.dawa.estimate import HierarchicalHistogram

        tree = HierarchicalHistogram(1.0).fit(np.zeros(10), rng)
        with pytest.raises(ValueError):
            tree.range_query(5, 5)
        with pytest.raises(ValueError):
            tree.range_query(-1, 5)

    def test_unfitted_tree_rejects_queries(self):
        from repro.mechanisms.dawa.estimate import HierarchicalHistogram

        with pytest.raises(RuntimeError):
            HierarchicalHistogram(1.0).range_query(0, 1)

    def test_prefix_queries_beat_identity_noise(self, rng):
        """Decomposed prefix answers accumulate polylog noise; identity
        per-bin noise accumulates with the prefix length."""
        from repro.mechanisms.dawa.estimate import HierarchicalHistogram

        n = 4096
        x = rng.poisson(10, size=n).astype(float)
        cuts = list(range(64, n + 1, 64))
        hier_errors, lap_errors = [], []
        for _ in range(5):
            tree = HierarchicalHistogram(1.0).fit(x, rng)
            hier_errors.append(
                np.mean(
                    [abs(tree.range_query(0, k) - x[:k].sum()) for k in cuts]
                )
            )
            flat_hist = HistogramInput(x=x, x_ns=np.zeros(n))
            noisy = LaplaceHistogram(1.0).release(flat_hist, rng)
            lap_errors.append(
                np.mean(
                    [abs(noisy[:k].sum() - x[:k].sum()) for k in cuts]
                )
            )
        assert np.mean(hier_errors) < np.mean(lap_errors)

    def test_epsilon_validation(self, rng):
        with pytest.raises(ValueError):
            hierarchical_estimate(np.zeros(8), -1.0, rng)

    def test_branching_validation(self):
        from repro.mechanisms.dawa.estimate import HierarchicalHistogram

        with pytest.raises(ValueError):
            HierarchicalHistogram(1.0, branching=1)


class TestDawaEndToEnd:
    def test_guarantee_is_dp(self):
        assert Dawa(0.7).guarantee == DPGuarantee(0.7)

    def test_budget_split(self):
        dawa = Dawa(1.0, split=0.25)
        assert dawa.epsilon1 == pytest.approx(0.25)
        assert dawa.epsilon2 == pytest.approx(0.75)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            Dawa(1.0, split=1.0)

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            Dawa(1.0, penalty_factor=0.0)

    def test_release_shape_and_partition_valid(self, rng):
        x = rng.poisson(5, size=200).astype(float)
        hist = HistogramInput(x=x, x_ns=np.zeros(200))
        result = Dawa(1.0).release_with_partition_batch(hist, rng, 1)[0]
        assert result.estimate.shape == (200,)
        validate_partition(result.buckets, 200)

    def test_beats_laplace_on_piecewise_constant_data(self, rng):
        """DAWA's defining behaviour: smooth regions get wide buckets."""
        x = np.concatenate([np.full(512, 100.0), np.zeros(512)])
        hist = HistogramInput(x=x, x_ns=np.zeros(1024))
        epsilon = 0.1
        dawa_err = np.mean(
            [
                np.abs(Dawa(epsilon).release(hist, rng) - x).sum()
                for _ in range(10)
            ]
        )
        lap_err = np.mean(
            [
                np.abs(LaplaceHistogram(epsilon).release(hist, rng) - x).sum()
                for _ in range(10)
            ]
        )
        assert dawa_err < lap_err / 3

    def test_ignores_x_ns(self, rng):
        """DAWA is a DP algorithm: its output must not depend on x_ns."""
        x = rng.poisson(5, size=64).astype(float)
        hist_a = HistogramInput(x=x, x_ns=np.zeros(64))
        hist_b = HistogramInput(x=x, x_ns=x.copy())
        out_a = Dawa(1.0).release(hist_a, np.random.default_rng(3))
        out_b = Dawa(1.0).release(hist_b, np.random.default_rng(3))
        assert np.array_equal(out_a, out_b)

    def test_deterministic_given_seed(self, rng):
        x = rng.poisson(5, size=64).astype(float)
        hist = HistogramInput(x=x, x_ns=np.zeros(64))
        a = Dawa(1.0).release(hist, np.random.default_rng(11))
        b = Dawa(1.0).release(hist, np.random.default_rng(11))
        assert np.array_equal(a, b)
