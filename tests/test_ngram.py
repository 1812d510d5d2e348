"""Tests for sparse n-gram counting and truncation (§6.2)."""

import numpy as np
import pytest

from repro.data.tippers import Trajectory
from repro.queries.ngram import (
    NGramCounter,
    SparseHistogram,
    sparse_mre,
    truncate_trajectory_grams,
)


def make_trajectory(aps, user_id=0, day=0):
    return Trajectory(
        user_id=user_id, day=day, slots=tuple((i, ap) for i, ap in enumerate(aps))
    )


class TestSparseHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseHistogram(counts={}, domain_size=0)

    def test_lookup_defaults_to_zero(self):
        hist = SparseHistogram(counts={(1, 2): 3.0}, domain_size=100)
        assert hist[(1, 2)] == 3.0
        assert hist[(9, 9)] == 0.0

    def test_zero_cells_and_total(self):
        hist = SparseHistogram(counts={(1,): 2.0, (2,): 3.0}, domain_size=10)
        assert hist.n_zero_cells == 8
        assert hist.total == 5.0


class TestTruncation:
    def test_no_truncation(self):
        t = make_trajectory([1, 2, 3, 4])
        grams = truncate_trajectory_grams(t, 2, None)
        assert grams == [(1, 2), (2, 3), (3, 4)]

    def test_truncation_keeps_first_k(self):
        t = make_trajectory([1, 2, 3, 4])
        grams = truncate_trajectory_grams(t, 2, 2)
        assert grams == [(1, 2), (2, 3)]

    def test_invalid_k(self):
        t = make_trajectory([1, 2, 3])
        with pytest.raises(ValueError):
            truncate_trajectory_grams(t, 2, 0)

    def test_distinctness_before_truncation(self):
        t = make_trajectory([1, 2, 1, 2, 1])
        grams = truncate_trajectory_grams(t, 2, 10)
        assert len(grams) == len(set(grams))


class TestNGramCounter:
    def test_counts_trajectories_not_occurrences(self):
        """A trajectory containing an n-gram twice contributes once."""
        counter = NGramCounter(n=2, n_aps=8)
        hist = counter.count([make_trajectory([1, 2, 1, 2])])
        assert hist[(1, 2)] == 1.0

    def test_multiple_trajectories_accumulate(self):
        counter = NGramCounter(n=2, n_aps=8)
        hist = counter.count(
            [make_trajectory([1, 2, 3], user_id=0), make_trajectory([1, 2], user_id=1)]
        )
        assert hist[(1, 2)] == 2.0
        assert hist[(2, 3)] == 1.0

    def test_domain_size(self):
        assert NGramCounter(n=4, n_aps=64).domain_size == 64.0**4

    def test_sensitivity_with_truncation(self):
        assert NGramCounter(n=3, truncation=5).l1_sensitivity == 10.0

    def test_sensitivity_without_truncation_is_domain(self):
        counter = NGramCounter(n=2, n_aps=8)
        assert counter.l1_sensitivity == 64.0

    def test_truncated_counts_bounded(self):
        counter = NGramCounter(n=2, n_aps=8, truncation=1)
        hist = counter.count([make_trajectory([1, 2, 3, 4])])
        assert hist.total == 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            NGramCounter(n=0)


class TestSparseMre:
    def _truth(self):
        return SparseHistogram(counts={(1,): 10.0, (2,): 4.0}, domain_size=100)

    def test_perfect_estimate_zero_error(self):
        truth = self._truth()
        assert sparse_mre(truth, {(1,): 10.0, (2,): 4.0}) == 0.0

    def test_support_mode_normalizes_by_support(self):
        truth = self._truth()
        # Both cells wrong by 100%: MRE = 1.
        assert sparse_mre(truth, {}) == pytest.approx(1.0)

    def test_full_mode_includes_zero_cells(self):
        truth = self._truth()
        mre = sparse_mre(
            truth, {}, domain="full", expected_abs_noise_on_zeros=2.0
        )
        # 2 support cells at rel error 1 each + 98 zero cells at 2 each.
        assert mre == pytest.approx((2.0 + 98 * 2.0) / 100.0)

    def test_spurious_estimate_cells_counted(self):
        truth = self._truth()
        mre = sparse_mre(truth, {(1,): 10.0, (2,): 4.0, (3,): 5.0})
        # Cell (3,) has |0 - 5| / max(0, 1) = 5, averaged over 3 cells.
        assert mre == pytest.approx(5.0 / 3.0)

    def test_delta_floor(self):
        truth = SparseHistogram(counts={(1,): 0.5}, domain_size=10)
        assert sparse_mre(truth, {}, delta=1.0) == pytest.approx(0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sparse_mre(self._truth(), {}, domain="galaxy")


class TestColumnarCounting:
    """count_columnar == count, gram for gram, truncation included."""

    def _random_trajectories(self, seed, n=60, n_aps=9):
        rng = np.random.default_rng(seed)
        trajs = []
        for i in range(n):
            length = int(rng.integers(1, 12))
            aps = rng.integers(0, n_aps, length)
            trajs.append(make_trajectory(aps.tolist(), user_id=i))
        return trajs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("truncation", [None, 1, 2, 5])
    def test_matches_row_counting(self, n, truncation):
        from repro.data.columnar import ColumnarDatabase
        from repro.data.tippers import trajectory_columns

        trajs = self._random_trajectories(seed=n * 10 + (truncation or 0))
        db = ColumnarDatabase(trajectory_columns(trajs))
        counter = NGramCounter(n=n, n_aps=9, truncation=truncation)
        assert counter.count_columnar(db).counts == counter.count(trajs).counts

    def test_short_records_yield_no_windows(self):
        from repro.data.columnar import ColumnarDatabase
        from repro.data.tippers import trajectory_columns

        trajs = [make_trajectory([1]), make_trajectory([2, 3])]
        db = ColumnarDatabase(trajectory_columns(trajs))
        counter = NGramCounter(n=3, n_aps=8)
        assert counter.count_columnar(db).counts == {}

    def test_invalid_truncation_and_ap_range(self):
        from repro.data.columnar import ColumnarDatabase
        from repro.data.tippers import trajectory_columns

        db = ColumnarDatabase(trajectory_columns([make_trajectory([1, 2])]))
        with pytest.raises(ValueError):
            NGramCounter(n=2, n_aps=8, truncation=0).count_columnar(db)
        with pytest.raises(ValueError, match="AP values"):
            NGramCounter(n=2, n_aps=2).count_columnar(db)


class TestColumnarPolicyConstruction:
    """policy_for_fraction_columnar replays the row greedy exactly."""

    def _dataset(self):
        from repro.data.tippers import TippersConfig, generate_tippers

        return generate_tippers(TippersConfig(n_users=80, n_days=12, seed=5))

    def test_ap_coverage_matches(self):
        from repro.data.tippers import ap_coverage_columnar

        dataset = self._dataset()
        coverage = dataset.ap_coverage()
        columnar = ap_coverage_columnar(
            dataset.columnar(), dataset.config.n_aps
        )
        assert [coverage[ap] for ap in range(dataset.config.n_aps)] == list(
            columnar
        )

    @pytest.mark.parametrize("rho", [99, 75, 50, 10, 1])
    def test_same_chosen_ap_set_and_name(self, rho):
        from repro.data.tippers import policy_for_fraction_columnar

        dataset = self._dataset()
        row = dataset.policy_for_fraction(rho)
        col = policy_for_fraction_columnar(
            dataset.columnar(), rho, dataset.config.n_aps
        )
        assert col.to_spec() == row.to_spec()  # the AP set and the name

    def test_percent_validation(self):
        from repro.data.tippers import policy_for_fraction_columnar

        with pytest.raises(ValueError):
            policy_for_fraction_columnar(self._dataset().columnar(), 0, 64)


class TestStreamIdentity:
    """The columnar experiment pipeline == the row pipeline, bit for bit.

    The ROADMAP-leftover satellite: the n-gram benchmarks now consume
    generate_tippers_columnar; this is the test that the migration
    cannot have changed a single reported number.
    """

    def test_columnar_experiment_bit_identical_to_rows(self):
        from dataclasses import replace

        from repro.data.tippers import TippersConfig
        from repro.evaluation.experiments.fig2_3_ngrams import (
            NGramConfig,
            run_ngram_experiment,
        )

        config = NGramConfig(
            tippers=TippersConfig(n_users=60, n_days=10, seed=7),
            n=3,
            policies=(90, 50, 10),
            epsilons=(1.0, 0.01),
            truncation_sweep=(1, 2),
            n_trials=2,
        )
        assert config.columnar  # columnar is the default path
        columnar = run_ngram_experiment(config)
        rows = run_ngram_experiment(replace(config, columnar=False))
        # dict equality on floats == bit identity, the strongest form
        assert columnar == rows
