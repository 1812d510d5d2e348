"""Tests for DAWAz (Algorithm 3) and the generic OSDP recipe."""

import numpy as np
import pytest

from repro.core.guarantees import OSDPGuarantee
from repro.mechanisms.dawa import Dawa, DawaResult
from repro.mechanisms.dawaz import (
    DawaZ,
    TwoPhaseOsdpRecipe,
    apply_zero_postprocessing,
    detect_zero_bins_batch,
)
from repro.queries.histogram import HistogramInput


def _zero_set(hist, epsilon, rng, detector="osdp_rr"):
    """One trial's zero set: row 0 of a one-trial batch."""
    return detect_zero_bins_batch(hist, epsilon, rng, 1, detector=detector)[0]


class TestZeroDetection:
    def test_empty_bins_always_in_zero_set(self, rng):
        x = np.array([0.0, 50.0, 0.0, 50.0])
        hist = HistogramInput(x=x, x_ns=x.copy())
        mask = _zero_set(hist, epsilon=1.0, rng=rng)
        assert mask[0] and mask[2]

    def test_large_counts_rarely_zeroed(self, rng):
        x = np.full(64, 500.0)
        hist = HistogramInput(x=x, x_ns=x.copy())
        mask = _zero_set(hist, epsilon=1.0, rng=rng)
        assert not mask.any()

    def test_osdp_laplace_detector(self, rng):
        x = np.array([0.0, 500.0])
        hist = HistogramInput(x=x, x_ns=x.copy())
        mask = _zero_set(
            hist, epsilon=1.0, rng=rng, detector="osdp_laplace_l1"
        )
        assert mask[0]
        assert not mask[1]

    def test_unknown_detector_rejected(self, rng, small_hist):
        with pytest.raises(ValueError):
            _zero_set(small_hist, 1.0, rng, detector="nope")

    def test_uses_only_x_ns(self, rng):
        """Sensitive-only bins look empty to the detector (they must —
        the zero set is computed under OSDP from non-sensitive data)."""
        x = np.array([100.0, 100.0])
        x_ns = np.array([0.0, 100.0])
        hist = HistogramInput(x=x, x_ns=x_ns)
        mask = _zero_set(hist, epsilon=5.0, rng=rng)
        assert mask[0]
        assert not mask[1]


class TestZeroPostprocessing:
    def test_zeroed_bins_are_zero(self):
        result = DawaResult(
            estimate=np.array([5.0, 5.0, 5.0, 5.0]), buckets=[(0, 4)]
        )
        out = apply_zero_postprocessing(result, np.array([True, False, False, True]))
        assert out[0] == 0.0 and out[3] == 0.0

    def test_bucket_mass_preserved(self):
        """Line 9's rescale: the bucket total is redistributed, not lost."""
        result = DawaResult(
            estimate=np.array([5.0, 5.0, 5.0, 5.0]), buckets=[(0, 4)]
        )
        out = apply_zero_postprocessing(result, np.array([True, False, False, True]))
        assert out.sum() == pytest.approx(20.0)
        assert out[1] == pytest.approx(10.0)

    def test_fully_zeroed_bucket(self):
        result = DawaResult(estimate=np.array([3.0, 3.0]), buckets=[(0, 2)])
        out = apply_zero_postprocessing(result, np.array([True, True]))
        assert np.all(out == 0.0)

    def test_untouched_bucket_unchanged(self):
        result = DawaResult(
            estimate=np.array([1.0, 2.0, 7.0, 8.0]), buckets=[(0, 2), (2, 4)]
        )
        out = apply_zero_postprocessing(
            result, np.array([False, False, False, False])
        )
        assert np.array_equal(out, result.estimate)

    def test_mask_shape_validated(self):
        result = DawaResult(estimate=np.zeros(4), buckets=[(0, 4)])
        with pytest.raises(ValueError):
            apply_zero_postprocessing(result, np.zeros(3, dtype=bool))

    def test_multiple_buckets_independent(self):
        result = DawaResult(
            estimate=np.array([4.0, 4.0, 10.0, 10.0]), buckets=[(0, 2), (2, 4)]
        )
        out = apply_zero_postprocessing(
            result, np.array([True, False, False, False])
        )
        assert out[1] == pytest.approx(8.0)
        assert out[2] == pytest.approx(10.0)  # second bucket untouched


class TestDawaZ:
    def test_guarantee_total_epsilon(self):
        mech = DawaZ(epsilon=1.0, rho=0.1)
        assert isinstance(mech.guarantee, OSDPGuarantee)
        assert mech.guarantee.epsilon == pytest.approx(1.0)

    def test_budget_split(self):
        mech = DawaZ(epsilon=2.0, rho=0.25)
        assert mech.epsilon_zero == pytest.approx(0.5)
        assert mech.epsilon_dp == pytest.approx(1.5)
        assert mech.dp_algorithm.epsilon == pytest.approx(1.5)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            DawaZ(epsilon=1.0, rho=1.0)

    def test_release_shape(self, small_hist, rng):
        out = DawaZ(1.0).release(small_hist, rng)
        assert out.shape == small_hist.x.shape

    def test_zero_bins_forced_to_zero(self, rng):
        """Sparse input with confident non-sensitive mass: DAWAz must
        release exact zeros where x_ns is empty and large counts where
        it is not."""
        x = np.zeros(256)
        x[::16] = 400.0
        hist = HistogramInput(x=x, x_ns=x.copy())
        out = DawaZ(epsilon=2.0).release(hist, rng)
        empty = x == 0.0
        assert np.mean(out[empty] == 0.0) > 0.9

    def test_beats_dawa_on_sparse_data(self, rng):
        """The paper's headline: zero-injection slashes error on sparse
        histograms (Fig 9a's 25x improvements)."""
        x = np.zeros(1024)
        x[::64] = 200.0
        hist = HistogramInput(x=x, x_ns=x.copy())
        epsilon = 0.1
        dawaz_err = np.mean(
            [np.abs(DawaZ(epsilon).release(hist, rng) - x).sum() for _ in range(8)]
        )
        dawa_err = np.mean(
            [np.abs(Dawa(epsilon).release(hist, rng) - x).sum() for _ in range(8)]
        )
        assert dawaz_err < dawa_err

    def test_recipe_with_custom_dp_factory(self, small_hist, rng):
        recipe = TwoPhaseOsdpRecipe(
            epsilon=1.0,
            dp_factory=lambda eps: Dawa(eps, split=0.3),
            rho=0.2,
        )
        out = recipe.release(small_hist, rng)
        assert out.shape == small_hist.x.shape
        assert recipe.dp_algorithm.split == pytest.approx(0.3)

    def test_laplace_l1_detector_variant(self, small_hist, rng):
        mech = DawaZ(1.0, zero_detector="osdp_laplace_l1")
        out = mech.release(small_hist, rng)
        assert out.shape == small_hist.x.shape
