"""Unit tests for the (two-sided) Laplace distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.laplace import LaplaceDistribution
from repro.mechanisms.batch_sampling import laplace_rows


class TestValidation:
    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            LaplaceDistribution(scale=0.0)

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            LaplaceDistribution(scale=-1.0)

    def test_ppf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LaplaceDistribution(scale=1.0).ppf(1.5)


class TestDensity:
    def test_pdf_peak_at_location(self):
        dist = LaplaceDistribution(scale=2.0, loc=3.0)
        assert dist.pdf(3.0) == pytest.approx(1.0 / 4.0)

    def test_pdf_symmetric(self):
        dist = LaplaceDistribution(scale=1.5)
        assert dist.pdf(2.0) == pytest.approx(dist.pdf(-2.0))

    def test_pdf_integrates_to_one(self):
        dist = LaplaceDistribution(scale=0.7)
        grid = np.linspace(-30, 30, 200_001)
        integral = np.trapezoid(dist.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_log_pdf_consistent_with_pdf(self):
        dist = LaplaceDistribution(scale=0.5, loc=-1.0)
        xs = np.array([-3.0, -1.0, 0.0, 2.0])
        assert np.allclose(dist.log_pdf(xs), np.log(dist.pdf(xs)))

    def test_privacy_ratio_bound(self):
        """Densities at points 1 apart differ by at most e^(1/scale)."""
        scale = 2.0
        dist = LaplaceDistribution(scale=scale)
        for x in np.linspace(-5, 5, 101):
            ratio = dist.pdf(x) / dist.pdf(x + 1.0)
            assert ratio <= math.exp(1.0 / scale) * (1 + 1e-12)


class TestCdfPpf:
    def test_cdf_at_location_is_half(self):
        assert LaplaceDistribution(scale=3.0, loc=1.0).cdf(1.0) == pytest.approx(0.5)

    def test_cdf_monotone(self):
        dist = LaplaceDistribution(scale=1.0)
        grid = np.linspace(-10, 10, 101)
        values = dist.cdf(grid)
        assert np.all(np.diff(values) >= 0)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50)
    def test_ppf_inverts_cdf(self, q):
        dist = LaplaceDistribution(scale=1.7, loc=0.3)
        assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-9)


class TestMoments:
    def test_variance_formula(self):
        assert LaplaceDistribution(scale=3.0).variance == pytest.approx(18.0)

    def test_expected_abs_equals_scale(self):
        assert LaplaceDistribution(scale=2.5).expected_abs == pytest.approx(2.5)

    def test_sample_moments(self, rng):
        """The one sampler, ``laplace_rows``, against the analytic moments."""
        dist = LaplaceDistribution(scale=2.0)
        samples = laplace_rows(rng, dist.scale, np.zeros(1000), 200)
        assert np.mean(samples) == pytest.approx(dist.mean, abs=0.05)
        assert np.var(samples) == pytest.approx(dist.variance, rel=0.05)
        assert np.mean(np.abs(samples)) == pytest.approx(dist.expected_abs, rel=0.03)


class TestSampling:
    """``laplace_rows``: shapes, location and seeding."""

    def test_scalar_sample(self):
        """A scalar release is one row over a one-bin base."""
        from repro.mechanisms.laplace import LaplaceMechanism

        out = laplace_rows(np.random.default_rng(5), 1.0, [3.0], 1)
        assert out.shape == (1, 1) and out.dtype == np.float64
        value = LaplaceMechanism(1.0, 1.0).release(3.0, np.random.default_rng(5))
        assert type(value) is float and value == out[0, 0]

    def test_shaped_sample(self, rng):
        out = laplace_rows(rng, 1.0, np.zeros(4), 3)
        assert out.shape == (3, 4)

    def test_helper_matches_distribution(self):
        """The base is the location: rows are ``base + noise`` in one
        float64 add, the noise a zero base draws under the same seed."""
        base = np.array([5.0, 0.0, 123.0, 7.0])
        noisy = laplace_rows(np.random.default_rng(4), 0.5, base, 6)
        noise = laplace_rows(np.random.default_rng(4), 0.5, np.zeros(4), 6)
        assert noisy.tobytes() == (base + noise).tobytes()

    def test_deterministic_given_seed(self):
        a = laplace_rows(np.random.default_rng(7), 1.0, np.zeros(5), 1)
        b = laplace_rows(np.random.default_rng(7), 1.0, np.zeros(5), 1)
        assert np.array_equal(a, b)


class TestScalarReturnNormalization:
    """Regression: 0-d arrays and numpy scalars return Python floats."""

    @pytest.mark.parametrize(
        "value",
        [0.5, np.float64(0.5), np.array(0.5)],
        ids=["python-float", "np-float64", "zero-d-array"],
    )
    def test_scalar_like_inputs_return_floats(self, value):
        dist = LaplaceDistribution(scale=2.0)
        for method in (dist.pdf, dist.log_pdf, dist.cdf, dist.ppf):
            assert type(method(value)) is float, method.__name__

    def test_array_inputs_stay_arrays(self):
        dist = LaplaceDistribution(scale=2.0)
        for method in (dist.pdf, dist.log_pdf, dist.cdf, dist.ppf):
            out = method(np.array([0.5]))
            assert isinstance(out, np.ndarray) and out.shape == (1,)

    def test_mechanism_release_scalar_normalization(self):
        from repro.mechanisms.laplace import LaplaceMechanism

        mech = LaplaceMechanism(epsilon=1.0, sensitivity=1.0)
        for value in (3.0, np.float64(3.0), np.array(3.0)):
            out = mech.release(value, np.random.default_rng(0))
            assert type(out) is float
        out = mech.release(np.array([3.0, 4.0]), np.random.default_rng(0))
        assert isinstance(out, np.ndarray)
