"""Unit tests for the one-sided Laplace distribution (Definition 5.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.laplace import LaplaceDistribution
from repro.distributions.one_sided_laplace import OneSidedLaplace
from repro.mechanisms.batch_sampling import one_sided_rows


class TestValidation:
    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            OneSidedLaplace(scale=0.0)

    def test_ppf_rejects_zero(self):
        with pytest.raises(ValueError):
            OneSidedLaplace(scale=1.0).ppf(0.0)


class TestDensity:
    def test_no_mass_on_positive_reals(self):
        dist = OneSidedLaplace(scale=1.0)
        assert dist.pdf(0.5) == 0.0
        assert dist.pdf(100.0) == 0.0

    def test_density_formula_on_negatives(self):
        dist = OneSidedLaplace(scale=2.0)
        assert dist.pdf(-4.0) == pytest.approx(math.exp(-2.0) / 2.0)

    def test_pdf_integrates_to_one(self):
        dist = OneSidedLaplace(scale=0.8)
        grid = np.linspace(-40, 0, 400_001)
        assert np.trapezoid(dist.pdf(grid), grid) == pytest.approx(1.0, abs=1e-6)

    def test_log_pdf_neg_inf_on_positive(self):
        assert OneSidedLaplace(scale=1.0).log_pdf(1.0) == -math.inf

    def test_osdp_ratio_property(self):
        """Def 5.1 / Thm 5.2: shifting the location up by 1 multiplies the
        density by exactly e^(1/scale) wherever both are positive."""
        scale = 2.0
        dist = OneSidedLaplace(scale=scale)
        for y in np.linspace(-6.0, -0.5, 23):
            # density of y - x vs y - (x+1): ratio e^(1/scale)
            ratio = dist.pdf(y) / dist.pdf(y - 1.0)
            assert ratio == pytest.approx(math.exp(1.0 / scale))


class TestCdfPpfMoments:
    def test_cdf_at_zero_is_one(self):
        assert OneSidedLaplace(scale=3.0).cdf(0.0) == pytest.approx(1.0)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50)
    def test_ppf_inverts_cdf(self, q):
        dist = OneSidedLaplace(scale=0.9)
        assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_median_is_minus_scale_ln2(self):
        dist = OneSidedLaplace(scale=4.0)
        assert dist.median == pytest.approx(-4.0 * math.log(2.0))
        assert dist.cdf(dist.median) == pytest.approx(0.5)

    def test_mean_and_variance(self):
        dist = OneSidedLaplace(scale=2.5)
        assert dist.mean == pytest.approx(-2.5)
        assert dist.variance == pytest.approx(6.25)

    def test_variance_is_one_eighth_of_dp_histogram_noise(self):
        """Paper §5.1: OsdpLaplace noise has 1/8 the variance of the
        eps-DP histogram Laplace noise (sensitivity 2)."""
        epsilon = 0.7
        osdp = OneSidedLaplace(scale=1.0 / epsilon)
        dp = LaplaceDistribution(scale=2.0 / epsilon)
        assert osdp.variance == pytest.approx(dp.variance / 8.0)


class TestSampling:
    """The one sampler, ``one_sided_rows``, against the analytic form."""

    def test_samples_all_non_positive(self, rng):
        samples = one_sided_rows(rng, 1.0, np.zeros(1000), 10)
        assert np.all(samples <= 0.0)

    def test_sample_moments(self, rng):
        dist = OneSidedLaplace(scale=3.0)
        samples = one_sided_rows(rng, dist.scale, np.zeros(1000), 200)
        assert np.mean(samples) == pytest.approx(dist.mean, rel=0.03)
        assert np.var(samples) == pytest.approx(dist.variance, rel=0.05)
        assert np.median(samples) == pytest.approx(dist.median, rel=0.03)

    def test_helper_and_determinism(self):
        a = one_sided_rows(np.random.default_rng(3), 1.5, np.zeros(8), 1)
        b = one_sided_rows(np.random.default_rng(3), 1.5, np.zeros(8), 1)
        assert np.array_equal(a, b)
        assert np.all(a <= 0)


class TestScalarReturnNormalization:
    """Regression: scalar-like inputs must yield Python floats.

    ``np.isscalar`` misses 0-d arrays (and numpy scalar types on some
    numpy versions), which used to make ``pdf``/``log_pdf``/``cdf``/
    ``ppf`` return inconsistent types depending on how the scalar was
    spelled.
    """

    @pytest.mark.parametrize(
        "value",
        [-1.0, np.float64(-1.0), np.array(-1.0), np.int64(-1)],
        ids=["python-float", "np-float64", "zero-d-array", "np-int64"],
    )
    def test_scalar_like_inputs_return_floats(self, value):
        dist = OneSidedLaplace(scale=2.0)
        for method in (dist.pdf, dist.log_pdf, dist.cdf):
            out = method(value)
            assert type(out) is float, method.__name__

    @pytest.mark.parametrize(
        "q", [0.25, np.float64(0.25), np.array(0.25)],
        ids=["python-float", "np-float64", "zero-d-array"],
    )
    def test_ppf_scalar_like_inputs_return_floats(self, q):
        out = OneSidedLaplace(scale=2.0).ppf(q)
        assert type(out) is float

    def test_scalar_and_array_paths_agree(self):
        dist = OneSidedLaplace(scale=1.7)
        xs = np.array([-3.0, -0.5, 0.0, 1.2])
        for method in (dist.pdf, dist.log_pdf, dist.cdf):
            vector = method(xs)
            assert isinstance(vector, np.ndarray)
            for i, x in enumerate(xs):
                assert method(np.array(x)) == pytest.approx(
                    vector[i], nan_ok=True, abs=0.0
                ) or (np.isinf(vector[i]) and np.isinf(method(np.array(x))))

    def test_array_inputs_stay_arrays(self):
        dist = OneSidedLaplace(scale=1.0)
        for method in (dist.pdf, dist.log_pdf, dist.cdf):
            out = method(np.array([-1.0]))
            assert isinstance(out, np.ndarray) and out.shape == (1,)
