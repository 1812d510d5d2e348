"""Batched release (``release_batch``) equivalence and distribution tests.

Two contracts:

* **one release path** — ``release(hist, rng)`` is row 0 of
  ``release_batch(hist, rng, 1)``, bit for bit, for every mechanism;
  so the spawned per-trial protocol
  ``[m.release(h, g) for g in spawn_rngs(seed, n)]`` runs the batch
  code one row at a time, and a sequence of generators is rejected;
* **batch mode** — given a single generator, rows are iid draws of the
  release distribution: deterministic in the seed, structurally exact
  (support zeros, clipping, de-bias correction), and statistically
  indistinguishable from the spawned per-trial protocol on moments and
  quantiles.
"""

import numpy as np
import pytest

from repro.data.dpbench import generate_dpbench
from repro.data.sampling import m_sampling
from repro.evaluation.experiments.fig6_10_dpbench import make_mechanism
from repro.evaluation.runner import spawn_rngs
from repro.mechanisms.ahp import Ahp, AhpZ
from repro.mechanisms.dawaz import detect_zero_bins_batch
from repro.mechanisms.osdp_laplace import HybridOsdpLaplace, OsdpLaplaceL1Histogram
from repro.queries.histogram import HistogramInput

ALGORITHMS = (
    "laplace",
    "osdp_laplace",
    "osdp_laplace_l1",
    "osdp_rr",
    "dawa",
    "dawaz",
    "suppress10",
)
# The seven registry mechanisms plus suppress, ahp and ahpz.
EVERY_MECHANISM = ALGORITHMS + ("osdp_hybrid", "ahp", "ahpz")


def _any_mechanism(name: str, epsilon: float):
    extra = {"osdp_hybrid": HybridOsdpLaplace, "ahp": Ahp, "ahpz": AhpZ}
    if name in extra:
        return extra[name](epsilon)
    return make_mechanism(name, epsilon, ns_ratio=0.6)


@pytest.fixture(scope="module")
def hist():
    x = generate_dpbench("adult", seed=1).astype(float)
    x_ns = m_sampling(x, 0.6, np.random.default_rng(1)).x_ns.astype(float)
    return HistogramInput(x=x, x_ns=x_ns)


@pytest.fixture(scope="module")
def small_hist():
    x = np.array([40.0, 0.0, 7.0, 125.0, 0.0, 3.0, 18.0, 60.0])
    x_ns = np.array([25.0, 0.0, 7.0, 90.0, 0.0, 0.0, 11.0, 44.0])
    return HistogramInput(x=x, x_ns=x_ns)


def _value_policy(hist, mask):
    """``hist`` under a value policy: the ``mask`` bins are sensitive-only."""
    mask = np.asarray(mask, dtype=bool)
    x_ns = np.where(mask, 0.0, np.asarray(hist.x_ns))
    return HistogramInput(x=hist.x, x_ns=x_ns, sensitive_bin_mask=mask)


@pytest.fixture(scope="module")
def masked_hist(hist):
    return _value_policy(hist, np.arange(hist.n_bins) < hist.n_bins // 2)


@pytest.fixture(scope="module")
def masked_small_hist(small_hist):
    return _value_policy(small_hist, [1, 0, 0, 0, 0, 1, 0, 1])


class TestSpawnedStreamMode:
    """The spawned protocol is ``release`` per generator: one batch row."""

    @pytest.mark.parametrize("algorithm", EVERY_MECHANISM)
    def test_rows_equal_per_trial_release(self, masked_hist, algorithm):
        mech = _any_mechanism(algorithm, epsilon=1.0)
        rows = np.stack(
            [mech.release(masked_hist, rng) for rng in spawn_rngs(3, 5)]
        )
        reference = np.stack(
            [
                mech.release_batch(masked_hist, rng, 1)[0]
                for rng in spawn_rngs(3, 5)
            ]
        )
        assert rows.shape == (5, masked_hist.n_bins)
        assert rows.tobytes() == reference.tobytes()

    def test_generator_sequence_rejected(self, hist):
        mech = make_mechanism("laplace", epsilon=1.0)
        with pytest.raises(TypeError, match=r"for g in spawn_rngs\(seed, n\)"):
            mech.release_batch(hist, spawn_rngs(0, 3), 3)


class TestBatchMode:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_shape_and_determinism(self, hist, algorithm):
        mech = make_mechanism(algorithm, epsilon=1.0, ns_ratio=0.6)
        a = mech.release_batch(hist, np.random.default_rng(7), 4)
        b = mech.release_batch(hist, np.random.default_rng(7), 4)
        assert a.shape == (4, hist.n_bins)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rows_are_distinct_trials(self, hist, algorithm):
        mech = make_mechanism(algorithm, epsilon=1.0, ns_ratio=0.6)
        rows = mech.release_batch(hist, np.random.default_rng(8), 3)
        assert not np.array_equal(rows[0], rows[1])
        assert not np.array_equal(rows[1], rows[2])

    def test_n_trials_required_with_single_rng(self, hist):
        mech = make_mechanism("laplace", epsilon=1.0)
        with pytest.raises(TypeError):
            mech.release_batch(hist, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mech.release_batch(hist, np.random.default_rng(0), 0)

    def test_support_zeros_exact_for_clipped_mechanisms(self, small_hist):
        empty = np.asarray(small_hist.x_ns) == 0
        for algorithm in ("osdp_laplace_l1", "osdp_rr"):
            mech = make_mechanism(algorithm, epsilon=1.0)
            rows = mech.release_batch(small_hist, np.random.default_rng(2), 200)
            assert np.all(rows[:, empty] == 0.0), algorithm

    def test_unclipped_one_sided_noises_empty_bins(self, small_hist):
        mech = make_mechanism("osdp_laplace", epsilon=1.0)
        rows = mech.release_batch(small_hist, np.random.default_rng(2), 50)
        empty = np.asarray(small_hist.x_ns) == 0
        # Lap^- noise is strictly negative, so empty bins release < 0.
        assert np.all(rows[:, empty] < 0.0)


class TestBatchDistributions:
    """Moment/quantile agreement between one batch and spawned trials.

    Fixed seeds and generous-but-meaningful tolerances: these fail on
    real distributional bugs (wrong scale, missing de-bias, shifted
    sign convention), not on unlucky draws.
    """

    N = 4000

    def _noise_rows(self, algorithm, hist, n):
        mech = make_mechanism(algorithm, epsilon=1.0)
        return mech.release_batch(hist, np.random.default_rng(123), n)

    def test_laplace_moments_and_quantiles(self, small_hist):
        rows = self._noise_rows("laplace", small_hist, self.N)
        noise = rows - np.asarray(small_hist.x)
        assert abs(noise.mean()) < 0.05
        assert noise.std() == pytest.approx(np.sqrt(8.0), rel=0.03)

    def test_laplace_correct_under_32bit_bit_generator(self, small_hist):
        """Regression: MT19937's random_raw words carry only 32 random
        bits; the raw-bits kernel must not read such streams directly
        (half the noise lanes would collapse to ~zero)."""
        mech = make_mechanism("laplace", epsilon=1.0)
        rng = np.random.Generator(np.random.MT19937(0))
        rows = mech.release_batch(small_hist, rng, self.N)
        noise = rows - np.asarray(small_hist.x)
        assert noise.std() == pytest.approx(np.sqrt(8.0), rel=0.03)
        # Laplace(2) quartiles at +/- 2 ln 2.
        assert np.quantile(noise, 0.75) == pytest.approx(
            2.0 * np.log(2.0), rel=0.05
        )
        assert np.quantile(noise, 0.25) == pytest.approx(
            -2.0 * np.log(2.0), rel=0.05
        )

    def test_one_sided_moments(self, small_hist):
        rows = self._noise_rows("osdp_laplace", small_hist, self.N)
        noise = rows - np.asarray(small_hist.x_ns)
        assert np.all(noise <= 0.0)
        assert noise.mean() == pytest.approx(-1.0, rel=0.05)
        assert noise.std() == pytest.approx(1.0, rel=0.05)

    def test_tail_clamp_at_lattice_step(self, small_hist):
        """Regression: the log(0) guard must clamp to the uniform
        lattice step, not an arbitrary tiny value — otherwise the zero
        cell emits ~69-sigma outliers with probability 2^-23/variate."""
        one_sided = self._noise_rows("osdp_laplace", small_hist, self.N)
        noise = one_sided - np.asarray(small_hist.x_ns)
        assert noise.min() >= np.log(2.0**-24) - 1e-3  # scale = 1
        laplace = self._noise_rows("laplace", small_hist, self.N)
        noise = laplace - np.asarray(small_hist.x)
        # scale = 2; |2t| >= 2^-22 so |noise| <= 2 * 22 ln 2.
        assert np.abs(noise).max() <= 2.0 * 22.0 * np.log(2.0) + 1e-3

    def test_binomial_thinning_moments(self, small_hist):
        from repro.mechanisms.osdp_rr import OsdpRRHistogram

        mech = OsdpRRHistogram(epsilon=1.0)  # unscaled Binomial(x_ns, p)
        rows = mech.release_batch(small_hist, np.random.default_rng(123), self.N)
        p = 1.0 - np.exp(-1.0)
        x_ns = np.asarray(small_hist.x_ns)
        support = x_ns > 0
        expected = x_ns[support] * p
        var = x_ns[support] * p * (1.0 - p)
        assert np.allclose(
            rows[:, support].mean(axis=0), expected, rtol=0.08
        )
        assert np.allclose(
            rows[:, support].var(axis=0), var, rtol=0.25
        )

    def test_debias_matches_sequential_distribution(self, small_hist):
        mech = make_mechanism("osdp_laplace_l1", epsilon=1.0)
        batch = mech.release_batch(small_hist, np.random.default_rng(5), self.N)
        sequential = np.stack(
            [
                mech.release(small_hist, rng)
                for rng in spawn_rngs(5, 400)
            ]
        )
        support = np.asarray(small_hist.x_ns) > 0
        assert np.allclose(
            batch[:, support].mean(axis=0),
            sequential[:, support].mean(axis=0),
            rtol=0.05,
            atol=0.15,
        )

    def test_dawaz_batch_error_comparable(self, hist):
        mech = make_mechanism("dawaz", epsilon=1.0)
        batch = mech.release_batch(hist, np.random.default_rng(6), 6)
        sequential = np.stack(
            [mech.release(hist, rng) for rng in spawn_rngs(6, 6)]
        )
        x = np.asarray(hist.x)
        err_batch = np.abs(batch - x).sum(axis=1).mean()
        err_seq = np.abs(sequential - x).sum(axis=1).mean()
        assert err_batch == pytest.approx(err_seq, rel=0.5)


class TestHybridBatch:
    """Single-generator ``osdp_hybrid``: one L1 batch, one Laplace matrix."""

    def test_shape_determinism_and_distinct_rows(self, masked_hist):
        mech = HybridOsdpLaplace(epsilon=1.0)
        a = mech.release_batch(masked_hist, np.random.default_rng(7), 4)
        b = mech.release_batch(masked_hist, np.random.default_rng(7), 4)
        assert a.shape == (4, masked_hist.n_bins)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a)) and np.all(a >= 0.0)
        assert not np.array_equal(a[0], a[1])
        assert not np.array_equal(a[1], a[2])

    def test_matches_sequential_distribution(self, masked_small_hist):
        """Per-bin moments and quantiles against spawned ``release`` calls:
        Laplace(4) clipped at 0 on the sensitive-only bins, the L1
        treatment at scale 2 elsewhere, exact zeros on empty bins."""
        mech = HybridOsdpLaplace(epsilon=1.0)
        batch = mech.release_batch(masked_small_hist, np.random.default_rng(5), 4000)
        sequential = np.stack(
            [mech.release(masked_small_hist, rng) for rng in spawn_rngs(5, 2000)]
        )
        # Half the dp scale, a lost clip or a lost de-bias each move a
        # bin by > 1 in std, mean or a quantile; the widest sampling gap
        # at this seed is 0.6 of its tolerance.
        assert np.allclose(batch.mean(axis=0), sequential.mean(axis=0), atol=0.5)
        assert np.allclose(batch.std(axis=0), sequential.std(axis=0), rtol=0.15, atol=0.1)
        for q in (0.1, 0.5, 0.9):
            assert np.allclose(
                np.quantile(batch, q, axis=0),
                np.quantile(sequential, q, axis=0),
                atol=1.0,
            ), q
        empty = np.asarray(masked_small_hist.x) == 0
        assert np.all(batch[:, empty] == 0.0)

    def test_without_a_mask_it_is_the_l1_batch(self, hist):
        assert hist.sensitive_bin_mask is None
        hybrid = HybridOsdpLaplace(epsilon=1.0).release_batch(
            hist, np.random.default_rng(3), 4
        )
        l1 = OsdpLaplaceL1Histogram(1.0).release_batch(
            hist, np.random.default_rng(3), 4
        )
        assert hybrid.tobytes() == l1.tobytes()


class TestBatchZeroDetection:
    def test_empty_bins_always_detected(self, small_hist):
        masks = detect_zero_bins_batch(
            small_hist, 1.0, np.random.default_rng(0), 50
        )
        empty = np.asarray(small_hist.x_ns) == 0
        assert masks.shape == (50, small_hist.n_bins)
        assert np.all(masks[:, empty])

    @pytest.mark.parametrize("detector", ["osdp_rr", "osdp_laplace_l1"])
    def test_detection_rate_matches_sequential(self, small_hist, detector):
        """One 600-trial batch and 600 spawned one-trial batches detect
        zeros at the analytic rate: ``P[Binomial(x, 1 - e^-eps) = 0] =
        e^(-eps x)``, and ``P[x + Lap^-(1/eps) <= 0] = e^(-eps x)``."""
        batch = detect_zero_bins_batch(
            small_hist, 0.05, np.random.default_rng(1), 600, detector=detector
        )
        sequential = np.stack(
            [
                detect_zero_bins_batch(small_hist, 0.05, rng, 1, detector=detector)[0]
                for rng in spawn_rngs(1, 600)
            ]
        )
        analytic = np.exp(-0.05 * np.asarray(small_hist.x_ns))
        for rows in (batch, sequential):
            assert np.allclose(rows.mean(axis=0), analytic, atol=0.08)

    def test_unknown_detector_rejected(self, small_hist):
        with pytest.raises(ValueError):
            detect_zero_bins_batch(
                small_hist, 1.0, np.random.default_rng(0), 3, detector="nope"
            )
