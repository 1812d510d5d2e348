"""Tests for AHP-lite and its recipe instantiation AhpZ."""

import numpy as np
import pytest

from repro.core.guarantees import DPGuarantee, OSDPGuarantee
from repro.mechanisms.ahp import Ahp, AhpZ
from repro.queries.histogram import HistogramInput


class TestAhp:
    def test_guarantee(self):
        assert Ahp(0.8).guarantee == DPGuarantee(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ahp(1.0, split=0.0)
        with pytest.raises(ValueError):
            Ahp(1.0, cluster_width=0.0)

    def test_release_shape(self, small_hist, rng):
        out = Ahp(1.0).release(small_hist, rng)
        assert out.shape == small_hist.x.shape

    def test_clusters_partition_domain(self, rng):
        x = rng.poisson(10, size=128).astype(float)
        hist = HistogramInput(x=x, x_ns=np.zeros(128))
        result = Ahp(1.0).release_with_partition(hist, rng)
        indices = np.concatenate(result.clusters)
        assert sorted(indices.tolist()) == list(range(128))

    def test_similar_scattered_values_clustered_together(self, rng):
        """AHP's strength over DAWA: equal values at distant bins share
        a cluster.  The band is ``cluster_width`` noise scales wide, so
        at the default width 2 the three noisy copies split about half
        the time; at width 8 they share a cluster >99% of the time."""
        x = np.zeros(64)
        x[[3, 40, 61]] = 1000.0
        hist = HistogramInput(x=x, x_ns=np.zeros(64))
        result = Ahp(5.0, cluster_width=8.0).release_with_partition(hist, rng)
        containing = [
            frozenset(c.tolist()) for c in result.clusters if 3 in c
        ]
        assert containing and {40, 61} <= set(containing[0])

    def test_accurate_at_high_epsilon(self, rng):
        x = np.zeros(64)
        x[[3, 40, 61]] = 1000.0
        hist = HistogramInput(x=x, x_ns=np.zeros(64))
        out = Ahp(100.0).release(hist, rng)
        assert np.abs(out - x).sum() < 0.05 * x.sum()

    def test_ignores_x_ns(self, rng):
        x = rng.poisson(5, size=32).astype(float)
        a = Ahp(1.0).release(
            HistogramInput(x=x, x_ns=np.zeros(32)), np.random.default_rng(1)
        )
        b = Ahp(1.0).release(
            HistogramInput(x=x, x_ns=x.copy()), np.random.default_rng(1)
        )
        assert np.array_equal(a, b)


class TestAhpZ:
    def test_guarantee_is_osdp(self):
        mech = AhpZ(1.0)
        assert isinstance(mech.guarantee, OSDPGuarantee)
        assert mech.guarantee.epsilon == pytest.approx(1.0)

    def test_budget_split(self):
        mech = AhpZ(1.0, rho=0.2)
        assert mech.epsilon_zero == pytest.approx(0.2)
        assert mech.dp_algorithm.epsilon == pytest.approx(0.8)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            AhpZ(1.0, rho=0.0)

    def test_zero_injection(self, rng):
        x = np.zeros(128)
        x[::8] = 500.0
        hist = HistogramInput(x=x, x_ns=x.copy())
        out = AhpZ(2.0).release(hist, rng)
        empty = x == 0
        assert np.mean(out[empty] == 0.0) > 0.9

    def test_beats_plain_ahp_on_sparse_confident_input(self, rng):
        """The typical (median) L1 error falls; the errors are
        heavy-tailed, so a mean over a few trials is a coin flip."""
        x = np.zeros(512)
        x[::32] = 300.0
        hist = HistogramInput(x=x, x_ns=x.copy())
        eps = 0.2
        ahpz_err = np.median(
            np.abs(AhpZ(eps).release_batch(hist, rng, 32) - x).sum(axis=1)
        )
        ahp_err = np.median(
            np.abs(Ahp(eps).release_batch(hist, rng, 32) - x).sum(axis=1)
        )
        assert ahpz_err < ahp_err

    def test_release_shape(self, small_hist, rng):
        assert AhpZ(1.0).release(small_hist, rng).shape == small_hist.x.shape
