"""The grouped inverse-CDF binomial kernel (dense-support fast path).

``binomial_support_rows`` must stay a drop-in for numpy's
``Generator.binomial`` on support counts: per-column marginals exactly
``Binomial(n_j, p)`` (chi-squared against the closed-form pmf, moment
checks at large ``n``), deterministic in the seed, and structurally
bounded (``0 <= k <= n``).  The dispatch between the table transform and
numpy's per-draw loop is a pure performance choice and must never
change the distribution.
"""

from __future__ import annotations

import sys
import threading
from math import comb

import numpy as np
import pytest

import repro.mechanisms.batch_sampling as bs
from repro.data.dpbench import generate_dpbench
from repro.mechanisms import kernels
from repro.mechanisms.batch_sampling import (
    _BINOM_WINDOW_SIGMAS,
    _binomial_windows,
    binomial_inverse_cdf_rows,
    binomial_support_rows,
    binomial_zero_rows,
)
from repro.mechanisms.osdp_rr import release_probability

EDGE = kernels._BINOM_U_EDGE


def _exact_pmf(n: int, p: float) -> np.ndarray:
    return np.array([comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])


class TestDistribution:
    @pytest.mark.parametrize("n,p", [(1, 0.632), (4, 0.095), (12, 0.632), (30, 0.39)])
    def test_small_n_chi_squared(self, n, p):
        """Empirical pmf vs the closed form, over every outcome."""
        draws = binomial_inverse_cdf_rows(
            np.random.default_rng(7), np.full(500, n), p, 400
        ).ravel()
        obs = np.bincount(draws.astype(int), minlength=n + 1)
        expected = _exact_pmf(n, p) * draws.size
        keep = expected > 5  # standard chi-squared applicability rule
        chi2 = float(((obs[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        # P(chi2 > dof + 6*sqrt(2*dof)) is ~1e-8; generous and stable.
        assert chi2 < dof + 6 * np.sqrt(2 * dof), (chi2, dof)

    @pytest.mark.parametrize("n", [84, 2_000, 28_000])
    def test_large_n_moments(self, n):
        p = 0.632
        draws = binomial_inverse_cdf_rows(
            np.random.default_rng(3), np.full(300, n), p, 300
        ).ravel()
        mean, var = n * p, n * p * (1 - p)
        z = (draws.mean() - mean) / np.sqrt(var / draws.size)
        assert abs(z) < 5.0
        assert 0.93 < draws.var() / var < 1.07

    def test_bounds_always_hold(self):
        counts = np.sort(np.random.default_rng(0).integers(1, 400, 64))
        draws = binomial_support_rows(
            np.random.default_rng(1), counts, 0.39, 50
        )
        assert np.all(draws >= 0)
        assert np.all(draws <= counts[np.newaxis, :])

    def test_columns_follow_their_count(self):
        """Each output column is driven by its own n_j."""
        counts = np.array([1, 1000])
        draws = binomial_support_rows(
            np.random.default_rng(2), counts, 0.5, 2000
        )
        assert draws[:, 0].max() <= 1
        assert draws[:, 1].mean() == pytest.approx(500, rel=0.05)


class TestDispatchAndDeterminism:
    def test_deterministic_in_seed(self):
        counts = np.sort(np.random.default_rng(0).integers(1, 300, 40))
        a = binomial_support_rows(np.random.default_rng(5), counts, 0.632, 8)
        b = binomial_support_rows(np.random.default_rng(5), counts, 0.632, 8)
        assert np.array_equal(a, b)

    def test_table_cache_does_not_change_draws(self):
        """The first (table-building) call and a later cache-hit call
        with the same seed produce identical matrices."""
        counts = np.sort(np.random.default_rng(1).integers(1, 500, 256))
        first = binomial_inverse_cdf_rows(
            np.random.default_rng(9), counts, 0.39, 10
        )
        again = binomial_inverse_cdf_rows(
            np.random.default_rng(9), counts, 0.39, 10
        )
        assert np.array_equal(first, again)

    def test_empty_support(self):
        out = binomial_support_rows(
            np.random.default_rng(0), np.empty(0, dtype=np.int64), 0.5, 3
        )
        assert out.shape == (3, 0)

    def test_needs_a_row(self):
        with pytest.raises(ValueError):
            binomial_support_rows(
                np.random.default_rng(0), np.array([3]), 0.5, 0
            )

    def test_degenerate_p_falls_back_exactly(self):
        counts = np.array([2, 5, 9])
        ones = binomial_support_rows(np.random.default_rng(0), counts, 1.0, 4)
        assert np.array_equal(ones, np.broadcast_to(counts, (4, 3)))

    def test_float64_rows(self):
        out = binomial_support_rows(
            np.random.default_rng(0), np.array([10, 20]), 0.3, 2
        )
        assert out.dtype == np.float64


class TestWindows:
    def test_windows_cover_the_mass(self):
        uniq = np.array([1, 10, 500, 30_000])
        lo, hi = _binomial_windows(uniq, 0.632)
        assert np.all(lo >= 0)
        assert np.all(hi <= uniq)
        assert np.all(lo <= hi)
        # truncated tail mass is negligible by construction
        sd = np.sqrt(uniq * 0.632 * (1 - 0.632))
        assert np.all((uniq * 0.632 - lo) >= np.minimum(
            _BINOM_WINDOW_SIGMAS * sd, uniq * 0.632
        ) - 1)

    def test_small_n_windows_cover_everything(self):
        lo, hi = _binomial_windows(np.array([1, 2, 3]), 0.5)
        assert np.array_equal(lo, [0, 0, 0])
        assert np.array_equal(hi, [1, 2, 3])


class TestPathDeterminism:
    def test_route_ignores_cache_state(self):
        """A seeded draw must not change because some earlier workload
        built a table for the same (counts, p): path selection is a
        pure function of the request."""
        counts = np.array([10_000])  # 1 draw, wide window -> BTPE route
        p = 0.25
        bs._binom_table_pool.clear()
        bs._binom_size_pool.clear()
        cold = binomial_support_rows(np.random.default_rng(11), counts, p, 1)
        # a big workload builds and caches the table for the same pair
        binomial_inverse_cdf_rows(np.random.default_rng(0), counts, p, 10)
        assert bs._binom_key(counts, p) in bs._binom_table_pool
        warm = binomial_support_rows(np.random.default_rng(11), counts, p, 1)
        assert np.array_equal(cold, warm)

    def test_pool_evicts_one_entry_not_all(self):
        bs._binom_table_pool.clear()
        for i in range(bs._MAX_BINOM_TABLES + 2):
            binomial_inverse_cdf_rows(
                np.random.default_rng(0), np.array([50 + i]), 0.5, 2
            )
        assert len(bs._binom_table_pool) == bs._MAX_BINOM_TABLES

    def test_concurrent_inserts_keep_the_pool_bounded(self):
        """Releases on several threads share the pools: an evict racing
        another thread's evict must neither raise nor overfill."""
        pool: dict = {}
        errors: list[BaseException] = []

        def insert(tid: int) -> None:
            try:
                for i in range(20_000):
                    bs._pool_insert(pool, (tid, i), i)
            except (KeyError, RuntimeError) as exc:
                errors.append(exc)

        threads = [threading.Thread(target=insert, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(pool) == bs._MAX_BINOM_TABLES


def _support_counts(dataset: str) -> np.ndarray:
    x = generate_dpbench(dataset, seed=1)
    return np.sort(x[x > 0]).astype(np.int64)


def _searchsorted_lookup(scaled, inverse, k_flat, u):
    """The reference inversion: one plain ``searchsorted`` (side="left")."""
    q = np.clip(u, EDGE, 1.0 - EDGE) + inverse
    idx = np.searchsorted(scaled, q.ravel(), side="left")
    return k_flat[idx].reshape(u.shape).astype(np.float64)


def _edge_uniforms(rng, scaled, inverse, n_rows):
    """Random rows, rows at both clamp edges, and rows whose lifted value
    is exactly an entry of the column's group (ties: side="left")."""
    m = len(inverse)
    edges = np.repeat([[0.0], [EDGE], [1.0 - EDGE], [1.0]], m, axis=1)
    # Group g owns the entries in (g, g + 1]; scaled - g is exact there.
    group = np.ceil(scaled).astype(np.int64) - 1
    first = np.searchsorted(group, inverse, side="left")
    width = np.searchsorted(group, inverse, side="right") - first
    pick = first + (rng.random((n_rows, m)) * width).astype(np.int64)
    on_entries = scaled[pick] - inverse
    assert np.array_equal(on_entries + inverse, scaled[pick])
    return np.concatenate([rng.random((n_rows, m)), edges, on_entries])


class TestGuidedLookup:
    """The guide table changes the cost of a draw, never its value."""

    @pytest.mark.parametrize("dataset", ["adult", "searchlogs"])
    @pytest.mark.parametrize("epsilon", [1e-6, 0.1, 1.0, 5.0])
    def test_equals_plain_searchsorted(self, dataset, epsilon):
        counts = _support_counts(dataset)
        inverse, scaled, k_flat, guide, cells, zero_cut = bs._binomial_table(
            counts, release_probability(epsilon)
        )
        u = _edge_uniforms(np.random.default_rng(2), scaled, inverse, 10)
        want = _searchsorted_lookup(scaled, inverse, k_flat, u)
        got = kernels.binomial_lookup(scaled, guide, cells, inverse, k_flat, u.copy())
        assert got.tobytes() == want.tobytes()
        zero = kernels.binomial_zero(zero_cut, inverse, u.copy())
        assert zero.tobytes() == (want == 0).tobytes()

    def test_a_wide_window_reaches_the_residual_searchsorted(self):
        """One n = 28,000 group at eps = 1: hundreds of left-tail entries
        share the first guide cell, so its queries cannot start at the
        answer and must come back from the residual pass."""
        counts = np.array([28_000])
        inverse, scaled, k_flat, guide, cells, _ = bs._binomial_table(
            counts, release_probability(1.0)
        )
        u = np.linspace(0.0, 2.0 / cells, 257)[:, np.newaxis]
        q = np.clip(u, EDGE, 1.0 - EDGE) + inverse
        start = guide[np.ceil(q * cells).astype(np.int64)].ravel()
        answer = np.searchsorted(scaled, q.ravel(), side="left")
        assert np.max(answer - start) > 100
        got = kernels.binomial_lookup(scaled, guide, cells, inverse, k_flat, u.copy())
        assert got.tobytes() == _searchsorted_lookup(scaled, inverse, k_flat, u).tobytes()


class TestZeroRows:
    """``binomial_zero_rows`` is ``binomial_support_rows(...) == 0`` on
    the same seed, whichever route the request takes."""

    @pytest.mark.parametrize("dataset", ["adult", "searchlogs"])
    @pytest.mark.parametrize("epsilon", [1e-7, 0.1, 1.0, 5.0])
    def test_table_route(self, dataset, epsilon):
        counts = _support_counts(dataset)
        p = release_probability(epsilon)
        assert bs._draws_by_table(counts, p, 10)
        got = binomial_zero_rows(np.random.default_rng(4), counts, p, 10)
        want = binomial_support_rows(np.random.default_rng(4), counts, p, 10) == 0
        assert got.dtype == bool
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [release_probability(1.0), 1.0])
    def test_numpy_route(self, p):
        counts = _support_counts("adult")
        assert not bs._draws_by_table(counts, p, 1)
        got = binomial_zero_rows(np.random.default_rng(4), counts, p, 1)
        want = binomial_support_rows(np.random.default_rng(4), counts, p, 1) == 0
        assert got.tobytes() == want.tobytes()

    def test_empty_support(self):
        out = binomial_zero_rows(
            np.random.default_rng(0), np.empty(0, dtype=np.int64), 0.5, 3
        )
        assert out.shape == (3, 0) and out.dtype == bool
