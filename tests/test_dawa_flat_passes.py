"""DAWA/DAWAz batches: one sampler call, flat passes, a memoised scaffold.

A batch draws all of stage 1's noise with ``laplace_rows``, selects
every trial's buckets in one top-down sweep, and expands and
post-processes in the concatenated domain.  Pinned here:

* the draw is clipped Laplace around the exact costs and is
  reproducible under threads;
* given the same noisy costs and the same noise, the flat selection,
  expansion and zero post-processing equal per-trial references bit
  for bit;
* the scaffold memo lives and dies with the histogram instance it was
  built from, and never travels in a pickle.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.core.policy import OptInPolicy
from repro.data.columnar import ColumnarDatabase
from repro.distributions.laplace import LaplaceDistribution
from repro.mechanisms.batch_sampling import laplace_rows
from repro.mechanisms.dawa import partition as partition_mod
from repro.mechanisms.dawa.dawa import Dawa, DawaBatchResult, DawaResult
from repro.mechanisms.dawa.estimate import uniform_bucket_estimate_trials
from repro.mechanisms.dawa.partition import (
    DyadicScaffold,
    optimal_partition_array,
    optimal_partition_batch,
    scaffold_for,
    validate_partition,
)
from repro.mechanisms.dawaz import (
    DawaZ,
    apply_zero_postprocessing,
    apply_zero_postprocessing_trials,
)
from repro.queries.histogram import HistogramInput, IntegerBinning
from repro.service import ReleaseRequest, ReleaseServer
from tests.test_batch_sampling_threads import _hammer


def _counts(n_bins: int, seed: int = 0) -> np.ndarray:
    """Smooth runs with a few spikes: partitions of mixed widths."""
    rng = np.random.default_rng(seed)
    x = np.repeat(rng.integers(0, 40, -(-n_bins // 16)), 16)[:n_bins]
    x[rng.integers(0, n_bins, max(1, n_bins // 50))] += 300
    return x.astype(float)


# ----------------------------------------------------------------------
# The stage-1 draw
# ----------------------------------------------------------------------


class TestStage1Draw:
    @pytest.mark.parametrize("epsilon1", [0.5, 1e-5])
    def test_each_level_is_clipped_laplace_around_its_exact_costs(
        self, epsilon1
    ):
        """One-sample KS per level against ``max(exact + Lap(scale), 0)``.

        ``sqrt(n) * D < 3`` has false-alarm probability ~3e-8 per level
        (Kolmogorov tail ``2 exp(-2 * 9)``); the seed is fixed anyway.
        """
        scaffold = DyadicScaffold(_counts(64))
        n_trials = 4000
        costs = scaffold.noisy_costs_batch(
            epsilon1, np.random.default_rng(11), n_trials
        )
        noise = LaplaceDistribution(scale=2.0 * (scaffold.n_levels - 1) / epsilon1)
        for level in range(1, scaffold.n_levels):
            exact = scaffold.exact_levels[level]
            residual = np.sort((costs.levels[level] - exact).ravel())
            # Clipping moves the mass below -exact onto -exact; above
            # the largest exact cost the CDF is the plain Laplace one.
            tail = residual > -exact.min()
            cdf = noise.cdf(residual[tail])
            n = residual.size
            rank = np.flatnonzero(tail)
            d = max(
                np.abs((rank + 1) / n - cdf).max(),
                np.abs(rank / n - cdf).max(),
            )
            assert np.sqrt(n) * d < 3.0, (level, d)
            assert (costs.levels[level] >= 0.0).all()

    def test_level0_is_exactly_zero_and_never_sampled(self):
        scaffold = DyadicScaffold(_counts(9))
        costs = scaffold.noisy_costs_batch(0.5, np.random.default_rng(0), 5)
        assert not costs.levels[0].any()
        # Level 0 is a broadcast of the scaffold's own zeros, not a
        # slice of the drawn matrix.
        assert costs.levels[0].strides[0] == 0
        assert np.shares_memory(costs.levels[0], scaffold.exact_levels[0])
        drawn = sum(level.shape[1] for level in costs.levels[1:])
        assert drawn == scaffold.n_padded - 1

    def test_single_bin_domain_has_no_noisy_level(self):
        scaffold = DyadicScaffold(np.array([7.0]))
        assert scaffold.n_levels == 1
        costs = scaffold.noisy_costs_batch(1.0, np.random.default_rng(3), 4)
        assert [level.shape for level in costs.levels] == [(4, 1)]
        partitions = optimal_partition_batch(costs, 1.0)
        assert [p.tolist() for p in partitions] == [[[0, 1]]] * 4

    def test_same_seed_same_costs_from_concurrent_threads(self):
        scaffold = DyadicScaffold(_counts(3000))

        def draw(i: int) -> bytes:
            costs = scaffold.noisy_costs_batch(
                0.3, np.random.default_rng(900 + i % 2), 6
            )
            return b"".join(level.tobytes() for level in costs.levels[1:])

        serial = [draw(i) for i in range(8)]
        assert serial[0] == serial[2] and serial[0] != serial[1]
        for _ in range(4):
            assert _hammer(draw, 8) == serial

    def test_n_levels_is_exact_integer_arithmetic(self):
        for n, levels in ((1, 1), (2, 2), (9, 5), (4096, 13), (4097, 14)):
            assert DyadicScaffold(np.zeros(n)).n_levels == levels

    def test_exact_costs_are_read_only(self):
        scaffold = DyadicScaffold(_counts(16))
        for level in scaffold.exact_levels:
            with pytest.raises(ValueError):
                level[0] = 1.0


# ----------------------------------------------------------------------
# Flat selection, expansion and zero post-processing vs the references
# ----------------------------------------------------------------------

DOMAINS = [9, 3000, 4096]
# Mostly singletons, a mix, the root kept.
PENALTIES = [0.0, 4.0, 1e9]


def _batch(n_bins: int, n_trials: int, penalty: float, seed: int = 1):
    x = _counts(n_bins, seed)
    scaffold = DyadicScaffold(x)
    costs = scaffold.noisy_costs_batch(
        0.5, np.random.default_rng(seed), n_trials
    )
    partitions = optimal_partition_batch(costs, penalty)
    return x, scaffold, costs, partitions


class TestFlatSelection:
    @pytest.mark.parametrize("penalty", PENALTIES)
    @pytest.mark.parametrize("n_bins", DOMAINS)
    @pytest.mark.parametrize("n_trials", [1, 6])
    def test_equals_the_per_trial_walk_bit_for_bit(
        self, n_trials, n_bins, penalty
    ):
        _, _, costs, partitions = _batch(n_bins, n_trials, penalty)
        assert len(partitions) == n_trials
        for t in range(n_trials):
            reference = optimal_partition_array(costs.trial(t), penalty)
            assert partitions[t].dtype == reference.dtype
            assert np.array_equal(partitions[t], reference), f"trial {t}"

    @pytest.mark.parametrize("n_bins", DOMAINS)
    def test_the_penalties_span_fine_to_root(self, n_bins):
        fine, mixed, root = (
            len(_batch(n_bins, 6, penalty)[3].rows) for penalty in PENALTIES
        )
        assert fine > mixed > root == 6

    def test_items_are_views_and_index_like_a_sequence(self):
        _, _, _, partitions = _batch(3000, 6, 4.0)
        assert all(np.shares_memory(p, partitions.rows) for p in partitions)
        assert np.array_equal(partitions[-1], partitions[5])
        with pytest.raises(IndexError):
            partitions[6]
        assert sum(len(p) for p in partitions) == len(partitions.rows)

    @pytest.mark.parametrize("penalty", PENALTIES)
    def test_padded_domains_clip_per_trial(self, penalty):
        x, scaffold, _, partitions = _batch(3000, 6, penalty)
        clipped = partitions.clipped(len(x))
        assert clipped.n == 3000 and scaffold.n_padded == 4096
        for t in range(6):
            reference = partition_mod.clip_buckets_array(partitions[t], 3000)
            assert np.array_equal(clipped[t], reference)
            validate_partition(clipped[t], 3000)
        starts = clipped.flat_starts()
        assert starts[0] == 0 and (np.diff(starts) > 0).all()
        assert starts[-1] + clipped.widths[-1] == 6 * 3000


def _uniform_bucket_estimate(x, buckets, noise) -> np.ndarray:
    """Per-slice stage 2 of one trial: each bucket's total plus its
    noise, clipped at 0 and spread evenly over the bucket's bins."""
    estimate = np.empty_like(x)
    for (start, end), bucket_noise in zip(buckets, noise):
        total = max(x[start:end].sum() + bucket_noise, 0.0)
        estimate[start:end] = total / (end - start)
    return estimate


class TestFlatStage2:
    @pytest.mark.parametrize("penalty", PENALTIES)
    @pytest.mark.parametrize("n_bins", DOMAINS)
    def test_equals_uniform_bucket_estimate_per_trial(self, n_bins, penalty):
        x, _, _, partitions = _batch(n_bins, 6, penalty)
        partitions = partitions.clipped(n_bins)
        flat = uniform_bucket_estimate_trials(
            x, partitions, 0.25, np.random.default_rng(8)
        )
        # laplace_rows adds its noise to the base in one float64 add,
        # so the same seed over a zero base yields the bucket noise
        # itself, which the per-trial reference adds per slice.
        noise = laplace_rows(
            np.random.default_rng(8), 2.0 / 0.25, np.zeros(len(partitions.rows)), 1
        )[0]
        reference = np.stack(
            [
                _uniform_bucket_estimate(
                    x, buckets, noise[partitions.offsets[t] : partitions.offsets[t + 1]]
                )
                for t, buckets in enumerate(partitions)
            ]
        )
        assert flat.shape == (6, n_bins)
        assert flat.tobytes() == reference.tobytes()

    def test_buckets_that_do_not_tile_are_rejected(self):
        x, _, _, partitions = _batch(9, 3, 4.0)
        with pytest.raises(ValueError):  # still over the padded domain
            uniform_bucket_estimate_trials(
                x, partitions, 1.0, np.random.default_rng(0)
            )


def _zero_masks(estimates: np.ndarray, partitions, seed: int) -> np.ndarray:
    """Random zero sets, plus an all-zero bucket and an untouched one."""
    masks = np.random.default_rng(seed).random(estimates.shape) < 0.4
    for t, buckets in enumerate(partitions):
        (s0, e0), (s1, e1) = buckets[0], buckets[-1]
        masks[t, s0:e0] = True
        if len(buckets) > 1:
            masks[t, s1:e1] = False
    return masks


class TestFlatZeroPostprocessing:
    @pytest.mark.parametrize("penalty", PENALTIES)
    @pytest.mark.parametrize("n_bins", DOMAINS)
    def test_equals_apply_zero_postprocessing_per_trial(self, n_bins, penalty):
        x, _, _, partitions = _batch(n_bins, 6, penalty)
        partitions = partitions.clipped(n_bins)
        estimates = uniform_bucket_estimate_trials(
            x, partitions, 0.25, np.random.default_rng(9)
        )
        batch = DawaBatchResult(estimates=estimates, partitions=partitions)
        masks = _zero_masks(estimates, partitions, seed=10)
        flat = apply_zero_postprocessing_trials(batch, masks)
        reference = np.stack(
            [
                apply_zero_postprocessing(batch[t], masks[t])
                for t in range(len(batch))
            ]
        )
        assert flat.tobytes() == reference.tobytes()
        assert not flat[masks].any()
        # Mass moves within a bucket, never across: a bucket keeps its
        # total unless every bin of it was zeroed.
        starts = partitions.flat_starts()
        before = np.add.reduceat(estimates.ravel(), starts)
        after = np.add.reduceat(flat.ravel(), starts)
        emptied = np.add.reduceat(masks.ravel().astype(int), starts) == partitions.widths
        assert emptied.any()
        if penalty != 1e9:  # the root bucket is the emptied one there
            assert not emptied.all()
        assert not after[emptied].any()
        assert np.allclose(after[~emptied], before[~emptied], rtol=1e-12, atol=1e-9)

    def test_batch_items_are_per_trial_results(self):
        hist = HistogramInput(x=_counts(3000), x_ns=np.zeros(3000))
        batch = Dawa(1.0).release_with_partition_batch(
            hist, np.random.default_rng(4), 5
        )
        assert len(batch) == 5 and len(list(batch)) == 5
        for t, result in enumerate(batch):
            assert isinstance(result, DawaResult)
            assert np.shares_memory(result.estimate, batch.estimates)
            assert np.shares_memory(result.buckets, batch.partitions.rows)
            validate_partition(result.buckets, 3000)
            assert np.array_equal(result.estimate, batch.estimates[t])


# ----------------------------------------------------------------------
# Memo lifetime
# ----------------------------------------------------------------------


class TestScaffoldMemo:
    def test_one_scaffold_per_histogram_instance(self):
        x = _counts(64)
        a = HistogramInput(x=x, x_ns=np.zeros(64))
        b = HistogramInput(x=x.copy(), x_ns=np.zeros(64))
        assert scaffold_for(a) is scaffold_for(a)
        assert scaffold_for(a) is not scaffold_for(b)  # equal counts, own memo

    def test_release_paths_build_the_scaffold_once(self, monkeypatch):
        built = []
        init = DyadicScaffold.__init__

        def counting_init(self, x):
            built.append(len(x))
            init(self, x)

        monkeypatch.setattr(DyadicScaffold, "__init__", counting_init)
        hist = HistogramInput(x=_counts(64), x_ns=np.zeros(64))
        Dawa(1.0).release_batch(hist, np.random.default_rng(0), 3)
        DawaZ(1.0).release_batch(hist, np.random.default_rng(1), 3)
        Dawa(0.5).release(hist, np.random.default_rng(2))
        assert built == [64]

    def test_memo_never_travels_and_dies_with_the_histogram(self):
        hist = HistogramInput(x=_counts(64), x_ns=np.zeros(64))
        size = len(pickle.dumps(hist))
        live = len(partition_mod._scaffolds)
        Dawa(1.0).release_batch(hist, np.random.default_rng(0), 2)
        assert len(partition_mod._scaffolds) == live + 1
        assert len(pickle.dumps(hist)) == size
        clone = pickle.loads(pickle.dumps(hist))
        assert scaffold_for(clone) is not scaffold_for(hist)
        del hist, clone
        gc.collect()
        assert len(partition_mod._scaffolds) == live

    def test_duck_typed_histograms_build_afresh(self):
        class Duck:
            x = _counts(16)
            x_ns = np.zeros(16)

        live = len(partition_mod._scaffolds)
        assert scaffold_for(Duck) is not scaffold_for(Duck)
        assert len(partition_mod._scaffolds) == live

    def test_racing_readers_get_equal_scaffolds(self):
        hist = HistogramInput(x=_counts(3000), x_ns=np.zeros(3000))
        scaffolds = _hammer(lambda i: scaffold_for(hist), 8)
        winner = scaffold_for(hist)
        for scaffold in scaffolds:
            for mine, theirs in zip(scaffold.exact_levels, winner.exact_levels):
                assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("mechanism", ["dawa", "dawaz"])
    def test_release_after_a_write_uses_the_new_counts(self, mechanism):
        """The carried-counts path with a DAWA request: a seeded release
        before and after append/expire equals the same release on a
        cold server over the rebuilt table."""
        rng = np.random.default_rng(6)

        def rows(n):
            return [
                {"age": int(a), "opt_in": bool(o)}
                for a, o in zip(rng.integers(0, 64, n), rng.integers(0, 2, n))
            ]

        request = ReleaseRequest(
            mechanism,
            0.5,
            binning=IntegerBinning("age", 0, 64, 64),
            policy=OptInPolicy(),
            n_trials=4,
            seed=77,
        )

        def cold(table):
            server = ReleaseServer(ColumnarDatabase.from_records(table).shard(2))
            return server.handle(request).estimates

        table = rows(400)
        server = ReleaseServer(ColumnarDatabase.from_records(table).shard(2))
        assert np.array_equal(server.handle(request).estimates, cold(table))
        extra = rows(150)
        server.append_records(extra)
        table = table + extra
        appended = server.handle(request).estimates
        assert np.array_equal(appended, cold(table))
        server.expire_prefix(120)
        table = table[120:]
        expired = server.handle(request).estimates
        assert np.array_equal(expired, cold(table))
        assert server.stats.counts_carried > 0
        assert not np.array_equal(appended, expired)
