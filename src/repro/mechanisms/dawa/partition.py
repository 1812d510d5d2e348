"""DAWA stage 1: private data-aware partition selection.

The partition quality of a bucket ``b`` is its L1 deviation cost
``dev(b) = min_c sum_{i in b} |x_i - c|`` (minimized by the median): the
bias a uniform within-bucket estimate incurs.  Stage 1 picks a partition
minimizing ``sum_b [dev(b) + penalty]`` where the per-bucket penalty
models stage 2's noise cost.

To make the selection private we follow the original DAWA's
power-of-two restriction, but over the *aligned* dyadic tree: candidate
buckets are the nodes of a binary tree over the (zero-padded) domain.
Each bin belongs to exactly one interval per level, and ``dev`` is
1-Lipschitz in each count, so a bounded-DP replacement (two bins change
by one) perturbs the full cost vector by at most 2 per level.  Adding
``Lap(2 * n_levels / eps1)`` noise to every interval cost therefore
yields an ``eps1``-DP view of all costs, after which the partition
choice is post-processing: an exact bottom-up dynamic program chooses
split-vs-merge at every node.

Performance notes.  The exact deviation costs are data-dependent but
*request-independent*, so :class:`DyadicScaffold` computes them once
per histogram (shared zero-padding, prefix sums for interval totals,
and ``np.partition`` lower-half sums instead of per-row medians: for an
even-width sorted interval, ``dev = total - 2 * sum(lower half)``) and
:func:`scaffold_for` keeps the scaffold with the histogram it
describes, so a release pays only fresh noise.  A batch draws every
trial's noise in one kernel call, runs the Bellman recursion and the
top-down selection once across trials, and hands stage 2 all trials'
buckets as one flat array (:class:`TrialBuckets`).
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.mechanisms.batch_sampling import laplace_rows
from repro.queries.histogram import HistogramInput

Bucket = tuple[int, int]  # half-open [start, end)


def interval_deviation_cost(values: np.ndarray) -> float:
    """``min_c sum |v - c|``, attained at the median."""
    if len(values) == 0:
        raise ValueError("cannot compute deviation of an empty interval")
    med = float(np.median(values))
    return float(np.abs(np.asarray(values, dtype=float) - med).sum())


def _next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (bit arithmetic, no loop)."""
    return 1 << max(0, n - 1).bit_length()


@dataclass(frozen=True)
class DyadicCosts:
    """Noisy deviation costs for every dyadic interval.

    ``levels[k]`` holds the costs of intervals of length ``2**k`` in
    left-to-right order; level 0 (singletons) has exact zero cost — the
    deviation of a single bin is identically zero, independent of the
    data, so it needs no noise and no budget.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.levels[0])

    def cost(self, level: int, index: int) -> float:
        return float(self.levels[level][index])


@dataclass(frozen=True)
class BatchDyadicCosts:
    """Noisy dyadic costs for many trials at once.

    ``levels[k]`` is an ``(n_trials, n_intervals_k)`` matrix — trial
    ``t``'s costs for level ``k`` in row ``t``.  :meth:`trial` views one
    row set as an ordinary :class:`DyadicCosts`, which is how the exact
    per-trial equivalence of the batched partition DP is tested.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def n_trials(self) -> int:
        return self.levels[0].shape[0]

    @property
    def n(self) -> int:
        return self.levels[0].shape[1]

    def trial(self, t: int) -> DyadicCosts:
        return DyadicCosts(levels=tuple(level[t] for level in self.levels))


class DyadicScaffold:
    """Exact dyadic deviation costs, reusable across noise trials.

    For an interval of even width ``w`` with sorted values ``v``,
    ``dev = sum_{i >= w/2} v_i - sum_{i < w/2} v_i = total - 2 * lower``
    where ``lower`` is the sum of the smallest ``w/2`` values (any value
    between the two central order statistics is an L1 median).
    ``np.partition`` delivers the lower half without a full sort, and
    the interval totals at every level come from one shared prefix-sum
    array over the padded domain.

    Instances are shared across requests and threads
    (:func:`scaffold_for`), so every attribute — ``n_original``,
    ``n_padded``, ``n_levels``, ``exact_levels`` and the arrays in it —
    is immutable after ``__init__``: the arrays are marked read-only
    and the sampling methods only read them.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float).reshape(-1)
        self.n_original = len(x)
        n = _next_power_of_two(self.n_original)
        padded = np.zeros(n)
        padded[: self.n_original] = x
        self.n_padded = n
        self.n_levels = n.bit_length()

        prefix = np.concatenate([[0.0], np.cumsum(padded)])
        # Levels 1.. live side by side in one array — the base of the
        # one-call batch draw — and ``exact_levels[1:]`` are its slices.
        flat = np.empty(n - 1)
        levels: list[np.ndarray] = [np.zeros(n)]
        start = 0
        for level in range(1, self.n_levels):
            width = 1 << level
            half = width >> 1
            rows = padded.reshape(-1, width)
            part = np.partition(rows, half - 1, axis=1)
            lower = part[:, :half].sum(axis=1)
            totals = np.diff(prefix[::width])
            exact = flat[start : start + len(totals)]
            np.subtract(totals, 2.0 * lower, out=exact)
            levels.append(exact)
            start += len(totals)
        for array in (*levels, flat):
            array.setflags(write=False)
        self._exact_flat = flat
        self.exact_levels: tuple[np.ndarray, ...] = tuple(levels)

    def noisy_costs_batch(
        self, epsilon1: float, rng: np.random.Generator, n_trials: int
    ) -> BatchDyadicCosts:
        """``n_trials`` independent ``eps1``-DP noisy cost sets in one pass.

        One :func:`repro.mechanisms.batch_sampling.laplace_rows` call
        draws every level of every trial — the raw-bits kernel, its
        thread-local bit generator and scratch, as for the ``laplace``
        mechanism — and the levels are column views of that one matrix.
        Level 0 is data-independent and gets no noise.
        """
        if epsilon1 <= 0:
            raise ValueError("epsilon1 must be positive")
        if n_trials < 1:
            raise ValueError("need at least one trial")
        noisy_levels = self.n_levels - 1
        scale = 2.0 * max(noisy_levels, 1) / epsilon1
        noisy = laplace_rows(rng, scale, self._exact_flat, n_trials)
        # True deviation costs are non-negative; clipping is
        # post-processing and prevents the partition DP's min-selection
        # from accumulating spuriously negative noise down the tree
        # (which would shatter smooth regions into singleton buckets).
        np.maximum(noisy, 0.0, out=noisy)
        levels: list[np.ndarray] = [
            np.broadcast_to(self.exact_levels[0], (n_trials, self.n_padded))
        ]
        start = 0
        for exact in self.exact_levels[1:]:
            levels.append(noisy[:, start : start + len(exact)])
            start += len(exact)
        return BatchDyadicCosts(levels=tuple(levels))


# Scaffolds of live histograms, keyed by ``id`` and dropped by a
# finalizer when the histogram dies.  Not an attribute of the histogram:
# ``HistogramInput`` pickles its ``__dict__``, and the memo must not
# travel with it.
_scaffolds: dict[int, DyadicScaffold] = {}


def scaffold_for(hist) -> DyadicScaffold:
    """The scaffold of ``hist.x``, built once per histogram instance.

    Only frozen :class:`~repro.queries.histogram.HistogramInput`
    instances are memoised: their counts cannot change, and every
    append/expire/carry builds a new instance, so the memo dies with
    the counts it describes.  Two readers racing on a fresh histogram
    build two identical immutable scaffolds and one wins (the
    ``_binom_table_pool`` rule).  Any other ``hist`` builds afresh.
    """
    if not isinstance(hist, HistogramInput):
        return DyadicScaffold(hist.x)
    key = id(hist)
    scaffold = _scaffolds.get(key)
    if scaffold is None:
        scaffold = DyadicScaffold(hist.x)
        weakref.finalize(hist, _scaffolds.pop, key, None).atexit = False
        _scaffolds[key] = scaffold
    return scaffold


def _select_buckets(keep: Sequence[np.ndarray], n_roots: int = 1) -> np.ndarray:
    """Top-down bucket selection from per-level keep/split decisions.

    One vectorized pass per level: nodes whose subtree optimum keeps
    them whole emit buckets, the rest expand into their children for
    the next level down.  ``keep[level][i]`` is True when interval ``i``
    of that level stays a single bucket.  The top level holds
    ``n_roots`` intervals: one tree, or a batch's trials side by side
    (node ``i``'s children are ``2i`` and ``2i + 1`` either way).
    """
    n_levels = len(keep)
    pieces: list[np.ndarray] = []
    active = np.arange(n_roots, dtype=np.int64)
    for level in range(n_levels - 1, -1, -1):
        if active.size == 0:
            break
        kept_mask = keep[level][active]
        kept = active[kept_mask]
        if kept.size:
            width = 1 << level
            pieces.append(
                np.stack([kept * width, (kept + 1) * width], axis=1)
            )
        children = active[~kept_mask]
        active = np.repeat(children * 2, 2)
        active[1::2] += 1
    arr = np.concatenate(pieces) if pieces else np.empty((0, 2), dtype=np.int64)
    return arr[np.argsort(arr[:, 0], kind="stable")]


def optimal_partition_array(
    costs: DyadicCosts, bucket_penalty: float
) -> np.ndarray:
    """Exact DP over the dyadic tree: minimize sum of cost + penalty.

    Post-processing of the noisy costs.  For each node, keeping it as a
    single bucket costs ``noisy_dev + penalty``; splitting costs the sum
    of the children's optima.  Returns the chosen buckets as an
    ``(k, 2)`` int64 array of ``[start, end)`` rows, left to right over
    the padded domain.

    Both the bottom-up DP and the top-down selection walk are level
    sweeps over whole index arrays — no per-node Python dispatch, which
    is what makes thousand-bucket partitions cheap.
    """
    if bucket_penalty < 0:
        raise ValueError("bucket_penalty must be non-negative")
    n = costs.n
    n_levels = len(costs.levels)

    # best[i] = optimal cost for the subtree rooted at interval i of the
    # level below; keep[level][i] = True when the node stays whole.
    best = np.asarray(costs.levels[0]) + bucket_penalty
    keep: list[np.ndarray] = [np.ones(n, dtype=bool)]
    for level in range(1, n_levels):
        whole = np.asarray(costs.levels[level]) + bucket_penalty
        split = best[0::2] + best[1::2]
        keep.append(whole <= split)
        best = np.minimum(whole, split, out=split)

    return _select_buckets(keep)


class TrialBuckets(Sequence):
    """Every trial's buckets of one batch, stored flat.

    ``rows`` is one ``(K, 2)`` int64 array of ``[start, end)`` rows in
    per-trial coordinates, trial-major and left to right; trial ``t``
    owns ``rows[offsets[t]:offsets[t + 1]]``, and ``self[t]`` is that
    view.  Each trial's rows tile ``[0, n)``, so in the concatenated
    ``n_trials * n`` domain all ``K`` rows tile it too — which is what
    lets stage 2 and DAWAz's post-processing run one ``reduceat`` over
    every trial (:meth:`flat_starts`).
    """

    def __init__(self, rows: np.ndarray, offsets: np.ndarray, n: int):
        self.rows = rows
        self.offsets = offsets
        self.n = n

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, trial: int) -> np.ndarray:
        trial = range(len(self))[trial]
        return self.rows[self.offsets[trial] : self.offsets[trial + 1]]

    @property
    def widths(self) -> np.ndarray:
        return self.rows[:, 1] - self.rows[:, 0]

    def flat_starts(self) -> np.ndarray:
        """Bucket starts in the concatenated ``n_trials * n`` domain."""
        shift = np.arange(len(self), dtype=np.int64) * self.n
        return self.rows[:, 0] + np.repeat(shift, np.diff(self.offsets))

    def clipped(self, n: int) -> "TrialBuckets":
        """Every trial restricted to ``[0, n)`` (:func:`clip_buckets_array`)."""
        if n == self.n:
            return self
        kept_before = np.concatenate([[0], np.cumsum(self.rows[:, 0] < n)])
        return TrialBuckets(
            clip_buckets_array(self.rows, n), kept_before[self.offsets], n
        )


def optimal_partition_batch(
    costs: BatchDyadicCosts, bucket_penalty: float
) -> TrialBuckets:
    """The partition DP for every trial in one sweep up and one down.

    The Bellman recursion runs on ``(n_trials, n_intervals)`` matrices —
    the per-trial float operations are elementwise-identical to
    :func:`optimal_partition_array` on that trial's cost rows — and the
    top-down selection walks the ravelled keep masks with every trial's
    root active, so each level is one step for the whole batch and the
    chosen buckets match the per-trial path exactly.  Returns the
    trials' buckets over the padded domain.
    """
    if bucket_penalty < 0:
        raise ValueError("bucket_penalty must be non-negative")
    n_trials, n = costs.n_trials, costs.n
    best = costs.levels[0] + bucket_penalty  # (n_trials, n)
    keep: list[np.ndarray] = [np.ones(best.size, dtype=bool)]
    for level in range(1, len(costs.levels)):
        whole = costs.levels[level] + bucket_penalty
        split = best[:, 0::2] + best[:, 1::2]
        keep.append((whole <= split).ravel())
        best = np.minimum(whole, split, out=split)
    rows = _select_buckets(keep, n_roots=n_trials)
    bounds = np.arange(n_trials + 1, dtype=np.int64) * n
    offsets = np.searchsorted(rows[:, 0], bounds)
    rows -= np.repeat(bounds[:-1], np.diff(offsets))[:, np.newaxis]
    return TrialBuckets(rows, offsets, n)


def optimal_dyadic_partition(
    costs: DyadicCosts, bucket_penalty: float
) -> list[Bucket]:
    """List-of-tuples form of :func:`optimal_partition_array`."""
    return [
        tuple(pair)
        for pair in optimal_partition_array(costs, bucket_penalty).tolist()
    ]


def clip_buckets_array(arr: np.ndarray, n: int) -> np.ndarray:
    """Restrict buckets of the padded domain to the original length."""
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 2)
    kept = arr[arr[:, 0] < n]
    np.minimum(kept[:, 1], n, out=kept[:, 1])
    return kept


def buckets_tile_domain(
    starts: np.ndarray, ends: np.ndarray, n: int
) -> bool:
    """True when ``[start, end)`` rows exactly tile ``[0, n)`` in order.

    The contiguity predicate shared by the reduceat-based fast paths
    (stage 2's estimate, DAWAz's zero postprocessing).
    """
    return bool(
        len(starts)
        and starts[0] == 0
        and ends[-1] == n
        and np.array_equal(starts[1:], ends[:-1])
    )


def validate_partition(buckets, n: int) -> None:
    """Raise unless buckets exactly tile ``[0, n)`` in order.

    Accepts a list of ``(start, end)`` tuples or an ``(k, 2)`` array.
    """
    if len(buckets) == 0:
        if n != 0:
            raise ValueError(f"buckets cover [0, 0), expected [0, {n})")
        return
    arr = np.asarray(buckets, dtype=np.int64).reshape(-1, 2)
    starts, ends = arr[:, 0], arr[:, 1]
    expected = np.concatenate([[0], ends[:-1]])
    bad = (starts != expected) | (ends <= starts)
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(
            f"buckets do not tile the domain at {int(starts[first])}"
        )
    if ends[-1] != n:
        raise ValueError(
            f"buckets cover [0, {int(ends[-1])}), expected [0, {n})"
        )
