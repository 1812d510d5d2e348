"""The histogram-release server: sharded engine + caches + accountant.

A deployment of the paper's mechanisms is not one release but a stream
of them: many analysts, many policies, many binnings, one budget.  The
server models exactly that traffic shape in one process;
:class:`repro.service.rpc.RpcServer` puts it behind a socket, and the
request/response dataclasses are what :mod:`repro.api.wire` encodes:

* **Sharded evaluation.**  The database is a
  :class:`repro.data.sharding.ShardedColumnarDatabase`; masks and bin
  indices are computed shard by shard and merged bit-identically to
  single-node evaluation.
* **Cross-request caching.**  Policy masks are cached per
  ``(shard, policy)`` and bin indices per ``(shard, binning)``, so a
  burst of requests over the same policy pays the mask once; the
  assembled :class:`~repro.queries.histogram.HistogramInput` is cached
  per ``(binning, policy)``.  Cache keys are the objects'
  ``cache_key()`` *value identity* — for a policy, the canonical
  rendering of its IR — so a transport that deserializes a
  fresh-but-equal policy or binning per request still hits; a
  ``LambdaPolicy`` (opaque, no key) keys by object identity and is
  pinned so CPython cannot recycle its ``id``.  The key set is
  bounded: beyond ``cache_limit`` distinct policies/binnings the
  least-recently-used key and all of its per-shard arrays are evicted,
  so a long-lived server cannot grow without bound.
* **Budget accounting.**  Every release charges the accountant under
  the request's policy (DP mechanisms charge under ``P_all`` per Lemma
  3.1) *before* sampling; a request that would exceed the budget raises
  :class:`repro.core.accountant.BudgetExceededError` and releases
  nothing.  A batch that fails mid-way raises
  :class:`BatchBudgetExceededError`, which carries the responses of the
  already-charged prefix — charged noise is never silently discarded.
  An ε that is not finite and positive is refused before anything is
  counted or charged.
* **Live data.**  :meth:`ReleaseServer.append_records` and
  :meth:`ReleaseServer.expire_prefix` mutate the sharded database in
  place (tail-shard extension / front-shard trim — never a full
  reslice).  Every cache entry carries the shard version it is valid
  for, and a write touches only the shards it moved rows in or out of.
  Their cached ``(x, x_ns)`` count pairs are **carried forward** by the
  write itself: counts are additive over records, so
  ``pair ± counts(moved rows)`` in int64 is exactly what a rescan would
  find, and the entry moves to the shard's new version.  The next read
  of a cached pair therefore re-merges O(bins × shards) numbers and
  scans nothing — a streaming read costs O(moved rows), paid once at
  the write, not O(shard).  The touched shards' per-record masks and
  bin indices are freed at the write (they could never hit again);
  untouched shards keep everything.  Write-side cost: one evaluation
  of the moved rows per live pair of a touched shard (tens of
  microseconds each for a few rows), under the lock the write already
  holds, bounded by ``cache_limit``.  A pair that fails to carry is
  dropped, never the write (see :meth:`ReleaseServer._carry_counts`).
* **Specs at the boundary.**  A request's ``policy``/``binning`` may be
  the live objects *or* their wire specs (plain dicts, see
  :func:`repro.core.policy_language.policy_from_spec`); specs are
  resolved per request and still share cache entries via value
  identity.  With a :class:`repro.data.workers.ShardWorkerPool` as the
  executor, histogram assembly skips the parent-side mask arrays
  entirely: each worker answers a spec request with its shard's
  ``(x, x_ns)`` pair, so per-request traffic stays O(bins), not
  O(records); a policy or binning without a spec is counted here, over
  the same shards.  The workers compute and forget: this server's counts
  cache is the only copy of a pair, and ``_carry_counts`` the only
  carry of it across a write.

* **Thread safety.**  One server may be driven by many threads: the
  caches, the sharded engine (a worker pool's pipes serve one fan-out
  at a time) and the stats sit behind one internal lock, held only for
  histogram assembly — a dict lookup on a warm cache — while the
  release sampling runs outside it, and accountant charges are atomic
  in the accountant itself.  Concurrent ``handle`` calls therefore
  overlap their noise kernels; the RPC tier adds a readers-writer
  discipline on top so releases run concurrently while
  ``append_records``/``expire_prefix`` run exclusively.

Caching the mask/histogram is free privacy-wise: the cached values are
exact data-dependent intermediates, and privacy is only consumed when a
mechanism samples a release from them.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.accountant import (
    BudgetExceededError,
    PrivacyAccountant,
    require_epsilon,
)
from repro.core.policy import NON_SENSITIVE, Policy
from repro.core.policy_language import policy_from_spec
from repro.data.columnar import ColumnarDatabase
from repro.data.sharding import ShardedColumnarDatabase
from repro.mechanisms.base import MechanismRegistry
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    _shard_histogram_counts,
    binning_from_spec,
    counts_from_mask,
)


class BatchBudgetExceededError(BudgetExceededError):
    """A batch ran out of budget mid-way.

    ``responses`` holds the already-produced (and already-charged)
    prefix; ``failed_request`` is the first request that could not be
    afforded.  Earlier releases consumed real budget, so they must
    reach the caller even though the batch as a whole failed.
    """

    def __init__(self, message: str, responses, failed_request):
        super().__init__(message)
        self.responses = list(responses)
        self.failed_request = failed_request

    def __reduce__(self):
        # Exceptions with extra constructor arguments do not pickle by
        # default; the charged prefix must survive process and socket
        # boundaries (see repro.api.wire for the JSON form), so spell
        # the reconstruction out.
        return (
            type(self),
            (str(self), self.responses, self.failed_request),
        )


def default_registry() -> MechanismRegistry:
    """The standard pool: the paper's OSDP and DP release algorithms."""
    from repro.mechanisms.dawa import Dawa
    from repro.mechanisms.dawaz import DawaZ
    from repro.mechanisms.laplace import LaplaceHistogram
    from repro.mechanisms.osdp_laplace import (
        HybridOsdpLaplace,
        OsdpLaplaceHistogram,
        OsdpLaplaceL1Histogram,
    )
    from repro.mechanisms.osdp_rr import OsdpRRHistogram

    registry = MechanismRegistry()
    registry.register("laplace", LaplaceHistogram)
    registry.register("dawa", Dawa)
    registry.register("dawaz", DawaZ)
    registry.register("osdp_rr", OsdpRRHistogram)
    registry.register("osdp_laplace", OsdpLaplaceHistogram)
    registry.register("osdp_laplace_l1", OsdpLaplaceL1Histogram)
    registry.register("osdp_hybrid", HybridOsdpLaplace)
    return registry


@dataclass(frozen=True)
class ReleaseRequest:
    """One histogram-release job.

    ``mechanism`` names a registry entry; ``binning`` is any object with
    ``bin_indices``/``n_bins`` (the :mod:`repro.queries.histogram`
    binnings) or its wire spec; ``policy`` decides sensitivity — a
    :class:`~repro.core.policy.Policy` or its wire spec (a plain dict,
    the form a network transport would deliver); ``seed=None`` draws
    fresh OS entropy per request (the production default), while an
    explicit seed makes the response reproducible.  ``analyst`` is the
    credential the charge is booked under — with per-analyst quotas on
    the accountant it is also enforced as a sub-budget.
    """

    mechanism: str
    epsilon: float
    binning: object
    policy: "Policy | Mapping"
    n_trials: int = 1
    seed: int | None = None
    label: str = ""
    analyst: str = ""


@dataclass(frozen=True)
class ReleaseResponse:
    """The released estimates plus the accounting trail."""

    request: ReleaseRequest
    estimates: np.ndarray  # (n_trials, n_bins)
    epsilon_spent: float
    budget_remaining: float | None
    cache_hit: bool


@dataclass
class ServiceStats:
    """Cache effectiveness counters (per shard-level computation).

    ``counts_carried`` counts the shard-level count pairs a write
    advanced in place (:meth:`ReleaseServer._carry_counts`) — each one
    is a shard rescan (a ``mask_misses``/``index_misses`` step) the
    next read did not pay.
    """

    mask_hits: int = 0
    mask_misses: int = 0
    index_hits: int = 0
    index_misses: int = 0
    hist_hits: int = 0
    hist_misses: int = 0
    counts_carried: int = 0
    evictions: int = 0
    requests: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ReleaseLoop:
    """validate → histogram → run → respond: the one release loop.

    :class:`ReleaseServer` and the cluster coordinator
    (:class:`repro.api.cluster.ClusterBackend`) both serve through it,
    so a clustered release is bit-identical to a single server's by
    construction.  A subclass supplies the merged histogram
    (``_histogram``), may widen :meth:`_batch_error`, and provides
    ``_registry``, ``accountant``, ``stats`` and ``_stats_lock``.  The
    loop holds no lock: ``_histogram`` takes what its data needs, and
    concurrent requests overlap everything else.
    """

    _registry: MechanismRegistry
    accountant: PrivacyAccountant | None

    @property
    def budget_remaining(self) -> float | None:
        return self.accountant.remaining if self.accountant else None

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    @staticmethod
    def _resolve(request: ReleaseRequest) -> tuple[object, Policy]:
        """Materialize a request's binning/policy from wire specs.

        A dict-shaped ``policy``/``binning`` is what a transport
        delivers; resolution goes through the spec loaders, and the
        resulting objects still share cache entries with their live
        twins via ``cache_key()`` value identity.
        """
        binning, policy = request.binning, request.policy
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        if isinstance(policy, Mapping):
            policy = policy_from_spec(policy)
        return binning, policy

    def _check(self, request: ReleaseRequest) -> None:
        """Refuse a malformed request before any histogram or charge."""
        if request.mechanism not in self._registry:
            raise KeyError(
                f"unknown mechanism {request.mechanism!r}; registered: "
                f"{self._registry.names()}"
            )
        if request.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        require_epsilon(request.epsilon)

    def _histogram(
        self, request: ReleaseRequest, memo: dict
    ) -> tuple[HistogramInput, Policy, bool]:
        """``(hist, policy, cache_hit)``; ``memo`` lives for one call
        of ``handle``/``handle_batch``."""
        raise NotImplementedError

    def _batch_error(self, exc, responses, request) -> Exception | None:
        """What a batch stopped by ``exc`` raises to hand back its
        charged ``responses`` (None: ``exc`` itself)."""
        if isinstance(exc, BudgetExceededError):
            return BatchBudgetExceededError(str(exc), responses, request)
        return None

    def _release(self, request: ReleaseRequest, memo: dict) -> ReleaseResponse:
        hist, policy, cache_hit = self._histogram(request, memo)
        mechanism = self._registry.create(request.mechanism, request.epsilon)
        accountant = self.accountant
        if accountant is not None and request.analyst:
            # Bind the charge to the request's credential: quota'd
            # analysts are checked against their sub-budget atomically
            # with the global check.
            accountant = accountant.for_analyst(request.analyst)
        # `run` on the merged input: the ledger records the policy
        # whose x_ns the mechanism consumed (DP mechanisms charge under
        # P_all per Lemma 3.1) — the composition theorem (Theorem 3.3)
        # folds the entries into the minimum relaxation.
        estimates = mechanism.run(
            hist,
            np.random.default_rng(request.seed),
            n_trials=request.n_trials,
            policy=policy,
            accountant=accountant,
            label=request.label or request.mechanism,
        )
        self._bump("requests")
        return ReleaseResponse(
            request=request,
            estimates=estimates,
            epsilon_spent=request.epsilon,
            budget_remaining=self.budget_remaining,
            cache_hit=cache_hit,
        )

    def handle(self, request: ReleaseRequest) -> ReleaseResponse:
        """Serve one request: check, histogram, charge, release."""
        self._check(request)
        return self._release(request, {})

    def handle_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]:
        """Serve a traffic batch in order.

        Requests sharing a ``(binning, policy)`` pair hit the histogram
        cache after the first.  Malformed requests (unknown mechanism,
        bad trial count, an ε that is not finite and positive) are
        rejected up front, before *any* request is charged — budget
        must never be spent on a batch that was doomed by a typo.  When
        a request fails after others were charged, the failure is
        re-raised as :meth:`_batch_error` says, carrying the charged
        prefix (:class:`BatchBudgetExceededError` on an overrun).
        """
        for request in requests:
            self._check(request)
        responses: list[ReleaseResponse] = []
        memo: dict = {}
        for request in requests:
            try:
                responses.append(self._release(request, memo))
            except Exception as exc:
                error = self._batch_error(exc, responses, request)
                if error is None:
                    raise
                raise error from exc
        return responses


class ReleaseServer(ReleaseLoop):
    """Serve histogram-release requests from one sharded database."""

    def __init__(
        self,
        db,
        registry: MechanismRegistry | None = None,
        accountant: PrivacyAccountant | None = None,
        n_shards: int | None = None,
        executor=None,
        cache_limit: int = 128,
    ):
        if not isinstance(db, ShardedColumnarDatabase):
            if not isinstance(db, ColumnarDatabase):
                db = ColumnarDatabase.from_database(db)
            db = db.shard(n_shards or 1)
        if executor is not None:
            db = db.with_executor(executor)
        if cache_limit < 2:
            # A single request keeps two keys live (binning + policy);
            # with fewer slots they would evict each other mid-request.
            raise ValueError("cache_limit must be at least 2")
        self._db: ShardedColumnarDatabase = db
        self._registry = registry or default_registry()
        self.accountant = accountant
        self.cache_limit = cache_limit
        self.stats = ServiceStats()
        # Every cache value is paired with the shard version(s) it is
        # valid for (see ShardedColumnarDatabase.shard_versions).  An
        # append/expire bumps the touched shards' versions and, in the
        # same call, carries their count pairs to the new version and
        # drops their per-record arrays (_carry_counts); an entry left
        # behind at an old version misses and that shard recomputes.
        # (shard index, policy key) -> (version, int8 mask);
        # (shard index, binning key) -> (version, int64 bin indices);
        # (shard index, binning key, policy key) -> (version, (x, x_ns));
        # (binning key, policy key) -> (versions tuple, HistogramInput).
        # Keys come from _key(); _keyed tracks every live key in
        # insertion order — it pins identity-keyed objects (so CPython
        # cannot recycle an id into a stale hit) and is the LRU
        # eviction queue bounding total cache growth.
        self._mask_cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self._index_cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self._counts_cache: dict[tuple, tuple[int, tuple]] = {}
        self._hist_cache: dict[tuple, tuple[tuple, HistogramInput]] = {}
        self._keyed: dict[tuple, object] = {}
        # One reentrant lock guards every structure above, the stats
        # *and* all access to the sharded engine/executor (a worker
        # pool's pipes serve one fan-out at a time).  handle() holds it
        # only for histogram assembly — on a warm cache that is a dict
        # lookup — and samples the release outside it, so concurrent
        # analysts overlap the expensive part (see RpcServer's
        # readers-writer discipline on top).
        self._lock = threading.RLock()
        self._stats_lock = self._lock

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def db(self) -> ShardedColumnarDatabase:
        return self._db

    @property
    def n_shards(self) -> int:
        return self._db.n_shards

    def budget_view(self) -> dict | None:
        """The full ledger document (the ``budget`` RPC op's payload):
        totals plus per-entry ``label``/``epsilon``/``policy``/
        ``analyst`` rows and per-analyst quota standing.  None when the
        server is unmetered."""
        if self.accountant is None:
            return None
        return self.accountant.view()

    # ------------------------------------------------------------------
    # Cached shard-level building blocks
    # ------------------------------------------------------------------
    def _key(self, obj: object) -> tuple:
        """The cache key of a policy/binning: value identity when possible.

        Objects exposing a non-None ``cache_key()`` (every spec-built
        policy, the standard binnings) key by value, so equal objects
        deserialized per request share cache entries; opaque objects
        (a ``LambdaPolicy``) key by ``id`` and are pinned.  Either way
        the key is registered in the LRU eviction queue.
        """
        value_key = getattr(obj, "cache_key", lambda: None)()
        key = ("v", value_key) if value_key is not None else ("id", id(obj))
        if key in self._keyed:
            # LRU touch: move to the back of the eviction queue, so a
            # hot key is never the one evicted when the limit is hit.
            self._keyed[key] = self._keyed.pop(key)
        else:
            if len(self._keyed) >= self.cache_limit:
                self._evict(next(iter(self._keyed)))
            self._keyed[key] = obj
        return key

    def _evict(self, key: tuple) -> None:
        """Drop one keyed object and every cache entry referencing it."""
        self._keyed.pop(key, None)
        for cache in (self._mask_cache, self._index_cache):
            for entry in [k for k in cache if k[1] == key]:
                del cache[entry]
        for entry in [k for k in self._counts_cache if key in k[1:]]:
            del self._counts_cache[entry]
        for entry in [k for k in self._hist_cache if key in k]:
            del self._hist_cache[entry]
        self.stats.evictions += 1

    def _per_shard(
        self, cache: dict, key: tuple, compute, hits: str, misses: str
    ) -> list:
        """Fetch or refresh a key's per-shard cache entries.

        Entries carry the shard version they were computed under; the
        stale subset (missing entries — a write frees the touched
        shards' arrays — or a version left behind) refills in one
        ``map_shards`` pass over just those shards.
        """
        versions = self._db.shard_versions
        stale = [
            i
            for i in range(self.n_shards)
            if cache.get((i, key), (None,))[0] != versions[i]
        ]
        setattr(
            self.stats, misses, getattr(self.stats, misses) + len(stale)
        )
        setattr(
            self.stats,
            hits,
            getattr(self.stats, hits) + self.n_shards - len(stale),
        )
        if stale:
            for i, value in zip(
                stale, self._db.map_shards(compute, indices=stale)
            ):
                cache[(i, key)] = (versions[i], value)
        return [cache[(i, key)][1] for i in range(self.n_shards)]

    def shard_masks(self, policy: Policy) -> list[np.ndarray]:
        """Per-shard policy masks, cached per ``(shard, policy key)``."""
        with self._lock:
            return self._per_shard(
                self._mask_cache,
                self._key(policy),
                policy.evaluate_batch,
                "mask_hits",
                "mask_misses",
            )

    def shard_bin_indices(self, binning) -> list[np.ndarray]:
        """Per-shard bin-index arrays, cached per ``(shard, binning key)``."""
        with self._lock:
            return self._per_shard(
                self._index_cache,
                self._key(binning),
                binning.bin_indices,
                "index_hits",
                "index_misses",
            )

    def _shard_counts(
        self, binning, policy: Policy, bkey: tuple, pkey: tuple
    ) -> list[tuple]:
        """Per-shard ``(x, x_ns)`` pairs, cached and version-checked.

        Writes carry live pairs to the new shard version, so after the
        first read of a ``(binning, policy)`` nothing here is stale
        until a key is evicted.  Two refill routes for stale shards:
        with a shard-resident worker pool as the executor,
        ``ShardedColumnarDatabase.shard_counts`` asks the workers for
        the O(bins) count pairs (or counts here, for a binning or
        policy without a spec); otherwise the counts derive from the
        cached per-shard masks and bin indices (which themselves
        refresh only their stale shards).
        """
        versions = self._db.shard_versions
        cache = self._counts_cache
        stale = [
            i
            for i in range(self.n_shards)
            if cache.get((i, bkey, pkey), (None,))[0] != versions[i]
        ]
        if stale:
            if self._db.executor is not None:
                pairs = self._db.shard_counts(
                    HistogramQuery(binning), policy, indices=stale
                )
            else:
                n_bins = binning.n_bins
                masks = self.shard_masks(policy)
                indices = self.shard_bin_indices(binning)
                pairs = [
                    counts_from_mask(
                        indices[i], masks[i] == NON_SENSITIVE, n_bins
                    )
                    for i in stale
                ]
            for i, pair in zip(stale, pairs):
                cache[(i, bkey, pkey)] = (versions[i], pair)
        return [cache[(i, bkey, pkey)][1] for i in range(self.n_shards)]

    def histogram_input(
        self, binning, policy: Policy
    ) -> tuple[HistogramInput, bool]:
        """The merged ``(x, x_ns, mask)`` bundle and whether it was cached.

        Built from the cached (version-checked) per-shard count pairs;
        the merge is exact integer addition, so the result is
        bit-identical to
        :meth:`repro.queries.histogram.HistogramInput.from_columnar` on
        the same sharded database — including after incremental
        appends/expires, which invalidate this merged entry (the read
        after a write is a ``hist_misses``, ``cache_hit`` False) but
        leave every per-shard pair live, so the re-merge scans nothing.
        """
        with self._lock:
            bkey, pkey = self._key(binning), self._key(policy)
            key = (bkey, pkey)
            versions = self._db.shard_versions
            cached = self._hist_cache.get(key)
            if cached is not None and cached[0] == versions:
                self.stats.hist_hits += 1
                return cached[1], True
            self.stats.hist_misses += 1
            hist = HistogramInput.from_shard_counts(
                self._shard_counts(binning, policy, bkey, pkey)
            )
            hist.ns_support_sorted  # warm the release fast-path views
            self._hist_cache[key] = (versions, hist)
            return hist, False

    def histogram_counts(
        self, binning, policy
    ) -> tuple[np.ndarray, np.ndarray]:
        """This server's merged ``(x, x_ns)`` int64 count pair.

        The cluster-tier building block: a coordinator holding several
        of these servers (each owning a disjoint shard range) sums the
        pairs — plain int64 addition, the same merge
        :meth:`HistogramInput.from_shard_counts` performs over local
        shards — and samples noise once at the merge tier, so a
        clustered release stays bit-identical to a single server
        holding all the shards.  Accepts live binning/policy objects or
        their wire specs.
        """
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        if isinstance(policy, Mapping):
            policy = policy_from_spec(policy)
        hist, _ = self.histogram_input(binning, policy)
        return np.asarray(hist.x), np.asarray(hist.x_ns)

    # ------------------------------------------------------------------
    # The release loop's data hook
    # ------------------------------------------------------------------
    def _histogram(self, request: ReleaseRequest, memo: dict):
        """From the caches, which outlive any ``memo``."""
        binning, policy = self._resolve(request)
        hist, cache_hit = self.histogram_input(binning, policy)
        return hist, policy, cache_hit

    def query_true_histogram(self, query: HistogramQuery) -> np.ndarray:
        """The exact (non-private) histogram — for offline error audits."""
        with self._lock:
            return self._db.histogram(query.binning, query.n_bins)

    def true_histogram(self, binning) -> np.ndarray:
        """The exact histogram for a binning object *or* its wire spec.

        The transport-facing twin of :meth:`query_true_histogram`: the
        curator-side audit endpoint every backend (in-process, sharded,
        remote) exposes through :class:`repro.api.OsdpClient`.
        """
        if isinstance(binning, Mapping):
            binning = binning_from_spec(binning)
        with self._lock:
            return self._db.histogram(binning, binning.n_bins)

    # ------------------------------------------------------------------
    # Incremental data updates
    # ------------------------------------------------------------------
    def _carry_counts(
        self,
        moved: Mapping[int, ColumnarDatabase],
        before: tuple[int, ...],
        advance,
    ) -> None:
        """Carry the touched shards' cached count pairs across a write.

        ``moved`` maps each shard the write set out to touch to the
        rows it gains or loses, ``before`` is the shard versions the
        write found — a shard still at its old version did not commit
        (a worker hook failed before it) and is left alone — and
        ``advance`` is ``np.add`` (append) or ``np.subtract`` (expire).
        Counts are additive over records, so every pair that was live
        under ``before`` moves by the moved rows' own pair to exactly
        what a rescan of the new shard would count (int64 arithmetic),
        and is re-stamped with the shard's new version.  The rows are
        evaluated here, in the parent, whatever the executor: a small
        slice needs no fan-out.

        The touched shards' per-record masks and bin indices are dropped
        instead: they can never hit again under the new version, and
        with the counts carried no refill would overwrite them.

        A pair that cannot be carried (its policy or binning raises on
        the slice, its key is gone) is dropped as well, so a refresh
        never fails the write it follows; the next read of that pair
        recomputes the shard and meets the error, if it persists, where
        it always did.
        """
        versions = self._db.shard_versions
        moved = {
            index: rows
            for index, rows in moved.items()
            if versions[index] != before[index]
        }
        for cache in (self._mask_cache, self._index_cache):
            for entry in [k for k in cache if k[0] in moved]:
                del cache[entry]
        for entry in [k for k in self._counts_cache if k[0] in moved]:
            index, bkey, pkey = entry
            version, (x, x_ns) = self._counts_cache.pop(entry)
            if version != before[index]:
                continue
            try:
                dx, dx_ns = _shard_histogram_counts(
                    moved[index],
                    HistogramQuery(self._keyed[bkey]),
                    self._keyed[pkey],
                )
                pair = (advance(x, dx), advance(x_ns, dx_ns))
            except Exception:
                continue
            self._counts_cache[entry] = (versions[index], pair)
            self.stats.counts_carried += 1

    def append_records(self, records) -> int:
        """Ingest new records without a reslice; returns the tail shard index.

        Delegates to
        :meth:`repro.data.sharding.ShardedColumnarDatabase.append_records`
        (which forwards only the chunk to a shard-resident worker
        pool), then advances the tail shard's cached count pairs by the
        chunk's own counts (:meth:`_carry_counts`): the next read
        re-merges O(bins) pairs instead of rescanning the shard, and
        the merged histograms are bit-identical to a from-scratch
        rebuild over the extended data.  Every other shard's entries
        keep serving untouched.

        Appending changes the database the privacy ledger describes;
        as in the paper's continual-observation setting, the accountant
        keeps charging cumulatively — budget never resets on ingest.
        """
        with self._lock:
            before = self._db.shard_versions
            n_before = len(self._db)
            index = self._db.append_records(records)
            tail = self._db.shards[index]
            # The chunk as committed: the tail shard's last rows (on an
            # shm pool, views of the segment the workers now serve).
            chunk = tail.slice_records(
                len(tail) - (len(self._db) - n_before), len(tail)
            )
            self._carry_counts({index: chunk}, before, np.add)
            return index

    def expire_prefix(self, n_records: int) -> list[int]:
        """Drop the ``n_records`` oldest records (retention enforcement).

        The leading shards' cached count pairs give back the expired
        rows' own counts (:meth:`_carry_counts`); everything else keeps
        serving untouched.  Returns the touched shard indices.
        """
        with self._lock:
            before = self._db.shard_versions
            # Views of the rows about to go, taken before the trim and
            # dropped with this frame: they pin the old buffers no
            # longer than the write itself.
            expired = {
                index: self._db.shards[index].slice_records(0, take)
                for index, take in self._db.expire_plan(n_records)
            }
            try:
                return self._db.expire_prefix(n_records)
            finally:
                # A worker hook failing part-way leaves the earlier
                # shards trimmed: those, and only those, are carried.
                self._carry_counts(expired, before, np.subtract)

    def replace_database(self, db) -> None:
        """Swap in a whole new database state (WAL recovery / resync).

        Unlike the incremental paths above, this discards every cached
        shard artifact: the fresh sharded database restarts its shard
        versions at zero, so stale entries keyed under the old
        versions could otherwise collide with them.  Refused while an
        executor is attached — resident workers hold the old columns
        and would keep answering from them.
        """
        if self._db.executor is not None:
            raise RuntimeError(
                "cannot replace the database while a worker executor is "
                "attached; resident workers still hold the old columns"
            )
        if not isinstance(db, ShardedColumnarDatabase):
            if not isinstance(db, ColumnarDatabase):
                db = ColumnarDatabase.from_database(db)
            db = db.shard(self._db.n_shards)
        with self._lock:
            self._db = db
            self._mask_cache.clear()
            self._index_cache.clear()
            self._counts_cache.clear()
            self._hist_cache.clear()
            self._keyed.clear()
