"""The release server: caching, budget accounting, and exactness.

The service facade must be a pure convenience layer — every response
must be bit-identical to driving the library by hand with the same
seed, and every release must appear in the accountant's ledger under
the right policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.core.policy import (
    AttributePolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.data.columnar import ColumnarDatabase
from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    _shard_histogram_counts,
)
from repro.service import (
    BatchBudgetExceededError,
    ReleaseRequest,
    ReleaseServer,
    default_registry,
)


def _db(n: int = 4000, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase.from_records(
        [
            {"age": int(a), "opt_in": bool(o)}
            for a, o in zip(rng.integers(0, 100, n), rng.integers(0, 2, n))
        ]
    )


@pytest.fixture()
def server() -> ReleaseServer:
    return ReleaseServer(
        _db().shard(4), accountant=PrivacyAccountant(total_epsilon=2.0)
    )


BINNING = IntegerBinning("age", 0, 100, 10)
WIDE_BINNING = IntegerBinning("age", 0, 100, 25)
POLICY = OptInPolicy()


def _armed_policy() -> LambdaPolicy:
    """Opt-in, until ``.armed``: then evaluation raises (identity-keyed)."""

    def sensitive(record) -> bool:
        if policy.armed:
            raise RuntimeError("policy backend unavailable")
        return not record["opt_in"]

    policy = LambdaPolicy(sensitive, name="armed")
    policy.armed = False
    return policy


class _Shard1ExpireFails:
    """A serial resident executor whose expire hook fails on shard 1 (a
    resident worker that died between two shards of one expiry)."""

    def map_resident(self, shards, query, policy, indices=None):
        picked = range(len(shards)) if indices is None else indices
        return [_shard_histogram_counts(shards[i], query, policy) for i in picked]

    def expire_shard_prefix(self, index, take, new_shard):
        if index == 1:
            raise RuntimeError("worker 1 is gone")


def _request(mechanism="osdp_laplace_l1", epsilon=0.25, **kw) -> ReleaseRequest:
    kw.setdefault("binning", BINNING)
    kw.setdefault("policy", POLICY)
    return ReleaseRequest(mechanism, epsilon, **kw)


class TestHandling:
    def test_response_shape_and_accounting(self, server):
        response = server.handle(_request(n_trials=5, seed=3))
        assert response.estimates.shape == (5, BINNING.n_bins)
        assert response.epsilon_spent == 0.25
        assert response.budget_remaining == pytest.approx(1.75)
        assert not response.cache_hit

    def test_bit_identical_to_library_path(self, server):
        response = server.handle(_request(n_trials=4, seed=9))
        hist = HistogramInput.from_columnar(
            server.db, HistogramQuery(BINNING), POLICY
        )
        reference = OsdpLaplaceL1Histogram(0.25).release_batch(
            hist, np.random.default_rng(9), 4
        )
        assert np.array_equal(response.estimates, reference)

    def test_seedless_requests_differ(self, server):
        a = server.handle(_request(n_trials=1))
        b = server.handle(_request(n_trials=1))
        assert not np.array_equal(a.estimates, b.estimates)

    def test_rejects_zero_trials(self, server):
        with pytest.raises(ValueError):
            server.handle(_request(n_trials=0))

    def test_unknown_mechanism_rejected(self, server):
        with pytest.raises(KeyError):
            server.handle(_request(mechanism="nope"))


class TestCaching:
    def test_mask_cached_per_shard_and_policy(self, server):
        server.handle(_request(seed=1))
        assert server.stats.mask_misses == server.n_shards
        assert server.stats.hist_misses == 1
        # Same policy + binning, different mechanism: everything hits.
        response = server.handle(_request(mechanism="osdp_rr", seed=1))
        assert response.cache_hit
        assert server.stats.mask_misses == server.n_shards
        assert server.stats.hist_hits == 1

    def test_new_binning_reuses_masks(self, server):
        server.handle(_request(seed=1))
        other = IntegerBinning("age", 0, 100, 25)
        response = server.handle(_request(binning=other, seed=1))
        assert not response.cache_hit  # new histogram...
        assert server.stats.mask_misses == server.n_shards  # ...cached masks
        assert server.stats.mask_hits == server.n_shards

    def test_new_policy_recomputes_masks(self, server):
        server.handle(_request(seed=1))
        minors = AttributePolicy("age", lambda v: v < 18, name="minors")
        server.handle(_request(policy=minors, seed=1))
        assert server.stats.mask_misses == 2 * server.n_shards

    def test_equal_objects_share_cache_entries(self, server):
        """Fresh-but-equal binnings/policies (a transport's per-request
        deserialization) hit via cache_key value identity."""
        policy_a = MinimumRelaxationPolicy(
            [SensitiveValuePolicy("age", {1, 2}), OptInPolicy()]
        )
        policy_b = MinimumRelaxationPolicy(
            [SensitiveValuePolicy("age", {1, 2}), OptInPolicy()]
        )
        binning_b = IntegerBinning("age", 0, 100, 10)
        assert policy_a is not policy_b and binning_b is not BINNING
        server.handle(_request(policy=policy_a, seed=1))
        response = server.handle(
            _request(policy=policy_b, binning=binning_b, seed=1)
        )
        assert response.cache_hit
        assert server.stats.mask_misses == server.n_shards

    def test_opaque_policies_fall_back_to_identity(self, server):
        minors = AttributePolicy("age", lambda v: v < 18, name="minors")
        assert minors.cache_key() is None
        server.handle(_request(policy=minors, seed=1))
        twin = AttributePolicy("age", lambda v: v < 18, name="minors")
        response = server.handle(_request(policy=twin, seed=1))
        assert not response.cache_hit

    def test_lru_touch_protects_hot_keys(self):
        """A hot (binning, policy) pair must survive churn from cold
        keys — eviction is LRU, not insertion-order FIFO."""
        server = ReleaseServer(_db(500).shard(2), cache_limit=3)
        hot = _request(seed=0)
        server.handle(hot)
        for i in range(5):
            cold = AttributePolicy("age", lambda v, t=i: v < t, name=f"c{i}")
            server.handle(_request(policy=cold, epsilon=0.1))
            response = server.handle(hot)
            assert response.cache_hit  # the hot pair was never evicted
        assert server.stats.evictions > 0

    def test_cache_limit_bounds_growth_and_evicts(self):
        server = ReleaseServer(
            _db(500).shard(2), cache_limit=3
        )
        for threshold in range(6):
            policy = AttributePolicy(
                "age", lambda v, t=threshold: v < t, name=f"t{threshold}"
            )
            server.handle(_request(policy=policy, epsilon=0.1))
        assert server.stats.evictions > 0
        assert len(server._keyed) <= 3
        # every cache entry still references a live key
        live = set(server._keyed)
        assert all(k[1] in live for k in server._mask_cache)
        assert all(
            b in live and p in live for b, p in server._hist_cache
        )

    def test_batch_traffic_hits_cache(self, server):
        requests = [
            _request(seed=s, n_trials=2) for s in range(4)
        ]
        responses = server.handle_batch(requests)
        assert len(responses) == 4
        assert [r.cache_hit for r in responses] == [False, True, True, True]
        assert server.budget_remaining == pytest.approx(1.0)


class TestBudget:
    def test_exhaustion_raises_and_stops_releasing(self, server):
        server.handle(_request(epsilon=1.9))
        with pytest.raises(BudgetExceededError):
            server.handle(_request(epsilon=0.2))
        assert server.stats.requests == 1

    def test_batch_rejects_malformed_requests_before_charging(self, server):
        """A typo in any batch request must fail fast, before budget is
        spent on the doomed batch."""
        with pytest.raises(KeyError):
            server.handle_batch([_request(seed=1), _request(mechanism="typo")])
        with pytest.raises(ValueError):
            server.handle_batch([_request(seed=1), _request(n_trials=0)])
        with pytest.raises(ValueError):
            server.handle_batch([_request(seed=1), _request(epsilon=-1.0)])
        assert server.accountant.spent == 0.0
        assert server.stats.requests == 0

    def test_batch_failure_keeps_charged_prefix(self, server):
        requests = [
            _request(epsilon=0.9, seed=1),
            _request(epsilon=0.9, seed=2),
            _request(epsilon=0.9, seed=3),  # cannot be afforded
        ]
        with pytest.raises(BatchBudgetExceededError) as excinfo:
            server.handle_batch(requests)
        error = excinfo.value
        assert len(error.responses) == 2
        assert error.failed_request is requests[2]
        # The prefix consumed real budget and its estimates survive.
        assert server.accountant.spent == pytest.approx(1.8)
        assert all(r.estimates.shape == (1, 10) for r in error.responses)

    def test_dp_mechanism_charged_under_p_all(self, server):
        server.handle(_request(mechanism="laplace", epsilon=0.5, seed=0))
        entry = server.accountant.ledger[-1]
        assert entry.policy.name == "P_all"
        assert entry.epsilon == 0.5

    def test_osdp_mechanism_charged_under_request_policy(self, server):
        server.handle(_request(seed=0))
        assert server.accountant.ledger[-1].policy is POLICY

    def test_no_accountant_means_unlimited(self):
        free = ReleaseServer(_db().shard(2))
        for _ in range(4):
            response = free.handle(_request(epsilon=10.0))
        assert response.budget_remaining is None


class TestConstruction:
    def test_wraps_plain_columnar(self):
        server = ReleaseServer(_db(), n_shards=3)
        assert server.n_shards == 3

    def test_registry_covers_the_pool(self):
        names = default_registry().names()
        for name in (
            "laplace",
            "dawa",
            "dawaz",
            "osdp_rr",
            "osdp_laplace",
            "osdp_laplace_l1",
            "osdp_hybrid",
        ):
            assert name in names

    def test_true_histogram_is_exact(self):
        db = _db(1234)
        server = ReleaseServer(db.shard(5))
        query = HistogramQuery(BINNING)
        assert np.array_equal(
            server.query_true_histogram(query), db.histogram(BINNING)
        )


def _assert_equals_cold(server, hist, binning, policy):
    """``hist`` is what a scan of the server's current rows would count."""
    cold = HistogramInput.from_columnar(
        server.db.to_columnar(), HistogramQuery(binning), policy
    )
    assert np.array_equal(hist.x, cold.x)
    assert np.array_equal(hist.x_ns, cold.x_ns)


class TestLiveUpdates:
    """append_records/expire_prefix keep the server bit-exact, carry the
    touched shards' cached counts forward and leave the rest alone."""

    def _fresh_records(self, n, seed):
        rng = np.random.default_rng(seed)
        return [
            {"age": int(a), "opt_in": bool(o)}
            for a, o in zip(rng.integers(0, 100, n), rng.integers(0, 2, n))
        ]

    def test_append_matches_fresh_server(self):
        records = self._fresh_records(900, 3)
        extra = self._fresh_records(60, 4)
        server = ReleaseServer(
            ColumnarDatabase.from_records(records).shard(3)
        )
        server.handle(_request(seed=1))  # warm every cache
        server.append_records(extra)
        updated = server.handle(_request(seed=5))
        fresh = ReleaseServer(
            ColumnarDatabase.from_records(records + extra).shard(3)
        ).handle(_request(seed=5))
        assert np.array_equal(updated.estimates, fresh.estimates)

    def test_expire_matches_fresh_server(self):
        records = self._fresh_records(900, 6)
        server = ReleaseServer(
            ColumnarDatabase.from_records(records).shard(3)
        )
        server.handle(_request(seed=1))
        touched = server.expire_prefix(320)
        assert touched == [0, 1]
        updated = server.handle(_request(seed=5))
        fresh = ReleaseServer(
            ColumnarDatabase.from_records(records[320:]).shard(3)
        ).handle(_request(seed=5))
        assert np.array_equal(updated.estimates, fresh.estimates)

    def _warm_two_pairs(self, server):
        """Two live pairs per shard, sharing the policy key."""
        server.handle(_request(seed=1))
        server.handle(_request(seed=1, binning=WIDE_BINNING))
        return server.stats.as_dict(), dict(server._counts_cache)

    def _assert_only_carried(self, server, before, entries, touched):
        """The write-then-read contract: nothing rescanned, the touched
        shards' live pairs carried, every other entry left as it was."""
        after = server.stats.as_dict()
        for counter in ("mask_misses", "index_misses", "mask_hits", "index_hits"):
            assert after[counter] == before[counter], counter
        assert after["counts_carried"] - before["counts_carried"] == sum(
            1 for entry in entries if entry[0] in touched
        )
        versions = server.db.shard_versions
        for entry, cached in entries.items():
            if entry[0] in touched:
                assert server._counts_cache[entry][0] == versions[entry[0]]
            else:
                assert server._counts_cache[entry] is cached
        # the touched shards' per-record arrays are freed at the write,
        # the others still serve
        for cache in (server._mask_cache, server._index_cache):
            assert {k[0] for k in cache} == set(range(server.n_shards)) - touched

    def test_append_recomputes_only_the_tail_shard(self, server):
        """...and of the tail shard, nothing: its live pairs are carried."""
        before, entries = self._warm_two_pairs(server)
        tail = server.append_records(self._fresh_records(10, 9))
        response = server.handle(_request(seed=1))
        assert not response.cache_hit  # the merged histogram re-merged...
        assert server.stats.hist_misses == before["hist_misses"] + 1
        # ...from count pairs that were all live: two carried, none rescanned
        self._assert_only_carried(server, before, entries, {tail})
        assert server.stats.counts_carried == 2
        hist, _ = server.histogram_input(WIDE_BINNING, POLICY)
        _assert_equals_cold(server, hist, WIDE_BINNING, POLICY)

    def test_expire_recomputes_only_touched_shards(self, server):
        """...and of those, nothing: their live pairs are carried."""
        before, entries = self._warm_two_pairs(server)
        touched = server.expire_prefix(1001)  # all of shard 0, one row of 1
        assert touched == [0, 1]
        assert not server.handle(_request(seed=1)).cache_hit
        self._assert_only_carried(server, before, entries, set(touched))
        assert server.stats.counts_carried == 4
        hist, _ = server.histogram_input(WIDE_BINNING, POLICY)
        _assert_equals_cold(server, hist, WIDE_BINNING, POLICY)

    def test_a_pair_that_cannot_be_carried_is_dropped_not_raised(self, server):
        """A logged write must apply: a policy that raises on the moved
        rows costs its cache entry, never the write."""
        policy = _armed_policy()
        server.histogram_input(BINNING, policy)
        server.handle(_request(seed=1))
        policy.armed = True
        tail = server.append_records(self._fresh_records(10, 9))
        assert server.expire_prefix(3) == [0]
        policy.armed = False
        # the healthy pair was carried through both writes, the failing
        # one dropped on the touched shards only
        assert server.stats.counts_carried == 2
        live = {k[0] for k in server._counts_cache if k[2] == server._key(policy)}
        assert live == set(range(server.n_shards)) - {0, tail}
        misses = server.stats.mask_misses
        hist, _ = server.histogram_input(BINNING, policy)
        assert server.stats.mask_misses == misses + 2  # recomputed, as before
        _assert_equals_cold(server, hist, BINNING, policy)

    def test_an_entry_a_direct_database_write_left_stale_is_not_carried(
        self, server
    ):
        """``server.db`` is public: a write made on it directly bypasses
        the carry, and the pair it left behind must be recomputed, never
        advanced from counts that miss that write."""
        server.handle(_request(seed=1))
        server.db.append_records(self._fresh_records(7, 8))
        server.append_records(self._fresh_records(5, 9))
        assert server.stats.counts_carried == 0
        hist, _ = server.histogram_input(BINNING, POLICY)
        assert server.stats.mask_misses == server.n_shards + 1
        _assert_equals_cold(server, hist, BINNING, POLICY)

    def test_partial_expire_carries_only_the_committed_shards(self):
        """A worker hook failing on a later shard leaves the earlier
        ones trimmed; exactly those are carried."""
        server = ReleaseServer(_db().shard(4), executor=_Shard1ExpireFails())
        server.handle(_request(seed=1))
        before = server.stats.as_dict()
        with pytest.raises(RuntimeError, match="worker 1"):
            server.expire_prefix(1500)  # shard 0 whole, then half of shard 1
        assert len(server.db) == 3000
        assert server.db.shard_versions == (1, 0, 0, 0)
        assert server.stats.counts_carried == 1
        hist, hit = server.histogram_input(BINNING, POLICY)
        assert not hit
        assert server.stats.mask_misses == before["mask_misses"]
        _assert_equals_cold(server, hist, BINNING, POLICY)

    def test_cache_hits_return_after_update(self, server):
        server.handle(_request(seed=1))
        server.append_records(self._fresh_records(5, 2))
        assert not server.handle(_request(seed=1)).cache_hit
        assert server.handle(_request(seed=1)).cache_hit

    def test_budget_keeps_accumulating_across_updates(self, server):
        server.handle(_request(epsilon=1.0))
        server.append_records(self._fresh_records(5, 2))
        server.handle(_request(epsilon=0.9))
        with pytest.raises(BudgetExceededError):
            server.handle(_request(epsilon=0.2))


class TestSpecRequests:
    def test_spec_shaped_requests_resolve_and_share_caches(self, server):
        live = server.handle(_request(seed=4, n_trials=2))
        wire = server.handle(
            _request(
                binning=BINNING.to_spec(),
                policy=POLICY.to_spec(),
                seed=4,
                n_trials=2,
            )
        )
        assert wire.cache_hit  # value identity across the wire form
        assert np.array_equal(live.estimates, wire.estimates)

    def test_malformed_spec_rejected_before_charging(self, server):
        with pytest.raises(Exception):
            server.handle(_request(policy={"kind": "nope"}))
        assert server.budget_remaining == pytest.approx(2.0)
