"""The OsdpClient / Backend surface: one client, bit-identical backends.

The API layer is a routing layer — it must never change *what* is
computed.  These tests pin:

* in-process, sharded and worker-pool backends returning bit-identical
  responses to each other and to the direct library path;
* the keyword/request construction surface of ``OsdpClient.release``;
* ``HistogramMechanism.run`` as the one registry-driven entry point
  (database flavors, specs, trial modes, accounting) and the
  deprecation shims over the old four-way split;
* the public-API snapshot of ``repro.api`` / ``repro`` exports.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.api
from repro.api import (
    Backend,
    InProcessBackend,
    OsdpClient,
    ReleaseRequest,
    ShardedBackend,
)
from repro.core.accountant import PrivacyAccountant
from repro.core.policy import AllSensitivePolicy, OptInPolicy
from repro.data.columnar import ColumnarDatabase
from repro.data.database import Database
from repro.mechanisms.base import HistogramMechanism
from repro.mechanisms.laplace import LaplaceHistogram
from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
)


def _db(n: int = 3000, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


BINNING = IntegerBinning("age", 0, 100, 10)
POLICY_SPEC = {"kind": "opt_in", "attr": "opt_in"}


def _reference(db, epsilon=0.25, seed=9, n_trials=4) -> np.ndarray:
    hist = HistogramInput.from_columnar(
        db, HistogramQuery(BINNING), OptInPolicy()
    )
    return OsdpLaplaceL1Histogram(epsilon).release_batch(
        hist, np.random.default_rng(seed), n_trials
    )


class TestClientBackends:
    def test_in_process_bit_identical_to_library(self):
        db = _db()
        with OsdpClient.in_process(db) as client:
            response = client.release(
                mechanism="osdp_laplace_l1",
                epsilon=0.25,
                binning=BINNING,
                policy=POLICY_SPEC,
                n_trials=4,
                seed=9,
            )
        assert np.array_equal(response.estimates, _reference(db))

    def test_sharded_and_pool_backends_match_in_process(self):
        db = _db()
        request = ReleaseRequest(
            "osdp_laplace_l1", 0.25, BINNING.to_spec(), POLICY_SPEC,
            n_trials=4, seed=9,
        )
        with OsdpClient.in_process(db) as base:
            want = base.release(request).estimates
        with OsdpClient.sharded(db, n_shards=3) as sharded:
            assert np.array_equal(sharded.release(request).estimates, want)
        with OsdpClient.sharded(db, n_shards=3, workers=True) as pooled:
            assert isinstance(pooled.backend, ShardedBackend)
            assert pooled.backend.pool is not None
            assert np.array_equal(pooled.release(request).estimates, want)

    def test_backends_satisfy_protocol(self):
        backend = InProcessBackend(_db(200))
        assert isinstance(backend, Backend)

    def test_release_kwargs_and_request_are_exclusive(self):
        client = OsdpClient.in_process(_db(200))
        request = ReleaseRequest(
            "laplace", 0.5, BINNING, AllSensitivePolicy()
        )
        with pytest.raises(ValueError, match="not both"):
            client.release(request, mechanism="laplace")
        # every keyword is rejected next to a request — a silently
        # ignored seed/n_trials would fake reproducibility
        with pytest.raises(ValueError, match="not both"):
            client.release(request, seed=42)
        with pytest.raises(ValueError, match="not both"):
            client.release(request, n_trials=100)
        with pytest.raises(ValueError, match="not both"):
            client.release(request, label="x")
        with pytest.raises(ValueError, match="at least"):
            client.release(epsilon=0.5)

    def test_true_histogram_and_live_updates(self):
        db = _db(1000)
        with OsdpClient.sharded(db, n_shards=2) as client:
            before = client.true_histogram(BINNING)
            assert np.array_equal(before, db.histogram(BINNING, BINNING.n_bins))
            client.append_records(
                [{"age": 5, "opt_in": True}, {"age": 5, "opt_in": False}]
            )
            after = client.true_histogram(BINNING)
            assert after[0] == before[0] + 2
            client.expire_prefix(10)
            assert client.true_histogram(BINNING).sum() == before.sum() - 8

    def test_batch_and_accounting(self):
        client = OsdpClient.in_process(
            _db(), accountant=PrivacyAccountant(total_epsilon=1.0)
        )
        requests = [
            ReleaseRequest(
                "laplace", 0.25, BINNING.to_spec(), POLICY_SPEC, seed=i
            )
            for i in range(3)
        ]
        responses = client.release_batch(requests)
        assert [r.budget_remaining for r in responses] == [0.75, 0.5, 0.25]

    def test_sharded_rejects_conflicting_options(self):
        db = _db(300).shard(2)
        with pytest.raises(ValueError, match="cannot reshard"):
            ShardedBackend(db, n_shards=5)


class TestMechanismRun:
    """`run` is the single entry point the old four methods folded into."""

    def test_run_single_release_matches_release(self):
        db = _db(500)
        hist = HistogramInput.from_columnar(
            db, HistogramQuery(BINNING), OptInPolicy()
        )
        mech = OsdpLaplaceL1Histogram(0.5)
        want = mech.release(hist, np.random.default_rng(3))
        got = mech.run(hist, np.random.default_rng(3))
        assert np.array_equal(got, want)

    def test_run_from_database_flavors_bit_identical(self):
        columnar = _db(800)
        row = Database(columnar.iter_records())
        sharded = columnar.shard(3)
        mech = OsdpLaplaceL1Histogram(0.5)
        outs = [
            mech.run(
                source,
                np.random.default_rng(11),
                n_trials=3,
                binning=BINNING,
                policy=OptInPolicy(),
            )
            for source in (columnar, row, sharded)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_run_accepts_specs_and_charges(self):
        accountant = PrivacyAccountant(total_epsilon=1.0)
        out = OsdpLaplaceL1Histogram(0.5).run(
            _db(400),
            np.random.default_rng(0),
            n_trials=2,
            binning=BINNING.to_spec(),
            policy=POLICY_SPEC,
            accountant=accountant,
            label="spec-run",
        )
        assert out.shape == (2, BINNING.n_bins)
        assert accountant.remaining == pytest.approx(0.5)
        assert accountant.ledger[0].label == "spec-run"

    def test_run_rejects_a_generator_sequence(self):
        db = _db(400)
        hist = HistogramInput.from_columnar(
            db, HistogramQuery(BINNING), OptInPolicy()
        )
        accountant = PrivacyAccountant(total_epsilon=1.0)
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        with pytest.raises(TypeError, match=r"m\.release\(h, g\) for g in"):
            OsdpLaplaceL1Histogram(0.5).run(
                hist, rngs, n_trials=2, accountant=accountant
            )
        assert accountant.remaining == pytest.approx(1.0)

    def test_run_rejects_query_and_binning_together(self):
        with pytest.raises(ValueError, match="not both"):
            LaplaceHistogram(0.5).run(
                _db(100),
                np.random.default_rng(0),
                query=HistogramQuery(BINNING),
                binning=BINNING,
            )

    def test_run_requires_query_and_policy_for_databases(self):
        with pytest.raises(ValueError, match="requires a query"):
            LaplaceHistogram(0.5).run(_db(100), np.random.default_rng(0))

    def test_run_rejects_unknown_sources(self):
        with pytest.raises(TypeError, match="cannot build a histogram input"):
            LaplaceHistogram(0.5).run(42, np.random.default_rng(0))


class TestPublicApiSnapshot:
    """Pin the export surface a release would ship."""

    def test_repro_api_exports(self):
        assert sorted(repro.api.__all__) == [
            "Backend",
            "BatchBudgetExceededError",
            "ClusterBackend",
            "ClusterEndpoint",
            "ClusterWriteError",
            "DeadlineExceeded",
            "InProcessBackend",
            "OsdpClient",
            "PartialClusterError",
            "ReleaseRequest",
            "ReleaseResponse",
            "RemoteBackend",
            "RetryPolicy",
            "ServerOverloaded",
            "ShardedBackend",
        ]
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_repro_top_level_exports(self):
        assert sorted(repro.__all__) == [
            "AllSensitivePolicy",
            "AttributePolicy",
            "DPGuarantee",
            "Dawa",
            "DawaZ",
            "HistogramInput",
            "LambdaPolicy",
            "LaplaceHistogram",
            "OSDPGuarantee",
            "OptInPolicy",
            "OsdpClient",
            "OsdpLaplaceHistogram",
            "OsdpLaplaceL1Histogram",
            "OsdpRR",
            "OsdpRRHistogram",
            "Policy",
            "PrivacyAccountant",
            "ReleaseRequest",
            "ReleaseResponse",
            "SuppressHistogram",
            "__version__",
        ]
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_mechanism_surface_is_run_alone(self):
        # The dispatch contract: `run` is the one entry point; the old
        # per-database entry points are gone, not shimmed.
        assert hasattr(HistogramMechanism, "run")
        for gone in ("release_from_database", "release_batch_from_database"):
            assert not hasattr(HistogramMechanism, gone)
