"""Property-based round trip of the policy/binning wire format.

The shard-worker runtime's contract is that policies and binnings cross
process boundaries as small dicts losslessly: for any object in the
algebra, ``to_spec`` -> ``json.dumps`` -> ``json.loads`` -> ``from_spec``
yields an object with an **identical** ``cache_key()`` (so caches treat
the reconstruction as the same policy) and **bit-identical** masks/bin
indices on every column bundle.  Hypothesis drives random algebra
policies, predicate-language specs, binnings, and record sets through
that loop; deterministic tests pin the opaque-policy failure mode and
the registry errors.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    AttributePolicy,
    IntersectionPolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
    SpecUnsupported,
)
from repro.core.policy_language import (
    PolicySpecError,
    compile_policy,
    policy_from_spec,
    policy_spec_fingerprint,
    policy_to_spec,
)
from repro.data.columnar import ColumnarDatabase
from repro.data.tippers import SensitiveAPPolicy, Trajectory, trajectory_columns
from repro.queries.histogram import (
    CategoricalBinning,
    IntegerBinning,
    Product2DBinning,
    binning_from_spec,
    binning_to_spec,
)

MAX_EXAMPLES = 40
CITIES = ("amber", "blue", "coral", "dune")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def flat_records(draw):
    n = draw(st.integers(min_value=1, max_value=32))
    return [
        {"age": a, "city": c, "opt_in": o}
        for a, c, o in zip(
            draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(CITIES), min_size=n, max_size=n)),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
    ]


def leaf_specs():
    """Random predicate-language leaves over the flat schema."""
    comparisons = st.sampled_from(["==", "!=", "<", "<=", ">", ">="]).flatmap(
        lambda op: st.integers(0, 99).map(
            lambda v: {"attr": "age", "op": op, "value": v}
        )
    )
    memberships = st.sampled_from(["in", "not_in"]).flatmap(
        lambda op: st.lists(
            st.sampled_from(CITIES), min_size=1, max_size=4, unique=True
        ).map(lambda vs: {"attr": "city", "op": op, "value": vs})
    )
    return st.one_of(comparisons, memberships)


def predicate_specs():
    return st.recursive(
        leaf_specs(),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                lambda subs: {"any": subs}
            ),
            st.lists(children, min_size=1, max_size=3).map(
                lambda subs: {"all": subs}
            ),
            children.map(lambda sub: {"not": sub}),
        ),
        max_leaves=5,
    )


def serializable_policies():
    """The whole serializable policy algebra over the flat schema."""
    leaves = st.one_of(
        st.sets(st.sampled_from(CITIES), max_size=len(CITIES)).map(
            lambda vs: SensitiveValuePolicy("city", vs)
        ),
        st.sets(st.integers(0, 30), min_size=1, max_size=5).map(
            lambda vs: SensitiveValuePolicy("age", vs)
        ),
        st.just(OptInPolicy()),
        st.just(AllSensitivePolicy()),
        st.just(AllNonSensitivePolicy()),
        predicate_specs().map(compile_policy),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                MinimumRelaxationPolicy
            ),
            st.lists(children, min_size=1, max_size=3).map(IntersectionPolicy),
        ),
        max_leaves=6,
    )


def binnings():
    integer = st.tuples(
        st.integers(0, 10), st.integers(1, 10), st.integers(1, 7)
    ).map(lambda t: IntegerBinning("age", t[0], t[0] + 10 * t[1], t[2]))
    categorical = st.permutations(CITIES).map(
        lambda domain: CategoricalBinning("city", domain)
    )
    flat = st.one_of(integer, categorical)
    return st.one_of(
        flat, st.tuples(flat, flat).map(lambda t: Product2DBinning(*t))
    )


def _json_round_trip(spec):
    return json.loads(json.dumps(spec))


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(records=flat_records(), policy=serializable_policies())
def test_policy_round_trip_masks_and_cache_key(records, policy):
    spec = policy_to_spec(policy)
    rebuilt = policy_from_spec(_json_round_trip(spec))
    assert rebuilt.cache_key() == policy.cache_key()
    assert rebuilt.cache_key() is not None
    db = ColumnarDatabase.from_records(records)
    assert np.array_equal(
        rebuilt.evaluate_batch(db), policy.evaluate_batch(db)
    )
    # per-record semantics survive too
    assert [rebuilt(r) for r in records] == [policy(r) for r in records]


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(policy=serializable_policies())
def test_round_trip_is_idempotent(policy):
    """to_spec of the reconstruction reproduces the spec exactly."""
    spec = policy_to_spec(policy)
    rebuilt = policy_from_spec(_json_round_trip(spec))
    assert policy_to_spec(rebuilt) == spec


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(spec=predicate_specs(), records=flat_records())
def test_predicate_spec_compile_round_trip(spec, records):
    policy = compile_policy(spec)
    rebuilt = policy_from_spec(_json_round_trip(policy_to_spec(policy)))
    assert rebuilt.cache_key() == policy.cache_key()
    db = ColumnarDatabase.from_records(records)
    assert np.array_equal(
        rebuilt.evaluate_batch(db), policy.evaluate_batch(db)
    )
    # the fingerprint (ledger identity) is canonical across the trip
    assert policy_spec_fingerprint(
        _json_round_trip(spec)
    ) == policy_spec_fingerprint(spec)


@settings(max_examples=20, deadline=None)
@given(
    aps=st.sets(st.integers(0, 9), max_size=10),
    lengths=st.lists(st.integers(1, 5), min_size=1, max_size=12),
)
def test_sensitive_ap_policy_round_trip(aps, lengths):
    trajs = [
        Trajectory(
            user_id=i,
            day=0,
            slots=tuple((j, (i * 3 + j) % 10) for j in range(length)),
        )
        for i, length in enumerate(lengths)
    ]
    db = ColumnarDatabase(trajectory_columns(trajs))
    policy = SensitiveAPPolicy(aps)
    rebuilt = policy_from_spec(_json_round_trip(policy_to_spec(policy)))
    assert rebuilt.to_spec() == policy_to_spec(policy)
    assert rebuilt.cache_key() == policy.cache_key()
    assert np.array_equal(
        rebuilt.evaluate_batch(db), policy.evaluate_batch(db)
    )


# ----------------------------------------------------------------------
# Binnings
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(binning=binnings())
def test_binning_round_trip_cache_key(binning):
    rebuilt = binning_from_spec(_json_round_trip(binning_to_spec(binning)))
    assert rebuilt.cache_key() == binning.cache_key()
    assert rebuilt.n_bins == binning.n_bins
    assert binning_to_spec(rebuilt) == binning_to_spec(binning)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(records=flat_records(), binning=binnings())
def test_binning_round_trip_bin_indices(records, binning):
    db = ColumnarDatabase.from_records(records)
    ages = np.asarray(db["age"])
    in_domain = (
        (ages >= binning.low) & (ages < binning.high)
        if isinstance(binning, IntegerBinning)
        else np.ones(len(db), dtype=bool)
    )
    if isinstance(binning, Product2DBinning):
        for factor in (binning.first, binning.second):
            if isinstance(factor, IntegerBinning):
                in_domain &= (ages >= factor.low) & (ages < factor.high)
    if not np.all(in_domain):
        db = db.select(np.flatnonzero(in_domain))
    if len(db) == 0:
        return
    rebuilt = binning_from_spec(_json_round_trip(binning_to_spec(binning)))
    assert np.array_equal(rebuilt.bin_indices(db), binning.bin_indices(db))


# ----------------------------------------------------------------------
# Failure modes and registry behavior
# ----------------------------------------------------------------------


class TestOpaquePolicies:
    def test_attribute_policy_has_no_spec(self):
        policy = AttributePolicy("age", lambda v: v < 18)
        with pytest.raises(SpecUnsupported):
            policy.to_spec()
        with pytest.raises(PolicySpecError):
            policy_to_spec(policy)

    def test_lambda_policy_has_no_spec(self):
        with pytest.raises(PolicySpecError):
            policy_to_spec(LambdaPolicy(lambda r: True))

    def test_combination_with_opaque_child_fails(self):
        policy = MinimumRelaxationPolicy(
            [OptInPolicy(), AttributePolicy("age", lambda v: v < 18)]
        )
        with pytest.raises((SpecUnsupported, PolicySpecError)):
            policy_to_spec(policy)


class TestSpecErrors:
    def test_unknown_policy_kind(self):
        with pytest.raises(PolicySpecError, match="unknown policy kind"):
            policy_from_spec({"kind": "nope"})

    def test_unknown_binning_kind(self):
        with pytest.raises(PolicySpecError, match="unknown binning kind"):
            binning_from_spec({"kind": "nope"})

    def test_non_mapping_rejected(self):
        with pytest.raises(PolicySpecError):
            policy_from_spec([1, 2])
        with pytest.raises(PolicySpecError):
            binning_from_spec("cat")

    def test_bare_predicate_spec_compiles(self):
        policy = policy_from_spec({"attr": "age", "op": "<=", "value": 17})
        assert policy({"age": 10}) == 0
        assert policy({"age": 40}) == 1


class TestCompiledPolicyPickling:
    def test_pickle_round_trip_recompiles(self):
        """Compiled policies cross process boundaries by recompiling
        from their spec (__reduce__), not by pickling closures."""
        import pickle

        policy = compile_policy(
            {"any": [{"attr": "age", "op": "<=", "value": 17},
                     {"attr": "city", "op": "in", "value": ["amber"]}]}
        )
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.cache_key() == policy.cache_key()
        assert clone.name == policy.name
        records = [{"age": 10, "city": "blue"}, {"age": 40, "city": "amber"}]
        db = ColumnarDatabase.from_records(records)
        assert np.array_equal(
            clone.evaluate_batch(db), policy.evaluate_batch(db)
        )
