"""One policy form: the IR, its two interpreters and its one identity.

A :class:`~repro.core.policy.Policy` is a predicate IR lowered from its
wire spec.  The property test draws random IR specs (every leaf op,
``any`` / ``all`` / ``not`` / ``true`` / ``false`` to depth 3) and
random tables (int, bool, str, float-with-NaN, object-with-NaN, int64
and float64 near ±2**53, and ragged ``aps`` columns) and checks that
the per-record interpreter (the oracle) and the per-column one give
bit-identical masks — a NaN member matching every NaN, and integers
meeting floats exactly — that
``policy_from_spec`` of ``to_spec()`` is the same policy, and that the
scan, the distinct summary and a sharded database count alike.  The
deterministic tests pin the regressions the single form fixes and the
structure it keeps.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guarantees import (
    OSDPGuarantee,
    osdp_all_sensitive_to_dp,
    sequential_composition,
)
from repro.core.policy import (
    AllSensitivePolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    PolicySpecError,
)
from repro.core.policy_language import (
    canonical_spec,
    compile_policy,
    policy_from_spec,
    policy_spec_fingerprint,
)
from repro.data.columnar import SUMMARY_MIN_ROWS, ColumnarDatabase, RaggedColumn
from repro.queries.histogram import (
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    _scan_counts,
    _summary_counts,
)
from repro.service import ReleaseServer

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
NAN = float("nan")
#: "1" is what ``np.asarray`` makes of a member ``1`` beside strings
CITIES = ("a", "b", "1")
#: object-column values: mixed types, ``None`` and one shared NaN object
OBJECTS = (0, 1, 2.5, "x", None, NAN)
#: float-column values: the column keeps NaN, not the NaN object
SCORES = (0.5, 2.0, NAN)
#: the columns a distinct summary holds (the others are object / ragged)
SUMMARISED = ("age", "flag", "city")
#: integers near ±2**52 and ±2**53, where float64 stops holding them all
BIGS = tuple(
    sign * 2**power + step
    for sign in (1, -1) for power in (52, 53) for step in (-2, -1, 0, 1, 2)
)
#: integer and float operands near ±2**53, and two halves
BIG_OPERANDS = st.one_of(
    st.sampled_from(BIGS),
    st.sampled_from(BIGS).map(float),
    st.sampled_from([2.0**52 + 0.5, -(2.0**52) - 0.5]),
)


def _fresh_nan(value):
    """A record's own NaN object, never the spec's: a NaN member must
    match it by value."""
    return float("nan") if value != value else value


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


def _leaf(attr, op, value=None):
    spec = {"attr": attr, "op": op}
    if op != "truthy":
        spec["value"] = value
    return spec


def _leaves():
    compare = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
    members = st.sampled_from(["in", "not_in"])
    return {
        "age": [
            st.builds(_leaf, st.just("age"), compare, st.integers(-1, 10)),
            st.builds(
                _leaf, st.just("age"), members,
                st.lists(st.one_of(st.integers(0, 9), st.just("3")), max_size=4),
            ),
        ],
        "flag": [
            st.builds(_leaf, st.just("flag"), st.sampled_from(["==", "!="]),
                      st.booleans()),
            st.builds(_leaf, st.just("flag"), members,
                      st.lists(st.sampled_from([True, 0, 1.0]), max_size=2)),
        ],
        "city": [
            st.builds(_leaf, st.just("city"), compare, st.sampled_from(CITIES)),
            st.builds(
                _leaf, st.just("city"), members,
                st.lists(st.sampled_from(CITIES + (1,)), max_size=3),
            ),
        ],
        "score": [
            st.builds(_leaf, st.just("score"), compare, st.sampled_from(SCORES)),
            st.builds(_leaf, st.just("score"), members,
                      st.lists(st.sampled_from(SCORES), max_size=2)),
        ],
        "obj": [
            st.builds(_leaf, st.just("obj"), st.sampled_from(["==", "!="]),
                      st.sampled_from(OBJECTS)),
            st.builds(_leaf, st.just("obj"), members,
                      st.lists(st.sampled_from(OBJECTS), max_size=3)),
        ],
        "aps": [
            st.builds(_leaf, st.just("aps"), st.just("any_in"),
                      st.lists(st.integers(0, 6), max_size=3)),
        ],
        **{
            attr: [
                st.builds(_leaf, st.just(attr), compare, BIG_OPERANDS),
                st.builds(_leaf, st.just(attr), members,
                          st.lists(BIG_OPERANDS, max_size=3)),
            ]
            for attr in ("big", "bigf")
        },
    }


def ir_specs(
    attrs=("age", "flag", "city", "score", "obj", "aps", "big", "bigf"),
):
    """Random IR specs to depth 3 over every leaf op and combinator."""
    leaves = st.one_of(
        *[leaf for attr in attrs for leaf in _leaves()[attr]],
        st.builds(
            _leaf, st.sampled_from([a for a in attrs if a != "aps"]),
            st.just("truthy"),
        ),
        st.booleans(),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, min_size=1, max_size=3).map(lambda ks: {"any": ks}),
            st.lists(kids, min_size=1, max_size=3).map(lambda ks: {"all": ks}),
            kids.map(lambda k: {"not": k}),
        ),
        max_leaves=8,
    ).filter(lambda spec: _depth(spec) <= 3)


def _depth(spec) -> int:
    if not isinstance(spec, dict) or "attr" in spec:
        return 0
    kids = [spec["not"]] if "not" in spec else spec.get("any") or spec["all"]
    return 1 + max(_depth(k) for k in kids)


@st.composite
def tables(draw):
    """Records (with ``aps`` tuples) and their columnar twin."""
    n = draw(st.integers(1, 24))
    rows = st.fixed_dictionaries({
        "age": st.integers(0, 9),
        "flag": st.booleans(),
        "city": st.sampled_from(CITIES),
        "score": st.sampled_from(SCORES).map(_fresh_nan),
        "obj": st.sampled_from(OBJECTS).map(_fresh_nan),
        "aps": st.lists(st.integers(0, 6), min_size=0, max_size=4).map(tuple),
        "big": st.sampled_from(BIGS),
        "bigf": st.sampled_from(BIGS).map(float),
    })
    records = draw(st.lists(rows, min_size=n, max_size=n))
    return records, _columns(records)


def _columns(records) -> dict:
    lengths = [len(r["aps"]) for r in records]
    columns = {
        "age": np.array([r["age"] for r in records], dtype=np.int64),
        "flag": np.array([r["flag"] for r in records], dtype=bool),
        "city": np.array([r["city"] for r in records]),
        "score": np.array([r["score"] for r in records], dtype=float),
        "obj": np.array([r["obj"] for r in records], dtype=object),
        "big": np.array([r["big"] for r in records], dtype=np.int64),
        "bigf": np.array([r["bigf"] for r in records], dtype=np.float64),
        "aps": RaggedColumn(
            flat=np.array([a for r in records for a in r["aps"]], dtype=np.int64),
            offsets=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        ),
    }
    return columns


def _outcome(fn):
    try:
        return np.asarray(fn(), dtype=np.int8).tobytes()
    except Exception as exc:  # both interpreters must fail alike
        return type(exc)


# ----------------------------------------------------------------------
# The agreement property
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(spec=ir_specs(), table=tables())
def test_the_two_interpreters_agree_bit_for_bit(spec, table):
    records, columns = table
    policy = compile_policy(spec)
    oracle = _outcome(lambda: [policy(r) for r in records])
    db = ColumnarDatabase(columns)
    assert _outcome(lambda: policy.evaluate_batch(db)) == oracle
    # the columns from_records infers (``aps`` an object column of tuples)
    inferred = ColumnarDatabase.from_records(records)
    assert _outcome(lambda: policy.evaluate_batch(inferred)) == oracle
    scores = np.array([r["score"] for r in records], dtype=object)
    bundle = {**columns, "score": scores}
    assert _outcome(lambda: policy.evaluate_batch(bundle)) == oracle
    # the wire form is the same policy
    rebuilt = policy_from_spec(policy.to_spec())
    assert rebuilt.cache_key() == policy.cache_key()
    assert rebuilt.to_spec() == policy.to_spec()
    assert _outcome(lambda: rebuilt.evaluate_batch(db)) == oracle


@settings(max_examples=40, deadline=None)
@given(spec=ir_specs(SUMMARISED), table=tables())
def test_scan_summary_and_shards_count_alike(spec, table):
    records, _ = table
    records = records * -(-SUMMARY_MIN_ROWS // len(records))
    columns = _columns(records)
    db = ColumnarDatabase({name: columns[name] for name in SUMMARISED})
    policy = compile_policy(spec)
    query = HistogramQuery(IntegerBinning("age", 0, 10))
    x, x_ns = _scan_counts(db, query, policy)
    summary = _summary_counts(db, query, policy)
    assert summary is not None
    assert summary[0].tobytes() == x.tobytes()
    assert summary[1].tobytes() == x_ns.tobytes()
    sharded = HistogramInput.from_columnar(db.shard(3), query, policy)
    assert np.array_equal(sharded.x, x) and np.array_equal(sharded.x_ns, x_ns)


# ----------------------------------------------------------------------
# One identity
# ----------------------------------------------------------------------


def test_a_numpy_scalar_and_its_string_never_share_a_cache_key():
    """``default=str`` rendered ``np.int64(17)`` as ``"17"``: the server
    answered the second policy from the first one's cache entry."""
    db = ColumnarDatabase({"city": np.array(["17", "x", "17", "y"])})
    server = ReleaseServer(db.shard(1))
    binning = CategoricalBinning("city", ["17", "x", "y"])
    numeric = compile_policy({"attr": "city", "op": "==", "value": np.int64(17)})
    text = compile_policy({"attr": "city", "op": "==", "value": "17"})
    assert numeric.cache_key() != text.cache_key()
    first, _ = server.histogram_input(binning, numeric)
    assert first.x_ns.tolist() == [2, 1, 1]  # "17" != 17: none sensitive
    second, hit = server.histogram_input(binning, text)
    assert not hit
    assert second.x_ns.tolist() == [0, 1, 1]


def test_a_nan_member_matches_every_nan_so_equal_keys_label_alike():
    """``canonical_spec`` writes every NaN as ``NaN``; when a NaN member
    matched only its own object, two specs with one key labelled a
    record apart, and the server answered the second from the first
    one's cached pair."""
    nan_a, nan_b = float("nan"), float("nan")
    records = [{"x": nan_a}, {"x": 1.0}, {"x": float("nan")}]
    db = ColumnarDatabase.from_records(records)
    first = compile_policy({"attr": "x", "op": "in", "value": [nan_a]})
    second = compile_policy({"attr": "x", "op": "in", "value": [nan_b, nan_a]})
    assert first.cache_key() == second.cache_key()
    for policy in (first, second):
        assert [policy(r) for r in records] == [0, 1, 0]
        assert policy.evaluate_batch(db).tolist() == [0, 1, 0]
        assert policy.evaluate_batch({"x": np.array([NAN, 1.0])}).tolist() == [0, 1]
    binning = CategoricalBinning("k", ["a"])
    table = ColumnarDatabase.from_records([{**r, "k": "a"} for r in records])
    server = ReleaseServer(table.shard(1))
    cold = ReleaseServer(table.shard(1)).histogram_input(binning, second)[0]
    assert server.histogram_input(binning, first)[0].x_ns.tolist() == [1]
    warm, hit = server.histogram_input(binning, second)
    assert hit  # one key, one labelling: the cached pair is the answer
    assert warm.x_ns.tolist() == cold.x_ns.tolist() == [1]
    with pytest.raises(PolicySpecError, match="NaN"):
        compile_policy({"attr": "x", "op": "in", "value": [(1, nan_a)]})


def test_integer_columns_meet_float_operands_exactly():
    """numpy compares int64 with float64 in float64: 2**53 + 1 <= 2**53
    came out true per column and false per record."""
    x = np.array([2**53, 2**53 + 1], dtype=np.int64)
    records = [{"x": int(v)} for v in x]
    cases = {
        ("<=", 2.0**53): [0, 1],
        ("<", 2.0**53 + 2): [0, 0],
        (">", 2.0**53): [1, 0],
        ("==", 2.0**53): [0, 1],
        ("!=", 2.0**52 + 0.5): [0, 0],
        ("in", (2.0**53,)): [0, 1],
    }
    for (op, operand), labels in cases.items():
        policy = compile_policy({"attr": "x", "op": op, "value": operand})
        assert [policy(r) for r in records] == labels, op
        assert policy.evaluate_batch({"x": x}).tolist() == labels, op
    for values, op, operand in (
        ([2.0**53, 2.0**54], "<", 2**53 + 1),  # the int past float64
        ([1.5, 2.0], "<", 1.5000000001),  # the float past float32
    ):
        floats = np.array(values, dtype=np.float32)
        policy = compile_policy({"attr": "x", "op": op, "value": operand})
        assert [policy({"x": float(v)}) for v in floats] == [0, 1]
        assert policy.evaluate_batch({"x": floats}).tolist() == [0, 1]


def test_the_rendering_is_canonical_and_strict():
    assert canonical_spec({"b", "a", "c"}) == '["a", "b", "c"]'
    assert canonical_spec(np.int64(17)) == "17" != canonical_spec("17")
    as_set = compile_policy({"attr": "city", "op": "in", "value": {"b", "a"}})
    as_list = compile_policy({"attr": "city", "op": "in", "value": ["a", "b"]})
    assert as_set.cache_key() == as_list.cache_key()
    assert as_set.name == 'spec:{"attr": "city", "op": "in", "value": ["a", "b"]}'
    with pytest.raises(PolicySpecError, match="no JSON form"):
        compile_policy({"attr": "city", "op": "==", "value": object()})


def test_key_attributes_and_fingerprint_come_from_the_ir():
    minor = {"attr": "age", "op": "<=", "value": 17}
    named = policy_from_spec({"kind": "predicate", "when": minor, "name": "m"})
    doubled = compile_policy({"any": [minor, dict(reversed(minor.items()))]})
    assert named.cache_key() == doubled.cache_key()
    assert doubled.cache_key() == compile_policy(minor).cache_key()
    fingerprint = policy_spec_fingerprint
    assert fingerprint({"any": [minor, minor]}) == fingerprint(minor)
    assert doubled.attributes() == {"age"}
    aps = policy_from_spec({"kind": "sensitive_aps", "aps": [3, 1]})
    assert aps.attributes() == {"aps"}
    assert aps.to_spec() == {
        "kind": "sensitive_aps", "aps": [1, 3], "name": "sensitive-aps"
    }


# ----------------------------------------------------------------------
# Lemma 3.2 reads the IR
# ----------------------------------------------------------------------


def test_a_composition_of_dp_guarantees_is_dp():
    p_all = OSDPGuarantee(AllSensitivePolicy(), 0.5)
    composed = sequential_composition([p_all, p_all])
    assert str(composed) == "(mr(P_all,P_all), 1.0)-OSDP"
    assert osdp_all_sensitive_to_dp(composed).epsilon == 1.0
    for policy in (
        MinimumRelaxationPolicy([AllSensitivePolicy(), OptInPolicy()]),
        LambdaPolicy(lambda r: True),
    ):
        with pytest.raises(ValueError, match="all-sensitive"):
            osdp_all_sensitive_to_dp(OSDPGuarantee(policy, 0.5))


# ----------------------------------------------------------------------
# Structure: one policy class, no second compiler, no registry
# ----------------------------------------------------------------------


def _sources():
    return sorted(SRC.rglob("*.py"))


def test_lambda_policy_is_the_one_policy_subclass():
    bases: dict[str, set] = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in node.bases
                }
    subclasses, grew = set(), True
    while grew:
        found = {n for n, bs in bases.items() if bs & (subclasses | {"Policy"})}
        grew, subclasses = found != subclasses, found
    assert subclasses == {"LambdaPolicy"}


@pytest.mark.parametrize(
    "name", ["register_policy_kind", "CompiledSpecPolicy", "sensitive_when_batch"]
)
def test_the_removed_forms_stay_gone(name):
    for path in _sources():
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        assert name not in {t.string for t in tokens if t.type == tokenize.NAME}, path
