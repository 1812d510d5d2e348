"""Property-based round trip of the request/response wire format.

The protocol contract of :mod:`repro.api.wire`: for any serializable
policy/binning (algebra objects or raw spec dicts), a
:class:`ReleaseRequest` survives ``request_to_wire`` -> JSON text ->
``request_from_wire`` with **bit-identical handling** (same estimates
from a cold server, same seed), responses survive with bit-exact
estimate buffers, the socket framing reassembles arbitrary
array-bearing messages exactly (even through fragmented reads), and
the failure payloads — most importantly
:class:`BatchBudgetExceededError` with its charged prefix — rebuild
faithfully.
"""

from __future__ import annotations

import collections
import gc
import json
import pickle
import types
import typing
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import wire
from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.queries.histogram import IntegerBinning, Product2DBinning
from repro.service import (
    BatchBudgetExceededError,
    ReleaseRequest,
    ReleaseResponse,
    ReleaseServer,
)
from test_spec_roundtrip import (
    binnings,
    flat_records,
    predicate_specs,
    serializable_policies,
)

MAX_EXAMPLES = 25


def _clip_to_domain(records, binning):
    """Drop records a random integer binning cannot place."""

    def in_domain(record, b):
        if isinstance(b, IntegerBinning):
            return b.low <= record["age"] < b.high
        if isinstance(b, Product2DBinning):
            return in_domain(record, b.first) and in_domain(record, b.second)
        return True

    return [r for r in records if in_domain(r, binning)]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    records=flat_records(),
    policy=serializable_policies(),
    binning=binnings(),
    seed=st.integers(0, 2**31 - 1),
    mechanism=st.sampled_from(["laplace", "osdp_laplace_l1", "osdp_rr"]),
)
def test_request_json_round_trip_handles_bit_identically(
    records, policy, binning, seed, mechanism
):
    from repro.data.columnar import ColumnarDatabase

    records = _clip_to_domain(records, binning)
    if not records:
        return
    db = ColumnarDatabase.from_records(records)
    request = ReleaseRequest(
        mechanism, 0.5, binning, policy, n_trials=2, seed=seed
    )
    doc = wire.request_to_wire(request)
    text = wire.dumps(doc)
    rebuilt = wire.request_from_wire(wire.loads(text))
    # two cold servers over the same data: live objects vs the request
    # that crossed the wire as pure JSON must release identical bits
    got = ReleaseServer(db.shard(2)).handle(rebuilt)
    want = ReleaseServer(db.shard(2)).handle(request)
    assert np.array_equal(got.estimates, want.estimates)
    # and the wire form is canonical: re-serializing reproduces it
    assert wire.request_to_wire(rebuilt) == json.loads(json.dumps(doc))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(spec=predicate_specs(), records=flat_records())
def test_spec_dict_requests_round_trip(spec, records):
    """Requests carrying raw spec dicts (the transport-native form)."""
    from repro.data.columnar import ColumnarDatabase

    db = ColumnarDatabase.from_records(records)
    binning = IntegerBinning("age", 0, 100, 10)
    request = ReleaseRequest(
        "osdp_laplace_l1", 0.5, binning.to_spec(), spec, n_trials=1, seed=7
    )
    rebuilt = wire.request_from_wire(
        wire.loads(wire.dumps(wire.request_to_wire(request)))
    )
    got = ReleaseServer(db.shard(1)).handle(rebuilt)
    want = ReleaseServer(db.shard(1)).handle(request)
    assert np.array_equal(got.estimates, want.estimates)


# ----------------------------------------------------------------------
# Responses (bit-exact estimate buffers)
# ----------------------------------------------------------------------


def _finite_matrices():
    return st.tuples(
        st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**32 - 1)
    ).map(
        lambda t: np.random.default_rng(t[2]).standard_normal((t[0], t[1]))
        * 10.0 ** np.random.default_rng(t[2] + 1).integers(-8, 8)
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(estimates=_finite_matrices(), cache_hit=st.booleans())
def test_response_round_trip_is_bit_exact(estimates, cache_hit):
    response = ReleaseResponse(
        request=ReleaseRequest(
            "laplace",
            0.5,
            IntegerBinning("age", 0, 100, 10).to_spec(),
            {"kind": "opt_in", "attr": "opt_in"},
            n_trials=estimates.shape[0],
            seed=3,
        ),
        estimates=estimates,
        epsilon_spent=0.5,
        budget_remaining=1.25,
        cache_hit=cache_hit,
    )
    doc = wire.loads(wire.dumps(wire.response_to_wire(response)))
    back = wire.response_from_wire(doc)
    assert back.estimates.dtype == estimates.dtype
    assert back.estimates.shape == estimates.shape
    assert back.estimates.tobytes() == estimates.tobytes()
    assert back.cache_hit == cache_hit
    assert back.request.mechanism == "laplace"
    assert back.request.n_trials == estimates.shape[0]


def test_integer_and_float32_arrays_round_trip():
    for arr in (
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.float32([[1.5, np.pi]]),
        np.array([], dtype=np.float64),
    ):
        back = wire.array_from_jsonable(
            json.loads(json.dumps(wire.array_to_jsonable(arr)))
        )
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_object_arrays_are_rejected():
    with pytest.raises(wire.WireError, match="object-dtype"):
        wire.array_to_jsonable(np.array([{"a": 1}], dtype=object))


# ----------------------------------------------------------------------
# Socket framing
# ----------------------------------------------------------------------


class _FragmentingSocket:
    """A fake socket serving a byte buffer in tiny fragments."""

    def __init__(self, data: bytes, fragment: int = 7):
        self._data = data
        self._pos = 0
        self._fragment = fragment

    def recv(self, n: int) -> bytes:
        take = min(n, self._fragment, len(self._data) - self._pos)
        chunk = self._data[self._pos : self._pos + take]
        self._pos += take
        return chunk


@st.composite
def wire_messages(draw):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**53), 2**53),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=8),
    )
    arrays = st.tuples(st.integers(0, 5), st.integers(0, 2**16)).map(
        lambda t: np.random.default_rng(t[1]).integers(
            -1000, 1000, size=t[0], dtype=np.int64
        )
    )
    return draw(
        st.recursive(
            st.one_of(scalars, arrays),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.text(max_size=5), children, max_size=3),
            ),
            max_leaves=8,
        )
    )


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(message=wire_messages())
def test_framing_round_trip_through_fragmented_reads(message):
    data = wire.encode_message(message)
    back = wire.recv_message(_FragmentingSocket(data))
    _assert_same(message, back)


def _encode_message_before_the_flat_codec(obj) -> bytes:
    """``encode_message`` as it stood while ``strip`` was a closure that
    asked ``isinstance`` of ``typing.Mapping`` at every node (PR 17) —
    the reference the flat, exact-type-first codec must match to the
    byte."""
    arrays = []

    def strip(value):
        if isinstance(value, np.ndarray):
            arrays.append(np.ascontiguousarray(value))
            return {"__array__": len(arrays) - 1}
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, typing.Mapping):
            return {str(k): strip(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    body = strip(obj)
    header = {
        "v": wire.WIRE_VERSION,
        "arrays": [
            {"dtype": a.dtype.str, "shape": list(a.shape), "nbytes": int(a.nbytes)}
            for a in arrays
        ],
        "body": body,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [len(blob).to_bytes(4, "big"), blob, *(a.tobytes() for a in arrays)]
    )


@settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
@given(message=wire_messages())
def test_encoding_is_byte_identical_to_the_closure_codec(message):
    assert wire.encode_message(message) == (
        _encode_message_before_the_flat_codec(message)
    )


def test_encoding_of_every_node_kind_is_byte_identical():
    """What exact-type fast paths could get wrong: key order and
    ``str(k)`` coercion, numpy scalars (also those that subclass
    ``float``/``str``), tuples, and containers that are not exactly
    ``dict``/``list``."""
    message = {
        "zeta": 1,
        "alpha": {3: "int key", None: "none key", 2.5: "float key"},
        "np": [np.float64(0.1), np.int32(-7), np.bool_(True), np.str_("s")],
        "tuple": (1, (2.0, None), [True, "x"]),
        "mappings": [
            collections.OrderedDict(b=1, a=np.arange(3)),
            types.MappingProxyType({"view": np.float32(1.5)}),
            collections.defaultdict(list, k=[np.arange(2.0)]),
        ],
        "named": collections.namedtuple("Point", "x y")(1, np.int64(2)),
        "arrays": [np.arange(6).reshape(2, 3)[:, ::2], np.array(3.5)],
        "leaves": [True, False, None, 0, -0.0, 1e300, "", "\u00e9"],
    }
    encoded = wire.encode_message(message)
    assert encoded == _encode_message_before_the_flat_codec(message)
    assert isinstance(encoded, bytes)
    header_len = int.from_bytes(encoded[:4], "big")
    header = json.loads(encoded[4 : 4 + header_len])
    assert list(header["body"]) == list(message)  # insertion order, unsorted
    assert list(header["body"]["alpha"]) == ["3", "None", "2.5"]
    assert header["body"]["np"] == [0.1, -7, True, "s"]
    assert header["body"]["tuple"] == [1, [2.0, None], [True, "x"]]
    assert header["body"]["named"] == [1, 2]
    assert len(header["arrays"]) == 4


def test_encoding_creates_no_reference_cycle():
    """A reply's arrays must die with the reply, by reference count: as
    cyclic garbage they wait for a generational collection, and a server
    that allocates little else between replies holds tens of megabytes
    of dead 327 KB estimate buffers."""
    gc.collect()
    gc.disable()
    try:
        arr = np.arange(40960, dtype=np.float64)
        ref = weakref.ref(arr)
        wire.encode_message({"ok": {"estimates": arr}})
        del arr
        assert ref() is None
    finally:
        gc.enable()


def test_recv_rejects_wrong_version_and_truncation():
    data = bytearray(wire.encode_message({"hello": np.arange(3)}))
    with pytest.raises(EOFError):
        wire.recv_message(_FragmentingSocket(bytes(data[:-2])))
    bad = wire.encode_message({"x": 1}).replace(b'"v":1', b'"v":9')
    with pytest.raises(wire.WireError, match="wire version"):
        wire.recv_message(_FragmentingSocket(bad))


# ----------------------------------------------------------------------
# Failure payloads
# ----------------------------------------------------------------------


def _batch_error() -> BatchBudgetExceededError:
    from repro.data.columnar import ColumnarDatabase

    rng = np.random.default_rng(0)
    db = ColumnarDatabase(
        {
            "age": rng.integers(0, 100, 500),
            "opt_in": rng.integers(0, 2, 500).astype(bool),
        }
    )
    server = ReleaseServer(
        db.shard(1), accountant=PrivacyAccountant(total_epsilon=0.6)
    )
    requests = [
        ReleaseRequest(
            "laplace",
            0.25,
            IntegerBinning("age", 0, 100, 10).to_spec(),
            {"kind": "opt_in", "attr": "opt_in"},
            seed=s,
        )
        for s in range(4)
    ]
    with pytest.raises(BatchBudgetExceededError) as excinfo:
        server.handle_batch(requests)
    return excinfo.value


def test_batch_budget_error_wire_round_trip():
    exc = _batch_error()
    assert len(exc.responses) == 2
    doc = wire.loads(wire.dumps(wire.error_to_wire(exc)))
    back = wire.exception_from_wire(doc)
    assert isinstance(back, BatchBudgetExceededError)
    assert isinstance(back, BudgetExceededError)
    assert str(back) == str(exc)
    assert len(back.responses) == 2
    for got, want in zip(back.responses, exc.responses):
        assert np.array_equal(got.estimates, want.estimates)
        assert got.budget_remaining == want.budget_remaining
    assert back.failed_request.seed == exc.failed_request.seed
    assert back.failed_request.mechanism == exc.failed_request.mechanism


def test_batch_budget_error_pickle_round_trip():
    """The satellite bugfix: the exception must pickle with its payload."""
    exc = _batch_error()
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, BatchBudgetExceededError)
    assert str(clone) == str(exc)
    assert len(clone.responses) == len(exc.responses)
    for got, want in zip(clone.responses, exc.responses):
        assert np.array_equal(got.estimates, want.estimates)
    assert clone.failed_request.epsilon == exc.failed_request.epsilon


def test_plain_error_kinds_round_trip():
    for exc, kind in (
        (BudgetExceededError("over"), BudgetExceededError),
        (ValueError("bad value"), ValueError),
        (KeyError("missing"), KeyError),
    ):
        back = wire.exception_from_wire(
            wire.loads(wire.dumps(wire.error_to_wire(exc)))
        )
        assert isinstance(back, kind)
    unknown = wire.exception_from_wire({"kind": "Exotic", "message": "boom"})
    assert isinstance(unknown, wire.RemoteError)
    assert "Exotic" in str(unknown)
