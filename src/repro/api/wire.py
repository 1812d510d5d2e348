"""The OSDP release wire format: canonical JSON + ndarray framing.

:class:`repro.service.server.ReleaseRequest` /
:class:`~repro.service.server.ReleaseResponse` are *the* protocol of
the release service (ROADMAP: "the spec wire format and
ReleaseRequest-as-data are the protocol").  This module pins their
portable form in two layers:

* **JSON documents.**  :func:`request_to_wire` renders a request as a
  plain dict whose policy/binning are the PR-3 specs
  (:func:`repro.core.policy_language.policy_to_spec`,
  :func:`repro.queries.histogram.binning_to_spec`);
  :func:`response_to_wire` does the same for responses, with ndarrays
  as ``{"__ndarray__": ...}`` descriptors.  :func:`dumps`/:func:`loads`
  turn any such object into JSON text and back — numeric arrays travel
  as base64 of their raw buffers, so the round trip is **bit-exact**
  (no float re-parsing is involved).
* **Socket frames.**  :func:`send_message`/:func:`recv_message` move
  the same objects over a stream socket as one length-prefixed JSON
  header followed by the referenced ndarray buffers, raw — large
  estimate matrices cross the wire without base64 inflation or pickle
  (the framing is language-agnostic: 4-byte big-endian lengths, UTF-8
  JSON, C-order array bytes).

Failures are part of the protocol: :func:`error_to_wire` serializes the
service exceptions — including
:class:`repro.service.server.BatchBudgetExceededError` with its charged
prefix of responses and the request that overran — and
:func:`exception_from_wire` rebuilds them so a remote client re-raises
exactly what the in-process caller would have seen.
"""

from __future__ import annotations

import base64
import json
import struct
from collections.abc import Mapping

import numpy as np

from repro.api.resilience import DeadlineExceeded, ServerOverloaded
from repro.core.accountant import (
    AnalystQuotaExceededError,
    BudgetExceededError,
)
from repro.core.policy_language import PolicySpecError, policy_to_spec
from repro.queries.histogram import binning_to_spec
from repro.service.server import (
    BatchBudgetExceededError,
    ReleaseRequest,
    ReleaseResponse,
)

WIRE_VERSION = 1

#: Upper bound on a single frame (header or array payload); a length
#: prefix beyond this is treated as a corrupt/hostile stream rather
#: than honored with a giant allocation.
MAX_FRAME_BYTES = 1 << 31

_U32 = struct.Struct(">I")


class WireError(RuntimeError):
    """A malformed frame or an un-serializable value."""


class RemoteError(RuntimeError):
    """A server-side failure of a kind the client cannot reconstruct."""


# ----------------------------------------------------------------------
# ndarray <-> JSON-able descriptor (bit-exact via raw-buffer base64)
# ----------------------------------------------------------------------


def _check_dtype(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.hasobject:
        raise WireError(
            "object-dtype arrays have no portable wire form; convert to "
            "a numeric or fixed-width string dtype first"
        )
    return np.ascontiguousarray(arr)


def array_to_jsonable(arr) -> dict:
    """A numeric ndarray as a plain-JSON descriptor (bit-exact)."""
    arr = _check_dtype(np.asarray(arr))
    return {
        "__ndarray__": True,
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def array_from_jsonable(obj: Mapping) -> np.ndarray:
    """Inverse of :func:`array_to_jsonable`."""
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
    return arr.reshape(tuple(obj["shape"])).copy()


def _json_default(value):
    if isinstance(value, np.ndarray):
        return array_to_jsonable(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(
        f"{type(value).__name__} is not JSON-serializable on the wire"
    )


def _json_object_hook(obj: dict):
    if obj.get("__ndarray__") is True:
        return array_from_jsonable(obj)
    return obj


def dumps(obj) -> str:
    """JSON text of a wire object (ndarrays become bit-exact descriptors)."""
    return json.dumps(obj, default=_json_default, sort_keys=True)


def loads(text: str):
    """Inverse of :func:`dumps`: descriptors come back as ndarrays."""
    return json.loads(text, object_hook=_json_object_hook)


# ----------------------------------------------------------------------
# Request / response documents
# ----------------------------------------------------------------------


def request_to_wire(request: ReleaseRequest) -> dict:
    """A request as a plain dict: policies/binnings as their specs.

    A request already carrying spec dicts (the transport-native form)
    passes them through untouched; live objects serialize via their
    ``to_spec``.  Opaque policies (hand-written predicates) raise
    :class:`repro.core.policy_language.PolicySpecError` — they cannot
    cross a machine boundary and must be rebuilt from the declarative
    language instead.
    """
    binning, policy = request.binning, request.policy
    return {
        "mechanism": request.mechanism,
        "epsilon": float(request.epsilon),
        "binning": dict(binning)
        if isinstance(binning, Mapping)
        else binning_to_spec(binning),
        "policy": dict(policy)
        if isinstance(policy, Mapping)
        else policy_to_spec(policy),
        "n_trials": int(request.n_trials),
        "seed": None if request.seed is None else int(request.seed),
        "label": str(request.label),
        "analyst": str(request.analyst),
    }


def request_from_wire(doc: Mapping) -> ReleaseRequest:
    """Rebuild a request; policy/binning stay as specs.

    The server resolves specs per request and its caches key by value
    identity, so handling the rebuilt request is bit-identical to
    handling the original.
    """
    return ReleaseRequest(
        mechanism=doc["mechanism"],
        epsilon=float(doc["epsilon"]),
        binning=doc["binning"],
        policy=doc["policy"],
        n_trials=int(doc.get("n_trials", 1)),
        seed=None if doc.get("seed") is None else int(doc["seed"]),
        label=doc.get("label", ""),
        analyst=doc.get("analyst", ""),
    )


def response_to_wire(response: ReleaseResponse) -> dict:
    """A response as a wire object (the estimates stay an ndarray —
    :func:`dumps` or the socket framing decide their byte form)."""
    remaining = response.budget_remaining
    return {
        "request": request_to_wire(response.request),
        "estimates": np.asarray(response.estimates),
        "epsilon_spent": float(response.epsilon_spent),
        "budget_remaining": None if remaining is None else float(remaining),
        "cache_hit": bool(response.cache_hit),
    }


def response_from_wire(doc: Mapping) -> ReleaseResponse:
    """Inverse of :func:`response_to_wire`."""
    estimates = doc["estimates"]
    if not isinstance(estimates, np.ndarray):
        estimates = array_from_jsonable(estimates)
    return ReleaseResponse(
        request=request_from_wire(doc["request"]),
        estimates=estimates,
        epsilon_spent=float(doc["epsilon_spent"]),
        budget_remaining=doc.get("budget_remaining"),
        cache_hit=bool(doc.get("cache_hit", False)),
    )


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

_EXCEPTION_KINDS: dict[str, type[Exception]] = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "PolicySpecError": PolicySpecError,
    "WireError": WireError,
    "DeadlineExceeded": DeadlineExceeded,
}


def error_to_wire(exc: BaseException) -> dict:
    """Serialize a service failure, payload included.

    :class:`BatchBudgetExceededError` is the load-bearing case: its
    already-charged prefix of responses and the request that overran
    must reach the remote caller — charged noise is never silently
    discarded, not even across a socket.
    """
    if isinstance(exc, BatchBudgetExceededError):
        return {
            "kind": "batch_budget_exceeded",
            "message": str(exc),
            "responses": [response_to_wire(r) for r in exc.responses],
            "failed_request": request_to_wire(exc.failed_request),
        }
    if isinstance(exc, AnalystQuotaExceededError):
        return {"kind": "quota_exceeded", "message": str(exc)}
    if isinstance(exc, BudgetExceededError):
        return {"kind": "budget_exceeded", "message": str(exc)}
    if isinstance(exc, ServerOverloaded):
        doc = {"kind": "server_overloaded", "message": str(exc)}
        if exc.retry_after is not None:
            doc["retry_after"] = float(exc.retry_after)
        return doc
    kind = type(exc).__name__
    message = str(exc)
    if isinstance(exc, KeyError) and exc.args:
        # KeyError stringifies to the repr of its key; keep the bare
        # message so the round trip doesn't nest quotes.
        message = str(exc.args[0])
    return {"kind": kind, "message": message}


def exception_from_wire(doc: Mapping) -> Exception:
    """Rebuild the exception a server shipped with :func:`error_to_wire`."""
    kind = doc.get("kind", "RemoteError")
    message = doc.get("message", "")
    if kind == "batch_budget_exceeded":
        return BatchBudgetExceededError(
            message,
            [response_from_wire(r) for r in doc.get("responses", ())],
            request_from_wire(doc["failed_request"]),
        )
    if kind == "quota_exceeded":
        return AnalystQuotaExceededError(message)
    if kind == "budget_exceeded":
        return BudgetExceededError(message)
    if kind == "server_overloaded":
        return ServerOverloaded(message, retry_after=doc.get("retry_after"))
    cls = _EXCEPTION_KINDS.get(kind)
    if cls is not None:
        return cls(message)
    return RemoteError(f"{kind}: {message}")


# ----------------------------------------------------------------------
# Length-prefixed JSON/ndarray socket framing
# ----------------------------------------------------------------------


#: Exact types ``json`` renders as they are — most nodes of a header.
_PLAIN_LEAVES = frozenset({str, int, float, bool, type(None)})


def _strip(value, arrays: list):
    """``value`` with its ndarrays moved into ``arrays`` (see below).

    Module-level on purpose: as a closure over ``arrays`` that called
    itself it was a reference cycle, and every message's arrays stayed
    allocated until a generational collection came by.  Exact types
    lead (an ABC ``isinstance`` costs ten times as much); the classes
    are disjoint, so the order changes no result.
    """
    if type(value) in _PLAIN_LEAVES:
        return value
    if isinstance(value, (dict, Mapping)):
        return {str(k): _strip(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strip(v, arrays) for v in value]
    if isinstance(value, np.ndarray):
        arrays.append(_check_dtype(value))
        return {"__array__": len(arrays) - 1}
    if isinstance(value, np.generic):
        return value.item()
    return value


def encode_message(obj) -> bytes:
    """One message as bytes: JSON header frame + raw ndarray frames.

    ndarrays anywhere inside ``obj`` are pulled out into binary
    payloads and replaced by ``{"__array__": i}`` placeholders in the
    header's ``body``; the header's ``arrays`` list carries each
    payload's dtype/shape/byte count, so the reader knows exactly what
    follows without a second length prefix per array.
    """
    arrays: list[np.ndarray] = []
    body = _strip(obj, arrays)
    header = {
        "v": WIRE_VERSION,
        "arrays": [
            {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "nbytes": int(arr.nbytes),
            }
            for arr in arrays
        ],
        "body": body,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_U32.pack(len(blob)), blob]
    parts.extend(arr.tobytes() for arr in arrays)
    return b"".join(parts)


def _reinflate(value, arrays: list[np.ndarray]):
    if isinstance(value, dict):
        index = value.get("__array__")
        if index is not None and value.keys() == {"__array__"}:
            return arrays[index]
        return {k: _reinflate(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_reinflate(v, arrays) for v in value]
    return value


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("socket closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock, obj) -> None:
    """Frame ``obj`` and write it to a connected stream socket."""
    sock.sendall(encode_message(obj))


def recv_frame_prefix(sock) -> int:
    """Block for the next message's 4-byte length prefix.

    This is the *idle* blocking point of a connection: until the prefix
    arrives, no part of a message has been committed to the stream, so
    a server may safely shut the connection down here (the graceful-
    drain path in :mod:`repro.service.rpc` relies on that split).
    Returns the header length; raises ``EOFError`` on a closed peer and
    :class:`WireError` on a prefix beyond :data:`MAX_FRAME_BYTES`.
    """
    (header_len,) = _U32.unpack(_recv_exact(sock, _U32.size))
    if header_len > MAX_FRAME_BYTES:
        raise WireError(f"header frame of {header_len} bytes exceeds bound")
    return header_len


def recv_message_body(sock, header_len: int):
    """Read the rest of a message whose prefix announced ``header_len``.

    Every way a corrupt or hostile stream can fail decoding — header
    bytes that are not UTF-8 JSON, an unknown dtype, a shape that does
    not match the byte count, a negative or oversized array frame —
    raises :class:`WireError` (truncation still raises ``EOFError``).
    Nothing is silently skipped: after any of these the stream position
    is unknown and the caller must drop the connection.
    """
    raw_header = _recv_exact(sock, header_len)
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable header frame: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError(
            f"header frame is {type(header).__name__}, expected an object"
        )
    if header.get("v") != WIRE_VERSION:
        raise WireError(
            f"peer speaks wire version {header.get('v')!r}, "
            f"this client speaks {WIRE_VERSION}"
        )
    arrays = []
    descriptors = header.get("arrays", ())
    if not isinstance(descriptors, list):
        raise WireError("header 'arrays' is not a list")
    for descriptor in descriptors:
        try:
            nbytes = int(descriptor["nbytes"])
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(s) for s in descriptor["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed array descriptor: {exc}") from exc
        if nbytes < 0 or nbytes > MAX_FRAME_BYTES:
            raise WireError(f"array frame of {nbytes} bytes exceeds bound")
        raw = _recv_exact(sock, nbytes)
        try:
            arrays.append(
                np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            )
        except (ValueError, TypeError) as exc:
            raise WireError(
                f"array frame does not match its descriptor: {exc}"
            ) from exc
    try:
        return _reinflate(header.get("body"), arrays)
    except (IndexError, TypeError) as exc:
        raise WireError(f"malformed message body: {exc}") from exc


def recv_message(sock):
    """Read one framed message; raises ``EOFError`` on a closed peer."""
    return recv_message_body(sock, recv_frame_prefix(sock))
