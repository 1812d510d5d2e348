"""The policy spec language (paper §7) and the policy wire format.

A spec states when a record is **sensitive**; it is the IR of
:mod:`repro.core.policy` written as JSON::

    {"any": [{"attr": "age", "op": "<=", "value": 17},
             {"attr": "opt_in", "op": "==", "value": False}]}

A leaf tests one attribute (``op`` in ``== != < <= > >= in not_in any_in
truthy``; ``truthy`` takes no ``value``); ``{"any": [...]}``, ``{"all":
[...]}``, ``{"not": ...}``, ``true`` and ``false`` combine leaves.  Every
policy's ``to_spec()`` is a bare spec or one of the wire kinds of
``_KINDS``, and :func:`policy_from_spec` lowers each onto the IR through
that one table: a policy crosses a process boundary as data and arrives
with the same ``cache_key()`` and bit-identical masks.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping

from repro.core.policy import (  # noqa: F401 - re-exported spec API
    LEAF_TESTS,
    Policy,
    PolicySpecError,
    SpecUnsupported,
    canonical_spec,
    member_set,
    sorted_plain_values,
)


def _require_list(value, keyword: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise PolicySpecError(f"{keyword!r} requires a non-empty list")
    return list(value)


def _join(kind: str, parts: list) -> tuple:
    """``(kind, kids)`` and its rendering, identical kids merged; one kid
    stands for itself (``mr(P_all,P_all)`` is ``True``)."""
    unique: dict = {}
    for node, text in parts:
        unique.setdefault(text, node)
    if len(unique) == 1:
        return next(iter(unique.values())), next(iter(unique))
    return (kind, tuple(unique.values())), f'["{kind}", [{", ".join(unique)}]]'


def _leaf(op: str, attr, operand) -> tuple:
    """A leaf as ``(IR node, rendering, sorted members or None)``."""
    if op not in LEAF_TESTS:
        raise PolicySpecError(f"unknown operator {op!r}")
    if op not in ("in", "not_in", "any_in"):
        node = (op, attr, None if op == "truthy" else operand)
        return node, canonical_spec(node), None
    try:
        members = member_set(operand)
    except TypeError as exc:
        raise PolicySpecError(f"members must be hashable values: {exc}") from None
    listed = sorted_plain_values(members)
    return (op, attr, members), canonical_spec((op, attr, listed)), listed


def _lower(spec) -> tuple:
    """A predicate spec as ``(IR node, canonical rendering)``."""
    if isinstance(spec, bool):
        return spec, canonical_spec(spec)
    if not isinstance(spec, Mapping):
        raise PolicySpecError(f"spec must be a mapping, got {type(spec).__name__}")
    combinators = {"any", "all", "not"} & spec.keys()
    if len(combinators) > 1:
        raise PolicySpecError(f"ambiguous spec with {sorted(combinators)}")
    if "not" in spec:
        node, text = _lower(spec["not"])
        return ("not", node), f'["not", {text}]'
    if combinators:
        (kind,) = combinators
        return _join(kind, [_lower(s) for s in _require_list(spec[kind], kind)])
    optional = {"value"} if spec.get("op") == "truthy" else set()
    missing = {"attr", "op", "value"} - optional - spec.keys()
    if missing:
        raise PolicySpecError(f"leaf spec missing keys {sorted(missing)}: {spec}")
    return _leaf(spec["op"], spec["attr"], spec.get("value"))[:2]


# The wire kinds: spec -> ((IR, rendering), normalized spec, name).


def _opt_in(spec):
    attr, name = spec.get("attr", "opt_in"), spec.get("name", "opt-in")
    node, text, _ = _leaf("truthy", attr, None)
    lowered = ("not", node), f'["not", {text}]'
    return lowered, {"kind": "opt_in", "attr": attr, "name": name}, name


def _values(spec):
    attr = spec["attr"]
    node, text, listed = _leaf("in", attr, spec["values"])
    name = spec.get("name") or f"values:{attr}"
    out = {"kind": "values", "attr": attr, "values": listed, "name": name}
    return (node, text), out, name


def _sensitive_aps(spec):
    node, text, listed = _leaf("any_in", "aps", spec["aps"])
    name = spec.get("name", "sensitive-aps")
    return (node, text), {"kind": "sensitive_aps", "aps": listed, "name": name}, name


def _predicate(spec):
    when = spec["when"]
    name = spec.get("name") or f"spec:{canonical_spec(when)}"
    return _lower(when), {"kind": "predicate", "when": when, "name": name}, name


def _combination(kind: str, ir_kind: str):
    def lower(spec):
        kids = [policy_from_spec(s) for s in _require_list(spec["policies"], kind)]
        lowered = _join(ir_kind, [(k.ir, k.cache_key()) for k in kids])
        name = f"{kind}(" + ",".join(k.name for k in kids) + ")"
        return lowered, {"kind": kind, "policies": [k.to_spec() for k in kids]}, name

    return lower


_KINDS = {
    "opt_in": _opt_in,
    "values": _values,
    "sensitive_aps": _sensitive_aps,
    "predicate": _predicate,
    "mr": _combination("mr", "all"),
    "and": _combination("and", "any"),
    "all_sensitive": lambda spec: (_lower(True), {"kind": "all_sensitive"}, "P_all"),
    "all_non_sensitive": lambda spec: (
        _lower(False), {"kind": "all_non_sensitive"}, "P_none"
    ),
}


def policy_from_spec(spec: Mapping) -> Policy:
    """Rebuild a policy from its spec — the inverse of ``to_spec()``.

    A spec without a ``kind`` is a bare predicate spec.  ``to_spec()`` of
    the result is the normalized spec (defaults filled, member sets
    sorted); equal labellings give equal ``cache_key()``.
    """
    if not isinstance(spec, Mapping):
        raise PolicySpecError(f"spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind is None:
        spec, kind = {"when": spec}, "predicate"
    if kind not in _KINDS:
        raise PolicySpecError(f"unknown policy kind {kind!r}; known: {sorted(_KINDS)}")
    (ir, key), out, name = _KINDS[kind](spec)
    return Policy(ir, key, out, name)


def compile_policy(spec: Mapping, name: str | None = None) -> Policy:
    """A predicate spec as a Policy, named ``spec:`` + its rendering by default."""
    return policy_from_spec({"kind": "predicate", "when": spec, "name": name})


def policy_spec_fingerprint(spec: Mapping) -> str:
    """Short hash of the spec's canonical IR rendering, for ledgers and
    audits: key order, member order, repeats and names do not change it."""
    key = policy_from_spec(spec).cache_key()
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def validate_spec(spec: Mapping) -> None:
    """Raise :class:`PolicySpecError` if the spec does not compile."""
    _lower(spec)


def policy_to_spec(policy: Policy) -> dict:
    """``policy.to_spec()``, or :class:`PolicySpecError` for an opaque
    policy, which cannot cross a process boundary."""
    try:
        return policy.to_spec()
    except SpecUnsupported as exc:
        raise PolicySpecError(str(exc)) from exc
