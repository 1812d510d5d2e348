"""A small declarative policy-specification language (paper §7).

The paper's future-work section calls for "mechanisms to specify
comprehensive policies that dictate data sensitivity".  This module
provides a JSON-serializable spec format that compiles to
:class:`repro.core.policy.Policy` objects, so policies can live in
configuration rather than code:

    {"any": [
        {"attr": "age", "op": "<=", "value": 17},
        {"attr": "opt_in", "op": "==", "value": False},
    ]}

Semantics: a spec describes when a record is **sensitive**.

* leaf specs compare one attribute: ``op`` in {==, !=, <, <=, >, >=, in,
  not_in};
* ``{"any": [...]}`` — sensitive when any sub-spec matches (union of
  sensitive sets: the strictest combination);
* ``{"all": [...]}`` — sensitive when every sub-spec matches;
* ``{"not": ...}`` — negation.

``compile_policy`` returns a policy whose ``name`` is a canonical
rendering of the spec, and ``policy_spec_fingerprint`` gives a stable
identifier for audit ledgers.

This module is also the home of the **policy wire format** used by the
shard-worker runtime (:mod:`repro.data.workers`): every policy in the
algebra exposes ``to_spec()`` and :func:`policy_from_spec` rebuilds an
equivalent policy — identical ``cache_key()``, bit-identical masks —
from the plain-dict form, so work units cross process (and, later,
node) boundaries as data rather than live Python objects.  Predicate
specs compiled here are themselves part of that format:
``compile_policy`` returns a :class:`CompiledSpecPolicy` that remembers
its spec, keys caches by its canonical rendering, and round-trips
losslessly.  Third-party policy classes join the format through
:func:`register_policy_kind`.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections.abc import Mapping
from typing import Callable

import numpy as np

from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    IntersectionPolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    Policy,
    SensitiveValuePolicy,
    members_isin,
)

_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class PolicySpecError(ValueError):
    """Raised for malformed policy specifications."""


def _compile_leaf(spec: Mapping) -> Callable[[object], bool]:
    missing = {"attr", "op", "value"} - set(spec)
    if missing:
        raise PolicySpecError(f"leaf spec missing keys {sorted(missing)}: {spec}")
    attr, op, value = spec["attr"], spec["op"], spec["value"]
    if op in _COMPARATORS:
        compare = _COMPARATORS[op]
        return lambda record: compare(record[attr], value)
    if op == "in":
        allowed = frozenset(value)
        return lambda record: record[attr] in allowed
    if op == "not_in":
        blocked = frozenset(value)
        return lambda record: record[attr] not in blocked
    raise PolicySpecError(f"unknown operator {op!r}")


def _compile_leaf_batch(spec: Mapping) -> Callable[[object], np.ndarray]:
    """Columnar form of a leaf: one vectorized op over the attribute column.

    The comparison operators broadcast over numpy columns directly;
    ``in``/``not_in`` lower to the guarded ``members_isin`` (which
    raises when vectorized membership would diverge from Python
    semantics — NaN members, dtype-coerced mixed member lists).  Used
    by the compiled policy's ``evaluate_batch``, which falls back to
    the per-record predicate whenever the batch evaluation raises.
    """
    attr, op, value = spec["attr"], spec["op"], spec["value"]
    if op in _COMPARATORS:
        compare = _COMPARATORS[op]
        return lambda columns: np.asarray(compare(np.asarray(columns[attr]), value))
    if op == "in":
        allowed = list(value)
        return lambda columns: members_isin(np.asarray(columns[attr]), allowed)
    if op == "not_in":
        blocked = list(value)
        return lambda columns: ~members_isin(np.asarray(columns[attr]), blocked)
    raise PolicySpecError(f"unknown operator {op!r}")


def _compile_predicate(spec) -> Callable[[object], bool]:
    if not isinstance(spec, Mapping):
        raise PolicySpecError(f"spec must be a mapping, got {type(spec).__name__}")
    combinators = {"any", "all", "not"} & set(spec)
    if len(combinators) > 1:
        raise PolicySpecError(f"ambiguous spec with {sorted(combinators)}")
    if "any" in spec:
        subs = [_compile_predicate(s) for s in _require_list(spec["any"], "any")]
        return lambda record: any(sub(record) for sub in subs)
    if "all" in spec:
        subs = [_compile_predicate(s) for s in _require_list(spec["all"], "all")]
        return lambda record: all(sub(record) for sub in subs)
    if "not" in spec:
        sub = _compile_predicate(spec["not"])
        return lambda record: not sub(record)
    return _compile_leaf(spec)


def _compile_predicate_batch(spec) -> Callable[[object], np.ndarray]:
    """Columnar mirror of ``_compile_predicate``: boolean-array algebra."""
    if not isinstance(spec, Mapping):
        raise PolicySpecError(f"spec must be a mapping, got {type(spec).__name__}")
    combinators = {"any", "all", "not"} & set(spec)
    if len(combinators) > 1:
        raise PolicySpecError(f"ambiguous spec with {sorted(combinators)}")
    if "any" in spec:
        subs = [
            _compile_predicate_batch(s) for s in _require_list(spec["any"], "any")
        ]
        return lambda columns: np.logical_or.reduce(
            [sub(columns) for sub in subs]
        )
    if "all" in spec:
        subs = [
            _compile_predicate_batch(s) for s in _require_list(spec["all"], "all")
        ]
        return lambda columns: np.logical_and.reduce(
            [sub(columns) for sub in subs]
        )
    if "not" in spec:
        sub = _compile_predicate_batch(spec["not"])
        return lambda columns: np.logical_not(sub(columns))
    return _compile_leaf_batch(spec)


def _spec_attributes(spec: Mapping) -> frozenset:
    """Every attribute a (validated) predicate spec compares."""
    for combinator in ("any", "all"):
        if combinator in spec:
            return frozenset().union(
                *(_spec_attributes(sub) for sub in spec[combinator])
            )
    if "not" in spec:
        return _spec_attributes(spec["not"])
    return frozenset({spec["attr"]})


def _require_list(value, keyword: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise PolicySpecError(f"{keyword!r} requires a non-empty list")
    return list(value)


def _canonical(spec) -> str:
    return json.dumps(spec, sort_keys=True, default=str)


def canonical_spec(spec) -> str:
    """The canonical JSON rendering of a spec.

    Key-order independent, so two specs describing the same policy or
    binning render identically — the string the worker runtime and the
    compiled-policy ``cache_key()`` key their caches by.
    """
    return _canonical(spec)


class CompiledSpecPolicy(LambdaPolicy):
    """A policy compiled from a declarative spec, and able to return to it.

    Unlike a hand-built :class:`~repro.core.policy.LambdaPolicy`, a
    compiled policy is *transparent*: it remembers the spec it was
    compiled from, so it (a) serializes losslessly via :meth:`to_spec`
    and (b) has a value ``cache_key()`` — the canonical spec rendering —
    letting caches (the release server, the shard workers) treat two
    independently compiled copies of the same spec as one policy.
    """

    def __init__(self, spec: Mapping, name: str | None = None):
        super().__init__(
            _compile_predicate(spec),
            name=name or f"spec:{_canonical(spec)}",
            sensitive_when_batch=_compile_predicate_batch(spec),
        )
        self.spec = spec

    def cache_key(self) -> tuple:
        return ("spec", _canonical(self.spec))

    def attributes(self) -> frozenset:
        return _spec_attributes(self.spec)

    def to_spec(self) -> dict:
        return {"kind": "predicate", "when": self.spec, "name": self.name}

    def __reduce__(self):
        # The compiled closures cannot pickle, but the spec can — so a
        # compiled policy crosses process boundaries by recompiling,
        # which the round-trip contract guarantees is lossless.  This
        # is what lets a worker pool's pickled-callable request carry
        # e.g. a non_sensitive() filter built from a compiled policy.
        return (CompiledSpecPolicy, (self.spec, self.name))


def compile_policy(spec: Mapping, name: str | None = None) -> Policy:
    """Compile a declarative spec into a Policy (sensitive-when semantics).

    The compiled policy carries both the per-record predicate and its
    vectorized columnar form, so it participates in the fast
    ``evaluate_batch`` path of :class:`repro.data.columnar.ColumnarDatabase`;
    it also remembers ``spec`` itself, making the result serializable
    and value-cacheable (see :class:`CompiledSpecPolicy`).
    """
    return CompiledSpecPolicy(spec, name=name)


def policy_spec_fingerprint(spec: Mapping) -> str:
    """Stable short hash of a spec, for accountant ledgers and audits."""
    digest = hashlib.sha256(_canonical(spec).encode()).hexdigest()
    return digest[:16]


def validate_spec(spec: Mapping) -> None:
    """Raise :class:`PolicySpecError` if the spec does not compile."""
    _compile_predicate(spec)


# ----------------------------------------------------------------------
# Policy wire format: to_spec() round-trips through policy_from_spec()
# ----------------------------------------------------------------------


def policy_to_spec(policy: Policy) -> dict:
    """The JSON-serializable spec of a policy (``policy.to_spec()``).

    Raises :class:`PolicySpecError` for policies that wrap opaque
    callables — those cannot cross a process boundary and must be
    rebuilt from the declarative language instead.
    """
    from repro.core.policy import SpecUnsupported

    try:
        return policy.to_spec()
    except SpecUnsupported as exc:
        raise PolicySpecError(str(exc)) from exc


def _load_sensitive_aps(spec: Mapping) -> Policy:
    # Deferred import: repro.data.tippers imports this module's sibling
    # repro.core.policy, so a top-level import would be cyclic.
    from repro.data.tippers import SensitiveAPPolicy

    return SensitiveAPPolicy(
        spec["aps"], name=spec.get("name", "sensitive-aps")
    )


_POLICY_KINDS: dict[str, Callable[[Mapping], Policy]] = {
    "predicate": lambda spec: CompiledSpecPolicy(
        spec["when"], name=spec.get("name")
    ),
    "values": lambda spec: SensitiveValuePolicy(
        spec["attr"], spec["values"], name=spec.get("name")
    ),
    "opt_in": lambda spec: OptInPolicy(
        spec.get("attr", "opt_in"), name=spec.get("name", "opt-in")
    ),
    "all_sensitive": lambda spec: AllSensitivePolicy(),
    "all_non_sensitive": lambda spec: AllNonSensitivePolicy(),
    "mr": lambda spec: MinimumRelaxationPolicy(
        [policy_from_spec(s) for s in spec["policies"]]
    ),
    "and": lambda spec: IntersectionPolicy(
        [policy_from_spec(s) for s in spec["policies"]]
    ),
    "sensitive_aps": _load_sensitive_aps,
}


def register_policy_kind(
    kind: str, loader: Callable[[Mapping], Policy]
) -> None:
    """Register a loader for a custom policy ``kind``.

    ``loader`` receives the whole spec dict and must return a policy
    whose ``to_spec()`` reproduces it — the round-trip contract every
    built-in kind satisfies (and the round-trip test suite checks).
    """
    if kind in _POLICY_KINDS:
        raise ValueError(f"policy kind {kind!r} already registered")
    _POLICY_KINDS[kind] = loader


def policy_from_spec(spec: Mapping) -> Policy:
    """Rebuild a policy from its spec — the inverse of :func:`policy_to_spec`.

    A spec without a ``kind`` key is a bare predicate spec (the
    declarative language above) and compiles directly; specs with a
    ``kind`` dispatch to the registered loader.  The reconstruction is
    lossless: equal ``cache_key()`` and bit-identical masks on every
    column bundle.
    """
    if not isinstance(spec, Mapping):
        raise PolicySpecError(
            f"policy spec must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind is None:
        return compile_policy(spec)
    loader = _POLICY_KINDS.get(kind)
    if loader is None:
        raise PolicySpecError(
            f"unknown policy kind {kind!r}; registered: "
            f"{sorted(_POLICY_KINDS)}"
        )
    return loader(spec)
