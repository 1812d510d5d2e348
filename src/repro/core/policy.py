"""Policy functions (Definition 3.1) and the relaxation algebra.

A policy function ``P : T -> {0, 1}`` labels each record as sensitive
(``P(r) = 0``) or non-sensitive (``P(r) = 1``).  The paper's examples —
"minors are sensitive", "opted-out users are sensitive" — are expressible
with :class:`AttributePolicy` and :class:`OptInPolicy`; arbitrary
predicates with :class:`LambdaPolicy`.

The relaxation partial order (Definition 3.5) and minimum relaxation
(Definition 3.6) drive the composition theorem: composing OSDP mechanisms
with different policies yields a guarantee under the *minimum relaxation*
``P_mr(r) = max_i P_i(r)`` — a record stays protected only if *every*
constituent policy protected it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

Record = object

SENSITIVE = 0
NON_SENSITIVE = 1

MASK_DTYPE = np.int8


def _column(columns, attribute: str) -> np.ndarray:
    """Fetch one attribute column from a column bundle or mapping."""
    return columns[attribute]


def _bundle_length(columns) -> int:
    if isinstance(columns, Mapping):
        for column in columns.values():
            return len(column)
        return 0
    try:
        return len(columns)  # ColumnarDatabase defines record count
    except TypeError:
        raise TypeError(
            "column bundle must define len() as its record count"
        ) from None


def _iter_bundle_records(columns) -> Iterable[Record]:
    """Reconstruct per-record views for the scalar fallback path."""
    iter_records = getattr(columns, "iter_records", None)
    if iter_records is not None:
        return iter_records()
    if isinstance(columns, Mapping):
        names = list(columns)
        arrays = [np.asarray(columns[name]) for name in names]
        return (
            {name: arr[i] for name, arr in zip(names, arrays)}
            for i in range(len(arrays[0]) if arrays else 0)
        )
    raise TypeError(f"cannot iterate records of {type(columns).__name__}")


def _mask_from_bool(sensitive: np.ndarray) -> np.ndarray:
    """bool 'is sensitive' array -> {0, 1} mask (0 = sensitive)."""
    return np.where(sensitive, SENSITIVE, NON_SENSITIVE).astype(MASK_DTYPE)


class BatchUnsupported(Exception):
    """A vectorized evaluation cannot honor Python scalar semantics.

    Raised by :func:`members_isin` (and usable by custom batch
    predicates) to force the exact per-record fallback.
    """


class SpecUnsupported(TypeError):
    """The policy holds an opaque predicate and cannot be serialized.

    Raised by :meth:`Policy.to_spec` for policies built from arbitrary
    callables (:class:`LambdaPolicy`, :class:`AttributePolicy`); such
    policies can only run in the process that created them.  The
    declarative alternative — :func:`repro.core.policy_language.compile_policy`
    — produces policies that round-trip losslessly.
    """


def plain_value(value):
    """A JSON-friendly Python scalar for a (possibly numpy) value.

    Spec dicts must survive ``json.dumps``/``loads`` unchanged, so
    numpy scalars (which ``json`` rejects) are unwrapped to their
    Python equivalents before they enter a spec.
    """
    if isinstance(value, np.generic):
        return value.item()
    return value


def sorted_plain_values(values: Iterable[object]) -> list:
    """A deterministic JSON-friendly list for an unordered value set.

    Mixed-type sets (``{1, "x"}``) cannot be sorted by ``<``; keying by
    ``(type name, repr)`` gives a stable order for any hashable values,
    so equal sets always serialize to the same spec (and hence the same
    :func:`repro.core.policy_language.policy_spec_fingerprint`).
    """
    plain = [plain_value(v) for v in values]
    return sorted(plain, key=lambda v: (type(v).__name__, repr(v)))


def members_isin(values: np.ndarray, members) -> np.ndarray:
    """``np.isin`` matching Python set-membership semantics, or raise.

    ``np.isin`` matches by ``==``, which disagrees with set membership
    for NaN (hash-identity), and ``np.asarray`` coerces mixed-type
    member lists to strings, silently un-matching numeric members.
    Whenever vectorized membership could diverge from per-record
    ``value in members``, :class:`BatchUnsupported` is raised so the
    caller falls back to exact evaluation.
    """
    members = list(members)
    if any(isinstance(v, float) and v != v for v in members):
        raise BatchUnsupported("NaN member: isin diverges from set membership")
    members_arr = np.asarray(members)
    values = np.asarray(values)
    numeric = "biufc"
    kinds_ok = (
        values.dtype.kind == "O"
        or members_arr.dtype.kind == "O"
        or (values.dtype.kind in numeric and members_arr.dtype.kind in numeric)
        or (values.dtype.kind in "US" and members_arr.dtype.kind in "US")
    )
    if not kinds_ok:
        raise BatchUnsupported(
            f"member dtype {members_arr.dtype} incomparable with "
            f"column dtype {values.dtype}"
        )
    try:
        return np.isin(values, members_arr)
    except TypeError as exc:  # e.g. unsortable mixed objects
        raise BatchUnsupported(str(exc)) from exc


class Policy(ABC):
    """A policy function mapping records to {0 (sensitive), 1 (non-sensitive)}."""

    name: str = "policy"

    @abstractmethod
    def __call__(self, record: Record) -> int:
        """Return 0 if ``record`` is sensitive, 1 if non-sensitive."""

    def cache_key(self) -> tuple | None:
        """A hashable value identity, or ``None`` for opaque policies.

        Equal keys must imply identical labelling of every record —
        this is what lets a cache (e.g. the release server's mask
        cache) treat two policy *objects* as the same policy.
        Predicate-based policies (``AttributePolicy``, ``LambdaPolicy``)
        cannot derive one from an opaque callable and return ``None``,
        falling back to object-identity caching.
        """
        return None

    def attributes(self) -> frozenset | None:
        """The attributes this policy reads, or ``None`` if it cannot say.

        A declared set promises that a record's label depends on those
        attributes' values alone, so a columnar database may evaluate
        the policy once per distinct value tuple
        (``ColumnarDatabase.distinct_summary``).  Opaque policies, and
        subclasses that do not override this, are evaluated per record.
        """
        return None

    def to_spec(self) -> dict:
        """A JSON-serializable spec that reconstructs this policy.

        The wire format of the shard-worker runtime: a policy crosses a
        process boundary as a small dict, and
        :func:`repro.core.policy_language.policy_from_spec` rebuilds an
        equivalent policy (identical ``cache_key()``, bit-identical
        masks) on the other side.  Policies wrapping opaque callables
        raise :class:`SpecUnsupported`; everything else in the algebra
        round-trips losslessly.
        """
        raise SpecUnsupported(
            f"{type(self).__name__} wraps an opaque predicate and has no "
            "serializable spec; build it from the declarative policy "
            "language (repro.core.policy_language) to make it portable"
        )

    def evaluate_batch(self, columns) -> np.ndarray:
        """Vectorized evaluation over a column bundle.

        ``columns`` is anything indexable by attribute name that yields
        per-record numpy arrays — a :class:`repro.data.columnar.ColumnarDatabase`
        or a plain ``dict`` of arrays; a sharded database evaluates its
        shards one by one (``ShardedColumnarDatabase.mask``).  Returns an
        int8 array of ``SENSITIVE``/``NON_SENSITIVE`` labels, one per
        record, bit-identical to calling the policy on each record.

        Subclasses with a natural numpy formulation override this; the
        base implementation is the per-record fallback, so every policy
        works on the columnar path.
        """
        n = _bundle_length(columns)
        return np.fromiter(
            (self(r) for r in _iter_bundle_records(columns)),
            dtype=MASK_DTYPE,
            count=n,
        )

    def is_sensitive(self, record: Record) -> bool:
        return self(record) == SENSITIVE

    def is_non_sensitive(self, record: Record) -> bool:
        return self(record) == NON_SENSITIVE

    def sensitive_subset(self, records: Iterable[Record]) -> list[Record]:
        return [r for r in records if self(r) == SENSITIVE]

    def non_sensitive_subset(self, records: Iterable[Record]) -> list[Record]:
        return [r for r in records if self(r) == NON_SENSITIVE]

    def partition(
        self, records: Iterable[Record]
    ) -> tuple[list[Record], list[Record]]:
        """Split ``records`` into (sensitive, non_sensitive) lists."""
        sensitive: list[Record] = []
        non_sensitive: list[Record] = []
        for r in records:
            if self(r) == SENSITIVE:
                sensitive.append(r)
            else:
                non_sensitive.append(r)
        return sensitive, non_sensitive

    def sensitive_fraction(self, records: Sequence[Record]) -> float:
        """Fraction of ``records`` the policy marks sensitive."""
        if not records:
            raise ValueError("cannot compute fraction of an empty collection")
        return sum(1 for r in records if self(r) == SENSITIVE) / len(records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class LambdaPolicy(Policy):
    """Policy defined by an arbitrary predicate.

    ``sensitive_when`` receives a record and returns True when the record
    is *sensitive* (the predicate convention is usually easier to read
    than the paper's 0/1 encoding).  ``sensitive_when_batch``, when
    given, receives a column bundle and returns a boolean per-record
    array — the vectorized form used by ``evaluate_batch`` (with a
    per-record fallback if it raises).
    """

    def __init__(
        self,
        sensitive_when: Callable[[Record], bool],
        name: str = "lambda",
        sensitive_when_batch: Callable[[object], np.ndarray] | None = None,
    ):
        self._sensitive_when = sensitive_when
        self._sensitive_when_batch = sensitive_when_batch
        self.name = name

    def __call__(self, record: Record) -> int:
        return SENSITIVE if self._sensitive_when(record) else NON_SENSITIVE

    def evaluate_batch(self, columns) -> np.ndarray:
        if self._sensitive_when_batch is not None:
            try:
                sensitive = np.asarray(self._sensitive_when_batch(columns))
            except Exception:
                return super().evaluate_batch(columns)
            if sensitive.shape == (_bundle_length(columns),):
                return _mask_from_bool(sensitive.astype(bool))
        return super().evaluate_batch(columns)


class AttributePolicy(Policy):
    """Record is sensitive when ``predicate(record[attribute])`` holds.

    Records are mappings (dict-like); e.g. the paper's "minors are
    sensitive" is ``AttributePolicy("age", lambda a: a <= 17)``.
    """

    def __init__(
        self,
        attribute: str,
        predicate: Callable[[object], bool],
        name: str | None = None,
    ):
        self.attribute = attribute
        self._predicate = predicate
        self.name = name or f"attr:{attribute}"

    def __call__(self, record: Record) -> int:
        value = record[self.attribute]  # type: ignore[index]
        return SENSITIVE if self._predicate(value) else NON_SENSITIVE

    def evaluate_batch(self, columns) -> np.ndarray:
        """Vectorized when the predicate broadcasts **elementwise**.

        Elementwise predicates (comparisons, arithmetic tests) evaluate
        on the whole column at once; predicates that cannot broadcast
        (e.g. ones using ``in`` or branching on the value) fall back to
        the exact per-record loop.  A predicate that broadcasts but is
        not elementwise (e.g. one comparing against an aggregate of its
        input like ``v > v.mean()``) cannot be detected in general; the
        spot check below catches the common cases, but such predicates
        are outside the vectorization contract — use the per-record
        path (or an explicit elementwise formulation) for them.
        """
        values = np.asarray(_column(columns, self.attribute))
        try:
            result = np.asarray(self._predicate(values))
        except Exception:
            result = None
        if result is not None and result.shape == values.shape:
            # Spot-check a few positions against scalar evaluation to
            # catch broadcastable-but-not-elementwise predicates.
            n = len(values)
            probes = {0, n // 2, n - 1} if n else set()
            if all(
                bool(self._predicate(values[i])) == bool(result[i])
                for i in probes
            ):
                return _mask_from_bool(result.astype(bool))
        sensitive = np.fromiter(
            (bool(self._predicate(v)) for v in values),
            dtype=bool,
            count=len(values),
        )
        return _mask_from_bool(sensitive)


class SensitiveValuePolicy(Policy):
    """Record is sensitive when ``record[attribute]`` is in a fixed set.

    Models value-based policies such as "trajectories through the
    smoker's lounge are sensitive".
    """

    def __init__(self, attribute: str, sensitive_values: Iterable[object], name: str | None = None):
        self.attribute = attribute
        self.sensitive_values = frozenset(sensitive_values)
        self.name = name or f"values:{attribute}"

    def __call__(self, record: Record) -> int:
        value = record[self.attribute]  # type: ignore[index]
        return SENSITIVE if value in self.sensitive_values else NON_SENSITIVE

    def cache_key(self) -> tuple:
        return ("values", self.attribute, self.sensitive_values)

    def attributes(self) -> frozenset:
        return frozenset({self.attribute})

    def to_spec(self) -> dict:
        return {
            "kind": "values",
            "attr": self.attribute,
            "values": sorted_plain_values(self.sensitive_values),
            "name": self.name,
        }

    def evaluate_batch(self, columns) -> np.ndarray:
        values = np.asarray(_column(columns, self.attribute))
        try:
            hit = members_isin(values, self.sensitive_values)
        except BatchUnsupported:
            return super().evaluate_batch(columns)
        return _mask_from_bool(hit)


class OptInPolicy(Policy):
    """Record is non-sensitive only when the user opted in to sharing.

    ``record[attribute]`` is truthy for opt-in users.  Models the GDPR
    affirmative-consent example of the paper's introduction.
    """

    def __init__(self, attribute: str = "opt_in", name: str = "opt-in"):
        self.attribute = attribute
        self.name = name

    def __call__(self, record: Record) -> int:
        return NON_SENSITIVE if record[self.attribute] else SENSITIVE  # type: ignore[index]

    def cache_key(self) -> tuple:
        return ("opt_in", self.attribute)

    def attributes(self) -> frozenset:
        return frozenset({self.attribute})

    def to_spec(self) -> dict:
        return {"kind": "opt_in", "attr": self.attribute, "name": self.name}

    def evaluate_batch(self, columns) -> np.ndarray:
        values = np.asarray(_column(columns, self.attribute))
        return _mask_from_bool(~values.astype(bool))


class AllSensitivePolicy(Policy):
    """``P_all`` (Definition 3.7): every record is sensitive.

    OSDP under ``P_all`` is exactly bounded differential privacy
    (Lemmas 3.1 and 3.2).
    """

    name = "P_all"

    def __call__(self, record: Record) -> int:
        return SENSITIVE

    def cache_key(self) -> tuple:
        return ("all_sensitive",)

    def attributes(self) -> frozenset:
        return frozenset()

    def to_spec(self) -> dict:
        return {"kind": "all_sensitive"}

    def evaluate_batch(self, columns) -> np.ndarray:
        return np.full(_bundle_length(columns), SENSITIVE, dtype=MASK_DTYPE)


class AllNonSensitivePolicy(Policy):
    """The trivial policy: every record non-sensitive (no constraint).

    The paper excludes this policy from consideration (it is degenerate —
    any non-private algorithm vacuously satisfies OSDP under it); it is
    provided as the top element of the relaxation order for the algebra
    tests.
    """

    name = "P_none"

    def __call__(self, record: Record) -> int:
        return NON_SENSITIVE

    def cache_key(self) -> tuple:
        return ("all_non_sensitive",)

    def attributes(self) -> frozenset:
        return frozenset()

    def to_spec(self) -> dict:
        return {"kind": "all_non_sensitive"}

    def evaluate_batch(self, columns) -> np.ndarray:
        return np.full(_bundle_length(columns), NON_SENSITIVE, dtype=MASK_DTYPE)


class MinimumRelaxationPolicy(Policy):
    """``P_mr(r) = max_i P_i(r)`` (Definition 3.6).

    A record is sensitive under the minimum relaxation only if it is
    sensitive under *every* constituent policy; ``P_mr`` is the strictest
    policy that is a relaxation of each ``P_i``.
    """

    def __init__(self, policies: Sequence[Policy]):
        if not policies:
            raise ValueError("minimum relaxation needs at least one policy")
        self.policies = tuple(policies)
        self.name = "mr(" + ",".join(p.name for p in self.policies) + ")"

    def __call__(self, record: Record) -> int:
        return max(p(record) for p in self.policies)

    def cache_key(self) -> tuple | None:
        return _combined_cache_key("mr", self.policies)

    def attributes(self) -> frozenset | None:
        return _combined_attributes(self.policies)

    def to_spec(self) -> dict:
        return {"kind": "mr", "policies": [p.to_spec() for p in self.policies]}

    def evaluate_batch(self, columns) -> np.ndarray:
        return np.maximum.reduce(
            [p.evaluate_batch(columns) for p in self.policies]
        )


class IntersectionPolicy(Policy):
    """``P(r) = min_i P_i(r)``: sensitive under *any* constituent policy.

    The greatest lower bound of the relaxation order — the strictest
    combination.  Useful for policy specification (Section 7): combining
    a legislative policy with a user-preference policy conservatively.
    """

    def __init__(self, policies: Sequence[Policy]):
        if not policies:
            raise ValueError("intersection needs at least one policy")
        self.policies = tuple(policies)
        self.name = "and(" + ",".join(p.name for p in self.policies) + ")"

    def __call__(self, record: Record) -> int:
        return min(p(record) for p in self.policies)

    def cache_key(self) -> tuple | None:
        return _combined_cache_key("and", self.policies)

    def attributes(self) -> frozenset | None:
        return _combined_attributes(self.policies)

    def to_spec(self) -> dict:
        return {"kind": "and", "policies": [p.to_spec() for p in self.policies]}

    def evaluate_batch(self, columns) -> np.ndarray:
        return np.minimum.reduce(
            [p.evaluate_batch(columns) for p in self.policies]
        )


def _combined_cache_key(tag: str, policies: Sequence[Policy]) -> tuple | None:
    """Value key for a policy combination; None if any child is opaque."""
    keys = tuple(p.cache_key() for p in policies)
    if any(k is None for k in keys):
        return None
    return (tag, keys)


def _combined_attributes(policies: Sequence[Policy]) -> frozenset | None:
    """Union of the children's attributes; None if any child is opaque."""
    declared = [p.attributes() for p in policies]
    if any(d is None for d in declared):
        return None
    return frozenset().union(*declared)


def minimum_relaxation(*policies: Policy) -> Policy:
    """Minimum relaxation of the given policies (Definition 3.6)."""
    if len(policies) == 1:
        return policies[0]
    return MinimumRelaxationPolicy(policies)


def strictest_combination(*policies: Policy) -> Policy:
    """Policy sensitive wherever any input policy is sensitive."""
    if len(policies) == 1:
        return policies[0]
    return IntersectionPolicy(policies)


def is_relaxation_of(
    weaker: Policy, stricter: Policy, records: Iterable[Record]
) -> bool:
    """Check ``weaker <=_p stricter`` (Definition 3.5) over ``records``.

    ``weaker`` is a relaxation of ``stricter`` iff ``weaker(r) >=
    stricter(r)`` for every record — every record sensitive under
    ``weaker`` is also sensitive under ``stricter``.  Policies are
    black-box functions, so the check is necessarily relative to a
    (finite) record universe.
    """
    return all(weaker(r) >= stricter(r) for r in records)


def validate_non_trivial(policy: Policy, records: Sequence[Record]) -> None:
    """Raise if ``policy`` is trivial on ``records`` (Section 3.1).

    The paper's algorithms assume at least one sensitive and one
    non-sensitive record; with all-sensitive use plain DP, with
    all-non-sensitive no privacy machinery is needed.
    """
    labels = {policy(r) for r in records}
    if labels == {SENSITIVE}:
        raise ValueError(
            "policy marks every record sensitive; use a DP mechanism directly"
        )
    if labels == {NON_SENSITIVE}:
        raise ValueError(
            "policy marks every record non-sensitive; no private mechanism needed"
        )
