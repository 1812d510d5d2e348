"""Policy functions (Definition 3.1) and the relaxation algebra.

A policy ``P : T -> {0, 1}`` labels each record sensitive (0) or
non-sensitive (1).  A :class:`Policy` is one value: a predicate IR
stating when a record is *sensitive*, lowered from its wire spec by
:func:`repro.core.policy_language.policy_from_spec`.  Leaves are
``(op, attr, operand)`` — ``== != < <= > >=``; ``in`` / ``not_in`` /
``any_in`` over a frozenset (``any_in``: any element of a ragged value,
a trajectory's ``aps``); ``truthy`` — under ``("any", kids)``, ``("all",
kids)``, ``("not", kid)``, ``True`` and ``False``.  ``__call__`` reads it
per record (the reference), ``evaluate_batch`` per column, bit for bit.
The paper's policies are constructors of that value; the minimum
relaxation (Definition 3.6) is an ``all``.  :class:`LambdaPolicy` is the
one opaque form.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

Record = object
SENSITIVE = 0
NON_SENSITIVE = 1
MASK_DTYPE = np.int8


class SpecUnsupported(TypeError):
    """An opaque policy (a :class:`LambdaPolicy`) has no wire spec."""


class PolicySpecError(ValueError):
    """Raised for malformed policy specifications."""


def plain_value(value):
    """A JSON-friendly Python scalar for a (possibly numpy) value."""
    return value.item() if isinstance(value, np.generic) else value


def sorted_plain_values(values: Collection[object]) -> list:
    """A value set as a deterministic JSON-friendly list, ordered by
    ``(type name, repr)`` so that mixed types sort too."""
    types = {type(v) for v in values}
    if any(issubclass(t, np.generic) for t in types):
        values = [plain_value(v) for v in values]
        types = {type(v) for v in values}
    if len(types) <= 1:  # one type name: repr alone decides
        return sorted(values, key=repr)
    return sorted(values, key=lambda v: (type(v).__name__, repr(v)))


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted_plain_values(value)
    if isinstance(value, np.generic):
        return value.item()
    raise PolicySpecError(f"{type(value).__name__} value {value!r} has no JSON form")


_CANONICAL = json.JSONEncoder(sort_keys=True, default=_jsonable)


def canonical_spec(spec) -> str:
    """The canonical JSON rendering of a spec or an IR node: key order,
    hash order and numpy wrappers aside (``17`` is never ``"17"``)."""
    return _CANONICAL.encode(spec)


#: The one NaN a member set holds (:func:`member_set`); it matches every
#: NaN value, so the rendering, which writes each NaN as ``NaN``, decides
#: the labelling.
NAN = float("nan")


def _holds_nan(value) -> bool:
    return any(map(_holds_nan, value)) if isinstance(value, tuple) else value != value


def member_set(members) -> frozenset:
    """A leaf's members, every NaN as :data:`NAN`.  A NaN in a tuple is
    refused: tuples compare elements by identity first."""
    members = frozenset(members)
    nans = {m for m in members if m != m}
    if any(isinstance(m, tuple) and _holds_nan(m) for m in members):
        raise PolicySpecError("a tuple member holds a NaN")
    return members - nans | {NAN} if nans else members


def _member(value, members) -> bool:
    """Set membership in which a NaN member matches every NaN value."""
    return value in members or (NAN in members and value != value)


def members_isin(values: np.ndarray, members) -> np.ndarray | None:
    """``np.isin`` where it equals Python set membership, else None: a
    numeric or same-kind string column, and members ``np.asarray`` keeps
    equal (it turns ``[1, "x"]`` into ``["1", "x"]``; NaN != NaN).  An
    integer meeting a float is compared in float64, exact within ±2**53."""
    members = list(members)
    try:
        members_arr = np.asarray(members)
    except ValueError:  # ragged tuples
        return None
    values = np.asarray(values)
    kinds = values.dtype.kind + members_arr.dtype.kind
    if not (set(kinds) <= set("biufc") or kinds in ("UU", "SS")):
        return None
    ints = values if values.dtype.kind in "iu" else members_arr
    if set(kinds) & set("fc") and ints.size and ints.dtype.kind in "iu":
        if max(-int(ints.min()), int(ints.max())) > 2**53:
            return None
    return np.isin(values, members_arr) if members_arr.tolist() == members else None


_COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: Every leaf op as a test of one value against the leaf's operand.
LEAF_TESTS: dict[str, Callable[[object, object], object]] = {
    **_COMPARISONS,
    "in": _member,
    "not_in": lambda v, members: not _member(v, members),
    "any_in": lambda vs, members: any(_member(v, members) for v in vs),
    "truthy": lambda v, _: bool(v),
}


def _compare(op: str, values: np.ndarray, operand) -> np.ndarray:
    """``values op operand`` as Python compares each value: exactly.
    numpy compares an integer and a float in float64, so a float operand
    meets an integer column as its floor or ceiling, and an integer one
    meets a float column as its nearest float below or above.  A float32
    column is widened first: numpy would round the operand to float32."""
    if values.dtype.kind == "f" and values.itemsize < 8:
        values = values.astype(np.float64)
    kind, below = values.dtype.kind, op in ("<", "<=")
    if kind in "iu" and isinstance(operand, (float, np.floating)) and math.isfinite(operand):
        if op in ("==", "!=") and not float(operand).is_integer():
            return np.full(values.shape, op == "!=")
        operand = (math.floor if op in ("<=", ">") else math.ceil)(operand)
    elif kind == "f" and isinstance(operand, (int, np.integer)):
        operand = int(operand)
        try:
            near = float(operand)
        except OverflowError:
            near = math.inf if operand > 0 else -math.inf
        if near != operand:  # no float lies between near and operand
            if op in ("==", "!="):
                return np.full(values.shape, op == "!=")
            side = -math.inf if below else math.inf
            bound = near if (near < operand) == below else math.nextafter(near, side)
            return values <= bound if below else values >= bound
    if kind == "O":  # Python compares each value, a NaN one as False;
        # numpy would still warn on the FP flag that comparison raises
        with np.errstate(invalid="ignore"):
            return _COMPARISONS[op](values, operand)
    return _COMPARISONS[op](values, operand)


def _read(record, attr: str):
    try:
        return record[attr]
    except TypeError:  # an object record, e.g. a Trajectory's ``aps``
        return getattr(record, attr)


def _holds(node, record) -> bool:
    """The per-record interpreter: is ``record`` sensitive under ``node``?"""
    if node is True or node is False:
        return node
    op, arg = node[0], node[1]
    if op == "any":
        return any(_holds(kid, record) for kid in arg)
    if op == "all":
        return all(_holds(kid, record) for kid in arg)
    if op == "not":
        return not _holds(arg, record)
    return bool(LEAF_TESTS[op](_read(record, arg), node[2]))


def _per_value(op: str, values, operand) -> np.ndarray:
    test = LEAF_TESTS[op]
    return np.fromiter((bool(test(v, operand)) for v in values), bool, len(values))


def _leaf_column(op: str, columns, attr: str, operand) -> np.ndarray:
    """One leaf over its column: numpy where it keeps Python's scalar
    semantics, else value by value (this leaf only).  The column is the
    data: ``ColumnarDatabase.from_records`` keeps every value exact."""
    column = columns[attr]
    if op == "any_in" and hasattr(column, "segment_any"):
        hit = members_isin(column.flat, operand)
        return column.segment_any(
            _per_value("in", column.flat, operand) if hit is None else hit
        )
    values, hit = column if op == "any_in" else np.asarray(column), None
    if op in ("in", "not_in"):
        hit = members_isin(values, operand)
        hit = hit if hit is None or op == "in" else ~hit
    elif op == "truthy" and values.dtype.kind in "biufc":
        hit = values.astype(bool)
    elif op in _COMPARISONS and np.ndim(operand) == 0:
        try:
            hit = _compare(op, values, operand)
        except TypeError:  # no numpy loop: Python decides, value by value
            pass
    if isinstance(hit, np.ndarray) and hit.shape == values.shape:
        return hit.astype(bool, copy=False)
    return _per_value(op, column, operand)


def _sensitive(node, columns, n: int) -> np.ndarray:
    """The per-column interpreter: a bool 'is sensitive' array."""
    if node is True or node is False:
        return np.full(n, node)
    op, arg = node[0], node[1]
    if op == "any":
        return np.logical_or.reduce([_sensitive(k, columns, n) for k in arg])
    if op == "all":
        return np.logical_and.reduce([_sensitive(k, columns, n) for k in arg])
    if op == "not":
        return ~_sensitive(arg, columns, n)
    return _leaf_column(op, columns, arg, node[2])


def _attributes(node) -> frozenset:
    if node is True or node is False:
        return frozenset()
    if node[0] in ("any", "all"):
        return frozenset().union(*map(_attributes, node[1]))
    return _attributes(node[1]) if node[0] == "not" else frozenset({node[1]})


def _bundle_length(columns) -> int:
    if isinstance(columns, Mapping):
        return len(next(iter(columns.values()), ()))
    return len(columns)  # a ColumnarDatabase's record count


class Policy:
    """A policy function mapping records to {0 (sensitive), 1 (non-sensitive)}.

    Built by :func:`repro.core.policy_language.policy_from_spec` from the
    IR, its canonical rendering ``key``, the wire ``spec`` and a name.
    """

    def __init__(self, ir, key: str, spec: dict, name: str):
        self.ir, self._key, self._spec, self.name = ir, key, spec, name

    def __call__(self, record: Record) -> int:
        """Return 0 if ``record`` is sensitive, 1 if non-sensitive."""
        return SENSITIVE if _holds(self.ir, record) else NON_SENSITIVE

    def cache_key(self) -> str | None:
        """The value identity, or None (opaque): equal keys label every
        record alike, so caches and the ledger take them as one policy."""
        return self._key

    def attributes(self) -> frozenset | None:
        """What the label depends on alone (None: cannot say), so a
        columnar database may evaluate once per distinct value tuple."""
        return _attributes(self.ir)

    def to_spec(self) -> dict:
        """The wire spec this policy was built from (do not mutate)."""
        return self._spec

    def evaluate_batch(self, columns) -> np.ndarray:
        """The int8 mask over a column bundle (a ``ColumnarDatabase`` or a
        dict of arrays), bit-identical to calling the policy per record."""
        sensitive = _sensitive(self.ir, columns, _bundle_length(columns))
        return np.where(sensitive, SENSITIVE, NON_SENSITIVE).astype(MASK_DTYPE)

    def is_sensitive(self, record: Record) -> bool:
        return self(record) == SENSITIVE

    def is_non_sensitive(self, record: Record) -> bool:
        return self(record) == NON_SENSITIVE

    def sensitive_subset(self, records: Iterable[Record]) -> list[Record]:
        return [r for r in records if self(r) == SENSITIVE]

    def non_sensitive_subset(self, records: Iterable[Record]) -> list[Record]:
        return [r for r in records if self(r) == NON_SENSITIVE]

    def partition(self, records: Iterable[Record]) -> tuple[list, list]:
        """Split ``records`` into (sensitive, non_sensitive) lists."""
        parts: tuple[list, list] = ([], [])
        for r in records:
            parts[self(r)].append(r)  # SENSITIVE == 0
        return parts

    def sensitive_fraction(self, records: Sequence[Record]) -> float:
        """Fraction of ``records`` the policy marks sensitive."""
        if not records:
            raise ValueError("cannot compute fraction of an empty collection")
        return len(self.sensitive_subset(records)) / len(records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class LambdaPolicy(Policy):
    """An opaque policy: sensitive when ``sensitive_when(record)`` holds.
    In process only: no IR, no key (caches pin it by identity), no
    attributes, no spec; evaluated per record."""

    ir = None
    #: ``(attribute, predicate)`` of an :func:`AttributePolicy`, whose
    #: batch form tests each value of the column.
    _value_test = None

    def __init__(self, sensitive_when: Callable[[Record], bool], name="lambda"):
        self._sensitive_when = sensitive_when
        self.name = name

    def __call__(self, record: Record) -> int:
        return SENSITIVE if self._sensitive_when(record) else NON_SENSITIVE

    def cache_key(self) -> None:
        return None

    def attributes(self) -> None:
        return None

    def to_spec(self) -> dict:
        raise SpecUnsupported(
            f"policy {self.name!r} wraps an opaque predicate and has no spec; "
            "build it from repro.core.policy_language to make it portable"
        )

    def evaluate_batch(self, columns) -> np.ndarray:
        if self._value_test is not None:
            attribute, predicate = self._value_test
            sensitive = map(predicate, columns[attribute])
        elif hasattr(columns, "iter_records"):
            sensitive = map(self._sensitive_when, columns.iter_records())
        else:  # a dict of arrays: rebuild each row
            rows = zip(*(np.asarray(c) for c in columns.values()))
            sensitive = (self._sensitive_when(dict(zip(columns, r))) for r in rows)
        return np.fromiter(
            (SENSITIVE if s else NON_SENSITIVE for s in sensitive),
            MASK_DTYPE, _bundle_length(columns),
        )


def AttributePolicy(
    attribute: str, predicate: Callable[[object], bool], name: str | None = None
) -> LambdaPolicy:
    """Sensitive when ``predicate(record[attribute])`` holds, e.g. the
    paper's minors: ``AttributePolicy("age", lambda a: a <= 17)``."""
    name = name or f"attr:{attribute}"
    policy = LambdaPolicy(lambda record: predicate(record[attribute]), name)
    policy._value_test = (attribute, predicate)
    return policy


def _from_spec(spec: dict) -> Policy:
    from repro.core.policy_language import policy_from_spec  # it imports us

    return policy_from_spec(spec)


def OptInPolicy(attribute: str = "opt_in", name: str = "opt-in") -> Policy:
    """Non-sensitive only when ``record[attribute]`` is truthy (opted in)."""
    return _from_spec({"kind": "opt_in", "attr": attribute, "name": name})


def SensitiveValuePolicy(
    attribute: str, sensitive_values: Iterable[object], name: str | None = None
) -> Policy:
    """Sensitive when ``record[attribute]`` is in a fixed set."""
    return _from_spec({
        "kind": "values", "attr": attribute, "values": sensitive_values, "name": name
    })


def AllSensitivePolicy() -> Policy:
    """``P_all`` (Definition 3.7): OSDP under it is DP (Lemmas 3.1, 3.2)."""
    return _from_spec({"kind": "all_sensitive"})


def AllNonSensitivePolicy() -> Policy:
    """``P_none``: degenerate, the top of the relaxation order."""
    return _from_spec({"kind": "all_non_sensitive"})


def _combination(kind: str, policies: Sequence[Policy], what: str) -> Policy:
    policies = tuple(policies)
    if not policies:
        raise ValueError(f"{what} needs at least one policy")
    try:
        return _from_spec({"kind": kind, "policies": [p.to_spec() for p in policies]})
    except SpecUnsupported:  # an opaque child makes the combination opaque
        join = all if kind == "mr" else any
        return LambdaPolicy(
            lambda r: join(p(r) == SENSITIVE for p in policies),
            name=f"{kind}(" + ",".join(p.name for p in policies) + ")",
        )


def MinimumRelaxationPolicy(policies: Sequence[Policy]) -> Policy:
    """``P_mr(r) = max_i P_i(r)`` (Definition 3.6): sensitive only where
    every ``P_i`` is — the strictest relaxation of each."""
    return _combination("mr", policies, "minimum relaxation")


def IntersectionPolicy(policies: Sequence[Policy]) -> Policy:
    """``P(r) = min_i P_i(r)``: sensitive under *any* ``P_i``, the greatest
    lower bound of the relaxation order (Section 7)."""
    return _combination("and", policies, "intersection")


def minimum_relaxation(*policies: Policy) -> Policy:
    """Minimum relaxation of the given policies (Definition 3.6)."""
    return policies[0] if len(policies) == 1 else MinimumRelaxationPolicy(policies)


def strictest_combination(*policies: Policy) -> Policy:
    """Policy sensitive wherever any input policy is sensitive."""
    return policies[0] if len(policies) == 1 else IntersectionPolicy(policies)


def is_relaxation_of(weaker: Policy, stricter: Policy, records: Iterable) -> bool:
    """``weaker <=_p stricter`` (Definition 3.5) over a finite universe."""
    return all(weaker(r) >= stricter(r) for r in records)


def validate_non_trivial(policy: Policy, records: Sequence[Record]) -> None:
    """Raise if ``policy`` is trivial on ``records`` (Section 3.1)."""
    labels = {policy(r) for r in records}
    if labels == {SENSITIVE}:
        raise ValueError(
            "policy marks every record sensitive; use a DP mechanism directly"
        )
    if labels == {NON_SENSITIVE}:
        raise ValueError(
            "policy marks every record non-sensitive; no private mechanism needed"
        )
