"""Tests for the privacy budget accountant.

Besides the budget semantics, this pins the two contracts that keep a
metered server stationary.  **Time**: ``spent``/``remaining``/
``spent_by``/``quota_remaining`` are running totals equal — ``==`` on
the floats — to the left-to-right fold of the ledger's epsilons in
charge order, and no charge or read walks the ledger (checked by
counting, with a ledger that raises when walked, never by timing).
**Space**: the ledger retains a bounded number of bytes per charge
however fresh the policy objects a request brings, and merging equal
policies never changes what ``view()`` or the durable journal render.
"""

import functools
import gc
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import wire
from repro.core.accountant import (
    AnalystQuotaExceededError,
    BudgetExceededError,
    PrivacyAccountant,
)
from repro.core.policy import (
    AllSensitivePolicy,
    IntersectionPolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.core.policy_language import compile_policy, policy_from_spec
from repro.data.columnar import ColumnarDatabase
from repro.service.server import ReleaseRequest, ReleaseServer
from test_wire_roundtrip import _FragmentingSocket

ODD = LambdaPolicy(lambda r: r % 2 == 1, name="odd")


class TestBudget:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(total_epsilon=0.0)

    def test_spend_and_remaining(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(ODD, 0.4, label="first")
        assert acct.spent == pytest.approx(0.4)
        assert acct.remaining == pytest.approx(0.6)

    def test_exact_budget_allowed_despite_float_error(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(ODD, 0.1)
        acct.charge(ODD, 0.9)  # 0.1 + 0.9 is not exactly 1.0 in floats
        assert acct.remaining == pytest.approx(0.0, abs=1e-9)

    def test_over_budget_raises_and_keeps_ledger(self):
        acct = PrivacyAccountant(total_epsilon=0.5)
        acct.charge(ODD, 0.5)
        with pytest.raises(BudgetExceededError):
            acct.charge(ODD, 0.1)
        assert len(acct.ledger) == 1

    def test_non_positive_charge_rejected(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        with pytest.raises(ValueError):
            acct.charge(ODD, 0.0)


class TestComposedGuarantee:
    def test_composed_epsilon_sums(self):
        acct = PrivacyAccountant(total_epsilon=2.0)
        acct.charge(ODD, 0.5, label="a")
        acct.charge(AllSensitivePolicy(), 0.7, label="b")
        composed = acct.composed_guarantee()
        assert composed.epsilon == pytest.approx(1.2)

    def test_composed_policy_is_minimum_relaxation(self):
        acct = PrivacyAccountant(total_epsilon=2.0)
        acct.charge(ODD, 0.5)
        acct.charge(AllSensitivePolicy(), 0.5)
        composed = acct.composed_guarantee()
        # minimum relaxation of (odd, all): sensitive only where odd.
        assert composed.policy(3) == 0
        assert composed.policy(2) == 1

    def test_composed_without_charges_raises(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(total_epsilon=1.0).composed_guarantee()

    def test_summary_mentions_labels(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(ODD, 0.25, label="zero-detection")
        text = acct.summary()
        assert "zero-detection" in text
        assert "0.25" in text


class TestMechanismCharging:
    def test_mechanism_charge_helper(self, small_hist, rng):
        from repro.mechanisms.laplace import LaplaceHistogram
        from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram

        acct = PrivacyAccountant(total_epsilon=1.0)
        dp_mech = LaplaceHistogram(0.3)
        dp_mech.charge(acct, label="dp part")
        osdp_mech = OsdpLaplaceL1Histogram(0.7, policy=ODD)
        osdp_mech.charge(acct, label="osdp part")
        assert acct.remaining == pytest.approx(0.0, abs=1e-9)
        assert acct.composed_guarantee().epsilon == pytest.approx(1.0)

    def test_charge_none_accountant_is_noop(self):
        from repro.mechanisms.laplace import LaplaceHistogram

        LaplaceHistogram(0.3).charge(None)  # must not raise


# ----------------------------------------------------------------------
# The O(1) contract: running totals == the ordered fold, ledger unwalked
# ----------------------------------------------------------------------

QUOTAS = {"alice": 2.0, "bob": 0.5}
ANALYSTS = ("", "alice", "bob", "carol")  # anonymous, quota'd x2, unquota'd


def fold(epsilons) -> float:
    """The definition of ``spent``: a left fold in charge order."""
    return functools.reduce(operator.add, epsilons, 0.0)


def assert_totals_are_the_fold(acct) -> None:
    """Every total ``==`` the fold over the ledger — no ``isclose``."""
    ledger = acct.ledger
    spent = fold(e.epsilon for e in ledger)
    assert acct.spent == spent
    assert acct.remaining == acct.total_epsilon - spent
    for analyst in ANALYSTS:
        used = fold(e.epsilon for e in ledger if e.analyst == analyst)
        assert acct.spent_by(analyst) == used
        quota = acct.quotas.get(analyst)
        assert acct.quota_remaining(analyst) == (
            None if quota is None else quota - used
        )
        proxy = acct.for_analyst(analyst)
        assert proxy.spent == spent
        assert proxy.remaining == (
            acct.remaining
            if quota is None
            else min(acct.remaining, quota - used)
        )


charge_steps = st.lists(
    st.tuples(
        st.sampled_from(ANALYSTS),
        st.floats(min_value=1e-9, max_value=0.7),
        st.booleans(),  # through a for_analyst proxy or directly
    ),
    max_size=40,
)


def apply_step(acct, step) -> bool:
    """One charge; returns whether it landed (a refusal is a step too)."""
    analyst, epsilon, via_proxy = step
    try:
        if via_proxy:
            acct.for_analyst(analyst).charge(ODD, epsilon, label="p")
        else:
            acct.charge(ODD, epsilon, label="d", analyst=analyst)
    except BudgetExceededError:
        return False
    return True


@settings(max_examples=120, deadline=None, derandomize=True)
@given(steps=charge_steps)
def test_running_totals_equal_the_ordered_fold_after_every_step(steps):
    acct = PrivacyAccountant(total_epsilon=3.0, quotas=QUOTAS)
    refused = 0
    for step in steps:
        before = (acct.ledger, acct.spent, acct.spent_by(step[0]))
        if not apply_step(acct, step):
            refused += 1
            # global and quota overruns alike leave everything untouched
            assert (acct.ledger, acct.spent, acct.spent_by(step[0])) == before
        assert_totals_are_the_fold(acct)
    assert len(acct.ledger) == len(steps) - refused


def test_both_refusal_kinds_leave_the_totals_untouched():
    acct = PrivacyAccountant(total_epsilon=1.0, quotas={"bob": 0.25})
    acct.charge(ODD, 0.125, analyst="bob")
    acct.charge(ODD, 0.5)
    with pytest.raises(AnalystQuotaExceededError):
        acct.charge(ODD, 0.25, analyst="bob")  # fits globally, not the quota
    with pytest.raises(BudgetExceededError):
        acct.charge(ODD, 0.5, analyst="carol")
    assert acct.spent == 0.625
    assert acct.spent_by("bob") == 0.125
    assert acct.spent_by("carol") == 0.0
    assert acct.quota_remaining("bob") == 0.125


def test_the_fold_is_not_the_compensated_sum():
    """Why the oracle is an explicit fold: on 0.1 ten times the left fold
    is 0.9999999999999999 while a compensated sum (``math.fsum``, and
    the ``sum`` builtin from Python 3.12) gives 1.0."""
    acct = PrivacyAccountant(total_epsilon=2.0)
    for _ in range(10):
        acct.charge(ODD, 0.1)
    assert acct.spent == fold([0.1] * 10) == 0.9999999999999999


class _UnwalkableLedger(list):
    """A ledger that can grow and be measured but never be walked."""

    def __iter__(self):
        raise AssertionError("the ledger was iterated")

    def __getitem__(self, index):
        raise AssertionError("the ledger was indexed")


def test_charges_and_reads_never_walk_the_ledger():
    rng = np.random.default_rng(0)
    db = ColumnarDatabase(
        {
            "age": rng.integers(0, 100, 200),
            "opt_in": rng.integers(0, 2, 200).astype(bool),
        }
    )
    acct = PrivacyAccountant(total_epsilon=10.0, quotas={"alice": 4.0})
    acct.charge(ODD, 0.5)
    acct.charge(ODD, 0.25, analyst="alice")
    acct._ledger = _UnwalkableLedger(acct._ledger)

    acct.charge(ODD, 0.125, analyst="alice")
    with acct._lock:
        acct._check_charge(0.125, "alice")
    assert acct.spent == 0.875
    assert acct.remaining == 9.125
    assert acct.spent_by("alice") == 0.375
    assert acct.for_analyst("alice").remaining == 3.625
    with pytest.raises(AnalystQuotaExceededError):
        acct.charge(ODD, 4.0, analyst="alice")
    with pytest.raises(BudgetExceededError):
        acct.charge(ODD, 9.5)

    response = ReleaseServer(db.shard(1), accountant=acct).handle(
        ReleaseRequest(
            "osdp_laplace_l1",
            0.5,
            {"kind": "int", "attr": "age", "low": 0, "high": 100, "width": 10},
            {"kind": "opt_in"},
            seed=1,
            analyst="alice",
        )
    )
    assert response.budget_remaining == 8.625
    assert len(acct._ledger) == 4


# ----------------------------------------------------------------------
# The space contract: bounded bytes per charge, nothing merged that differs
# ----------------------------------------------------------------------


def _int_binning(attr, high, width):
    return {"kind": "int", "attr": attr, "low": 0, "high": high, "width": width}


#: The shape of the benchmark's ``warm_small`` mix: two binnings x four
#: policies (flat, value set, predicate spec, composite), as wire specs.
WARM_POLICIES = (
    {"kind": "opt_in"},
    {"kind": "values", "attr": "city", "values": ["a"]},
    {
        "any": [
            {"attr": "age", "op": "<=", "value": 17},
            {"attr": "opt_in", "op": "==", "value": False},
        ]
    },
    {
        "kind": "mr",
        "policies": [
            {"kind": "opt_in"},
            {"kind": "values", "attr": "age", "values": list(range(18))},
        ],
    },
)
WARM_PAIRS = tuple(
    (binning, policy)
    for binning in (_int_binning("age", 100, 10), _int_binning("age", 100, 5))
    for policy in WARM_POLICIES
)


def _release_over_the_wire(server, request: ReleaseRequest) -> None:
    """What the RPC tier does to one release, minus the socket."""
    frame = wire.encode_message(wire.request_to_wire(request))
    decoded = wire.request_from_wire(
        wire.recv_message(_FragmentingSocket(frame, fragment=len(frame)))
    )
    wire.encode_message(wire.response_to_wire(server.handle(decoded)))


def test_ledger_retains_at_most_256_bytes_per_wire_form_charge():
    rng = np.random.default_rng(0)
    db = ColumnarDatabase(
        {
            "age": rng.integers(0, 100, 500),
            "city": rng.choice(np.array(["a", "b", "c", "d"]), 500),
            "opt_in": rng.integers(0, 2, 500).astype(bool),
        }
    )
    acct = PrivacyAccountant(total_epsilon=1e9)
    server = ReleaseServer(db.shard(1), accountant=acct)

    def drive(n):
        for _ in range(n):
            binning, policy = WARM_PAIRS[int(rng.integers(len(WARM_PAIRS)))]
            request = ReleaseRequest(
                "osdp_laplace_l1",
                1e-6,
                binning,
                policy,
                seed=int(rng.integers(2**31)),
            )
            _release_over_the_wire(server, request)

    drive(200)  # every pair cached, every policy and label seen once
    charges = 5000
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        drive(charges)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(acct.ledger) == 200 + charges
    assert (after - before) / charges <= 256
    # ... because 5,200 entries reference four policies and one label
    assert len({id(e.policy) for e in acct.ledger}) == len(WARM_POLICIES)
    assert len({id(e.label) for e in acct.ledger}) == 1


def lookalike_policies() -> list:
    """Policies a careless merge (or a careless journal) would conflate:
    equal ``cache_key()`` under different names, under ``==`` but
    differently typed members, under differently ordered spec keys,
    nested one level down, and opaque policies that share a name."""
    leaf = {"attr": "age", "op": "<=", "value": 17}
    return [
        OptInPolicy(),
        OptInPolicy(name="consent"),
        OptInPolicy("opt_in", name="opt-in"),  # one with the first
        SensitiveValuePolicy("age", [1, 2]),
        SensitiveValuePolicy("age", [1.0, 2.0]),  # a value-equal twin
        SensitiveValuePolicy("age", [True, 2]),  # and another
        SensitiveValuePolicy("age", [1, 2], name="minors"),
        compile_policy(leaf),
        compile_policy(dict(reversed(leaf.items()))),  # twin: key order
        MinimumRelaxationPolicy([OptInPolicy(), AllSensitivePolicy()]),
        MinimumRelaxationPolicy([OptInPolicy(name="consent"), AllSensitivePolicy()]),
        IntersectionPolicy([OptInPolicy(), AllSensitivePolicy()]),
        AllSensitivePolicy(),
        LambdaPolicy(lambda r: True, name="opaque"),
        LambdaPolicy(lambda r: False, name="opaque"),
    ]


#: Which of the above may share one stored object: equal type, name and
#: ``cache_key()``.  Everything else — other names, opaque — stays alone.
LOOKALIKE_TWINS = ({0, 2}, {3, 4, 5}, {7, 8})


def mixed_charges(n: int = 200):
    """A deterministic charge sequence over every kind of policy, label
    and analyst; fresh policy objects per charge, as off the wire."""
    rng = random.Random(18)
    opaque = lookalike_policies()[-2:]
    for i in range(n):
        policies = lookalike_policies()
        policies[-2:] = opaque  # opaque policies only exist as objects
        yield (
            policies[rng.randrange(len(policies))],
            rng.random() / 16 + 2.0**-20,
            ("hist", "dawa", "", "ngram:%d" % (i % 3))[rng.randrange(4)],
            ANALYSTS[rng.randrange(len(ANALYSTS))],
        )


def test_only_policies_equal_in_type_name_and_key_share_an_object():
    policies = lookalike_policies()
    acct = PrivacyAccountant(total_epsilon=100.0)
    for policy in policies:
        acct.charge(policy, 0.5)
    ledger = acct.ledger
    # every row still shows its own charge's name ...
    assert [row["policy"] for row in acct.view()["entries"]] == [
        p.name for p in policies
    ]
    # ... and every stored policy is the charged one up to value identity
    for entry, policy in zip(ledger, policies):
        assert type(entry.policy) is type(policy)
        assert entry.policy.name == policy.name
        assert entry.policy.cache_key() == policy.cache_key()
    stored = [id(e.policy) for e in ledger]
    for i, policy in enumerate(policies):
        twins = next((t for t in LOOKALIKE_TWINS if i in t), {i})
        assert {j for j, s in enumerate(stored) if s == stored[i]} == twins
        if i == min(twins):  # first seen is the one kept; opaque always
            assert ledger[i].policy is policy


def test_view_is_one_consistent_cut_of_the_ledger():
    acct = PrivacyAccountant(total_epsilon=50.0, quotas=QUOTAS)
    for policy, epsilon, label, analyst in mixed_charges():
        try:
            acct.charge(policy, epsilon, label=label, analyst=analyst)
        except AnalystQuotaExceededError:
            pass
    view = acct.view()
    assert set(view) == {"total", "spent", "remaining", "entries", "quotas"}
    assert len(view["entries"]) == len(acct.ledger)
    assert view["spent"] == fold(row["epsilon"] for row in view["entries"])
    assert view["remaining"] == view["total"] - view["spent"]
    for name, cell in view["quotas"].items():
        assert cell["spent"] == fold(
            row["epsilon"] for row in view["entries"] if row["analyst"] == name
        )
        assert cell == {
            "quota": QUOTAS[name],
            "spent": cell["spent"],
            "remaining": QUOTAS[name] - cell["spent"],
        }
