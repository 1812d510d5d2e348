"""Crash-safe budget lane: the durable accountant ledger and quotas.

The privacy contract under test: **no acked charge is ever forgotten,
and no pair of analysts can jointly outspend the budget.**

* Every charge is journaled and fsync'd before ``charge`` returns; a
  reopened :class:`repro.service.budget.DurableAccountant` resumes with
  the exact spent total, per-analyst attribution, and composed
  guarantee.
* The journal's fail-safe direction is *inverted* from a data WAL: a
  torn tail is **counted** (salvaging its epsilon from the blob's raw
  leading float bytes; charging the whole remaining budget when even
  those are unreadable), then re-journaled cleanly so a second restart
  counts it exactly once.
* Per-analyst quotas are enforced atomically alongside the global
  budget — a multithreaded hammer of two analysts lands on *exact*
  charge counts, never one epsilon over either limit.
* Hypothesis drives the whole serializable policy algebra through
  entry -> journal frame -> recovery, pinning bit-identical
  ``cache_key`` and composed-guarantee epsilon.

SIGKILL-shaped coverage (real process death mid-release, coordinator
restarts) lives in ``tests/test_budget_faults.py``; the overload
admission gate's socket lane lives in ``tests/test_rpc_overload.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import (
    AnalystQuotaExceededError,
    BudgetExceededError,
    LedgerEntry,
    PrivacyAccountant,
    epsilon_ticks,
    ticks_epsilon,
)
from repro.core.policy import (
    AllSensitivePolicy,
    LambdaPolicy,
    OptInPolicy,
)
from repro.core.policy_language import policy_to_spec
from repro.service.budget import (
    INVALID_CHARGE_LABEL,
    TORN_TAIL_LABEL,
    TORN_TAIL_UNREADABLE_LABEL,
    BudgetJournalError,
    ChargeJournal,
    DurableAccountant,
    entry_from_doc,
    entry_to_doc,
)
from test_accountant import (
    QUOTAS,
    apply_step,
    assert_totals_are_the_tick_sum,
    charge_steps,
    lookalike_policies,
    mixed_charges,
)
from test_spec_roundtrip import MAX_EXAMPLES, serializable_policies

_FRAME_HEADER = struct.Struct(">II")
_EPS = struct.Struct(">d")


def _log_path(directory) -> str:
    return os.path.join(str(directory), ChargeJournal.LOG_NAME)


def _append_torn_tail(directory, epsilon: float | None) -> None:
    """Simulate a crash mid-append: a frame whose CRC cannot hold.

    With ``epsilon`` the tail keeps its leading raw float bytes (the
    salvageable case); with None the tail is cut before them.
    """
    body = _EPS.pack(epsilon) if epsilon is not None else b"\x01\x02"
    with open(_log_path(directory), "ab") as handle:
        handle.write(_FRAME_HEADER.pack(4096, 0xBAD0BAD0) + body)


# ----------------------------------------------------------------------
# Journal round trip
# ----------------------------------------------------------------------


class TestDurableRoundTrip:
    def test_acked_charges_survive_reopen_exactly(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            acct.charge(OptInPolicy(), 0.5, label="first")
            acct.charge(AllSensitivePolicy(), 0.25, label="second",
                        analyst="alice")
            spent, guarantee = acct.spent, acct.composed_guarantee()
        with DurableAccountant(tmp_path, total_epsilon=10.0) as back:
            assert back.spent == spent == 0.75
            assert back.remaining == 9.25
            assert [e.label for e in back.ledger] == ["first", "second"]
            assert back.spent_by("alice") == 0.25
            recovered = back.composed_guarantee()
            assert recovered.epsilon == guarantee.epsilon
            assert (
                recovered.policy.cache_key() == guarantee.policy.cache_key()
            )

    def test_fresh_directory_recovers_empty(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=1.0) as acct:
            assert acct.recovery["replayed"] == 0
            assert acct.recovery["torn_bytes"] == 0
            assert acct.spent == 0

    def test_refusals_leave_no_journal_trace(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=1.0) as acct:
            acct.charge(OptInPolicy(), 0.75)
            with pytest.raises(BudgetExceededError):
                acct.charge(OptInPolicy(), 0.75)
        with DurableAccountant(tmp_path, total_epsilon=1.0) as back:
            assert back.spent == 0.75
            assert len(back.ledger) == 1

    def test_opaque_policy_recovers_as_conservative_placeholder(
        self, tmp_path
    ):
        opaque = LambdaPolicy(lambda r: True, name="handwritten")
        with DurableAccountant(tmp_path, total_epsilon=2.0) as acct:
            acct.charge(opaque, 1.0, label="opaque")
        with DurableAccountant(tmp_path, total_epsilon=2.0) as back:
            assert back.spent == 1.0  # the epsilon is what matters
            (entry,) = back.ledger
            # Claiming less relaxation than the original is sound.
            assert entry.policy.to_spec() == {"kind": "all_sensitive"}
            # The operator view still shows the original name.
            doc = back.journal._docs[0]
            assert doc["policy"] is None
            assert doc["policy_name"] == "handwritten"

    def test_recovered_overrun_refuses_further_charges(self, tmp_path):
        # History is history: a ledger can legitimately stand above a
        # (re-declared, smaller) total — then everything is refused.
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            acct.charge(OptInPolicy(), 6.0)
        with DurableAccountant(tmp_path, total_epsilon=5.0) as back:
            assert back.spent == 6.0
            assert back.remaining == -1.0
            with pytest.raises(BudgetExceededError):
                back.charge(OptInPolicy(), 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_budget_that_is_not_finite_and_positive_fails_at_startup(
    tmp_path, bad
):
    """A NaN total refuses nothing (every comparison with it is false);
    each way a deployment declares a budget refuses one before serving."""
    from repro.cli import build_parser, cmd_serve
    from repro.service.fleet import BudgetSpec

    with pytest.raises(ValueError, match="finite and positive"):
        DurableAccountant(tmp_path, total_epsilon=bad)
    with pytest.raises(ValueError, match="finite and positive"):
        DurableAccountant(tmp_path, total_epsilon=1.0, quotas={"alice": bad})
    args = build_parser().parse_args(["serve", "--budget", repr(bad)])
    with pytest.raises(ValueError, match="finite and positive"):
        cmd_serve(args)
    spec = BudgetSpec.from_dict({"total": bad, "dir": str(tmp_path / "coord")})
    with pytest.raises(ValueError, match="finite and positive"):
        spec.build_accountant()
    assert not os.listdir(tmp_path)  # no journal was opened


# ----------------------------------------------------------------------
# Torn tails: the inverted fail-safe
# ----------------------------------------------------------------------


class TestTornTail:
    def test_readable_torn_tail_is_charged_not_dropped(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            acct.charge(OptInPolicy(), 1.0)
        _append_torn_tail(tmp_path, epsilon=2.5)
        with DurableAccountant(tmp_path, total_epsilon=10.0) as back:
            assert back.recovery["torn_epsilon"] == 2.5
            assert back.spent == 3.5
            labels = [e.label for e in back.ledger]
            assert TORN_TAIL_LABEL in labels

    def test_torn_charge_counted_exactly_once_across_restarts(
        self, tmp_path
    ):
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            acct.charge(OptInPolicy(), 1.0)
        _append_torn_tail(tmp_path, epsilon=2.5)
        with DurableAccountant(tmp_path, total_epsilon=10.0) as first:
            assert first.spent == 3.5
        # The salvaged charge was re-journaled as a clean frame: the
        # second restart replays it as ordinary history, no double count.
        with DurableAccountant(tmp_path, total_epsilon=10.0) as second:
            assert second.spent == 3.5
            assert second.recovery["torn_bytes"] == 0

    def test_unreadable_torn_tail_charges_entire_remaining_budget(
        self, tmp_path
    ):
        with DurableAccountant(tmp_path, total_epsilon=5.0) as acct:
            acct.charge(OptInPolicy(), 1.0)
        _append_torn_tail(tmp_path, epsilon=None)
        with DurableAccountant(tmp_path, total_epsilon=5.0) as back:
            assert back.recovery["torn_epsilon"] is None
            assert back.spent == 5.0
            assert back.remaining == 0.0
            assert any(
                e.label == TORN_TAIL_UNREADABLE_LABEL for e in back.ledger
            )
            with pytest.raises(BudgetExceededError):
                back.charge(OptInPolicy(), 0.01)

    def test_a_whole_remaining_booking_is_exact_in_ticks(self, tmp_path):
        """0.3 leaves a remainder of 3 - 0.3 that no float holds: the
        booking spends exactly the total, live and after a restart."""
        with DurableAccountant(tmp_path, total_epsilon=3.0) as acct:
            acct.charge(OptInPolicy(), 0.3)
        remainder = 3 * 2**60 - epsilon_ticks(0.3)
        assert epsilon_ticks(ticks_epsilon(remainder)) != remainder
        _append_torn_tail(tmp_path, epsilon=None)
        for _ in range(2):
            with DurableAccountant(tmp_path, total_epsilon=3.0) as back:
                assert back._spent == 3 * 2**60
                assert back.spent == 3.0 and back.remaining == 0.0
                booking = back.ledger[-1]
                assert booking.label == TORN_TAIL_UNREADABLE_LABEL
                # the float shown for it rounds up, never down
                assert epsilon_ticks(booking.epsilon) >= remainder

    def test_nonfinite_salvaged_epsilon_is_distrusted(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=4.0) as acct:
            acct.charge(OptInPolicy(), 1.0)
        _append_torn_tail(tmp_path, epsilon=float("inf"))
        with DurableAccountant(tmp_path, total_epsilon=4.0) as back:
            # inf fails the finite-positive gate -> worst-case charge.
            assert back.recovery["torn_epsilon"] is None
            assert back.remaining == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_invalid_journaled_charge_books_the_remaining_budget(
        self, tmp_path, bad
    ):
        """A whole, well-framed charge whose epsilon is not finite and
        positive (journaled before every gate checked it) must not
        enter the ledger as is: a NaN would make ``spent`` NaN, and a
        NaN budget refuses nothing."""
        with ChargeJournal(tmp_path) as journal:
            journal.append_entry(LedgerEntry(OptInPolicy(), 0.25, "ok"))
            journal.append_entry(LedgerEntry(OptInPolicy(), bad, "pre-rule"))
        with DurableAccountant(tmp_path, total_epsilon=1.0) as back:
            assert back.spent == 1.0 and back.remaining == 0.0
            with pytest.raises(BudgetExceededError):
                back.charge(OptInPolicy(), 50.0)
            assert back.recovery["invalid_charges"] == 1
            labels = [e.label for e in back.ledger]
            assert labels == ["ok", INVALID_CHARGE_LABEL]
        # The booking was journaled once and the invalid frame dropped.
        with DurableAccountant(tmp_path, total_epsilon=1.0) as second:
            assert second.recovery["invalid_charges"] == 0
            assert second.spent == 1.0
            assert [e.label for e in second.ledger] == labels


# ----------------------------------------------------------------------
# Compaction and journal structure
# ----------------------------------------------------------------------


class TestCompaction:
    def test_snapshot_bounds_replay(self, tmp_path):
        with DurableAccountant(
            tmp_path, total_epsilon=100.0, snapshot_every=4
        ) as acct:
            for i in range(10):
                acct.charge(OptInPolicy(), 0.5, label=f"c{i}")
        with DurableAccountant(
            tmp_path, total_epsilon=100.0, snapshot_every=4
        ) as back:
            assert back.spent == 5.0
            assert len(back.ledger) == 10
            # 8 of the 10 charges live in the snapshot, not the log.
            assert back.recovery["snapshot_seq"] == 8
            assert back.recovery["replayed"] == 2

    def test_snapshots_double_so_compaction_is_linear_in_total(
        self, tmp_path
    ):
        """A snapshot rewrites the whole history; at a fixed cadence of
        4 that is n^2/8 entries written over n charges.  Counted, not
        timed: the snapshot grows only when it would at least double."""
        n, written, snapshots = 5000, 0, 0
        with DurableAccountant(
            tmp_path, total_epsilon=1e6, snapshot_every=4
        ) as acct:
            for i in range(n):
                before = acct.journal.snapshot_seq
                acct.charge(OptInPolicy(), 0.1 + i * 2.0**-30, label=f"c{i}")
                if acct.journal.snapshot_seq != before:
                    # a snapshot holds every entry up to its seq
                    written += acct.journal.snapshot_seq
                    snapshots += 1
            ledger, spent = acct.ledger, acct.spent
        assert snapshots == 11  # at 4, 8, 16, ..., 4096 entries
        assert written == 8188 <= 2 * n
        with DurableAccountant(
            tmp_path, total_epsilon=1e6, snapshot_every=4
        ) as back:
            assert back.recovery["snapshot_seq"] == 4096
            assert back.recovery["replayed"] == n - 4096
            assert [(e.epsilon, e.label) for e in back.ledger] == [
                (e.epsilon, e.label) for e in ledger
            ]
            assert back.spent == spent
            assert_totals_are_the_tick_sum(back)

    def test_crash_between_snapshot_and_truncate_is_no_double_count(
        self, tmp_path
    ):
        with DurableAccountant(tmp_path, total_epsilon=50.0) as acct:
            for i in range(5):
                acct.charge(OptInPolicy(), 1.0, label=f"c{i}")
            pre_compact_log = open(_log_path(tmp_path), "rb").read()
            acct.journal.compact()
        # Simulate dying after the snapshot rename but before the log
        # truncation: the old entries are back in the log, all with
        # seq <= snapshot_seq.
        with open(_log_path(tmp_path), "wb") as handle:
            handle.write(pre_compact_log)
        with DurableAccountant(tmp_path, total_epsilon=50.0) as back:
            assert back.spent == 5.0
            assert len(back.ledger) == 5
            assert back.recovery["replayed"] == 0

    def test_sequence_gap_refuses_loudly(self, tmp_path):
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            for i in range(3):
                acct.charge(OptInPolicy(), 1.0)
        # Surgically remove the middle frame: charges are now missing
        # and the spent total cannot be trusted.
        data = open(_log_path(tmp_path), "rb").read()
        frames, pos = [], 0
        while pos < len(data):
            length, _ = _FRAME_HEADER.unpack_from(data, pos)
            end = pos + _FRAME_HEADER.size + length
            frames.append(data[pos:end])
            pos = end
        assert len(frames) == 3
        with open(_log_path(tmp_path), "wb") as handle:
            handle.write(frames[0] + frames[2])
        with pytest.raises(BudgetJournalError, match="sequence"):
            DurableAccountant(tmp_path, total_epsilon=10.0)

    def test_corrupt_snapshot_refuses_loudly(self, tmp_path):
        with DurableAccountant(
            tmp_path, total_epsilon=10.0, snapshot_every=1
        ) as acct:
            acct.charge(OptInPolicy(), 1.0)
        snap = os.path.join(str(tmp_path), ChargeJournal.SNAPSHOT_NAME)
        data = bytearray(open(snap, "rb").read())
        data[-1] ^= 0xFF
        with open(snap, "wb") as handle:
            handle.write(data)
        # Serving with a reset ledger would be a privacy violation.
        with pytest.raises(BudgetJournalError, match="integrity"):
            DurableAccountant(tmp_path, total_epsilon=10.0)


# ----------------------------------------------------------------------
# Quotas: exact concurrent accounting
# ----------------------------------------------------------------------


class TestQuotas:
    def test_quota_enforced_atomically_with_global_budget(self, tmp_path):
        with DurableAccountant(
            tmp_path, total_epsilon=10.0, quotas={"alice": 1.0}
        ) as acct:
            alice = acct.for_analyst("alice")
            alice.charge(OptInPolicy(), 1.0)
            with pytest.raises(AnalystQuotaExceededError):
                alice.charge(OptInPolicy(), 0.5)
            # The global budget is untouched by the refusal and still
            # serves unquota'd analysts.
            acct.for_analyst("bob").charge(OptInPolicy(), 0.5)
            assert acct.spent == 1.5

    def test_quotas_survive_restart(self, tmp_path):
        with DurableAccountant(
            tmp_path, total_epsilon=10.0, quotas={"alice": 1.0}
        ) as acct:
            acct.for_analyst("alice").charge(OptInPolicy(), 0.75)
        with DurableAccountant(
            tmp_path, total_epsilon=10.0, quotas={"alice": 1.0}
        ) as back:
            assert back.spent_by("alice") == 0.75
            assert back.quota_remaining("alice") == 0.25
            with pytest.raises(AnalystQuotaExceededError):
                back.for_analyst("alice").charge(OptInPolicy(), 0.5)

    def test_two_analyst_hammer_exact_counts(self, tmp_path):
        """The acceptance hammer: concurrent analysts land on exact
        charge counts — alice's quota, bob's quota, and the global
        budget are all hit exactly, never jointly exceeded."""
        total, eps = 8.0, 0.25
        quotas = {"alice": 3.0, "bob": 4.0}
        acct = DurableAccountant(
            tmp_path, total_epsilon=total, quotas=quotas
        )
        outcomes = {"alice": 0, "bob": 0}
        lock = threading.Lock()

        def hammer(analyst: str) -> None:
            bound = acct.for_analyst(analyst)
            for _ in range(25):  # 25 * 0.25 > either quota
                try:
                    bound.charge(OptInPolicy(), eps)
                except BudgetExceededError:
                    continue
                with lock:
                    outcomes[analyst] += 1

        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in ("alice", "bob")
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exact arithmetic: 0.25 and the quotas are binary fractions.
        assert outcomes["alice"] * eps == acct.spent_by("alice")
        assert outcomes["bob"] * eps == acct.spent_by("bob")
        assert acct.spent_by("alice") == quotas["alice"]  # quota hit
        assert acct.spent_by("bob") == quotas["bob"]
        assert acct.spent == quotas["alice"] + quotas["bob"] <= total
        acct.close()
        # And the hammer's outcome is durable.
        with DurableAccountant(
            tmp_path, total_epsilon=total, quotas=quotas
        ) as back:
            assert back.spent == acct.spent
            assert back.spent_by("alice") == quotas["alice"]

    def test_analyst_remaining_is_min_of_quota_and_global(self):
        acct = PrivacyAccountant(total_epsilon=2.0, quotas={"alice": 5.0})
        alice = acct.for_analyst("alice")
        assert alice.remaining == 2.0  # global binds
        acct.charge(OptInPolicy(), 1.5, analyst="alice")
        assert alice.remaining == 0.5
        bob = acct.for_analyst("bob")
        assert bob.remaining == 0.5  # unquota'd: global remainder

    def test_view_carries_entries_and_quotas(self, tmp_path):
        with DurableAccountant(
            tmp_path, total_epsilon=4.0, quotas={"alice": 1.0}
        ) as acct:
            acct.for_analyst("alice").charge(
                OptInPolicy(), 0.5, label="histogram"
            )
            view = acct.view()
        assert view["total"] == 4.0
        assert view["spent"] == 0.5
        (entry,) = view["entries"]
        assert entry == {
            "label": "histogram",
            "epsilon": 0.5,
            "policy": OptInPolicy().name,
            "analyst": "alice",
        }
        assert view["quotas"]["alice"] == {
            "quota": 1.0,
            "spent": 0.5,
            "remaining": 0.5,
        }


# ----------------------------------------------------------------------
# Running totals == the ordered fold, through every way a ledger is built
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=charge_steps)
def test_totals_equal_the_fold_through_reopen_compaction_and_salvage(steps):
    import tempfile

    def reopen(directory):
        return DurableAccountant(
            directory, total_epsilon=3.0, quotas=QUOTAS, snapshot_every=4
        )

    with tempfile.TemporaryDirectory() as directory:
        with reopen(directory) as acct:
            for step in steps:
                apply_step(acct, step)
                assert_totals_are_the_tick_sum(acct)
            ledger = acct.ledger
        with reopen(directory) as back:  # snapshot + log replay
            assert [(e.epsilon, e.analyst) for e in back.ledger] == [
                (e.epsilon, e.analyst) for e in ledger
            ]
            assert_totals_are_the_tick_sum(back)
            back.journal.compact()
            assert_totals_are_the_tick_sum(back)
        with reopen(directory) as back:  # snapshot only
            assert len(back.ledger) == len(ledger)
            assert_totals_are_the_tick_sum(back)
        _append_torn_tail(directory, epsilon=0.3)
        with reopen(directory) as back:  # salvaged charge joins the fold
            assert len(back.ledger) == len(ledger) + 1
            assert_totals_are_the_tick_sum(back)
        _append_torn_tail(directory, epsilon=None)
        with reopen(directory) as back:  # worst case: all that remained
            spent = back._spent
            assert spent >= 3 * 2**60
            assert back.remaining <= 0.0
            if len(back.ledger) == len(ledger) + 2:  # something remained
                assert back.remaining == 0.0 and back.spent == 3.0
        with reopen(directory) as back:  # the booking's ticks replay
            assert back._spent == spent


@settings(max_examples=40, deadline=None, derandomize=True)
@given(steps=charge_steps, snapshot_every=st.sampled_from([1, 4, 1000]))
def test_restart_totals_equal_the_live_tick_totals(steps, snapshot_every):
    """Recovery's fold is integer addition over the same ticks the live
    charges cost: every total after a restart is the live one, exactly."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        with DurableAccountant(
            directory, 3.0, quotas=QUOTAS, snapshot_every=snapshot_every
        ) as acct:
            for step in steps:
                apply_step(acct, step)
            live = _totals(acct)
        with DurableAccountant(
            directory, 3.0, quotas=QUOTAS, snapshot_every=snapshot_every
        ) as back:
            assert _totals(back) == live


def _totals(acct) -> tuple:
    """Every total, in ticks and as rendered (the opaque ``ODD`` policy
    comes back as a placeholder, so the entries' names are left out)."""
    view = acct.view()
    return (
        acct._spent,
        dict(acct._spent_by),
        {key: view[key] for key in ("total", "spent", "remaining", "quotas")},
        [(e.epsilon, e.analyst) for e in acct.ledger],
    )


# ----------------------------------------------------------------------
# A compact ledger renders exactly what a fat one did
# ----------------------------------------------------------------------


def test_journal_writes_the_charged_policy_not_its_stored_twin(tmp_path):
    """The in-memory ledger may keep a value-equal twin of a policy
    (``[1, 2]`` for ``[1.0, 2.0]``); the disk keeps what was charged."""
    policies = lookalike_policies()

    def assert_docs_are_the_charged_specs(docs):
        assert [d["policy_name"] for d in docs] == [p.name for p in policies]
        for doc, policy in zip(docs[:-2], policies[:-2]):
            assert json.dumps(doc["policy"]) == json.dumps(policy.to_spec())
        assert [d["policy"] for d in docs[-2:]] == [None, None]  # opaque

    with DurableAccountant(tmp_path, total_epsilon=100.0) as acct:
        for policy in policies:
            acct.charge(policy, 0.5)
        assert_docs_are_the_charged_specs(acct.journal._docs)
        acct.journal.compact()
    with DurableAccountant(tmp_path, total_epsilon=100.0) as back:
        assert_docs_are_the_charged_specs(back.journal._docs)
        for entry, policy in zip(back.ledger[:-2], policies[:-2]):
            assert entry.policy.cache_key() == policy.cache_key()
            assert entry.policy.name == policy.name


#: SHA-256 of what the commit before the ledger was compacted (PR 17)
#: wrote for ``mixed_charges()``: the journal and the snapshot of it.
PARENT_LOG_SHA256 = "20c24697c26a2ed4dae9733f26efa6085c5f3a75083365ab5deef4b5d7dafc73"
PARENT_SNAPSHOT_SHA256 = "0c9e957ff9631c0046716dc71871fe5a950397ed7ae8cbbd9defd52208f70db9"
#: ... and of its ``view()`` document without the totals, which are now
#: the tick sums rather than the float fold (``_view_rows``).
PARENT_VIEW_ROWS_SHA256 = "cd2ba20c214f8f1280f9b784fa7f047ebb3ecb8f5f6e1d1e69a8c0cbfad707e7"


def _sha256_of(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _view_rows(view: dict) -> bytes:
    """A view without its spent and remaining totals."""
    rows = {key: view[key] for key in ("total", "entries")}
    rows["quotas"] = {n: {"quota": c["quota"]} for n, c in view["quotas"].items()}
    return json.dumps(rows, sort_keys=True).encode()


def test_journal_snapshot_and_view_bytes_match_the_parent_commit(tmp_path):
    with DurableAccountant(
        tmp_path, total_epsilon=50.0, quotas=QUOTAS
    ) as acct:
        for policy, epsilon, label, analyst in mixed_charges():
            try:
                acct.charge(policy, epsilon, label=label, analyst=analyst)
            except AnalystQuotaExceededError:
                pass
        assert 150 < len(acct.ledger) < 200  # some quota refusals, no snapshot
        view = acct.view()
        assert _sha256_of(_log_path(tmp_path)) == PARENT_LOG_SHA256
        acct.journal.compact()
        snapshot = os.path.join(str(tmp_path), ChargeJournal.SNAPSHOT_NAME)
        assert _sha256_of(snapshot) == PARENT_SNAPSHOT_SHA256
        assert_totals_are_the_tick_sum(acct)
    assert hashlib.sha256(_view_rows(view)).hexdigest() == PARENT_VIEW_ROWS_SHA256
    with DurableAccountant(
        tmp_path, total_epsilon=50.0, quotas=QUOTAS
    ) as back:
        for row in view["entries"]:
            if row["policy"] == "opaque":  # comes back as the placeholder
                row["policy"] = AllSensitivePolicy().name
        assert back.view() == view


# ----------------------------------------------------------------------
# Property: the whole policy algebra survives the journal
# ----------------------------------------------------------------------


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(policy=serializable_policies())
def test_entry_doc_round_trip_preserves_cache_key(policy):
    entry = LedgerEntry(
        policy=policy, epsilon=0.375, label="prop", analyst="alice"
    )
    rebuilt = entry_from_doc(entry_to_doc(7, entry))
    assert rebuilt.epsilon == entry.epsilon
    assert rebuilt.label == entry.label
    assert rebuilt.analyst == entry.analyst
    assert rebuilt.policy.cache_key() == policy.cache_key()
    assert policy_to_spec(rebuilt.policy) == policy_to_spec(policy)


@settings(max_examples=20, deadline=None)
@given(policy=serializable_policies())
def test_journal_recovery_rebuilds_identical_guarantee(policy):
    """Entry -> fsync'd frame -> recovery: the composed guarantee's
    epsilon and minimum-relaxation policy come back bit-identical."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        with DurableAccountant(directory, total_epsilon=100.0) as acct:
            acct.charge(policy, 0.125, label="a")
            acct.charge(OptInPolicy(), 0.25, label="b")
            original = acct.composed_guarantee()
        with DurableAccountant(directory, total_epsilon=100.0) as back:
            recovered = back.composed_guarantee()
            assert recovered.epsilon == original.epsilon
            assert (
                recovered.policy.cache_key() == original.policy.cache_key()
            )
