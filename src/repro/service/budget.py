"""Crash-safe privacy budget: the durable accountant ledger.

The entire OSDP guarantee rests on Theorem 3.3 sequential composition:
the system may never release more than the composed epsilon.  A purely
in-memory :class:`repro.core.accountant.PrivacyAccountant` silently
resets ``spent`` to zero on any restart — an unrepairable privacy
violation (an audit can lower-bound leakage after the fact; it cannot
un-release noise).  :class:`DurableAccountant` closes that hole with an
append-only **charge journal** over the same
:class:`repro.service.framelog.FrameLog` the data WAL uses (frame
format, fsync'd append, snapshot compaction and the torn-tail scan all
live there), with one deliberate inversion:

* A data WAL *truncates* its torn tail: the interrupted entry was
  never acked, so dropping it is correct.
* The charge journal **counts** its torn tail: a charge is journaled
  and fsync'd *before* the noisy release is returned, so a torn frame
  means the crash landed inside the charge protocol — the release may
  or may not have escaped.  Wasting epsilon is safe; resurrecting it
  is a privacy violation, so recovery charges the torn entry anyway.

To make a torn frame chargeable, every blob leads with its epsilon as
8 raw big-endian float bytes *before* the wire-codec document — the
one field recovery must salvage from a frame whose CRC no longer
holds.  If even those bytes are unreadable, recovery charges the
**entire remaining budget** (the maximal safe assumption) and labels
the entry so operators can see what happened.  Either way the
salvaged charge is re-journaled as a clean frame, so a second restart
counts it exactly once.  A whole frame whose epsilon is not finite and
positive (journaled before every gate checked it) is booked the same
way, as the entire remaining budget, and a snapshot drops the frame.

Ledger entries serialize their policies via the PR-3 spec codec
(:func:`repro.core.policy_language.policy_to_spec`), so recovery
rebuilds the *exact* composed guarantee — same minimum-relaxation
policy, bit-identical epsilon.  Opaque policies (hand-written
predicates) have no spec; they are journaled as ``policy: None`` and
recovered as the conservative :class:`~repro.core.policy.AllSensitivePolicy`
placeholder (claiming less relaxation than the original is always
sound).

Fsync contract, in charge order (all under the accountant's one lock):

1. affordability check (global budget *and* the analyst's quota);
2. journal append — write, flush, ``fsync`` — **before** any caller
   sees success;
3. in-memory ledger append;
4. snapshot compaction (tmp file + fsync + atomic rename + directory
   fsync, then log truncation) once the log holds as many entries as
   the snapshot and at least ``snapshot_every``: a snapshot rewrites
   the whole history, so a fixed cadence would cost O(n) per charge;
   doubling makes it O(1) amortised and recovery reads each charge at
   most twice.
"""

from __future__ import annotations

import math
import os
import struct

from repro.api.wire import encode_message
from repro.core.accountant import (
    AnalystAccountant,
    LedgerEntry,
    PrivacyAccountant,
    require_epsilon,
)
from repro.core.policy import AllSensitivePolicy, Policy
from repro.core.policy_language import (
    PolicySpecError,
    policy_from_spec,
    policy_to_spec,
)
from repro.service.framelog import (
    FRAME_HEADER_BYTES,
    FrameError,
    FrameLog,
    decode_message,
)

#: The journaled charge's epsilon, redundantly leading the blob as raw
#: float bytes — the field a torn-tail recovery salvages.
_EPSILON_PREFIX = struct.Struct(">d")

#: Label of a synthetic charge recovered from a torn journal tail.
TORN_TAIL_LABEL = "torn-tail"
#: Label when not even the torn tail's epsilon bytes were readable and
#: the whole remaining budget was charged instead.
TORN_TAIL_UNREADABLE_LABEL = "torn-tail(unreadable)"
#: Label of the whole-remaining-budget charge that replaces journaled
#: charges whose epsilon is not finite and positive.
INVALID_CHARGE_LABEL = "invalid-charge"


class BudgetJournalError(RuntimeError):
    """A corrupt journal structure the budget cannot be rebuilt from."""


def entry_to_doc(seq: int, entry: LedgerEntry) -> dict:
    """One ledger entry as its wire-safe journal document."""
    try:
        spec = policy_to_spec(entry.policy)
    except PolicySpecError:
        # No declarative form — the name survives for the operator
        # view; recovery substitutes the conservative placeholder.
        spec = None
    return {
        "seq": int(seq),
        "epsilon": float(entry.epsilon),
        "label": str(entry.label),
        "analyst": str(entry.analyst),
        "policy": spec,
        "policy_name": str(entry.policy.name),
    }


def entry_from_doc(doc) -> LedgerEntry:
    """Rebuild a ledger entry from its journal document."""
    spec = doc.get("policy")
    if spec is None:
        policy: Policy = AllSensitivePolicy()
    else:
        policy = policy_from_spec(spec)
    return LedgerEntry(
        policy=policy,
        epsilon=float(doc["epsilon"]),
        label=str(doc.get("label", "")),
        analyst=str(doc.get("analyst", "")),
    )


def _entry_blob(doc: dict) -> bytes:
    return _EPSILON_PREFIX.pack(float(doc["epsilon"])) + encode_message(doc)


def _blob_doc(blob: bytes) -> dict:
    return decode_message(blob[_EPSILON_PREFIX.size :])


def _summable(epsilon) -> bool:
    """A charge the ledger can add: finite and positive."""
    return math.isfinite(epsilon) and epsilon > 0


def _salvage_epsilon(torn: bytes) -> float | None:
    """A torn tail's epsilon, from the raw float bytes leading its blob.

    Only a finite positive value is trusted; anything else returns
    None and the caller assumes the worst (full remaining budget).
    """
    body = torn[FRAME_HEADER_BYTES:]
    if len(body) < _EPSILON_PREFIX.size:
        return None
    (epsilon,) = _EPSILON_PREFIX.unpack_from(body, 0)
    return float(epsilon) if _summable(epsilon) else None


class ChargeJournal:
    """The on-disk half of :class:`DurableAccountant`.

    ``budget.log`` holds framed charge entries, fsync'd per append;
    ``budget_snapshot.bin`` holds the full ledger as of its
    ``last_seq`` (atomically replaced).  Not internally locked — every
    call happens under the owning accountant's lock.
    """

    LOG_NAME = "budget.log"
    SNAPSHOT_NAME = "budget_snapshot.bin"

    def __init__(self, directory, snapshot_every: int = 256):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        self.directory = os.fspath(directory)
        self._frames = FrameLog(
            self.directory, self.LOG_NAME, self.SNAPSHOT_NAME
        )
        self.snapshot_every = snapshot_every
        #: The highest sequence number journaled (0 = nothing yet).
        self.last_seq = 0
        #: Entries at or below this seq live only in the snapshot.
        self.snapshot_seq = 0
        #: Every live entry's journal document, snapshot + log — the
        #: compaction source (re-serializing live Policy objects at
        #: snapshot time could fail; the docs cannot).
        self._docs: list[dict] = []
        self._log_entries = 0

    # -- appending ------------------------------------------------------
    def append_entry(self, entry: LedgerEntry) -> int:
        """Durably journal one charge; returns its sequence number.

        The write is flushed and fsync'd before this returns — the
        fsync-before-ack contract: no caller (and no analyst) observes
        a charge that a crash could silently forget.
        """
        seq = self.last_seq + 1
        doc = entry_to_doc(seq, entry)
        self._frames.append(_entry_blob(doc))
        self.last_seq = seq
        self._docs.append(doc)
        self._log_entries += 1
        return seq

    def maybe_compact(self) -> bool:
        in_snapshot = len(self._docs) - self._log_entries
        if self._log_entries < max(self.snapshot_every, in_snapshot):
            return False
        self.compact()
        return True

    def compact(self) -> None:
        """Snapshot the full ledger and truncate the log."""
        self._frames.write_snapshot(
            encode_message(
                {"last_seq": self.last_seq, "entries": list(self._docs)}
            )
        )
        self.snapshot_seq = self.last_seq
        self._frames.truncate()
        self._log_entries = 0

    # -- recovery -------------------------------------------------------
    def recover(self) -> tuple[list[dict], dict]:
        """Load the journal; returns ``(entry docs, report)``.

        The report's ``torn_bytes``/``torn_epsilon`` describe a torn
        tail when one was found: the owning accountant must *charge*
        it (``torn_epsilon`` is None when not even the epsilon bytes
        were salvageable — charge the whole remaining budget).  The
        scan has already cut the torn bytes from disk; the caller
        re-journals the salvaged charge as a clean frame via
        :meth:`append_entry`.  ``invalid_charges`` counts entries whose
        epsilon is not finite and positive (journaled before every gate
        checked it): they are left out of the docs, and the caller
        books them and compacts them off the disk.
        """
        report = {
            "snapshot_seq": 0,
            "replayed": 0,
            "torn_bytes": 0,
            "torn_epsilon": None,
            "invalid_charges": 0,
        }
        try:
            snapshot = self._frames.read_snapshot(decode_message)
        except FrameError as exc:
            # Serving with a reset ledger would be a privacy violation;
            # refuse loudly instead.
            raise BudgetJournalError(
                f"budget {exc}; the spent budget cannot be reconstructed "
                "from it"
            ) from exc
        if snapshot is not None:
            self._docs = [dict(d) for d in snapshot.get("entries") or []]
            self.last_seq = self.snapshot_seq = int(snapshot["last_seq"])
            report["snapshot_seq"] = self.snapshot_seq
        docs, torn = self._frames.scan(_blob_doc)
        for doc in docs:
            seq = int(doc["seq"])
            if seq <= self.snapshot_seq:
                # A crash between snapshot rename and log truncation
                # leaves entries the snapshot already contains.
                continue
            if seq != self.last_seq + 1:
                raise BudgetJournalError(
                    f"budget journal {self._frames.log_path} has a "
                    f"sequence gap: entry {seq} follows {self.last_seq}; "
                    "charges are missing and the spent budget cannot be "
                    "trusted"
                )
            self._docs.append(doc)
            self.last_seq = seq
            self._log_entries += 1
            report["replayed"] += 1
        if torn:
            report["torn_bytes"] = len(torn)
            report["torn_epsilon"] = _salvage_epsilon(torn)
        kept = [doc for doc in self._docs if _summable(float(doc["epsilon"]))]
        report["invalid_charges"] = len(self._docs) - len(kept)
        self._docs = kept
        return list(self._docs), report

    def close(self) -> None:
        self._frames.close()

    def __enter__(self) -> "ChargeJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DurableAccountant:
    """A :class:`PrivacyAccountant` whose ledger survives SIGKILL.

    Drop-in wherever an accountant is accepted (``ReleaseServer``,
    ``ClusterBackend``, the mechanisms' ``charge`` helpers): same
    ``charge``/``remaining``/``ledger``/``composed_guarantee`` surface,
    same atomicity, same quota semantics — plus the fsync'd charge
    journal described in the module docstring.  Construction recovers
    the journal immediately (there is deliberately no way to open a
    journal without replaying it — forgetting recovery *is* the bug
    this class exists to prevent); the replay report is kept at
    :attr:`recovery`.
    """

    def __init__(
        self,
        directory,
        total_epsilon: float,
        quotas=None,
        snapshot_every: int = 256,
    ):
        self._inner = PrivacyAccountant(
            total_epsilon=total_epsilon, quotas=quotas
        )
        self._journal = ChargeJournal(directory, snapshot_every=snapshot_every)
        self.recovery = self._recover()

    def _recover(self) -> dict:
        docs, report = self._journal.recover()
        with self._inner._lock:
            for doc in docs:
                # History is history: recovered charges install
                # unchecked, so a ledger standing above total_epsilon
                # (e.g. after a torn-tail worst-case charge) refuses
                # further charges instead of erroring here.
                self._inner._append_entry(entry_from_doc(doc))
            if report["invalid_charges"]:
                # A charge that cannot be summed (a NaN makes spent NaN,
                # which refuses nothing) books everything still
                # standing, the rule of an unreadable torn tail.
                self._book(self._whole_remaining(INVALID_CHARGE_LABEL))
            self._book(self._torn_entry(report))
            if report["invalid_charges"]:
                # The snapshot leaves the invalid frames behind.
                self._journal.compact()
        report["spent"] = self.spent
        report["remaining"] = self.remaining
        return report

    def _book(self, entry: LedgerEntry | None) -> None:
        """Journal and install a recovery charge.  It is re-journaled as
        a clean frame so a second restart counts it exactly once."""
        if entry is not None:
            self._journal.append_entry(entry)
            self._inner._append_entry(entry)

    def _torn_entry(self, report: dict) -> LedgerEntry | None:
        """The synthetic charge a torn journal tail turns into."""
        if not report["torn_bytes"]:
            return None
        epsilon = report["torn_epsilon"]
        if epsilon is not None:
            return LedgerEntry(
                policy=AllSensitivePolicy(),
                epsilon=float(epsilon),
                label=TORN_TAIL_LABEL,
            )
        # Epsilon unreadable: the maximal safe assumption is that the
        # torn charge consumed everything still standing.
        return self._whole_remaining(TORN_TAIL_UNREADABLE_LABEL)

    def _whole_remaining(self, label: str) -> LedgerEntry | None:
        """A charge of the whole remaining budget (None when none is)."""
        remaining = max(0.0, self._inner.total_epsilon - self._inner.spent)
        if remaining <= 0:
            return None
        return LedgerEntry(
            policy=AllSensitivePolicy(), epsilon=remaining, label=label
        )

    # -- the accountant surface ----------------------------------------
    def charge(
        self,
        policy: Policy,
        epsilon: float,
        label: str = "",
        analyst: str = "",
    ) -> None:
        """Check, journal (fsync), then append — atomically.

        The journal write sits between the affordability check and the
        in-memory append, all under the inner accountant's lock: by the
        time any caller can observe the charge (let alone receive the
        noisy release), it is on stable storage.
        """
        require_epsilon(epsilon, "epsilon charge")
        with self._inner._lock:
            self._inner._check_charge(epsilon, analyst)
            entry = LedgerEntry(
                policy=policy,
                epsilon=float(epsilon),
                label=label,
                analyst=str(analyst),
            )
            self._journal.append_entry(entry)
            self._inner._append_entry(entry)
            self._journal.maybe_compact()

    @property
    def total_epsilon(self) -> float:
        return self._inner.total_epsilon

    @property
    def quotas(self) -> dict:
        return self._inner.quotas

    @property
    def spent(self) -> float:
        return self._inner.spent

    @property
    def remaining(self) -> float:
        return self._inner.remaining

    @property
    def ledger(self):
        return self._inner.ledger

    @property
    def journal(self) -> ChargeJournal:
        return self._journal

    def spent_by(self, analyst: str) -> float:
        return self._inner.spent_by(analyst)

    def quota_remaining(self, analyst: str) -> float | None:
        return self._inner.quota_remaining(analyst)

    def for_analyst(self, analyst: str | None):
        if not analyst:
            return self
        return AnalystAccountant(self, str(analyst))

    def composed_guarantee(self):
        return self._inner.composed_guarantee()

    def view(self) -> dict:
        return self._inner.view()

    def summary(self) -> str:
        return self._inner.summary()

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "DurableAccountant":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
