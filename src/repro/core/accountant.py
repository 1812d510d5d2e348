"""Privacy budget accounting for OSDP analyses.

The accountant tracks a total epsilon budget and a ledger of analyses
run against the data, composing their guarantees per Theorem 3.3
(sequential composition over the minimum relaxation of the policies
involved).  Mechanisms in :mod:`repro.mechanisms` accept an optional
accountant and charge it before releasing output, so a multi-step
analysis (e.g. DAWAz's zero-detection + DAWA stages) is budget-audited
end to end.

``spent`` is *defined* as the left-to-right fold ``((0.0 + e1) + e2) +
...`` of the ledger's epsilons in the order the charges landed.  The
accountant keeps that fold, globally and per analyst, as each entry is
installed, so a charge or a ``remaining`` read costs the same at the
first charge and at the millionth, and the totals equal the fold over
the ledger bit for bit (the ``sum`` builtin is a compensated sum from
Python 3.12 on, so it is not the definition).  The ledger costs a few
words per charge: entries are slotted and share equal policies, labels
and analysts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.guarantees import OSDPGuarantee, sequential_composition
from repro.core.policy import Policy


class BudgetExceededError(RuntimeError):
    """Raised when a charge would exceed the accountant's total budget."""


class AnalystQuotaExceededError(BudgetExceededError):
    """A charge fit the global budget but overran its analyst's quota."""


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One composed analysis: its policy, epsilon spent, and a label.

    ``analyst`` is the credential the charge arrived under (the wire
    header's ``analyst`` field); empty for anonymous/curator charges.
    """

    policy: Policy
    epsilon: float
    label: str
    analyst: str = ""


@dataclass
class PrivacyAccountant:
    """Sequential-composition budget tracker for OSDP mechanisms.

    Parameters
    ----------
    total_epsilon:
        The overall privacy budget.  Charges beyond this raise
        :class:`BudgetExceededError` and leave the ledger unchanged.
    quotas:
        Optional per-analyst sub-budgets (``{analyst: epsilon}``).  A
        charge arriving under a quota'd analyst must fit *both* the
        global remaining budget and that analyst's remaining quota
        (checked atomically under the same lock); overrunning the
        quota raises :class:`AnalystQuotaExceededError`.  Analysts
        without a declared quota draw from the global budget only.
        Quotas may oversubscribe the total — they are caps, not
        reservations.

    Examples
    --------
    >>> from repro.core.policy import AllSensitivePolicy
    >>> acct = PrivacyAccountant(total_epsilon=1.0)
    >>> acct.charge(AllSensitivePolicy(), 0.4, label="histogram")
    >>> round(acct.remaining, 10)
    0.6
    """

    total_epsilon: float
    quotas: "Mapping[str, float] | None" = None
    _ledger: list[LedgerEntry] = field(
        default_factory=list, init=False, repr=False
    )
    # Charging is check-then-append; concurrent analysts (the RPC tier
    # serves releases under a shared lock) must not be able to spend
    # the same remaining budget twice, so the pair is atomic.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.total_epsilon <= 0:
            raise ValueError("total_epsilon must be positive")
        quotas = {
            str(name): float(eps) for name, eps in (self.quotas or {}).items()
        }
        for name, eps in quotas.items():
            if not name:
                raise ValueError("quota analyst names must be non-empty")
            if eps <= 0:
                raise ValueError(
                    f"quota for analyst {name!r} must be positive"
                )
        self.quotas = quotas
        # The fold of the ledger's epsilons in charge order, overall and
        # per analyst, and the one stored copy of each distinct policy,
        # label and analyst; all advanced only by _append_entry.
        self._spent = 0.0
        self._spent_by: dict[str, float] = {}
        self._shared: dict = {}

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self.total_epsilon - self.spent

    @property
    def ledger(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._ledger)

    def spent_by(self, analyst: str) -> float:
        """Total epsilon charged under one analyst credential."""
        return self._spent_by.get(analyst, 0.0)

    def quota_remaining(self, analyst: str) -> float | None:
        """The analyst's remaining quota, or None when unquota'd."""
        quota = self.quotas.get(analyst)
        if quota is None:
            return None
        return quota - self.spent_by(analyst)

    def charge(
        self,
        policy: Policy,
        epsilon: float,
        label: str = "",
        analyst: str = "",
    ) -> None:
        """Record an (policy, epsilon)-OSDP analysis against the budget.

        Atomic: the affordability check and the ledger append happen
        under one lock, so concurrent charges compose sequentially —
        two analysts can never both spend the last remaining epsilon,
        and a quota'd analyst can never overdraw the sub-budget either.
        """
        if epsilon <= 0:
            raise ValueError("epsilon charge must be positive")
        with self._lock:
            self._check_charge(epsilon, analyst)
            self._append_entry(
                LedgerEntry(
                    policy=policy,
                    epsilon=epsilon,
                    label=label,
                    analyst=str(analyst),
                )
            )

    # The check/append split is the durable-accountant seam: a
    # DurableAccountant interposes its fsync'd journal append between
    # the two, under this same lock (see repro.service.budget).
    def _check_charge(self, epsilon: float, analyst: str = "") -> None:
        """Affordability check (global + quota); caller holds the lock."""
        # Small tolerance so that e.g. 0.1 + 0.9 == 1.0 charges
        # succeed despite float representation error.
        if self.spent + epsilon > self.total_epsilon * (1 + 1e-12) + 1e-12:
            raise BudgetExceededError(
                f"charge of {epsilon} exceeds remaining budget "
                f"{self.remaining:.6g} (total {self.total_epsilon})"
            )
        quota = self.quotas.get(str(analyst)) if analyst else None
        if quota is not None:
            spent = self.spent_by(str(analyst))
            if spent + epsilon > quota * (1 + 1e-12) + 1e-12:
                raise AnalystQuotaExceededError(
                    f"charge of {epsilon} exceeds analyst {analyst!r}'s "
                    f"remaining quota {quota - spent:.6g} (quota {quota})"
                )

    def _append_entry(self, entry: LedgerEntry) -> None:
        """Unchecked ledger append; caller holds the lock.

        Also the recovery installer: replayed history is history, so a
        recovered ledger may legitimately stand above ``total_epsilon``
        (further charges are then refused by :meth:`_check_charge`).

        The stored entry shares its policy, label and analyst with
        every equal one before it: a request off the wire brings a fresh
        policy graph and fresh strings, and a ledger that pinned them
        grew by over a kilobyte per charge.  Two policies are one when
        their type, ``name`` and ``cache_key()`` agree — the same
        labelling of every record (the ``cache_key`` contract) under
        the name ``view`` shows; opaque policies (no key) never merge.
        What is stored may be a value-equal twin of what was charged
        (``values: [1]`` for ``[1.0]``); the durable journal serializes
        the charge's own policy *before* installing it, so the disk
        holds what was charged.
        """
        share = self._shared.setdefault
        policy = entry.policy
        key = policy.cache_key()
        if key is not None:
            policy = share((type(policy), policy.name, key), policy)
        entry = LedgerEntry(
            policy=policy,
            epsilon=entry.epsilon,
            label=share(entry.label, entry.label),
            analyst=share(entry.analyst, entry.analyst),
        )
        self._ledger.append(entry)
        self._spent = self._spent + entry.epsilon
        self._spent_by[entry.analyst] = (
            self._spent_by.get(entry.analyst, 0.0) + entry.epsilon
        )

    def for_analyst(self, analyst: str | None) -> "PrivacyAccountant | AnalystAccountant":
        """This accountant with charges bound to ``analyst``.

        A falsy analyst returns the accountant itself (anonymous
        charges); otherwise a thin bound proxy whose ``charge`` stamps
        the credential, so mechanisms keep their accountant-agnostic
        ``charge(policy, eps, label=...)`` call shape.
        """
        if not analyst:
            return self
        return AnalystAccountant(self, str(analyst))

    def view(self) -> dict:
        """The full ledger as a wire-safe document (the ``budget`` op).

        Per-entry policy *names* only — specs may not exist for opaque
        policies, and the view is an operator surface, not a recovery
        format (that is the durable journal's job).
        """
        # One consistent cut under the charge lock; the O(n) rendering
        # happens outside it, so a ``budget`` op never stalls releases.
        with self._lock:
            ledger = list(self._ledger)
            spent = self.spent
            quotas = [
                (name, quota, self.spent_by(name))
                for name, quota in self.quotas.items()
            ]
        return {
            "total": float(self.total_epsilon),
            "spent": float(spent),
            "remaining": float(self.total_epsilon - spent),
            "entries": [
                {
                    "label": entry.label,
                    "epsilon": float(entry.epsilon),
                    "policy": entry.policy.name,
                    "analyst": entry.analyst,
                }
                for entry in ledger
            ],
            "quotas": {
                name: {
                    "quota": float(quota),
                    "spent": float(used),
                    "remaining": float(quota - used),
                }
                for name, quota, used in quotas
            },
        }

    def composed_guarantee(self) -> OSDPGuarantee:
        """The overall guarantee per Theorem 3.3: (P_mr, sum eps_i)-OSDP."""
        if not self._ledger:
            raise ValueError("no analyses have been charged yet")
        return sequential_composition(
            [OSDPGuarantee(policy=e.policy, epsilon=e.epsilon) for e in self._ledger]
        )

    def summary(self) -> str:
        """Human-readable ledger, one line per charge."""
        lines = [f"budget: {self.total_epsilon}  spent: {self.spent:.6g}  "
                 f"remaining: {self.remaining:.6g}"]
        for i, entry in enumerate(self._ledger, start=1):
            label = entry.label or "(unlabelled)"
            analyst = f" analyst={entry.analyst}" if entry.analyst else ""
            lines.append(
                f"  {i}. {label}: epsilon={entry.epsilon:.6g} "
                f"policy={entry.policy.name}{analyst}"
            )
        return "\n".join(lines)


class AnalystAccountant:
    """An accountant with every charge bound to one analyst credential.

    Produced by ``for_analyst``; mechanisms call ``charge(policy, eps,
    label=...)`` on it exactly as they would on the underlying
    accountant — the credential rides along invisibly, and the quota
    check happens atomically inside the underlying ``charge``.
    """

    __slots__ = ("_accountant", "analyst")

    def __init__(self, accountant, analyst: str):
        if not analyst:
            raise ValueError("analyst must be non-empty")
        self._accountant = accountant
        self.analyst = str(analyst)

    def charge(self, policy: Policy, epsilon: float, label: str = "") -> None:
        self._accountant.charge(
            policy, epsilon, label=label, analyst=self.analyst
        )

    @property
    def total_epsilon(self) -> float:
        return self._accountant.total_epsilon

    @property
    def spent(self) -> float:
        return self._accountant.spent

    @property
    def remaining(self) -> float:
        """What this analyst can still spend: the global remainder,
        further capped by the analyst's quota when one is declared."""
        remaining = self._accountant.remaining
        quota_left = self._accountant.quota_remaining(self.analyst)
        if quota_left is None:
            return remaining
        return min(remaining, quota_left)
