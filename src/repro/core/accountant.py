"""Privacy budget accounting for OSDP analyses.

The accountant tracks a total epsilon budget and a ledger of analyses
run against the data, composing their guarantees per Theorem 3.3
(sequential composition over the minimum relaxation of the policies
involved).  Mechanisms in :mod:`repro.mechanisms` accept an optional
accountant and charge it before releasing output, so a multi-step
analysis (e.g. DAWAz's zero-detection + DAWA stages) is budget-audited
end to end.

Budgets are exact: integer **ticks** of 2^-60 epsilon.  A charge of
``e`` costs ``ceil(e * 2**60)`` ticks, from ``e.as_integer_ratio()``; a
total or a quota is worth ``floor(q * 2**60)``.  The sum is exact,
independent of charge order, and never below what was charged, so the
checks are integer comparisons with no slack (a budget of 1.0 takes
0.5 + 0.25 + 0.25, not 0.1 + 0.9, whose floats sum to 1 + 2^-55).
``spent``, ``remaining``, ``view()`` and ``summary()`` render ticks as
floats; ledger entries keep the charged float.  The totals advance as
each entry is installed, so a charge or a read costs the same at the
millionth charge as at the first, and the slotted entries share equal
policies, labels and analysts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.guarantees import OSDPGuarantee
from repro.core.policy import Policy, minimum_relaxation


def require_epsilon(epsilon: float, what: str = "epsilon") -> None:
    """Refuse an ε that is not finite and positive.  ``epsilon <= 0``
    alone passes NaN, and one NaN charge turns ``spent`` into NaN, after
    which no affordability check fails again."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"{what} must be finite and positive, got {epsilon!r}")


#: Ticks per unit of epsilon: budgets are Python ints in units of 2^-60.
TICKS_PER_EPSILON = 1 << 60


def epsilon_ticks(epsilon: float) -> int:
    """What a charge of ``epsilon`` costs: ``ceil(epsilon * 2**60)``, exact."""
    numerator, denominator = float(epsilon).as_integer_ratio()
    return -((-numerator << 60) // denominator)


def ticks_epsilon(ticks: int) -> float:
    """Ticks as the nearest float epsilon."""
    return ticks / TICKS_PER_EPSILON


def ticks_epsilon_up(ticks: int) -> float:
    """Ticks as the smallest float epsilon not below them: a stated
    guarantee never claims less than was spent."""
    epsilon = ticks / TICKS_PER_EPSILON
    numerator, denominator = epsilon.as_integer_ratio()
    if numerator << 60 < ticks * denominator:
        return math.nextafter(epsilon, math.inf)
    return epsilon


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
        The overall privacy budget, finite and positive.  Charges
        beyond this raise :class:`BudgetExceededError` and leave the
        ledger unchanged.
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
        require_epsilon(self.total_epsilon, "total_epsilon")
        quotas = {
            str(name): float(eps) for name, eps in (self.quotas or {}).items()
        }
        for name, eps in quotas.items():
            if not name:
                raise ValueError("quota analyst names must be non-empty")
            require_epsilon(eps, f"quota for analyst {name!r}")
        self.quotas = quotas
        # Budgets (floor(q * 2**60) is -ceil(-q * 2**60)) and totals in
        # ticks, overall and per analyst, advanced only in _append_entry,
        # and the one stored copy of each policy, label and analyst.
        self._total = -epsilon_ticks(-self.total_epsilon)
        self._quota_ticks = {name: -epsilon_ticks(-q) for name, q in quotas.items()}
        self._spent = 0
        self._spent_by: dict[str, int] = {}
        self._shared: dict = {}
        # Called with each affordable entry before it is installed, under
        # the charge lock; a durable accountant journals it there.
        self._sink = None

    @property
    def spent(self) -> float:
        return ticks_epsilon(self._spent)

    @property
    def remaining(self) -> float:
        return ticks_epsilon(self._total - self._spent)

    @property
    def ledger(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._ledger)

    def spent_by(self, analyst: str) -> float:
        """Total epsilon charged under one analyst credential."""
        return ticks_epsilon(self._spent_by.get(analyst, 0))

    def quota_remaining(self, analyst: str) -> float | None:
        """The analyst's remaining quota, or None when unquota'd."""
        quota = self._quota_ticks.get(analyst)
        if quota is None:
            return None
        return ticks_epsilon(quota - self._spent_by.get(analyst, 0))

    def charge(
        self,
        policy: Policy,
        epsilon: float,
        label: str = "",
        analyst: str = "",
    ) -> None:
        """Record an (policy, epsilon)-OSDP analysis against the budget.

        Atomic: the affordability check, the sink and the ledger append
        happen under one lock, so concurrent charges compose
        sequentially — two analysts can never both spend the last
        remaining epsilon, and a quota'd analyst can never overdraw the
        sub-budget either.
        """
        require_epsilon(epsilon, "epsilon charge")
        entry = LedgerEntry(policy, float(epsilon), label, str(analyst))
        with self._lock:
            ticks = self._check_charge(entry.epsilon, entry.analyst)
            if self._sink is not None:
                self._sink(entry)
            self._append_entry(entry, ticks)

    def _check_charge(self, epsilon: float, analyst: str = "") -> int:
        """Affordability check (global + quota); returns the charge's
        ticks.  The caller holds the lock."""
        ticks = epsilon_ticks(epsilon)
        if self._spent + ticks > self._total:
            raise BudgetExceededError(
                f"charge of {epsilon} exceeds remaining budget "
                f"{self.remaining:.6g} (total {self.total_epsilon})"
            )
        quota = self._quota_ticks.get(str(analyst)) if analyst else None
        if quota is not None:
            spent = self._spent_by.get(str(analyst), 0)
            if spent + ticks > quota:
                raise AnalystQuotaExceededError(
                    f"charge of {epsilon} exceeds analyst {analyst!r}'s "
                    f"remaining quota {ticks_epsilon(quota - spent):.6g} "
                    f"(quota {self.quotas[str(analyst)]})"
                )
        return ticks

    def _append_entry(self, entry: LedgerEntry, ticks: int | None = None) -> None:
        """Unchecked append of ``ticks`` (by default what the entry's
        epsilon costs), under the caller's lock.  Also the recovery
        installer: history is history, so a recovered ledger may stand
        above ``total_epsilon`` (and then refuses every charge).

        The stored entry shares its policy, label and analyst with
        every equal one before it: a request off the wire brings a fresh
        policy graph and fresh strings, and a ledger that pinned them
        grew by over a kilobyte per charge.  Two policies are one when
        their ``name`` and ``cache_key()`` agree — the same labelling of
        every record (the ``cache_key`` contract) under the name
        ``view`` shows; opaque policies (no key) never merge.
        What is stored may be a twin of what was charged: the same name
        and labelling under another spec (``{"any": [a, a]}`` for
        ``a``); the sink sees the charge's own policy *before* it is
        installed, so a durable journal holds what was charged.
        """
        if ticks is None:
            ticks = epsilon_ticks(entry.epsilon)
        share = self._shared.setdefault
        policy = entry.policy
        key = policy.cache_key()
        if key is not None:
            policy = share((policy.name, key), policy)
        entry = LedgerEntry(
            policy=policy,
            epsilon=entry.epsilon,
            label=share(entry.label, entry.label),
            analyst=share(entry.analyst, entry.analyst),
        )
        self._ledger.append(entry)
        self._spent += ticks
        self._spent_by[entry.analyst] = self._spent_by.get(entry.analyst, 0) + ticks

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
            spent = self._spent
            quotas = [
                (name, quota, self._quota_ticks[name], self._spent_by.get(name, 0))
                for name, quota in self.quotas.items()
            ]
        return {
            "total": float(self.total_epsilon),
            "spent": ticks_epsilon(spent),
            "remaining": ticks_epsilon(self._total - spent),
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
                    "spent": ticks_epsilon(used),
                    "remaining": ticks_epsilon(ticks - used),
                }
                for name, quota, ticks, used in quotas
            },
        }

    def composed_guarantee(self) -> OSDPGuarantee:
        """The overall guarantee per Theorem 3.3: (P_mr, sum eps_i)-OSDP,
        the sum being the spent ticks rendered upward, so never below
        the exact sum of the charges."""
        with self._lock:
            ledger, spent = tuple(self._ledger), self._spent
        if not ledger:
            raise ValueError("no analyses have been charged yet")
        policy = minimum_relaxation(*[e.policy for e in ledger])
        return OSDPGuarantee(policy=policy, epsilon=ticks_epsilon_up(spent))

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
