"""Common mechanism interfaces and a registry for the evaluation harness.

Every histogram-release mechanism implements one method,
``release_batch(hist: HistogramInput, rng, n_trials) -> np.ndarray``,
and exposes a ``guarantee`` describing its privacy promise;
``release(hist, rng)`` is row 0 of a one-trial batch.  DP mechanisms
read only ``hist.x``; OSDP mechanisms additionally use ``hist.x_ns``
(and the optional sensitive-bin mask).  Keeping the interface uniform
lets the regret experiments of Section 6.3.3 sweep a pool of mechanisms
over the same inputs.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Callable, Mapping

import numpy as np

from repro.core.accountant import PrivacyAccountant
from repro.core.guarantees import DPGuarantee, OSDPGuarantee
from repro.queries.histogram import HistogramInput


def resolve_histogram_source(source, query, policy) -> HistogramInput:
    """Build the :class:`HistogramInput` ``HistogramMechanism.run`` feeds
    every mechanism.

    A ready-made :class:`HistogramInput` passes through untouched; a
    database of any flavor (row, columnar, sharded) routes through
    :func:`repro.queries.histogram.histogram_input_for` and requires a
    query and policy.
    """
    if isinstance(source, HistogramInput):
        return source
    from repro.queries.histogram import histogram_input_for

    if hasattr(source, "histogram") or hasattr(source, "map_shards"):
        if query is None or policy is None:
            raise ValueError(
                "releasing from a database requires a query (or binning) "
                "and a policy"
            )
        return histogram_input_for(source, query, policy)
    raise TypeError(
        f"cannot build a histogram input from {type(source).__name__}; "
        "pass a HistogramInput or a (row, columnar or sharded) database"
    )


def _require_generator(rng) -> None:
    """Reject anything but one :class:`numpy.random.Generator`."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            f"expected one numpy Generator, got {type(rng).__name__}; for "
            "one generator per trial use "
            "[m.release(h, g) for g in spawn_rngs(seed, n)]"
        )


def _one_generator(release_batch):
    """``release_batch`` with the generator check in front of it."""

    @functools.wraps(release_batch)
    def checked(self, hist, rng, n_trials):
        _require_generator(rng)
        return release_batch(self, hist, rng, n_trials)

    return checked


class HistogramMechanism(ABC):
    """A randomized histogram-release algorithm."""

    name: str = "mechanism"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def __init_subclass__(cls, **kwargs):
        # Every implementation gets the one generator check, here.
        super().__init_subclass__(**kwargs)
        if "release_batch" in vars(cls):
            cls.release_batch = _one_generator(vars(cls)["release_batch"])

    @abstractmethod
    def release_batch(
        self, hist: HistogramInput, rng: np.random.Generator, n_trials: int
    ) -> np.ndarray:
        """``n_trials`` independent releases as an ``(n_trials, d)`` matrix.

        Every row is an iid draw of the release distribution, and the
        whole matrix is deterministic in ``rng``'s seed.  Subclasses
        sample all trials' noise in one pass (see
        :mod:`repro.mechanisms.batch_sampling`).  ``rng`` must be one
        :class:`numpy.random.Generator`; a sequence of generators is a
        ``TypeError``.
        """

    def release(
        self, hist: HistogramInput, rng: np.random.Generator
    ) -> np.ndarray:
        """One private estimate of ``hist.x``: row 0 of a one-trial batch."""
        return self.release_batch(hist, rng, 1)[0]

    # ------------------------------------------------------------------
    # The single end-to-end entry point
    # ------------------------------------------------------------------
    def run(
        self,
        source,
        rng: np.random.Generator,
        *,
        n_trials: int | None = None,
        query=None,
        binning=None,
        policy=None,
        accountant: PrivacyAccountant | None = None,
        label: str = "",
    ) -> np.ndarray:
        """Build the histogram input, charge the budget, sample a release.

        The one front door: ``source`` may be a ready
        :class:`HistogramInput`, a row
        :class:`repro.data.database.Database`, a
        :class:`repro.data.columnar.ColumnarDatabase` or a
        :class:`repro.data.sharding.ShardedColumnarDatabase` — the
        input is built through the matching (possibly per-shard
        parallel) path, so every mechanism gets a sharded front door
        without knowing about shards.

        ``binning``/``policy`` accept live objects *or* their wire
        specs (plain dicts), keeping this the same protocol the remote
        backends speak.  With ``n_trials=None`` one release is drawn
        and returned as a 1-D vector; otherwise the result is an
        ``(n_trials, n_bins)`` matrix with one accountant charge
        covering the whole trial matrix (the trials are analyses of
        one release distribution used jointly, and the evaluation
        protocol treats them as one budget-ed query).  ``rng`` must be
        one generator, checked before anything is charged.
        """
        from repro.core.policy_language import policy_from_spec
        from repro.queries.histogram import (
            HistogramQuery,
            binning_from_spec,
        )

        _require_generator(rng)
        if isinstance(policy, Mapping):
            policy = policy_from_spec(policy)
        if binning is not None:
            if query is not None:
                raise ValueError("pass either query or binning, not both")
            if isinstance(binning, Mapping):
                binning = binning_from_spec(binning)
            query = HistogramQuery(binning)
        hist = resolve_histogram_source(source, query, policy)
        if accountant is not None:
            self.charge_for(accountant, policy, label=label)
        if n_trials is None:
            return self.release(hist, rng)
        return self.release_batch(hist, rng, n_trials)

    @property
    @abstractmethod
    def guarantee(self) -> DPGuarantee | OSDPGuarantee:
        """The privacy guarantee this mechanism satisfies."""

    def charge(self, accountant: PrivacyAccountant | None, label: str = "") -> None:
        """Charge this mechanism's epsilon to an accountant, if given."""
        if accountant is None:
            return
        guarantee = self.guarantee
        if isinstance(guarantee, DPGuarantee):
            # DP is (P_all, eps)-OSDP (Lemma 3.1); charge under P_all.
            from repro.core.policy import AllSensitivePolicy

            accountant.charge(AllSensitivePolicy(), guarantee.epsilon, label or self.name)
        else:
            accountant.charge(guarantee.policy, guarantee.epsilon, label or self.name)

    def charge_for(
        self,
        accountant: PrivacyAccountant | None,
        policy,
        label: str = "",
    ) -> None:
        """Charge under the policy that actually built the input.

        The ledger must record the policy whose ``x_ns`` the mechanism
        consumed — an OSDP mechanism constructed without a policy (e.g.
        by a registry factory) still only satisfies ``(P, eps)``-OSDP
        for the ``P`` used to partition the data, so charging its
        guarantee's ``P_all`` placeholder would overstate protection.
        DP mechanisms ignore the input policy and charge under ``P_all``
        (Lemma 3.1).
        """
        if accountant is None:
            return
        guarantee = self.guarantee
        if isinstance(guarantee, DPGuarantee) or policy is None:
            from repro.core.policy import AllSensitivePolicy

            policy = AllSensitivePolicy()
        accountant.charge(policy, guarantee.epsilon, label or self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(epsilon={self.epsilon})"


MechanismFactory = Callable[[float], HistogramMechanism]


class MechanismRegistry:
    """Name -> factory registry used by the regret experiments."""

    def __init__(self) -> None:
        self._factories: dict[str, MechanismFactory] = {}

    def register(self, name: str, factory: MechanismFactory) -> None:
        if name in self._factories:
            raise ValueError(f"mechanism {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, epsilon: float) -> HistogramMechanism:
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown mechanism {name!r}; registered: {sorted(self._factories)}"
            ) from None
        return factory(epsilon)

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories
