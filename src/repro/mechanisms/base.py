"""Common mechanism interfaces and a registry for the evaluation harness.

Every histogram-release mechanism implements
``release(hist: HistogramInput, rng) -> np.ndarray`` and exposes a
``guarantee`` describing its privacy promise.  DP mechanisms read only
``hist.x``; OSDP mechanisms additionally use ``hist.x_ns`` (and the
optional sensitive-bin mask).  Keeping the interface uniform lets the
regret experiments of Section 6.3.3 sweep a pool of mechanisms over the
same inputs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Sequence

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


class HistogramMechanism(ABC):
    """A randomized histogram-release algorithm."""

    name: str = "mechanism"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    @abstractmethod
    def release(
        self, hist: HistogramInput, rng: np.random.Generator
    ) -> np.ndarray:
        """Produce a private estimate of ``hist.x`` (full-domain vector)."""

    def release_batch(
        self,
        hist: HistogramInput,
        rng: np.random.Generator | Sequence[np.random.Generator],
        n_trials: int | None = None,
    ) -> np.ndarray:
        """``n_trials`` independent releases as an ``(n_trials, d)`` matrix.

        Two rng modes:

        * a single :class:`numpy.random.Generator` — the *batch* mode.
          Subclasses override this with a vectorized fast path that
          samples the whole noise matrix in one shot (see
          :mod:`repro.mechanisms.batch_sampling`); rows are iid draws of
          the release distribution but not stream-identical to a
          sequential ``release`` loop.  The base implementation loops
          ``release`` on the shared stream.
        * a *sequence* of generators (e.g. from
          :func:`repro.evaluation.runner.spawn_rngs`) — the
          compatibility mode: row ``i`` is exactly
          ``release(hist, rng[i])``, bit-for-bit the paper's per-trial
          protocol.  ``n_trials``, if given, must match the sequence
          length.
        """
        return self._sequential_release_batch(hist, rng, n_trials)

    def _sequential_release_batch(
        self,
        hist: HistogramInput,
        rng: np.random.Generator | Sequence[np.random.Generator],
        n_trials: int | None = None,
    ) -> np.ndarray:
        """The reference implementation both modes fall back to."""
        if isinstance(rng, np.random.Generator):
            if n_trials is None:
                raise ValueError("n_trials is required with a single generator")
            if n_trials < 1:
                raise ValueError("need at least one trial")
            rows = [self.release(hist, rng) for _ in range(n_trials)]
        else:
            rngs = list(rng)
            if n_trials is not None and n_trials != len(rngs):
                raise ValueError(
                    f"n_trials={n_trials} does not match {len(rngs)} generators"
                )
            if not rngs:
                raise ValueError("need at least one generator")
            rows = [self.release(hist, r) for r in rngs]
        return np.stack(rows)

    # ------------------------------------------------------------------
    # The single end-to-end entry point
    # ------------------------------------------------------------------
    def run(
        self,
        source,
        rng: np.random.Generator | Sequence[np.random.Generator],
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
        backends speak.  With ``n_trials=None`` and a single generator
        one release is drawn and returned as a 1-D vector; otherwise
        (an explicit ``n_trials``, or a sequence of per-trial
        generators) the result is an
        ``(n_trials, n_bins)`` matrix with one accountant charge
        covering the whole trial matrix (the trials are analyses of
        one release distribution used jointly, and the evaluation
        protocol treats them as one budget-ed query).
        """
        from repro.core.policy_language import policy_from_spec
        from repro.queries.histogram import (
            HistogramQuery,
            binning_from_spec,
        )

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
        if n_trials is None and isinstance(rng, np.random.Generator):
            return self.release(hist, rng)
        # A sequence of generators is the per-trial compatibility mode:
        # one row per generator, trials inferred from the length.
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
