"""Empirical OSDP audit: odds-ratio lower bounds on neighboring pairs.

A regression tripwire for every release fast path (see
``docs/TESTING.md``): the audit runs ``release_batch`` — the vectorized
production kernels of :mod:`repro.mechanisms.batch_sampling` — many
times on a fixed one-sided neighboring pair and lower-bounds the
mechanism's epsilon by the largest observed odds ratio.

The worst-case events of both OSDP primitives have ratio *exactly*
``e^eps`` (the zero count under binomial thinning; any sub-support
event under one-sided Laplace), so a healthy audit lands near ``eps``
from both sides:

* an audit value far **above** eps + margin means a leak — which is
  what the deliberately broken half-scale mutants demonstrate;
* an audit value far **below** eps - margin means the audit lost its
  power and could no longer catch a leak.

Seeds are fixed, so the realized audit values are deterministic; the
margins additionally cover the max-over-events estimator noise at
these sample sizes with room to spare (see the TESTING.md derivation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions.one_sided_laplace import OneSidedLaplace
from repro.evaluation.audit import (
    audit_composed_release,
    audit_release_mechanism,
    discretize_outputs,
    empirical_odds_ratio_audit,
    joint_zero_estimate_codes,
)
from repro.mechanisms.dawa.dawa import Dawa
from repro.mechanisms.dawa.partition import DyadicScaffold
from repro.mechanisms.dawaz import DawaZ
from repro.mechanisms.osdp_laplace import (
    OsdpLaplaceHistogram,
    OsdpLaplaceL1Histogram,
)
from repro.mechanisms.osdp_rr import OsdpRRHistogram, release_probability
from repro.queries.histogram import HistogramInput

EPSILON = 1.0
N_TRIALS = 120_000
# Audit tolerance in epsilon space: covers the max-over-events
# estimator noise at N_TRIALS with min_count >= 200 (see TESTING.md).
MARGIN = 0.25
NS_COUNT = 2  # non-sensitive count in the audited bin under D


def _neighbor_pair() -> tuple[HistogramInput, HistogramInput]:
    """``D`` and a one-sided neighbor ``D'``.

    Replacing one of D's sensitive records with a non-sensitive record
    in the audited bin grows ``x_ns`` there by one; the total count is
    unchanged (bounded model).  This is the worst-case direction the
    OSDP inequality bounds.
    """
    x = np.array([20.0, 30.0])
    d = HistogramInput(x=x, x_ns=np.array([float(NS_COUNT), 5.0]))
    d_prime = HistogramInput(x=x, x_ns=np.array([float(NS_COUNT + 1), 5.0]))
    return d, d_prime


def _broken_one_sided(mechanism):
    """The scale/2 mutant: one-sided noise at half the calibrated scale.

    Half the scale doubles the privacy loss — the release behaves like
    an ``e^{2 eps}`` mechanism while still claiming ``eps``.
    """
    mechanism.noise = OneSidedLaplace(scale=0.5 / mechanism.epsilon)
    return mechanism


class _BrokenOsdpRR(OsdpRRHistogram):
    """Retention calibrated for 2*eps: the thinning analog of scale/2."""

    @property
    def retention_probability(self) -> float:
        return release_probability(2.0 * self.epsilon)


class TestHealthyMechanismsPassTheAudit:
    """Correct mechanisms stay under e^eps — and near it (audit power)."""

    def test_osdp_rr(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            OsdpRRHistogram(EPSILON), d, d_prime, N_TRIALS, seed=101
        )
        assert audit.epsilon_lower_bound <= EPSILON + MARGIN
        assert audit.epsilon_lower_bound >= EPSILON - MARGIN
        # The worst event of binomial thinning is the empty release.
        assert audit.event == 0

    def test_osdp_laplace(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            OsdpLaplaceHistogram(EPSILON),
            d,
            d_prime,
            N_TRIALS,
            seed=202,
            width=0.5,
            min_count=200,
        )
        assert audit.epsilon_lower_bound <= EPSILON + MARGIN
        assert audit.epsilon_lower_bound >= EPSILON - MARGIN

    def test_osdp_laplace_l1(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            OsdpLaplaceL1Histogram(EPSILON),
            d,
            d_prime,
            N_TRIALS,
            seed=303,
            width=0.5,
            min_count=200,
        )
        assert audit.epsilon_lower_bound <= EPSILON + MARGIN
        assert audit.epsilon_lower_bound >= EPSILON - MARGIN

    def test_epsilon_half_still_passes_at_its_own_epsilon(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            OsdpLaplaceHistogram(0.5),
            d,
            d_prime,
            N_TRIALS,
            seed=404,
            width=0.5,
            min_count=200,
        )
        assert audit.epsilon_lower_bound <= 0.5 + MARGIN


class TestBrokenMechanismsAreFlagged:
    """The scale/2 mutants leak ~2*eps and must trip the audit."""

    def test_broken_osdp_laplace_flagged(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            _broken_one_sided(OsdpLaplaceHistogram(EPSILON)),
            d,
            d_prime,
            N_TRIALS,
            seed=505,
            width=0.5,
            min_count=200,
        )
        assert audit.violates(EPSILON, slack=MARGIN)
        # ...and by a decisive amount: the mutant audits near 2*eps.
        assert audit.epsilon_lower_bound > 1.5 * EPSILON

    def test_broken_osdp_laplace_l1_flagged(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            _broken_one_sided(OsdpLaplaceL1Histogram(EPSILON)),
            d,
            d_prime,
            N_TRIALS,
            seed=606,
            width=0.5,
            min_count=200,
        )
        assert audit.violates(EPSILON, slack=MARGIN)

    def test_broken_osdp_rr_flagged(self):
        d, d_prime = _neighbor_pair()
        audit = audit_release_mechanism(
            _BrokenOsdpRR(EPSILON), d, d_prime, N_TRIALS, seed=707
        )
        assert audit.violates(EPSILON, slack=MARGIN)
        assert audit.epsilon_lower_bound > 1.5 * EPSILON


def _composed_neighbor_pair() -> tuple[HistogramInput, HistogramInput]:
    """A multi-bin pair for the two-phase (DAWAz) joint-event audit.

    Totals are large relative to the DP noise so the DAWA phase almost
    never clips an estimate to an exact zero — exact zeros then come
    (essentially only) from the zero-detection phase, which keeps the
    joint zero-event sharp.  As in ``_neighbor_pair``, the one-sided
    neighbor grows ``x_ns`` of the audited bin by one.
    """
    x = np.array([60.0, 90.0, 45.0, 30.0, 55.0, 80.0, 35.0, 50.0])
    x_ns = np.array([2.0, 15.0, 9.0, 6.0, 12.0, 18.0, 4.0, 10.0])
    x_ns_prime = x_ns.copy()
    x_ns_prime[0] += 1.0
    return (
        HistogramInput(x=x, x_ns=x_ns),
        HistogramInput(x=x, x_ns=x_ns_prime),
    )


class _LeakyZeroDawaZ(DawaZ):
    """Zero detection spending 2*eps while the ledger claims rho*eps.

    The composed-mechanism analog of the scale/2 mutants: the DP phase
    is untouched (its marginal stays healthy), only the zero-set
    distribution leaks — the failure mode a joint-event audit exists to
    catch.
    """

    def __init__(self, epsilon: float, **kwargs):
        super().__init__(epsilon, **kwargs)
        self.epsilon_zero = 2.0 * epsilon


class TestComposedMechanismAudit:
    """The joint (zero-set, estimate) audit over DAWAz (Algorithm 3)."""

    # DAWAz trials pay a full two-phase release each; 40k keeps the
    # worst joint event above min_count in both worlds at a quarter of
    # the primitive audits' cost (values are seed-deterministic).
    N_COMPOSED = 40_000

    def test_healthy_dawaz_respects_the_composed_budget(self):
        d, d_prime = _composed_neighbor_pair()
        audit = audit_composed_release(
            DawaZ(EPSILON), d, d_prime, self.N_COMPOSED, seed=11,
            min_count=200,
        )
        assert audit.epsilon_lower_bound <= EPSILON + MARGIN
        # The two worlds differ only through the zero phase (the DP
        # phase sees identical x), so a healthy joint audit lands near
        # the zero phase's rho * eps share — and must not lose that
        # signal entirely (audit power).
        rho_share = DawaZ(EPSILON).epsilon_zero
        assert audit.epsilon_lower_bound >= rho_share - 0.05
        assert audit.epsilon_lower_bound <= rho_share + 0.05
        # The worst joint event is zero-set membership: code 1 is
        # (discretized estimate 0, in Z).
        assert audit.event == 1

    def test_leaky_zero_detector_is_flagged(self):
        d, d_prime = _composed_neighbor_pair()
        audit = audit_composed_release(
            _LeakyZeroDawaZ(EPSILON), d, d_prime, self.N_COMPOSED, seed=11,
            min_count=200,
        )
        assert audit.violates(EPSILON, slack=MARGIN)
        # ...decisively: the joint bound recovers the detector's true
        # 2*eps spend.
        assert audit.epsilon_lower_bound > 1.5 * EPSILON

    def test_joint_codes_separate_zeroed_from_released(self):
        estimates = np.array([[0.0, 3.2], [0.3, 3.2], [-0.2, 0.0]])
        codes = joint_zero_estimate_codes(estimates, 0, width=0.5)
        assert codes.tolist() == [1, 0, -2]  # in-Z, released-0.3, released–0.2
        assert joint_zero_estimate_codes(estimates, 1, width=0.5).tolist() == [
            12,
            12,
            1,
        ]


# ----------------------------------------------------------------------
# DAWA stage 1: worlds whose *x* differs (bounded DP)
# ----------------------------------------------------------------------

# The composed pair above holds x fixed, so it never reaches DAWA's
# stage 1 — the noisy dyadic costs, their batch sampler, the flat
# partition selection.  Here a record moves between the two bins that
# straddle the root's midpoint.  On a flat histogram every dyadic
# interval holding either bin has deviation cost 0 in D and > 0 in D'
# (1 at levels 1-2, 2 at the root): all five changes point the same
# way and sum to 6 = 2 * noisy_levels, the sensitivity stage 1's noise
# is calibrated for, so partition events can reach stage 1's whole
# eps1 share.  At eps = 6 that share is 3, large against the
# estimator's noise.
DAWA_EPSILON = 6.0
N_STAGE1 = 400_000


def _boundary_neighbor_pair() -> tuple[HistogramInput, HistogramInput]:
    """A bounded-DP pair: one sensitive record moves from bin 3 to bin 4.

    ``x_ns`` is the same in both worlds (the record is sensitive before
    and after), so DAWAz's zero phase sees no difference and whatever
    the audit finds comes from the DAWA phase.
    """
    x = np.full(8, 20.0)
    moved = x.copy()
    moved[3] -= 1.0
    moved[4] += 1.0
    x_ns = np.full(8, 10.0)
    return HistogramInput(x=x, x_ns=x_ns), HistogramInput(x=moved, x_ns=x_ns)


class _HalfScaleScaffold(DyadicScaffold):
    """Stage-1 noise at half the calibrated scale (spends 2 * eps1)."""

    def noisy_costs_batch(self, epsilon1, rng, n_trials):
        return super().noisy_costs_batch(2.0 * epsilon1, rng, n_trials)


class _LeakyStage1Dawa(Dawa):
    """DAWA whose batch path draws its costs from the half-scale mutant."""

    def release_with_partition_batch(self, hist, rng, n_trials, scaffold=None):
        return super().release_with_partition_batch(
            hist, rng, n_trials, scaffold=_HalfScaleScaffold(hist.x)
        )


def _partition_codes(mechanism, hist, seed) -> np.ndarray:
    """One integer per trial naming the partition stage 1 chose.

    Bit ``i`` is set when a bucket starts at bin ``i``.  The partition
    is stage 1's whole output, so these events audit it against its own
    ``eps1`` share, without stage 2's noise in the way.
    """
    partitions = mechanism.release_with_partition_batch(
        hist, np.random.default_rng(seed), N_STAGE1
    ).partitions
    trial = np.repeat(np.arange(N_STAGE1), np.diff(partitions.offsets))
    return np.bincount(
        trial, weights=2.0 ** partitions.rows[:, 0], minlength=N_STAGE1
    ).astype(np.int64)


def _stage1_audit(mechanism, seed: int):
    d, d_prime = _boundary_neighbor_pair()
    # The flat world is the denominator: a partition that splits
    # around the moved record is what D' makes likelier.
    return empirical_odds_ratio_audit(
        _partition_codes(mechanism, d_prime, [seed, 1]),
        _partition_codes(mechanism, d, [seed, 0]),
        min_count=1000,
    )


class TestDawaStage1Audit:
    """The batch path's stage 1 (sampler, flat selection) under audit."""

    @pytest.mark.parametrize("bin_index", [3, 4])
    def test_dawa_release_respects_epsilon_in_both_directions(self, bin_index):
        d, d_prime = _boundary_neighbor_pair()
        bounds = [
            audit_release_mechanism(
                Dawa(DAWA_EPSILON), a, b, N_TRIALS, seed=21,
                bin_index=bin_index, width=0.5, min_count=200,
            ).epsilon_lower_bound
            for a, b in ((d, d_prime), (d_prime, d))  # DP is symmetric
        ]
        assert max(bounds) <= DAWA_EPSILON + MARGIN
        # ...and the audit is not blind: it recovers about eps / 2.
        assert max(bounds) >= DAWA_EPSILON / 2 - MARGIN

    def test_dawaz_release_respects_epsilon(self):
        d, d_prime = _boundary_neighbor_pair()
        for a, b in ((d, d_prime), (d_prime, d)):
            audit = audit_composed_release(
                DawaZ(DAWA_EPSILON), a, b, N_TRIALS, seed=22,
                bin_index=3, min_count=200,
            )
            assert audit.epsilon_lower_bound <= DAWA_EPSILON + MARGIN

    def test_stage1_partition_audits_near_its_share(self):
        mech = Dawa(DAWA_EPSILON)
        audit = _stage1_audit(mech, seed=23)
        assert audit.epsilon_lower_bound <= mech.epsilon1 + MARGIN
        assert audit.epsilon_lower_bound >= mech.epsilon1 - MARGIN  # power

    def test_half_scale_stage1_is_flagged_by_the_partition_audit(self):
        mech = _LeakyStage1Dawa(DAWA_EPSILON)
        audit = _stage1_audit(mech, seed=23)
        assert audit.violates(mech.epsilon1, slack=MARGIN)
        assert audit.epsilon_lower_bound > 1.5 * mech.epsilon1
        # The release-level estimator cannot see this mutant: it audits
        # one bin's estimate against eps = eps1 + eps2, and that
        # marginal mixes the partition in only through the bin's bucket
        # width, blurred by stage 2's own noise — the doubled stage-1
        # loss stays well under the sum.  Hence the partition events.
        d, d_prime = _boundary_neighbor_pair()
        marginal = audit_release_mechanism(
            mech, d_prime, d, N_TRIALS, seed=21,
            bin_index=3, width=0.5, min_count=200,
        )
        assert not marginal.violates(DAWA_EPSILON, slack=MARGIN)


class TestAuditEstimator:
    """The odds-ratio estimator itself, on known distributions."""

    def test_identical_worlds_audit_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.binomial(10, 0.4, size=N_TRIALS)
        b = rng.binomial(10, 0.4, size=N_TRIALS)
        audit = empirical_odds_ratio_audit(a, b, min_count=200)
        assert abs(audit.epsilon_lower_bound) < 0.1

    def test_forbidden_mass_surfaces_as_large_ratio(self):
        # World B (the denominator) almost never emits 5; a mechanism
        # whose suppression path broke would look like this.
        a = np.full(2000, 5)
        b = np.zeros(2000, dtype=int)
        audit = empirical_odds_ratio_audit(a, b, min_count=50)
        assert audit.max_ratio >= 2000.0
        assert audit.event == 5

    def test_min_count_filters_rare_events(self):
        a = np.concatenate([np.zeros(1000, dtype=int), [7]])
        b = np.zeros(1001, dtype=int)
        audit = empirical_odds_ratio_audit(a, b, min_count=50)
        assert audit.n_events == 1  # the lone 7 is filtered
        with pytest.raises(ValueError):
            empirical_odds_ratio_audit(a, b, min_count=5000)

    def test_discretize_outputs_rejects_bad_width(self):
        with pytest.raises(ValueError):
            discretize_outputs(np.array([1.0]), 0.0)

    def test_direction_is_one_sided(self):
        # OSDP bounds P[M(D)] / P[M(D')] only: mass that only D' can
        # produce (the grown support) must NOT flag the mechanism.
        d, d_prime = _neighbor_pair()
        mech = OsdpLaplaceHistogram(EPSILON)
        audit = audit_release_mechanism(
            mech, d, d_prime, N_TRIALS, seed=808, width=0.5, min_count=200
        )
        reverse = audit_release_mechanism(
            mech, d_prime, d, N_TRIALS, seed=808, width=0.5, min_count=200
        )
        assert audit.epsilon_lower_bound <= EPSILON + MARGIN
        # The reverse direction legitimately exceeds eps (the interval
        # (c, c+1] has zero mass under D) — evidence the asymmetry in
        # the audit is load-bearing, not an implementation accident.
        assert reverse.epsilon_lower_bound > EPSILON + MARGIN
