"""Tests for the synthetic TIPPERS trace generator (§6.1.1 substrate)."""

import numpy as np
import pytest

from repro.data.tippers import (
    EVENING_SLOT,
    SLOTS_PER_DAY,
    SensitiveAPPolicy,
    TippersConfig,
    Trajectory,
    generate_tippers,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_tippers(TippersConfig(n_users=200, n_days=30, seed=42))


class TestTrajectory:
    def test_requires_slots(self):
        with pytest.raises(ValueError):
            Trajectory(user_id=0, day=0, slots=())

    def test_derived_properties(self):
        t = Trajectory(user_id=1, day=2, slots=((10, 5), (11, 5), (12, 7)))
        assert t.aps == (5, 5, 7)
        assert t.distinct_aps == frozenset({5, 7})
        assert t.duration_slots == 3
        assert t.start_slot == 10
        assert t.end_slot == 12

    def test_visits_any(self):
        t = Trajectory(user_id=1, day=0, slots=((0, 3),))
        assert t.visits_any({3, 9})
        assert not t.visits_any({9})

    def test_ngrams(self):
        t = Trajectory(user_id=0, day=0, slots=((0, 1), (1, 2), (2, 3), (3, 2)))
        assert t.ngrams(2) == [(1, 2), (2, 3), (3, 2)]
        assert t.ngrams(4) == [(1, 2, 3, 2)]

    def test_distinct_ngrams_order(self):
        t = Trajectory(
            user_id=0, day=0, slots=((0, 1), (1, 2), (2, 1), (3, 2), (4, 1))
        )
        grams = t.distinct_ngrams(2)
        assert grams[0] == (1, 2)
        assert len(grams) == len(set(grams))


class TestConfigValidation:
    def test_role_counts_must_sum(self):
        with pytest.raises(ValueError):
            TippersConfig(n_aps=64, n_common_aps=10, n_office_aps=10,
                          n_meeting_aps=10, n_rare_aps=10)

    def test_resident_fraction_bounds(self):
        with pytest.raises(ValueError):
            TippersConfig(resident_fraction=0.0)


class TestGeneration:
    def test_deterministic(self):
        a = generate_tippers(TippersConfig(n_users=50, n_days=10, seed=1))
        b = generate_tippers(TippersConfig(n_users=50, n_days=10, seed=1))
        assert len(a) == len(b)
        assert a.trajectories[0].slots == b.trajectories[0].slots

    def test_slots_contiguous_and_in_range(self, dataset):
        for t in dataset.trajectories[:200]:
            slots = [s for s, _ in t.slots]
            assert slots == list(range(slots[0], slots[0] + len(slots)))
            assert 0 <= slots[0] and slots[-1] < SLOTS_PER_DAY

    def test_aps_in_range(self, dataset):
        n_aps = dataset.config.n_aps
        for t in dataset.trajectories[:200]:
            assert all(0 <= ap < n_aps for ap in t.aps)

    def test_residents_stay_longer_on_average(self, dataset):
        resident_durations, visitor_durations = [], []
        for t in dataset.trajectories:
            if t.user_id in dataset.resident_user_ids:
                resident_durations.append(t.duration_slots)
            else:
                visitor_durations.append(t.duration_slots)
        assert np.mean(resident_durations) > 2 * np.mean(visitor_durations)

    def test_heuristic_labels_correlate_with_ground_truth(self, dataset):
        labels = dataset.heuristic_resident_labels()
        truth = dataset.resident_user_ids
        hits = sum(1 for u, is_res in labels.items() if is_res == (u in truth))
        assert hits / len(labels) > 0.9

    def test_some_late_workers_exist(self, dataset):
        late = [t for t in dataset.trajectories if t.end_slot >= EVENING_SLOT]
        assert late


class TestPolicies:
    def test_policy_for_fraction_hits_target(self, dataset):
        for rho in (99, 75, 50, 25):
            policy = dataset.policy_for_fraction(rho)
            achieved = 1.0 - policy.sensitive_fraction(dataset.trajectories)
            assert achieved == pytest.approx(rho / 100.0, abs=0.08)

    def test_policy_fraction_bounds(self, dataset):
        with pytest.raises(ValueError):
            dataset.policy_for_fraction(0.0)
        with pytest.raises(ValueError):
            dataset.policy_for_fraction(100.0)

    def test_sensitive_ap_policy_semantics(self):
        policy = SensitiveAPPolicy({3})
        hit = Trajectory(user_id=0, day=0, slots=((0, 1), (1, 3)))
        miss = Trajectory(user_id=0, day=0, slots=((0, 1), (1, 2)))
        assert policy.is_sensitive(hit)
        assert policy.is_non_sensitive(miss)

    def test_stricter_policies_nest(self, dataset):
        """Lower rho -> superset of sensitive APs (greedy prefix)."""
        p75 = dataset.policy_for_fraction(75)
        p25 = dataset.policy_for_fraction(25)
        assert set(p75.to_spec()["aps"]) <= set(p25.to_spec()["aps"])


class TestHistograms:
    def test_two_d_histogram_shape(self, dataset):
        hist = dataset.two_d_histogram()
        assert hist.shape == (dataset.config.n_aps, 24)
        assert hist.sum() > 0

    def test_presence_events_unique_and_consistent(self, dataset):
        events = dataset.presence_events()
        assert len(events) == len(set(events))
        n_aps = dataset.config.n_aps
        for user, day, ap, hour in events[:500]:
            assert 0 <= ap < n_aps
            assert 0 <= hour < 24

    def test_ap_coverage_totals(self, dataset):
        coverage = dataset.ap_coverage()
        assert set(coverage) == set(range(dataset.config.n_aps))
        total = sum(coverage.values())
        assert total >= len(dataset)  # every trajectory hits >= 1 AP
