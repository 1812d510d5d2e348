"""Synthetic smart-building Wi-Fi traces (the TIPPERS substrate, §6.1.1).

The paper's TIPPERS dataset — 9 months of Wi-Fi association events from
64 access points in UC Irvine's Bren Hall, 585K daily trajectories from
16K devices — is IRB-restricted and was never released.  This module
generates a behaviorally equivalent synthetic trace.  The experiments
consume only three properties of the data, all of which the generator
controls directly:

1. **daily trajectories**: per (user, day), a contiguous sequence of
   10-minute slots each labelled with the most frequent AP (the paper's
   discretization);
2. **resident/visitor structure**: residents anchor at an office AP,
   stay long (>= 6h), return most weekdays, and sometimes work late;
   visitors make short, sparse visits — exactly the signal the paper's
   heuristic labelling rule (and hence Fig 1's classifier) keys on;
3. **AP-level sensitivity**: a skewed AP popularity profile (a few
   high-traffic common areas, many offices, a tail of rarely-visited
   lounges/restrooms) so that access-point policies ``P_rho`` can hit
   any target fraction of non-sensitive trajectories, from P99 down to
   P1, by greedy coverage selection.  A ``P_rho`` is a
   ``sensitive_aps`` spec: one ``any_in`` leaf over a trajectory's APs
   (the ``aps`` ragged column, or ``Trajectory.aps`` per record).

One record = one user-day, the paper's privacy unit.  The generator
writes the columnar layout (:func:`trajectory_columns`) directly; the
:class:`Trajectory` rows are rebuilt from it (:func:`trajectory_records`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.policy import Policy
from repro.core.policy_language import policy_from_spec

if TYPE_CHECKING:
    from repro.data.columnar import ColumnarDatabase

SLOTS_PER_DAY = 144  # 10-minute intervals
SLOTS_PER_HOUR = 6
EVENING_SLOT = 19 * SLOTS_PER_HOUR  # 7 pm, the paper's late-work cutoff
SIX_HOURS_SLOTS = 6 * SLOTS_PER_HOUR


@dataclass(frozen=True)
class Trajectory:
    """One user's movement through the building on one day.

    ``slots`` is a tuple of (slot_index, ap) pairs with strictly
    increasing, contiguous slot indices — the paper discretizes time to
    10-minute intervals and records the dominant AP per interval.
    """

    user_id: int
    day: int
    slots: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("a trajectory must cover at least one slot")

    @property
    def aps(self) -> tuple[int, ...]:
        """AP sequence, one entry per 10-minute slot."""
        return tuple(ap for _, ap in self.slots)

    @property
    def distinct_aps(self) -> frozenset[int]:
        return frozenset(ap for _, ap in self.slots)

    @property
    def duration_slots(self) -> int:
        return len(self.slots)

    @property
    def start_slot(self) -> int:
        return self.slots[0][0]

    @property
    def end_slot(self) -> int:
        return self.slots[-1][0]

    def visits_any(self, aps: frozenset[int] | set[int]) -> bool:
        return not self.distinct_aps.isdisjoint(aps)

    def ngrams(self, n: int) -> list[tuple[int, ...]]:
        """All n-grams: APs at n consecutive time intervals (§6.2)."""
        seq = self.aps
        return [seq[i : i + n] for i in range(len(seq) - n + 1)]

    def distinct_ngrams(self, n: int) -> list[tuple[int, ...]]:
        """Distinct n-grams in first-appearance order (for truncation)."""
        seen: dict[tuple[int, ...], None] = {}
        for gram in self.ngrams(n):
            seen.setdefault(gram, None)
        return list(seen)


def SensitiveAPPolicy(
    sensitive_aps: Iterable[int], name: str = "sensitive-aps"
) -> Policy:
    """Trajectories through any sensitive AP are sensitive (§6.1.1).

    The paper's access-point-level policy: a sensitive set of APs (e.g.
    lounge, restroom) marks as sensitive every daily trajectory that
    passes through at least one of them — the ``any_in`` leaf over the
    ``aps`` ragged column (:func:`trajectory_columns`), or a
    ``Trajectory``'s ``aps`` per record.  The APs are
    ``policy.to_spec()["aps"]``.
    """
    return policy_from_spec(
        {"kind": "sensitive_aps", "aps": sensitive_aps, "name": name}
    )


@dataclass(frozen=True)
class TippersConfig:
    """Knobs for the synthetic trace generator."""

    n_aps: int = 64
    n_users: int = 400
    n_days: int = 60
    resident_fraction: float = 0.08
    seed: int = 0
    # AP role split; must sum to n_aps.
    n_common_aps: int = 8
    n_office_aps: int = 36
    n_meeting_aps: int = 8
    n_rare_aps: int = 12

    def __post_init__(self) -> None:
        roles = (
            self.n_common_aps
            + self.n_office_aps
            + self.n_meeting_aps
            + self.n_rare_aps
        )
        if roles != self.n_aps:
            raise ValueError(
                f"AP role counts sum to {roles}, expected n_aps={self.n_aps}"
            )
        if not 0.0 < self.resident_fraction < 1.0:
            raise ValueError("resident_fraction must lie in (0, 1)")


@dataclass
class TippersDataset:
    """The generated trace plus ground truth and policy helpers."""

    config: TippersConfig
    table: ColumnarDatabase = field(repr=False)
    resident_user_ids: frozenset[int]
    ap_roles: dict[str, tuple[int, ...]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.table)

    @cached_property
    def trajectories(self) -> list[Trajectory]:
        """The trace's rows, rebuilt from its columns."""
        return list(trajectory_records(self.table))

    def columnar(self):
        """The trace as a :class:`repro.data.columnar.ColumnarDatabase`."""
        return self.table

    # ------------------------------------------------------------------
    # Labelling (the paper's heuristic, §6.2 "Classification")
    # ------------------------------------------------------------------
    def heuristic_resident_labels(self) -> dict[int, bool]:
        """Label users by the paper's behavioral rule, scaled to n_days.

        The paper labels a device a resident when it (a) visits at least
        10 days per month over the last 5 months AND (b) works past 7 pm
        once a week OR (c) works more than 6 hours once a week.  With a
        shorter synthetic horizon the thresholds scale proportionally:
        10/30 of the observed days for (a), one occurrence per 7 observed
        days for (b)/(c).
        """
        days_observed = self.config.n_days
        min_visit_days = max(1, round(days_observed * 10 / 30))
        min_weekly_events = max(1, days_observed // 7)

        by_user: dict[int, list[Trajectory]] = {}
        for trajectory in self.trajectories:
            by_user.setdefault(trajectory.user_id, []).append(trajectory)

        labels: dict[int, bool] = {}
        for user_id, trajs in by_user.items():
            visit_days = len({t.day for t in trajs})
            late_events = sum(1 for t in trajs if t.end_slot >= EVENING_SLOT)
            long_events = sum(
                1 for t in trajs if t.duration_slots > SIX_HOURS_SLOTS
            )
            labels[user_id] = visit_days >= min_visit_days and (
                late_events >= min_weekly_events
                or long_events >= min_weekly_events
            )
        return labels

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def ap_coverage(self) -> dict[int, int]:
        """Per AP, the number of trajectories passing through it."""
        coverage: dict[int, int] = {ap: 0 for ap in range(self.config.n_aps)}
        for trajectory in self.trajectories:
            for ap in trajectory.distinct_aps:
                coverage[ap] += 1
        return coverage

    def policy_for_fraction(self, non_sensitive_percent: float) -> Policy:
        """Build ``P_rho``: a sensitive-AP set hitting a target fraction.

        ``non_sensitive_percent`` is the paper's rho (e.g. 99 for P99 =
        99% non-sensitive trajectories).  APs are added greedily, least
        covered first, until the sensitive-trajectory fraction reaches
        ``1 - rho/100`` — mirroring the intuition that sensitive places
        (lounge, restroom) are the rarely-visited ones, while extreme
        policies like P1 must include popular APs.
        """
        if not 0.0 < non_sensitive_percent < 100.0:
            raise ValueError("non_sensitive_percent must lie in (0, 100)")
        target_sensitive = 1.0 - non_sensitive_percent / 100.0
        n = len(self.trajectories)
        incidence = {
            ap: set() for ap in range(self.config.n_aps)
        }  # ap -> trajectory indices
        for index, trajectory in enumerate(self.trajectories):
            for ap in trajectory.distinct_aps:
                incidence[ap].add(index)

        order = sorted(incidence, key=lambda ap: len(incidence[ap]))
        chosen: list[int] = []
        covered: set[int] = set()
        for ap in order:
            if len(covered) / n >= target_sensitive:
                break
            chosen.append(ap)
            covered |= incidence[ap]
        return SensitiveAPPolicy(
            chosen, name=f"P{non_sensitive_percent:g}"
        )

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def presence_events(self) -> list[tuple[int, int, int, int]]:
        """Distinct (user, day, ap, hour) presence events across the trace.

        One event = one user-day observed at an AP during an hour; the
        2-D histogram experiment (Fig 4/5) counts these events per
        (AP, hour) cell.  Aggregating across days (instead of the
        paper's single day) gives the laptop-scale synthetic trace the
        statistical mass of the original 585K-trajectory dataset; each
        event contributes to exactly one cell, so the bounded-model
        histogram sensitivity stays 2.
        """
        seen: set[tuple[int, int, int, int]] = set()
        for t in self.trajectories:
            for slot, ap in t.slots:
                seen.add((t.user_id, t.day, ap, slot // SLOTS_PER_HOUR))
        return sorted(seen)

    def two_d_histogram(self, day: int | None = None) -> np.ndarray:
        """Distinct users per (AP, hour) — the paper's 2-D TIPPERS query.

        Shape (n_aps, 24).  ``day=None`` selects the busiest day, per the
        paper's "a single day" setup.
        """
        if day is None:
            day_counts: dict[int, int] = {}
            for t in self.trajectories:
                day_counts[t.day] = day_counts.get(t.day, 0) + 1
            day = max(day_counts, key=day_counts.__getitem__)
        users_seen: dict[tuple[int, int], set[int]] = {}
        for t in self.trajectories:
            if t.day != day:
                continue
            for slot, ap in t.slots:
                hour = slot // SLOTS_PER_HOUR
                users_seen.setdefault((ap, hour), set()).add(t.user_id)
        hist = np.zeros((self.config.n_aps, 24), dtype=np.int64)
        for (ap, hour), users in users_seen.items():
            hist[ap, hour] = len(users)
        return hist


# ----------------------------------------------------------------------
# Columnar policy construction (no Trajectory objects)
# ----------------------------------------------------------------------


def _distinct_record_ap_pairs(db, n_aps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``(ap, record)`` pairs of an ``aps`` ragged column."""
    aps = db["aps"]
    flat = np.asarray(aps.flat, dtype=np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= n_aps):
        raise ValueError(f"AP values must lie in [0, {n_aps})")
    lengths = np.diff(np.asarray(aps.offsets, dtype=np.int64))
    rec = np.repeat(np.arange(len(lengths)), lengths)
    keys = np.unique(flat * len(db) + rec)
    return keys // len(db), keys % len(db)


def ap_coverage_columnar(db, n_aps: int) -> np.ndarray:
    """Per AP, the number of records passing through it (vectorized).

    The columnar twin of :meth:`TippersDataset.ap_coverage`: one
    ``np.unique`` over (ap, record) keys instead of a per-trajectory
    set walk.  ``result[ap] == coverage[ap]`` for every AP.
    """
    ap_of, _ = _distinct_record_ap_pairs(db, n_aps)
    return np.bincount(ap_of, minlength=n_aps)


def policy_for_fraction_columnar(
    db, non_sensitive_percent: float, n_aps: int
) -> Policy:
    """Build ``P_rho`` from columnar data — no ``Trajectory`` objects.

    Replays :meth:`TippersDataset.policy_for_fraction` exactly: the
    same least-covered-first AP order (stable sort, ties by AP index),
    the same greedy stop rule, hence the *same chosen AP set* — so the
    row and columnar experiment pipelines label every record
    identically (``tests/test_ngram.py`` pins the equality).
    """
    if not 0.0 < non_sensitive_percent < 100.0:
        raise ValueError("non_sensitive_percent must lie in (0, 100)")
    target_sensitive = 1.0 - non_sensitive_percent / 100.0
    n = len(db)
    ap_of, rec_of = _distinct_record_ap_pairs(db, n_aps)
    coverage = np.bincount(ap_of, minlength=n_aps)
    # Pairs are sorted by AP; slice out each AP's record list once.
    group_starts = np.searchsorted(ap_of, np.arange(n_aps + 1))
    order = np.argsort(coverage, kind="stable")
    covered = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    n_covered = 0
    for ap in order.tolist():
        if n_covered / n >= target_sensitive:
            break
        chosen.append(ap)
        members = rec_of[group_starts[ap] : group_starts[ap + 1]]
        # incremental: count only the records this AP newly covers, so
        # the greedy stays O(total distinct pairs), not O(aps * records)
        n_covered += int(np.count_nonzero(~covered[members]))
        covered[members] = True
    return SensitiveAPPolicy(
        chosen, name=f"P{non_sensitive_percent:g}"
    )


# ----------------------------------------------------------------------
# Columnar layout
# ----------------------------------------------------------------------


#: The column names of :func:`trajectory_columns`, in order.
TRAJECTORY_COLUMNS = (
    "user_id", "day", "start_slot", "end_slot", "duration_slots", "aps"
)


def trajectory_columns(trajectories: Sequence[Trajectory]) -> dict:
    """Struct-of-arrays layout for trajectory records.

    Scalar attributes become plain columns; the per-slot AP sequence
    becomes an ``aps`` ragged column (flat APs + offsets), which is the
    layout :func:`SensitiveAPPolicy` evaluates with one ``np.isin``.
    Slots must be contiguous (a :class:`Trajectory`'s contract; a
    ``ValueError`` otherwise), so ``start_slot`` and ``aps`` hold the
    whole record: :func:`trajectory_records` is the inverse.
    """
    from repro.data.columnar import RaggedColumn

    n = len(trajectories)
    lengths = np.fromiter(
        (t.duration_slots for t in trajectories), dtype=np.int64, count=n
    )
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    starts = np.fromiter((t.start_slot for t in trajectories), dtype=np.int64, count=n)
    total = int(offsets[-1])
    slots = np.fromiter(
        (slot for t in trajectories for slot, _ in t.slots), dtype=np.int64, count=total
    )
    if not np.array_equal(
        slots - np.repeat(starts - offsets[:-1], lengths), np.arange(total)
    ):
        raise ValueError("trajectory slots must be contiguous, counting up by one")
    flat = np.fromiter(
        (ap for t in trajectories for _, ap in t.slots), dtype=np.int64, count=total
    )
    return {
        "user_id": np.fromiter(
            (t.user_id for t in trajectories), dtype=np.int64, count=n
        ),
        "day": np.fromiter(
            (t.day for t in trajectories), dtype=np.int64, count=n
        ),
        "start_slot": starts,
        "end_slot": starts + lengths - 1,
        "duration_slots": lengths,
        "aps": RaggedColumn(flat=flat, offsets=offsets),
    }


def trajectory_records(db) -> Iterator[Trajectory]:
    """The :class:`Trajectory` rows of a :func:`trajectory_columns`
    table: each row's slots count up from ``start_slot``, one per AP of
    its ``aps`` segment."""
    columns = ("user_id", "day", "start_slot", "aps")
    for user_id, day, start, aps in zip(*(db[name].tolist() for name in columns)):
        slots = tuple(zip(range(start, start + len(aps)), aps))
        yield Trajectory(user_id=user_id, day=day, slots=slots)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _assign_ap_roles(config: TippersConfig) -> dict[str, tuple[int, ...]]:
    aps = list(range(config.n_aps))
    roles = {}
    cursor = 0
    for role, count in (
        ("common", config.n_common_aps),
        ("office", config.n_office_aps),
        ("meeting", config.n_meeting_aps),
        ("rare", config.n_rare_aps),
    ):
        roles[role] = tuple(aps[cursor : cursor + count])
        cursor += count
    return roles


class _ResidentProfile:
    """Behavioral parameters for one resident."""

    def __init__(self, config: TippersConfig, roles: dict, rng: np.random.Generator):
        self.office_ap = int(rng.choice(roles["office"]))
        self.attend_prob = float(rng.uniform(0.65, 0.95))
        self.late_worker = bool(rng.random() < 0.45)
        self.arrival_mean = float(rng.uniform(8.5, 10.5)) * SLOTS_PER_HOUR
        self.stay_mean = float(rng.uniform(7.0, 9.5)) * SLOTS_PER_HOUR
        n_rare = int(rng.integers(0, 3))
        self.rare_aps = tuple(
            int(a) for a in rng.choice(roles["rare"], size=n_rare, replace=False)
        )
        self.rare_visit_prob = float(rng.uniform(0.05, 0.35)) if n_rare else 0.0
        self.meeting_ap = int(rng.choice(roles["meeting"]))
        self.entry_ap = int(rng.choice(roles["common"]))

    def day_segments(
        self, day: int, rng: np.random.Generator
    ) -> tuple[int, list[tuple[int, int]]] | None:
        """``(arrival_slot, [(ap, n_slots), ...])`` for one day, or None.

        The rng consumption order is the generator's contract: the same
        seed gives the same trace.
        """
        weekend = day % 7 >= 5
        attend = self.attend_prob * (0.12 if weekend else 1.0)
        if rng.random() > attend:
            return None
        arrival = int(
            np.clip(rng.normal(self.arrival_mean, 4.0), 6 * SLOTS_PER_HOUR, 13 * SLOTS_PER_HOUR)
        )
        if rng.random() < 0.12:
            # Short days (meetings elsewhere, sick leave) overlap the
            # visitor stay distribution and keep the classes separable
            # but not trivially so.
            stay = int(rng.integers(4, 20))
        else:
            stay = int(np.clip(rng.normal(self.stay_mean, 8.0), 24, 90))
        if self.late_worker and rng.random() < 0.35:
            # Extend so that the trajectory runs past 7 pm.
            stay = max(stay, EVENING_SLOT - arrival + int(rng.integers(1, 12)))
        stay = min(stay, SLOTS_PER_DAY - arrival - 1)
        if stay < 3:
            return None

        segments: list[tuple[int, int]] = [(self.entry_ap, 1)]
        remaining = stay - 1
        while remaining > 0:
            r = rng.random()
            if r < 0.62:
                ap, length = self.office_ap, int(rng.integers(6, 24))
            elif r < 0.80:
                ap, length = self.meeting_ap, int(rng.integers(3, 10))
            elif r < 0.92:
                ap, length = self.entry_ap, int(rng.integers(1, 3))
            elif self.rare_aps and rng.random() < self.rare_visit_prob:
                ap = int(rng.choice(np.asarray(self.rare_aps)))
                length = int(rng.integers(1, 3))
            else:
                ap, length = self.office_ap, int(rng.integers(6, 18))
            length = min(length, remaining)
            segments.append((ap, length))
            remaining -= length
        return arrival, segments


class _VisitorProfile:
    """Behavioral parameters for one visitor."""

    def __init__(self, config: TippersConfig, roles: dict, rng: np.random.Generator):
        self.attend_prob = float(rng.uniform(0.03, 0.25))
        candidates = roles["common"] + roles["meeting"] + roles["office"]
        n_fav = int(rng.integers(1, 4))
        self.favorite_aps = tuple(
            int(a) for a in rng.choice(candidates, size=n_fav, replace=False)
        )
        self.rare_ap = int(rng.choice(roles["rare"]))
        self.rare_visit_prob = float(rng.uniform(0.0, 0.12))
        self.entry_ap = int(rng.choice(roles["common"]))

    def day_segments(
        self, day: int, rng: np.random.Generator
    ) -> tuple[int, list[tuple[int, int]]] | None:
        """``(arrival_slot, [(ap, n_slots), ...])`` for one day, or None."""
        weekend = day % 7 >= 5
        attend = self.attend_prob * (0.3 if weekend else 1.0)
        if rng.random() > attend:
            return None
        arrival = int(rng.integers(8 * SLOTS_PER_HOUR, 18 * SLOTS_PER_HOUR))
        if rng.random() < 0.10:
            # Occasional long visits (seminars, collaborators) overlap
            # the resident stay distribution.
            stay = int(rng.integers(20, 50))
        else:
            stay = int(np.clip(rng.normal(9.0, 5.0), 2, 20))  # 20-200 minutes
        stay = min(stay, SLOTS_PER_DAY - arrival - 1)
        if stay < 2:
            return None
        segments: list[tuple[int, int]] = [(self.entry_ap, 1)]
        remaining = stay - 1
        while remaining > 0:
            if rng.random() < self.rare_visit_prob:
                ap, length = self.rare_ap, 1
            else:
                ap = int(rng.choice(np.asarray(self.favorite_aps)))
                length = int(rng.integers(2, 8))
            length = min(length, remaining)
            segments.append((ap, length))
            remaining -= length
        return arrival, segments


def _resident_ids(config: TippersConfig) -> frozenset[int]:
    return frozenset(
        range(max(1, round(config.n_users * config.resident_fraction)))
    )


def generate_tippers(config: TippersConfig | None = None) -> TippersDataset:
    """Generate a synthetic TIPPERS-like trace (deterministic in the seed).

    The trace is :func:`generate_tippers_columnar`'s table;
    ``trajectories`` are its rows, rebuilt on first use.
    """
    config = config or TippersConfig()
    return TippersDataset(
        config=config,
        table=generate_tippers_columnar(config),
        resident_user_ids=_resident_ids(config),
        ap_roles=_assign_ap_roles(config),
    )


def generate_tippers_columnar(config: TippersConfig | None = None):
    """Generate the trace straight into columnar arrays: the generator.

    Per user, a resident or visitor profile draws each day's
    ``(ap, n_slots)`` segments (or no visit); a visit's segments expand
    into the flat AP array of the ``aps`` ragged column (a profile caps
    the stay before the end of the day).  ``start_slot`` is the arrival
    and ``end_slot`` is ``arrival + duration - 1`` by slot contiguity.

    Returns a :class:`repro.data.columnar.ColumnarDatabase` with the
    :func:`trajectory_columns` schema.
    """
    from repro.data.columnar import ColumnarDatabase, RaggedColumn

    config = config or TippersConfig()
    rng = np.random.default_rng(config.seed)
    roles = _assign_ap_roles(config)
    resident_ids = _resident_ids(config)

    user_ids: list[int] = []
    days: list[int] = []
    starts: list[int] = []
    lengths: list[int] = []
    flat_aps: list[np.ndarray] = []
    for user_id in range(config.n_users):
        profile = (
            _ResidentProfile if user_id in resident_ids else _VisitorProfile
        )(config, roles, rng)
        for day in range(config.n_days):
            plan = profile.day_segments(day, rng)
            if plan is None:
                continue
            arrival, segments = plan
            seg_aps, seg_lens = np.asarray(segments, dtype=np.int64).T
            aps = np.repeat(seg_aps, seg_lens)
            user_ids.append(user_id)
            days.append(day)
            starts.append(arrival)
            lengths.append(len(aps))
            flat_aps.append(aps)

    length_arr = np.asarray(lengths, dtype=np.int64)
    start_arr = np.asarray(starts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(length_arr)]).astype(np.int64)
    flat = (
        np.concatenate(flat_aps)
        if flat_aps
        else np.empty(0, dtype=np.int64)
    )
    return ColumnarDatabase(
        {
            "user_id": np.asarray(user_ids, dtype=np.int64),
            "day": np.asarray(days, dtype=np.int64),
            "start_slot": start_arr,
            "end_slot": start_arr + length_arr - 1,
            "duration_slots": length_arr,
            "aps": RaggedColumn(flat=flat, offsets=offsets),
        }
    )
