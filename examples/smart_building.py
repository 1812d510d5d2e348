"""Smart-building analytics under OSDP (the paper's Example 3 / §6).

A synthetic TIPPERS-style Wi-Fi trace is generated; lounge/restroom
access points are sensitive, so every daily trajectory through them is
sensitive.  The example then runs the paper's two mobility analyses:

1. resident-vs-visitor classification on OsdpRR-released trajectories
   (Fig 1's setup), and
2. a 4-gram mobility histogram, comparing OsdpRR against the truncated
   Laplace mechanism (Fig 2's setup).

Run:  python examples/smart_building.py
"""

import numpy as np

from repro.classification.features import TrajectoryFeaturizer, resident_labels
from repro.classification.logistic import LogisticRegression
from repro.classification.metrics import roc_auc
from repro.data.tippers import TippersConfig, generate_tippers
from repro.mechanisms.osdp_rr import OsdpRR
from repro.queries.ngram import NGramCounter, sparse_mre


def classification_demo(dataset, policy, rng) -> None:
    trajectories = dataset.trajectories
    labels = dataset.heuristic_resident_labels()
    y = resident_labels(trajectories, labels)

    featurizer = TrajectoryFeaturizer(min_support=20)
    X = featurizer.fit_transform(trajectories)

    # Train/test split at the user level to avoid leakage.
    users = sorted({t.user_id for t in trajectories})
    test_users = set(users[:: 5])
    is_test = np.array([t.user_id in test_users for t in trajectories])

    # OSDP strategy: train only on the OsdpRR release of the train fold.
    mech = OsdpRR(policy, epsilon=1.0)
    train_trajs = [t for t, test in zip(trajectories, is_test) if not test]
    released = set(id(t) for t in mech.sample(train_trajs, rng))
    train_mask = np.array(
        [not test and id(t) in released for t, test in zip(trajectories, is_test)]
    )
    model = LogisticRegression(lam=1e-3).fit(X[train_mask], y[train_mask])
    auc = roc_auc(y[is_test], model.decision_function(X[is_test]))
    print(f"  trained on {int(train_mask.sum())} truthfully released trajectories")
    print(f"  resident classification: 1 - AUC = {1 - auc:.3f}")


def ngram_demo(dataset, policy, rng) -> None:
    counter = NGramCounter(n=4, n_aps=dataset.config.n_aps)
    truth = counter.count(dataset.trajectories)
    print(f"  4-gram support: {len(truth)} of {counter.domain_size:.2e} cells")

    # OsdpRR release: count over a truthful sample of non-sensitive data.
    mech = OsdpRR(policy, epsilon=1.0)
    sample = mech.sample(dataset.trajectories, rng)
    osdp_estimate = counter.count(sample)
    osdp_error = sparse_mre(truth, osdp_estimate.counts)

    # DP baseline: truncation k = 1 + Laplace noise on the support.
    truncated = NGramCounter(
        n=4, n_aps=dataset.config.n_aps, truncation=1
    ).count(dataset.trajectories)
    scale = 2.0 / 1.0  # sensitivity 2k / epsilon
    lap_estimate = {
        gram: truncated[gram] + rng.laplace(scale=scale)
        for gram in truth.support()
    }
    lap_error = sparse_mre(truth, lap_estimate)

    print(f"  MRE: OsdpRR {osdp_error:.3f} vs Laplace(T1) {lap_error:.3f}")


def main() -> None:
    rng = np.random.default_rng(21)
    dataset = generate_tippers(TippersConfig(n_users=400, n_days=40, seed=5))
    print(f"generated {len(dataset)} daily trajectories "
          f"({len(dataset.resident_user_ids)} residents of "
          f"{dataset.config.n_users} users)")

    policy = dataset.policy_for_fraction(90)
    frac = policy.sensitive_fraction(dataset.trajectories)
    aps = sorted(policy.to_spec()["aps"])
    print(f"policy {policy.name}: sensitive APs {aps} "
          f"-> {frac:.1%} of trajectories sensitive\n")

    print("[1] classification on truthfully released trajectories")
    classification_demo(dataset, policy, rng)

    print("\n[2] high-dimensional 4-gram mobility histogram")
    ngram_demo(dataset, policy, rng)


if __name__ == "__main__":
    main()
