"""Core one-sided differential privacy framework.

This subpackage implements the paper's formal machinery (Sections 2, 3
and the appendix):

* :mod:`repro.core.policy` — policy functions (Definition 3.1) and the
  relaxation partial order / minimum relaxation (Definitions 3.5, 3.6);
* :mod:`repro.core.policy_language` — the declarative policy spec
  language (§7) and the serializable wire format
  (``policy_to_spec``/``policy_from_spec``) the shard-worker runtime
  ships policies across process boundaries with;
* :mod:`repro.core.neighbors` — bounded-DP, one-sided and extended
  one-sided neighbor relations (Definitions 2.1, 3.2, 10.1);
* :mod:`repro.core.guarantees` — privacy guarantee objects and the
  conversion lemmas (Lemmas 3.1/3.2, Theorems 3.2, 10.1);
* :mod:`repro.core.accountant` — budget accounting with sequential
  composition over minimum relaxations (Theorem 3.3) and parallel
  composition for extended OSDP (Theorem 10.2);
* :mod:`repro.core.verifier` — exact OSDP/DP verification for finite
  mechanisms, used throughout the tests to validate Theorems 4.1/5.2;
* :mod:`repro.core.exclusion` — the exclusion-attack formalism
  (Definition 3.4) with product priors and posterior odds ratios
  (Theorems 3.1, 3.4).
"""

from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.core.exclusion import (
    ExclusionAttackResult,
    ProductPrior,
    posterior_odds_ratio,
    worst_case_odds_inflation,
)
from repro.core.guarantees import (
    DPGuarantee,
    EOSDPGuarantee,
    OSDPGuarantee,
    PDPGuarantee,
    dp_to_osdp,
    eosdp_to_osdp,
    osdp_all_sensitive_to_dp,
    relax_guarantee,
    sequential_composition,
)
from repro.core.neighbors import (
    dp_neighbors,
    extended_one_sided_neighbors,
    is_dp_neighbor,
    is_extended_one_sided_neighbor,
    is_one_sided_neighbor,
    one_sided_neighbors,
)
from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    AttributePolicy,
    LambdaPolicy,
    OptInPolicy,
    Policy,
    SpecUnsupported,
    is_relaxation_of,
    minimum_relaxation,
)
from repro.core.policy_language import (
    PolicySpecError,
    compile_policy,
    policy_from_spec,
    policy_spec_fingerprint,
    policy_to_spec,
)
from repro.core.verifier import (
    max_likelihood_ratio,
    verify_dp,
    verify_osdp,
)

__all__ = [
    "AllNonSensitivePolicy",
    "AllSensitivePolicy",
    "AttributePolicy",
    "BudgetExceededError",
    "DPGuarantee",
    "EOSDPGuarantee",
    "ExclusionAttackResult",
    "LambdaPolicy",
    "OSDPGuarantee",
    "OptInPolicy",
    "PDPGuarantee",
    "Policy",
    "PolicySpecError",
    "PrivacyAccountant",
    "ProductPrior",
    "SpecUnsupported",
    "compile_policy",
    "dp_neighbors",
    "dp_to_osdp",
    "eosdp_to_osdp",
    "extended_one_sided_neighbors",
    "is_dp_neighbor",
    "is_extended_one_sided_neighbor",
    "is_one_sided_neighbor",
    "is_relaxation_of",
    "max_likelihood_ratio",
    "minimum_relaxation",
    "one_sided_neighbors",
    "osdp_all_sensitive_to_dp",
    "policy_from_spec",
    "policy_spec_fingerprint",
    "policy_to_spec",
    "posterior_odds_ratio",
    "relax_guarantee",
    "sequential_composition",
    "verify_dp",
    "verify_osdp",
    "worst_case_odds_inflation",
]
