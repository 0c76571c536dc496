"""Relaxation hierarchies for (promise) constraint satisfaction.

A library implementing local consistency, the marginal LP and
integer-programming hierarchies, their combination, the basic vector (SDP)
relaxation and its squared (sum-of-squares) hierarchy, on a common core of
relational structures, tensor powers and linear minions, with exact
certificates wherever the underlying solver is exact.
"""

from .budgets import Budget, DEFAULT_BUDGET
from .errors import MinionLabError
from .free_structures import (
    HornFreeStructure,
    canonical_embedding,
    check_vanishing,
    horn_free_structure,
    minion_test_horn,
    minion_test_horn_level,
)
from .hierarchies import (
    BWFamily,
    CombinedWitness,
    MarginalWitness,
    RejectionEvidence,
    aip,
    ba,
    bw,
    is_valid_bw_family,
    oracle,
    sa,
    sdp,
    sos,
    support_family,
)
from .minions import (
    MinionElement,
    MinionTag,
    MinorMap,
    check_membership,
    combined,
    enumerate_horn,
    is_conic_matrix,
    minor,
    semidirect,
)
from .psd import (
    FactReport,
    GramProblem,
    PSDConfig,
    SoSWitness,
    affine_reduce,
    check_sdp_facts,
    gram_to_vectors,
    psd_feasibility,
)
from .exact_solvers import (
    Certificate,
    CertificateKind,
    DomainTag,
    LinearSystem,
    diophantine_solve,
    hnf,
    lp_feasible,
    verify_farkas,
    verify_parity_certificate,
)
from .structures import (
    Assignment,
    Signature,
    Structure,
    enumerate_homomorphisms,
    enumerate_partial_homomorphisms,
    find_homomorphism,
    induced_substructure,
    is_homomorphism,
    k_enhance,
    parse_structure,
    polymorphisms,
    power,
    structure_to_json,
    tensor_power,
)
from .tensors import (
    SemiringTag,
    Tensor,
    contract,
    power_projection_tensor,
    precedes,
    project,
    relation_projection_tensor,
    unit_tensor,
)
from .verdicts import Status, Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
