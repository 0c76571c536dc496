"""Relaxation hierarchies for (promise) constraint satisfaction.

A library implementing local consistency, the marginal LP and
integer-programming hierarchies, their combination, the basic vector (SDP)
relaxation and its squared (sum-of-squares) hierarchy, on a common core of
relational structures and tensor powers.  Level k of each hierarchy is a
minion test, and each minion is realised as its driver's system: a linear
program, an integer system, a Gram problem or arc consistency.  Verdicts
carry exact certificates wherever the underlying solver is exact.
"""

from .budgets import Budget, DEFAULT_BUDGET
from .errors import MinionLabError
from .free_structures import (
    HornFreeStructure,
    check_vanishing,
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
)
from .psd import (
    GramProblem,
    SoSWitness,
    affine_reduce,
    psd_feasibility,
)
from .exact_solvers import (
    Certificate,
    CertificateKind,
    DomainTag,
    LinearSystem,
    diophantine_solve,
    lp_feasible,
    verify_farkas,
    verify_parity_certificate,
)
from .structures import (
    Assignment,
    Signature,
    Structure,
    enumerate_partial_homomorphisms,
    find_homomorphism,
    is_homomorphism,
    k_enhance,
    parse_structure,
    precedes,
    project,
    structure_to_json,
    tensor_power,
)
from .verdicts import Status, Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
