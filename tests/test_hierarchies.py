"""The relaxation drivers: pinned facts, completeness, containments, evidence."""

import hashlib
import itertools
import json
import random
import re

import pytest

from minionlab import (
    Assignment,
    CertificateKind,
    DomainTag,
    Signature,
    Status,
    Structure,
    aip,
    ba,
    bw,
    check_vanishing,
    is_valid_bw_family,
    lp_feasible,
    minion_test_horn_level,
    oracle,
    sa,
    sdp,
    sos,
    verify_farkas,
    verify_parity_certificate,
)
from minionlab import exact_solvers, hierarchies
from minionlab.budgets import DEFAULT_BUDGET, Budget
from minionlab.errors import BudgetExceeded, InvalidWitness, LengthMismatch
from minionlab.exact_solvers import ExactSimplex
from minionlab.hierarchies import (
    RejectionEvidence,
    _linear_system,
    _marginal_rows,
    validate_marginal_witness,
)
from minionlab.psd import Inconsistent
from minionlab.rationals import rat
from minionlab.structures import enumerate_partial_homomorphisms, k_enhance, precedes
from minionlab.system_builders import EqualitySystemBuilder
from minionlab.verdicts import Verdict

from conftest import (
    LP_COLOURING_PAIRS,
    clique,
    cycle,
    digraphs_up_to_renaming,
    directed_triangle,
    graphs_up_to_isomorphism,
    mycielski,
    named,
    not_all_equal,
    one_in_three,
    wheel,
)
from references import (
    ReferenceSimplex,
    ReferenceSystemBuilder,
    check_sdp_facts,
    dict_row_linear_system,
    dict_row_marginal_rows,
    hnf_outputs,
    identity_row,
    integer_outputs,
    reference_diophantine_solve,
    reference_hnf_outputs,
    reference_is_valid_bw_family,
    reference_marginal_rows,
    reference_repeated_scopes,
    reference_validate_marginal_witness,
    simplex_outputs,
    support_family,
)

LEVELS = (1, 2)


# -- the subset formulation of the marginal LP, kept as a reference ------------------


def _functions(atoms: tuple, targets: tuple) -> list[dict]:
    out = []
    for image in itertools.product(targets, repeat=len(atoms)):
        out.append(dict(zip(atoms, image)))
    return out


def sa_reference(X: Structure, A: Structure, k: int) -> bool:
    """Feasibility of the level-k marginal LP in its subset formulation.

    Distributions live on assignments of at-most-k-element variable subsets
    and on assignments of constraint scopes; marginalisation ties them
    together.  The structures are used as given (no enhancement here; the
    subsets quantify over the domain directly).
    """
    X.require_same_signature(A)

    def fn_key(f: dict) -> tuple:
        return tuple(sorted(f.items(), key=lambda ab: X.atom_id(ab[0])))

    subsets: list[tuple] = []
    for j in range(1, min(k, len(X.domain)) + 1):
        subsets.extend(itertools.combinations(X.domain, j))
    keys = [("mu", V, fn_key(f)) for V in subsets for f in _functions(V, A.domain)]
    scope_fns: dict = {}
    for sym in X.signature.names():
        for xt in X.tuples(sym):
            atoms = tuple(dict.fromkeys(xt))  # scope set in first-occurrence order
            fns = [
                f
                for f in _functions(atoms, A.domain)
                if A.has_tuple(sym, tuple(f[x] for x in xt))
            ]
            scope_fns[(sym, xt)] = (atoms, fns)
            keys += [("muR", sym, xt, fn_key(f)) for f in fns]
    index = {key: i for i, key in enumerate(keys)}
    builder = EqualitySystemBuilder(DomainTag.NONNEG_RAT, tuple(keys))

    def add(row: dict, rhs) -> None:
        builder.rows.append(({index[key]: c for key, c in row.items()}, rhs))

    # unit mass on every subset distribution
    for V in subsets:
        add({("mu", V, fn_key(f)): 1 for f in _functions(V, A.domain)}, 1)
    # marginalisation between nested subsets
    for V in subsets:
        fsV = _functions(V, A.domain)
        for U in subsets:
            if set(U) < set(V):
                for fU in _functions(U, A.domain):
                    row = {("mu", V, fn_key(g)): 1
                           for g in fsV
                           if all(g[u] == fU[u] for u in U)}
                    row[("mu", U, fn_key(fU))] = -1
                    add(row, 0)
    # unit mass and marginalisation for the scope distributions
    for (sym, xt), (atoms, fns) in scope_fns.items():
        add({("muR", sym, xt, fn_key(f)): 1 for f in fns}, 1)
        for U in subsets:
            if set(U) <= set(atoms):
                for fU in _functions(U, A.domain):
                    row = {("muR", sym, xt, fn_key(g)): 1
                           for g in fns
                           if all(g[u] == fU[u] for u in U)}
                    row[("mu", U, fn_key(fU))] = -1
                    add(row, 0)
    return lp_feasible(builder.build().system).feasible


# -- pinned facts -------------------------------------------------------------------


def test_pinned_facts(k3, k2):
    assert aip(k3, k2, 1).status is Status.REJECT
    assert sdp(k3, k2).status is Status.REJECT
    assert sos(k3, k2, 1).status is Status.REJECT
    assert bw(k3, k2, 3).status is Status.REJECT
    assert ba(one_in_three(), not_all_equal(), 1).status is Status.ACCEPT


# (driver, k, X, A) -> status, pivots, lp_support, the length and nonzero
# multipliers of y, and the SHA-256 of the witness document.  Every pivot,
# point and certificate of the exact solvers is pinned, so a change to their
# arithmetic must reproduce all of them.
PINNED_OUTPUTS = [
    (sa, 2, cycle(5), clique(3), Status.ACCEPT, 65, None, None,
     "2286bc384fbc23c22c4fc2ec72bd69f10a49e769d1f2e9b33711210352a3468d"),
    (aip, 2, cycle(5), clique(2), Status.REJECT, None, None, (26, {0: rat(1, 2)}), None),
    (ba, 2, cycle(5), clique(2), Status.REJECT, 23, 90, (26, {0: rat(1, 2)}), None),
    (aip, 1, cycle(7), clique(4), Status.ACCEPT, None, None, None,
     "044d1a3621c51c2f743212c65d6fd72d03a4c9bf452421699690aa85078832dc"),
]


@pytest.mark.parametrize("driver, k, X, A, status, pivots, lp_support, y, digest",
                         PINNED_OUTPUTS, ids=["sa2-C5-K3", "aip2-C5-K2", "ba2-C5-K2", "aip1-C7-K4"])
def test_exact_outputs_are_pinned(driver, k, X, A, status, pivots, lp_support, y, digest):
    verdict = driver(X, A, k)
    assert verdict.status is status
    assert verdict.stats.get("pivots") == pivots
    assert verdict.stats.get("lp_support") == lp_support
    if y is not None:
        farkas = verdict.certificate.certificate.farkas
        assert (len(farkas), {i: v for i, v in enumerate(farkas) if v != 0}) == y
    if digest is not None:
        doc = json.dumps(verdict.to_doc()["witness"], sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


def verdict_digest(verdicts) -> str:
    """SHA-256 over the verdict documents, one JSON line each, ``stats.millis`` left out."""
    digest = hashlib.sha256()
    for verdict in verdicts:
        doc = verdict.to_doc()
        del doc["stats"]["millis"]
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


# whole verdict documents, witnesses and certificates included, of each driver
# and level on C5, W5, C7 and K4 into K2, K3 and K4, and of sa^3 K3 -> K2; a
# change meant to leave every verdict as it is must reproduce them byte for byte
PINNED_DOCUMENTS = [
    (sa, 1, "273b7109ca5de9b67ea56b0553f0548aa487b13acd654ab6485dfc214f2544f8"),
    (sa, 2, "0ce5be7c18e14ffac7b2c2fb83f3865a802c20eb4e1a22094dacaf0cff695caf"),
    (aip, 1, "2d8ce1031c3701c40973963a284c9e60bf94a7be5baedf8753f559aae7907056"),
    (aip, 2, "c3bbe6a21e713e549de8bf79c4911369ed456ee4774ecf74288c52800a763019"),
    (ba, 1, "61695becdd1ed44e0febeb77f5b4c7c44333b3bfe3ff55727f3f695b39a43788"),
    (ba, 2, "c79e9144f5bd77a180c4d2698527422751e2de697c8e00c26ed5ba9549d0f14e"),
]


@pytest.mark.slow
@pytest.mark.parametrize("driver, k, digest", PINNED_DOCUMENTS,
                         ids=["sa1", "sa2", "aip1", "aip2", "ba1", "ba2"])
def test_verdict_documents_are_pinned(driver, k, digest):
    verdicts = [driver(X, A, k) for X in (cycle(5), wheel(5), cycle(7), clique(4))
                for A in (clique(2), clique(3), clique(4))]
    assert verdict_digest(verdicts) == digest


def test_the_sa3_anchor_document_is_pinned():
    assert verdict_digest([sa(clique(3), clique(2), 3)]) == \
        "270235c90f82f4fbfe6cfdebec4dcfd20ed0ec0899c6319de8d6a12bd81549b2"


def test_sa_and_ba_accept_w5_into_k3_which_has_no_homomorphism():
    # the wheel W5 is not 3-colourable, yet level 1 of sa and ba accepts it
    X, A = wheel(5), clique(3)
    assert oracle(X, A).status is Status.REJECT
    Xk, Ak = k_enhance(X, 1), k_enhance(A, 1)
    verdict = sa(X, A, 1)
    assert verdict.accepted and verdict.stats["pivots"] == 207
    validate_marginal_witness(verdict.witness.values, Xk, Ak, 1)
    verdict = ba(X, A, 1)
    assert verdict.accepted and verdict.stats["pivots"] == 273
    validate_marginal_witness(verdict.witness.lp.values, Xk, Ak, 1)
    validate_marginal_witness(verdict.witness.ip.values, Xk, Ak, 1, integral=True)


@pytest.mark.slow
def test_the_relaxations_accept_groetzsch_into_k3_which_has_no_homomorphism():
    # the Grötzsch graph has no triangle and is not 3-colourable, yet the
    # vector relaxations, sa^1, sa^2, aip^1, ba^1 and bw^2 accept it; so does a
    # graph that maps onto it, Grötzsch with a twin of vertex 0
    G, K3 = mycielski(cycle(5)), clique(3)
    assert oracle(G, K3).status is Status.REJECT
    verdicts = {("sdp", None): sdp(G, K3), ("sos", 1): sos(G, K3, 1), ("sos", 2): sos(G, K3, 2),
                ("sa", 1): sa(G, K3, 1), ("sa", 2): sa(G, K3, 2), ("aip", 1): aip(G, K3, 1),
                ("ba", 1): ba(G, K3, 1), ("bw", 2): bw(G, K3, 2)}
    assert all(verdict.accepted for verdict in verdicts.values())
    assert verdicts[("sdp", None)].stats["iterations"] == 110
    assert verdicts[("sos", 1)].stats["iterations"] == 210
    assert verdicts[("sos", 2)].stats["iterations"] == 291
    assert verdicts[("sos", 2)].stats["reduced_dim"] == 183
    assert verdicts[("sa", 1)].stats["pivots"] == 458
    assert verdicts[("ba", 1)].stats["lp_support"] == 273
    # here sos^k => sa^k and ba^1 => sa^1 and aip^1 are not already implied by completeness
    assert_contained(G, K3, verdicts, [(("sos", 1), ("sa", 1)), (("sos", 2), ("sa", 2)),
                                       (("ba", 1), ("sa", 1)), (("ba", 1), ("aip", 1))])
    validate_marginal_witness(verdicts[("sa", 1)].witness.values,
                              k_enhance(G, 1), k_enhance(K3, 1), 1)
    assert is_valid_bw_family(verdicts[("bw", 2)].witness.maps, G, K3, 2)
    assert check_sdp_facts(verdicts[("sdp", None)].witness.vectors, G, K3).ok
    twin = Structure(G.signature, G.domain + ("0+",),
                     {"R": G.tuples("R") + tuple(e for a, b in G.tuples("R") if a == "0"
                                                 for e in (("0+", b), (b, "0+")))})
    assert oracle(twin, G).accepted and oracle(twin, K3).status is Status.REJECT
    assert sdp(twin, K3).accepted


# (driver, level) -> how many of the 201 graphs on 4-6 vertices it accepts, per target
GRAPH_NET_ACCEPTS = {
    "K2": {("oracle", None): 55, ("aip", 1): 55, ("bw", 3): 55, ("sa", 1): 201, ("sa", 2): 201,
           ("bw", 2): 201, ("minion-h", 2): 201},
    "K3": {("oracle", None): 158, ("sa", 1): 201, ("aip", 1): 201, ("bw", 2): 201,
           ("minion-h", 2): 201},
}
GRAPH_NET_DRIVERS = {"oracle": lambda X, A, k: oracle(X, A), "sa": sa, "aip": aip, "bw": bw,
                     "minion-h": minion_test_horn_level}


@pytest.mark.slow
def test_level_four_decides_k4_into_k3_except_for_the_affine_ip():
    # level |X| of sa, bw and sos, and level |X| - 1 of ba, reject K4 -> K3,
    # which has no homomorphism; level 3 of sa and bw still accepts.  The
    # integer weights of aip can cancel, so aip^4 accepts, with a witness
    # that meets the marginal equations exactly
    K4, K3 = clique(4), clique(3)
    assert oracle(K4, K3).status is Status.REJECT
    rejects = [sa(K4, K3, 4), bw(K4, K3, 4), ba(K4, K3, 3), sos(K4, K3, 3)]
    for verdict in rejects:
        assert verdict.status is Status.REJECT, (verdict.algorithm, verdict.level)
    # the Gram problem on the presolved columns contradicts exactly
    assert isinstance(rejects[-1].certificate, Inconsistent)
    assert sa(K4, K3, 3).accepted and bw(K4, K3, 3).accepted
    verdict = aip(K4, K3, 4)
    assert verdict.accepted
    validate_marginal_witness(verdict.witness.values, k_enhance(K4, 4), k_enhance(K3, 4), 4,
                              integral=True)


@pytest.mark.slow
def test_the_graphs_on_four_to_six_vertices_into_k2_and_k3():
    # every simple graph on 4-6 vertices up to isomorphism: complete, sa^k => bw^k
    # and bw^3 => bw^2, each bw family and Horn witness rechecked, counts pinned
    graphs = [G for n in (4, 5, 6) for G in graphs_up_to_isomorphism(n)]
    assert [len(G.domain) for G in graphs] == [4] * 11 + [5] * 34 + [6] * 156
    for A in (clique(2), clique(3)):
        runs = GRAPH_NET_ACCEPTS[A.name]
        implied = [(("sa", k), ("bw", k)) for k in (1, 2, 3)
                   if ("sa", k) in runs and ("bw", k) in runs]
        implied += [(("bw", 3), ("bw", 2))] if ("bw", 3) in runs else []
        accepts = dict.fromkeys(runs, 0)
        for X in graphs:
            verdicts = {(name, k): GRAPH_NET_DRIVERS[name](X, A, k) for name, k in runs}
            assert_complete(X, A, verdicts)
            assert_contained(X, A, verdicts, implied)
            for (name, k), verdict in verdicts.items():
                if not verdict.accepted:
                    continue
                accepts[(name, k)] += 1
                if name == "bw":
                    assert is_valid_bw_family(verdict.witness.maps, X, A, k)
                elif name == "minion-h":
                    assert check_vanishing(verdict.witness, X, A, k)
        assert accepts == runs, A.name


def test_ba_is_stronger_than_sa_and_aip_together():
    # the target is K2 on {0, 1} plus a sink 2: no LP solution puts mass on
    # the sink, so inside the LP support only the odd cycle into K2 is left,
    # while the integers alone can use the sink with negative weights
    A = Structure(Signature.of({"R": 2}), ["0", "1", "2"],
                  {"R": [("0", "1"), ("1", "0"), ("0", "2"), ("1", "2")]})
    for k in LEVELS:
        X = directed_triangle()
        assert sa(X, A, k).accepted and aip(X, A, k).accepted
        verdict = ba(X, A, k)
        assert verdict.status is Status.REJECT and verdict.certificate.note == "ip-phase"
        assert verify_parity_certificate(verdict.certificate.certificate,
                                         verdict.certificate.system)


def test_ba_runs_its_integer_phase_inside_the_lp_support():
    # the integers alone reach a solution with weight outside the LP's
    # maximal support; only the restriction to the support keeps it out
    X = Structure(Signature.of({"R": 3}), ["0", "1", "2", "3"],
                  {"R": [("0", "1", "2"), ("2", "3", "0")]})
    A = Structure(Signature.of({"R": 3}), ["0", "1"],
                  {"R": [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1")]})
    verdict = ba(X, A, 1)
    assert verdict.accepted
    assert verdict.stats["vars"] < sa(X, A, 1).stats["vars"]  # the support is a strict subset
    witness = verdict.witness
    assert all(v == 0 or key in witness.maximal_support for key, v in witness.ip.values.items())


def test_sdp_keeps_its_budget(k3, k2):
    with pytest.raises(BudgetExceeded):
        sdp(k3, k2, Budget(max_tuples=5))


def test_rejection_evidence_composes_its_two_documents(k3, k2):
    evidence = aip(k3, k2, 1).certificate
    doc = evidence.to_doc()
    assert doc == {"certificate": evidence.certificate.to_doc(),
                   "system": evidence.system.to_doc()}
    assert len(doc["certificate"]["y"]) == len(doc["system"]["rows"]) == evidence.system.num_rows


# -- the accept-side validators refuse what is not a witness -----------------------------


def family(*maps: dict) -> list[Assignment]:
    return [Assignment.of(m) for m in maps]


# every partial homomorphism K2 -> K2 on at most two atoms
K2_FAMILY = ({}, {"0": "0"}, {"0": "1"}, {"1": "0"}, {"1": "1"},
             {"0": "0", "1": "1"}, {"0": "1", "1": "0"})


def test_the_full_bw_family_is_valid(k2):
    assert is_valid_bw_family(family(*K2_FAMILY), k2, k2, 2)


@pytest.mark.parametrize("maps, k", [
    ((), 2),
    # a total map in a level-1 family
    (K2_FAMILY[:5] + ({"0": "0", "1": "1"},), 1),
    # the edge 0 -> 1 is sent to the non-edge 0 -> 0
    (K2_FAMILY + ({"0": "0", "1": "0"},), 2),
    # the restriction {0: 0} of {0: 0, 1: 1} is missing
    (K2_FAMILY[:1] + K2_FAMILY[2:], 2),
    # {0: 1} has no extension to both atoms
    (K2_FAMILY[:-1], 2),
], ids=["empty", "too-many-atoms", "not-a-homomorphism", "missing-restriction",
        "missing-extension"])
def test_an_invalid_bw_family_is_refused(maps, k, k2):
    assert not is_valid_bw_family(family(*maps), k2, k2, k)


def test_a_bw_family_with_a_non_functional_map_is_refused(k2):
    k3 = clique(3)
    maps = list(bw(k3, k2, 1).witness.maps)
    assert is_valid_bw_family(maps, k3, k2, 1)
    # as a dict this is {0: 1}, already a member
    assert not is_valid_bw_family(maps + [Assignment((("0", "0"), ("0", "1")))], k3, k2, 1)


@pytest.mark.slow
def test_the_bw_family_check_matches_its_reference():
    # the one-atom check against the check over every subset of at most k atoms,
    # on the three-vertex classes into K2, K3, C4 and DT at k = 1, 2, 3: the
    # enumeration of partial maps, a random subset of it, and each bw witness
    # as it is, with one map dropped and with one enumerated map added
    rng = random.Random(19)
    answers = []
    for X in digraphs_up_to_renaming(3):
        for A in (clique(2), clique(3), cycle(4), directed_triangle()):
            for k in (1, 2, 3):
                every = enumerate_partial_homomorphisms(X, A, k)
                families = [every, rng.sample(every, rng.randrange(len(every) + 1))]
                verdict = bw(X, A, k)
                if verdict.accepted:
                    maps = list(verdict.witness.maps)
                    dropped = rng.randrange(len(maps))
                    families += [maps, maps[:dropped] + maps[dropped + 1:]]
                    outside = [f for f in every if f not in maps]
                    if outside:
                        families.append(maps + [rng.choice(outside)])
                for maps in families:
                    answer = is_valid_bw_family(maps, X, A, k)
                    assert answer == reference_is_valid_bw_family(maps, X, A, k), \
                        (X.relations, A.name, k, len(maps))
                    answers.append(answer)
    assert len(answers) == 2829 and answers.count(True) == 417


def marginals(homs: list[dict], Xk: Structure, Ak: Structure) -> dict:
    """The marginal weights of the uniform distribution on ``homs``."""
    return {(sym, xt, at): rat(sum(tuple(h[x] for x in xt) == at for h in homs), len(homs))
            for sym in Xk.signature.names() for xt in Xk.tuples(sym) for at in Ak.tuples(sym)}


@pytest.fixture
def k2_marginals(k2):
    """The level-2 marginals of the two automorphisms of K2, each with weight 1/2."""
    Xk = k_enhance(k2, 2)
    return marginals([{"0": "0", "1": "1"}, {"0": "1", "1": "0"}], Xk, Xk), Xk


def test_averaged_homomorphisms_are_a_marginal_witness(k2_marginals):
    values, Xk = k2_marginals
    validate_marginal_witness(values, Xk, Xk, 2)


def test_a_fractional_weight_is_not_an_integer_witness(k2_marginals):
    values, Xk = k2_marginals
    with pytest.raises(InvalidWitness, match="non-integer"):
        validate_marginal_witness(values, Xk, Xk, 2, integral=True)


def test_a_weight_on_a_scope_violating_image_is_refused(k2_marginals):
    values, Xk = k2_marginals
    # the repeated pair (0, 0) cannot map onto the distinct pair (0, 1)
    values[("R_2", ("0", "0"), ("0", "1"))] = rat(1, 2)
    with pytest.raises(InvalidWitness, match="scope-violating"):
        validate_marginal_witness(values, Xk, Xk, 2)


@pytest.mark.parametrize("key, weight, refusal", [
    # a zero weight respects any scope, but its image must have the scope's length
    (("R_2", ("0", "0"), ("0", "1")), rat(0), None),
    (("R_2", ("0", "0"), ("0",)), rat(0), LengthMismatch),
    (("R_2", ("0", "0"), ("0", "1")), rat(1, 3), InvalidWitness),
], ids=["zero-scope-violating", "zero-wrong-length", "nonzero-scope-violating"])
def test_the_scope_is_checked_on_nonzero_weights_and_the_length_on_all(
        k2_marginals, key, weight, refusal):
    values, Xk = k2_marginals
    values[key] = weight
    if refusal is None:
        validate_marginal_witness(values, Xk, Xk, 2)
    else:
        with pytest.raises(refusal):
            validate_marginal_witness(values, Xk, Xk, 2)


@pytest.fixture
def k2_into_k3():
    """The level-1 witness of sa on K2 -> K3, with the enhanced pair."""
    X, A = clique(2), clique(3)
    return sa(X, A, 1).witness.values, k_enhance(X, 1), k_enhance(A, 1)


@pytest.mark.parametrize("key", [
    ("R", ("0", "1"), ("1", "1")),
    ("R_1", ("0",), ("3",)),
    ("R", ("0", "0"), ("1", "1")),
    ("S", ("0", "1"), ("1", "2")),
], ids=["image-off-the-edges", "atom-outside-k3", "non-edge-scope", "symbol-outside"])
def test_a_weight_on_no_variable_of_the_system_is_refused(k2_into_k3, key):
    # each key respects its scope but names no scope of X or no tuple of A, so
    # no sum reads it; a zero weight may still sit there
    values, Xk, Ak = k2_into_k3
    values[key] = rat(0)
    validate_marginal_witness(values, Xk, Ak, 1)
    values[key] = rat(1, 2)
    with pytest.raises(InvalidWitness, match="no variable of the system"):
        validate_marginal_witness(values, Xk, Ak, 1)


def test_moved_mass_breaks_a_marginal(k2_marginals):
    values, Xk = k2_marginals
    # the edge 0 -> 1 keeps unit mass, all on (0, 1), but the pair (0, 1) of R_2
    # still puts half its mass on (1, 0)
    values[("R", ("0", "1"), ("0", "1"))] = rat(1)
    values[("R", ("0", "1"), ("1", "0"))] = rat(0)
    with pytest.raises(InvalidWitness, match="marginal violated"):
        validate_marginal_witness(values, Xk, Xk, 2)


def test_a_negative_weight_is_refused(k2_marginals):
    values, Xk = k2_marginals
    values[("R", ("0", "1"), ("0", "1"))] = rat(-1, 2)
    with pytest.raises(InvalidWitness, match="negative weight"):
        validate_marginal_witness(values, Xk, Xk, 2)


@pytest.mark.parametrize("weight", [1.0, "1"], ids=["float", "str"])
def test_a_weight_that_is_no_exact_rational_is_refused(k2_into_k3, weight):
    values, Xk, Ak = k2_into_k3
    values[next(key for key, v in values.items() if v)] = weight
    with pytest.raises(InvalidWitness, match="not an exact rational"):
        validate_marginal_witness(values, Xk, Ak, 1)


@pytest.mark.parametrize("key", [
    ("R", ("0", "1")),
    ("R", ("0", "1"), ("1", "2"), "extra"),
    ("R_1", 0, ("1",)),
    ("R_1", ("0",), 1),
], ids=["pair", "quadruple", "int-scope", "int-image"])
def test_a_key_that_is_no_triple_of_tuples_is_refused(k2_into_k3, key):
    values, Xk, Ak = k2_into_k3
    values[key] = rat(1, 2)
    with pytest.raises(InvalidWitness, match="malformed key"):
        validate_marginal_witness(values, Xk, Ak, 1)


@pytest.fixture
def sixths(k3):
    """Level-1 marginals of K2 -> K3 in thirds and sixths, over the common denominator 6."""
    X = clique(2)
    a, b, c, d = ({"0": "1", "1": "2"}, {"0": "2", "1": "1"},
                  {"0": "1", "1": "3"}, {"0": "3", "1": "2"})
    Xk, Ak = k_enhance(X, 1), k_enhance(k3, 1)
    values = marginals([a, a, b, c, c, d], Xk, Ak)
    assert {values[("R", ("0", "1"), at)] for at in (("1", "2"), ("2", "1"))} == \
        {rat(1, 3), rat(1, 6)}
    return values, Xk, Ak


def test_weights_over_a_common_denominator_validate(sixths):
    validate_marginal_witness(*sixths, 1)


def test_a_moved_sixth_is_reported_in_exact_rationals(sixths):
    values, Xk, Ak = sixths
    # unit mass still holds on the edge 0 -> 1, but 0 now goes to 1 with mass 1/2
    values[("R", ("0", "1"), ("1", "2"))] = rat(1, 6)
    values[("R", ("0", "1"), ("2", "1"))] = rat(1, 3)
    message = "marginal violated at ('R', ('0', '1'), (1,), ('1',)): 1/2 != 2/3"
    with pytest.raises(InvalidWitness, match=re.escape(message)):
        validate_marginal_witness(values, Xk, Ak, 1)


def test_a_marginal_witness_may_leave_out_its_zero_weights():
    C4, K2 = cycle(4), clique(2)
    Xk, Ak = k_enhance(C4, 2), k_enhance(K2, 2)
    sparse = sa(C4, K2, 2).witness.values
    keys, *_ = _marginal_rows(Xk, Ak, 2, DEFAULT_BUDGET)
    assert 0 not in sparse.values() and len(sparse) < len(keys)
    validate_marginal_witness(sparse, Xk, Ak, 2)
    del sparse[next(iter(sparse))]
    with pytest.raises(InvalidWitness):
        validate_marginal_witness(sparse, Xk, Ak, 2)


def test_ba_refuses_an_integer_point_outside_the_lp_support(monkeypatch):
    # a plain LP vertex passed off as the maximal support's point: K2 -> K3's
    # integer solution is positive where the vertex is zero
    def vertex_as_support(system, budget):
        outcome = lp_feasible(system, budget)
        return set(range(system.num_vars)), outcome.point, None, outcome.pivots

    monkeypatch.setattr(hierarchies, "maximal_support", vertex_as_support)
    with pytest.raises(InvalidWitness, match="leaks outside the LP support"):
        ba(clique(2), clique(3), 1)


# -- every driver on the three-vertex digraphs ------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """(X, A, verdicts) for the 104 three-vertex digraph classes into K2 and DT.

    Verdicts are keyed by (driver, level), the level being None for the
    level-free drivers.  ``minion-h`` is the Horn minion test.
    """
    out = []
    for X in digraphs_up_to_renaming(3):
        for A in (clique(2), directed_triangle()):
            verdicts = {("oracle", None): oracle(X, A), ("sdp", None): sdp(X, A),
                        ("sos", 1): sos(X, A, 1), ("sos", 2): sos(X, A, 2)}
            for k in LEVELS:
                for name, driver in (("bw", bw), ("sa", sa), ("aip", aip), ("ba", ba),
                                     ("minion-h", minion_test_horn_level)):
                    verdicts[(name, k)] = driver(X, A, k)
            out.append((X, A, verdicts))
    return out


def test_sweep_covers_the_slice(sweep):
    assert len(sweep) == 208
    statuses = {(key, v.status) for _, _, verdicts in sweep for key, v in verdicts.items()}
    for k in LEVELS:
        for name in ("bw", "sa", "aip", "ba"):
            assert ((name, k), Status.ACCEPT) in statuses
            assert ((name, k), Status.REJECT) in statuses


# (stronger, weaker): an accept of the first implies an accept of the second
CONTAINMENTS = [pair for k in LEVELS
                for pair in ((("ba", k), ("sa", k)), (("ba", k), ("aip", k)), (("sa", k), ("bw", k)))]
# each hierarchy is monotone in k
CONTAINMENTS += [((name, 2), (name, 1)) for name in ("bw", "sa", "aip", "ba")]


def assert_complete(X, A, verdicts):
    if verdicts[("oracle", None)].accepted:
        for key, verdict in verdicts.items():
            assert verdict.accepted, (key, X.relations, A.name)


def assert_contained(X, A, verdicts, implied):
    for stronger, weaker in implied:
        if verdicts[stronger].accepted:
            assert verdicts[weaker].accepted, (stronger, weaker, X.relations, A.name)


def test_an_accept_is_monotone_in_x(sweep):
    # X' -> X and an ACCEPT of (X, A) imply an ACCEPT of (X', A) under every
    # driver and level; a reject-numeric of (X', A) is no refusal
    verdicts_into: dict = {}
    for X, A, verdicts in sweep:
        verdicts_into.setdefault(A.name, []).append(verdicts)
    classes = [X for X, A, _ in sweep if A.name == "K2"]
    homs = [(i, j) for i, Xi in enumerate(classes) for j, Xj in enumerate(classes)
            if oracle(Xi, Xj).accepted]
    assert len(homs) == 9283
    beyond_oracle = 0
    for name, into in verdicts_into.items():
        for i, j in homs:
            for key, verdict in into[j].items():
                implied = into[i][key]
                if verdict.accepted and implied.status is not Status.REJECT_NUMERIC:
                    assert implied.accepted, (key, classes[i].relations, classes[j].relations, name)
                    beyond_oracle += not into[i][("oracle", None)].accepted
    assert beyond_oracle == 17281


@pytest.fixture(scope="module")
def sweep_into_k3_and_c4():
    """(X, A, verdicts) for the 104 three-vertex digraph classes into K3 and
    C4, under the drivers and levels of ``sweep``."""
    out = []
    for X in digraphs_up_to_renaming(3):
        for A in (clique(3), cycle(4)):
            verdicts = {("oracle", None): oracle(X, A), ("sdp", None): sdp(X, A),
                        ("sos", 1): sos(X, A, 1), ("sos", 2): sos(X, A, 2)}
            for k in LEVELS:
                for name, driver in (("bw", bw), ("sa", sa), ("aip", aip), ("ba", ba),
                                     ("minion-h", minion_test_horn_level)):
                    verdicts[(name, k)] = driver(X, A, k)
            out.append((X, A, verdicts))
    return out


# target homomorphisms A -> A' among the four targets of the two sweeps
TARGET_HOMS = [("K2", "K3"), ("K2", "C4"), ("C4", "K2"), ("C4", "K3"), ("DT", "K3")]


def test_an_accept_is_monotone_in_a(sweep, sweep_into_k3_and_c4):
    # A -> A' and an ACCEPT of (X, A) imply an ACCEPT of (X, A') under every
    # driver and level; a reject-numeric of (X, A') is no refusal
    verdicts_into: dict = {}
    targets = {}
    for X, A, verdicts in sweep + sweep_into_k3_and_c4:
        verdicts_into.setdefault(A.name, []).append((X, verdicts))
        targets[A.name] = A
    checks = beyond_oracle = 0
    for a, b in TARGET_HOMS:
        assert oracle(targets[a], targets[b]).accepted
        for (X, verdicts), (_, into_b) in zip(verdicts_into[a], verdicts_into[b]):
            for key, verdict in verdicts.items():
                implied = into_b[key]
                if verdict.accepted and implied.status is not Status.REJECT_NUMERIC:
                    assert implied.accepted, (key, X.relations, a, b)
                    checks += 1
                    beyond_oracle += not into_b[("oracle", None)].accepted
    assert (checks, beyond_oracle) == (1229, 524)


def test_completeness(sweep):
    for X, A, verdicts in sweep:
        assert_complete(X, A, verdicts)


def test_containments(sweep):
    implied = CONTAINMENTS + [(("sos", 1), ("sa", 1)), (("sos", 2), ("sa", 2)),
                              (("sos", 2), ("sos", 1))]
    for X, A, verdicts in sweep:
        assert_contained(X, A, verdicts, implied)


@pytest.mark.slow
def test_completeness_and_containments_into_k3_and_c4():
    # the 104 three-vertex digraph classes into two larger targets, where the
    # LP and integer systems are several times the size of the K2 and DT ones
    for X in digraphs_up_to_renaming(3):
        for A in (clique(3), cycle(4)):
            verdicts = {("oracle", None): oracle(X, A)}
            for k in LEVELS:
                for name, driver in (("bw", bw), ("sa", sa), ("aip", aip), ("ba", ba)):
                    verdicts[(name, k)] = driver(X, A, k)
            assert_complete(X, A, verdicts)
            assert_contained(X, A, verdicts, CONTAINMENTS)


def _refusal(validate, values, Xk, Ak, k, integral):
    """The message of the InvalidWitness that ``validate`` raises, or None when it accepts."""
    try:
        validate(values, Xk, Ak, k, integral)
    except InvalidWitness as exc:
        return str(exc)
    return None


def _moved_mass(values: dict, Ak: Structure) -> dict:
    """The witness with the first nonzero weight moved whole onto another image of its scope."""
    tampered = dict(values)
    for (sym, xt, at), v in values.items():
        others = [(sym, xt, b) for b in Ak.tuples(sym) if b != at and precedes(xt, b)]
        if v != 0 and others:
            tampered[(sym, xt, at)] = 0
            tampered[others[0]] = values.get(others[0], 0) + v
            return tampered
    raise AssertionError("no weight to move")


def _presolved_by_value(presolved) -> tuple:
    """The emitted system, items in order, and the column ``expand`` lifts each key from."""
    system = presolved.system
    return (system.var_names,
            [[(j, c, type(c)) for j, c in row.items()] for row in system.rows],
            [(b, type(b)) for b in system.rhs],
            presolved.key_order,
            presolved.columns)


def assert_front_end_matches_reference(X: Structure, A: Structure, k: int) -> None:
    """The rows, the presolve and the witness check on ints against the routines
    in references.py that project per tuple, key every variable by its tuple
    and sum on the original values."""
    Xk, Ak = k_enhance(X, k), k_enhance(A, k)
    assert_rows_match_reference(Xk, Ak, k)
    witnesses = []
    for driver, integral in ((sa, False), (aip, True)):
        verdict = driver(X, A, k)
        if verdict.accepted:
            witnesses.append((verdict.witness.values, integral))
    verdict = ba(X, A, k)
    if verdict.accepted:
        witnesses += [(verdict.witness.lp.values, False), (verdict.witness.ip.values, True)]
    for values, integral in witnesses:
        for candidate in (values, _moved_mass(values, Ak)):
            assert _refusal(validate_marginal_witness, candidate, Xk, Ak, k, integral) == \
                _refusal(reference_validate_marginal_witness, candidate, Xk, Ak, k, integral)


def assert_rows_match_reference(Xk: Structure, Ak: Structure, k: int) -> tuple:
    """The rows and the presolve of the pair as given; returns the rows.

    The identities are those of the references' stated scopes, in order,
    and the repeats are the references' repeats.  The presolve, which
    states no unit row of a repeat, is compared twice with every scope's
    identities and unit row stated: with the per-tuple reference, and with
    the identities stamped one dict each and read back as rows.
    """
    keys, scopes, identities, repeat_at = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
    repeats = reference_repeated_scopes(Xk, k)
    dict_rows = dict_row_marginal_rows(Xk, Ak, k)
    assert (keys, scopes, [identity_row(ident) for ident in identities]) == \
        dict_row_marginal_rows(Xk, Ak, k, repeats)
    ref_scopes, ref_identities = reference_marginal_rows(Xk, Ak, k)
    assert repeat_at == {s for s, (sym, xt, _) in enumerate(ref_scopes)
                         if sym == f"R_{k}" and xt in repeats}
    ref_units = [{(sym, xt, at): 1 for at in images} for sym, xt, images in ref_scopes]
    assert [[keys[v] for v in ids] for ids in scopes] == [list(unit) for unit in ref_units]
    assert [[(keys[v], c) for v, c in identity_row(ident).items()] for ident in identities] == \
        [list(row.items()) for row in reference_marginal_rows(Xk, Ak, k, repeats)[1]]
    for tag in DomainTag:
        reference = ReferenceSystemBuilder(tag)
        for unit in ref_units:
            reference.add_row(unit, 1)
        for row in ref_identities:
            reference.add_row(row, 0)
        presolved = _presolved_by_value(_linear_system(tag, keys, scopes, identities, repeat_at))
        assert presolved == _presolved_by_value(reference.build())
        assert presolved == _presolved_by_value(dict_row_linear_system(tag, *dict_rows))
    return keys, scopes, identities


def repeated_atoms() -> tuple[Structure, Structure]:
    """A ternary symbol whose scopes repeat atoms, beside a unary one, into three atoms."""
    sig = Signature.of({"R": 3, "U": 1})
    X = Structure(sig, ["a", "b", "c"], {"R": [("a", "a", "b"), ("b", "a", "b"), ("c", "c", "c")],
                                         "U": [("a",), ("c",)]})
    atoms = ["0", "1", "2"]
    A = Structure(sig, atoms, {"R": [t for t in itertools.product(atoms, repeat=3) if t[0] <= t[1]],
                               "U": [("0",), ("2",)]})
    return X, A


FRONT_END_CASES = {
    # the three-vertex classes at k = 1, 2 into each small target
    **{A.name: [(X, A, k) for X in digraphs_up_to_renaming(3) for k in LEVELS]
       for A in (clique(2), clique(3), cycle(4), directed_triangle())},
    # larger pairs: a wheel, odd cycles into larger cliques, and level 3
    "W5-K3-2": [(wheel(5), clique(3), 2)],
    "C5-K4-2": [(cycle(5), clique(4), 2)],
    "C7-K3-2": [(cycle(7), clique(3), 2)],
    "K3-K2-3": [(clique(3), clique(2), 3)],
    # ternary scopes, and unary ones, at every level up to the arity
    "1in3-NAE": [(one_in_three(), not_all_equal(), k) for k in (1, 2, 3)],
    "repeated-atoms": [(*repeated_atoms(), k) for k in (1, 2, 3)],
}


@pytest.mark.slow
@pytest.mark.parametrize("case", FRONT_END_CASES)
def test_the_marginal_front_end_matches_its_reference(case):
    for X, A, k in FRONT_END_CASES[case]:
        assert_front_end_matches_reference(X, A, k)


@pytest.mark.slow
def test_the_lp_colouring_pairs_are_stamped_and_presolved_like_the_references():
    for x, a, k in LP_COLOURING_PAIRS:
        assert_rows_match_reference(k_enhance(named(x), k), k_enhance(named(a), k), k)


def test_the_marginal_variables_are_numbered_densely_in_unit_mass_order():
    # each scope's range follows the last, and the ids name the keys in the
    # order the unit-mass rows list them
    for X, A, k in ((cycle(5), clique(3), 1), (clique(3), directed_triangle(), 2)):
        Xk, Ak = k_enhance(X, k), k_enhance(A, k)
        keys, scopes, identities, _ = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
        assert [v for ids in scopes for v in ids] == list(range(len(keys)))
        assert [[keys[v] for v in ids] for ids in scopes] == \
            [[(sym, xt, at) for at in Ak.tuples(sym) if precedes(xt, at)]
             for sym in Xk.signature.names() for xt in Xk.tuples(sym)]
        assert {v for row in identities for v in row} <= set(range(len(keys)))


def r_2_declared_first(S: Structure) -> Structure:
    """The binary structure with its full R_2 declared ahead of R."""
    sig = Signature.of({"R_2": 2, "R": 2})
    return Structure(sig, S.domain, {"R_2": itertools.product(S.domain, repeat=2),
                                     "R": S.tuples("R")})


def test_an_input_that_already_holds_r_k_is_numbered_as_given():
    # R_2 declared ahead of R: k_enhance returns both structures unchanged, so
    # the R_2 scopes come first and their variables take the lowest ids
    X, A = cycle(4), clique(3)
    X2, A2 = r_2_declared_first(X), r_2_declared_first(A)
    assert k_enhance(X2, 2) is X2 and k_enhance(A2, 2) is A2
    keys, *_ = _marginal_rows(X2, A2, 2, DEFAULT_BUDGET)
    assert keys[0][0] == "R_2" and keys[-1][0] == "R"
    assert_front_end_matches_reference(X2, A2, 2)
    assert sa(X2, A2, 2).status is sa(X, A, 2).status is Status.ACCEPT


def stamped_r_k_scopes(Xk: Structure, Ak: Structure, k: int) -> set:
    """The ``R_k`` scopes that own an image of some stamped identity."""
    keys, _, identities, _ = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
    return {keys[v][1] for ident in identities for v in ident[:-1] if keys[v][0] == f"R_{k}"}


def test_c4_into_k3_states_no_identity_of_a_repeated_r_2_scope():
    # each ordered edge (x, y) projects onto the R_2 scopes (x, y) and (y, x)
    # by a position tuple naming both its positions; of the R_2 scopes left,
    # (0, 2) and (1, 3) are stated first and mark their swaps
    X, A = cycle(4), clique(3)
    Xk, Ak = k_enhance(X, 2), k_enhance(A, 2)
    edges = {("0", "1"), ("1", "0"), ("1", "2"), ("2", "1"),
             ("2", "3"), ("3", "2"), ("3", "0"), ("0", "3")}
    assert set(X.tuples("R")) == edges
    repeats = edges | {("2", "0"), ("3", "1")}
    stated = {(x, x) for x in X.domain} | {("0", "2"), ("1", "3")}
    assert reference_repeated_scopes(Xk, 2) == repeats
    assert set(Xk.tuples("R_2")) - repeats == stated
    # a diagonal R_2 scope projects only onto itself, so it stamps no identity
    assert stamped_r_k_scopes(Xk, Ak, 2) == {("0", "2"), ("1", "3")}
    keys, scopes, identities, _ = _marginal_rows(Xk, Ak, 2, DEFAULT_BUDGET)
    assert (keys, scopes, [identity_row(ident) for ident in identities]) == \
        dict_row_marginal_rows(Xk, Ak, 2, repeats)


def test_with_r_2_declared_first_only_swaps_of_earlier_r_2_scopes_are_repeats():
    # every R_2 scope is walked before the edges, which then mark nothing
    X, A = cycle(4), clique(3)
    X2, A2 = r_2_declared_first(X), r_2_declared_first(A)
    swaps = {(y, x) for x, y in itertools.combinations(X.domain, 2)}
    assert reference_repeated_scopes(X2, 2) == swaps
    assert stamped_r_k_scopes(X2, A2, 2) == set(itertools.combinations(X.domain, 2))
    _, _, identities, _ = _marginal_rows(X2, A2, 2, DEFAULT_BUDGET)
    assert [identity_row(ident) for ident in identities] == \
        dict_row_marginal_rows(X2, A2, 2, swaps)[2]


def test_an_empty_marker_keeps_its_unit_row_beside_the_repeat_it_marks():
    # D1's loop has no image in the loopless K2, so its R scope holds the empty
    # range (0, 0) and marks the R_2 scope of the loop, whose range also starts
    # at 0; the repeat states no unit row, and the marker's reads 0 = 1
    X, A = named("D1"), clique(2)
    Xk, Ak = k_enhance(X, 2), k_enhance(A, 2)
    keys, scopes, identities, repeat_at = _marginal_rows(Xk, Ak, 2, DEFAULT_BUDGET)
    assert scopes[:2] == [range(0, 0), range(0, 2)] and keys[0][:2] == ("R_2", ("0", "0"))
    assert 1 in repeat_at and 0 not in repeat_at
    for tag in DomainTag:
        system = _linear_system(tag, keys, scopes, identities, repeat_at).system
        assert ({}, 1) in zip(system.rows, system.rhs), tag


@pytest.mark.slow
@pytest.mark.parametrize("target", ["K2", "K3", "C4", "DT"])
def test_leaving_out_the_repeats_unit_rows_presolves_like_stating_them(target):
    for X in digraphs_up_to_renaming(3):
        for k in LEVELS:
            keys, scopes, identities, repeat_at = _marginal_rows(
                k_enhance(X, k), k_enhance(named(target), k), k, DEFAULT_BUDGET)
            for tag in DomainTag:
                left_out = _linear_system(tag, keys, scopes, identities, repeat_at)
                stated = _linear_system(tag, keys, scopes, identities, set())
                assert _presolved_by_value(left_out) == _presolved_by_value(stated), \
                    (X.name, target, k, tag)


@pytest.mark.slow
def test_the_hermite_form_matches_its_reference(monkeypatch):
    # every integer system that aip and ba pose at k = 1, 2 over the three-vertex
    # classes into K2, K3, C4 and DT: the same H, U, pivots and operation count,
    # and the same point or parity vector, as the form that carried U; each
    # solve counts the Euclid steps up to the failing row
    posed = {}
    solve = hierarchies.diophantine_solve

    def record(system, budget):
        key = (system.var_names, tuple(tuple(row.items()) for row in system.rows), system.rhs)
        posed[key] = system
        return solve(system, budget)

    monkeypatch.setattr(hierarchies, "diophantine_solve", record)
    for X in digraphs_up_to_renaming(3):
        for A in (clique(2), clique(3), cycle(4), directed_triangle()):
            for k in LEVELS:
                aip(X, A, k)
                ba(X, A, k)
    outcomes = set()
    for system in posed.values():
        out = integer_outputs(exact_solvers.diophantine_solve, system)
        assert out == integer_outputs(reference_diophantine_solve, system)
        outcomes.add(out[0])
        A = [[int(row.get(j, 0)) for j in range(system.num_vars)] for row in system.rows]
        assert hnf_outputs(A) == reference_hnf_outputs(A)
    assert len(posed) > 50 and outcomes == {True, False}


@pytest.mark.slow
def test_the_int_simplex_matches_its_fraction_reference(monkeypatch):
    # every LP that sa and sos pose, and every maximal-support system that ba
    # poses, at k = 1, 2 over the three-vertex classes into K2, K3, C4 and DT:
    # the same pivots, points, Farkas vectors and supports as the Fraction tableau
    posed = {"lp_feasible": {}, "maximal_support": {}}

    def recorder(name):
        solve = getattr(hierarchies, name)

        def record(system, budget):
            key = (system.var_names, tuple(tuple(row.items()) for row in system.rows), system.rhs)
            posed[name][key] = system
            return solve(system, budget)

        return record

    for name in posed:
        monkeypatch.setattr(hierarchies, name, recorder(name))
    # the Gram phase of sos poses no LP
    monkeypatch.setattr(hierarchies, "_finish_gram",
                        lambda algorithm, level, problem: Verdict(algorithm, level, Status.ACCEPT))
    for X in digraphs_up_to_renaming(3):
        for A in (clique(2), clique(3), cycle(4), directed_triangle()):
            for k in LEVELS:
                for drive in (sa, ba, sos):
                    drive(X, A, k)
    # ba decides the same presolved systems as sa and sos
    assert posed["lp_feasible"].keys() == posed["maximal_support"].keys()
    assert len(posed["lp_feasible"]) > 50
    for name, systems in posed.items():
        solve = getattr(exact_solvers, name)
        for system in systems.values():
            assert simplex_outputs(ExactSimplex, solve, system) == \
                simplex_outputs(ReferenceSimplex, solve, system)


def test_bw_agrees_with_the_horn_minion_test_from_the_arity_on(sweep):
    # both are arc consistency; they differ only below the arity 2, where bw
    # finds no map of a loop into a loopless target and the Horn test sends
    # the loop onto the edges through positional support
    looped_into_k2 = 0
    for X, A, verdicts in sweep:
        assert verdicts[("bw", 2)].accepted == verdicts[("minion-h", 2)].accepted, \
            (X.relations, A.name)
        if any(a == b for a, b in X.tuples("R")):
            assert not verdicts[("bw", 1)].accepted and verdicts[("minion-h", 1)].accepted
            looped_into_k2 += A.name == "K2"
        else:
            assert verdicts[("bw", 1)].accepted == verdicts[("minion-h", 1)].accepted
    assert looped_into_k2 == 88


def test_rejection_evidence_verifies(sweep):
    phases = set()
    for _, _, verdicts in sweep:
        for (name, _k), verdict in verdicts.items():
            evidence = verdict.certificate
            if not isinstance(evidence, RejectionEvidence):
                continue
            if evidence.certificate.kind is CertificateKind.FARKAS:
                assert verify_farkas(evidence.certificate, evidence.system)
            else:
                assert verify_parity_certificate(evidence.certificate, evidence.system)
            if name == "ba":
                phases.add(evidence.note)
    assert phases == {"lp-phase", "ip-phase"}


def test_accept_witnesses_revalidate(sweep):
    for X, A, verdicts in sweep:
        for k in LEVELS:
            Xk, Ak = k_enhance(X, k), k_enhance(A, k)
            if verdicts[("bw", k)].accepted:
                assert is_valid_bw_family(verdicts[("bw", k)].witness.maps, X, A, k)
            if verdicts[("sa", k)].accepted:
                witness = verdicts[("sa", k)].witness
                validate_marginal_witness(witness.values, Xk, Ak, k)
                # the greatest fixpoint holds every valid family; a support map
                # can repeat a pair, so maps are compared as sets of pairs
                support = support_family(witness, X, A, k)
                greatest = {frozenset(f.mapping) for f in verdicts[("bw", k)].witness.maps}
                assert {frozenset(f.mapping) for f in support.maps} <= greatest
            if verdicts[("aip", k)].accepted:
                validate_marginal_witness(verdicts[("aip", k)].witness.values, Xk, Ak, k,
                                          integral=True)
            if verdicts[("ba", k)].accepted:
                witness = verdicts[("ba", k)].witness
                validate_marginal_witness(witness.lp.values, Xk, Ak, k)
                validate_marginal_witness(witness.ip.values, Xk, Ak, k, integral=True)
                ip_support = {key for key, v in witness.ip.values.items() if v != 0}
                assert ip_support <= witness.maximal_support
        if verdicts[("sdp", None)].accepted:
            assert check_sdp_facts(verdicts[("sdp", None)].witness.vectors, X, A).ok


def test_verdicts_serialise(sweep):
    for _, _, verdicts in sweep:
        for verdict in verdicts.values():
            verdict.to_json()


def test_sa_matches_its_subset_formulation(sweep):
    for X, A, verdicts in sweep:
        for k in LEVELS:
            assert sa_reference(X, A, k) == verdicts[("sa", k)].accepted, (k, X.relations, A.name)
