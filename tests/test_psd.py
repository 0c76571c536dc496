"""The two Gram phases: the exact affine reduction and the float projections."""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import minionlab
import minionlab.hierarchies as hierarchies
import minionlab.psd as psd
from minionlab import oracle, sdp, sos
from minionlab.budgets import DEFAULT_BUDGET
from minionlab.errors import InvalidWitness, MalformedInput
from minionlab.exact_solvers import DomainTag, lp_feasible
from minionlab.hierarchies import _linear_system, _marginal_rows, _sdp_problem, _sos_problem
from minionlab.psd import (
    DUAL_EVERY,
    DualCertificate,
    GramProblem,
    Inconsistent,
    NumericReject,
    ReducedGramProblem,
    SoSWitness,
    _AffineProjector,
    _positive_definite,
    _proportional,
    affine_reduce,
    psd_feasibility,
    verify_dual_certificate,
)
from minionlab.verdicts import Status
from minionlab.structures import k_enhance

from conftest import (
    clique,
    cycle,
    digraphs_up_to_renaming,
    directed_triangle,
    graphs_up_to_isomorphism,
    mycielski,
    named,
    wheel,
)
from references import (
    ReferenceAffineProjector,
    dict_row_gram_problem,
    dict_row_marginal_rows,
    reference_affine_reduce,
    reference_sdp_problem,
    sos_keys,
    sos_violation,
)


def sos_problem(X, A, k: int) -> GramProblem:
    """The Gram problem ``sos`` poses on the presolved columns of its marginal LP."""
    Xk, Ak = k_enhance(X, k), k_enhance(A, k)
    keys, scopes, identities, repeats = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
    return _sos_problem(
        _linear_system(DomainTag.NONNEG_RAT, keys, scopes, identities, repeats), scopes)


def misfit(reduced: ReducedGramProblem, G: np.ndarray) -> float:
    """The largest violation by G of the constraints, read from their exact rows."""
    return max(abs(sum(float(v) * G[s, t] for (s, t), v in row.items()) - float(rhs))
               for row, rhs in reduced.constraints)


@pytest.mark.parametrize("build", [lambda: _sdp_problem(clique(2), clique(3)),
                                   lambda: sos_problem(clique(4), clique(3), 2)],
                         ids=["sdp-K2-K3", "sos2-K4-K3"])
def test_projection_is_orthogonal_onto_the_subspace(build):
    reduced = affine_reduce(build())
    n = len(reduced.reps)
    projector = _AffineProjector(n, reduced.constraints)
    rng = np.random.default_rng(0)
    points = [m + m.T for m in rng.standard_normal((3, n, n))]
    projected = [projector.project(G) for G in points]
    for G, P in zip(points, projected):
        assert misfit(reduced, G) > 1e-3
        assert misfit(reduced, P) <= 1e-9
        assert np.max(np.abs(projector.project(P) - P)) <= 1e-9
        # the step G - P is normal to the subspace
        for Q in projected:
            assert abs(np.sum((G - P) * (Q - P))) <= 1e-9 * (1 + np.sum((G - P) ** 2))


def test_a_repeated_constraint_is_kept_once():
    # <a, b> = 0 arrives twice (once as <b, a>), and ||a||^2 = 1 twice
    problem = GramProblem(("a", "b"), (("a",), ("a",), ("b",)), (("a", "b"), ("b", "a")), ())
    reduced = affine_reduce(problem)
    assert reduced.constraints == [({(0, 1): 1}, 0), ({(0, 0): 1}, 1), ({(1, 1): 1}, 1)]


def test_a_constraint_reducing_to_zero_equals_nonzero_is_rejected():
    # ||a||^2 = 1 and ||b||^2 = 1 leave ||a||^2 + ||b||^2 = 2, not 1
    problem = GramProblem(("a", "b"), (("a",), ("b",), ("a", "b")), (), ())
    outcome = affine_reduce(problem)
    assert isinstance(outcome, Inconsistent)
    assert outcome.steps == [("affine-contradiction", "0 = -1")]


def test_affine_reduce_alone_rejects_sdp_k3_into_c4():
    assert isinstance(affine_reduce(_sdp_problem(clique(3), cycle(4))), Inconsistent)


def contradictory() -> ReducedGramProblem:
    """||a||^2 = 1, ||b||^2 = 1 and ||a||^2 + ||b||^2 = 1, which affine_reduce would refuse."""
    rows = [({(0, 0): 1}, 1), ({(1, 1): 1}, 1), ({(0, 0): 1, (1, 1): 1}, 1)]
    return ReducedGramProblem(("a", "b"), {"a": {"a": 1}, "b": {"b": 1}}, rows)


@pytest.mark.parametrize("build, outcome", [
    (lambda: affine_reduce(_sdp_problem(clique(2), clique(3))), SoSWitness),
    (lambda: affine_reduce(_sdp_problem(clique(4), clique(3))), DualCertificate),
    (contradictory, NumericReject),
], ids=["sdp-K2-K3", "sdp-K4-K3", "contradictory"])
def test_psd_feasibility_accepts_or_gives_up(build, outcome):
    assert type(psd_feasibility(build())) is outcome


def test_a_solve_that_reaches_the_iteration_cap_gives_up(monkeypatch):
    # under DUAL_EVERY iterations, with no stall in sight, only the cap ends the loop
    cap = DUAL_EVERY - 5
    monkeypatch.setattr(psd, "MAX_ITER", cap)
    monkeypatch.setattr(psd, "STALL_WINDOW", 10**6)
    outcome = psd_feasibility(contradictory())
    assert type(outcome) is NumericReject
    assert outcome.iterations == cap
    assert outcome.trace[-1] == (cap, outcome.residual)


def test_a_constraint_without_a_coefficient_is_a_typed_error():
    # the benchmark counts a MinionLabError as a failed query; any other error ends its run
    reduced = ReducedGramProblem(("a",), {"a": {"a": 1}}, [({(0, 0): 1}, 1), ({}, 1)])
    with pytest.raises(MalformedInput):
        psd_feasibility(reduced)


def test_a_problem_without_representatives_accepts_with_empty_vectors():
    # a - b = 0 and <a, b> = 0 force a = b = 0, and no unit group asks for more
    problem = GramProblem(("a", "b"), (), (("a", "b"),), ((("a", 1), ("b", -1)),))
    reduced = affine_reduce(problem)
    assert (reduced.reps, reduced.combos, reduced.constraints) == ((), {"a": {}, "b": {}}, [])
    assert_reduces_like_reference(problem)
    witness = psd_feasibility(reduced)
    assert isinstance(witness, SoSWitness)
    assert (witness.gram.shape, witness.iterations) == ((0, 0), 0)
    assert {lab: v.shape for lab, v in witness.vectors.items()} == {"a": (0,), "b": (0,)}


def test_the_driver_reports_a_stalled_solve_as_reject_numeric(monkeypatch):
    stalled = NumericReject(0.5, 600, [(1, 0.75), (25, 0.5), (600, 0.5)])
    monkeypatch.setattr(hierarchies, "psd_feasibility", lambda reduced: stalled)
    verdict = sdp(clique(4), clique(3))
    assert verdict.status is Status.REJECT_NUMERIC
    assert verdict.certificate is stalled
    assert verdict.stats["iterations"] == 600
    doc = json.loads(verdict.to_json())
    assert doc["verdict"] == "reject-numeric"
    assert doc["certificate"] == {"rigorous": False, "residual": 0.5, "iterations": 600,
                                  "residual_trace": [[1, 0.75], [25, 0.5], [600, 0.5]]}


# -- dual certificates ----------------------------------------------------------------------


@pytest.mark.parametrize("driver, k, X, iterations", [
    ("sos", 1, clique(4), 50), ("sos", 2, clique(4), 25), ("sos", 1, wheel(5), 125),
    ("sdp", None, clique(4), 75), ("sdp", None, wheel(5), 175),
], ids=["sos1-K4", "sos2-K4", "sos1-W5", "sdp-K4", "sdp-W5"])
def test_an_infeasible_gram_problem_is_refuted_exactly(driver, k, X, iterations):
    # no 3-colouring of K4 or of the odd wheel W5 survives the vector relaxations
    verdict = sdp(X, clique(3)) if driver == "sdp" else sos(X, clique(3), k)
    assert verdict.status is Status.REJECT
    certificate = verdict.certificate
    assert isinstance(certificate, DualCertificate)
    assert certificate.iterations == verdict.stats["iterations"] == iterations
    assert verify_dual_certificate(certificate)
    reduced = affine_reduce(gram_problem(driver, k, X, clique(3)))
    assert (certificate.reps, certificate.constraints) == (reduced.reps, reduced.constraints)
    doc = json.loads(verdict.to_json())["certificate"]
    assert len(doc["multipliers"]) == len(doc["constraints"]) == len(reduced.constraints)


def test_a_dual_certificate_needs_no_unit_group_when_s_is_definite():
    # ||a||^2 = -1 alone: S = y C is positive definite without the unit groups' slack
    reduced = ReducedGramProblem(("a",), {"a": {"a": 1}}, [({(0, 0): 1}, -1)])
    certificate = psd_feasibility(reduced)
    assert isinstance(certificate, DualCertificate)
    assert certificate.iterations == DUAL_EVERY
    assert verify_dual_certificate(certificate)


def sos2_k4_k3_certificate() -> DualCertificate:
    certificate = sos(clique(4), clique(3), 2).certificate
    assert verify_dual_certificate(certificate)
    return certificate


def with_one_multiplier_changed(certificate: DualCertificate) -> list:
    # a unit group's multiplier, moved so that y^T b is 0
    y, constraints = list(certificate.multipliers), certificate.constraints
    i = next(i for i, (_, rhs) in enumerate(constraints) if rhs)
    y[i] -= sum(yj * rhs for yj, (_, rhs) in zip(y, constraints)) / constraints[i][1]
    return y


def with_s_indefinite(certificate: DualCertificate) -> list:
    # an orthogonal pair's form, with y^T b unchanged, swamps S in the off-diagonal
    i = next(i for i, (row, rhs) in enumerate(certificate.constraints)
             if not rhs and all(s != t for s, t in row))
    y = list(certificate.multipliers)
    y[i] += 10**6
    return y


@pytest.mark.parametrize("tamper", [
    with_one_multiplier_changed,
    lambda c: [-y for y in c.multipliers],
    lambda c: c.multipliers[:-1],
    lambda c: [float(c.multipliers[0])] + c.multipliers[1:],
    with_s_indefinite,
], ids=["one-multiplier", "sign-flipped", "one-short", "float-entry", "s-indefinite"])
def test_a_tampered_dual_certificate_fails(tamper):
    certificate = sos2_k4_k3_certificate()
    tampered = DualCertificate(certificate.reps, certificate.constraints, tamper(certificate),
                               certificate.iterations)
    assert not verify_dual_certificate(tampered)


def with_first_key(row: dict, key) -> dict:
    first = next(iter(row))
    return {(key(*first) if st == first else st): v for st, v in row.items()}


@pytest.mark.parametrize("tamper", [
    lambda row, rhs, n: (with_first_key(row, lambda s, t: (s - n, t - n)), rhs),
    lambda row, rhs, n: (with_first_key(row, lambda s, t: (s, n)), rhs),
    lambda row, rhs, n: ({st: float(v) for st, v in row.items()}, rhs),
    lambda row, rhs, n: (row, float(rhs)),
], ids=["negative-index", "index-past-reps", "float-coefficient", "float-rhs"])
def test_a_malformed_constraint_fails(tamper):
    # the first constraint has a nonzero multiplier; a negative index would
    # wrap to the entry it was shifted from, and the float right-hand side
    # sums to the same y^T b
    certificate = sos2_k4_k3_certificate()
    assert certificate.multipliers[0]
    constraints = list(certificate.constraints)
    constraints[0] = tamper(*constraints[0], len(certificate.reps))
    tampered = DualCertificate(certificate.reps, constraints, certificate.multipliers,
                               certificate.iterations)
    assert not verify_dual_certificate(tampered)


def test_the_driver_refuses_a_dual_certificate_that_fails(monkeypatch):
    certificate = sos2_k4_k3_certificate()
    forged = DualCertificate(certificate.reps, certificate.constraints,
                             [-y for y in certificate.multipliers], certificate.iterations)
    monkeypatch.setattr(hierarchies, "psd_feasibility", lambda reduced: forged)
    with pytest.raises(InvalidWitness):
        sos(clique(4), clique(3), 2)


@pytest.mark.parametrize("upper, definite", [
    ([[2, 1], [0, 2]], True),
    ([[1, 2], [0, 1]], False),  # indefinite
    ([[1, 1], [0, 1]], False),  # singular
    ([[4, 2, 2], [0, 5, 3], [0, 0, 6]], True),
    ([[4, 2, 2], [0, 5, 3], [0, 0, 1]], False),  # the last leading minor alone is negative
    ([[0]], False),
], ids=["pd", "indefinite", "singular", "pd3", "last-minor", "zero"])
def test_positive_definiteness_is_decided_by_the_leading_minors(upper, definite):
    assert _positive_definite([list(row) for row in upper]) is definite
    full = np.triu(np.array(upper, dtype=float))
    full = full + np.triu(full, 1).T
    assert bool(np.linalg.eigvalsh(full)[0] > 1e-12) is definite


@pytest.mark.parametrize("solve", [
    lambda: psd_feasibility(affine_reduce(_sdp_problem(clique(2), clique(3)))),
    lambda: sdp(clique(2), clique(3)).witness,
], ids=["cold", "driver"])
def test_an_accept_carries_the_vectors_of_its_gram_matrix(solve):
    witness = solve()
    assert isinstance(witness, SoSWitness)
    V = np.array([witness.vectors[rep] for rep in witness.labels])
    assert np.max(np.abs(V @ V.T - witness.gram)) <= 1e-9
    assert set(witness.vectors) == set(_sdp_problem(clique(2), clique(3)).labels)


def test_an_affine_reject_traces_derived_steps_only():
    verdict = sdp(clique(3), clique(2))
    assert isinstance(verdict.certificate, Inconsistent)
    steps = verdict.certificate.steps
    assert {step[0] for step in steps[:-1]} == {"zero-norm"}
    assert steps[-1][0] == "unit-group-empty"


# -- the exact reduction against its all-Fraction reference ------------------------------


def exact(value) -> Fraction:
    assert type(value) in (int, Fraction), f"{value!r} is not an exact rational"
    return Fraction(value)


def outcome_by_value(outcome):
    """An affine-phase outcome with every coefficient read as an exact rational."""
    if isinstance(outcome, Inconsistent):
        return outcome.to_doc()
    combos = {lab: {rep: exact(c) for rep, c in combo.items()}
              for lab, combo in outcome.combos.items()}
    constraints = [({key: exact(v) for key, v in row.items()}, exact(rhs))
                   for row, rhs in outcome.constraints]
    return outcome.reps, combos, constraints


def assert_reduces_like_reference(problem: GramProblem) -> None:
    assert outcome_by_value(affine_reduce(problem)) == \
        outcome_by_value(reference_affine_reduce(problem))


def assert_unit_groups_are_disjoint(problem: GramProblem) -> None:
    """No label is in two unit groups, as in ``sdp``'s problems.  Then the
    early unit-row tests of ``affine_reduce`` close an ``Inconsistent`` with
    the constant of the all-forms-first reference; ``sos``'s groups share the
    columns that two scopes share, and there only the outcome kind is sure."""
    grouped = [lab for group in problem.unit_groups for lab in group]
    assert len(grouped) == len(set(grouped))


def gram_problem(driver: str, k, X, A) -> GramProblem:
    return _sdp_problem(X, A) if driver == "sdp" else sos_problem(X, A, k)


def benchmark_workloads():
    """``minionbench/workloads.py``, imported from its own directory and left as it is."""
    bench = str(Path(minionlab.__file__).parent.parent.parent / "minionbench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)


# the queries of the gram benchmark workload
GRAM_QUERIES = [(q.driver, q.k, q.x, q.a) for q in benchmark_workloads().GRAM]


@pytest.mark.slow
def test_the_gram_workload_reduces_like_the_reference():
    for driver, k, x, a in GRAM_QUERIES:
        problem = gram_problem(driver, k, named(x), named(a))
        if driver == "sdp":
            assert_unit_groups_are_disjoint(problem)
        assert_reduces_like_reference(problem)


def key_form_outcome(Xk, Ak, k: int):
    """The reduction of ``sos``'s problem by value, its combos lifted to one per key.

    A key takes the combo of its column's label, and a pinned key the empty
    combo, so the outcome compares with the reduction of a problem with one
    label per key.  None when the marginal LP rejects, as ``sos`` then poses
    no Gram problem.
    """
    keys, scopes, identities, repeats = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
    presolved = _linear_system(DomainTag.NONNEG_RAT, keys, scopes, identities, repeats)
    if not lp_feasible(presolved.system, DEFAULT_BUDGET).feasible:
        return None
    problem = _sos_problem(presolved, scopes)
    assert_reduces_like_reference(problem)
    outcome = outcome_by_value(affine_reduce(problem))
    if isinstance(outcome, dict):
        return outcome
    reps, combos, constraints = outcome
    names = presolved.system.var_names
    lifted = {("c",) + key: combos[("c",) + names[j]] if j >= 0 else {}
              for key, j in zip(keys, presolved.columns)}
    return reps, lifted, constraints


def sweep_or_gram(case: str) -> list:
    """The (X, A, k) of gram's ``sos`` queries, or ``sos``^1 and ``sos``^2 over
    the 3-vertex sweep into one target."""
    if case == "gram":
        return [(named(x), named(a), k) for driver, k, x, a in GRAM_QUERIES if driver == "sos"]
    return [(X, named(case), k) for X in digraphs_up_to_renaming(3) for k in (1, 2)]


# (problems posed, of which Inconsistent): 136 and 46 in all
POSED = {"gram": (17, 7), "K2": (32, 14), "K3": (32, 0), "C4": (32, 14), "DT": (23, 11)}


@pytest.mark.slow
@pytest.mark.parametrize("case", POSED)
def test_sos_on_the_presolved_columns_reduces_like_the_full_statement(case):
    # the problem on the columns, lifted to keys, reduces like the problem
    # stating every identity of every scope over one label per key; its
    # Inconsistents trace other steps, over columns, so only the kind is compared
    posed = inconsistent = 0
    for X, A, k in sweep_or_gram(case):
        Xk, Ak = k_enhance(X, k), k_enhance(A, k)
        outcome = key_form_outcome(Xk, Ak, k)
        if outcome is None:
            continue
        full = outcome_by_value(affine_reduce(
            dict_row_gram_problem(*dict_row_marginal_rows(Xk, Ak, k))))
        if isinstance(full, dict):
            assert isinstance(outcome, dict), (X.name, A.name, k)
        else:
            assert outcome == full, (X.name, A.name, k)
        posed += 1
        inconsistent += isinstance(full, dict)
    assert (posed, inconsistent) == POSED[case]


@pytest.mark.slow
def test_an_sos_accept_carries_a_vector_for_every_key():
    # the witness is lifted from the columns: a merged key takes its column's
    # vector, and a pinned key the zero vector
    cases = [(named(x), named(a), k) for driver, k, x, a in GRAM_QUERIES if driver == "sos"]
    cases.append((mycielski(cycle(5)), clique(3), 1))
    accepts = pinned = 0
    for X, A, k in cases:
        verdict = sos(X, A, k)
        if not verdict.accepted:
            continue
        accepts += 1
        Xk, Ak = k_enhance(X, k), k_enhance(A, k)
        vectors = verdict.witness.vectors
        assert set(vectors) == sos_keys(Xk, Ak), (X.name, A.name, k)
        presolved = _linear_system(DomainTag.NONNEG_RAT, *_marginal_rows(Xk, Ak, k, DEFAULT_BUDGET))
        for key, j in zip(presolved.key_order, presolved.columns):
            if j < 0:
                assert not vectors[("c",) + key].any(), key
                pinned += 1
        assert sos_violation(Xk, Ak, k, vectors) <= 1e-6, (X.name, A.name, k)
    assert (accepts, pinned) == (10, 42)


def test_sdp_poses_the_gram_problem_it_wrote_out_loop_by_loop():
    pairs = [(X, A) for A in (clique(2), clique(3), cycle(4), directed_triangle())
             for X in digraphs_up_to_renaming(3)]
    pairs += [(X, A) for A in (clique(3), clique(4))
              for X in (clique(2), clique(3), clique(4), cycle(5), wheel(5), mycielski(cycle(5)))]
    for X, A in pairs:
        assert _sdp_problem(X, A) == reference_sdp_problem(X, A), (X.name, A.name)


@pytest.mark.slow
def test_the_projector_matches_the_dense_pseudo_inverse():
    reduced = [affine_reduce(gram_problem(driver, k, named(x), named(a)))
               for driver, k, x, a in GRAM_QUERIES]
    reduced = [r for r in reduced if not isinstance(r, Inconsistent)] + [contradictory()]
    assert len(reduced) == 17
    rng = np.random.default_rng(0)
    for r in reduced:
        n = len(r.reps)
        projector, reference = _AffineProjector(n, r.constraints), \
            ReferenceAffineProjector(n, r.constraints)
        for m in rng.uniform(-1.0, 1.0, (3, n, n)):
            G = (m + m.T) / 2.0
            assert np.max(np.abs(projector.project(G) - reference.project(G))) <= 1e-12
            assert abs(projector.violation(G) - reference.violation(G)) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("driver, k", [("sdp", None), ("sos", 1), ("sos", 2)],
                         ids=["sdp", "sos1", "sos2"])
@pytest.mark.parametrize("target", ["K2", "K3", "C4", "DT"])
def test_the_three_vertex_sweep_reduces_like_the_reference(driver, k, target):
    # into C4 and DT nearly every problem ends on an early unit-row test
    for X in digraphs_up_to_renaming(3):
        problem = gram_problem(driver, k, X, named(target))
        if driver == "sdp":
            assert_unit_groups_are_disjoint(problem)
        assert_reduces_like_reference(problem)


@pytest.fixture
def gram_rows(monkeypatch) -> list:
    """The right-hand side of each row reduced against a Gram echelon, in order:
    0 for an orthogonality form, 1 for a unit row."""
    seen = []

    class Spy(psd._Echelon):
        def reduce(self, row: dict) -> dict:
            if () in row:
                seen.append(row[()])
            return super().reduce(row)

    monkeypatch.setattr(psd, "_Echelon", Spy)
    return seen


def test_a_unit_group_is_refuted_as_soon_as_its_own_pairs_are_in(gram_rows):
    # the first variable's 6 orthogonality forms already span its unit row;
    # pushing every form before any unit row took 435 reductions
    problem = _sdp_problem(cycle(7), cycle(4))
    outcome = affine_reduce(problem)
    assert isinstance(outcome, Inconsistent)
    assert gram_rows == [0] * 6 + [1]
    assert outcome.to_doc() == reference_affine_reduce(problem).to_doc()


def test_a_contradiction_of_several_unit_rows_is_left_to_the_unit_pass(gram_rows):
    # ||a||^2 + ||b||^2 = 1, ||a||^2 = 1 and ||b||^2 = 1 clash only together:
    # the early test of (a, b), after <a, b> = 0, passes, and the unit pass refutes
    problem = GramProblem(("a", "b"), (("a", "b"), ("a",), ("b",)), (("a", "b"),), ())
    outcome = affine_reduce(problem)
    assert isinstance(outcome, Inconsistent)
    assert gram_rows == [0, 1, 1, 1, 1]
    assert outcome.to_doc() == reference_affine_reduce(problem).to_doc()


def test_a_unit_group_with_the_members_of_an_earlier_one_is_reduced_once(gram_rows):
    # (a, b) and (b, a) are one group: its early test and its unit row are
    # reduced once, and the reduction is the reference's
    problem = GramProblem(("a", "b", "c"), (("a", "b"), ("c",), ("b", "a")),
                          (("a", "b"), ("b", "a")), ())
    reduced = affine_reduce(problem)
    assert gram_rows == [0, 1, 1, 1]
    assert reduced.constraints == [({(0, 1): 1}, 0), ({(0, 0): 1, (1, 1): 1}, 1), ({(2, 2): 1}, 1)]
    assert reduced.unit_groups == problem.unit_groups
    assert_reduces_like_reference(problem)


def non_unit_problem(*extra_groups) -> GramProblem:
    """2a + 3b - c/2 = 0 and 3d - 2a = 0: pivots c and d are not units, so d = 2a/3."""
    idents = ((("a", 2), ("b", 3), ("c", Fraction(-1, 2))), (("d", 3), ("a", -2)))
    groups = (("a", "d"), ("b", "c")) + extra_groups
    return GramProblem(("a", "b", "c", "d"), groups, (("a", "b"),), idents)


def test_a_non_unit_pivot_reduces_like_the_reference():
    assert_reduces_like_reference(non_unit_problem())
    assert affine_reduce(non_unit_problem()).combos["d"] == {"a": Fraction(2, 3)}
    # ||a||^2 = 1 against (1 + 4/9) ||a||^2 = 1
    assert_reduces_like_reference(non_unit_problem(("a",)))
    assert affine_reduce(non_unit_problem(("a",))).steps == [("affine-contradiction", "0 = 4/13")]


def test_proportionality_stays_exact_on_large_ints():
    # float division reads both ratios as 1e17
    assert not _proportional({"c": 10**17 + 1, "d": 10**17}, {"c": 1, "d": 1})
    assert _proportional({"c": 6, "d": -4}, {"c": 3, "d": -2})


def growing_problem(group: tuple) -> GramProblem:
    """Forced zeros that grow over three rounds: b, then a, then c.

    g = b makes <g, b> = 0 force b = 0.  That rewrites the row of d = a + b
    to d = a, so <d, a> = 0 forces a = 0 in the next round, which rewrites
    f = a + c to f = c, so <f, c> = 0 forces c = 0 in the round after.
    """
    idents = ((("d", 1), ("a", -1), ("b", -1)), (("f", 1), ("a", -1), ("c", -1)),
              (("g", 1), ("b", -1)))
    pairs = (("d", "a"), ("f", "c"), ("g", "b"))
    return GramProblem(("a", "b", "c", "d", "f", "g", "h"), (group,), pairs, idents)


def test_forced_zeros_that_grow_over_three_rounds_reduce_like_the_reference():
    collapsed = growing_problem(("a", "b", "c"))
    assert affine_reduce(collapsed).steps == [
        ("zero-norm", "g", "b"), ("zero-norm", "d", "a"), ("zero-norm", "f", "c"),
        ("unit-group-empty", "a, b, c")]
    assert_reduces_like_reference(collapsed)
    # with h in the group, every other vector is zero and ||h||^2 = 1 is left
    feasible = growing_problem(("a", "b", "c", "h"))
    reduced = affine_reduce(feasible)
    assert reduced.combos == {lab: {"h": 1} if lab == "h" else {} for lab in feasible.labels}
    assert reduced.constraints == [({(0, 0): 1}, 1)]
    assert_reduces_like_reference(feasible)


@pytest.mark.slow
@pytest.mark.parametrize("relax", [lambda X, A: sdp(X, A), lambda X, A: sos(X, A, 1)],
                         ids=["sdp", "sos1"])
def test_the_vector_relaxations_decide_the_small_graphs_into_k3(relax):
    # sdp and sos^1 into K3 accept exactly the 3-colourable graphs on 4 and 5
    # vertices, and refute each graph on 4-6 vertices that is not with a dual
    # certificate.  The 3-colourable graphs on 6 vertices are left out: on
    # some of them the loop takes thousands of iterations to accept
    k3 = clique(3)
    accepts = rejects = 0
    for n in (4, 5, 6):
        for X in graphs_up_to_isomorphism(n):
            colourable = oracle(X, k3).accepted
            if colourable and n == 6:
                continue
            verdict = relax(X, k3)
            assert verdict.accepted == colourable, X.name
            if not colourable:
                assert isinstance(verdict.certificate, DualCertificate), X.name
                assert verify_dual_certificate(verdict.certificate)
            accepts += colourable
            rejects += not colourable
    assert (accepts, rejects) == (39, 43)
