"""The two Gram phases: the exact affine reduction and the float projections."""

import numpy as np
import pytest

from minionlab import sdp
from minionlab.budgets import DEFAULT_BUDGET
from minionlab.hierarchies import _gram_problem, _marginal_rows, _sdp_problem
from minionlab.psd import (
    GramProblem,
    Inconsistent,
    NumericReject,
    ReducedGramProblem,
    SoSWitness,
    _AffineProjector,
    affine_reduce,
    psd_feasibility,
)
from minionlab.structures import k_enhance

from conftest import clique, cycle


def sos_problem(X, A, k: int) -> GramProblem:
    Xk, Ak = k_enhance(X, k), k_enhance(A, k)
    return _gram_problem(*_marginal_rows(Xk, Ak, k, DEFAULT_BUDGET))


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
    return ReducedGramProblem(("a", "b"), ("a", "b"), {"a": {"a": 1}, "b": {"b": 1}}, rows)


@pytest.mark.parametrize("build, outcome", [
    (lambda: affine_reduce(_sdp_problem(clique(2), clique(3))), SoSWitness),
    (lambda: affine_reduce(_sdp_problem(clique(4), clique(3))), NumericReject),
    (contradictory, NumericReject),
], ids=["sdp-K2-K3", "sdp-K4-K3", "contradictory"])
def test_psd_feasibility_accepts_or_gives_up(build, outcome):
    assert type(psd_feasibility(build())) is outcome


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
