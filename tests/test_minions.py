"""The minions of the hierarchies, as the drivers realise them.

Horn elements are the nonempty subsets of ``HornFreeStructure``.  Stochastic,
affine and combined elements are the weights of the marginal system, read
over the nonnegative rationals (``sa``), the integers (``aip``) or both
(``ba``).  Orthogonal elements are the vectors of ``sdp``.  A minor along a
map of positions pushes a scope's weights forward along ``project``.
"""

import itertools
import random

import pytest

from minionlab import Signature, Status, Structure, aip, ba, project, sa, sdp
from minionlab import verify_farkas, verify_parity_certificate
from minionlab.errors import InvalidWitness
from minionlab.free_structures import HornFreeStructure
from minionlab.budgets import DEFAULT_BUDGET
from minionlab.hierarchies import _marginal_rows, validate_marginal_witness
from minionlab.rationals import is_integral, rat
from minionlab.structures import k_enhance

from conftest import clique, not_all_equal, one_in_three, random_structure
from references import check_sdp_facts, domain_masks, materialize

XY = ("x", "y")


def edge() -> Structure:
    return Structure(Signature.of({"R": 2}), list(XY), {"R": [XY]})


def pushforward(weights: dict, i: tuple) -> dict:
    """The minor of a weighting of tuples along the positions ``i``."""
    out: dict = {}
    for t, w in weights.items():
        b = project(t, i)
        out[b] = out.get(b, rat(0)) + w
    return {b: w for b, w in out.items() if w != 0}


def scope_weights(values: dict, sym: str, xt: tuple) -> dict:
    return {at: w for (s, x, at), w in values.items() if s == sym and x == xt and w != 0}


def zero_values(Xk: Structure, Ak: Structure) -> dict:
    return {(sym, xt, at): rat(0) for sym in Xk.signature.names()
            for xt in Xk.tuples(sym) for at in Ak.tuples(sym)}


def cancelling_witness():
    """Integer weights on the edge into K3 that cancel: (0,1) + (1,2) - (0,2).

    Both marginals land on "1", so x and y go to the same atom; no
    nonnegative weighting can do that, since K3 has no loop.
    """
    Xk, Ak = k_enhance(edge(), 1), k_enhance(clique(3), 1)
    values = zero_values(Xk, Ak)
    values[("R", XY, ("0", "1"))] = rat(1)
    values[("R", XY, ("1", "2"))] = rat(1)
    values[("R", XY, ("0", "2"))] = rat(-1)
    values[("R_1", ("x",), ("1",))] = rat(1)
    values[("R_1", ("y",), ("1",))] = rat(1)
    return values, Xk, Ak


# -- membership -------------------------------------------------------------------


def test_stochastic_membership():
    X, A = clique(2), clique(3)
    values = sa(X, A, 1).witness.values
    Xk, Ak = k_enhance(X, 1), k_enhance(A, 1)
    validate_marginal_witness(values, Xk, Ak, 1)
    doubled = {key: 2 * v if key[0] == "R" else v for key, v in values.items()}
    with pytest.raises(InvalidWitness, match="unit mass"):
        validate_marginal_witness(doubled, Xk, Ak, 1)
    keys, *_ = _marginal_rows(Xk, Ak, 1, DEFAULT_BUDGET)
    key = next(key for key in keys if values.get(key, 0) == 0)
    negative = values | {key: rat(-1, 3)}
    with pytest.raises(InvalidWitness, match="negative"):
        validate_marginal_witness(negative, Xk, Ak, 1)


def test_affine_membership_allows_negatives():
    values, Xk, Ak = cancelling_witness()
    validate_marginal_witness(values, Xk, Ak, 1, integral=True)
    assert aip(edge(), clique(3), 1).status is Status.ACCEPT
    doubled = {key: 2 * v for key, v in values.items()}
    with pytest.raises(InvalidWitness, match="unit mass"):
        validate_marginal_witness(doubled, Xk, Ak, 1, integral=True)


def test_orthogonal_membership():
    verdict = sdp(clique(2), clique(2))
    assert verdict.status is Status.ACCEPT
    vectors = verdict.witness.vectors
    assert check_sdp_facts(vectors, clique(2), clique(2)).ok
    label = next(lab for lab, v in vectors.items() if lab[0] == "c" and float(v @ v) > 0.1)
    stretched = dict(vectors) | {label: 2 * vectors[label]}
    assert not check_sdp_facts(stretched, clique(2), clique(2)).ok


def test_combined_membership_matrix_form():
    X, A = one_in_three(), not_all_equal()
    verdict = ba(X, A, 1)
    assert verdict.status is Status.ACCEPT
    witness = verdict.witness
    Xk, Ak = k_enhance(X, 1), k_enhance(A, 1)
    validate_marginal_witness(witness.lp.values, Xk, Ak, 1)
    validate_marginal_witness(witness.ip.values, Xk, Ak, 1, integral=True)
    assert {key for key, v in witness.lp.values.items() if v > 0} == witness.maximal_support
    assert {key for key, v in witness.ip.values.items() if v != 0} <= witness.maximal_support


def test_horn_membership_rejects_zero():
    free = HornFreeStructure(clique(2))
    assert 0 not in domain_masks(free)
    assert not free.admits("R", (0, 1))
    assert not free.admits("R", (0, 0))
    assert free.admits("R", (1, 2))


# -- minors -----------------------------------------------------------------------


def test_identity_minor_preserves_element():
    values = sa(clique(2), clique(3), 2).witness.values
    weights = scope_weights(values, "R", ("0", "1"))
    assert weights
    assert pushforward(weights, (1, 2)) == weights


def test_merging_minor_on_stochastic():
    # merging both positions sends all mass onto the diagonal of R_2
    values = sa(clique(2), clique(3), 2).witness.values
    merged = pushforward(scope_weights(values, "R", ("0", "1")), (1, 1))
    assert all(b[0] == b[1] for b in merged)
    assert sum(merged.values()) == 1
    assert merged == scope_weights(values, "R_2", ("0", "0"))


def test_minor_composition_random():
    rng = random.Random(5)
    for _ in range(40):
        L, L2, L3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        i = tuple(rng.randint(1, L) for _ in range(L2))
        j = tuple(rng.randint(1, L2) for _ in range(L3))
        composed = tuple(i[m - 1] for m in j)
        weights = {}
        for t in itertools.product("ab", repeat=L):
            if rng.random() < 0.5:
                weights[t] = rat(rng.randint(1, 4))
        for t in weights:
            assert project(project(t, i), j) == project(t, composed)
        assert pushforward(pushforward(weights, i), j) == pushforward(weights, composed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minor_preserves_membership_sampled(seed):
    # every minor of an accepted scope is again stochastic (sa) or affine
    # (aip), and it is the enhancement weight at the projected scope
    rng = random.Random(seed)
    k = 2
    for _ in range(4):
        X = random_structure(rng, 3, rng.randint(1, 4))
        A = random_structure(rng, 3, rng.randint(2, 5))
        for driver, integral in ((sa, False), (aip, True)):
            verdict = driver(X, A, k)
            if verdict.status is Status.REJECT:
                evidence = verdict.certificate
                check = verify_parity_certificate if integral else verify_farkas
                assert check(evidence.certificate, evidence.system)
                continue
            values = verdict.witness.values
            for xt in X.tuples("R"):
                weights = scope_weights(values, "R", xt)
                for i in itertools.product((1, 2), repeat=k):
                    minor = pushforward(weights, i)
                    assert sum(minor.values()) == 1
                    assert all((w >= 0) or integral for w in minor.values())
                    assert all(is_integral(w) or not integral for w in minor.values())
                    assert minor == scope_weights(values, "R_2", project(xt, i))


def test_minor_preserves_membership_horn_exhaustive():
    # a free relation tuple is the coordinatewise minor of a nonempty Q
    for base in (clique(2), clique(3), one_in_three()):
        free = HornFreeStructure(base)
        arity = base.signature.arity("R")
        tuples = base.tuples("R")
        images = set()
        for size in range(1, len(tuples) + 1):
            for Q in itertools.combinations(tuples, size):
                images.add(tuple(
                    sum({1 << base.atom_id(project(t, (pos,))[0]) for t in Q})
                    for pos in range(1, arity + 1)
                ))
        assert materialize(free, "R") == images
        for masks in itertools.product(domain_masks(free), repeat=arity):
            assert free.admits("R", masks) == (masks in images)


# -- cancellation ---------------------------------------------------------------------


def test_affine_with_cancellation_is_not_conic():
    values, Xk, Ak = cancelling_witness()
    with pytest.raises(InvalidWitness, match="negative"):
        validate_marginal_witness(values, Xk, Ak, 1)


# -- semi-direct products ------------------------------------------------------------------


def test_semidirect_combined_example():
    # the integer part of ba's witness lives inside the LP part's support,
    # and each part is a witness of sa and aip in its own right
    X, A = clique(2), clique(3)
    verdict = ba(X, A, 1)
    assert verdict.status is Status.ACCEPT
    assert sa(X, A, 1).status is Status.ACCEPT
    assert aip(X, A, 1).status is Status.ACCEPT
    witness = verdict.witness
    ip_support = {key for key, v in witness.ip.values.items() if v != 0}
    assert ip_support and ip_support <= witness.maximal_support
