"""Projection identities of the level-k marginal system.

Projecting a relation onto the positions ``i`` groups its tuples by their
image under ``project``.  The marginal system states that grouping as one
identity per (scope, index tuple, image): the weights of the scope's images
that project onto ``b`` sum to the enhancement weight at ``b``.  These tests
read the identities of ``_marginal_rows`` directly.
"""

import itertools

import pytest

from minionlab import (
    Certificate,
    CertificateKind,
    DomainTag,
    LinearSystem,
    Signature,
    Status,
    Structure,
    diophantine_solve,
    lp_feasible,
    precedes,
    project,
    sa,
    verify_farkas,
)
from minionlab.budgets import DEFAULT_BUDGET
from minionlab.errors import MalformedInput, WrongKind
from minionlab.hierarchies import _marginal_rows
from minionlab.rationals import rat
from minionlab.structures import k_enhance

from conftest import clique
from references import certificate_from_json, identity_row

XY = ("x", "y")


def one_scope(sym: str, k: int) -> Structure:
    """The k-enhanced source on ("x", "y"), whose R holds that pair when ``sym`` is R.

    Either way ("x", "y") is a scope of ``sym``: ``R_k`` holds every k-tuple.
    """
    source = Structure(Signature.of({"R": 2}), list(XY), {"R": [XY] if sym == "R" else []})
    return k_enhance(source, k)


def rows_by_marginal(Xk: Structure, Ak: Structure, k: int) -> dict:
    """Each identity of the scope under test keyed by its enhancement variable,
    mapped to the variables it sums.

    The scope under test is ("x", "y") under the first symbol holding it:
    ``one_scope`` leaves R empty unless R is the symbol tested.  An identity
    is kept when every variable it sums lies in that scope, which keeps the
    one-entry rows of cells no image projects onto.  With one scope of
    distinct atoms, index tuples with distinct projections give distinct
    enhancement variables, so the keys do not collide.
    """
    sym = next(s for s in Xk.signature.names() if Xk.has_tuple(s, XY))
    keys, _, id_rows, _ = _marginal_rows(Xk, Ak, k, DEFAULT_BUDGET)
    identities = [{keys[v]: c for v, c in identity_row(ident).items()} for ident in id_rows]
    identities = [row for row in identities
                  if all(key[:2] == (sym, XY) for key, c in row.items() if c == 1)]
    out = {}
    for row in identities:
        (enh,) = [key for key, c in row.items() if c == -1]
        assert all(c == 1 for key, c in row.items() if key != enh)
        out[enh] = {key for key in row if key != enh}
    assert len(out) == len(identities)
    return out


def test_relation_projection_tensor_k2_first_coordinate(k2):
    rows = rows_by_marginal(one_scope("R", 1), k_enhance(k2, 1), 1)
    assert rows[("R_1", ("x",), ("0",))] == {("R", XY, ("0", "1"))}
    assert rows[("R_1", ("x",), ("1",))] == {("R", XY, ("1", "0"))}


def test_relation_projection_empty_relation():
    A = Structure(Signature.of({"R": 2}), ["0"], {"R": []})
    X = Structure(Signature.of({"R": 2}), list(XY), {"R": [XY]})
    keys, scopes, *_ = _marginal_rows(k_enhance(X, 1), k_enhance(A, 1), 1, DEFAULT_BUDGET)
    # the scope (R, XY) comes first and has no image, so no variable and an empty range
    assert len(scopes[0]) == 0 and not [key for key in keys if key[:2] == ("R", XY)]
    verdict = sa(X, A, 1)
    assert verdict.status is Status.REJECT
    assert verify_farkas(verdict.certificate.certificate, verdict.certificate.system)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_projection_row_law_exhaustive(n, k):
    # the identity at (i, a) sums exactly the relation tuples projecting onto a
    A = clique(n)
    rows = rows_by_marginal(one_scope("R", k), k_enhance(A, k), k)
    for i in itertools.product((1, 2), repeat=k):
        xi = project(XY, i)
        for a in itertools.product(A.domain, repeat=k):
            expected = {("R", XY, t) for t in A.tuples("R") if project(t, i) == a}
            key = (f"R_{k}", xi, a)
            if precedes(xi, a):
                assert rows[key] == expected
            else:
                assert not expected and key not in rows


@pytest.mark.parametrize("n", [2, 3])
def test_power_projection_row_law(n):
    A = clique(n)
    k = 2
    rows = rows_by_marginal(one_scope("R_2", k), k_enhance(A, k), k)
    for i in itertools.product((1, 2), repeat=k):
        if i == (1, 2):
            continue
        xi = project(XY, i)
        for a in itertools.product(A.domain, repeat=k):
            expected = {("R_2", XY, b) for b in itertools.product(A.domain, repeat=k)
                        if project(b, i) == a}
            key = ("R_2", xi, a)
            if precedes(xi, a):
                assert rows[key] == expected
            else:
                assert not expected and key not in rows


def test_power_projection_matches_relation_projection_on_enhancement(k2):
    # R_2 holds the domain pairs in canonical order, so a scope read over the
    # full binary relation has the identities of an R_2 scope
    k = 2
    enhanced = k_enhance(k2, k)
    assert enhanced.tuples("R_2") == tuple(itertools.product(k2.domain, repeat=k))
    full = Structure(Signature.of({"R": 2}), k2.domain, {"R": enhanced.tuples("R_2")})
    relation_rows = rows_by_marginal(one_scope("R", k), k_enhance(full, k), k)
    power_rows = rows_by_marginal(one_scope("R_2", k), enhanced, k)
    renamed = {key: {("R_2",) + var[1:] for var in summed}
               for key, summed in relation_rows.items() if key[1] != XY}
    assert renamed == power_rows


def test_identity_index_projection_acts_as_identity(k2):
    # along (1, 2) an R_2 scope projects onto itself: the identity cancels
    for b in itertools.product(k2.domain, repeat=2):
        assert project(b, (1, 2)) == b
    rows = rows_by_marginal(one_scope("R_2", 2), k_enhance(k2, 2), 2)
    assert rows and all(key[1] != XY for key in rows)


def test_constant_index_support_size(k2):
    # along (1, 1) weight at b reaches (a, a) iff b1 == a: 2 diagonals, 2 choices of b2
    rows = rows_by_marginal(one_scope("R_2", 2), k_enhance(k2, 2), 2)
    constant = [summed for key, summed in rows.items() if key[1] == ("x", "x")]
    assert len(constant) == 2
    assert sum(len(summed) for summed in constant) == 4


def test_contract_shape_and_semiring_errors():
    with pytest.raises(MalformedInput):
        LinearSystem(("x", "y"), ({0: rat(1)},), (), DomainTag.NONNEG_RAT)
    with pytest.raises(MalformedInput):
        LinearSystem(("x",), ({1: rat(1)},), (rat(1),), DomainTag.NONNEG_RAT)
    integer = LinearSystem(("x",), ({0: rat(2)},), (rat(1),), DomainTag.INT)
    with pytest.raises(WrongKind):
        lp_feasible(integer)
    rational = LinearSystem(("x",), ({0: rat(2)},), (rat(1),), DomainTag.NONNEG_RAT)
    with pytest.raises(WrongKind):
        diophantine_solve(rational)


def test_json_round_trip():
    cert = Certificate(CertificateKind.FARKAS, farkas=(rat(1, 3), rat(0), rat(-2), rat(5, 7)))
    again = certificate_from_json(cert.to_json())
    assert again == cert
