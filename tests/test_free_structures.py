"""The Horn free structure and the levels of the Horn minion test; level 1 is
the direct test on the pair itself."""

import itertools

import pytest

from minionlab import (
    HornFreeStructure,
    Status,
    check_vanishing,
    minion_test_horn_level,
)
from minionlab import Signature, Structure
from minionlab.errors import NotAHomomorphism
from minionlab.free_structures import HornWitness
from minionlab.structures import find_homomorphism, k_enhance, tensor_power

from conftest import (
    all_digraphs,
    clique,
    cycle,
    digraph_from_mask,
    digraphs_up_to_renaming,
    not_all_equal,
    one_in_three,
)
from references import domain_masks, materialize, projections_commute, repeats_vanish


def admitted(X: Structure, free: HornFreeStructure, masks: dict) -> bool:
    """Is every mask nonempty and every tuple of X sent into the free structure?"""
    return all(map(masks.get, X.domain)) and all(free.admits(s, [masks[a] for a in t])
                                                 for s in X.signature.names() for t in X.tuples(s))


# -- materialization ------------------------------------------------------------------


def test_free_structure_of_k2_materialized(k2):
    free = HornFreeStructure(k2)
    assert domain_masks(free) == [1, 2, 3]
    rel = materialize(free, "R")
    # witnesses over the 2 edge tuples: {(0,1)}, {(1,0)}, both
    assert rel == {(1, 2), (2, 1), (3, 3)}


def test_materialized_relation_matches_lazy_predicate():
    for A in [clique(2), cycle(3), one_in_three()]:
        free = HornFreeStructure(A)
        for sym in A.signature.names():
            rel = materialize(free, sym)
            arity = A.signature.arity(sym)
            for masks in itertools.product(domain_masks(free), repeat=arity):
                assert free.admits(sym, list(masks)) == (masks in rel)


def test_canonical_embedding_is_homomorphism():
    for A in [clique(2), clique(3), cycle(5), one_in_three()]:
        # each atom to its singleton subset; the matching singleton subset of
        # the base relation witnesses every image tuple
        masks = {a: 1 << A.atom_id(a) for a in A.domain}
        assert check_vanishing(HornWitness(tuple(A.domain), tuple(A.domain), masks), A, A, 1)


def test_block_vanishing_on_tensor_square():
    # entries with a repeated cell pattern but distinct values never appear
    A = k_enhance(clique(2), 2)
    T = tensor_power(A, 2)
    free = HornFreeStructure(T)
    atom_pairs = list(itertools.product(A.domain, repeat=2))
    for sym in T.signature.names():
        arity_base = A.signature.arity(sym)
        cells = list(itertools.product(range(1, arity_base + 1), repeat=2))
        for masks in materialize(free, sym):
            for pos, cell in enumerate(cells):
                for ti, t in enumerate(atom_pairs):
                    if masks[pos] >> T.atom_id(t) & 1:
                        # cell index pattern must precede the atom tuple
                        assert not (cell[0] == cell[1] and t[0] != t[1])
                del ti


# -- level 1, the direct test ----------------------------------------------------


def test_direct_test_accepts_when_hom_exists(k2, k3):
    assert minion_test_horn_level(k2, k3, 1).accepted


def test_direct_test_identity(k3):
    assert minion_test_horn_level(k3, k3, 1).accepted


def test_direct_test_k3_k2_accepts(k3, k2):
    # arc consistency does not refute 2-coloring a triangle: the all-atoms
    # subset satisfies every edge constraint with the full witness set
    verdict = minion_test_horn_level(k3, k2, 1)
    assert verdict.accepted
    assert check_vanishing(verdict.witness, k3, k2, 1)


def test_direct_test_matches_brute_force():
    # reference: every assignment of free-structure elements, checked exactly
    # the directed path and the 2-vertex targets are asymmetric, so arc
    # consistency narrows some domains only after several passes
    directed_triangle = Structure(Signature.of({"R": 2}), ["0", "1", "2"],
                                  {"R": [("0", "1"), ("1", "2"), ("2", "0")]})
    directed_path = Structure(Signature.of({"R": 2}), ["0", "1", "2"],
                              {"R": [("0", "1"), ("1", "2")]})
    small = all_digraphs(2) + digraphs_up_to_renaming(3)
    targets = [clique(2), directed_triangle, directed_path] + all_digraphs(2)
    pairs = [(X, A) for A in targets for X in small]
    pairs += [(X, cycle(4)) for X in all_digraphs(2)]
    pairs += [(one_in_three(), not_all_equal())]
    for X, A in pairs:
        free = HornFreeStructure(A)
        verdict = minion_test_horn_level(X, A, 1)
        homs = []
        for masks in itertools.product(domain_masks(free), repeat=len(X.domain)):
            assignment = dict(zip(X.domain, masks))
            if admitted(X, free, assignment):
                homs.append(assignment)
        assert verdict.accepted == bool(homs)
        for h in homs:
            assert all(h[x] & ~verdict.witness.masks[x] == 0 for x in X.domain)
        if verdict.accepted:
            assert verdict.witness.masks in homs


def test_loop_maps_into_k2_positionally(k2):
    # Q = {(0, 1), (1, 0)} projects onto {0, 1} at both positions of the loop
    loop = Structure(Signature.of({"R": 2}), ["v"], {"R": [("v", "v")]})
    verdict = minion_test_horn_level(loop, k2, 1)
    assert verdict.accepted
    assert verdict.witness.masks == {"v": 0b11}


def test_levels_on_triangle_two_coloring(k3, k2):
    # two pebbles cannot refute 2-coloring a triangle: every pair of distinct
    # vertices is an edge, both proper colorings of it restrict and extend
    # consistently, so the full 13-map family survives; with three pebbles the
    # third vertex becomes visible and everything collapses
    assert minion_test_horn_level(k3, k2, 2).status is Status.ACCEPT
    assert minion_test_horn_level(k3, k2, 3).status is Status.REJECT


def test_level_accepts_planted_pairs():
    pairs = [(clique(2), clique(3)), (cycle(5), clique(3)), (cycle(4), clique(2))]
    for X, A in pairs:
        assert find_homomorphism(X, A) is not None
        assert minion_test_horn_level(X, A, 2).accepted


def test_level_monotone_on_corpus():
    targets = [clique(2)]
    sources = digraphs_up_to_renaming(3)[::5]
    for X in sources:
        for A in targets:
            v2 = minion_test_horn_level(X, A, 2)
            v1 = minion_test_horn_level(X, A, 1)
            if v2.accepted:
                assert v1.accepted


# -- witness structure -----------------------------------------------------------------


def test_check_vanishing_on_accept_witnesses():
    pairs = [(clique(2), clique(2)), (cycle(4), clique(2)), (clique(3), clique(3))]
    for X, A in pairs:
        verdict = minion_test_horn_level(X, A, 2)
        assert verdict.accepted
        assert check_vanishing(verdict.witness, X, A, 2)


def test_level_three_runs_past_the_free_domain_budget(c5, k3):
    # the free structure over K3^3 would have 2^27 - 1 elements
    verdict = minion_test_horn_level(c5, k3, 3)
    assert verdict.accepted
    assert check_vanishing(verdict.witness, c5, k3, 3)


def test_check_vanishing_level_one_is_vacuous(k2):
    verdict = minion_test_horn_level(k2, k2, 1)
    assert verdict.accepted
    assert check_vanishing(verdict.witness, k2, k2, 1)


def bits(witness: HornWitness, *targets) -> int:
    return sum(1 << witness.target_atoms.index(t) for t in targets)


# The free-structure check already refuses both corruptions: the tensorised
# R_2 tuple of (x, y) has cells (x, x), (x, y), (y, x), (y, y), so a
# homomorphism pins every repeat and every projection of a level-2 mask.
@pytest.mark.parametrize("atom, targets", [
    # the repeated pair (0, 0) may only take repeated pairs of values
    (("0", "0"), (("0", "0"), ("0", "1"), ("1", "1"))),
    # (0, 1) -> {(0, 1)} projects (0, 0) onto {(0, 0)}, but (0, 0) keeps {(0, 0), (1, 1)}
    (("0", "1"), (("0", "1"),)),
], ids=["equality-pattern", "projection"])
def test_check_vanishing_refuses_a_corrupted_mask(atom, targets, k2):
    witness = minion_test_horn_level(k2, k2, 2).witness
    assert witness.masks[("0", "0")] == bits(witness, ("0", "0"), ("1", "1"))
    masks = {**witness.masks, atom: bits(witness, *targets)}
    with pytest.raises(NotAHomomorphism):
        check_vanishing(HornWitness(witness.atoms, witness.target_atoms, masks), k2, k2, 2)


@pytest.mark.parametrize("X", [clique(2), digraph_from_mask(2, 0b0010)], ids=["K2", "one-edge"])
def test_the_free_structure_check_forces_the_vanishing_conditions(X, k2):
    # every level-2 mask assignment into K2, 15^4 of them: each one the
    # free-structure check accepts already meets both vanishing conditions
    Xk = tensor_power(k_enhance(X, 2), 2)
    free = HornFreeStructure(tensor_power(k_enhance(k2, 2), 2))
    accepted = 0
    for choice in itertools.product(domain_masks(free), repeat=len(Xk.domain)):
        masks = dict(zip(Xk.domain, choice))
        if admitted(Xk, free, masks):
            accepted += 1
            assert repeats_vanish(masks, len(k2.domain), 2), masks
            assert projections_commute(masks, len(k2.domain), 2), masks
    assert accepted > 0


def test_rejected_witness_raises(k2):
    masks = {a: 0 for a in k2.domain}
    witness = HornWitness(tuple(k2.domain), tuple(k2.domain), masks)
    with pytest.raises(NotAHomomorphism):
        check_vanishing(witness, k2, k2, 1)
