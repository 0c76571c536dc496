"""Structures, parsing, tuple projection, homomorphisms, tensor powers,
partial homomorphisms."""

import itertools
import json
import random

import pytest

from minionlab import Assignment, Signature, Structure, precedes, project
from minionlab.errors import (
    ArityMismatch,
    BudgetExceeded,
    IndexOutOfRange,
    LengthMismatch,
    MalformedInput,
    SymbolClash,
    UnknownAtom,
)
from minionlab.structures import (
    _iter_homomorphisms,
    enumerate_partial_homomorphisms,
    find_homomorphism,
    is_homomorphism,
    is_partial_homomorphism,
    k_enhance,
    parse_structure,
    structure_to_json,
    tensor_power,
)
from minionlab.budgets import Budget

from conftest import (
    LP_COLOURING_PAIRS,
    all_digraphs,
    clique,
    cycle,
    digraphs_up_to_renaming,
    directed_triangle,
    named,
    not_all_equal,
    one_in_three,
    random_structure,
    single_vertex,
    wheel,
)
from references import (
    count_homomorphisms,
    reference_enumerate_partial_homomorphisms,
    reference_iter_homomorphisms,
    tensor_cell_index,
)


# -- parsing ------------------------------------------------------------------


def test_parse_k2_document():
    text = json.dumps(
        {"domain": ["0", "1"],
         "relations": {"R": {"arity": 2, "tuples": [["0", "1"], ["1", "0"]]}}}
    )
    A = parse_structure(text)
    assert len(A.domain) == 2
    assert len(A.tuples("R")) == 2


def test_parse_one_in_three():
    text = json.dumps(
        {"domain": ["0", "1"],
         "relations": {"R": {"arity": 3,
                             "tuples": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}}
    )
    A = parse_structure(text)
    assert len(A.tuples("R")) == 3


def test_parse_arity_mismatch():
    text = json.dumps(
        {"domain": ["0", "1", "2"],
         "relations": {"R": {"arity": 2, "tuples": [["0", "1", "2"]]}}}
    )
    with pytest.raises(ArityMismatch):
        parse_structure(text)


def test_parse_unknown_atom():
    text = json.dumps(
        {"domain": ["0"], "relations": {"R": {"arity": 1, "tuples": [["9"]]}}}
    )
    with pytest.raises(UnknownAtom):
        parse_structure(text)


def test_parse_bad_json():
    with pytest.raises(MalformedInput):
        parse_structure("{nope")


@pytest.mark.parametrize("domain,relation", [
    ("01", {"arity": 2, "tuples": [["0", "1"]]}),
    (["0", "1"], {"arity": 2, "tuples": ["01"]}),
    (["0", "1"], {"arity": 2.7, "tuples": [["0", "1"]]}),
    (["0", "1"], {"arity": True, "tuples": [["0"]]}),
    (["0", "1"], {"arity": "x", "tuples": [["0", "1"]]}),
    (["0", "1"], {"arity": 2, "tuples": 5}),
], ids=["string-domain", "string-tuple", "float-arity", "bool-arity", "string-arity",
        "number-tuples"])
def test_parse_rejects_malformed_documents(domain, relation):
    text = json.dumps({"domain": domain, "relations": {"R": relation}})
    with pytest.raises(MalformedInput):
        parse_structure(text)


def test_parse_arity_below_one():
    text = json.dumps({"domain": ["0"], "relations": {"R": {"arity": 0, "tuples": []}}})
    with pytest.raises(ArityMismatch):
        parse_structure(text)


@pytest.mark.parametrize("relations", [{"R": ["ab"]}, {"U": "a"}, {"U": ""}],
                         ids=["string-tuple", "string-relation", "empty-string-relation"])
def test_a_string_is_no_tuple_of_atoms(relations):
    # read as sequences, "ab" would be the tuple ("a", "b") and "a" the relation {("a",)}
    signature = Signature.of({"R": 2, "U": 1})
    with pytest.raises(MalformedInput, match="string"):
        Structure(signature, ["a", "b"], relations)


def test_json_round_trip(k3):
    again = parse_structure(structure_to_json(k3))
    assert again.domain == k3.domain
    assert again.relations == k3.relations


def test_json_round_trip_of_a_tensor_square(k2):
    square = tensor_power(k2, 2)
    text = structure_to_json(square)
    doc = json.loads(text)
    # each tuple atom is written, and read back, as an array
    assert doc["domain"][:2] == [["0", "0"], ["0", "1"]]
    assert doc["relations"]["R"]["tuples"][1] == [["1", "1"], ["1", "0"], ["0", "1"], ["0", "0"]]
    again = parse_structure(text)
    assert again == square and again.name == square.name
    assert structure_to_json(again) == text


# -- input checks -------------------------------------------------------------------


@pytest.mark.parametrize("symbols, error", [
    ((("R", 2), ("R", 1)), MalformedInput),
    ((("R", 0),), ArityMismatch),
], ids=["duplicate-symbol", "arity-zero"])
def test_a_signature_refuses_a_bad_symbol(symbols, error):
    with pytest.raises(error):
        Signature(symbols)


def test_the_arity_of_an_unknown_symbol_is_refused():
    with pytest.raises(MalformedInput, match="unknown relation symbol"):
        Signature.of({"R": 2}).arity("S")


@pytest.mark.parametrize("domain, relations, error", [
    ([], {}, MalformedInput),
    (["a", "a"], {}, MalformedInput),
    (["a", "b"], {"S": [("a",)]}, MalformedInput),
    (["a", "b"], {"R": [("a",)]}, ArityMismatch),
    (["a", "b"], {"R": [("a", "c")]}, UnknownAtom),
], ids=["empty-domain", "repeated-atom", "symbol-outside-signature", "short-tuple",
        "atom-outside-domain"])
def test_the_constructor_refuses_a_bad_structure(domain, relations, error):
    with pytest.raises(error):
        Structure(Signature.of({"R": 2}), domain, relations)


@pytest.mark.parametrize("domain, relations", [
    ([["a"], "b"], {}),
    (["a", "b"], {"R": [(["a"], "b")]}),
    (["a", "b"], {"R": [(("a", ["b"]), "b")]}),
], ids=["list-in-domain", "list-in-tuple", "list-inside-tuple-atom"])
def test_an_unhashable_atom_is_a_typed_error(domain, relations):
    with pytest.raises(MalformedInput, match="hashable"):
        Structure(Signature.of({"R": 2}), domain, relations)


@pytest.mark.parametrize("domain, relations", [
    (["a", "b"], {"R": [5]}),
    (["a", "b"], {"R": 5}),
    (5, {}),
    (["a", "b"], [("R", [("a", "b")])]),
], ids=["number-tuple", "number-relation", "number-domain", "relations-as-pairs"])
def test_a_constructor_argument_of_the_wrong_shape_is_a_typed_error(domain, relations):
    with pytest.raises(MalformedInput):
        Structure(Signature.of({"R": 2}), domain, relations)


def test_an_unknown_symbol_is_refused_by_the_tuple_queries(k2):
    assert k2.tuples("R") and k2.has_tuple("R", ("0", "1"))
    with pytest.raises(MalformedInput, match="unknown relation symbol"):
        k2.tuples("Z")
    with pytest.raises(MalformedInput, match="unknown relation symbol"):
        k2.has_tuple("Z", ("0", "1"))


def test_the_id_of_an_atom_outside_the_domain_is_refused(k2):
    assert k2.atom_id("1") == 1
    with pytest.raises(UnknownAtom):
        k2.atom_id("2")


@pytest.mark.parametrize("doc", [
    [],
    {"domain": ["0"]},
    {"domain": ["0"], "relations": []},
    {"domain": ["0"], "relations": {"R": []}},
    {"domain": ["0"], "relations": {"R": {"arity": 1}}},
    {"domain": [0], "relations": {}},
    {"domain": ["0"], "relations": {"R": {"arity": 1, "tuples": [[None]]}}},
    {"domain": [["0", 1]], "relations": {}},
], ids=["array-document", "no-relations", "relations-array", "relation-array",
        "relation-without-tuples", "number-atom", "null-atom", "number-inside-tuple-atom"])
def test_parse_rejects_a_malformed_document(doc):
    with pytest.raises(MalformedInput):
        parse_structure(json.dumps(doc))


@pytest.mark.parametrize("k, error", [(0, ArityMismatch), (10, SymbolClash)],
                         ids=["level-zero", "level-ten"])
def test_k_enhance_refuses_a_level_outside_one_to_nine(k, error):
    with pytest.raises(error):
        k_enhance(single_vertex(), k)


@pytest.mark.parametrize("k", [0, -1])
def test_tensor_power_refuses_a_level_below_one(k2, k):
    with pytest.raises(ArityMismatch):
        tensor_power(k2, k)


# -- tuples ----------------------------------------------------------------------


def test_project_examples():
    assert project(("a", "b", "c"), (2, 2)) == ("b", "b")
    assert project(("a", "b", "c"), (1, 2, 3)) == ("a", "b", "c")
    assert project((2, 3), (1, 1, 2)) == (2, 2, 3)


def test_project_out_of_range():
    with pytest.raises(IndexOutOfRange):
        project(("a",), (2,))


def test_precedes_basic():
    assert precedes(("x", "x"), ("a", "a"))
    assert not precedes(("x", "x"), ("a", "b"))
    with pytest.raises(LengthMismatch):
        precedes(("x",), ("a", "b"))


def test_precedes_preserved_under_projection():
    symbols = ("p", "q")
    for n in (1, 2, 3):
        for s in itertools.product(symbols, repeat=n):
            for t in itertools.product(symbols, repeat=n):
                if not precedes(s, t):
                    continue
                for ell in (1, 2):
                    for idx in itertools.product(range(1, n + 1), repeat=ell):
                        assert precedes(project(s, idx), project(t, idx))


# -- homomorphisms --------------------------------------------------------------


def test_identity_is_homomorphism(k3):
    ident = Assignment.of({a: a for a in k3.domain}, total=True)
    assert is_homomorphism(ident, k3, k3)


def test_constant_map_on_clique_fails(k3):
    const = Assignment.of({a: "1" for a in k3.domain}, total=True)
    assert not is_homomorphism(const, k3, k3)


def test_c5_to_k3_explicit_map(c5, k3):
    # walk the 5-cycle as 1,2,1,2,3; every edge image is checked explicitly
    f = Assignment.of({"0": "1", "1": "2", "2": "1", "3": "2", "4": "3"}, total=True)
    fmap = f.as_dict()
    for u, v in c5.tuples("R"):
        assert fmap[u] != fmap[v]
    assert is_homomorphism(f, c5, k3)


def test_find_homomorphism_k2_in_k3(k2, k3):
    f = find_homomorphism(k2, k3)
    assert f is not None and is_homomorphism(f, k2, k3)


def test_no_homomorphism_k3_to_k2_matches_exhaustion(k3, k2):
    # independent oracle: try all 2^3 maps directly
    count = 0
    for image in itertools.product(k2.domain, repeat=3):
        f = Assignment.of(dict(zip(k3.domain, image)), total=True)
        if is_homomorphism(f, k3, k2):
            count += 1
    assert count == 0
    assert find_homomorphism(k3, k2) is None


def test_a_map_sending_an_atom_to_two_values_is_refused(k2):
    # as a dict this is the swap {0: 1, 1: 0}, a homomorphism
    f = Assignment((("0", "1"), ("1", "1"), ("1", "0")))
    assert not is_homomorphism(f, k2, k2)
    assert not is_partial_homomorphism(f, k2, k2)


def test_isolated_vertex_maps_anywhere(k3):
    assert find_homomorphism(single_vertex(), k3) is not None


def test_enumeration_matches_brute_force_on_small_digraphs():
    for X in all_digraphs(2):
        for A in all_digraphs(2):
            brute = 0
            for image in itertools.product(A.domain, repeat=len(X.domain)):
                f = Assignment.of(dict(zip(X.domain, image)), total=True)
                if is_homomorphism(f, X, A):
                    brute += 1
            assert count_homomorphisms(X, A) == brute


# -- enhancement ------------------------------------------------------------------


def test_k_enhance_adds_full_relation(k2):
    enhanced = k_enhance(k2, 2)
    assert len(enhanced.tuples("R_2")) == 4
    assert k_enhance(enhanced, 2) == enhanced  # idempotent


def test_k_enhance_level_one(k2):
    enhanced = k_enhance(k2, 1)
    assert set(enhanced.tuples("R_1")) == {("0",), ("1",)}


def test_k_enhance_symbol_clash():
    A = Structure(Signature.of({"R_2": 2}), ["0", "1"], {"R_2": [("0", "1")]})
    with pytest.raises(SymbolClash):
        k_enhance(A, 2)


def test_k_enhance_budget():
    with pytest.raises(BudgetExceeded):
        k_enhance(clique(4), 3, Budget(max_tuples=10))


# -- tensor powers ------------------------------------------------------------------


def test_tensor_power_of_k3_level_3(k3):
    T = tensor_power(k3, 3)
    assert T.signature.arity("R") == 8
    assert len(T.tuples("R")) == 6


def test_tensor_power_cells_of_paper_edge(k3):
    # the tuple on atoms (2, 3): cell (i1, i2, i3) holds (a_i1, a_i2, a_i3)
    T = tensor_power(k3, 3)
    target = None
    for t in T.tuples("R"):
        if t[0] == ("2", "2", "2"):
            target = t
    assert target is not None
    a = ("2", "3")
    for idx in itertools.product((1, 2), repeat=3):
        pos = tensor_cell_index(2, 3, idx)
        assert target[pos] == tuple(a[i - 1] for i in idx)
    # the displayed layer layout: layer 1 then layer 2, rows inside layers
    assert target == (
        ("2", "2", "2"), ("2", "2", "3"), ("2", "3", "2"), ("2", "3", "3"),
        ("3", "2", "2"), ("3", "2", "3"), ("3", "3", "2"), ("3", "3", "3"),
    )


def test_tensor_power_keeps_its_atom_budget():
    # the n^k atoms of the domain count against the tuple budget; the one
    # edge's tensor square, 4 cells, fits under it either way
    A = Structure(Signature.of({"R": 2}), ["0", "1", "2"], {"R": [("0", "1")]})
    assert len(tensor_power(A, 2, Budget(max_tuples=9)).domain) == 9
    with pytest.raises(BudgetExceeded, match="tensor power domain"):
        tensor_power(A, 2, Budget(max_tuples=8))


def test_tensor_power_level_one_is_identity():
    for A in [clique(2), clique(3), cycle(5), single_vertex()]:
        assert tensor_power(A, 1) == A


def test_tensor_power_preserves_tuple_count():
    for A in all_digraphs(2):
        T = tensor_power(A, 2)
        for sym in A.signature.names():
            assert len(T.tuples(sym)) == len(A.tuples(sym))


def test_tensor_power_cell_law():
    A = cycle(3)
    T = tensor_power(A, 2)
    cells = list(itertools.product((1, 2), repeat=2))
    for a, t in zip(A.tuples("R"), T.tuples("R")):
        for idx in cells:
            assert t[tensor_cell_index(2, 2, idx)] == tuple(a[i - 1] for i in idx)


def test_enhanced_and_tensorised_structures_are_those_the_checking_constructor_builds():
    # k_enhance and tensor_power assemble their result unchecked and unsorted:
    # rebuilt through the checking constructor, it is the same, in the same order
    sources = [*digraphs_up_to_renaming(3), directed_triangle(), one_in_three(), not_all_equal(),
               *(named(n) for n in dict.fromkeys(n for x, a, _ in LP_COLOURING_PAIRS
                                                for n in (x, a)))]
    for S in sources:
        for k in (1, 2):
            for built in (k_enhance(S, k), tensor_power(S, k), tensor_power(k_enhance(S, k), k)):
                checked = Structure(built.signature, built.domain, built.relations, built.name)
                assert (built.signature, built.domain, built.name) == \
                    (checked.signature, checked.domain, checked.name)
                assert list(built.relations.items()) == list(checked.relations.items())
                assert (built._atom_id, built._rel_sets) == (checked._atom_id, checked._rel_sets)


def test_hom_transfer_exhaustive_two_vertices():
    # homomorphism existence is invariant under tensorisation
    graphs = all_digraphs(2)
    for X in graphs:
        for A in graphs:
            direct = find_homomorphism(X, A) is not None
            lifted = find_homomorphism(tensor_power(X, 2), tensor_power(A, 2)) is not None
            assert direct == lifted


def test_hom_transfer_sampled_three_vertices():
    graphs = digraphs_up_to_renaming(3)[::7]
    targets = digraphs_up_to_renaming(2)
    for X in graphs:
        for A in targets:
            direct = find_homomorphism(X, A) is not None
            lifted = find_homomorphism(tensor_power(X, 2), tensor_power(A, 2)) is not None
            assert direct == lifted


def test_unenhanced_tensorisation_inflates_hom_count():
    # a unary full relation is 1-enhanced but not 2-enhanced: the squared
    # structure gains many new self-maps
    from conftest import boolean_unary

    A = boolean_unary()
    assert count_homomorphisms(A, A) == 4
    T = tensor_power(A, 2)
    assert count_homomorphisms(T, T) == 64


# -- partial homomorphisms --------------------------------------------------------------


def brute_partial_homs(X, A, k):
    """Every map on at most k atoms that is a homomorphism of the substructure
    of X it induces, built here as a ``Structure`` of its own."""
    out = [Assignment(())]
    for j in range(1, min(k, len(X.domain)) + 1):
        for subset in itertools.combinations(X.domain, j):
            sub = Structure(X.signature, subset, {
                sym: [t for t in X.tuples(sym) if set(t) <= set(subset)]
                for sym in X.signature.names()})
            for image in itertools.product(A.domain, repeat=j):
                f = dict(zip(subset, image))
                if all(tuple(f[a] for a in t) in A.tuples(sym)
                       for sym in sub.signature.names() for t in sub.tuples(sym)):
                    out.append(Assignment.of(f))
    return out


def test_partial_homs_k3_k2_level_1(k3, k2):
    # no unary constraints: the empty map plus every singleton assignment
    assert len(enumerate_partial_homomorphisms(k3, k2, 1)) == 7


def test_partial_homs_k3_k2_level_2(k3, k2):
    # each of the 3 vertex pairs admits exactly the 2 proper colorings
    assert len(enumerate_partial_homomorphisms(k3, k2, 2)) == 13


def test_partial_homs_match_brute_force(c5, k3):
    # loops and one-way edges of 2-vertex digraphs lie inside some domains
    # but not others, and each 1in3 tuple repeats an atom
    cases = [(c5, k3, 2), (one_in_three(), not_all_equal(), 1),
             (one_in_three(), not_all_equal(), 2)]
    cases += [(X, A, k) for X in all_digraphs(2) for A in all_digraphs(2) for k in (1, 2)]
    for X, A, k in cases:
        ours = enumerate_partial_homomorphisms(X, A, k)
        brute = brute_partial_homs(X, A, k)
        assert sorted(f.mapping for f in ours) == sorted(f.mapping for f in brute)
        assert all(is_partial_homomorphism(f, X, A) for f in ours)


def test_a_partial_homomorphism_ignores_tuples_leaving_its_domain():
    # the 1in3 tuple (1, 0, 0) leaves {0}, so {0: v} is kept although its
    # only extension to 1 sends that tuple to the missing (v, v, v)
    X = one_in_three()
    A = Structure(X.signature, ["v"], {"R": []})
    assert is_partial_homomorphism(Assignment.of({"0": "v"}), X, A)
    assert not is_partial_homomorphism(Assignment.of({"0": "v", "1": "v"}), X, A)
    assert not is_homomorphism(Assignment.of({"0": "v", "1": "v"}, total=True), X, A)


def test_a_map_into_atoms_outside_the_target_is_no_partial_homomorphism(k2, k3):
    # k3's atoms are "1", "2", "3" and k2's are "0", "1"
    assert is_partial_homomorphism(Assignment.of({"1": "0"}), k3, k2)
    assert not is_partial_homomorphism(Assignment.of({"1": "2"}), k3, k2)


def test_total_hom_appears_in_partial_enumeration(k2, k3):
    h = find_homomorphism(k2, k3)
    fams = enumerate_partial_homomorphisms(k2, k3, len(k2.domain))
    assert h.mapping in {f.mapping for f in fams}


@pytest.mark.slow
def test_the_homomorphism_search_matches_its_reference():
    # the same first homomorphism on every ordered pair of three-vertex
    # classes, and the same homomorphisms and partial maps, in the same
    # order, into four targets, on random pairs and on three larger pairs
    classes = digraphs_up_to_renaming(3)
    for X in classes:
        for A in classes:
            first = next(reference_iter_homomorphisms(X, A), None)
            expected = first and Assignment.of(first, total=True)
            assert find_homomorphism(X, A) == expected, (X.relations, A.relations)
    rng = random.Random(5)
    pairs = [(X, A) for X in classes for A in (clique(2), clique(3), cycle(4), directed_triangle())]
    pairs += [(random_structure(rng, rng.randint(1, 5), rng.randint(0, 8)),
               random_structure(rng, rng.randint(1, 4), rng.randint(0, 8))) for _ in range(400)]
    pairs += [(one_in_three(), not_all_equal()), (wheel(5), clique(3)), (wheel(7), clique(4))]
    for X, A in pairs:
        assert [list(h.items()) for h in _iter_homomorphisms(X, A)] == \
            [list(h.items()) for h in reference_iter_homomorphisms(X, A)]
        for k in (1, 2, 3):
            assert enumerate_partial_homomorphisms(X, A, k) == \
                reference_enumerate_partial_homomorphisms(X, A, k), (X.relations, A.relations, k)
