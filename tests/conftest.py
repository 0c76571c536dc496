"""Shared instance builders for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from minionlab import Signature, Structure


def clique(n: int, atoms=None) -> Structure:
    atoms = atoms or [str(i) for i in range(n)]
    edges = [(a, b) for a in atoms for b in atoms if a != b]
    return Structure(Signature.of({"R": 2}), atoms, {"R": edges}, name=f"K{n}")


def cycle(n: int) -> Structure:
    atoms = [str(i) for i in range(n)]
    edges = []
    for i in range(n):
        edges.append((atoms[i], atoms[(i + 1) % n]))
        edges.append((atoms[(i + 1) % n], atoms[i]))
    return Structure(Signature.of({"R": 2}), atoms, {"R": edges}, name=f"C{n}")


def wheel(n: int) -> Structure:
    """The cycle C_n plus a hub adjacent to every rim vertex."""
    rim = cycle(n)
    spokes = [e for a in rim.domain for e in ((a, "hub"), ("hub", a))]
    return Structure(Signature.of({"R": 2}), list(rim.domain) + ["hub"],
                     {"R": list(rim.tuples("R")) + spokes}, name=f"W{n}")


def mycielski(G: Structure) -> Structure:
    """The Mycielski graph of a symmetric graph G: a shadow a' of each vertex a,
    adjacent to the neighbours of a, and a hub w adjacent to every shadow.
    ``mycielski(cycle(5))`` is the Grötzsch graph, with 11 vertices and 20
    edges; it has no triangle and is not 3-colourable."""
    shadows = {a: f"{a}'" for a in G.domain}
    edges = list(G.tuples("R"))
    edges += [e for a, b in G.tuples("R") for e in ((shadows[a], b), (b, shadows[a]))]
    edges += [e for s in shadows.values() for e in ((s, "w"), ("w", s))]
    return Structure(Signature.of({"R": 2}), list(G.domain) + list(shadows.values()) + ["w"],
                     {"R": edges}, name=f"M({G.name})")


def directed_triangle() -> Structure:
    return Structure(Signature.of({"R": 2}), ["0", "1", "2"],
                     {"R": [("0", "1"), ("1", "2"), ("2", "0")]}, name="DT")


def one_in_three() -> Structure:
    atoms = ["0", "1"]
    tuples = [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]
    return Structure(Signature.of({"R": 3}), atoms, {"R": tuples}, name="1in3")


def not_all_equal() -> Structure:
    atoms = ["0", "1"]
    tuples = [t for t in itertools.product(atoms, repeat=3) if len(set(t)) == 2]
    return Structure(Signature.of({"R": 3}), atoms, {"R": tuples}, name="NAE")


def boolean_unary() -> Structure:
    return Structure(
        Signature.of({"R_1": 1}), ["0", "1"], {"R_1": [("0",), ("1",)]}, name="bool1"
    )


def single_vertex() -> Structure:
    return Structure(Signature.of({"R": 2}), ["v"], {"R": []})


def digraph_from_mask(n: int, mask: int) -> Structure:
    """The digraph on n named vertices whose edge set is encoded by a bitmask."""
    atoms = [str(i) for i in range(n)]
    pairs = list(itertools.product(atoms, repeat=2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Structure(Signature.of({"R": 2}), atoms, {"R": edges})


def all_digraphs(n: int):
    """Every digraph on n vertices (including the edgeless one)."""
    return [digraph_from_mask(n, m) for m in range(1 << (n * n))]


def digraphs_up_to_renaming(n: int):
    """One representative digraph per vertex-permutation class."""
    atoms = [str(i) for i in range(n)]
    pairs = list(itertools.product(range(n), repeat=2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    seen = set()
    out = []
    for mask in range(1 << (n * n)):
        canon = mask
        for perm in itertools.permutations(range(n)):
            pm = 0
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    pm |= 1 << pair_index[(perm[u], perm[v])]
            canon = min(canon, pm)
        if canon not in seen:
            seen.add(canon)
            out.append(digraph_from_mask(n, mask))
    del atoms
    return out


def _canonical_edges(edges: frozenset, n: int) -> tuple:
    """The least sorted edge list over the renamings that list the vertices by
    descending degree; the degrees fix the blocks, so only orders within a
    block of equal degree are tried."""
    degree = [sum(v in e for e in edges) for v in range(n)]
    blocks = [[v for v in range(n) if degree[v] == d] for d in sorted(set(degree), reverse=True)]

    def relabelled(orders) -> tuple:
        place = {v: i for i, v in enumerate(v for order in orders for v in order)}
        return tuple(sorted(tuple(sorted((place[u], place[v]))) for u, v in edges))

    return min(map(relabelled, itertools.product(*map(itertools.permutations, blocks))))


def _graph_classes(n: int) -> list[frozenset]:
    """One edge set {(u, v): u < v} per isomorphism class of simple graphs on
    vertices 0..n-1: each class on n - 1 vertices gains vertex n - 1 with
    every neighbourhood, and the first graph of each canonical form is kept."""
    if n == 1:
        return [frozenset()]
    seen, out = set(), []
    for edges in _graph_classes(n - 1):
        for mask in range(1 << (n - 1)):
            graph = edges | {(u, n - 1) for u in range(n - 1) if mask >> u & 1}
            canon = _canonical_edges(graph, n)
            if canon not in seen:
                seen.add(canon)
                out.append(graph)
    return out


def graphs_up_to_isomorphism(n: int) -> list[Structure]:
    """One symmetric graph per isomorphism class of simple graphs on n vertices."""
    atoms = [str(i) for i in range(n)]
    return [Structure(Signature.of({"R": 2}), atoms,
                      {"R": [(atoms[a], atoms[b]) for u, v in sorted(edges)
                             for a, b in ((u, v), (v, u))]},
                      name=f"G{n}.{i}")
            for i, edges in enumerate(_graph_classes(n))]


def named(name: str) -> Structure:
    """A structure by the names the benchmark's workloads use: K<n>, C<n>, W<n>, the
    three-vertex digraph D<mask>, DT, 1in3 and NAE."""
    fixed = {"DT": directed_triangle, "1in3": one_in_three, "NAE": not_all_equal}
    if name in fixed:
        return fixed[name]()
    build = {"K": clique, "C": cycle, "W": wheel, "D": lambda mask: digraph_from_mask(3, mask)}
    return build[name[0]](int(name[1:]))


# the (X, A, k) of the lp-colouring workload's queries
LP_COLOURING_PAIRS = [
    *((x, "K2", 2) for x in ("K3", "K4", "C4", "C5", "W5", "C7")),
    *((x, a, 2) for x, a in (("K3", "K4"), ("C4", "K3"), ("W5", "K3"), ("C5", "K4"),
                             ("C7", "K3"), ("C4", "K4"), ("C6", "K3"))),
    *((x, a, 1) for x, a in (("C4", "K2"), ("C6", "K2"), ("W5", "K3"), ("C7", "K4"),
                             ("W5", "K4"))),
]


def random_structure(rng: random.Random, n_atoms: int, n_tuples: int) -> Structure:
    atoms = [str(i) for i in range(n_atoms)]
    tuples = set()
    for _ in range(n_tuples):
        tuples.add((rng.choice(atoms), rng.choice(atoms)))
    return Structure(Signature.of({"R": 2}), atoms, {"R": sorted(tuples)})


@pytest.fixture
def k2():
    return clique(2)


@pytest.fixture
def k3():
    return clique(3, atoms=["1", "2", "3"])


@pytest.fixture
def c5():
    return cycle(5)
