"""Seeded input structures for the benchmark workloads.

Every structure is built here, renamed from the seed, and sent through
``structure_to_json`` and ``parse_structure``, so the drivers only ever see
parsed input.  The seed renames atoms but keeps each domain's order: the
exact simplex uses Bland's rule over columns laid out in domain order, and
reordering a domain moves a 3 s query by up to 60 %, which would bury any
change the benchmark is meant to resolve.
"""

from __future__ import annotations

import itertools
import random

from minionlab import Signature, Structure, parse_structure, structure_to_json

EDGE = Signature.of({"R": 2})
TERNARY = Signature.of({"R": 3})


def clique(n: int) -> Structure:
    atoms = [str(i) for i in range(n)]
    return Structure(EDGE, atoms, {"R": [(a, b) for a in atoms for b in atoms if a != b]})


def cycle(n: int) -> Structure:
    atoms = [str(i) for i in range(n)]
    edges = []
    for i in range(n):
        a, b = atoms[i], atoms[(i + 1) % n]
        edges += [(a, b), (b, a)]
    return Structure(EDGE, atoms, {"R": edges})


def odd_wheel(n: int) -> Structure:
    """The cycle C_n (n odd) plus a hub adjacent to every rim vertex."""
    if n % 2 == 0:
        raise ValueError("an odd wheel needs an odd rim")
    rim = cycle(n)
    atoms = list(rim.domain) + ["hub"]
    spokes = [e for a in rim.domain for e in ((a, "hub"), ("hub", a))]
    return Structure(EDGE, atoms, {"R": list(rim.tuples("R")) + spokes})


DIGRAPH_PAIRS = list(itertools.product(range(3), repeat=2))


def digraph(mask: int) -> Structure:
    """The digraph on vertices 0, 1, 2 whose edge (u, v) is bit 3u + v of ``mask``."""
    atoms = ["0", "1", "2"]
    edges = [(atoms[u], atoms[v]) for i, (u, v) in enumerate(DIGRAPH_PAIRS) if mask >> i & 1]
    return Structure(EDGE, atoms, {"R": edges})


def digraph_classes() -> list[int]:
    """The least edge mask of each 3-vertex digraph up to renaming (104 classes)."""
    out = []
    for mask in range(1 << 9):
        images = [
            sum(1 << (3 * p[u] + p[v]) for i, (u, v) in enumerate(DIGRAPH_PAIRS) if mask >> i & 1)
            for p in itertools.permutations(range(3))
        ]
        if min(images) == mask:
            out.append(mask)
    return out


def one_in_three() -> Structure:
    return Structure(TERNARY, ["0", "1"], {"R": [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]})


def not_all_equal() -> Structure:
    triples = [t for t in itertools.product("01", repeat=3) if len(set(t)) == 2]
    return Structure(TERNARY, ["0", "1"], {"R": triples})


DIRECTED_TRIANGLE_MASK = 0b001100010  # edges (0,1), (1,2), (2,0)


def build(name: str) -> Structure:
    """The structure a workload refers to by name: Kn, Cn, Wn, D<mask>, DT, 1in3, NAE."""
    if name == "1in3":
        return one_in_three()
    if name == "NAE":
        return not_all_equal()
    if name == "DT":
        return digraph(DIRECTED_TRIANGLE_MASK)
    kind, n = name[0], int(name[1:])
    return {"K": clique, "C": cycle, "W": odd_wheel, "D": digraph}[kind](n)


def renamed_round_trip(name: str, rng: random.Random) -> Structure:
    """``build(name)`` with seeded atom names, parsed back from its JSON text."""
    S = build(name)
    tags = rng.sample(range(10_000, 100_000), len(S.domain))
    rename = {a: f"{name}.{t}" for a, t in zip(S.domain, tags)}
    renamed = Structure(
        S.signature,
        [rename[a] for a in S.domain],
        {sym: [tuple(rename[a] for a in t) for t in S.tuples(sym)] for sym in S.signature.names()},
        name=name,
    )
    return parse_structure(structure_to_json(renamed))
