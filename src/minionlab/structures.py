"""Relational signatures and structures, homomorphisms, enhancement and tensor powers.

Atoms are strings at the base level; a tensor power is an ordinary
structure whose atoms are length-k tuples of atoms.  ``_projections`` is
the one tensor map, each k-tuple of positions in cell order with its getter,
made once per (arity, k): ``tensor_power`` and the marginal system project
through it.  ``project`` checks one projection's bounds, and ``precedes``
compares the equality patterns of two tuples.
The ``Structure`` constructor checks every tuple of its input and sorts
each relation into canonical order.  ``k_enhance`` and ``tensor_power``
build from a structure that has passed those checks, and their tuples come
out in canonical order by construction, so they assemble their result
through ``Structure._assembled``, which checks and sorts nothing.
Every homomorphism, total or partial, comes from one search; each tuple of
X is checked once, when its last atom is mapped.  The search tries A's atoms
in domain order, which keeps every search and every emitted witness
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .budgets import DEFAULT_BUDGET, Budget
from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    LengthMismatch,
    MalformedInput,
    SignatureMismatch,
    SymbolClash,
    UnknownAtom,
)

Atom = Union[str, tuple]

@dataclass(frozen=True)
class Signature:
    """Ordered map from relation symbol to arity."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise MalformedInput(f"duplicate relation symbol {name!r}")
            seen.add(name)
            if arity < 1:
                raise ArityMismatch(f"symbol {name!r} has arity {arity} < 1")

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Signature":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return Signature(tuple((str(k), int(v)) for k, v in items))

    def arity(self, symbol: str) -> int:
        for name, arity in self.symbols:
            if name == symbol:
                return arity
        raise MalformedInput(f"unknown relation symbol {symbol!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return any(name == symbol for name, _ in self.symbols)


class Structure:
    """A finite relational structure over an ordered domain of atoms."""

    __slots__ = ("signature", "domain", "relations", "_atom_id", "_rel_sets", "name")

    def __init__(
        self,
        signature: Signature,
        domain: Sequence[Atom],
        relations: Mapping[str, Iterable[tuple]],
        name: str = "",
    ):
        try:
            self.domain: tuple[Atom, ...] = tuple(domain)
        except TypeError:
            raise MalformedInput(f"domain {domain!r} is not a sequence of atoms") from None
        if not self.domain:
            raise MalformedInput("domain must be nonempty")
        if not isinstance(relations, Mapping):
            raise MalformedInput("relations must map each symbol to its tuples")
        self.signature = signature
        try:
            self._atom_id = {a: i for i, a in enumerate(self.domain)}
        except TypeError:
            raise MalformedInput("domain atoms must be hashable") from None
        if len(self._atom_id) != len(self.domain):
            raise MalformedInput("domain atoms must be distinct")
        self.name = name

        rels: dict[str, tuple[tuple, ...]] = {}
        for sym, arity in signature.symbols:
            given = relations.get(sym, ())
            if isinstance(given, str):
                raise MalformedInput(f"relation {sym!r} is a string, not a collection of tuples")
            try:
                given = iter(given)
            except TypeError:
                raise MalformedInput(f"relation {sym!r} is not a collection of tuples") from None
            tuples = []
            for t in given:
                # a string is a sequence of characters, not a tuple of atoms
                if isinstance(t, str):
                    raise MalformedInput(f"a tuple of {sym!r} is the string {t!r}")
                try:
                    t = tuple(t)
                except TypeError:
                    raise MalformedInput(f"a tuple of {sym!r} is {t!r}, not a sequence") from None
                tuples.append(t)
                if len(t) != arity:
                    raise ArityMismatch(
                        f"tuple {t!r} has length {len(t)}, symbol {sym!r} has arity {arity}"
                    )
                try:
                    for a in t:
                        if a not in self._atom_id:
                            raise UnknownAtom(f"atom {a!r} of {sym!r} tuple is not in the domain")
                except TypeError:
                    raise MalformedInput(f"a tuple of {sym!r} holds an unhashable atom") from None
            # Canonical order: lexicographic by atom ids.  Witness indices
            # elsewhere in the package refer to this order.
            uniq = sorted(set(tuples), key=lambda t: tuple(self._atom_id[a] for a in t))
            rels[sym] = tuple(uniq)
        extra = set(relations) - set(signature.names())
        if extra:
            raise MalformedInput(f"relations {sorted(extra)} missing from the signature")
        self.relations = rels
        self._rel_sets = {sym: frozenset(ts) for sym, ts in rels.items()}

    @classmethod
    def _assembled(cls, signature: Signature, domain: tuple, atom_id: dict,
                   relations: dict, rel_sets: dict, name: str) -> "Structure":
        """A structure built from a checked one, taken as given: no tuple is checked or sorted.

        The caller passes the domain with its atom ids, and each relation as
        a tuple of distinct tuples of those atoms, in canonical order, with
        its frozenset.
        """
        self = object.__new__(cls)
        self.signature = signature
        self.domain = domain
        self._atom_id = atom_id
        self.name = name
        self.relations = relations
        self._rel_sets = rel_sets
        return self

    # -- basic queries ------------------------------------------------------

    def atom_id(self, atom: Atom) -> int:
        try:
            return self._atom_id[atom]
        except KeyError:
            raise UnknownAtom(f"atom {atom!r} is not in the domain") from None

    def has_tuple(self, symbol: str, t: tuple) -> bool:
        try:
            return t in self._rel_sets[symbol]
        except KeyError:
            raise MalformedInput(f"unknown relation symbol {symbol!r}") from None

    def tuples(self, symbol: str) -> tuple[tuple, ...]:
        try:
            return self.relations[symbol]
        except KeyError:
            raise MalformedInput(f"unknown relation symbol {symbol!r}") from None

    def same_signature(self, other: "Structure") -> bool:
        return self.signature.symbols == other.signature.symbols

    def require_same_signature(self, other: "Structure") -> None:
        if not self.same_signature(other):
            raise SignatureMismatch(
                f"signatures differ: {self.signature.symbols} vs {other.signature.symbols}"
            )

    def __repr__(self) -> str:
        rel = ", ".join(f"{s}:{len(t)}" for s, t in self.relations.items())
        label = f" {self.name}" if self.name else ""
        return f"<Structure{label} |A|={len(self.domain)} {rel}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Structure)
            and self.signature.symbols == other.signature.symbols
            and self.domain == other.domain
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.signature.symbols, self.domain,
                     tuple(sorted(self.relations.items()))))


@dataclass(frozen=True)
class Assignment:
    """A (partial) map between structure domains."""

    mapping: tuple[tuple[Atom, Atom], ...]
    total: bool = False

    @staticmethod
    def of(mapping: Mapping[Atom, Atom], total: bool = False) -> "Assignment":
        return Assignment(tuple(sorted(mapping.items(), key=repr)), total)

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def domain_set(self) -> frozenset:
        return frozenset(a for a, _ in self.mapping)


# -- tuples -------------------------------------------------------------------


def project(s: Sequence, i: Sequence[int]) -> tuple:
    """Projection of the tuple s onto the 1-based index tuple i."""
    out = []
    for pos in i:
        if not 1 <= pos <= len(s):
            raise IndexOutOfRange(f"position {pos} outside 1..{len(s)}")
        out.append(s[pos - 1])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _projections(arity: int, k: int) -> tuple:
    """Each k-tuple i of 1-based positions up to ``arity``, with a getter projecting onto i.

    ``itemgetter`` of one index returns the item itself, so the one-position
    getter takes a slice, which also returns a tuple.  The result depends on
    ``(arity, k)`` alone, so it is made once per pair and shared.
    """
    out = []
    for i in itertools.product(range(arity), repeat=k):
        get = itemgetter(*i) if k > 1 else itemgetter(slice(i[0], i[0] + 1))
        out.append((tuple(p + 1 for p in i), get))
    return tuple(out)


def precedes(s: Sequence, t: Sequence) -> bool:
    """True iff equal positions of s force equal positions of t."""
    if len(s) != len(t):
        raise LengthMismatch(f"tuples of lengths {len(s)} and {len(t)}")
    first_at = {}
    for sv, tv in zip(s, t):
        if sv in first_at:
            if first_at[sv] != tv:
                return False
        else:
            first_at[sv] = tv
    return True


# -- parsing and serialization ----------------------------------------------


def _atom_from_json(value) -> Atom:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return tuple(_atom_from_json(v) for v in value)
    raise MalformedInput(f"atom must be a string or array, got {value!r}")


def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be an array, got {value!r}")
    return value


def parse_structure(text: str, name: str = "") -> Structure:
    """Parse the JSON structure format.

    ``{"domain": [atom, ...], "relations": {name: {"arity": n, "tuples": [...]}}}``
    where atoms are strings (arrays encode tuple atoms of powered structures).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or "domain" not in doc or "relations" not in doc:
        raise MalformedInput("document needs 'domain' and 'relations' keys")
    domain = [_atom_from_json(a) for a in _json_array(doc["domain"], "'domain'")]
    rel_doc = doc["relations"]
    if not isinstance(rel_doc, dict):
        raise MalformedInput("'relations' must be an object")
    sig_items = []
    relations = {}
    for sym, body in rel_doc.items():
        if not isinstance(body, dict) or "arity" not in body or "tuples" not in body:
            raise MalformedInput(f"relation {sym!r} needs 'arity' and 'tuples'")
        arity = body["arity"]
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise MalformedInput(f"arity of {sym!r} must be an integer, got {arity!r}")
        sig_items.append((sym, arity))
        relations[sym] = [
            tuple(_atom_from_json(a) for a in _json_array(t, f"a tuple of {sym!r}"))
            for t in _json_array(body["tuples"], f"'tuples' of {sym!r}")
        ]
    return Structure(Signature.of(sig_items), domain, relations, name=name or doc.get("name", ""))


def structure_to_json(A: Structure) -> str:
    doc = {
        "domain": A.domain,
        "relations": {sym: {"arity": arity, "tuples": A.tuples(sym)}
                      for sym, arity in A.signature.symbols},
    }
    if A.name:
        doc["name"] = A.name
    return json.dumps(doc, sort_keys=True)


# -- homomorphisms -----------------------------------------------------------


def is_homomorphism(f: Assignment, X: Structure, A: Structure) -> bool:
    """True iff ``f`` is a partial homomorphism X -> A that is total on X."""
    return is_partial_homomorphism(f, X, A) and f.domain_set() == frozenset(X.domain)


def _homomorphisms(X: Structure, A: Structure, atoms: Sequence[Atom]) -> Iterator[dict]:
    """Every map of ``atoms`` into A that sends each tuple of X inside ``atoms``
    into A, in lexicographic order of the images taken in the order of ``atoms``.

    The atoms are mapped one at a time, each to A's domain in order, and each
    tuple is checked once, when the last of its atoms is mapped.  The one
    dict is yielded each time, updated in place.
    """
    position = {a: i for i, a in enumerate(atoms)}
    due: list[list[tuple[str, tuple]]] = [[] for _ in atoms]
    for sym in X.signature.names():
        for t in X.tuples(sym):
            if all(a in position for a in t):
                due[max(position[a] for a in t)].append((sym, t))
    image: dict = {}

    def extend(i: int) -> Iterator[dict]:
        if i == len(atoms):
            yield image
            return
        for b in A.domain:
            image[atoms[i]] = b
            if all(A.has_tuple(sym, tuple(image[a] for a in t)) for sym, t in due[i]):
                yield from extend(i + 1)

    return extend(0)


def _iter_homomorphisms(X: Structure, A: Structure) -> Iterator[dict]:
    """All homomorphisms X -> A, each a dict in domain order, searching the
    atoms by descending degree, ties in domain order."""
    X.require_same_signature(A)
    degree = Counter(a for sym in X.signature.names() for t in X.tuples(sym) for a in t)
    for image in _homomorphisms(X, A, sorted(X.domain, key=lambda a: -degree[a])):
        yield {a: image[a] for a in X.domain}


def find_homomorphism(X: Structure, A: Structure) -> Optional[Assignment]:
    """First homomorphism X -> A in deterministic search order, if any: one
    search, each tuple of X checked once, when its last atom is mapped."""
    for fmap in _iter_homomorphisms(X, A):
        return Assignment.of(fmap, total=True)
    return None


# -- enhancement and tensor powers -------------------------------------------


def k_enhance(A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Structure:
    """Add the k-ary symbol ``R_k`` holding every k-tuple of the domain."""
    if k < 1:
        raise ArityMismatch(f"enhancement level {k} must be >= 1")
    if k > 9:
        raise SymbolClash(f"enhancement level {k} outside the reserved range 1..9")
    sym = f"R_{k}"
    n = len(A.domain)
    budget.check_tuples(n**k, f"enhancement {sym}")
    full = tuple(itertools.product(A.domain, repeat=k))  # in canonical order
    if sym in A.signature:
        if set(A.tuples(sym)) == set(full):
            return A
        raise SymbolClash(f"{sym} already exists and is not the full {k}-th power")
    return Structure._assembled(
        Signature(A.signature.symbols + ((sym, k),)), A.domain, A._atom_id,
        {**A.relations, sym: full}, {**A._rel_sets, sym: frozenset(full)}, A.name)


def tensor_power(A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Structure:
    """The k-th tensor power.

    The domain is A^k.  Each tuple a of a relation with arity r contributes a
    single tuple of arity r^k whose cell at position (i_1, ..., i_k), in
    lexicographic cell order, is the atom (a_{i_1}, ..., a_{i_k}).  This map
    keeps A's canonical order, so the tensor tuples need no sort: if two
    tuples first differ at position p, their images first differ at the cell
    (1, ..., 1, p), whose atoms compare in A^k's lexicographic order as the
    atoms at p do.
    """
    if k < 1:
        raise ArityMismatch("tensor power level must be >= 1")
    if k == 1:
        return A
    n = len(A.domain)
    budget.check_tuples(n**k, "tensor power domain")
    domain = tuple(itertools.product(A.domain, repeat=k))
    sig_items = []
    rels: dict[str, tuple] = {}
    for sym, arity in A.signature.symbols:
        budget.check_tuples(arity**k * max(1, len(A.tuples(sym))), f"tensor power {sym}")
        sig_items.append((sym, arity**k))
        getters = [get for _, get in _projections(arity, k)]
        rels[sym] = tuple(tuple(get(a) for get in getters) for a in A.tuples(sym))
    return Structure._assembled(
        Signature(tuple(sig_items)), domain, {a: i for i, a in enumerate(domain)}, rels,
        {sym: frozenset(ts) for sym, ts in rels.items()}, A.name)


# -- partial homomorphisms ----------------------------------------------------


def _tuples_inside(X: Structure, atoms) -> list[tuple[str, tuple]]:
    """The ``(symbol, tuple)`` pairs of X whose atoms all lie in ``atoms``."""
    return [(sym, t) for sym in X.signature.names() for t in X.tuples(sym)
            if all(a in atoms for a in t)]


def enumerate_partial_homomorphisms(
    X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET
) -> list[Assignment]:
    """All partial homomorphisms with at most k-element domain, empty map first,
    from one search per subset of atoms: each tuple of X inside the subset is
    checked once, when its last atom is mapped."""
    X.require_same_signature(A)
    nX, nA = len(X.domain), len(A.domain)
    total = sum(
        math.comb(nX, j) * nA**j for j in range(0, min(k, nX) + 1)
    )
    budget.check_tuples(total, "partial homomorphism enumeration")
    return [Assignment.of(image, total=(j == nX))
            for j in range(min(k, nX) + 1)
            for subset in itertools.combinations(X.domain, j)
            for image in _homomorphisms(X, A, subset)]


def is_partial_homomorphism(f: Assignment, X: Structure, A: Structure) -> bool:
    """True iff ``f`` is a function from atoms of X to atoms of A that maps
    into A every tuple of X lying inside its domain."""
    X.require_same_signature(A)
    fmap = f.as_dict()
    if len(fmap) != len(f.mapping) or not fmap.keys() <= X._atom_id.keys():
        return False
    if not set(fmap.values()) <= A._atom_id.keys():
        return False
    return all(A.has_tuple(sym, tuple(fmap[a] for a in t))
               for sym, t in _tuples_inside(X, fmap))
