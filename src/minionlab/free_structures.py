"""The Horn minion test, and the one arc-consistency loop, shared with ``bw``.

For the Horn family the free structure F_Horn(A) generated by a base
structure A is finite: its domain is the nonempty subsets of A's domain, and
a tuple of subsets belongs to a relation exactly when some nonempty subset Q
of the base relation projects onto it coordinatewise.  Subsets are bitmasks
internally.

A mask assignment is a homomorphism from X into F_Horn(A) exactly when
every mask is nonempty and generalised arc consistency on (X, A) cannot
narrow it, with support taken per scope position (so a loop maps into K2
through Q = {(0, 1), (1, 0)}).  Such assignments are closed under union, so
X maps into F_Horn(A) iff arc consistency from full domains leaves every
domain nonempty (Feder and Vardi 1998; Dalmau and Pearson 1999), and the
fixpoint domains are then the greatest homomorphism.  The minion test runs
that polynomial fixpoint and returns it as the witness.  The exponential
free structure itself is never enumerated: ``admits`` decides whether one
tuple of masks lies in a free relation, which is how ``check_vanishing``
re-checks a witness.

Level k of the test is the same fixpoint on the k-th tensor powers of the
k-enhanced pair.  Level 1 is the test on (X, A) itself: the enhancement adds
only the full unary relation, which arc consistency never narrows, and the
first tensor power of a structure is the structure.

Both fixpoint drivers run the one loop, :func:`arc_consistency`: the Horn
test on the tensorised scopes and the free structure's tuples, and ``bw`` on
a binary constraint network of partial maps (the existential k-pebble game
of Kolaitis and Vardi 2000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .budgets import DEFAULT_BUDGET, Budget
from .errors import NotAHomomorphism
from .structures import Structure, k_enhance, tensor_power
from .verdicts import Status, Verdict, driver


class HornFreeStructure:
    """Free structure of the Horn family generated by ``base``.

    Domain elements are nonempty subsets of the base domain, encoded as
    bitmasks with bit i marking atom i (domain order).
    """

    def __init__(self, base: Structure):
        self.full_mask = (1 << len(base.domain)) - 1
        # per symbol: list of base tuples as atom-id tuples
        self._tuples = {
            sym: [tuple(base.atom_id(a) for a in t) for t in base.tuples(sym)]
            for sym in base.signature.names()
        }

    # -- relation membership ---------------------------------------------------

    def admits(self, symbol: str, masks: Sequence[int]) -> bool:
        """Does some nonempty subset Q of the base relation project onto ``masks``?

        The inclusion-maximal candidate Q* = {t : every projection of t lands
        inside its mask} works iff any witness does, because projections only
        grow with Q.
        """
        covered = [0] * len(masks)
        nonempty = False
        for t in self._tuples[symbol]:
            if all(m >> a & 1 for m, a in zip(masks, t)):
                nonempty = True
                for pos, a in enumerate(t):
                    covered[pos] |= 1 << a
        return nonempty and covered == list(masks)


# -- homomorphism witnesses ----------------------------------------------------


@dataclass
class HornWitness:
    """Assignment of nonempty target-subsets to the atoms of the tested structure."""

    atoms: tuple  # atoms of the tested (possibly tensorised) structure
    target_atoms: tuple  # atoms of the free structure's base
    masks: dict  # atom -> bitmask over target_atoms

    def bitstring(self, atom) -> str:
        mask = self.masks[atom]
        return "".join("1" if mask >> i & 1 else "0" for i in range(len(self.target_atoms)))

    def to_doc(self) -> dict:
        return {json.dumps(a): self.bitstring(a) for a in self.atoms}


# -- the shared fixpoint and the minion test's levels --------------------------


def arc_consistency(domains: dict, constraints: list) -> Optional[dict]:
    """The greatest arc-consistent narrowing of ``domains``.

    ``domains`` maps each variable to a bitmask of value ids, and each
    constraint is a pair (scope, allowed value-id tuples).  Support is
    positional: a variable repeated in a scope is narrowed by each of its
    positions separately.  Returns the fixpoint domains, or None when one
    empties.
    """
    domains = dict(domains)
    changed = True
    while changed:
        changed = False
        for scope, tuples in constraints:
            masks = [domains[x] for x in scope]
            support = [0] * len(scope)
            for t in tuples:
                if all(m >> a & 1 for m, a in zip(masks, t)):
                    for pos, a in enumerate(t):
                        support[pos] |= 1 << a
            for x, mask in zip(scope, support):
                if domains[x] & ~mask:
                    domains[x] &= mask
                    if not domains[x]:
                        return None
                    changed = True
    return domains


@driver
def minion_test_horn_level(
    X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Level k of the Horn minion test: is there a homomorphism from the k-th
    tensor power of X into the free structure of the k-th tensor power of A?

    Both structures are k-enhanced before tensorising.  Decided by
    generalised arc consistency on the tensor powers, which is polynomial for
    fixed k, although the free structure itself has 2^(|A|^k) - 1 elements;
    an ACCEPT carries the greatest homomorphism, each atom sent to its
    fixpoint domain.
    """
    Xk = tensor_power(k_enhance(X, k, budget), k, budget)
    Ak = tensor_power(k_enhance(A, k, budget), k, budget)
    free = HornFreeStructure(Ak)
    constraints = [(scope, free._tuples[sym]) for sym in Xk.signature.names() for scope in Xk.tuples(sym)]
    budget.check_tuples(sum(len(tuples) for _, tuples in constraints), "arc consistency")
    found = arc_consistency({x: free.full_mask for x in Xk.domain}, constraints)
    stats = {"vars": len(Xk.domain), "constraints": len(constraints)}
    if found is None:
        return Verdict("minion-h", k, Status.REJECT, stats=stats)
    witness = HornWitness(tuple(Xk.domain), tuple(Ak.domain), found)
    return Verdict("minion-h", k, Status.ACCEPT, witness=witness, stats=stats)


def check_vanishing(
    witness: HornWitness, X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Re-check an accepted level-k witness on the tensorised pair.

    A level-k mask must vanish where its atom cannot reach (an atom with a
    repeat never maps onto distinct values), and the mask of a projection of
    an atom must be the projection of the atom's mask.  The free-structure
    check forces both, so they need no loops of their own: the tensorised
    ``R_k`` tuple built from an atom has every projection of the atom as a
    cell, the atom itself on the diagonal, and a free relation admits only
    masks that are the cellwise projections of one set of k-tuples of A.
    Returns True when every mask is nonempty and every tuple of masks lies in
    a free relation, and raises NotAHomomorphism otherwise.
    """
    Xk = tensor_power(k_enhance(X, k, budget), k, budget)
    free = HornFreeStructure(tensor_power(k_enhance(A, k, budget), k, budget))
    masks = witness.masks
    if not (all(masks.get(a, 0) for a in Xk.domain)
            and all(free.admits(sym, [masks[a] for a in t])
                    for sym in Xk.signature.names() for t in Xk.tuples(sym))):
        raise NotAHomomorphism("witness fails the free-structure constraints")
    return True
