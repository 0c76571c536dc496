"""Equality-system builder with sound presolve.

The relaxation systems are huge but massively redundant: most rows are
pairwise variable identifications or force variables to zero outright.  The
builder applies only equivalence-preserving reductions before the exact
solvers run:

* two-term rows ``c x - c y = 0`` merge x and y (union-find),
* single-term rows ``c x = 0`` pin x to zero (any variable domain),
* rows with all coefficients of one sign and zero right-hand side pin all
  their variables (nonnegative domain only),
* duplicate rows (equal up to a nonzero rational factor, hence the same
  hyperplane) collapse to one.

Inconsistent rows such as ``0 = 1`` are kept so that the downstream solver
rejects and its certificate verifies against the emitted system.

``build`` is the one place a row is summed over roots and cleared of zeros.
The emitted ``LinearSystem`` holds the numbers the caller passed (the
marginal rows pass ints).  Only the duplicate-row key divides into
Fractions, and only for a row whose leading coefficient is not +-1: a
row led by +-1 is keyed as itself times that sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .exact_solvers import DomainTag, LinearSystem
from .rationals import rat


@dataclass
class PresolvedSystem:
    system: LinearSystem
    key_order: tuple[Hashable, ...]
    root_of: dict
    column_of: dict

    def expand(self, point: dict) -> dict:
        """Lift a solution over representative columns back to every key.

        Merged keys take their representative's value.  A representative
        without a column is zero: either the presolve pinned it, or every row
        it was in was discharged, leaving it free.
        """
        out = {}
        for key in self.key_order:
            col = self.column_of.get(self.root_of[key])
            out[key] = 0 if col is None else point.get(col, 0)
        return out


class EqualitySystemBuilder:
    """Collects sparse equality rows over hashable variable keys."""

    def __init__(self, domain: DomainTag):
        self.domain = domain
        self._parent: dict = {}  # union-find links, keyed in registration order
        self._rows: list[tuple[dict, object]] = []

    def ensure_var(self, key: Hashable) -> None:
        self._parent.setdefault(key, key)

    def add_row(self, coeffs: dict, rhs) -> None:
        """Register every key, a zero coefficient's too, and store the caller's row unchanged.

        Coefficients may be ints or exact rationals; ``build`` reads the row.
        """
        for key in coeffs:
            self._parent.setdefault(key, key)
        self._rows.append((coeffs, rhs))

    def build(self) -> PresolvedSystem:
        keys = tuple(self._parent)
        order = {k: i for i, k in enumerate(keys)}

        def find(key):
            root = key
            while self._parent[root] != root:
                root = self._parent[root]
            while self._parent[key] != root:
                self._parent[key], key = root, self._parent[key]
            return root

        pinned: set = set()
        pending = list(self._rows)
        while True:
            changed = False
            survivors = []
            for coeffs, rhs in pending:
                canon: dict = {}
                for key, c in coeffs.items():
                    root = find(key)
                    if root not in pinned:
                        canon[root] = canon.get(root, 0) + c
                canon = {k: c for k, c in canon.items() if c != 0}
                if not canon:
                    if rhs != 0:  # inconsistent, keep for the solver; drop a tautology
                        survivors.append((canon, rhs))
                    continue
                if rhs == 0:
                    if len(canon) == 1:
                        (root,) = canon
                        pinned.add(root)
                        changed = True
                        continue
                    if len(canon) == 2:
                        (k1, c1), (k2, c2) = canon.items()
                        if c1 == -c2:
                            # both are current roots; the one registered first stays
                            if order[k2] < order[k1]:
                                k1, k2 = k2, k1
                            self._parent[k2] = k1
                            changed = True
                            continue
                    if self.domain is DomainTag.NONNEG_RAT:
                        signs = {c > 0 for c in canon.values()}
                        if len(signs) == 1:
                            pinned.update(canon)
                            changed = True
                            continue
                survivors.append((canon, rhs))
            pending = survivors
            if not changed:
                break

        # one row per hyperplane: rows equal up to a nonzero factor collapse, and so
        # do the inconsistent empty rows, each scaled by its own right-hand side; an
        # int and an equal Fraction hash alike, so both kinds of key meet
        distinct: dict = {}
        for canon, rhs in pending:
            items = sorted(canon.items(), key=lambda t: order[t[0]])
            scale = items[0][1] if items else rhs
            if scale == 1 or scale == -1:
                key = (tuple((order[k], c * scale) for k, c in items), rhs * scale)
            else:
                key = (tuple((order[k], rat(c, scale)) for k, c in items), rat(rhs, scale))
            distinct.setdefault(key, (canon, rhs))
        final_rows = distinct.values()
        roots_in_rows = sorted({root for canon, _ in final_rows for root in canon},
                               key=order.__getitem__)
        column_of = {root: i for i, root in enumerate(roots_in_rows)}
        rows = tuple({column_of[root]: c for root, c in canon.items()} for canon, _ in final_rows)
        rhs = tuple(b for _, b in final_rows)
        system = LinearSystem(tuple(roots_in_rows), rows, rhs, self.domain)
        root_of = {k: find(k) for k in keys}
        return PresolvedSystem(system, keys, root_of, column_of)
