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

The caller numbers the variables once: the builder takes the key tuple, and
each row is a dict from a variable's index in that tuple to its
coefficient.  The presolve runs on those ints alone (a list union-find, a
bytearray of pins, columns sorted by index, and the lower index kept as a
merge's root), and turns indices back into keys only for the emitted
system's column names.  Besides that ``LinearSystem``, ``build`` hands back
one int per variable index: the column of its merge class, or -1 when the
class has no column, being pinned or left free by discharged rows.

A caller that already knows a row to be ``x_v = 0`` or ``x_u - x_v = 0``
appends v to the builder's ``pins`` or (u, v) to its ``merges`` rather
than a row to its ``rows``.  ``build`` applies every merge, then every
pin, to its union-find, and flattens it so that each link names a root,
before its fixpoint over the rows.  The presolve's state is its set of zero
variables plus the merge classes of the others, the least fixpoint of
monotone rules, so the order in which pins, merges and rows are applied
cannot change which variables are zero or which are merged.  The fixpoint
is the one place a row is summed over roots and cleared of zeros.  The
emitted ``LinearSystem`` holds the numbers the caller passed (the marginal
rows pass ints).  A duplicate row is found by a key, its primitive int
vector: the row divided by the gcd of its entries, with the sign that
makes its lowest-index entry positive.  An int row divides into no
Fraction; a row with a Fraction is first scaled to ints by the lcm of its
denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable

from .exact_solvers import DomainTag, LinearSystem


@dataclass
class PresolvedSystem:
    system: LinearSystem
    key_order: tuple[Hashable, ...]
    columns: list[int]  # variable index -> the column of its merge class, or -1

    def expand(self, point: dict) -> dict:
        """Lift a solution over the columns back to the keys it makes nonzero.

        Merged keys take their class's value.  A class without a column is
        zero: either the presolve pinned it, or every row it was in was
        discharged, leaving it free.  A key left out is zero.
        """
        return {key: v for key, col in zip(self.key_order, self.columns)
                if col >= 0 and (v := point.get(col, 0))}


class EqualitySystemBuilder:
    """Collects rows ``(coeffs, rhs)``, pins v of ``x_v = 0`` and merges (u, v) of
    ``x_u = x_v`` over the variables numbered by ``keys``.

    A row's coeffs map a variable index to an int or exact rational; the
    caller appends to ``rows``, ``pins`` and ``merges``, and ``build`` reads them.
    """

    def __init__(self, domain: DomainTag, keys: tuple[Hashable, ...]):
        self.domain = domain
        self.keys = keys
        self.rows: list[tuple[dict, object]] = []
        self.pins: list[int] = []
        self.merges: list[tuple[int, int]] = []

    def build(self) -> PresolvedSystem:
        keys = self.keys
        parent = list(range(len(keys)))  # union-find links; a root has the lowest index
        pinned = bytearray(len(keys))

        def find(v: int) -> int:
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        def flatten() -> None:  # links point down, so one ascending pass links each to its root
            for v, p in enumerate(parent):
                parent[v] = parent[p]

        for u, v in self.merges:
            ru, rv = find(u), find(v)
            if ru < rv:
                parent[rv] = ru
            elif rv < ru:
                parent[ru] = rv
        flatten()
        for v in self.pins:
            pinned[parent[v]] = 1
        pending = self.rows
        while True:
            changed = False
            survivors = []
            for coeffs, rhs in pending:
                canon: dict = {}
                for v, c in coeffs.items():
                    root = parent[v]
                    if parent[root] != root:
                        root = find(v)
                    if not pinned[root]:
                        canon[root] = canon.get(root, 0) + c
                if 0 in canon.values():
                    canon = {v: c for v, c in canon.items() if c != 0}
                if not canon:
                    if rhs != 0:  # inconsistent, keep for the solver; drop a tautology
                        survivors.append((canon, rhs))
                    continue
                if rhs == 0:
                    if len(canon) == 1:
                        (root,) = canon
                        pinned[root] = 1
                        changed = True
                        continue
                    if len(canon) == 2:
                        (v1, c1), (v2, c2) = canon.items()
                        if c1 == -c2:
                            # both are current roots; the lower index stays
                            if v2 < v1:
                                v1, v2 = v2, v1
                            parent[v2] = v1
                            changed = True
                            continue
                    if self.domain is DomainTag.NONNEG_RAT:
                        signs = {c > 0 for c in canon.values()}
                        if len(signs) == 1:
                            for v in canon:
                                pinned[v] = 1
                            changed = True
                            continue
                survivors.append((canon, rhs))
            pending = survivors
            if not changed:
                break

        # one row per hyperplane: rows equal up to a nonzero factor collapse, and so
        # do the inconsistent empty rows, each keyed by its primitive int vector
        distinct: dict = {}
        for canon, rhs in pending:
            distinct.setdefault(_primitive(canon, rhs), (canon, rhs))
        final_rows = distinct.values()
        roots = sorted({root for canon, _ in final_rows for root in canon})
        column = {root: j for j, root in enumerate(roots)}
        rows = tuple({column[root]: c for root, c in canon.items()} for canon, _ in final_rows)
        rhs = tuple(b for _, b in final_rows)
        system = LinearSystem(tuple(keys[root] for root in roots), rows, rhs, self.domain)
        flatten()
        return PresolvedSystem(system, keys, [column.get(root, -1) for root in parent])


def _primitive(canon: dict, rhs) -> tuple:
    """The row as coprime ints, its lowest-index entry (rhs, if none) positive: two rows
    share it exactly when one is a nonzero multiple of the other."""
    try:
        g = math.gcd(*canon.values(), rhs)
    except TypeError:  # gcd takes ints only: scale a row of other numbers to ints first
        exact = [Fraction(c) for c in (*canon.values(), rhs)]
        den = math.lcm(*(c.denominator for c in exact))
        *coeffs, b = (int(c * den) for c in exact)
        return _primitive(dict(zip(canon, coeffs)), b)
    if (canon[min(canon)] if canon else rhs) < 0:
        g = -g
    if g == 1:
        return frozenset(canon.items()), rhs
    return frozenset((v, c // g) for v, c in canon.items()), rhs // g
