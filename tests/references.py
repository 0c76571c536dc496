"""Reference checks and helpers that only the tests use.

Each one re-derives or re-checks something a driver or solver produces:
the local-consistency family inside an LP witness, the family check against
every subset of at most k atoms, the consequences every
basic-SDP solution obeys, the equations an ``sos`` witness meets, the exact
Gram reduction in Fractions alone, the Gram projector through the
pseudo-inverse of the dense constraint matrix, the marginal rows, witness
check and presolve with one projection per tuple,
every variable keyed by its tuple and every sum and row key on the
original values, the repeated ``R_k`` scopes whose identities the marginal
rows leave out, the marginal front end that stamped one dict per
identity from its own template and presolved each as a row, the basic SDP's Gram problem written
out loop by loop, the simplex on a
Fraction tableau, integer points,
homomorphism counts, the homomorphism search that rescanned A's relation
for each partly mapped tuple, the partial maps as a product over images,
tensor-power
cell positions, certificates read back from JSON, the Hermite form with
U rebuilt from its log, the Hermite form that reduced each row as it went
and carried U in its column maps, with its own forward substitution and
parity vector, the Horn free structure enumerated in full, and the
vanishing conditions on a level-k Horn witness.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Collection, Iterator, Optional
from unittest import mock

import numpy as np

from minionlab import exact_solvers
from minionlab.budgets import DEFAULT_BUDGET, Budget
from minionlab.errors import ArityMismatch, InvalidWitness, IterationBudget
from minionlab.exact_solvers import (
    Certificate,
    CertificateKind,
    DomainTag,
    LinearSystem,
    SolveOutcome,
    _hnf,
    _reduce,
    _times_u,
)
from minionlab.free_structures import HornFreeStructure
from minionlab.hierarchies import BWFamily, MarginalWitness, is_valid_bw_family
from minionlab.psd import GramProblem, Inconsistent, ReducedGramProblem
from minionlab.rationals import R0, R1, is_integral, rat
from minionlab.structures import (
    Assignment,
    Structure,
    _iter_homomorphisms,
    _projections,
    is_partial_homomorphism,
    precedes,
    project,
)
from minionlab.system_builders import PresolvedSystem

# -- local consistency inside an LP witness -------------------------------------------


def support_family(witness: MarginalWitness, X: Structure, A: Structure, k: int) -> BWFamily:
    """The partial maps carrying positive enhancement weight, plus the empty map.

    The result is asserted to be a valid local-consistency family: members
    are partial homomorphisms (positive weight never sits on a scope
    violation), restrictions follow from marginalisation, and extensions from
    positive mass in the projected scopes.
    """
    enh = f"R_{k}"
    maps = {Assignment(())}
    for (sym, xt, at), v in witness.values.items():
        if sym != enh or v == 0:
            continue
        if v < 0:
            raise InvalidWitness(f"negative weight at {(sym, xt, at)}")
        if not precedes(xt, at):
            raise InvalidWitness(f"positive weight on a scope violation at {(xt, at)}")
        maps.add(Assignment(tuple(sorted(set(zip(xt, at)), key=repr))))
    family = sorted(maps, key=lambda a: (len(a.mapping), repr(a.mapping)))
    for f in family:
        if not is_partial_homomorphism(f, X, A):
            raise InvalidWitness(f"support map {f.mapping} is not a partial homomorphism")
    if not is_valid_bw_family(family, X, A, k):
        raise InvalidWitness("support does not form a valid local-consistency family")
    return BWFamily(tuple(family))


def reference_is_valid_bw_family(maps, X: Structure, A: Structure, k: int) -> bool:
    """``hierarchies.is_valid_bw_family`` as it was, against every subset of at most k atoms."""
    fam = {frozenset(f.mapping) for f in maps}
    if not fam:
        return False
    by_dom: dict = {}
    for f in fam:
        dom = frozenset(a for a, _ in f)
        if len(dom) > k:
            return False
        if not is_partial_homomorphism(Assignment(tuple(f)), X, A):
            return False
        by_dom.setdefault(dom, []).append(f)
    doms = [frozenset(c)
            for j in range(0, min(k, len(X.domain)) + 1)
            for c in itertools.combinations(X.domain, j)]
    for f in fam:
        dom = frozenset(a for a, _ in f)
        for V in doms:
            if V <= dom:
                if frozenset(p for p in f if p[0] in V) not in fam:
                    return False
            if dom <= V:
                if not any(f <= g for g in by_dom.get(V, ())):
                    return False
    return True


# -- structural fact checks on extracted vectors -----------------------------------


@dataclass
class FactReport:
    checked: int
    violations: list
    max_error: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sdp_facts(vectors: dict, X, A, tol: float = 1e-6) -> FactReport:
    """Consequences every exact solution of the basic vector relaxation obeys.

    (i) the vectors of one variable sum to a unit vector; (ii) squared norms
    within one constraint sum to one, as does the norm of their sum; (iii)
    mixed products match marginal mass; (iv) with the full binary relation
    present, the per-variable sums agree across variables.
    """
    violations = []
    max_err = 0.0
    checked = 0

    def note(kind, where, err):
        nonlocal max_err, checked
        checked += 1
        max_err = max(max_err, err)
        if err > tol:
            violations.append((kind, where, err))

    sums = {}
    for x in X.domain:
        s = sum((vectors[("v", x, a)] for a in A.domain), start=np.zeros_like(next(iter(vectors.values()))))
        sums[x] = s
        note("unit-variable-sum", x, abs(float(s @ s) - 1.0))
    for sym in X.signature.names():
        for xt in X.tuples(sym):
            vs = [vectors[("c", sym, xt, at)] for at in A.tuples(sym)]
            total = sum(vs[1:], start=vs[0]) if vs else np.zeros(1)
            sq = sum(float(v @ v) for v in vs)
            note("constraint-mass", (sym, xt), abs(sq - 1.0))
            note("constraint-sum-norm", (sym, xt), abs(float(total @ total) - 1.0))
            r = X.signature.arity(sym)
            for i in range(r):
                for j in range(r):
                    for a in A.domain:
                        for b in A.domain:
                            mass = sum(
                                float(vectors[("c", sym, xt, at)] @ vectors[("c", sym, xt, at)])
                                for at in A.tuples(sym)
                                if at[i] == a and at[j] == b
                            )
                            dot = float(
                                vectors[("v", xt[i], a)] @ vectors[("v", xt[j], b)]
                            )
                            note("mixed-product", (sym, xt, i + 1, j + 1, a, b), abs(mass - dot))
    if "R_2" in X.signature:
        ref = None
        for x in X.domain:
            if ref is None:
                ref = sums[x]
            else:
                note("sum-invariance", x, float(np.max(np.abs(sums[x] - ref))))
    return FactReport(checked, violations, max_err)


def sos_keys(Xk: Structure, Ak: Structure) -> set:
    """The label ``("c", sym, xt, at)`` of each variable of the marginal system of the
    k-enhanced pair: a scope of Xk and a tuple of A^k that respects it."""
    return {("c", sym, xt, at) for sym in Xk.signature.names() for xt in Xk.tuples(sym)
            for at in Ak.tuples(sym) if precedes(xt, at)}


def sos_violation(Xk: Structure, Ak: Structure, k: int, vectors: dict) -> float:
    """The largest violation of the level-k vector relaxation's equations, one vector per key.

    The vectors of one scope are pairwise orthogonal and their squared
    norms sum to one.  For each k-tuple i of its positions and each b in
    A^k, the sum of the scope's vectors whose tuple projects onto b equals
    the vector of the ``R_k`` scope ``project(xt, i)`` at b, or 0 when that
    scope has no variable at b.
    """
    zero = np.zeros_like(next(iter(vectors.values())))
    worst = 0.0
    for sym, arity in Xk.signature.symbols:
        for xt in Xk.tuples(sym):
            scope = {at: vectors[("c", sym, xt, at)] for at in Ak.tuples(sym) if precedes(xt, at)}
            worst = max(worst, abs(sum(float(v @ v) for v in scope.values()) - 1.0))
            for u, w in itertools.combinations(scope.values(), 2):
                worst = max(worst, abs(float(u @ w)))
            for i in itertools.product(range(1, arity + 1), repeat=k):
                xi = project(xt, i)
                for b in itertools.product(Ak.domain, repeat=k):
                    total = sum((v for at, v in scope.items() if project(at, i) == b), zero)
                    if precedes(xi, b):
                        total = total - vectors[("c", f"R_{k}", xi, b)]
                    worst = max(worst, float(np.max(np.abs(total), initial=0.0)))
    return worst


# -- the exact Gram reduction, every value a Fraction ----------------------------------


def _reference_reduce_row(row: dict, pivot_rows: dict) -> dict:
    row = dict(row)
    while True:
        hit = None
        for lab in row:
            if lab in pivot_rows:
                hit = lab
                break
        if hit is None:
            return {k: v for k, v in row.items() if v != 0}
        c = row.pop(hit)
        for k, v in pivot_rows[hit].items():
            if k != hit:
                row[k] = row.get(k, R0) - c * v
        row = {k: v for k, v in row.items() if v != 0}


def _reference_insert_pivot(row: dict, pivot_rows: dict, rank) -> None:
    pivot = max(row, key=rank)
    inv = R1 / row[pivot]
    norm = {k: v * inv for k, v in row.items()}
    for other, prow in list(pivot_rows.items()):
        if pivot in prow:
            c = prow.pop(pivot)
            for k, v in norm.items():
                if k != pivot:
                    prow[k] = prow.get(k, R0) - c * v
            pivot_rows[other] = {k: v for k, v in prow.items() if v != 0 or k == other}
    pivot_rows[pivot] = norm


def _reference_proportionality(u: dict, w: dict):
    if set(u) != set(w):
        return None
    ratio = None
    for k, uv in u.items():
        r = uv / w[k]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


def reference_affine_reduce(problem: GramProblem):
    """``psd.affine_reduce`` as it was with every value a Fraction.

    The same elimination in the same order: identifications, forced-zero
    fixpoint, unit-group check, then the independent Gram constraints, with
    every zero-pair form pushed.  The fast reduction must give equal reps,
    combos and constraints, or an equal ``Inconsistent``.
    """
    label_order = {lab: i for i, lab in enumerate(problem.labels)}
    pivot_rows: dict = {}
    steps: list = []

    def add_relation(row: dict) -> bool:
        reduced = _reference_reduce_row(row, pivot_rows)
        if reduced:
            _reference_insert_pivot(reduced, pivot_rows, label_order.__getitem__)
        return bool(reduced)

    for ident in problem.identifications:
        row: dict = {}
        for lab, c in ident:
            row[lab] = row.get(lab, R0) + rat(c)
        add_relation(row)

    def combo(lab) -> dict:
        if lab not in pivot_rows:
            return {lab: R1}
        return {k: -v for k, v in pivot_rows[lab].items() if k != lab}

    while True:
        new_rows = []
        for l1, l2 in problem.zero_pairs:
            u, w = combo(l1), combo(l2)
            if not u or not w:
                continue
            if _reference_proportionality(u, w) is not None:
                new_rows.append((dict(w), ("zero-norm", str(l1), str(l2))))
        grew = [note for row, note in new_rows if add_relation(row)]
        if not grew:
            break
        steps += grew

    for group in problem.unit_groups:
        if all(not combo(lab) for lab in group):
            steps.append(("unit-group-empty", ", ".join(str(lab) for lab in group)))
            return Inconsistent(steps, "a unit-norm group collapsed to the zero vector")

    reps_set: set = set()
    combos = {lab: combo(lab) for lab in problem.labels}
    for c in combos.values():
        reps_set.update(c)
    reps = tuple(sorted(reps_set, key=lambda lab: label_order[lab]))
    rep_index = {lab: i for i, lab in enumerate(reps)}

    def bilinear(u: dict, w: dict) -> dict:
        out: dict = {}
        for s, cs in u.items():
            for t, ct in w.items():
                si, ti = rep_index[s], rep_index[t]
                key = (si, ti) if si <= ti else (ti, si)
                out[key] = out.get(key, R0) + cs * ct
        return {k: v for k, v in out.items() if v != 0}

    constraints: list = []
    gram_pivots: dict = {}

    def push(coeffs: dict, rhs):
        reduced = _reference_reduce_row({**coeffs, (): rat(rhs)}, gram_pivots)
        if list(reduced) == [()]:
            steps.append(("affine-contradiction", f"0 = {reduced[()]}"))
            return Inconsistent(steps, "the Gram constraints are affinely contradictory")
        if reduced:
            _reference_insert_pivot(reduced, gram_pivots, None)
            constraints.append((coeffs, rat(rhs)))
        return None

    for l1, l2 in problem.zero_pairs:
        bad = push(bilinear(combos[l1], combos[l2]), 0)
        if bad:
            return bad
    for group in problem.unit_groups:
        acc: dict = {}
        for lab in group:
            for k, v in bilinear(combos[lab], combos[lab]).items():
                acc[k] = acc.get(k, R0) + v
        bad = push(acc, 1)
        if bad:
            return bad

    return ReducedGramProblem(reps, combos, constraints)


# -- the Gram projector, through the pseudo-inverse of the dense constraint matrix ---------


class ReferenceAffineProjector:
    """``psd._AffineProjector`` as it was, with C a dense m x n^2 matrix.

    Each constraint sum v * G[s, t] = b becomes the symmetric matrix with v/2
    at (s, t) and at (t, s), flattened into one row of C.  The pseudo-inverse
    of C is computed once, and ``project(G)`` is G - C^+ (C vec G - b).
    """

    def __init__(self, n: int, constraints):
        c = np.zeros((len(constraints), n, n))
        for i, (row, _) in enumerate(constraints):
            for (s, t), v in row.items():
                c[i, s, t] += float(v) / 2.0
                c[i, t, s] += float(v) / 2.0
        self.c = c.reshape(len(constraints), n * n)
        self.c_pinv = np.linalg.pinv(self.c)
        self.rhs = np.array([float(r) for _, r in constraints])

    def _misfit(self, G: np.ndarray) -> np.ndarray:
        return self.c @ G.reshape(-1) - self.rhs

    def violation(self, G: np.ndarray) -> float:
        return float(np.max(np.abs(self._misfit(G)), initial=0.0))

    def project(self, G: np.ndarray) -> np.ndarray:
        return G - (self.c_pinv @ self._misfit(G)).reshape(G.shape)


# -- the marginal front end, every projection and sum on the original values --------------


def reference_repeated_scopes(Xk: Structure, k: int) -> set:
    """The ``R_k`` scopes whose identities ``hierarchies._marginal_rows`` leaves out.

    The scopes are walked in the order they are numbered.  An ``R_k`` scope
    is stated unless an earlier stated scope marked it; each stated scope
    marks as repeats the ``R_k`` scopes it projects onto by a position tuple
    naming each of its positions, other than itself and those already
    stated.  Each projection is made by ``project``.
    """
    enh = f"R_{k}"
    stated: set = set()
    repeats: set = set()
    for sym, arity in Xk.signature.symbols:
        for xt in Xk.tuples(sym):
            if sym == enh:
                if xt in repeats:
                    continue
                stated.add(xt)
            for i in itertools.product(range(1, arity + 1), repeat=k):
                if set(i) == set(range(1, arity + 1)):
                    xi = project(xt, i)
                    if xi not in stated:
                        repeats.add(xi)
    return repeats


def reference_marginal_rows(Xk: Structure, Ak: Structure, k: int,
                            skip: Collection = ()) -> tuple[list, list]:
    """``hierarchies._marginal_rows`` as it was with one ``project`` and ``precedes`` per cell.

    The identities of the ``R_k`` scopes in ``skip`` are left out.  The fast
    version must list equal scopes and equal identity dicts, in the same
    order, when ``skip`` is ``reference_repeated_scopes``.
    """
    enh = f"R_{k}"
    scopes = [(sym, xt, tuple(at for at in Ak.tuples(sym) if precedes(xt, at)))
              for sym in Xk.signature.names() for xt in Xk.tuples(sym)]
    identities = []
    for sym, xt, images in scopes:
        if sym == enh and xt in skip:
            continue
        for i in itertools.product(range(1, len(xt) + 1), repeat=k):
            xi = project(xt, i)
            groups: dict = {}
            for at in images:
                groups.setdefault(project(at, i), []).append(at)
            for b in itertools.product(Ak.domain, repeat=k):
                row = {(sym, xt, at): 1 for at in groups.get(b, ())}
                if precedes(xi, b):
                    key = (enh, xi, b)
                    row[key] = row.get(key, 0) - 1
                row = {key: c for key, c in row.items() if c != 0}
                if row:
                    identities.append(row)
    return scopes, identities


def reference_validate_marginal_witness(
    values: dict, Xk: Structure, Ak: Structure, k: int, integral: bool = False
) -> None:
    """``hierarchies.validate_marginal_witness`` as it was, summing the exact values."""
    enh = f"R_{k}"
    for (sym, xt, at), v in values.items():
        if integral and not is_integral(v):
            raise InvalidWitness(f"non-integer weight at {(sym, xt, at)}")
        if not integral and v < 0:
            raise InvalidWitness(f"negative weight at {(sym, xt, at)}")
        if not precedes(xt, at) and v != 0:
            raise InvalidWitness(f"scope-violating weight at {(sym, xt, at)}")
    for sym, arity in Xk.signature.symbols:
        for xt in Xk.tuples(sym):
            total = sum(values.get((sym, xt, at), 0) for at in Ak.tuples(sym))
            if total != 1:
                raise InvalidWitness(f"unit mass violated at {(sym, xt)}: {total}")
            for i in itertools.product(range(1, arity + 1), repeat=k):
                xi = project(xt, i)
                sums: dict = {}
                for at in Ak.tuples(sym):
                    b = project(at, i)
                    sums[b] = sums.get(b, 0) + values.get((sym, xt, at), 0)
                for b in itertools.product(Ak.domain, repeat=k):
                    lhs = sums.get(b, 0)
                    rhs = values.get((enh, xi, b), 0)
                    if lhs != rhs:
                        raise InvalidWitness(
                            f"marginal violated at {(sym, xt, i, b)}: {lhs} != {rhs}"
                        )


class ReferenceSystemBuilder:
    """``EqualitySystemBuilder`` over hashable keys, registered as its rows name
    them, whose ``build`` sorts each merged pair and keys every duplicate row
    through ``rat``."""

    def __init__(self, domain: DomainTag):
        self.domain = domain
        self._parent: dict = {}  # union-find links, keyed in registration order
        self._rows: list[tuple[dict, object]] = []

    def add_row(self, coeffs: dict, rhs) -> None:
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
                    if rhs != 0:
                        survivors.append((canon, rhs))
                    continue
                if rhs == 0:
                    if len(canon) == 1:
                        (root,) = canon
                        pinned.add(root)
                        changed = True
                        continue
                    if len(canon) == 2:
                        (k1, c1), (k2, c2) = sorted(canon.items(), key=lambda t: order[t[0]])
                        if c1 == -c2:
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

        distinct: dict = {}
        for canon, rhs in pending:
            items = sorted(canon.items(), key=lambda t: order[t[0]])
            scale = items[0][1] if items else rhs
            key = (tuple((order[k], rat(c, scale)) for k, c in items), rat(rhs, scale))
            distinct.setdefault(key, (canon, rhs))
        final_rows = distinct.values()
        roots_in_rows = sorted({root for canon, _ in final_rows for root in canon},
                               key=order.__getitem__)
        column_of = {root: i for i, root in enumerate(roots_in_rows)}
        rows = tuple({column_of[root]: c for root, c in canon.items()} for canon, _ in final_rows)
        rhs = tuple(b for _, b in final_rows)
        system = LinearSystem(tuple(roots_in_rows), rows, rhs, self.domain)
        return PresolvedSystem(system, keys, [column_of.get(find(k), -1) for k in keys])


# -- the marginal front end with one dict per identity ------------------------------------


def identity_row(ident: tuple) -> dict:
    """The identity ``(*images, cell)`` as the row sum(images) - cell = 0: id -> coefficient."""
    row = dict.fromkeys(ident, 1)
    row[ident[-1]] = -1
    return row


def dict_row_template(xt: tuple, tuples: tuple, projections: list, cells: list,
                      targets_of: dict) -> tuple:
    """``hierarchies._template`` as it was: the images, and for every projection,
    an ``R_k`` scope's projections onto itself included, its getter and the
    local indices of the images projecting onto each cell the projected
    scope precedes."""
    images = [at for at in tuples if precedes(xt, at)]
    stamps = []
    for _, get in projections:
        xi = get(xt)
        xi_pattern = tuple(map(xi.index, xi))
        targets = targets_of.get(xi_pattern)
        if targets is None:
            targets = targets_of[xi_pattern] = [b for b in cells if precedes(xi, b)]
        local: dict = {}
        for i, at in enumerate(images):
            local.setdefault(get(at), []).append(i)
        stamps.append((get, [local.get(b, ()) for b in targets]))
    return images, stamps


def dict_row_marginal_rows(Xk: Structure, Ak: Structure, k: int,
                           skip: Collection = ()) -> tuple:
    """``hierarchies._marginal_rows`` as it was with each identity stamped as its own dict.

    Returns the key tuple, each scope's id range, and one dict from id to
    coefficient per identity, in the same order as the id tuples.  The
    identities of the ``R_k`` scopes in ``skip`` are left out; by default
    every scope's are stated.
    """
    enh = f"R_{k}"
    cells = list(itertools.product(Ak.domain, repeat=k))
    projections = {arity: _projections(arity, k) for _, arity in Xk.signature.symbols}
    templates: dict = {}
    targets_of: dict = {}
    keys: list = []
    scopes = []
    enh_start: dict = {}
    for sym in Xk.signature.names():
        tuples = Ak.tuples(sym)
        for xt in Xk.tuples(sym):
            pattern = (sym, tuple(map(xt.index, xt)))
            template = templates.get(pattern)
            if template is None:
                template = templates[pattern] = dict_row_template(
                    xt, tuples, projections[len(xt)], cells, targets_of)
            images, stamps = template
            ids = range(len(keys), len(keys) + len(images))
            keys.extend((sym, xt, at) for at in images)
            if sym == enh:
                enh_start[xt] = ids.start
            scopes.append((sym, xt, stamps, ids))
    identities = []
    for sym, xt, stamps, ids in scopes:
        if sym == enh and xt in skip:
            continue
        base = ids.start
        for get, groups in stamps:
            for v, group in enumerate(groups, enh_start[get(xt)]):
                if not group:
                    identities.append({v: -1})
                elif len(group) == 1:
                    u = base + group[0]
                    if u != v:
                        identities.append({u: 1, v: -1})
                else:
                    row = dict.fromkeys([base + i for i in group], 1)
                    row[v] = -1
                    identities.append(row)
    return tuple(keys), [ids for *_, ids in scopes], identities


class DictRowSystemBuilder:
    """``EqualitySystemBuilder`` as it was, reading every identity back as a row.

    Its ``build`` sends a one-term row, or a two-term row with opposite
    coefficients, with right-hand side 0 straight to its pin or merge as the
    fixpoint meets it, among the other rows.
    """

    def __init__(self, domain: DomainTag, keys: tuple):
        self.domain = domain
        self.keys = keys
        self._rows: list[tuple[dict, object]] = []

    def add_row(self, coeffs: dict, rhs) -> None:
        self._rows.append((coeffs, rhs))

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

        pending = self._rows
        while True:
            changed = False
            survivors = []
            for coeffs, rhs in pending:
                if rhs == 0 and len(coeffs) == 1:
                    # a pin as the caller wrote it: the one-term test below, on its root
                    ((v, c),) = coeffs.items()
                    root = find(v)
                    if c and not pinned[root]:
                        pinned[root] = 1
                        changed = True
                    continue
                if rhs == 0 and len(coeffs) == 2:
                    (v1, c1), (v2, c2) = coeffs.items()
                    if c1 and c1 == -c2:
                        # a merge as the caller wrote it: the tests below, on its roots
                        r1, r2 = find(v1), find(v2)
                        if r1 != r2 and not (pinned[r1] and pinned[r2]):
                            if pinned[r1] or pinned[r2]:  # one term is left: pin it
                                pinned[r1] = pinned[r2] = 1
                            else:
                                parent[max(r1, r2)] = min(r1, r2)
                            changed = True
                        continue
                canon: dict = {}
                for v, c in coeffs.items():
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
        # do the inconsistent empty rows, each scaled by its own right-hand side; an
        # int and an equal Fraction hash alike, so both kinds of key meet
        distinct: dict = {}
        for canon, rhs in pending:
            scale = canon[min(canon)] if canon else rhs
            if scale == 1:
                key = (frozenset(canon.items()), rhs)
            elif scale == -1:
                key = (frozenset((v, -c) for v, c in canon.items()), -rhs)
            else:
                key = (frozenset((v, rat(c, scale)) for v, c in canon.items()), rat(rhs, scale))
            distinct.setdefault(key, (canon, rhs))
        final_rows = distinct.values()
        roots = sorted({root for canon, _ in final_rows for root in canon})
        column = {root: j for j, root in enumerate(roots)}
        rows = tuple({column[root]: c for root, c in canon.items()} for canon, _ in final_rows)
        rhs = tuple(b for _, b in final_rows)
        system = LinearSystem(tuple(keys[root] for root in roots), rows, rhs, self.domain)
        return PresolvedSystem(system, keys, [column.get(find(v), -1) for v in range(len(keys))])


def dict_row_linear_system(domain_tag: DomainTag, keys: tuple, scopes: list,
                           identities: list) -> PresolvedSystem:
    """``hierarchies._linear_system`` as it was: unit mass, then every identity as a row."""
    builder = DictRowSystemBuilder(domain_tag, keys)
    for ids in scopes:
        builder.add_row(dict.fromkeys(ids, 1), 1)
    for row in identities:
        builder.add_row(row, 0)
    return builder.build()


def dict_row_gram_problem(keys: tuple, scopes: list, identities: list) -> GramProblem:
    """The Gram problem with one label ``("c",) + key`` per variable: a unit group per
    scope, the pairs inside each, and each identity's dict as an identification.

    ``sos`` posed this problem, over every key, before it read the presolved
    columns; the tests compare its reduction with that of ``sos``'s problem.
    """
    labels = tuple(("c",) + key for key in keys)
    groups = tuple(labels[ids.start:ids.stop] for ids in scopes)
    return GramProblem(
        labels=labels,
        unit_groups=groups,
        zero_pairs=tuple(pair for group in groups for pair in itertools.combinations(group, 2)),
        identifications=tuple(tuple((labels[v], c) for v, c in row.items())
                              for row in identities),
    )


# -- the basic SDP's Gram problem, written out loop by loop ------------------------------


def reference_sdp_problem(X: Structure, A: Structure) -> GramProblem:
    """``hierarchies._sdp_problem`` as it was, each label, pair and identity appended in turn."""
    labels: list = []
    for x in X.domain:
        for a in A.domain:
            labels.append(("v", x, a))
    for sym in X.signature.names():
        for xt in X.tuples(sym):
            for at in A.tuples(sym):
                labels.append(("c", sym, xt, at))
    unit_groups = tuple(
        tuple(("v", x, a) for a in A.domain) for x in X.domain
    )
    zero_pairs: list = []
    for x in X.domain:
        for a, a2 in itertools.combinations(A.domain, 2):
            zero_pairs.append((("v", x, a), ("v", x, a2)))
    for sym in X.signature.names():
        for xt in X.tuples(sym):
            for at, at2 in itertools.combinations(A.tuples(sym), 2):
                zero_pairs.append((("c", sym, xt, at), ("c", sym, xt, at2)))
    idents: list = []
    for sym, arity in X.signature.symbols:
        for xt in X.tuples(sym):
            for i in range(1, arity + 1):
                for a in A.domain:
                    row = [(("c", sym, xt, at), 1) for at in A.tuples(sym) if at[i - 1] == a]
                    row.append((("v", xt[i - 1], a), -1))
                    idents.append(tuple(row))
    # a constraint's vectors are orthogonal and, through the identifications of
    # its first position, sum to the orthogonal sum of a variable's vectors:
    # their squared norms sum to one as well
    implied = tuple(tuple(("c", sym, xt, at) for at in A.tuples(sym))
                    for sym in X.signature.names() for xt in X.tuples(sym))
    return GramProblem(tuple(labels), unit_groups, tuple(zero_pairs), tuple(idents), implied)


# -- exact solvers ------------------------------------------------------------------


class ReferenceSimplex:
    """The Fraction tableau that ``ExactSimplex`` replaced, kept to compare pivots.

    Phase-1/phase-2 tableau simplex over exact rationals, Bland's rule.

    The tableau keeps the artificial columns; after a successful phase 1 they
    also provide the basis-inverse data needed for Farkas extraction.  Rows
    are dense lists, but a pivot scales the pivot row once, collects its
    nonzero columns, and updates only those entries, in place, in each row
    (and the objective) with a nonzero entry in the pivot column.
    """

    def __init__(self, sys: LinearSystem, budget: Budget = DEFAULT_BUDGET):
        self.n = sys.num_vars
        self.m = sys.num_rows
        self.budget = budget
        self.pivots = 0
        self.row_sign = []
        self.table: list[list] = []
        width = self.n + self.m + 1
        for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
            sign = R1 if b >= 0 else -R1
            self.row_sign.append(sign)
            dense = [R0] * width
            for j, c in row.items():
                dense[j] = sign * c
            dense[self.n + i] = R1
            dense[-1] = sign * b
            self.table.append(dense)
        self.basis = [self.n + i for i in range(self.m)]
        self.obj: list = []
        self.feasible: Optional[bool] = None
        self.live_rows = list(range(self.m))

    # - low-level pivoting -

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.budget.max_pivots:
            raise IterationBudget(f"simplex exceeded {self.budget.max_pivots} pivots")
        tab = self.table
        prow = tab[row]
        inv = R1 / prow[col]
        nonzeros = []
        for j, v in enumerate(prow):
            if v:
                v *= inv
                prow[j] = v
                nonzeros.append((j, v))
        for i in self.live_rows:
            if i == row:
                continue
            r = tab[i]
            f = r[col]
            if f:
                for j, p in nonzeros:
                    r[j] -= f * p
        obj = self.obj
        f = obj[col]
        if f:
            for j, p in nonzeros:
                obj[j] -= f * p
        self.basis[row] = col

    def _run(self, target: int = -1) -> bool:
        """Bland iterations over the structural columns; False if unbounded.

        With a ``target`` column, stop at the first basis in which that
        column is basic and positive.
        """
        while True:
            if target >= 0 and target in self.basis \
                    and self.table[self.basis.index(target)][-1] > 0:
                return True
            enter = -1
            for j in range(self.n):
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return True
            best_ratio = None
            best_row = -1
            best_var = None
            for i in self.live_rows:
                a = self.table[i][enter]
                if a > 0:
                    ratio = self.table[i][-1] / a
                    key = self.basis[i]
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and key < best_var
                    ):
                        best_ratio, best_row, best_var = ratio, i, key
            if best_row < 0:
                return False
            self._pivot(best_row, enter)

    # - phase 1 -

    def solve_phase1(self) -> bool:
        width = self.n + self.m + 1
        obj = [R0] * width
        # minimize the sum of artificials: reduced costs under the artificial basis,
        # which are zero on the artificial columns themselves
        for i in self.live_rows:
            row = self.table[i]
            for j, v in enumerate(row):
                if v and (j < self.n or j == width - 1):
                    obj[j] -= v
        self.obj = obj
        bounded = self._run()
        assert bounded, "phase 1 objective is bounded below by zero"
        value = -self.obj[-1]
        self.feasible = value == 0
        if self.feasible:
            self._evict_artificials()
        return self.feasible

    def _evict_artificials(self) -> None:
        """Pivot artificials out of the basis; drop rows that are redundant."""
        for i in list(self.live_rows):
            if self.basis[i] >= self.n:
                target = -1
                for j in range(self.n):
                    if self.table[i][j] != R0:
                        target = j
                        break
                if target >= 0:
                    self._pivot(i, target)
                else:
                    self.live_rows.remove(i)

    def farkas_vector(self) -> tuple:
        """A vector y with y^T A <= 0 and y^T b > 0, valid for the input system.

        At phase-1 optimality the multiplier of row i is 1 minus the reduced
        cost of its artificial column; undoing the rhs sign normalization
        makes it a certificate for the original row orientation.
        """
        assert self.feasible is False
        y = []
        for i in range(self.m):
            pi = R1 - self.obj[self.n + i]
            y.append(self.row_sign[i] * pi)
        return tuple(y)

    def solution(self) -> dict:
        x = {}
        for i in self.live_rows:
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.table[i][-1]
        return x

    # - phase 2 -

    def make_positive(self, col: int) -> dict:
        """Raise x_col over the feasible region until it is positive; phase 1 must
        have succeeded.

        Returns the point of the first basis in which x_col is basic and
        positive, else an optimal point, whose x_col is then 0, or, when
        x_col is unbounded, a feasible point moved one unit along an
        improving ray.
        """
        assert self.feasible
        width = self.n + self.m + 1
        obj = [R0] * width
        obj[col] = -R1  # maximize x_col == minimize -x_col
        for i in self.live_rows:
            if self.basis[i] == col:
                # restore zero reduced cost on the basic column
                for j, p in enumerate(self.table[i]):
                    if p:
                        obj[j] += p
                break
        self.obj = obj
        bounded = self._run(col)
        if bounded:
            return self.solution()
        # ray step: find the entering column with improving reduced cost
        enter = next(j for j in range(self.n) if self.obj[j] < 0)
        point = self.solution()
        ray = {enter: R1}
        for i in self.live_rows:
            if self.basis[i] < self.n and self.table[i][enter] != R0:
                ray[self.basis[i]] = -self.table[i][enter]
        moved = dict(point)
        for j, d in ray.items():
            moved[j] = moved.get(j, R0) + d
        return moved


@contextmanager
def logged_simplex(simplex_class, log: list):
    """Run the exact solvers on ``simplex_class``, appending each pivot's (row, col) to ``log``.

    A pivot is logged before it runs, so the one that exceeds the budget is logged too.
    """

    class Logged(simplex_class):
        def _pivot(self, row: int, col: int) -> None:
            log.append((row, col))
            super()._pivot(row, col)

    with mock.patch.object(exact_solvers, "ExactSimplex", Logged):
        yield


def simplex_outputs(simplex_class, solve, sys: LinearSystem) -> tuple:
    """What ``solve(sys)`` returns on ``simplex_class``, the types of the values in
    its point and certificate, and its pivots.

    ``solve`` is ``lp_feasible`` or ``maximal_support``.
    """
    log: list = []
    with logged_simplex(simplex_class, log):
        out = solve(sys)
    if isinstance(out, SolveOutcome):
        point, cert = out.point, out.certificate
    else:
        _support, point, cert, _pivots = out
    types = ([type(v) for v in point.values()] if point else [],
             [type(v) for v in cert.farkas] if cert else [])
    return out, types, log


def validate_integer_point(sys: LinearSystem, point: dict) -> None:
    """Raise InvalidWitness unless the point is integral and solves Ax = b."""
    for j in range(sys.num_vars):
        if not is_integral(point.get(j, R0)):
            raise InvalidWitness(f"variable {sys.var_names[j]} is not an integer")
    for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
        acc = sum((c * point.get(j, R0) for j, c in row.items()), R0)
        if acc != b:
            raise InvalidWitness(f"row {i} violated: {acc} != {b}")


def _rat_from_str(s: str):
    """Parse ``"p/q"`` or ``"p"`` into an exact rational."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return rat(int(p), int(q))
    return rat(int(s))


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    y = tuple(_rat_from_str(v) for v in doc["y"])
    return Certificate(CertificateKind(doc["kind"]), farkas=y)


def _sparse_columns(matrix) -> tuple[int, int, list[dict]]:
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    return m, n, [{i: int(matrix[i][j]) for i in range(m) if matrix[i][j]} for j in range(n)]


def hnf_outputs(matrix) -> tuple:
    """H and U as dense rows, the pivots and the number of column operations of ``_hnf``
    followed by the full ``_reduce`` (default budget).

    U is rebuilt by replaying the logged operations on each column of the identity.
    """
    m, n, cols = _sparse_columns(matrix)
    pivots, log, _z, _r, _residual = _hnf(cols, m, [0] * m, DEFAULT_BUDGET)
    _reduce(cols, pivots, m - 1, log, DEFAULT_BUDGET)
    H = [[cols[j].get(i, 0) for j in range(n)] for i in range(m)]
    U_cols = [_times_u(log, [int(i == j) for i in range(n)]) for j in range(n)]
    U = [[U_cols[j][i] for j in range(n)] for i in range(n)]
    return H, U, pivots, len(log)


def hnf(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Column Hermite normal form H = A U with U unimodular, as dense rows (default budget)."""
    H, U, _pivots, _ops = hnf_outputs(matrix)
    return H, U


def reference_hnf(cols: list[dict], m: int, budget: Budget) -> tuple[list[tuple[int, int]], list]:
    """The column Hermite form with each row reduced as soon as it has its pivot, and U
    in the column maps; returns the pivots (row, col) and, for each column
    operation in order, its row and whether it reduces left of a pivot.

    ``cols[j]`` holds the nonzero entries of column j of A, keyed by row
    0..m-1.  Each column gains the entries of U at keys m..m+n-1, so one
    sparse map holds a column of [H; U] and a column operation acts on
    both: a swap exchanges two maps and an added multiple walks only the
    source column's nonzeros.  The pivot search in a row, and the reduction
    to the left of its pivot, look up the row in every column.
    """
    n = len(cols)
    for j, col in enumerate(cols):
        col[m + j] = 1
    ops: list[tuple[int, bool]] = []
    row = 0
    reducing = False

    def count() -> None:
        ops.append((row, reducing))
        if len(ops) > budget.max_pivots:
            raise IterationBudget(f"Hermite form exceeded {budget.max_pivots} column operations")

    def col_swap(a: int, b: int) -> None:
        count()
        cols[a], cols[b] = cols[b], cols[a]

    def col_negate(a: int) -> None:
        count()
        cols[a] = {t: -v for t, v in cols[a].items()}

    def col_addmul(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        count()
        d = cols[dst]
        for t, v in cols[src].items():
            w = d.get(t, 0) + q * v
            if w:
                d[t] = w
            else:
                del d[t]

    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        row, reducing = i, False
        while True:
            nz = [j for j in range(c, n) if i in cols[j]]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != c:
                    col_swap(c, nz[0])
                break
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            if cols[j0][i] < 0:
                col_negate(j0)
            h0 = cols[j0][i]
            for j in nz:
                if j != j0:
                    col_addmul(j, j0, -(cols[j][i] // h0))
        if c < n and i in cols[c]:
            if cols[c][i] < 0:
                col_negate(c)
            h = cols[c][i]
            reducing = True
            for j in range(c):
                col_addmul(j, c, -(cols[j].get(i, 0) // h))
            pivots.append((i, c))
            c += 1
    return pivots, ops


def reference_hnf_outputs(matrix) -> tuple:
    """``hnf_outputs`` of ``reference_hnf``, U read from the keys m..m+n-1 of the maps."""
    m, n, cols = _sparse_columns(matrix)
    pivots, ops = reference_hnf(cols, m, DEFAULT_BUDGET)
    H = [[cols[j].get(i, 0) for j in range(n)] for i in range(m)]
    U = [[cols[j].get(m + i, 0) for j in range(n)] for i in range(n)]
    return H, U, pivots, len(ops)


def reference_substitute(H: list[list[int]], b: list[int], pivots) -> tuple[list[int], int, int]:
    """Forward substitution for H z = b over the integers, H a dense column Hermite form.

    Each row i is b_i minus the row's sum over the z_j fixed so far; a
    pivot (i, c) must divide it and fixes z_c, and a row with no pivot must
    sum to b_i.  Returns z, the first row where that fails (-1 if none),
    and its residual there.
    """
    z = [0] * (len(H[0]) if H else 0)
    pivot_of_row = dict(pivots)
    for i, row in enumerate(H):
        residual = b[i] - sum(h * zj for h, zj in zip(row, z))
        c = pivot_of_row.get(i)
        if c is None:
            if residual:
                return z, i, residual
        elif residual % row[c]:
            return z, i, residual
        else:
            z[c] = residual // row[c]
    return z, -1, 0


def reference_parity_vector(H: list[list[int]], pivots, r: int, residual: int) -> tuple:
    """The y that refutes H z = b at row r: y_r is 1 over r's pivot, or 1/(2 residual)
    with none, every row after r and every row with no pivot gets 0, and each
    earlier pivot row's y makes y^T H vanish in its pivot column."""
    y = [R0] * len(H)
    c = dict(pivots).get(r)
    y[r] = rat(1, H[r][c]) if c is not None else rat(1, 2 * residual)
    for i, c in sorted((p for p in pivots if p[0] < r), reverse=True):
        y[i] = -sum((y[t] * H[t][c] for t in range(i + 1, r + 1)), R0) / H[i][c]
    return tuple(y)


def reference_diophantine_solve(sys: LinearSystem) -> SolveOutcome:
    """``diophantine_solve`` on ``reference_hnf`` (default budget): x = U z summed from the
    U entries of the maps, or the parity vector of the failing row.

    The operation count is the one ``diophantine_solve`` keeps: on an accept
    the Euclid steps alone, on a reject every operation of a row up to the
    failing one.
    """
    n, m = sys.num_vars, sys.num_rows
    if not m:
        return SolveOutcome(True, point={j: 0 for j in range(n)})
    cols: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(sys.rows):
        for j, c in row.items():
            if c:
                cols[j][i] = int(c)
    b = [int(rhs) for rhs in sys.rhs]
    pivots, ops = reference_hnf(cols, m, DEFAULT_BUDGET)
    H = [[cols[j].get(i, 0) for j in range(n)] for i in range(m)]
    z, r, residual = reference_substitute(H, b, pivots)
    if r < 0:
        x = [0] * n
        for t, zt in enumerate(z):
            for row, u in cols[t].items():
                if row >= m:
                    x[row - m] += u * zt
        euclid = sum(1 for _, reducing in ops if not reducing)
        return SolveOutcome(True, point=dict(enumerate(x)), pivots=euclid)
    y = reference_parity_vector(H, pivots, r, residual)
    return SolveOutcome(False, certificate=Certificate(CertificateKind.PARITY, farkas=y),
                        pivots=sum(1 for row, _ in ops if row <= r))


def integer_outputs(solve, sys: LinearSystem) -> tuple:
    """What ``solve(sys)`` returns, with the types of the values in its point and certificate.

    ``solve`` is ``diophantine_solve`` or ``reference_diophantine_solve``.
    """
    out = solve(sys)
    point = out.point or {}
    y = out.certificate.farkas if out.certificate else ()
    return (out.feasible, point, y, out.pivots,
            [type(v) for v in point.values()], [type(v) for v in y])


def matmul(A, B) -> list[list[int]]:
    return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(len(B[0]))] for row in A]


def is_column_hermite(H) -> bool:
    """H is in column Hermite normal form.

    The top nonzero rows of the nonzero columns strictly increase, the zero
    columns come last, each top entry (the pivot) is positive, and every
    entry left of a pivot in its row lies in [0, pivot).
    """
    n = len(H[0]) if H else 0
    tops = []
    for c in range(n):
        top = next((i for i, row in enumerate(H) if row[c] != 0), None)
        if top is None:
            if any(row[j] != 0 for row in H for j in range(c, n)):
                return False
            break
        tops.append(top)
    if any(a >= b for a, b in zip(tops, tops[1:])):
        return False
    for c, i in enumerate(tops):
        if H[i][c] <= 0 or not all(0 <= H[i][j] < H[i][c] for j in range(c)):
            return False
    return True


# -- structures ------------------------------------------------------------------


def count_homomorphisms(X: Structure, A: Structure) -> int:
    return sum(1 for _ in _iter_homomorphisms(X, A))


def _reference_search_order(X: Structure) -> list[int]:
    """Variables by descending constraint degree, ties in domain order."""
    degree = [0] * len(X.domain)
    for sym in X.signature.names():
        for t in X.tuples(sym):
            for a in t:
                degree[X.atom_id(a)] += 1
    return sorted(range(len(X.domain)), key=lambda i: (-degree[i], i))


def reference_iter_homomorphisms(X: Structure, A: Structure) -> Iterator[dict]:
    """Backtracking enumeration of all homomorphisms X -> A.

    Constraints are checked as soon as any scope variable is assigned, by
    scanning the target relation for a tuple matching the assigned positions.
    """
    X.require_same_signature(A)
    n = len(X.domain)
    order = _reference_search_order(X)

    scopes: list[tuple[str, tuple[int, ...]]] = []
    for sym in X.signature.names():
        for t in X.tuples(sym):
            scopes.append((sym, tuple(X.atom_id(a) for a in t)))
    by_var: list[list[int]] = [[] for _ in range(n)]
    for ci, (_, scope) in enumerate(scopes):
        for v in set(scope):
            by_var[v].append(ci)

    target_tuples = {sym: [tuple(A.atom_id(a) for a in t) for t in A.tuples(sym)]
                     for sym in A.signature.names()}
    target_sets = {sym: set(ts) for sym, ts in target_tuples.items()}
    assign: list[Optional[int]] = [None] * n

    def consistent(ci: int) -> bool:
        sym, scope = scopes[ci]
        pattern = [assign[v] for v in scope]
        if None not in pattern:
            return tuple(pattern) in target_sets[sym]
        for cand in target_tuples[sym]:
            if all(p is None or p == c for p, c in zip(pattern, cand)):
                return True
        return False

    def extend(pos: int) -> Iterator[dict]:
        if pos == n:
            yield {X.domain[v]: A.domain[assign[v]] for v in range(n)}
            return
        v = order[pos]
        for val in range(len(A.domain)):
            assign[v] = val
            if all(consistent(ci) for ci in by_var[v]):
                yield from extend(pos + 1)
        assign[v] = None

    yield from extend(0)


def reference_enumerate_partial_homomorphisms(X: Structure, A: Structure, k: int) -> list[Assignment]:
    """Every image of every subset of at most k atoms, checked against the
    tuples of X inside the subset."""
    X.require_same_signature(A)
    nX = len(X.domain)
    out = [Assignment((), total=False)]
    for j in range(1, min(k, nX) + 1):
        for subset in itertools.combinations(X.domain, j):
            inside = [(sym, t) for sym in X.signature.names() for t in X.tuples(sym)
                      if all(a in subset for a in t)]
            for image in itertools.product(A.domain, repeat=j):
                f = dict(zip(subset, image))
                if all(A.has_tuple(sym, tuple(f[a] for a in t)) for sym, t in inside):
                    out.append(Assignment.of(f, total=(j == nX)))
    return out


def tensor_cell_index(arity: int, k: int, idx: tuple[int, ...]) -> int:
    """Flat position of the 1-based cell (i_1, ..., i_k) inside a tensor-power tuple."""
    pos = 0
    for i in idx:
        if not 1 <= i <= arity:
            raise ArityMismatch(f"cell index {idx} outside [{arity}]^{k}")
        pos = pos * arity + (i - 1)
    return pos


# -- the Horn free structure, enumerated -----------------------------------------------


def domain_masks(free: HornFreeStructure) -> list[int]:
    """All nonempty subsets, by ascending bitmask (the canonical order)."""
    return list(range(1, free.full_mask + 1))


def materialize(free: HornFreeStructure, symbol: str) -> set[tuple[int, ...]]:
    """All relation tuples (as mask tuples), by direct witness enumeration."""
    tuples = free._tuples[symbol]
    m = len(tuples)
    out = set()
    for q in range(1, 1 << m):
        masks = [0] * len(tuples[0])
        for ti in range(m):
            if q >> ti & 1:
                for pos, a in enumerate(tuples[ti]):
                    masks[pos] |= 1 << a
        out.add(tuple(masks))
    return out


# -- the vanishing conditions on a level-k Horn witness ----------------------------
#
# For k >= 2 the atoms of the tensorised pair are k-tuples, and bit i of a
# mask marks the i-th k-tuple of target atom ids in product order.


def repeats_vanish(masks: dict, n_targets: int, k: int) -> bool:
    """Equal positions of an atom hold equal values in every tuple of its mask."""
    targets = list(itertools.product(range(n_targets), repeat=k))
    for x, mask in masks.items():
        for ti, t in enumerate(targets):
            if mask >> ti & 1:
                for a, b in itertools.combinations(range(k), 2):
                    if x[a] == x[b] and t[a] != t[b]:
                        return False
    return True


def projections_commute(masks: dict, n_targets: int, k: int) -> bool:
    """The mask of each projection of an atom is the projection of the atom's mask."""
    targets = list(itertools.product(range(n_targets), repeat=k))
    index_of = {t: i for i, t in enumerate(targets)}
    for x, mask in masks.items():
        for idx in itertools.product(range(k), repeat=k):
            projected = 0
            for ti, t in enumerate(targets):
                if mask >> ti & 1:
                    projected |= 1 << index_of[tuple(t[i] for i in idx)]
            if masks[tuple(x[i] for i in idx)] != projected:
                return False
    return True
