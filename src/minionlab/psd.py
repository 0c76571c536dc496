"""Gram-matrix feasibility: exact affine reduction, projections in float, exact verdicts.

A Gram problem constrains the pairwise inner products of a family of labelled
vectors: some pairs are forced orthogonal, some signed sums of vectors are
identified with each other, and some groups of squared norms must sum to one.

The solve is two-phase.  Phase one, :func:`affine_reduce`, is exact: over the
rationals, vector identifications are Gauss-eliminated, forced-zero vectors
are propagated to a fixpoint, and the Gram constraints on the remaining
representatives are filtered down to an independent set.  It reads each label
as its index in the problem's label order, so the elimination, the fixpoint
and the combinations run on int keys, and the greatest index of a row, the
latest-registered label, is the one eliminated; labels come back only in the
reduced problem and in the trace.  Its values are Python ints while they are
integral: a row whose pivot is ±1 is normalised by multiplying it by the
pivot, and only a non-unit pivot brings in a Fraction, so the elimination of
±1 identifications runs on ints.  Both echelon forms, of the identifications
and of the Gram constraints, index each free key to the rows that hold it, so
a new pivot rewrites only those rows, and a row is reduced by substituting
each of its pivots once.  Each round of the fixpoint rereads every orthogonal
pair, and one that added a row rereads every combination from the echelon:
rounds after the first are few, so an index of the pairs or rows that changed
would cost more than it saves.  Each distinct pair of combinations is formed
into a Gram constraint once.  The orthogonality forms go in first, and a unit
group's row is tested as soon as the last pair inside the group is in: reduced
against the forms so far and not kept, it ends the phase if it reads
0 = nonzero.  A row refuted by part of the span is refuted by all of it, and
every unit row is still pushed after the last form, so a contradiction that
needs several unit rows is found there.  Every contradiction (a unit group
whose members all collapse to the zero vector, or a Gram constraint that
reduces to 0 = nonzero) is returned as an exact rejection whose trace holds
only derived steps: the vectors forced to zero, then the contradiction itself.

Phase two, :func:`psd_feasibility`, iterates in float: Douglas-Rachford,
started at I/n, between the affine subspace of admissible Gram matrices (an
orthogonal projection through the constraints' nonzeros and the
pseudo-inverse of the m x m matrix C C^T, where C has one row per
constraint) and the cone of positive semidefinite matrices (eigenvalue
clamping).  An accepted Gram matrix is built from the clamped
eigendecomposition of the last iterate, so that same decomposition gives its
vectors: the witness arrives with one vector per label.  On an infeasible
problem the Douglas-Rachford step tends to a direction that separates the
subspace from the cone, and every ``DUAL_EVERY`` iterations that step is
read as candidate multipliers y, one per constraint.  When rounded to exact
rationals they make S = sum y_i C_i positive definite with y^T b < 0, which
:func:`verify_dual_certificate` checks exactly, the loop ends with a
:class:`DualCertificate`: an exact rejection.  A solve that stalls without
one is reported as an explicitly non-rigorous :class:`NumericReject`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from .errors import MalformedInput
from .rationals import R1, RATIONAL_TYPES, rat

Label = Hashable


@dataclass(frozen=True)
class GramProblem:
    """Feasibility data for a family of labelled vectors.

    A driver's zero pairs are the pairs inside its groups, unit or implied,
    and ``sos`` adds a self-pair (c, c) for a label that two of a group's
    members share: a vector orthogonal to itself is 0.  A problem built by
    hand may state others.  ``implied_unit_groups`` are
    further groups whose squared norms sum to one as a consequence of the
    constraints.  They constrain nothing; only :func:`psd_feasibility`'s
    search for a dual certificate reads them.
    """

    labels: tuple[Label, ...]
    unit_groups: tuple[tuple[Label, ...], ...]
    zero_pairs: tuple[tuple[Label, Label], ...]
    identifications: tuple[tuple[tuple[Label, object], ...], ...]
    implied_unit_groups: tuple[tuple[Label, ...], ...] = ()


@dataclass
class Inconsistent:
    """Exact infeasibility of the affine phase, with its derivation trace.

    The trace holds only what the reduction derived, never the input
    restated: a ``zero-norm`` step for each orthogonal pair that forced a
    vector to zero, then the closing ``unit-group-empty`` or
    ``affine-contradiction``.
    """

    steps: list
    reason: str

    def to_doc(self) -> dict:
        return {"reason": self.reason, "steps": [list(s) for s in self.steps]}


@dataclass
class ReducedGramProblem:
    reps: tuple[Label, ...]
    # exact coefficients are ints, or Fractions past a non-unit pivot
    combos: dict  # every label, in the problem's order -> {rep: exact coefficient}
    constraints: list  # independent (dict[(si, ti) with si <= ti] -> exact coeff, rhs)
    # the unit groups, then the implied ones: labels whose squared norms sum to one
    unit_groups: tuple = ()


@dataclass
class SoSWitness:
    """An accepted Gram matrix over the representatives, with a vector for every label.

    ``gram`` is exactly the Gram matrix of the representatives' vectors, and
    every other label's vector is its exact combination of theirs.
    """

    labels: tuple[Label, ...]
    gram: np.ndarray
    residual: float
    min_eig: float
    iterations: int
    vectors: dict

    def to_doc(self) -> dict:
        return {
            "labels": [str(l) for l in self.labels],
            "gram": [float(v) for v in self.gram.reshape(-1)],
            "residual": self.residual,
            "min_eig": self.min_eig,
            "iterations": self.iterations,
        }


@dataclass
class NumericReject:
    """A stalled numeric solve; explicitly non-rigorous."""

    residual: float
    iterations: int
    trace: list

    def to_doc(self) -> dict:
        return {
            "rigorous": False,
            "residual": self.residual,
            "iterations": self.iterations,
            "residual_trace": [[int(i), float(r)] for i, r in self.trace],
        }


@dataclass
class DualCertificate:
    """Exact multipliers that refute the reduced Gram constraints.

    With C_i the symmetric matrix of constraint i and b_i its right-hand
    side, S = sum y_i C_i is positive definite and y^T b < 0.  Any positive
    semidefinite G meeting the constraints would have <S, G> = y^T b < 0,
    while <S, G> >= 0 for S and G both semidefinite: no such G exists.
    ``multipliers`` holds y, one exact rational per entry of ``constraints``,
    whose indices number ``reps``; :func:`verify_dual_certificate` checks it.
    """

    reps: tuple[Label, ...]
    constraints: list
    multipliers: list
    iterations: int

    def to_doc(self) -> dict:
        return {
            "iterations": self.iterations,
            "reps": [str(r) for r in self.reps],
            "constraints": [[[[s, t, str(v)] for (s, t), v in row.items()], str(rhs)]
                            for row, rhs in self.constraints],
            "multipliers": [str(v) for v in self.multipliers],
        }


# the projection loop accepts at this residual, and gives up (reject-numeric)
# once the residual has stayed above the floor without a 1 % improvement for
# the stall window, or after the iteration cap.  Every DUAL_EVERY iterations
# it reads its step as a dual certificate, rounded to multiples of 2^-DUAL_BITS
ACCEPT_TOL = 1e-8
REJECT_FLOOR = 1e-4
STALL_WINDOW = 500
MAX_ITER = 100_000
DUAL_EVERY = 25
DUAL_BITS = 30


# -- phase one: exact affine reduction -------------------------------------------


class _Echelon:
    """Rows in reduced echelon form, with an index from each free key to the rows holding it.

    Each pivot's row is scaled to 1 at the pivot and holds no other pivot.
    The pivot is a row's greatest key in natural order.  In the echelon of
    the identifications the keys are label indices, so the latest-registered
    label is eliminated; in the Gram echelon they are the (s, t) of the
    representatives, and the right-hand side's key () sorts below every one
    of them, so it is never a pivot.  ``reduce`` changes no row, so a row can
    be tested against the echelon without being kept.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot -> its row
        self.holders: dict = {}  # free key -> {pivot: None} for each row that holds it

    def reduce(self, row: dict) -> dict:
        """The row with every pivot eliminated, zeros dropped.

        A pivot row holds no other pivot, so each pivot of ``row`` is
        substituted once.
        """
        out = dict(row)
        for hit in [key for key in row if key in self.rows]:
            c = out.pop(hit)
            for k, v in self.rows[hit].items():
                if k != hit:
                    out[k] = out.get(k, 0) - c * v
        return {k: v for k, v in out.items() if v != 0}

    def insert(self, row: dict) -> None:
        """Add a reduced nonzero row, eliminating its pivot from the rows that hold it."""
        pivot = max(row)
        # a unit pivot is its own inverse, so an integral row stays integral
        p = row[pivot]
        scale = p if p in (1, -1) else R1 / p
        norm = {k: v * scale for k, v in row.items()}
        holders = self.holders
        for other in holders.pop(pivot, ()):
            prow = self.rows[other]
            c = prow.pop(pivot)
            for k, v in norm.items():
                if k != pivot:
                    value = prow.get(k, 0) - c * v
                    if value != 0:
                        prow[k] = value
                        holders.setdefault(k, {})[other] = None
                    else:
                        del prow[k]
                        del holders[k][other]
        self.rows[pivot] = norm
        for k in norm:
            if k != pivot:
                holders.setdefault(k, {})[pivot] = None


def affine_reduce(problem: GramProblem):
    """Exact consequence closure of the vector identifications.

    Each label is read as its index in ``problem.labels``, once: the
    identifications, the forced-zero fixpoint and the combos all run on
    those ints, and the greatest index of a row, the latest-registered
    label, is the one eliminated, so early labels stay representatives.
    Labels come back only in the returned problem and in the trace.

    The Gram constraints over the representatives left by the closure are
    kept when independent of those kept before them, so the reduced
    constraints are linearly independent.  Returns a
    :class:`ReducedGramProblem`, or :class:`Inconsistent` when the closure
    contradicts a unit-norm group (all members forced to the zero vector) or
    a Gram constraint reduces to 0 = nonzero.

    The zero-pair forms are pushed first, in the order of
    ``problem.zero_pairs``.  As soon as the pair that is the last one with
    both labels in a unit group is in, that group's unit row is reduced
    against the forms pushed so far, without being kept.  The forms are
    homogeneous, so a unit row whose form lies in their span reads 0 = 1,
    and that ends the reduction there.  The early test is sound: a row
    refuted by part of the span is refuted by all of it.  It misses
    nothing: after the last form the unit pass pushes every unit row, as
    it would without the early tests, so a contradiction that needs several
    unit rows is still found.

    So the outcome is the one that pushing every form before any unit row
    gives: an early test keeps no row, so a reduced problem is the same,
    and so are the kind of an ``Inconsistent`` and every step before its
    closing one.  The closing constant is the same too when the unit groups
    are pairwise disjoint, as ``sdp``'s are.  ``sos``'s groups overlap
    where two scopes share a column, and there the early test of one group
    can close on its own row before the unit pass meets a joint
    contradiction of earlier rows, with another constant.
    """
    labels = problem.labels
    index = {lab: i for i, lab in enumerate(labels)}
    vectors = _Echelon()
    steps: list = []

    def add_relation(row: dict) -> bool:
        """Insert the row's reduction; return whether it was new."""
        if reduced := vectors.reduce(row):
            vectors.insert(reduced)
        return bool(reduced)

    for ident in problem.identifications:
        row: dict = {}
        for lab, c in ident:
            i = index[lab]
            row[i] = row.get(i, 0) + c
        add_relation(row)

    def combo(i: int) -> dict:
        if i not in vectors.rows:
            return {i: 1}
        return {k: -v for k, v in vectors.rows[i].items() if k != i}

    # propagate forced-zero vectors to a fixpoint.  Each round reads every pair
    # against the combos as they were at its start.  A pair whose combos did not
    # change since it was last read was not proportional, or its w was zeroed,
    # which changed it; rounds after the first are few, so they reread every
    # pair, and every combo from the echelon, rather than index what changed
    combos = [combo(i) for i in range(len(labels))]
    pairs = [(index[l1], index[l2]) for l1, l2 in problem.zero_pairs]
    changed = True
    while changed:
        new_rows = []
        for (a, b), (l1, l2) in zip(pairs, problem.zero_pairs):
            u, w = combos[a], combos[b]
            if u and w and _proportional(u, w):
                # u = r*w with r != 0, so <u, w> = r * ||w||^2 = 0 forces w = 0
                new_rows.append((w, ("zero-norm", str(l1), str(l2))))
        changed = False
        for row, note in new_rows:
            if add_relation(row):
                steps.append(note)
                changed = True
        if changed:
            combos = [combo(i) for i in range(len(labels))]

    groups = [[index[lab] for lab in group] for group in problem.unit_groups]
    for group, members in zip(problem.unit_groups, groups):
        if all(not combos[i] for i in members):
            steps.append(("unit-group-empty", ", ".join(map(str, group))))
            return Inconsistent(steps, "a unit-norm group collapsed to the zero vector")

    # a group with the members of an earlier one (sos states one per scope, and
    # scopes can share all their columns) has the same unit row, and the same
    # last pair inside it: it is tested and pushed once
    distinct: dict = {}
    for members in groups:
        distinct.setdefault(frozenset(members), members)
    groups = list(distinct.values())

    # natural order on the indices is registration order
    reps = sorted({r for c in combos for r in c})
    rep_index = {r: i for i, r in enumerate(reps)}

    # each distinct combo once, as (rep index, coefficient) pairs
    combo_id: list = []
    indexed: dict = {}
    for c in combos:
        key = tuple((rep_index[r], v) for r, v in c.items())
        combo_id.append(indexed.setdefault(key, len(indexed)))
    indexed_combos = list(indexed)

    def bilinear(i: int, j: int) -> dict:
        out: dict = {}
        for si, cs in indexed_combos[i]:
            for ti, ct in indexed_combos[j]:
                key = (si, ti) if si <= ti else (ti, si)
                out[key] = out.get(key, 0) + cs * ct
        return {k: v for k, v in out.items() if v != 0}

    @functools.cache
    def unit_form(g: int) -> dict:
        """The form of unit group g's squared norms; computed once."""
        acc: dict = {}
        for i in groups[g]:
            for k, v in bilinear(combo_id[i], combo_id[i]).items():
                acc[k] = acc.get(k, 0) + v
        return acc

    # keep each Gram constraint that is independent of those kept before it.
    # The right-hand side rides along under the key (), which sorts below
    # every (si, ti) and so is never a pivot: a row that reduces to () alone
    # reads 0 = nonzero
    constraints: list = []
    gram = _Echelon()

    def refuted(reduced: dict) -> Optional[Inconsistent]:
        if list(reduced) != [()]:
            return None
        steps.append(("affine-contradiction", f"0 = {reduced[()]}"))
        return Inconsistent(steps, "the Gram constraints are affinely contradictory")

    def push(coeffs: dict, rhs) -> Optional[Inconsistent]:
        reduced = gram.reduce({**coeffs, (): rhs})
        bad = refuted(reduced)
        if not bad and reduced:
            gram.insert(reduced)
            constraints.append((coeffs, rhs))
        return bad

    # each unit group is tested early, after the last zero pair inside it
    group_sets = [set(members) for members in groups]
    groups_of: dict = {}
    for g, members in enumerate(group_sets):
        for i in members:
            groups_of.setdefault(i, []).append(g)
    last_inside = {g: p for p, (i, j) in enumerate(pairs)
                   for g in groups_of.get(i, ()) if j in group_sets[g]}
    tests_after: dict = {}
    for g, p in sorted(last_inside.items()):
        tests_after.setdefault(p, []).append(g)

    # a pair of combos formed before, an empty form, or one pushed before would
    # reduce to nothing
    formed: set = set()
    pushed: set = set()
    for p, (a, b) in enumerate(pairs):
        i, j = combo_id[a], combo_id[b]
        if (i, j) not in formed:
            formed.update(((i, j), (j, i)))
            form = bilinear(i, j)
            key = frozenset(form.items())
            if form and key not in pushed:
                pushed.add(key)
                push(form, 0)
        for g in tests_after.get(p, ()):
            bad = refuted(gram.reduce({**unit_form(g), (): 1}))
            if bad:
                return bad
    # every row so far is homogeneous: only the unit rows can close a contradiction
    for g in range(len(groups)):
        bad = push(unit_form(g), 1)
        if bad:
            return bad

    return ReducedGramProblem(
        tuple(labels[r] for r in reps),
        {labels[i]: {labels[r]: v for r, v in c.items()} for i, c in enumerate(combos)},
        constraints, problem.unit_groups + problem.implied_unit_groups)


def _proportional(u: dict, w: dict) -> bool:
    """Are the nonempty combos u and w proportional?

    The ratios are compared by cross-multiplication, so int combos stay exact.
    """
    if u.keys() != w.keys():
        return False
    k0 = next(iter(u))
    u0, w0 = u[k0], w[k0]
    return all(uv * w0 == u0 * w[k] for k, uv in u.items())


# -- phase two: alternating projections -------------------------------------------


class _AffineProjector:
    """Orthogonal projector, in float, onto the Gram matrices meeting the constraints.

    Each constraint sum v * G[s, t] = b becomes the symmetric matrix with v/2
    at (s, t) and at (t, s), flattened into one row of C, so that C vec G = b
    on symmetric G.  C is kept as its nonzeros: a row, a flat index into
    vec G and a value per entry.  The m x m matrix C C^T is formed once from
    the entries that share a flat index, and ``project(G)`` is
    G - C^T (C C^T)^+ (C vec G - b), the nearest point in the Frobenius norm:
    C^T (C C^T)^+ is the pseudo-inverse of C, so dependent rows project too.
    The pseudo-inverse comes from one eigendecomposition of C C^T, dropping
    eigenvalues below 1e-15 of the largest, as ``numpy.linalg.pinv`` does.
    """

    def __init__(self, n: int, constraints: Sequence[tuple[dict, object]]):
        # one entry per cell of each constraint's matrix, in row order
        rows, flat, vals, starts = [], [], [], []
        for i, (row, _) in enumerate(constraints):
            if not row:
                raise MalformedInput("every Gram constraint needs a nonzero coefficient")
            starts.append(len(flat))
            for (s, t), v in row.items():
                cells = (s * n + t,) if s == t else (s * n + t, t * n + s)
                for f in cells:
                    rows.append(i)
                    flat.append(f)
                    vals.append(float(v) / len(cells))
        self.n = n
        self.rows = np.array(rows, dtype=np.intp)
        self.flat = np.array(flat, dtype=np.intp)
        self.vals = np.array(vals)
        self.starts = np.array(starts, dtype=np.intp)
        self.rhs = np.array([float(r) for _, r in constraints])
        # (C C^T)[i, j] sums C[i, f] C[j, f] over the flat indices f: in flat
        # order, entry order[k] meets the size[k] entries from first[k] on
        m = len(constraints)
        order = np.argsort(self.flat, kind="stable")
        by_flat = self.flat[order]
        first = np.searchsorted(by_flat, by_flat)
        size = np.searchsorted(by_flat, by_flat, side="right") - first
        left = np.repeat(order, size)
        right = order[np.repeat(first + size - np.cumsum(size), size) + np.arange(len(left))]
        cct = np.bincount(self.rows[left] * m + self.rows[right],
                          weights=self.vals[left] * self.vals[right], minlength=m * m)
        lam, vec = np.linalg.eigh(cct.reshape(m, m))
        kept = np.abs(lam) > 1e-15 * np.abs(lam).max(initial=0.0)
        self.cct_pinv = (vec[:, kept] / lam[kept]) @ vec[:, kept].T

    def _apply(self, G: np.ndarray) -> np.ndarray:
        """C vec G: the left-hand side of each constraint at G."""
        products = G.take(self.flat)
        products *= self.vals
        return np.add.reduceat(products, self.starts)

    def _misfit(self, G: np.ndarray) -> np.ndarray:
        misfit = self._apply(G)
        misfit -= self.rhs
        return misfit

    def violation(self, G: np.ndarray) -> float:
        return float(np.abs(self._misfit(G)).max(initial=0.0))

    def combine(self, y: np.ndarray) -> np.ndarray:
        """C^T y as an n x n matrix: sum y_i C_i."""
        weights = y.take(self.rows)
        weights *= self.vals
        return np.bincount(self.flat, weights, self.n * self.n).reshape(self.n, self.n)

    def multipliers(self, D: np.ndarray) -> np.ndarray:
        """The y with C^T y nearest to the symmetric D: (C C^T)^+ C vec D."""
        return self.cct_pinv @ self._apply(D)

    def project(self, G: np.ndarray) -> np.ndarray:
        return G - self.combine(self.cct_pinv @ self._misfit(G))


class _DualSearch:
    """Reads a Douglas-Rachford step as a candidate :class:`DualCertificate`.

    On an infeasible problem the step xb - xa tends to the shortest vector D
    from the affine subspace to the semidefinite cone (Banjac, Goulart,
    Stellato and Boyd, JOTA 2019).  D is semidefinite and normal to the
    subspace, so D = sum y_i C_i with y^T b = -||D||^2 < 0.  The multipliers
    y of a step are read through the projector and scaled to y^T b = -1.
    S = sum y_i C_i is then only near-semidefinite, often singular, so
    t * y_M is added, where sum (y_M)_i C_i is the projection M' onto the
    constraints' span of the unit groups' form M = sum over their labels of
    combo combo^T.  Each group's form lies in the span, so M' = M, which is
    positive definite when the groups cover every representative.  Only a
    positive definite M' with y_M^T b > 0 is used, and t keeps S + t M'
    positive definite while y^T b + t y_M^T b stays negative.  The
    multipliers, rounded to exact rationals, are kept only if they verify.
    """

    def __init__(self, reduced: ReducedGramProblem, projector: _AffineProjector):
        self.reduced = reduced
        self.projector = projector

    @functools.cached_property
    def slack(self) -> tuple:
        """y_M, lambda_min(M') and y_M^T b; computed on first use."""
        V = _combos_matrix(self.reduced,
                           [lab for group in self.reduced.unit_groups for lab in group])
        y_m = self.projector.multipliers(V.T @ V)
        low = float(np.linalg.eigvalsh(self.projector.combine(y_m))[0])
        return y_m, low, float(y_m @ self.projector.rhs)

    def attempt(self, step: np.ndarray, iterations: int) -> Optional[DualCertificate]:
        projector = self.projector
        y = projector.multipliers(step)
        S = projector.combine(y)
        # the limit D has y^T b = -||D||^2; a step whose y^T b is not within a
        # factor of two of that is still far from it, or has y^T b >= 0
        yb, norm2 = float(y @ projector.rhs), float(np.vdot(S, S))
        if not 0.5 * norm2 < -yb < 2.0 * norm2:
            return None
        y /= -yb
        low = float(np.linalg.eigvalsh(S)[0]) / -yb
        y_m, low_m, yb_m = self.slack
        if low_m > 0 and yb_m > 0:
            # lambda_min(S + t M') >= low + t low_m; y^T b + t y_M^T b = -1 + t yb_m
            t_low, t_high = max(0.0, -low / low_m), 1.0 / yb_m
            if t_low >= t_high:
                return None
            y += 0.5 * (t_low + t_high) * y_m
        elif low <= 0:
            return None
        scale = 1 << DUAL_BITS
        exact = [rat(round(v * scale), scale) for v in y.tolist()]
        certificate = DualCertificate(self.reduced.reps, self.reduced.constraints, exact,
                                      iterations)
        return certificate if verify_dual_certificate(certificate) else None


def verify_dual_certificate(certificate: DualCertificate) -> bool:
    """Exact check that y^T b < 0 and that S = sum y_i C_i is positive definite.

    False unless y has one exact rational entry per constraint: a float's
    rounding can make a feasible problem look refuted.  y is scaled by the
    common denominator of its entries, which keeps every sign, so an int y
    over int constraints is summed in ints; S is then scaled to an int
    matrix and tested by Sylvester's criterion, its leading principal minors
    being the pivots of a fraction-free (Bareiss) elimination.
    """
    y, constraints = certificate.multipliers, certificate.constraints
    if len(y) != len(constraints) or not all(isinstance(v, RATIONAL_TYPES) for v in y):
        return False
    common = math.lcm(*(v.denominator for v in y))
    y = [v.numerator * (common // v.denominator) for v in y]
    if sum(yi * rhs for yi, (_, rhs) in zip(y, constraints)) >= 0:
        return False
    # 2S on and above the diagonal: constraint i adds y_i v at (s, t) for s < t,
    # and 2 y_i v at (s, s)
    upper: dict = {}
    for yi, (row, _) in zip(y, constraints):
        if yi:
            for (s, t), v in row.items():
                key = (s, t) if s <= t else (t, s)
                upper[key] = upper.get(key, 0) + (2 * yi * v if s == t else yi * v)
    scale = math.lcm(*(v.denominator for v in upper.values()))
    n = len(certificate.reps)
    a = [[0] * n for _ in range(n)]
    for (s, t), v in upper.items():
        a[s][t] = v.numerator * (scale // v.denominator)
    return _positive_definite(a)


def _positive_definite(a: list) -> bool:
    """Is the symmetric int matrix, given on and above its diagonal, positive definite?

    Bareiss elimination on the upper triangle: the pivot of step k is the
    leading principal minor of order k + 1, and every division is exact.
    """
    n = len(a)
    prev = 1
    for k in range(n):
        pivot, rk = a[k][k], a[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            ri, c = a[i], rk[i]
            for j in range(i, n):
                ri[j] = (pivot * ri[j] - c * rk[j]) // prev
        prev = pivot
    return True


def psd_feasibility(reduced: ReducedGramProblem):
    """Projection iterations on the reduced Gram problem, in float.

    Alternates between the affine subspace of the constraints and the
    semidefinite cone (eigenvalue clamping) in the Douglas-Rachford
    arrangement, which handles the tangential geometry of boundary-only
    feasible sets far better than plain alternation.  The iterations start
    at I/n, and the residual reported with an accept is measured on the
    returned matrix itself.

    Returns an (accept) :class:`SoSWitness`, an (exact reject)
    :class:`DualCertificate` that :func:`verify_dual_certificate` has
    passed, or a (non-rigorous) :class:`NumericReject`.  Every
    ``DUAL_EVERY`` iterations the step is tried as a dual certificate; the
    tries only read the iterates, so an accept is the same with or without
    them.  An accepted matrix is V V^T for the factor V of
    its own clamped eigendecomposition, whose row i is the vector of
    ``reduced.reps[i]``; the witness carries those vectors, expanded to every
    label through the exact elimination combos.
    """
    n = len(reduced.reps)
    if n == 0:
        empty = np.zeros((0, 0))
        return SoSWitness(reduced.reps, empty, 0.0, 0.0, 0, expand_vectors(reduced, empty))
    projector = _AffineProjector(n, reduced.constraints)
    search = _DualSearch(reduced, projector)
    z = np.eye(n) / n
    trace: list = []
    best = np.inf
    best_at = 0
    it = 0
    residual = np.inf
    while it < MAX_ITER:
        it += 1
        xa = projector.project(z)
        lam, vec = np.linalg.eigh((xa + xa.T) / 2.0)
        neg = max(0.0, float(-lam[0]))
        clamped = np.maximum(lam, 0.0)
        P = (vec * clamped) @ vec.T
        aff = projector.violation(P)
        residual = max(neg, aff)
        if it % 25 == 0 or residual <= ACCEPT_TOL or it <= 2:
            trace.append((it, residual))
        if residual <= ACCEPT_TOL:
            vectors = expand_vectors(reduced, vec * np.sqrt(clamped))
            return SoSWitness(reduced.reps, P, residual, float(clamped[0]), it, vectors)
        if residual < best * 0.99:
            best, best_at = residual, it
        if it - best_at > STALL_WINDOW and residual >= REJECT_FLOOR:
            trace.append((it, residual))
            return NumericReject(residual, it, trace)
        # reflect through the affine point, project back onto the cone
        reflected = 2.0 * xa - z
        lam_r, vec_r = np.linalg.eigh((reflected + reflected.T) / 2.0)
        xb = (vec_r * np.maximum(lam_r, 0.0)) @ vec_r.T
        step = xb - xa
        if it % DUAL_EVERY == 0:
            certificate = search.attempt(step, it)
            if certificate is not None:
                return certificate
        z = z + step
    trace.append((it, residual))
    return NumericReject(residual, it, trace)


def _combos_matrix(reduced: ReducedGramProblem, labels) -> np.ndarray:
    """The combos of ``labels`` in float: one row per label, one column per representative."""
    rep_index = {rep: j for j, rep in enumerate(reduced.reps)}
    V = np.zeros((len(labels), len(reduced.reps)))
    for row, lab in enumerate(labels):
        for rep, c in reduced.combos[lab].items():
            V[row, rep_index[rep]] = float(c)
    return V


def expand_vectors(reduced: ReducedGramProblem, factor: np.ndarray) -> dict:
    """Vectors for every original label, via the exact elimination combos."""
    labels = list(reduced.combos)
    return dict(zip(labels, _combos_matrix(reduced, labels) @ factor))
