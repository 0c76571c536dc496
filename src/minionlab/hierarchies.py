"""The relaxation drivers: local consistency, marginal LP/IP hierarchies, SDP, SoS.

Every driver maps a pair of structures (and a level k where applicable) to a
:class:`~minionlab.verdicts.Verdict`.  Only the accepts of ``sa``, ``aip``
and ``ba`` are re-validated against the defining equations before being
returned: ``bw``'s family (``is_valid_bw_family`` checks one) and the Gram
witnesses of ``sdp`` and ``sos`` are returned as found, with no re-check in
the driver.  Rejects carry machine-checkable certificates wherever the
underlying solver is exact, and ``_finish_gram`` checks a dual certificate
again before it becomes a REJECT.

Level k of ``sa``, ``aip``, ``ba`` and ``sos`` is one minion test: one
marginal system over the k-enhanced pair, enumerated once by
``_marginal_rows`` and read over the nonnegative rationals (``sa``), the
integers (``aip``), the integers inside the rationals' maximal support
(``ba``), or as Gram vectors (``sos``).  ``_marginal_rows`` numbers the
variables once, 0..n-1 in scope order, and states every identity over
those ids as the tuple ``(*images, cell)``, read as sum(images) - cell = 0.
``_linear_system`` sorts the identities in one pass: a one-id identity goes
to the presolve as a pin, a two-id one as a merge, and a longer one as a
row.  Every driver reads the presolved system, and no driver reads the
tuples again: ``sos`` poses its Gram problem on the presolved columns
(``_sos_problem``), one vector per column, and lifts an accepted witness
back to the keys.  A variable's ``(symbol, scope, image)`` key is read back
only in the presolved system and the witness.  The images a scope admits,
and how they project, depend only on the target and on the scope's symbol
and equality pattern, so ``_marginal_rows`` works them out once per
(symbol, pattern) as a template, and each scope of the tensorised X stamps
its identities from that template at its own id offset.  An ``R_k`` scope
xi that an earlier stated scope xt projects onto, by a projection naming
every position of xt, is a repeat: it keeps its variables, but neither its
identities nor its unit-mass row is stated, since the presolve would read
each as a copy of one of xt's and drop it (``_marginal_rows`` gives the
argument).  ``validate_marginal_witness`` files each nonzero weight under
its scope, refusing one that names no variable, and compares each scope's
projections with the ``R_k`` weights.  It re-derives every identity from
the structures on its own, so it does not trust the numbering or the
templates, and it sums the witness as ints over one common denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .budgets import DEFAULT_BUDGET, Budget
from .errors import ArityMismatch, InvalidWitness, LengthMismatch
from .exact_solvers import (
    Certificate,
    DomainTag,
    LinearSystem,
    diophantine_solve,
    lp_feasible,
    maximal_support,
)
from .free_structures import arc_consistency
from .psd import (
    DualCertificate,
    GramProblem,
    Inconsistent,
    NumericReject,
    SoSWitness,
    affine_reduce,
    psd_feasibility,
    verify_dual_certificate,
)
from .rationals import RATIONAL_TYPES, is_integral, rat
from .structures import (
    Assignment,
    Structure,
    _projections,
    enumerate_partial_homomorphisms,
    find_homomorphism,
    is_partial_homomorphism,
    k_enhance,
    precedes,
)
from .system_builders import EqualitySystemBuilder, PresolvedSystem
from .verdicts import Status, Verdict, driver

# -- witnesses and evidence -------------------------------------------------------


@dataclass
class MarginalWitness:
    """Exact values of the (symbol, scope tuple, image tuple) variables; an absent one is zero."""

    values: dict

    def to_doc(self) -> dict:
        """The nonzero weights by ``sym|xt|at``; ``Verdict.to_json`` sorts the keys."""
        return {f"{sym}|{xt}|{at}": str(v) for (sym, xt, at), v in self.values.items() if v != 0}


@dataclass
class CombinedWitness:
    lp: MarginalWitness
    ip: MarginalWitness
    maximal_support: set

    def to_doc(self) -> dict:
        return {
            "lp": self.lp.to_doc(),
            "ip": self.ip.to_doc(),
            "support_size": len(self.maximal_support),
        }


@dataclass
class BWFamily:
    """A restriction-closed, extendable family of partial homomorphisms."""

    maps: tuple[Assignment, ...]

    def to_doc(self) -> dict:
        return {"size": len(self.maps),
                "maps": [dict((str(a), str(b)) for a, b in f.mapping) for f in self.maps]}


@dataclass
class RejectionEvidence:
    """A certificate together with the exact system it refutes."""

    certificate: Certificate
    system: LinearSystem
    note: str = ""

    def to_doc(self) -> dict:
        doc = {"certificate": self.certificate.to_doc(), "system": self.system.to_doc()}
        if self.note:
            doc["note"] = self.note
        return doc


# -- bounded width -----------------------------------------------------------------


@driver
def bw(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k local consistency, run by the shared ``arc_consistency``.

    Each subset V of at most k atoms is a variable whose values are the
    partial homomorphisms on V, and each pair (V - y, V) is a binary
    constraint allowing (g restricted to V - y, g).  The greatest fixpoint is
    the greatest family that is closed under restriction and in which every
    map extends to every superset one atom larger.  Chaining those
    extensions, a map extends to every superset of at most k atoms, so this
    is k-consistency: the fixpoint is nonempty exactly when some family
    exists, and it holds every family.
    """
    if k < 1:
        raise ArityMismatch(f"local consistency level {k} must be >= 1")
    maps = enumerate_partial_homomorphisms(X, A, k, budget)
    doms = [frozenset(c)
            for j in range(0, min(k, len(X.domain)) + 1)
            for c in itertools.combinations(X.domain, j)]
    values: dict = {V: [] for V in doms}
    value_id: dict = {}
    for m in maps:
        same = values[m.domain_set()]
        value_id[frozenset(m.mapping)] = len(same)
        same.append(m)
    constraints = [((V - {y}, V), [(value_id[frozenset(p for p in m.mapping if p[0] != y)], i)
                                   for i, m in enumerate(values[V])])
                   for V in doms for y in V]
    found = arc_consistency({V: (1 << len(values[V])) - 1 for V in doms}, constraints)
    stats = {"vars": len(maps), "constraints": len(doms)}
    if found is None:
        return Verdict("bw", k, Status.REJECT, stats=stats)
    alive = [m for V in doms for i, m in enumerate(values[V]) if found[V] >> i & 1]
    family = BWFamily(tuple(sorted(alive, key=lambda a: (len(a.mapping), repr(a.mapping)))))
    return Verdict("bw", k, Status.ACCEPT, witness=family, stats=stats)


def is_valid_bw_family(
    maps: Iterable[Assignment], X: Structure, A: Structure, k: int
) -> bool:
    """Full validity check: partial homomorphisms, restriction-closed, extendable.

    Each member is checked against its one-atom neighbours only, which,
    chained, reach every restriction and every superset of at most k atoms:
    dropping any one atom gives a member, and a member on fewer than k atoms
    extends by every other atom of X, as the members one atom larger show.
    """
    fam = {frozenset(f.mapping) for f in maps}
    if not fam:
        return False
    extensions: dict = {}  # f -> each atom y such that f plus some (y, b) is a member
    for g in fam:
        if len(g) > k or not is_partial_homomorphism(Assignment(tuple(g)), X, A):
            return False
        for p in g:
            f = g - {p}
            if f not in fam:
                return False
            extensions.setdefault(f, set()).add(p[0])
    return all(len(extensions.get(f, ())) == len(X.domain) - len(f) for f in fam if len(f) < k)


# -- the marginal system -------------------------------------------------------------


def _template(xt: tuple, tuples: tuple, projections: list, cells: list,
              targets_of: dict, own: bool) -> tuple:
    """The images and projected groups shared by every scope with xt's equality pattern.

    The images are the tuples of the symbol that xt precedes, in order.  For
    each projection the template holds its getter and, for each cell b that
    the projected scope xi precedes (in cell order, kept in ``targets_of``
    by the equality pattern of xi), the local indices of the images
    projecting onto b.  No image projects outside those cells: equal
    positions of xi are equal positions of xt, which every image repeats.
    For an ``R_k`` scope xt (``own``), a projection with xi = xt, which the
    pattern decides, is left out: each image projects onto its own cell, so
    each of its identities would read x - x = 0.
    """
    images = [at for at in tuples if precedes(xt, at)]
    stamps = []
    for _, get in projections:
        xi = get(xt)
        if own and xi == xt:
            continue
        xi_pattern = tuple(map(xi.index, xi))
        targets = targets_of.get(xi_pattern)
        if targets is None:
            targets = targets_of[xi_pattern] = [b for b in cells if precedes(xi, b)]
        local: dict = {}
        for i, at in enumerate(images):
            local.setdefault(get(at), []).append(i)
        stamps.append((get, [local.get(b, ()) for b in targets]))
    return images, stamps


def _marginal_rows(Xk: Structure, Ak: Structure, k: int, budget: Budget) -> tuple:
    """The level-k marginal system of the k-enhanced pair, its variables numbered once.

    Each scope ``(sym, xt)`` has one variable ``(sym, xt, at)`` per
    scope-respecting image ``at`` (a repeated variable never maps onto two
    values, so those weights are identically zero and never enumerated).
    The variables are numbered 0..n-1 in scope order, so each scope holds
    one range of ids.  Each identity is the id tuple ``(*images, cell)``,
    read as sum(images) - cell = 0: projecting a scope onto a k-tuple of its
    positions reproduces the weight of the projected scope on ``R_k`` at
    that cell.  A cell that no image reaches gives the one-id tuple
    ``(cell,)``, a zero weight.  An ``R_k`` scope's projections onto itself
    state nothing and are not stamped (``_template``).

    What a scope admits and how its images project depend only on its
    symbol and the equality pattern of xt, so ``_template`` works them out
    once per (symbol, pattern), and each scope stamps its rows from that
    template at its own id offset.  ``Ak`` holds the full ``R_k`` in cell
    order, as ``k_enhance`` makes it, so the ``R_k`` scope of a projected
    tuple xi holds one id per cell xi precedes, in cell order, and row t of
    a projection names the t-th of them.  ``Xk`` holds the full ``R_k`` as
    well, so every projected tuple xi has its own ``R_k`` scope.

    The scopes are walked in the order they are numbered, and a scope's
    identities are stamped unless it is an ``R_k`` scope marked as a
    *repeat*.  Each stated scope xt marks as a repeat every ``R_k`` scope
    xi = π(xt), other than itself and those already stated, for each
    projection π whose position tuple names every position of xt; a repeat
    marks nothing.  A repeat keeps its variables and ids, but neither its
    identities nor its unit-mass row is stated, and the emitted system is
    the one that stating every identity and unit row gives:

    - π names every position of xt, so it is injective on xt's images.
    - xt's π-identities are therefore merges of each image ``at`` with the
      cell π(at) of xi, and pins of the cells of xi that no image reaches.
    - Under those merges and pins, xi's identity (ρ, b) reads as xt's
      identity (π∘ρ, b), and xi's unit row reads as xt's.
    - xt comes first, so ``build`` keeps xt's copy, and the emitted
      ``LinearSystem`` (columns, rows in order, right-hand sides) and
      ``PresolvedSystem.columns`` are unchanged.  The union-find roots of
      pinned keys can differ, but the roots are not part of the output: a
      pinned key has no column whatever its root.
    - ``sos`` reads the presolved system, so its Gram problem is unchanged.

    Returns the key tuple, each scope's id range, the identities, and the
    repeats' positions in the scope list (an empty range equals another).
    """
    enh = f"R_{k}"
    cells = list(itertools.product(Ak.domain, repeat=k))
    projections = {arity: _projections(arity, k) for _, arity in Xk.signature.symbols}
    templates: dict = {}  # (sym, equality pattern) -> _template
    targets_of: dict = {}  # the equality pattern of xi -> the cells that xi precedes
    keys: list = []
    scopes = []  # (sym, xt, template stamps, ids) in scope order
    enh_start: dict = {}  # xi -> the id of (enh, xi, b) for the first cell b that xi precedes
    for sym in Xk.signature.names():
        tuples = Ak.tuples(sym)
        for xt in Xk.tuples(sym):
            pattern = (sym, tuple(map(xt.index, xt)))
            template = templates.get(pattern)
            if template is None:
                template = templates[pattern] = _template(
                    xt, tuples, projections[len(xt)], cells, targets_of, sym == enh)
            images, stamps = template
            ids = range(len(keys), len(keys) + len(images))
            keys.extend((sym, xt, at) for at in images)
            if sym == enh:
                enh_start[xt] = ids.start
            scopes.append((sym, xt, stamps, ids))
    budget.check_tuples(len(keys), "marginal system variables")
    # the getters of the projections that name every position of a scope
    covering = {arity: [get for i, get in projections[arity] if len(set(i)) == arity]
                for arity in projections}
    stated: set = set()  # the R_k scopes, walked so far, whose identities are stamped
    repeats: set = set()  # the R_k scopes a stated scope projects onto by a covering getter
    repeat_at: set = set()  # the positions of the repeats in the scope list
    identities = []
    for s, (sym, xt, stamps, ids) in enumerate(scopes):
        if sym == enh:
            if xt in repeats:
                repeat_at.add(s)
                continue
            stated.add(xt)
        for get in covering[len(xt)]:
            xi = get(xt)
            if xi not in stated:
                repeats.add(xi)
        # the projected mass onto the cell of (enh, xi, b) minus its weight
        shift = ids.start.__add__
        for get, groups in stamps:
            for v, group in enumerate(groups, enh_start[get(xt)]):
                identities.append((*map(shift, group), v))
    return tuple(keys), [ids for *_, ids in scopes], identities, repeat_at


def _linear_system(domain_tag: DomainTag, keys: tuple, scopes: list,
                   identities: list, repeats: set) -> PresolvedSystem:
    """Unit mass on each scope's weights but the repeats', then the identities, presolved.

    One pass sorts the identities: one of one id is a pin, one of two ids a
    merge, and a longer one a row (``build`` reads all three lists).
    """
    builder = EqualitySystemBuilder(domain_tag, keys)
    rows, pins, merges = builder.rows, builder.pins, builder.merges
    rows.extend((dict.fromkeys(ids, 1), 1) for s, ids in enumerate(scopes) if s not in repeats)
    for ident in identities:
        if len(ident) > 2:
            row = dict.fromkeys(ident, 1)
            row[ident[-1]] = -1
            rows.append((row, 0))
        elif len(ident) == 2:
            merges.append(ident)
        else:
            pins.append(ident[0])
    return builder.build()


def validate_marginal_witness(
    values: dict, Xk: Structure, Ak: Structure, k: int, integral: bool = False
) -> None:
    """Check the witness against the defining equations, exactly; an absent weight is zero.

    One pass checks that every weight is an int or a Fraction, and its sign,
    integrality and the image's length.
    A nonzero weight must also respect its scope and name a variable: a
    scope ``(sym, xt)`` of ``Xk``, checked once per scope, and a tuple ``at``
    of ``Ak``; a zero weight may sit on any key.  Each scope's nonzero
    weights are filed under it and scaled to ints by the lcm of all
    denominators, so unit mass is a sum equal to that lcm, and each
    projection of a scope's weights must equal the projected scope's weights
    on ``R_k``.  Cells of A^k are walked only to name the first mismatch.
    """
    enh = f"R_{k}"
    weights: dict = {}  # (sym, xt) -> {at: the nonzero weight}
    for (sym, xt, at), v in values.items():
        if not isinstance(v, RATIONAL_TYPES):
            raise InvalidWitness(f"weight {v!r} at {(sym, xt, at)} is not an exact rational")
        if integral and not is_integral(v):
            raise InvalidWitness(f"non-integer weight at {(sym, xt, at)}")
        if not integral and v < 0:
            raise InvalidWitness(f"negative weight at {(sym, xt, at)}")
        if len(xt) != len(at):
            raise LengthMismatch(f"tuples of lengths {len(xt)} and {len(at)}")
        if v:
            if not precedes(xt, at):
                raise InvalidWitness(f"scope-violating weight at {(sym, xt, at)}")
            own = weights.get((sym, xt))
            if own is None:  # the scope's first nonzero weight: is it a scope of Xk?
                if not (sym in Xk.signature and Xk.has_tuple(sym, xt)):
                    raise InvalidWitness(f"weight on no variable of the system at {(sym, xt, at)}")
                own = weights[(sym, xt)] = {}
            if not Ak.has_tuple(sym, at):
                raise InvalidWitness(f"weight on no variable of the system at {(sym, xt, at)}")
            own[at] = v
    scale = math.lcm(*(v.denominator for own in weights.values() for v in own.values()))
    for own in weights.values():
        for at, v in own.items():
            own[at] = v.numerator * (scale // v.denominator)
    for sym, arity in Xk.signature.symbols:
        projections = _projections(arity, k)
        for xt in Xk.tuples(sym):
            own = weights.get((sym, xt), {})
            total = sum(own.values())
            if total != scale:
                raise InvalidWitness(
                    f"unit mass violated at {(sym, xt)}: {rat(total, scale)}")
            for i, get in projections:
                sums: dict = {}
                for at, w in own.items():
                    b = get(at)
                    sums[b] = sums.get(b, 0) + w
                projected = weights.get((enh, get(xt)), {})
                if sums == projected:
                    continue
                for b in itertools.product(Ak.domain, repeat=k):
                    lhs, rhs = sums.get(b, 0), projected.get(b, 0)
                    if lhs != rhs:
                        raise InvalidWitness(f"marginal violated at {(sym, xt, i, b)}: "
                                             f"{rat(lhs, scale)} != {rat(rhs, scale)}")


def _stats(system: LinearSystem, **counters) -> dict:
    return {"vars": system.num_vars, "constraints": system.num_rows, **counters}


@driver
def sa(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k marginal LP feasibility over nonnegative rationals."""
    Xk, Ak = k_enhance(X, k, budget), k_enhance(A, k, budget)
    presolved = _linear_system(DomainTag.NONNEG_RAT, *_marginal_rows(Xk, Ak, k, budget))
    outcome = lp_feasible(presolved.system, budget)
    stats = _stats(presolved.system, pivots=outcome.pivots)
    if outcome.feasible:
        values = presolved.expand(outcome.point)
        validate_marginal_witness(values, Xk, Ak, k)
        return Verdict("sa", k, Status.ACCEPT, witness=MarginalWitness(values), stats=stats)
    evidence = RejectionEvidence(outcome.certificate, presolved.system)
    return Verdict("sa", k, Status.REJECT, certificate=evidence, stats=stats)


@driver
def aip(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k marginal feasibility over the integers."""
    Xk, Ak = k_enhance(X, k, budget), k_enhance(A, k, budget)
    presolved = _linear_system(DomainTag.INT, *_marginal_rows(Xk, Ak, k, budget))
    outcome = diophantine_solve(presolved.system, budget)
    stats = _stats(presolved.system)
    if outcome.feasible:
        values = presolved.expand(outcome.point)
        validate_marginal_witness(values, Xk, Ak, k, integral=True)
        return Verdict("aip", k, Status.ACCEPT, witness=MarginalWitness(values), stats=stats)
    evidence = RejectionEvidence(outcome.certificate, presolved.system)
    return Verdict("aip", k, Status.REJECT, certificate=evidence, stats=stats)


def _support_system(system: LinearSystem, support: set) -> tuple[LinearSystem, list]:
    """The integer system on the support columns alone, with their column indices.

    Every other column is zero.  A row left with no column held 0 = 0 at
    the LP's support point, so it is dropped.
    """
    cols = sorted(support)
    index = {j: i for i, j in enumerate(cols)}
    rows, rhs = [], []
    for row, b in zip(system.rows, system.rhs):
        kept = {index[j]: c for j, c in row.items() if j in index}
        if kept:
            rows.append(kept)
            rhs.append(b)
    names = tuple(system.var_names[j] for j in cols)
    return LinearSystem(names, tuple(rows), tuple(rhs), DomainTag.INT), cols


@driver
def ba(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k combined LP/IP: an integer solution supported inside the LP's
    maximal support.

    The LP support is maximized variable by variable (the union of supports
    is attained by the average of the maximizers, i.e. at a relative-interior
    point), so forcing every other variable to zero and solving over the
    integers decides the refinement condition for every admissible pair of
    solutions at once.

    The integer phase runs on the LP's own presolved system, restricted to
    the support columns.  That is the marginal system over the integers
    with every variable outside the support set to zero: the presolve's
    merges and single-variable pins hold over any domain, and each variable
    it pins by sign (a row of one sign with right-hand side 0) is zero in
    every nonnegative solution, so it lies outside the support anyway.
    """
    Xk, Ak = k_enhance(X, k, budget), k_enhance(A, k, budget)
    presolved = _linear_system(DomainTag.NONNEG_RAT, *_marginal_rows(Xk, Ak, k, budget))
    support_cols, point, cert, pivots = maximal_support(presolved.system, budget)
    if cert is not None:
        stats = _stats(presolved.system, pivots=pivots)
        evidence = RejectionEvidence(cert, presolved.system, note="lp-phase")
        return Verdict("ba", k, Status.REJECT, certificate=evidence, stats=stats)
    lp_values = presolved.expand(point)
    validate_marginal_witness(lp_values, Xk, Ak, k)
    support_keys = {key for key, v in lp_values.items() if v > 0}
    ip_system, cols = _support_system(presolved.system, support_cols)
    outcome = diophantine_solve(ip_system, budget)
    stats = _stats(ip_system, pivots=pivots, lp_support=len(support_keys))
    if not outcome.feasible:
        evidence = RejectionEvidence(outcome.certificate, ip_system, note="ip-phase")
        return Verdict("ba", k, Status.REJECT, certificate=evidence, stats=stats)
    ip_point = {cols[j]: v for j, v in outcome.point.items()}
    ip_values = presolved.expand(ip_point)
    validate_marginal_witness(ip_values, Xk, Ak, k, integral=True)
    for key, v in ip_values.items():
        if v != 0 and key not in support_keys:
            raise InvalidWitness(f"integer support leaks outside the LP support at {key}")
    witness = CombinedWitness(MarginalWitness(lp_values), MarginalWitness(ip_values), support_keys)
    return Verdict("ba", k, Status.ACCEPT, witness=witness, stats=stats)


# -- vector relaxations ---------------------------------------------------------------


def _sdp_problem(X: Structure, A: Structure) -> GramProblem:
    """A unit group per variable of X, an implied one per constraint tuple, and their identities."""
    variables = tuple(tuple(("v", x, a) for a in A.domain) for x in X.domain)
    # a constraint's vectors sum, through the identities of its first position,
    # to the orthogonal sum of a variable's vectors: their squared norms sum to one
    constraints = tuple(tuple(("c", sym, xt, at) for at in A.tuples(sym))
                        for sym in X.signature.names() for xt in X.tuples(sym))
    every = variables + constraints
    return GramProblem(
        tuple(lab for group in every for lab in group), variables,
        tuple(pair for group in every for pair in itertools.combinations(group, 2)),
        tuple((*((("c", sym, xt, at), 1) for at in A.tuples(sym) if at[i] == a),
               (("v", xt[i], a), -1))
              for sym, arity in X.signature.symbols for xt in X.tuples(sym)
              for i in range(arity) for a in A.domain),
        constraints)


@driver
def sdp(X: Structure, A: Structure, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """The basic vector relaxation: exact affine phase, then projections."""
    nlabels = len(X.domain) * len(A.domain) + sum(
        len(X.tuples(s)) * len(A.tuples(s)) for s in X.signature.names()
    )
    budget.check_tuples(nlabels, "vector labels")
    return _finish_gram("sdp", None, _sdp_problem(X, A))


def _sos_problem(presolved: PresolvedSystem, scopes: list) -> GramProblem:
    """One vector per presolved column; a scope's columns are orthogonal with unit total norm.

    Column j is labelled ``("c",) + var_names[j]``, after the first key of
    its merge class.  A scope's unit group holds the distinct columns of its
    keys, in the order the keys first reach them, and a pinned key reaches
    none.  The zero pairs are the pairs inside each group, and a self-pair
    (c, c) for each column that two keys of the scope share.  The presolved
    rows with right-hand side 0 are the identifications; the unit rows are
    the groups'.
    """
    system, columns = presolved.system, presolved.columns
    labels = tuple(("c",) + name for name in system.var_names)
    groups, pairs = [], []
    for ids in scopes:
        shared: dict = {}  # column -> whether a second key of the scope reaches it
        for v in ids:
            if (j := columns[v]) >= 0:
                shared[j] = j in shared
        group = tuple(labels[j] for j in shared)
        groups.append(group)
        pairs.extend((labels[j], labels[j]) for j, twice in shared.items() if twice)
        pairs.extend(itertools.combinations(group, 2))
    identifications = tuple(tuple((labels[j], c) for j, c in row.items())
                            for row, b in zip(system.rows, system.rhs) if b == 0)
    return GramProblem(labels, tuple(groups), tuple(pairs), identifications)


@driver
def sos(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k squared relaxation: one vector per variable of the marginal system.

    The pair is enhanced and its marginal system enumerated and presolved
    once.  Within one scope the vectors are pairwise orthogonal, so squared
    norms add across the marginal identities and the squared norms of any
    exact solution solve the level-k marginal LP.  That LP is therefore
    solved first, exactly; its infeasibility is a rigorous rejection here.

    Otherwise the Gram problem is posed on the LP's presolved columns
    (``_sos_problem``), since each step of the presolve holds for the
    vectors too.  Each is a facial-reduction step (Borwein-Wolkowicz 1981;
    Permenter-Parrilo 2018):

    - a pin, x = 0 from a one-id identity or a row left with one term, says
      that the vector is 0;
    - a merge, x - y = 0 from a two-id identity or c x - c y = 0 from a row
      left with two terms, says that two vectors are equal;
    - a row of one sign with right-hand side 0 is what is left of an
      identity sum(images) - cell = 0 once the cell has cancelled or been
      pinned: a positive combination of images of one scope.  Distinct
      columns of one scope have orthogonal vectors, so the combination's
      squared norm is the positive sum of theirs, and each of them is 0;
    - a column that two keys of one scope share has a vector orthogonal to
      itself, which is 0.  It stays in the scope's group with the zero pair
      (c, c), from which the exact phase derives it.

    Conversely, a solution over the columns lifts to one over the keys: a
    merged key takes its column's vector and a pinned key the zero vector.
    That meets every orthogonality, unit norm and identity of the statement
    with one vector per key, so the two problems are equivalent, and an
    ACCEPT's witness is lifted so, with a vector for every key.
    """
    Xk, Ak = k_enhance(X, k, budget), k_enhance(A, k, budget)
    keys, scopes, identities, repeats = _marginal_rows(Xk, Ak, k, budget)
    presolved = _linear_system(DomainTag.NONNEG_RAT, keys, scopes, identities, repeats)
    outcome = lp_feasible(presolved.system, budget)
    if not outcome.feasible:
        evidence = RejectionEvidence(
            outcome.certificate, presolved.system,
            note="squared norms of any solution would solve this infeasible LP",
        )
        stats = _stats(presolved.system, pivots=outcome.pivots)
        return Verdict("sos", k, Status.REJECT, certificate=evidence, stats=stats)
    verdict = _finish_gram("sos", k, _sos_problem(presolved, scopes))
    witness = verdict.witness
    if isinstance(witness, SoSWitness):
        # every key lies in its scope's unit row, whose positive coefficients
        # cannot cancel, so a key without a column was pinned
        names, zero = presolved.system.var_names, np.zeros(len(witness.labels))
        witness.vectors = {("c",) + key: witness.vectors[("c",) + names[j]] if j >= 0 else zero
                           for key, j in zip(keys, presolved.columns)}
    return verdict


def _finish_gram(algorithm: str, level: Optional[int], problem: GramProblem) -> Verdict:
    """Reduce the Gram problem exactly, then solve it by projections.

    The solve reads the Gram problem alone and starts at I/n: no search for
    a homomorphism runs inside the relaxation.  A dual certificate from the
    solve is checked again, exactly, before it becomes a REJECT.
    """
    stats = {
        "vars": len(problem.labels),
        "constraints": len(problem.zero_pairs) + len(problem.identifications)
        + len(problem.unit_groups),
    }

    def verdict(status: Status, **evidence) -> Verdict:
        return Verdict(algorithm, level, status, stats=stats, **evidence)

    reduced = affine_reduce(problem)
    if isinstance(reduced, Inconsistent):
        return verdict(Status.REJECT, certificate=reduced)
    stats["reduced_dim"] = len(reduced.reps)
    outcome = psd_feasibility(reduced)
    stats["iterations"] = outcome.iterations
    if isinstance(outcome, NumericReject):
        return verdict(Status.REJECT_NUMERIC, certificate=outcome)
    if isinstance(outcome, DualCertificate):
        if not verify_dual_certificate(outcome):
            raise InvalidWitness("the dual certificate fails its exact check")
        return verdict(Status.REJECT, certificate=outcome)
    return verdict(Status.ACCEPT, witness=outcome)


# -- the brute-force oracle -------------------------------------------------------------


@driver
def oracle(X: Structure, A: Structure, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Exhaustive homomorphism search; ground truth at desk scale."""
    del budget
    found = find_homomorphism(X, A)
    stats = {"vars": len(X.domain),
             "constraints": sum(len(X.tuples(s)) for s in X.signature.names())}
    if found is None:
        return Verdict("oracle", None, Status.REJECT, stats=stats)
    return Verdict("oracle", None, Status.ACCEPT,
                   witness={str(a): str(b) for a, b in found.mapping}, stats=stats)
