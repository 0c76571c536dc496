"""The relaxation drivers: local consistency, marginal LP/IP hierarchies, SDP, SoS.

Every driver maps a pair of structures (and a level k where applicable) to a
:class:`~minionlab.verdicts.Verdict`.  Accepts carry witnesses that are
re-validated against the defining equations before being returned; rejects
carry machine-checkable certificates wherever the underlying solver is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional

from .budgets import DEFAULT_BUDGET, Budget
from .errors import InvalidWitness
from .exact_solvers import (
    Certificate,
    DomainTag,
    LinearSystem,
    diophantine_solve,
    lp_feasible,
    maximal_support,
)
from .psd import (
    GramProblem,
    Inconsistent,
    NumericReject,
    PSDConfig,
    ReducedGramProblem,
    affine_reduce,
    expand_vectors,
    gram_to_vectors,
    psd_feasibility,
)
from .rationals import R0, is_integral, rat_to_str
from .structures import (
    Assignment,
    Structure,
    enumerate_partial_homomorphisms,
    find_homomorphism,
    is_partial_homomorphism,
    k_enhance,
)
from .system_builders import EqualitySystemBuilder, PresolvedSystem
from .tensors import precedes, project
from .verdicts import Status, Verdict

# -- witnesses and evidence -------------------------------------------------------


@dataclass
class MarginalWitness:
    """Exact values for every (symbol, scope tuple, image tuple) variable."""

    values: dict

    def to_doc(self) -> dict:
        return {
            f"{sym}|{xt}|{at}": rat_to_str(v)
            for (sym, xt, at), v in sorted(self.values.items(), key=lambda kv: str(kv[0]))
            if v != 0
        }


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
        import json

        doc = {
            "certificate": json.loads(self.certificate.to_json()),
            "system": json.loads(self.system.to_json()),
        }
        if self.note:
            doc["note"] = self.note
        return doc


# -- bounded width -----------------------------------------------------------------


def bw(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k local consistency via the greatest fixpoint of deletion.

    Starting from all partial homomorphisms on at most k variables, a map is
    deleted when a one-variable restriction is missing or some at-most-k
    superset of its domain admits no surviving extension.  Any valid family
    survives every deletion pass, so the fixpoint is nonempty exactly when
    some family exists.
    """
    X.require_same_signature(A)
    t0 = perf_counter()
    maps = enumerate_partial_homomorphisms(X, A, k, budget)
    fam = {frozenset(m.mapping) for m in maps}
    doms = [frozenset(c)
            for j in range(0, min(k, len(X.domain)) + 1)
            for c in itertools.combinations(X.domain, j)]
    while True:
        by_dom: dict = {}
        for f in fam:
            by_dom.setdefault(frozenset(a for a, _ in f), []).append(f)
        kill = set()
        for f in fam:
            dom = frozenset(a for a, _ in f)
            ok = True
            for drop in dom:
                if frozenset(p for p in f if p[0] != drop) not in fam:
                    ok = False
                    break
            if ok:
                for V in doms:
                    if dom <= V and not any(f <= g for g in by_dom.get(V, ())):
                        ok = False
                        break
            if not ok:
                kill.add(f)
        if not kill:
            break
        fam -= kill
    stats = {"vars": len(maps), "constraints": len(doms),
             "millis": round(1000 * (perf_counter() - t0), 3)}
    if not fam:
        return Verdict("bw", k, Status.REJECT, stats=stats)
    family = BWFamily(tuple(sorted((Assignment(tuple(sorted(f, key=repr))) for f in fam),
                                   key=lambda a: (len(a.mapping), repr(a.mapping)))))
    return Verdict("bw", k, Status.ACCEPT, witness=family, stats=stats)


def is_valid_bw_family(
    maps: Iterable[Assignment], X: Structure, A: Structure, k: int
) -> bool:
    """Full validity check: partial homomorphisms, restriction-closed, extendable."""
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


# -- the marginal equality system ----------------------------------------------------


def _marginal_system(
    X: Structure,
    A: Structure,
    k: int,
    domain_tag: DomainTag,
    budget: Budget,
    zero_keys: Optional[set] = None,
) -> tuple[PresolvedSystem, Structure, Structure]:
    """The level-k marginal system over the k-enhanced structures.

    Variables carry one weight per (symbol, scope tuple, image tuple) with
    scope-respecting images only (a repeated variable never maps onto two
    values; those weights are identically zero and are eliminated up front).
    Rows say that each scope's weights are a unit mass and that projecting
    any scope onto a k-tuple of its positions reproduces the weight of the
    projected scope on the enhancement relation.
    """
    Xk = k_enhance(X, k, budget)
    Ak = k_enhance(A, k, budget)
    enh = f"R_{k}"
    builder = EqualitySystemBuilder(domain_tag)
    nvars = 0
    for sym in Xk.signature.names():
        for xt in Xk.tuples(sym):
            for at in Ak.tuples(sym):
                if precedes(xt, at):
                    builder.ensure_var((sym, xt, at))
                    nvars += 1
    budget.check_tuples(nvars, "marginal system variables")
    if zero_keys:
        for key in sorted(zero_keys, key=str):
            if builder.has_var(key):
                builder.add_row({key: 1}, 0)
    for sym in Xk.signature.names():
        for xt in Xk.tuples(sym):
            row = {(sym, xt, at): 1 for at in Ak.tuples(sym) if precedes(xt, at)}
            builder.add_row(row, 1)
    for sym, arity in Xk.signature.symbols:
        for xt in Xk.tuples(sym):
            compatible = [at for at in Ak.tuples(sym) if precedes(xt, at)]
            for i in itertools.product(range(1, arity + 1), repeat=k):
                xi = project(xt, i)
                groups: dict = {}
                for at in compatible:
                    groups.setdefault(project(at, i), []).append(at)
                for b in itertools.product(Ak.domain, repeat=k):
                    row: dict = {}
                    for at in groups.get(b, ()):  # the projected mass
                        row[(sym, xt, at)] = row.get((sym, xt, at), 0) + 1
                    if precedes(xi, b):
                        key = (enh, xi, b)
                        row[key] = row.get(key, 0) - 1
                    row = {kk: c for kk, c in row.items() if c != 0}
                    if row:
                        builder.add_row(row, 0)
    return builder.build(), Xk, Ak


def _full_values(presolved: PresolvedSystem, point: dict, Xk: Structure, Ak: Structure) -> dict:
    values = presolved.expand(point)
    for sym in Xk.signature.names():
        for xt in Xk.tuples(sym):
            for at in Ak.tuples(sym):
                values.setdefault((sym, xt, at), R0)
    return values


def validate_marginal_witness(
    values: dict, Xk: Structure, Ak: Structure, k: int, integral: bool = False
) -> None:
    """Check the witness against the defining equations, exactly."""
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
            total = sum((values[(sym, xt, at)] for at in Ak.tuples(sym)), R0)
            if total != 1:
                raise InvalidWitness(f"unit mass violated at {(sym, xt)}: {total}")
            for i in itertools.product(range(1, arity + 1), repeat=k):
                xi = project(xt, i)
                sums: dict = {}
                for at in Ak.tuples(sym):
                    b = project(at, i)
                    sums[b] = sums.get(b, R0) + values[(sym, xt, at)]
                for b in itertools.product(Ak.domain, repeat=k):
                    lhs = sums.get(b, R0)
                    rhs = values[(enh, xi, b)]
                    if lhs != rhs:
                        raise InvalidWitness(
                            f"marginal violated at {(sym, xt, i, b)}: {lhs} != {rhs}"
                        )


def _stats(presolved: PresolvedSystem, t0: float, extra: Optional[dict] = None) -> dict:
    out = {
        "vars": presolved.system.num_vars,
        "constraints": presolved.system.num_rows,
        "millis": round(1000 * (perf_counter() - t0), 3),
    }
    if extra:
        out.update(extra)
    return out


def sa(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k marginal LP feasibility over nonnegative rationals."""
    X.require_same_signature(A)
    t0 = perf_counter()
    presolved, Xk, Ak = _marginal_system(X, A, k, DomainTag.NONNEG_RAT, budget)
    outcome = lp_feasible(presolved.system, budget)
    stats = _stats(presolved, t0, {"pivots": outcome.pivots})
    if outcome.feasible:
        values = _full_values(presolved, outcome.point, Xk, Ak)
        validate_marginal_witness(values, Xk, Ak, k)
        return Verdict("sa", k, Status.ACCEPT, witness=MarginalWitness(values), stats=stats)
    evidence = RejectionEvidence(outcome.certificate, presolved.system)
    return Verdict("sa", k, Status.REJECT, certificate=evidence, stats=stats)


def aip(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k marginal feasibility over the integers."""
    X.require_same_signature(A)
    t0 = perf_counter()
    presolved, Xk, Ak = _marginal_system(X, A, k, DomainTag.INT, budget)
    outcome = diophantine_solve(presolved.system, budget)
    stats = _stats(presolved, t0)
    if outcome.feasible:
        values = _full_values(presolved, outcome.point, Xk, Ak)
        validate_marginal_witness(values, Xk, Ak, k, integral=True)
        return Verdict("aip", k, Status.ACCEPT, witness=MarginalWitness(values), stats=stats)
    evidence = RejectionEvidence(outcome.certificate, presolved.system)
    return Verdict("aip", k, Status.REJECT, certificate=evidence, stats=stats)


def ba(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Level-k combined LP/IP: an integer solution supported inside the LP's
    maximal support.

    The LP support is maximized variable by variable (the union of supports
    is attained by the average of the maximizers, i.e. at a relative-interior
    point), so pinning the complement and solving over the integers decides
    the refinement condition for every admissible pair of solutions at once.
    """
    X.require_same_signature(A)
    t0 = perf_counter()
    presolved, Xk, Ak = _marginal_system(X, A, k, DomainTag.NONNEG_RAT, budget)
    support_cols, point, cert, pivots = maximal_support(presolved.system, budget)
    if cert is not None:
        stats = _stats(presolved, t0, {"pivots": pivots})
        evidence = RejectionEvidence(cert, presolved.system, note="lp-phase")
        return Verdict("ba", k, Status.REJECT, certificate=evidence, stats=stats)
    lp_values = _full_values(presolved, point, Xk, Ak)
    validate_marginal_witness(lp_values, Xk, Ak, k)
    support_keys = {key for key, v in lp_values.items() if v > 0}
    zero_keys = {key for key, v in lp_values.items() if v == 0}
    presolved_ip, _, _ = _marginal_system(X, A, k, DomainTag.INT, budget, zero_keys=zero_keys)
    outcome = diophantine_solve(presolved_ip.system, budget)
    stats = _stats(presolved_ip, t0, {"pivots": pivots, "lp_support": len(support_keys)})
    if not outcome.feasible:
        evidence = RejectionEvidence(outcome.certificate, presolved_ip.system, note="ip-phase")
        return Verdict("ba", k, Status.REJECT, certificate=evidence, stats=stats)
    ip_values = _full_values(presolved_ip, outcome.point, Xk, Ak)
    validate_marginal_witness(ip_values, Xk, Ak, k, integral=True)
    for key, v in ip_values.items():
        if v != 0 and key not in support_keys:
            raise InvalidWitness(f"integer support leaks outside the LP support at {key}")
    witness = CombinedWitness(MarginalWitness(lp_values), MarginalWitness(ip_values), support_keys)
    return Verdict("ba", k, Status.ACCEPT, witness=witness, stats=stats)


# -- the subset formulation of the marginal LP ------------------------------------------


def _functions(atoms: tuple, targets: tuple) -> list[dict]:
    out = []
    for image in itertools.product(targets, repeat=len(atoms)):
        out.append(dict(zip(atoms, image)))
    return out


def sa_alt(X: Structure, A: Structure, k: int, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """The subset formulation of the level-k marginal LP.

    Distributions live on assignments of at-most-k-element variable subsets
    and on assignments of constraint scopes; marginalisation ties them
    together.  The structures are used as given (no enhancement here; the
    subsets quantify over the domain directly).
    """
    X.require_same_signature(A)
    t0 = perf_counter()
    builder = EqualitySystemBuilder(DomainTag.NONNEG_RAT)

    def fn_key(f: dict) -> tuple:
        return tuple(sorted(f.items(), key=lambda ab: X.atom_id(ab[0])))

    subsets: list[tuple] = []
    for j in range(1, min(k, len(X.domain)) + 1):
        subsets.extend(itertools.combinations(X.domain, j))
    for V in subsets:
        for f in _functions(V, A.domain):
            builder.ensure_var(("mu", V, fn_key(f)))
    scope_fns: dict = {}
    for sym in X.signature.names():
        for xt in X.tuples(sym):
            atoms = tuple(dict.fromkeys(xt))  # scope set in first-occurrence order
            fns = [
                f
                for f in _functions(atoms, A.domain)
                if A.has_tuple(sym, tuple(f[x] for x in xt))
            ]
            scope_fns[(sym, xt)] = (atoms, fns)
            for f in fns:
                builder.ensure_var(("muR", sym, xt, fn_key(f)))
    # unit mass on every subset distribution
    for V in subsets:
        builder.add_row({("mu", V, fn_key(f)): 1 for f in _functions(V, A.domain)}, 1)
    # marginalisation between nested subsets
    for V in subsets:
        vset = set(V)
        fsV = _functions(V, A.domain)
        for U in subsets:
            if set(U) < vset:
                for fU in _functions(U, A.domain):
                    row = {("mu", V, fn_key(g)): 1
                           for g in fsV
                           if all(g[u] == fU[u] for u in U)}
                    row[("mu", U, fn_key(fU))] = row.get(("mu", U, fn_key(fU)), 0) - 1
                    row = {kk: c for kk, c in row.items() if c != 0}
                    if row:
                        builder.add_row(row, 0)
    # unit mass and marginalisation for the scope distributions
    for (sym, xt), (atoms, fns) in scope_fns.items():
        builder.add_row({("muR", sym, xt, fn_key(f)): 1 for f in fns}, 1)
        for U in subsets:
            if set(U) <= set(atoms):
                for fU in _functions(U, A.domain):
                    row = {("muR", sym, xt, fn_key(g)): 1
                           for g in fns
                           if all(g[u] == fU[u] for u in U)}
                    key = ("mu", U, fn_key(fU))
                    row[key] = row.get(key, 0) - 1
                    row = {kk: c for kk, c in row.items() if c != 0}
                    if row:
                        builder.add_row(row, 0)
    presolved = builder.build()
    outcome = lp_feasible(presolved.system, budget)
    stats = _stats(presolved, t0, {"pivots": outcome.pivots})
    if outcome.feasible:
        values = presolved.expand(outcome.point)
        witness = MarginalWitness({k2: v for k2, v in values.items() if v != 0})
        return Verdict("sa-alt", k, Status.ACCEPT, witness=witness, stats=stats)
    evidence = RejectionEvidence(outcome.certificate, presolved.system)
    return Verdict("sa-alt", k, Status.REJECT, certificate=evidence, stats=stats)


# -- support structure of LP witnesses ----------------------------------------------


def support_family(
    witness: MarginalWitness, X: Structure, A: Structure, k: int,
    budget: Budget = DEFAULT_BUDGET,
) -> BWFamily:
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
        maps.add(Assignment(tuple(sorted(zip(xt, at), key=repr))))
    family = sorted(maps, key=lambda a: (len(a.mapping), repr(a.mapping)))
    for f in family:
        if not is_partial_homomorphism(f, X, A):
            raise InvalidWitness(f"support map {f.mapping} is not a partial homomorphism")
    if not is_valid_bw_family(family, X, A, k):
        raise InvalidWitness("support does not form a valid local-consistency family")
    return BWFamily(tuple(family))


# -- vector relaxations ---------------------------------------------------------------


def _sdp_problem(X: Structure, A: Structure) -> GramProblem:
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
    omega = len(X.domain) * len(A.domain) + sum(
        len(X.tuples(s)) * len(A.tuples(s)) for s in X.signature.names()
    )
    return GramProblem(tuple(labels), unit_groups, tuple(zero_pairs), tuple(idents), omega)


def _sos_problem(Xk: Structure, Ak: Structure, k: int) -> GramProblem:
    labels: list = []
    surviving: dict = {}
    for sym in Xk.signature.names():
        for xt in Xk.tuples(sym):
            good = tuple(at for at in Ak.tuples(sym) if precedes(xt, at))
            surviving[(sym, xt)] = good
            for at in good:
                labels.append(("c", sym, xt, at))
    unit_groups = tuple(
        tuple(("c", sym, xt, at) for at in surviving[(sym, xt)])
        for sym in Xk.signature.names()
        for xt in Xk.tuples(sym)
    )
    zero_pairs: list = []
    for (sym, xt), good in surviving.items():
        for at, at2 in itertools.combinations(good, 2):
            zero_pairs.append((("c", sym, xt, at), ("c", sym, xt, at2)))
    enh = f"R_{k}"
    idents: list = []
    for sym, arity in Xk.signature.symbols:
        for xt in Xk.tuples(sym):
            good = surviving[(sym, xt)]
            for i in itertools.product(range(1, arity + 1), repeat=k):
                xi = project(xt, i)
                for b in itertools.product(Ak.domain, repeat=k):
                    row = [(("c", sym, xt, at), 1) for at in good if project(at, i) == b]
                    if precedes(xi, b):
                        row.append(((("c", enh, xi, b)), -1))
                    if row:
                        idents.append(tuple(row))
    omega = sum(len(Xk.tuples(s)) * len(Ak.tuples(s)) for s in Xk.signature.names())
    return GramProblem(tuple(labels), unit_groups, tuple(zero_pairs), tuple(idents), omega)


def _integral_warm_start(reduced: ReducedGramProblem, hom: Optional[Assignment]):
    """The rank-one Gram matrix of a classical solution, over the reduced labels.

    The integral point satisfies every original constraint exactly, hence
    every reduced one; the accept path still measures its residual honestly.
    """
    if hom is None:
        return None
    import numpy as np

    hmap = hom.as_dict()

    def match(label) -> bool:
        if label[0] == "v":
            _, x, a = label
            return hmap[x] == a
        _, _sym, xt, at = label
        return tuple(hmap[x] for x in xt) == at

    v = np.array([1.0 if match(lab) else 0.0 for lab in reduced.reps])
    return np.outer(v, v)


def sdp(
    X: Structure,
    A: Structure,
    budget: Budget = DEFAULT_BUDGET,
    cfg: PSDConfig = PSDConfig(),
) -> Verdict:
    """The basic vector relaxation: exact affine phase, then projections."""
    X.require_same_signature(A)
    t0 = perf_counter()
    problem = _sdp_problem(X, A)
    reduced = affine_reduce(problem)
    nlab = len(problem.labels)
    ncon = len(problem.zero_pairs) + len(problem.identifications) + len(problem.unit_groups)
    if isinstance(reduced, Inconsistent):
        stats = {"vars": nlab, "constraints": ncon,
                 "millis": round(1000 * (perf_counter() - t0), 3)}
        return Verdict("sdp", None, Status.REJECT, certificate=reduced, stats=stats)
    warm = _integral_warm_start(reduced, find_homomorphism(X, A))
    return _finish_gram("sdp", None, reduced, t0, nlab, ncon, cfg, warm)


def sos(
    X: Structure,
    A: Structure,
    k: int,
    budget: Budget = DEFAULT_BUDGET,
    cfg: PSDConfig = PSDConfig(),
) -> Verdict:
    """Level-k squared relaxation on the enhanced structures.

    Within one scope the vectors are pairwise orthogonal, so squared norms
    add across the marginal identities and the squared norms of any exact
    solution solve the level-k marginal LP.  That LP is therefore checked
    first, exactly; its infeasibility is a rigorous rejection here.
    """
    X.require_same_signature(A)
    t0 = perf_counter()
    lp_verdict = sa(X, A, k, budget)
    if not lp_verdict.accepted:
        evidence = lp_verdict.certificate
        evidence.note = "squared norms of any solution would solve this infeasible LP"
        stats = dict(lp_verdict.stats)
        stats["millis"] = round(1000 * (perf_counter() - t0), 3)
        return Verdict("sos", k, Status.REJECT, certificate=evidence, stats=stats)
    Xk = k_enhance(X, k, budget)
    Ak = k_enhance(A, k, budget)
    problem = _sos_problem(Xk, Ak, k)
    reduced = affine_reduce(problem)
    nlab = len(problem.labels)
    ncon = len(problem.zero_pairs) + len(problem.identifications) + len(problem.unit_groups)
    if isinstance(reduced, Inconsistent):
        stats = {"vars": nlab, "constraints": ncon,
                 "millis": round(1000 * (perf_counter() - t0), 3)}
        return Verdict("sos", k, Status.REJECT, certificate=reduced, stats=stats)
    warm = _integral_warm_start(reduced, find_homomorphism(Xk, Ak))
    return _finish_gram("sos", k, reduced, t0, nlab, ncon, cfg, warm)


def _finish_gram(
    algorithm: str,
    level: Optional[int],
    reduced: ReducedGramProblem,
    t0: float,
    nlab: int,
    ncon: int,
    cfg: PSDConfig,
    warm_start=None,
) -> Verdict:
    outcome = psd_feasibility(reduced, cfg, warm_start=warm_start)
    stats = {"vars": nlab, "constraints": ncon, "reduced_dim": len(reduced.reps)}
    if isinstance(outcome, Inconsistent):
        stats["millis"] = round(1000 * (perf_counter() - t0), 3)
        return Verdict(algorithm, level, Status.REJECT, certificate=outcome, stats=stats)
    if isinstance(outcome, NumericReject):
        stats["millis"] = round(1000 * (perf_counter() - t0), 3)
        stats["iterations"] = outcome.iterations
        return Verdict(algorithm, level, Status.REJECT_NUMERIC, certificate=outcome, stats=stats)
    factor = gram_to_vectors(outcome.gram)
    outcome.vectors = expand_vectors(reduced, factor)
    stats["iterations"] = outcome.iterations
    stats["millis"] = round(1000 * (perf_counter() - t0), 3)
    return Verdict(algorithm, level, Status.ACCEPT, witness=outcome, stats=stats)


# -- the brute-force oracle -------------------------------------------------------------


def oracle(X: Structure, A: Structure, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Exhaustive homomorphism search; ground truth at desk scale."""
    del budget
    t0 = perf_counter()
    found = find_homomorphism(X, A)
    stats = {"vars": len(X.domain),
             "constraints": sum(len(X.tuples(s)) for s in X.signature.names()),
             "millis": round(1000 * (perf_counter() - t0), 3)}
    if found is None:
        return Verdict("oracle", None, Status.REJECT, stats=stats)
    return Verdict("oracle", None, Status.ACCEPT,
                   witness={str(a): str(b) for a, b in found.mapping}, stats=stats)
