"""Independent re-checks of every verdict, and the benchmark's correctness gate.

A REJECT is certified when it carries a Farkas or Hermite-form certificate
and that certificate verifies against the system it refutes.  An ACCEPT is
re-validated from the original structures: marginal witnesses on freshly
enhanced structures, local-consistency families, free-structure
homomorphisms, classical homomorphisms, and Gram matrices (positive
semidefinite, and their vectors solve the defining equations).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import digraph_classes
from minionlab import (
    Assignment,
    CertificateKind,
    MinionLabError,
    check_vanishing,
    is_homomorphism,
    is_valid_bw_family,
    k_enhance,
    precedes,
    project,
    verify_farkas,
    verify_parity_certificate,
)
from minionlab.hierarchies import RejectionEvidence, validate_marginal_witness
from minionlab.verdicts import Status

EXPECTED_PATH = Path(__file__).with_name("expected.json")
GRAM_TOL = 1e-6  # the PSD solver accepts at residual 1e-8 on the reduced problem
PSD_TOL = 1e-9


def load_expected() -> dict:
    """Committed verdicts by query id; the sweep's are one letter per digraph class."""
    doc = json.loads(EXPECTED_PATH.read_text())
    out = dict(doc["fixed"])
    letters = {"a": "accept", "r": "reject"}
    classes = digraph_classes()
    for cell, row in doc["sweep"].items():
        head, target = cell.split(">")
        for mask, letter in zip(classes, row, strict=True):
            out[f"{head}:D{mask}>{target}"] = letters[letter]
    return out


@dataclass
class Check:
    ok: bool
    certified: bool = False
    farkas_s: float = 0.0
    parity_s: float = 0.0
    certificate_bytes: int = 0


def check_verdict(q, X, A, verdict) -> Check:
    """Re-verify a verdict's evidence without trusting the driver that made it."""
    if verdict.status is Status.REJECT_NUMERIC:
        return Check(True)
    if verdict.status is Status.REJECT:
        return _check_reject(verdict.certificate)
    try:
        return Check(_check_accept(q, X, A, verdict.witness))
    except (MinionLabError, KeyError):  # KeyError: a witness misses a vector or weight
        return Check(False)


def _check_reject(evidence) -> Check:
    if not isinstance(evidence, RejectionEvidence):
        return Check(True)  # bw, Horn, oracle and the PSD Inconsistent trace carry nothing to check
    cert = evidence.certificate
    size = len(cert.to_json())
    t0 = perf_counter()
    if cert.kind is CertificateKind.FARKAS:
        ok = verify_farkas(cert, evidence.system)
        return Check(ok, ok, farkas_s=perf_counter() - t0, certificate_bytes=size)
    ok = verify_parity_certificate(cert, evidence.system)
    return Check(ok, ok, parity_s=perf_counter() - t0, certificate_bytes=size)


def _check_accept(q, X, A, w) -> bool:
    if q.driver in ("sa", "aip"):
        validate_marginal_witness(w.values, k_enhance(X, q.k), k_enhance(A, q.k), q.k,
                                  integral=q.driver == "aip")
        return True
    if q.driver == "ba":
        Xk, Ak = k_enhance(X, q.k), k_enhance(A, q.k)
        validate_marginal_witness(w.lp.values, Xk, Ak, q.k)
        validate_marginal_witness(w.ip.values, Xk, Ak, q.k, integral=True)
        support = {key for key, v in w.lp.values.items() if v > 0}
        return all(v == 0 or key in support for key, v in w.ip.values.items())
    if q.driver == "bw":
        return is_valid_bw_family(w.maps, X, A, q.k)
    if q.driver == "minion-h":
        return check_vanishing(w, X, A, q.k)
    if q.driver == "oracle":
        return is_homomorphism(Assignment.of(w, total=True), X, A)
    gram_ok = w.gram.size == 0 or float(np.linalg.eigvalsh(w.gram)[0]) >= -PSD_TOL
    return gram_ok and gram_violation(q.driver, X, A, q.k, w.vectors) <= GRAM_TOL


def gram_violation(driver: str, X, A, k, vectors: dict) -> float:
    """Largest violation of the vector relaxation's defining equations.

    ``sdp`` has one vector per (variable, value) and per (constraint, tuple);
    ``sos`` has one per (scope, scope-respecting tuple) of the k-enhanced
    structures.  Vectors of one group are orthogonal; unit groups have
    squared norms summing to one; each identification is a vector equation.
    """
    unit_groups, orth_groups, idents = [], [], []
    if driver == "sdp":
        for x in X.domain:
            group = [("v", x, a) for a in A.domain]
            unit_groups.append(group)
            orth_groups.append(group)
        for sym, arity in X.signature.symbols:
            for xt in X.tuples(sym):
                orth_groups.append([("c", sym, xt, at) for at in A.tuples(sym)])
                for i, a in itertools.product(range(arity), A.domain):
                    idents.append([(("c", sym, xt, at), 1) for at in A.tuples(sym) if at[i] == a]
                                  + [(("v", xt[i], a), -1)])
    else:
        Xk, Ak = k_enhance(X, k), k_enhance(A, k)
        for sym, arity in Xk.signature.symbols:
            for xt in Xk.tuples(sym):
                good = [at for at in Ak.tuples(sym) if precedes(xt, at)]
                group = [("c", sym, xt, at) for at in good]
                unit_groups.append(group)
                orth_groups.append(group)
                for i in itertools.product(range(1, arity + 1), repeat=k):
                    xi = project(xt, i)
                    for b in itertools.product(Ak.domain, repeat=k):
                        row = [(("c", sym, xt, at), 1) for at in good if project(at, i) == b]
                        if precedes(xi, b):
                            row.append((("c", f"R_{k}", xi, b), -1))
                        idents.append(row)
    worst = 0.0
    for group in unit_groups:
        worst = max(worst, abs(sum(float(vectors[lab] @ vectors[lab]) for lab in group) - 1.0))
    for group in orth_groups:
        for u, w in itertools.combinations(group, 2):
            worst = max(worst, abs(float(vectors[u] @ vectors[w])))
    for row in idents:
        if row:
            total = sum(c * vectors[lab] for lab, c in row)
            worst = max(worst, float(np.max(np.abs(total))))
    return worst


# an ACCEPT of the value implies an ACCEPT of the key, at the same level
IMPLIED_BY = {"sa": ("ba",), "aip": ("ba",), "bw": ("sa",)}


def relation_violations(statuses: dict) -> list[str]:
    """Implications between verdicts of one run, keyed by query.

    Completeness: when ``oracle`` accepts (X, A), every relaxation accepts it.
    Containments at one level: ``ba`` => ``sa`` and ``aip``; ``sa`` => ``bw``.
    A ``reject-numeric`` verdict is never compared.
    """
    accepted = {(q.driver, q.k, q.x, q.a) for q, s in statuses.items() if s is Status.ACCEPT}
    out = []
    for q, s in statuses.items():
        if s is not Status.REJECT:
            continue
        if ("oracle", None, q.x, q.a) in accepted:
            out.append(f"{q.qid} rejects although oracle accepts")
        for stronger in IMPLIED_BY.get(q.driver, ()):
            if (stronger, q.k, q.x, q.a) in accepted:
                out.append(f"{q.qid} rejects although {stronger}^{q.k} accepts")
    return out
