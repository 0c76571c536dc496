"""Exact rational LP feasibility and integer linear feasibility.

Everything here is exact: the simplex runs on arbitrary-precision rationals
with Bland's anti-cycling rule, integer systems go through a column Hermite
normal form, and every rejection carries a machine-checkable certificate
(a Farkas vector, or the unimodular reduction exhibiting a forced
non-integer coordinate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Optional, Sequence

from .budgets import DEFAULT_BUDGET, Budget
from .errors import InvalidWitness, IterationBudget, MalformedInput, WrongKind
from .rationals import R0, R1, as_int, is_integral, rat, rat_from_str, rat_to_str


class DomainTag(str, Enum):
    NONNEG_RAT = "nonneg-rat"
    INT = "int"


class CertificateKind(str, Enum):
    FARKAS = "farkas"
    PARITY_HNF = "parity-hnf"
    NONE = "none"


@dataclass(frozen=True)
class LinearSystem:
    """An exact equality system A x = b with a variable-domain tag.

    Rows are stored sparsely as maps from column index to rational
    coefficient; ``var_names`` fixes the column order.
    """

    var_names: tuple[Hashable, ...]
    rows: tuple[dict, ...]
    rhs: tuple
    domain_tag: DomainTag

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise MalformedInput("row/rhs length mismatch")
        n = len(self.var_names)
        for row in self.rows:
            for j in row:
                if not 0 <= j < n:
                    raise MalformedInput(f"column {j} outside 0..{n - 1}")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def to_json(self) -> str:
        doc = {
            "domain": self.domain_tag.value,
            "vars": [str(v) for v in self.var_names],
            "rows": [
                {"coeffs": {str(j): rat_to_str(c) for j, c in sorted(row.items())},
                 "rhs": rat_to_str(b)}
                for row, b in zip(self.rows, self.rhs)
            ],
        }
        return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable refutation emitted by one of the solvers."""

    kind: CertificateKind
    farkas: tuple = ()
    hnf_h: tuple = ()
    hnf_u: tuple = ()
    hnf_w: tuple = ()
    fail_row: int = -1
    fail_kind: str = ""

    def to_json(self) -> str:
        doc: dict = {"kind": self.kind.value}
        if self.kind is CertificateKind.FARKAS:
            doc["y"] = [rat_to_str(v) for v in self.farkas]
        elif self.kind is CertificateKind.PARITY_HNF:
            doc["H"] = [list(r) for r in self.hnf_h]
            doc["U"] = [list(r) for r in self.hnf_u]
            doc["W"] = [list(r) for r in self.hnf_w]
            doc["fail_row"] = self.fail_row
            doc["fail_kind"] = self.fail_kind
        return json.dumps(doc, sort_keys=True)


@dataclass
class SolveOutcome:
    feasible: bool
    point: Optional[dict] = None
    certificate: Optional[Certificate] = None
    pivots: int = 0


# -- exact simplex ----------------------------------------------------------------


class ExactSimplex:
    """Phase-1/phase-2 tableau simplex over exact rationals, Bland's rule.

    The tableau keeps the artificial columns; after a successful phase 1 they
    also provide the basis-inverse data needed for Farkas extraction.
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
        piv = tab[row][col]
        inv = R1 / piv
        tab[row] = [v * inv for v in tab[row]]
        prow = tab[row]
        for i in self.live_rows:
            if i == row:
                continue
            f = tab[i][col]
            if f != R0:
                tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
        f = self.obj[col]
        if f != R0:
            self.obj = [v - f * p for v, p in zip(self.obj, prow)]
        self.basis[row] = col

    def _run(self, allowed: int) -> bool:
        """Bland iterations over the first ``allowed`` columns; False if unbounded."""
        while True:
            enter = -1
            for j in range(allowed):
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
        # minimize the sum of artificials: reduced costs under the artificial basis
        for i in self.live_rows:
            for j in range(width):
                if j < self.n or j == width - 1:
                    obj[j] -= self.table[i][j]
        for j in range(self.n, self.n + self.m):
            obj[j] = R0
        self.obj = obj
        bounded = self._run(self.n)
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

    def maximize(self, col: int) -> tuple[str, Optional[dict]]:
        """Maximize x_col over the feasible region; phase 1 must have succeeded.

        Returns ("optimal", point) or ("unbounded", feasible point moved one
        unit along an improving ray).
        """
        assert self.feasible
        width = self.n + self.m + 1
        obj = [R0] * width
        obj[col] = -R1  # maximize x_col == minimize -x_col
        for i in self.live_rows:
            if self.basis[i] == col:
                # restore zero reduced cost on the basic column
                obj = [v + p for v, p in zip(obj, self.table[i])]
                break
        self.obj = obj
        bounded = self._run(self.n)
        if bounded:
            return "optimal", self.solution()
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
        return "unbounded", moved


def lp_feasible(sys: LinearSystem, budget: Budget = DEFAULT_BUDGET) -> SolveOutcome:
    """Exact feasibility of ``A x = b, x >= 0`` with a Farkas certificate on reject."""
    if sys.domain_tag is not DomainTag.NONNEG_RAT:
        raise WrongKind("lp_feasible needs a nonneg-rational system")
    simplex = ExactSimplex(sys, budget)
    if simplex.solve_phase1():
        x = simplex.solution()
        point = {j: x.get(j, R0) for j in range(sys.num_vars)}
        return SolveOutcome(True, point=point, pivots=simplex.pivots)
    cert = Certificate(CertificateKind.FARKAS, farkas=simplex.farkas_vector())
    return SolveOutcome(False, certificate=cert, pivots=simplex.pivots)


def verify_farkas(cert: Certificate, sys: LinearSystem) -> bool:
    """Exact check that y^T A <= 0 componentwise and y^T b > 0."""
    if cert.kind is not CertificateKind.FARKAS:
        raise WrongKind(f"expected a farkas certificate, got {cert.kind.value}")
    y = cert.farkas
    if len(y) != sys.num_rows:
        return False
    cols: dict[int, object] = {}
    for yi, row in zip(y, sys.rows):
        if yi == 0:
            continue
        for j, c in row.items():
            cols[j] = cols.get(j, R0) + yi * c
    if any(v > 0 for v in cols.values()):
        return False
    yb = sum((yi * b for yi, b in zip(y, sys.rhs)), R0)
    return yb > 0


def validate_nonneg_point(sys: LinearSystem, point: dict) -> None:
    """Raise InvalidWitness unless the point solves Ax = b with x >= 0, exactly."""
    for j in range(sys.num_vars):
        if point.get(j, R0) < 0:
            raise InvalidWitness(f"variable {sys.var_names[j]} is negative")
    for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
        acc = sum((c * point.get(j, R0) for j, c in row.items()), R0)
        if acc != b:
            raise InvalidWitness(f"row {i} violated: {acc} != {b}")


def maximal_support(
    sys: LinearSystem, budget: Budget = DEFAULT_BUDGET
) -> tuple[Optional[set[int]], Optional[dict], Optional[Certificate], int]:
    """The union of supports over all feasible points, with a point attaining it.

    A variable belongs to the maximal support exactly when its maximum over
    the feasible region is positive; averaging the maximizers produces one
    solution whose support is the whole union (supports only grow under
    convex combination of nonnegative solutions).
    """
    if sys.domain_tag is not DomainTag.NONNEG_RAT:
        raise WrongKind("maximal_support needs a nonneg-rational system")
    simplex = ExactSimplex(sys, budget)
    if not simplex.solve_phase1():
        cert = Certificate(CertificateKind.FARKAS, farkas=simplex.farkas_vector())
        return None, None, cert, simplex.pivots
    n = sys.num_vars
    acc = {j: R0 for j in range(n)}
    count = 0

    def absorb(point: dict) -> None:
        nonlocal count
        for j in range(n):
            acc[j] += point.get(j, R0)
        count += 1

    absorb(simplex.solution())
    for j in range(n):
        if acc[j] > 0:
            continue
        status, point = simplex.maximize(j)
        if point.get(j, R0) > 0:
            absorb(point)
        del status
    support = {j for j in range(n) if acc[j] > 0}
    point = {j: acc[j] / count for j in range(n)}
    validate_nonneg_point(sys, point)
    return support, point, None, simplex.pivots


# -- integer systems via column Hermite normal form ---------------------------------


def hnf(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column Hermite normal form: H = A U with U unimodular.

    Pivot entries are positive, entries above a pivot vanish, and entries to
    the left of a pivot in its row are reduced modulo the pivot, which keeps
    coefficient growth under control.
    """
    H, U, _W, _pivots = _hnf_with_inverse(matrix)
    return H, U


def _hnf_with_inverse(matrix: Sequence[Sequence[int]]):
    H = [[int(v) for v in row] for row in matrix]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(a: int, b: int) -> None:
        for row in H:
            row[a], row[b] = row[b], row[a]
        for row in U:
            row[a], row[b] = row[b], row[a]
        W[a], W[b] = W[b], W[a]

    def col_negate(a: int) -> None:
        for row in H:
            row[a] = -row[a]
        for row in U:
            row[a] = -row[a]
        W[a] = [-v for v in W[a]]

    def col_addmul(dst: int, src: int, q: int) -> None:
        # col_dst += q * col_src; inverse tracking: row_src of W -= q * row_dst
        if q == 0:
            return
        for row in H:
            row[dst] += q * row[src]
        for row in U:
            row[dst] += q * row[src]
        W[src] = [a - q * b for a, b in zip(W[src], W[dst])]

    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        while True:
            nz = [j for j in range(c, n) if H[i][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != c:
                    col_swap(c, nz[0])
                break
            j0 = min(nz, key=lambda j: abs(H[i][j]))
            if H[i][j0] < 0:
                col_negate(j0)
            for j in nz:
                if j != j0:
                    col_addmul(j, j0, -(H[i][j] // H[i][j0]))
        if c < n and H[i][c] != 0:
            if H[i][c] < 0:
                col_negate(c)
            for j in range(c):
                col_addmul(j, c, -(H[i][j] // H[i][c]))
            pivots.append((i, c))
            c += 1
    return H, U, W, pivots


def echelon_pivots(H: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Pivot positions of a column-echelon matrix; raises if H is not echelon."""
    m = len(H)
    n = len(H[0]) if m else 0
    pivots = []
    last_row = -1
    for j in range(n):
        rows = [i for i in range(m) if H[i][j] != 0]
        if not rows:
            for j2 in range(j + 1, n):
                if any(H[i][j2] != 0 for i in range(m)):
                    raise InvalidWitness("zero column precedes a nonzero one")
            break
        top = rows[0]
        if top <= last_row:
            raise InvalidWitness("pivot rows are not strictly increasing")
        if H[top][j] <= 0:
            raise InvalidWitness("pivot entries must be positive")
        pivots.append((top, j))
        last_row = top
    return pivots


def _substitute(H: Sequence[Sequence[int]], b: Sequence[int], pivots) -> tuple[bool, list[int], int, str]:
    """Solve H y = b over the integers by forward substitution.

    Echelon structure makes the pivot coordinates forced, so failure of a
    divisibility or consistency check is decisive.
    """
    n = len(H[0]) if H else 0
    y = [0] * n
    pivot_of_row = {i: j for i, j in pivots}
    for i in range(len(H)):
        acc = b[i] - sum(H[i][j] * y[j] for j in range(n) if y[j] != 0 and H[i][j] != 0)
        j = pivot_of_row.get(i)
        if j is None:
            if acc != 0:
                return False, y, i, "inconsistent"
        else:
            q, r = divmod(acc, H[i][j])
            if r != 0:
                return False, y, i, "divisibility"
            y[j] = q
    return True, y, -1, ""


def diophantine_solve(sys: LinearSystem, budget: Budget = DEFAULT_BUDGET) -> SolveOutcome:
    """Integer feasibility of A x = b via Hermite normal form over big integers."""
    if sys.domain_tag is not DomainTag.INT:
        raise WrongKind("diophantine_solve needs an integer system")
    del budget
    n = sys.num_vars
    A = []
    b = []
    for row, rhs in zip(sys.rows, sys.rhs):
        if not is_integral(rhs) or any(not is_integral(c) for c in row.values()):
            raise MalformedInput("integer systems need integer entries")
        A.append([as_int(row.get(j, R0)) for j in range(n)])
        b.append(as_int(rhs))
    if not A:
        return SolveOutcome(True, point={j: R0 for j in range(n)})
    H, U, W, pivots = _hnf_with_inverse(A)
    ok, y, fail_row, fail_kind = _substitute(H, b, pivots)
    if ok:
        x = {j: rat(sum(U[j][t] * y[t] for t in range(n))) for j in range(n)}
        return SolveOutcome(True, point=x)
    cert = Certificate(
        CertificateKind.PARITY_HNF,
        hnf_h=tuple(tuple(r) for r in H),
        hnf_u=tuple(tuple(r) for r in U),
        hnf_w=tuple(tuple(r) for r in W),
        fail_row=fail_row,
        fail_kind=fail_kind,
    )
    return SolveOutcome(False, certificate=cert)


def verify_parity_certificate(cert: Certificate, sys: LinearSystem) -> bool:
    """Independent re-check of a Hermite-form infeasibility certificate.

    Checks that U is unimodular (U W = I over the integers), that H = A U,
    that H is column echelon, and that forward substitution fails exactly as
    claimed.
    """
    if cert.kind is not CertificateKind.PARITY_HNF:
        raise WrongKind(f"expected a parity-hnf certificate, got {cert.kind.value}")
    n = sys.num_vars
    A = []
    b = []
    for row, rhs in zip(sys.rows, sys.rhs):
        if not is_integral(rhs) or any(not is_integral(c) for c in row.values()):
            return False
        A.append([as_int(row.get(j, R0)) for j in range(n)])
        b.append(as_int(rhs))
    H = [list(r) for r in cert.hnf_h]
    U = [list(r) for r in cert.hnf_u]
    W = [list(r) for r in cert.hnf_w]
    if len(U) != n or any(len(r) != n for r in U) or len(W) != n:
        return False
    for i in range(n):
        for j in range(n):
            s = sum(U[i][t] * W[t][j] for t in range(n))
            if s != (1 if i == j else 0):
                return False
    if len(H) != len(A):
        return False
    for i in range(len(A)):
        for j in range(n):
            if H[i][j] != sum(A[i][t] * U[t][j] for t in range(n)):
                return False
    try:
        pivots = echelon_pivots(H)
    except InvalidWitness:
        return False
    ok, _y, fail_row, fail_kind = _substitute(H, b, pivots)
    return (not ok) and fail_row == cert.fail_row and fail_kind == cert.fail_kind


def validate_integer_point(sys: LinearSystem, point: dict) -> None:
    """Raise InvalidWitness unless the point is integral and solves Ax = b."""
    for j in range(sys.num_vars):
        if not is_integral(point.get(j, R0)):
            raise InvalidWitness(f"variable {sys.var_names[j]} is not an integer")
    for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
        acc = sum((c * point.get(j, R0) for j, c in row.items()), R0)
        if acc != b:
            raise InvalidWitness(f"row {i} violated: {acc} != {b}")


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    kind = CertificateKind(doc["kind"])
    if kind is CertificateKind.FARKAS:
        return Certificate(kind, farkas=tuple(rat_from_str(v) for v in doc["y"]))
    if kind is CertificateKind.PARITY_HNF:
        return Certificate(
            kind,
            hnf_h=tuple(tuple(r) for r in doc["H"]),
            hnf_u=tuple(tuple(r) for r in doc["U"]),
            hnf_w=tuple(tuple(r) for r in doc["W"]),
            fail_row=doc["fail_row"],
            fail_kind=doc["fail_kind"],
        )
    return Certificate(kind)
