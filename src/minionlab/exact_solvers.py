"""Exact rational LP feasibility and integer linear feasibility.

Everything here is exact.  The simplex, with Bland's anti-cycling rule,
keeps each tableau row as arbitrary-precision ints over one positive
denominator and pivots fraction-free (Edmonds 1967); it builds a Fraction
only for the points and multipliers it returns.  Integer systems go
through a column echelon form H' = A U' built by Euclid's steps alone,
which keeps only H' and logs each column operation, and solves H' z = b
row by row as it goes, stopping at the first row that no integer clears;
the point x = U' z replays the log on z.  Only a rejection reduces the
rows up to the failing one to column Hermite form, which its certificate
reads (Cohen 1993, 2.4.2-2.4.3).  The systems the hierarchies pose are
tall, sparse and mostly +-1, so both solvers skip zero entries: a simplex
pivot leaves every row with a zero in the pivot column alone and
subtracts the pivot row's nonzero columns only, an echelon column
operation walks the source column's nonzeros, and the echelon form's
search in a row visits only the columns that an index of that row lists.
Every rejection carries one rational vector y, with one multiplier per
row, that a single sparse product checks:

- ``FARKAS``: y^T A <= 0 and y^T b > 0, so A x = b has no solution x >= 0
  (Farkas' lemma); a solution would give 0 < y^T b = (y^T A) x <= 0.
- ``PARITY``: y^T A is integral and y^T b is not, so A x = b has no integer
  solution (integer Farkas lemma, Schrijver 1986, Cor. 4.1a); a solution
  would make y^T b = (y^T A) x an integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm
from typing import Hashable, Optional, Sequence

from .budgets import DEFAULT_BUDGET, Budget
from .errors import InvalidWitness, IterationBudget, MalformedInput, WrongKind
from .rationals import R0, R1, RATIONAL_TYPES, is_integral, rat


class DomainTag(str, Enum):
    NONNEG_RAT = "nonneg-rat"
    INT = "int"


class CertificateKind(str, Enum):
    FARKAS = "farkas"
    PARITY = "parity"


@dataclass(frozen=True)
class LinearSystem:
    """An exact equality system A x = b with a variable-domain tag.

    Rows are stored sparsely as maps from column index to an exact int or
    Fraction coefficient; ``var_names`` fixes the column order.  Any other
    entry or right-hand side, a float say, is refused with ``MalformedInput``.
    """

    var_names: tuple[Hashable, ...]
    rows: tuple[dict, ...]
    rhs: tuple
    domain_tag: DomainTag

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise MalformedInput("row/rhs length mismatch")
        n = len(self.var_names)
        for row, b in zip(self.rows, self.rhs):
            if not isinstance(b, RATIONAL_TYPES):
                raise MalformedInput(f"right-hand side {b!r} is not an exact rational")
            for j, c in row.items():
                if not 0 <= j < n:
                    raise MalformedInput(f"column {j} outside 0..{n - 1}")
                if not isinstance(c, RATIONAL_TYPES):
                    raise MalformedInput(f"entry {c!r} in column {j} is not an exact rational")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def to_doc(self) -> dict:
        return {
            "domain": self.domain_tag.value,
            "vars": [str(v) for v in self.var_names],
            "rows": [
                {"coeffs": {str(j): str(c) for j, c in sorted(row.items())}, "rhs": str(b)}
                for row, b in zip(self.rows, self.rhs)
            ],
        }


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable refutation: one multiplier per row of the system."""

    kind: CertificateKind
    farkas: tuple = ()

    def to_doc(self) -> dict:
        return {"kind": self.kind.value, "y": [str(v) for v in self.farkas]}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)


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
    also provide the basis-inverse data needed for Farkas extraction.  Each
    row, and the objective, is a dense list of ints over its own positive
    denominator.  A row is loaded over the lcm of its
    entries' denominators, so the rationals it stands for, and with them
    every pivot, are those of a Fraction tableau.  A pivot on (p, c) leaves
    row p's ints as they are and makes its entry in column c its
    denominator; a row with a nonzero f in column c becomes
    ``r * T_pc - f * T_p`` over ``d * T_pc`` (Edmonds 1967), touching only
    the pivot row's nonzero columns in the subtraction, and is then divided
    by the gcd of its ints and its denominator.  Sign tests read the ints
    alone, and Bland's ratios are compared by cross-multiplying, in which a
    row's denominator cancels.  Fractions appear only in the points and
    multipliers the solver returns.
    """

    def __init__(self, sys: LinearSystem, budget: Budget = DEFAULT_BUDGET):
        self.n = sys.num_vars
        self.m = sys.num_rows
        self.budget = budget
        self.pivots = 0
        self.row_sign = []
        self.table: list[list[int]] = []
        self.den: list[int] = []
        width = self.n + self.m + 1
        for i, (row, b) in enumerate(zip(sys.rows, sys.rhs)):
            sign = 1 if b >= 0 else -1
            self.row_sign.append(sign)
            d = lcm(b.denominator, *(c.denominator for c in row.values()))
            dense = [0] * width
            for j, c in row.items():
                dense[j] = sign * c.numerator * (d // c.denominator)
            dense[self.n + i] = d
            dense[-1] = sign * b.numerator * (d // b.denominator)
            self.table.append(dense)
            self.den.append(d)
        self.basis = [self.n + i for i in range(self.m)]
        self.obj: list[int] = []
        self.obj_den = 1
        self.feasible: Optional[bool] = None
        self.live_rows = list(range(self.m))

    # - low-level pivoting -

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.budget.max_pivots:
            raise IterationBudget(f"simplex exceeded {self.budget.max_pivots} pivots")
        tab, den = self.table, self.den
        prow = tab[row]
        p = prow[col]
        if p < 0:
            prow = tab[row] = [-v for v in prow]
            p = -p
        den[row] = p
        nonzeros = [(j, v) for j, v in enumerate(prow) if v]
        for i in self.live_rows:
            if i == row:
                continue
            f = tab[i][col]
            if f:
                tab[i], den[i] = _eliminate(tab[i], den[i], f, p, nonzeros)
        f = self.obj[col]
        if f:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, f, p, nonzeros)
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
            best_row = -1
            for i in self.live_rows:
                r = self.table[i]
                a = r[enter]
                if a > 0:
                    if best_row >= 0:
                        # the ratio r[-1] / a against best_b / best_a, both a positive
                        diff = r[-1] * best_a - best_b * a
                        if diff > 0 or (diff == 0 and self.basis[i] > best_var):
                            continue
                    best_row, best_a, best_b, best_var = i, a, r[-1], self.basis[i]
            if best_row < 0:
                return False
            self._pivot(best_row, enter)

    # - phase 1 -

    def solve_phase1(self) -> bool:
        width = self.n + self.m + 1
        # minimize the sum of artificials: reduced costs under the artificial basis,
        # which are zero on the artificial columns themselves
        d = lcm(*self.den)
        obj = [0] * width
        for i in self.live_rows:
            scale = d // self.den[i]
            for j, v in enumerate(self.table[i]):
                if v and (j < self.n or j == width - 1):
                    obj[j] -= scale * v
        g = gcd(d, *obj)
        self.obj = [v // g for v in obj]
        self.obj_den = d // g
        bounded = self._run()
        assert bounded, "phase 1 objective is bounded below by zero"
        self.feasible = self.obj[-1] == 0
        if self.feasible:
            self._evict_artificials()
        return self.feasible

    def _evict_artificials(self) -> None:
        """Pivot artificials out of the basis; drop rows that are redundant."""
        for i in list(self.live_rows):
            if self.basis[i] >= self.n:
                target = -1
                for j in range(self.n):
                    if self.table[i][j] != 0:
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
        d = self.obj_den
        return tuple(sign * rat(d - self.obj[self.n + i], d)
                     for i, sign in enumerate(self.row_sign))

    def solution(self) -> dict:
        x = {}
        for i in self.live_rows:
            if self.basis[i] < self.n:
                x[self.basis[i]] = rat(self.table[i][-1], self.den[i])
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
        # maximize x_col == minimize -x_col
        self.obj, self.obj_den = [0] * width, 1
        self.obj[col] = -1
        for i in self.live_rows:
            if self.basis[i] == col:
                # restore zero reduced cost on the basic column
                self.obj, self.obj_den = list(self.table[i]), self.den[i]
                self.obj[col] = 0
                break
        bounded = self._run(col)
        if bounded:
            return self.solution()
        # ray step: find the entering column with improving reduced cost
        enter = next(j for j in range(self.n) if self.obj[j] < 0)
        point = self.solution()
        ray = {enter: R1}
        for i in self.live_rows:
            if self.basis[i] < self.n and self.table[i][enter] != 0:
                ray[self.basis[i]] = rat(-self.table[i][enter], self.den[i])
        moved = dict(point)
        for j, d in ray.items():
            moved[j] = moved.get(j, R0) + d
        return moved


def _eliminate(r: list, d: int, f: int, p: int, nonzeros: list) -> tuple[list, int]:
    """The row r/d minus f/d times the pivot row, whose ints ``nonzeros`` lie over p.

    Returns the result's ints and denominator, in lowest terms.
    """
    if p != 1:
        r = [v * p for v in r]
        d *= p
    for j, v in nonzeros:
        r[j] -= f * v
    if d != 1:
        g = gcd(d, *r)
        if g != 1:
            r = [v // g for v in r]
            d //= g
    return r, d


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
    combined = _combine(cert, sys, CertificateKind.FARKAS)
    if combined is None:
        return False
    yA, yb = combined
    return all(v <= 0 for v in yA) and yb > 0


def _combine(cert: Certificate, sys: LinearSystem, kind: CertificateKind):
    """The nonzero-column entries of y^T A and the value y^T b, in one sparse pass.

    None unless y has one exact rational entry per row: a float's rounding
    can make a feasible system look refuted.
    """
    if cert.kind is not kind:
        raise WrongKind(f"expected a {kind.value} certificate, got {cert.kind.value}")
    y = cert.farkas
    if len(y) != sys.num_rows or not all(isinstance(yi, RATIONAL_TYPES) for yi in y):
        return None
    cols: dict[int, object] = {}
    for yi, row in zip(y, sys.rows):
        if yi == 0:
            continue
        for j, c in row.items():
            cols[j] = cols.get(j, R0) + yi * c
    yb = sum((yi * b for yi, b in zip(y, sys.rhs)), R0)
    return cols.values(), yb


def validate_nonneg_point(sys: LinearSystem, point: dict) -> None:
    """Raise InvalidWitness unless the point solves Ax = b with x >= 0, exactly.

    Every entry must be an exact rational: a float's rounding can make a
    non-solution look like one.
    """
    for j, v in point.items():
        if not isinstance(v, RATIONAL_TYPES):
            raise InvalidWitness(f"entry {j} is {v!r}, not an exact rational")
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

    A variable belongs to the maximal support exactly when some feasible
    point makes it positive, so each column outside the support found so
    far is raised only until it is positive, not to its maximum; averaging
    those points produces one solution whose support is the whole union
    (supports only grow under convex combination of nonnegative solutions).
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
        for j, v in point.items():
            if v:
                acc[j] += v
        count += 1

    absorb(simplex.solution())
    for j in range(n):
        if acc[j] > 0:
            continue
        point = simplex.make_positive(j)
        if point.get(j, R0) > 0:
            absorb(point)
    support = {j for j in range(n) if acc[j] > 0}
    point = {j: acc[j] / count for j in range(n)}
    validate_nonneg_point(sys, point)
    return support, point, None, simplex.pivots


# -- integer systems via column echelon form -------------------------------------------


def _check_budget(log: list, budget: Budget) -> None:
    """Checked once a row's operations are logged: a row takes finitely many, and the
    count only grows, so this raises exactly when the whole solve would exceed
    ``max_pivots``."""
    if len(log) > budget.max_pivots:
        raise IterationBudget(f"echelon form exceeded {budget.max_pivots} column operations")


def _hnf(cols: list[dict], m: int, b: Sequence[int], budget: Budget) -> tuple:
    """Column echelon form H' = A U', U' unimodular, in place, by Euclid's steps alone,
    solving H' z = b row by row; returns the pivots (row, col), the log of column
    operations, the nonzero z_j, the first row whose residual no integer clears
    (-1 if none) and that residual.

    ``cols[j]`` holds the nonzero entries of column j of A, keyed by row
    0..m-1, and ends as column j of H'.  U' is never formed.  Each column
    operation is appended to the log instead: a swap of columns a and b as
    ``(a, b)``, a negation of column a as ``(a,)``, and adding q times column
    src to column dst as ``(dst, src, q)``.  U' is the product of those
    operations in log order, and ``_times_u`` applies it to a vector.  A
    per-row index holds the columns with a nonzero entry in each row, so the
    pivot search in a row visits only those columns.  An added multiple
    walks the source column's nonzeros, and updates the index where an
    entry appears or vanishes.

    In row i, Euclid's steps on the columns from c on leave one of them
    nonzero there, which becomes column c with a positive pivot.  Columns
    before c are final and have fixed their z_j, and no later column has an
    entry above row i, so row i's residual b_i - (H' z)_i is final: the
    pivot fixes z_c, or, with no pivot, the residual must be 0.  The form
    stops at the first row where neither holds.  Entries left of a pivot
    are left as they are: ``_reduce`` reduces them for a certificate.
    Column operations count against the budget.
    """
    in_row: list[set] = [set() for _ in range(m)]
    for j, col in enumerate(cols):
        for t in col:
            in_row[t].add(j)
    log: list[tuple] = []

    def col_swap(a: int, b: int) -> None:
        log.append((a, b))
        ca, cb = cols[a], cols[b]
        for t in ca:
            if t not in cb:
                in_row[t].remove(a)
                in_row[t].add(b)
        for t in cb:
            if t not in ca:
                in_row[t].remove(b)
                in_row[t].add(a)
        cols[a], cols[b] = cb, ca

    def col_negate(a: int) -> None:
        log.append((a,))
        col = cols[a]
        for t in col:
            col[t] = -col[t]

    def col_addmul(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        log.append((dst, src, q))
        d = cols[dst]
        for t, v in cols[src].items():
            w = d.get(t)
            if w is None:
                d[t] = q * v
                in_row[t].add(dst)
            else:
                w += q * v
                if w:
                    d[t] = w
                else:
                    del d[t]
                    in_row[t].remove(dst)

    pivots: list[tuple[int, int]] = []
    z: dict[int, int] = {}
    residual = list(b)
    c = 0
    for i in range(m):
        nz = sorted(j for j in in_row[i] if j >= c)
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            if cols[j0][i] < 0:
                col_negate(j0)
            h0 = cols[j0][i]
            for j in nz:
                if j != j0:
                    col_addmul(j, j0, -(cols[j][i] // h0))
            # j0 and the columns left with a remainder are all that stay nonzero in row i
            nz = [j for j in nz if i in cols[j]]
        acc = residual[i]
        if nz:
            if nz[0] != c:
                col_swap(c, nz[0])
            col = cols[c]
            if col[i] < 0:
                col_negate(c)
            _check_budget(log, budget)
            pivots.append((i, c))
            q, rem = divmod(acc, col[i])
            if rem:
                return pivots, log, z, i, acc
            if q:
                z[c] = q
                for t, h in col.items():
                    residual[t] -= h * q
            c += 1
        elif acc:
            return pivots, log, z, i, acc
    return pivots, log, z, -1, 0


def _reduce(cols: list[dict], pivots, r: int, log: list, budget: Budget) -> None:
    """Reduce the echelon form on rows 0..r to the column Hermite form H = A U, in place.

    For each pivot (i, c) with i <= r, in row order, adding q times column
    c to each column j < c brings the entry left of the pivot into
    [0, H[i][c]).  Column c is zero above row i, so only rows from i on
    change, and only the entries of rows up to r are written, which are all
    that ``_integer_farkas`` reads; with r = m - 1 this is the whole form.
    No such operation touches a column from c on, so each commutes with
    every later Euclid step of ``_hnf``: the result, and U, are those of
    the reduction done row by row between Euclid's steps.  Each operation
    is logged and counts against the budget.
    """
    for i, c in pivots:
        if i > r:
            break
        col = cols[c]
        h = col[i]
        part = [(t, v) for t, v in col.items() if t <= r]
        for j in range(c):
            d = cols[j]
            q = -(d.get(i, 0) // h)
            if q:
                log.append((j, c, q))
                for t, v in part:
                    w = d.get(t, 0) + q * v
                    if w:
                        d[t] = w
                    else:
                        del d[t]
        _check_budget(log, budget)


def _times_u(log: list[tuple], z: list[int]) -> list[int]:
    """U z for the U that ``_hnf`` (and ``_reduce``) logged, by replaying the log
    backwards on z.

    U is the product E_1 ... E_r of the logged column operations, so U z
    applies E_r first.  Each E acts on z as its operation acts on the
    columns, except that adding q times column src to column dst adds q
    times entry dst to entry src.
    """
    x = list(z)
    for op in reversed(log):
        if len(op) == 3:
            dst, src, q = op
            x[src] += q * x[dst]
        elif len(op) == 2:
            a, b = op
            x[a], x[b] = x[b], x[a]
        else:
            (a,) = op
            x[a] = -x[a]
    return x


def _integer_farkas(cols: list[dict], m: int, pivots, r: int, residual: int) -> tuple:
    """A y with y^T H = e_j or 0 and y^T b = residual / H[r][j] or 1/2.

    Substitution failed at row r, and H is in Hermite form on rows 0..r.
    If r pivots on column j, y_r = 1/H[r][j]; otherwise y_r = 1/(2 residual).
    Each earlier pivot (i, c), last first, then cancels column c of y^T H,
    reading only that column's nonzeros.
    """
    y = [R0] * m
    j = dict(pivots).get(r)
    y[r] = rat(1, cols[j][r]) if j is not None else rat(1, 2 * residual)
    for i, c in reversed([p for p in pivots if p[0] < r]):
        col = cols[c]
        acc = sum((y[t] * h for t, h in col.items() if i < t <= r and y[t] != 0), R0)
        y[i] = -acc / col[i]
    return tuple(y)


def diophantine_solve(sys: LinearSystem, budget: Budget = DEFAULT_BUDGET) -> SolveOutcome:
    """Integer feasibility of A x = b, with an integer Farkas vector on reject.

    With H' = A U' (U' unimodular) in column echelon form, x = U' z turns
    A x = b into H' z = b, which ``_hnf`` solves row by row as it builds H';
    x is found by replaying its log of column operations on z.  The Hermite
    form H = H' V reduces the entries left of each pivot, which makes it
    unique but changes no x, since U z = U' (V z); so an accept never
    reduces.  When substitution fails at row r, ``_reduce`` brings rows
    0..r into Hermite form, and then y^T A = y^T H U^{-1} is integral and
    y^T b is not; such a y exists exactly when no integer solution does
    (Schrijver 1986, Cor. 4.1a).  Column operations count against
    ``max_pivots``, and the outcome's ``pivots`` is their number: the
    Euclid steps up to the failing row, and on a reject the reductions up
    to it.  Entries must be integral (``MalformedInput`` otherwise) and are
    read as ints; an accepted point maps each column to an int.
    """
    if sys.domain_tag is not DomainTag.INT:
        raise WrongKind("diophantine_solve needs an integer system")
    n, m = sys.num_vars, sys.num_rows
    cols: list[dict] = [{} for _ in range(n)]
    b = []
    for i, (row, rhs) in enumerate(zip(sys.rows, sys.rhs)):
        if not is_integral(rhs):
            raise MalformedInput("integer systems need integer entries")
        for j, c in row.items():
            if not is_integral(c):
                raise MalformedInput("integer systems need integer entries")
            if c:
                cols[j][i] = int(c)
        b.append(int(rhs))
    pivots, log, z, r, residual = _hnf(cols, m, b, budget)
    if r < 0:
        x = _times_u(log, [z.get(j, 0) for j in range(n)])
        return SolveOutcome(True, point=dict(enumerate(x)), pivots=len(log))
    _reduce(cols, pivots, r, log, budget)
    y = _integer_farkas(cols, m, pivots, r, residual)
    cert = Certificate(CertificateKind.PARITY, farkas=y)
    return SolveOutcome(False, certificate=cert, pivots=len(log))


def verify_parity_certificate(cert: Certificate, sys: LinearSystem) -> bool:
    """Exact check that y^T A is integral and y^T b is not.

    Sound for any rational A: an integer x with A x = b would make
    y^T b = (y^T A) x an integer.
    """
    combined = _combine(cert, sys, CertificateKind.PARITY)
    if combined is None:
        return False
    yA, yb = combined
    return all(is_integral(v) for v in yA) and not is_integral(yb)
