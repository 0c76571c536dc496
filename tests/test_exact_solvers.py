"""Exact LP feasibility, Farkas certificates, the echelon form and the Hermite form
the tests reduce from it, integer systems."""

import json
import random

import pytest

from minionlab import (
    Certificate,
    CertificateKind,
    DomainTag,
    LinearSystem,
    diophantine_solve,
    lp_feasible,
    verify_farkas,
    verify_parity_certificate,
)
from minionlab.budgets import Budget
from minionlab.errors import InvalidWitness, IterationBudget, MalformedInput, WrongKind
from minionlab.exact_solvers import ExactSimplex, maximal_support, validate_nonneg_point
from minionlab.hierarchies import _support_system
from minionlab.rationals import rat

from references import (
    ReferenceSimplex,
    certificate_from_json,
    hnf,
    hnf_outputs,
    integer_outputs,
    is_column_hermite,
    logged_simplex,
    matmul,
    reference_diophantine_solve,
    reference_hnf_outputs,
    simplex_outputs,
    validate_integer_point,
)


def system(rows, rhs, nvars, domain=DomainTag.NONNEG_RAT):
    return LinearSystem(
        tuple(f"x{j}" for j in range(nvars)),
        tuple({j: rat(c) for j, c in row.items()} for row in rows),
        tuple(rat(b) for b in rhs),
        domain,
    )


# -- LP feasibility -----------------------------------------------------------------


def test_lp_simple_feasible():
    sys = system([{0: 1, 1: 1}], [1], 2)
    out = lp_feasible(sys)
    assert out.feasible
    validate_nonneg_point(sys, out.point)


def test_lp_inconsistent_pair_rejects_with_farkas():
    sys = system([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2], 2)
    out = lp_feasible(sys)
    assert not out.feasible
    assert out.certificate.kind is CertificateKind.FARKAS
    assert verify_farkas(out.certificate, sys)


def test_lp_negativity_requirement():
    # x0 = -1 with x >= 0 is infeasible
    sys = system([{0: 1}], [-1], 1)
    out = lp_feasible(sys)
    assert not out.feasible
    assert verify_farkas(out.certificate, sys)


def test_simplex_keeps_its_pivot_budget():
    sys = system([{0: 1}, {1: 1}], [1, 1], 2)
    assert lp_feasible(sys).pivots == 2
    with pytest.raises(IterationBudget):
        lp_feasible(sys, Budget(max_pivots=1))


@pytest.mark.parametrize("row, rhs, solution, point, message", [
    ({0: 1, 1: 1}, 1, {0: rat(1, 2), 1: rat(1, 2)}, {0: rat(2), 1: rat(-1)}, "negative"),
    ({0: 1, 1: 1}, 1, {0: rat(1, 2), 1: rat(1, 2)}, {0: rat(1, 2), 1: rat(1, 4)}, "violated"),
    # 1e16 + 1.0 rounds to 1e16, so in float the row would read 0 = 0
    ({0: 1, 1: 1, 2: -1}, 0, {0: 1, 1: 1, 2: 2}, {0: 1e16, 1: 1.0, 2: 1e16}, "exact rational"),
], ids=["negative-entry", "violated-row", "float-entry"])
def test_validate_nonneg_point_refuses_a_non_solution(row, rhs, solution, point, message):
    sys = system([row], [rhs], len(row))
    validate_nonneg_point(sys, solution)
    with pytest.raises(InvalidWitness, match=message):
        validate_nonneg_point(sys, point)


def test_verify_farkas_rejects_zero_vector():
    sys = system([{0: 1, 1: 1}], [1], 2)
    assert not verify_farkas(Certificate(CertificateKind.FARKAS, farkas=(rat(0),)), sys)


def test_verify_farkas_wrong_kind():
    sys = system([{0: 1}], [1], 1)
    with pytest.raises(WrongKind):
        verify_farkas(Certificate(CertificateKind.PARITY), sys)


def random_system(rng, domain=DomainTag.NONNEG_RAT, max_vars=6, max_rows=5):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    rows = []
    rhs = []
    for _ in range(m):
        rows.append({j: rng.randint(-3, 3) for j in rng.sample(range(n), rng.randint(1, n))})
        rhs.append(rng.randint(-4, 4))
    return system(rows, rhs, n, domain)


def test_lp_duality_completeness_random():
    rng = random.Random(2024)
    feasible = infeasible = 0
    for _ in range(200):
        sys = random_system(rng)
        out = lp_feasible(sys)
        if out.feasible:
            feasible += 1
            assert out.certificate is None
            validate_nonneg_point(sys, out.point)
        else:
            infeasible += 1
            assert out.point is None
            assert verify_farkas(out.certificate, sys)
    assert feasible > 20 and infeasible > 20


def test_lp_exactness_under_fractional_data():
    # pivots run on thirds and sevenths; the witness must satisfy rows exactly
    rows = [{0: rat(1, 3), 1: rat(2, 7), 2: 1}, {0: rat(5, 3), 1: rat(-1, 7)}]
    sys = system(rows, [1, rat(2, 21)], 3)
    out = lp_feasible(sys)
    assert out.feasible
    validate_nonneg_point(sys, out.point)


@pytest.mark.slow
def test_the_int_tableau_pivots_like_the_fraction_tableau_on_random_systems():
    # the systems of test_lp_duality_completeness_random: the same pivots, points,
    # Farkas vectors and maximal supports, with the same value types
    rng = random.Random(2024)
    for _ in range(200):
        sys = random_system(rng)
        for solve in (lp_feasible, maximal_support):
            assert simplex_outputs(ExactSimplex, solve, sys) == \
                simplex_outputs(ReferenceSimplex, solve, sys)


def test_an_artificial_evicted_on_a_negative_entry_leaves_a_valid_point():
    # phase 1 ends after one pivot with the second row's artificial basic at
    # zero; evicting it pivots on the -2 in column 2, which negates that row
    sys = system([{0: 1, 1: 1}, {2: -2, 3: -3}], [1, 0], 4)
    entries = []

    class Watched(ExactSimplex):
        def _pivot(self, row, col):
            entries.append(self.table[row][col])
            super()._pivot(row, col)

    with logged_simplex(Watched, []):
        out = lp_feasible(sys)
    assert entries == [1, -2]
    validate_nonneg_point(sys, out.point)
    assert simplex_outputs(ExactSimplex, lp_feasible, sys) == \
        simplex_outputs(ReferenceSimplex, lp_feasible, sys)


def test_a_farkas_vector_of_fraction_rows_refutes_the_rows_as_given():
    # the rows lie over the denominators 42, 70 and 105, and the third is
    # flipped to a positive right-hand side; 3/2 times the first row has the
    # second's left-hand side, but the right-hand side 3/4, not 3/5
    rows = [{0: rat(1, 3), 1: rat(2, 7)}, {0: rat(1, 2), 1: rat(3, 7)}, {1: rat(-1, 5)}]
    sys = LinearSystem(("x0", "x1"), tuple(rows), (rat(1, 2), rat(3, 5), rat(-1, 105)),
                       DomainTag.NONNEG_RAT)
    out = lp_feasible(sys)
    assert not out.feasible
    assert verify_farkas(out.certificate, sys)
    assert simplex_outputs(ExactSimplex, lp_feasible, sys) == \
        simplex_outputs(ReferenceSimplex, lp_feasible, sys)


def test_the_pivot_budget_runs_out_at_the_same_pivot():
    sys = sparse_system(random.Random(5), DomainTag.NONNEG_RAT)
    needed = lp_feasible(sys).pivots
    assert needed > 10
    assert lp_feasible(sys, Budget(max_pivots=needed)).pivots == needed
    logs = {}
    for simplex_class in (ExactSimplex, ReferenceSimplex):
        logs[simplex_class] = log = []
        with logged_simplex(simplex_class, log), pytest.raises(IterationBudget):
            lp_feasible(sys, Budget(max_pivots=needed - 1))
    # the last pivot is logged, then refused
    assert logs[ExactSimplex] == logs[ReferenceSimplex]
    assert len(logs[ExactSimplex]) == needed


def test_farkas_certificate_json_round_trip():
    sys = system([{0: 1}, {0: 1}], [1, 2], 1)
    out = lp_feasible(sys)
    again = certificate_from_json(out.certificate.to_json())
    assert verify_farkas(again, sys)


# -- maximal support ------------------------------------------------------------------


def test_maximal_support_union():
    # x0 + x1 = 1 admits points with either variable positive; x2 is forced to 0
    sys = system([{0: 1, 1: 1}, {2: 1}], [1, 0], 3)
    support, point, cert, _ = maximal_support(sys)
    assert cert is None
    assert support == {0, 1}
    assert point[0] > 0 and point[1] > 0 and point[2] == 0


def test_maximal_support_refuses_an_integer_system():
    with pytest.raises(WrongKind):
        maximal_support(system([{0: 1}], [1], 1, DomainTag.INT))


def test_maximal_support_detects_infeasible():
    sys = system([{0: 1}], [-2], 1)
    support, point, cert, _ = maximal_support(sys)
    assert support is None and point is None
    assert verify_farkas(cert, sys)


def test_maximal_support_matches_enumeration_on_small_systems():
    rng = random.Random(77)
    for _ in range(60):
        sys = random_system(rng, max_vars=4, max_rows=3)
        support, point, cert, _ = maximal_support(sys)
        if cert is not None:
            continue
        # reference: a variable is supportable iff the LP with that variable
        # bounded below by 1/1000 stays feasible (scaling keeps this exact
        # for rational polytopes that contain a positive point)
        for j in range(sys.num_vars):
            shifted_rows = []
            shifted_rhs = []
            eps = rat(1, 1000)
            for row, b in zip(sys.rows, sys.rhs):
                shifted_rows.append(dict(row))
                shifted_rhs.append(b - row.get(j, rat(0)) * eps)
            shifted = LinearSystem(sys.var_names, tuple(shifted_rows),
                                   tuple(shifted_rhs), sys.domain_tag)
            supportable = lp_feasible(shifted).feasible
            if j in support:
                assert point[j] > 0
            else:
                # maximizing found nothing positive; scaling any feasible
                # positive point down to eps would contradict that
                assert not supportable or point[j] == 0
                if supportable:
                    raise AssertionError("support missed a supportable variable")


def sparse_system(rng, domain, m=50, n=40):
    """m rows of 2-4 entries +-1 over n columns, like the marginal systems.

    The right-hand side is A x for a hidden 0/1 point x, with one entry
    raised by 1 in half the systems, so both outcomes occur.
    """
    x = [rng.randint(0, 1) for _ in range(n)]
    rows = [{j: rng.choice((-1, 1)) for j in rng.sample(range(n), rng.randint(2, 4))}
            for _ in range(m)]
    rhs = [sum(c * x[j] for j, c in row.items()) for row in rows]
    if rng.random() < 0.5:
        rhs[rng.randrange(m)] += 1
    return system(rows, rhs, n, domain)


def test_lp_on_sparse_unit_systems():
    rng = random.Random(5)
    outcomes = []
    for _ in range(20):
        sys = sparse_system(rng, DomainTag.NONNEG_RAT)
        out = lp_feasible(sys)
        if out.feasible:
            validate_nonneg_point(sys, out.point)
        else:
            assert verify_farkas(out.certificate, sys)
        outcomes.append(out.feasible)
    assert 5 <= sum(outcomes) <= 15


def test_integer_systems_on_sparse_unit_systems():
    rng = random.Random(5)
    outcomes = []
    for _ in range(30):
        sys = sparse_system(rng, DomainTag.INT)
        out = diophantine_solve(sys)
        if out.feasible:
            validate_integer_point(sys, out.point)
        else:
            assert verify_parity_certificate(out.certificate, sys)
        outcomes.append(out.feasible)
        A = [[int(row.get(j, 0)) for j in range(sys.num_vars)] for row in sys.rows]
        H, U = hnf(A)
        assert H == matmul(A, U)
        assert is_column_hermite(H)
    assert 8 <= sum(outcomes) <= 22


# -- Hermite normal form ------------------------------------------------------------------


def test_hnf_identity():
    H, U = hnf([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_gcd_column():
    H, U = hnf([[2, 4]])
    assert H == [[2, 0]]


def test_hnf_reconstruction_random():
    rng = random.Random(13)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U = hnf(A)
        assert H == matmul(A, U)
        assert is_column_hermite(H)


def test_hnf_idempotence():
    rng = random.Random(29)
    for _ in range(40):
        A = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        H, _ = hnf(A)
        H2, _ = hnf(H)
        assert H2 == H


@pytest.mark.slow
def test_the_hermite_form_matches_its_reference_on_random_matrices():
    # H, U, the pivots and the operation count of the whole form, then the point
    # or parity vector of the integer system each matrix poses, and its operation
    # count: the Euclid steps up to the failing row
    rng = random.Random(1986)
    feasible = 0
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        assert hnf_outputs(A) == reference_hnf_outputs(A)
        rows = [{j: rat(c) for j, c in enumerate(row) if c} for row in A]
        sys = system(rows, [rng.randint(-4, 4) for _ in range(m)], n, DomainTag.INT)
        out = integer_outputs(diophantine_solve, sys)
        assert out == integer_outputs(reference_diophantine_solve, sys)
        feasible += out[0]
    assert 40 < feasible < 160


def test_the_hermite_budget_runs_out_at_the_reference_count():
    sys = sparse_system(random.Random(5), DomainTag.INT)
    needed = reference_diophantine_solve(sys).pivots
    assert needed > 10
    assert diophantine_solve(sys, Budget(max_pivots=needed)).pivots == needed
    with pytest.raises(IterationBudget):
        diophantine_solve(sys, Budget(max_pivots=needed - 1))


def test_a_reject_stops_at_its_failing_row():
    # row 1 pivots on the 2 in column 1 and leaves 1 over, so the form stops
    # there after no operation; back substitution gives y = (-3/2, 1/2, 0) on the
    # unreduced 3 left of that pivot, which mod 1 is (1/2, 1/2, 0), and row 2,
    # where 6 and 10 would take Euclid's steps, is never read
    A = [[1, 0, 0, 0], [3, 2, 0, 0], [0, 0, 6, 10]]
    sys = system([{j: c for j, c in enumerate(row) if c} for row in A], [0, 1, 4], 4,
                 DomainTag.INT)
    out = diophantine_solve(sys, Budget(max_pivots=0))
    assert not out.feasible and out.pivots == 0
    assert out.certificate.farkas == (rat(1, 2), rat(1, 2), rat(0))
    assert verify_parity_certificate(out.certificate, sys)
    assert hnf_outputs(A)[3] > 3


def test_an_accept_logs_no_reduction():
    # the Hermite form of [[1, 0], [1, 1]] takes one operation, which clears the
    # 1 left of row 1's pivot; solving x0 = 1, x0 + x1 = 1 takes none
    sys = system([{0: 1}, {0: 1, 1: 1}], [1, 1], 2, DomainTag.INT)
    out = diophantine_solve(sys, Budget(max_pivots=0))
    assert out.feasible and out.pivots == 0
    assert out.point == {0: 1, 1: 0}
    assert hnf_outputs([[1, 0], [1, 1]])[3] == 1


# -- integer systems ------------------------------------------------------------------------


def test_parity_blocks_half():
    sys = system([{0: 2}], [1], 1, DomainTag.INT)
    out = diophantine_solve(sys)
    assert not out.feasible
    assert out.certificate.farkas == (rat(1, 2),)
    assert verify_parity_certificate(out.certificate, sys)


def test_simple_integer_feasible():
    sys = system([{0: 1, 1: 1}], [1], 2, DomainTag.INT)
    out = diophantine_solve(sys)
    assert out.feasible
    validate_integer_point(sys, out.point)


@pytest.mark.parametrize("row, rhs", [({0: rat(1, 2), 1: 1}, 1), ({0: 1, 1: 1}, rat(1, 2))],
                         ids=["coefficient", "rhs"])
def test_integer_systems_refuse_a_fractional_entry(row, rhs):
    # the solver reads entries with int(), which would truncate 1/2 to 0
    sys = LinearSystem(("x0", "x1"), (row,), (rhs,), DomainTag.INT)
    with pytest.raises(MalformedInput):
        diophantine_solve(sys)


@pytest.mark.parametrize("solve, domain, row, rhs", [
    (lp_feasible, DomainTag.NONNEG_RAT, {0: 0.1}, 0.3),
    (lp_feasible, DomainTag.NONNEG_RAT, {0: 1}, 0.5),
    (diophantine_solve, DomainTag.INT, {0: 0.5, 1: 1}, 1),
], ids=["lp-coefficient", "lp-rhs", "integer-coefficient"])
def test_a_float_entry_is_refused(solve, domain, row, rhs):
    # in floats 0.1 * 3 != 0.3, so the simplex would refute a system that x0 = 3
    # solves, with a Farkas vector that verify_farkas refuses
    with pytest.raises(MalformedInput, match="not an exact rational"):
        solve(LinearSystem(("x0", "x1"), (row,), (rhs,), domain))


def test_an_int_system_has_an_int_point():
    sys = LinearSystem(("x0", "x1", "x2"), ({0: 2, 1: -3}, {1: 1, 2: 1}), (1, 4), DomainTag.INT)
    out = diophantine_solve(sys)
    assert out.feasible
    assert all(type(v) is int for v in out.point.values())
    validate_integer_point(sys, out.point)


def test_an_int_system_with_no_rows_has_the_zero_point():
    # ba's support system drops a row left with no column; with every row
    # dropped, the echelon form logs nothing and the point is all int zeros
    restricted, cols = _support_system(system([{0: 1}], [0], 3), {1, 2})
    assert (cols, restricted.num_vars, restricted.num_rows) == ([1, 2], 2, 0)
    out = diophantine_solve(restricted)
    assert out.feasible and out.pivots == 0
    assert out.point == {0: 0, 1: 0} and all(type(v) is int for v in out.point.values())


def test_odd_cycle_sum_parity():
    # a+b = 1, b+c = 1, a+c = 1 forces 2(a+b+c) = 3
    sys = system([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [1, 1, 1], 3, DomainTag.INT)
    out = diophantine_solve(sys)
    assert not out.feasible
    assert verify_parity_certificate(out.certificate, sys)


def test_odd_cycle_keeps_its_budget():
    sys = system([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [1, 1, 1], 3, DomainTag.INT)
    with pytest.raises(IterationBudget):
        diophantine_solve(sys, Budget(max_pivots=1))


def test_inconsistent_pair_certificate_halves():
    sys = system([{0: 1}, {0: 1}], [1, 2], 1, DomainTag.INT)
    out = diophantine_solve(sys)
    assert not out.feasible
    y = out.certificate.farkas
    assert len(y) == 2
    assert sum(yi * b for yi, b in zip(y, sys.rhs)) % 1 == rat(1, 2)
    assert verify_parity_certificate(out.certificate, sys)


def test_tampered_parity_certificates_fail():
    sys = system([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [1, 1, 1], 3, DomainTag.INT)
    y = diophantine_solve(sys).certificate.farkas
    assert verify_parity_certificate(Certificate(CertificateKind.PARITY, farkas=y), sys)
    for bad in (
        (rat(0),) * 3,  # y^T b = 0 is an integer
        tuple(2 * v for v in y),  # doubles y^T b = 3/2 to 3
        y[:2],  # one multiplier short
        y + (rat(0),),  # one multiplier too many, though y^T A and y^T b are unchanged
        (rat(1, 4), rat(1, 4), rat(1, 4)),  # y^T A = (1/2, 1/2, 1/2)
    ):
        assert not verify_parity_certificate(Certificate(CertificateKind.PARITY, farkas=bad), sys)


def test_verify_parity_wrong_kind():
    sys = system([{0: 2}], [1], 1, DomainTag.INT)
    with pytest.raises(WrongKind):
        verify_parity_certificate(Certificate(CertificateKind.FARKAS, farkas=(rat(1, 2),)), sys)


def test_a_float_multiplier_refutes_nothing():
    # the system is feasible at (2, 1); in floats this y gives y^T A = 0 and
    # y^T b = 1, but exactly column 0 of y^T A is 1
    sys = system([{0: -1, 1: -1}, {0: 1, 1: 1}, {0: 1, 1: 1}], [-3, 3, 3], 2)
    assert lp_feasible(sys).feasible
    y = (1.0, 1.0000000000000002e16, -1e16)
    assert not verify_farkas(Certificate(CertificateKind.FARKAS, farkas=y), sys)
    parity = system([{0: 2}], [2], 1, DomainTag.INT)
    assert not verify_parity_certificate(Certificate(CertificateKind.PARITY, farkas=(0.25,)), parity)


@pytest.mark.parametrize("y", [None, 1], ids=["none", "int"])
def test_a_multiplier_vector_that_is_no_sequence_refutes_nothing(y):
    lp = system([{0: 1}], [-1], 1)
    assert not verify_farkas(Certificate(CertificateKind.FARKAS, farkas=y), lp)
    parity = system([{0: 2}], [1], 1, DomainTag.INT)
    assert not verify_parity_certificate(Certificate(CertificateKind.PARITY, farkas=y), parity)


def test_integer_negative_solutions_allowed():
    sys = system([{0: 1, 1: 3}], [1], 2, DomainTag.INT)
    out = diophantine_solve(sys)
    assert out.feasible
    validate_integer_point(sys, out.point)


def test_integer_duality_random():
    rng = random.Random(4096)
    feasible = infeasible = 0
    for _ in range(150):
        sys = random_system(rng, DomainTag.INT, max_vars=5, max_rows=4)
        out = diophantine_solve(sys)
        if out.feasible:
            feasible += 1
            validate_integer_point(sys, out.point)
        else:
            infeasible += 1
            assert verify_parity_certificate(out.certificate, sys)
    assert feasible > 20 and infeasible > 5


def test_integer_matches_brute_force_in_box():
    # exhaustive reference over a box; solver feasibility must not disagree
    # on systems whose solutions, if any, are forced into the box by bounds
    rng = random.Random(31)
    import itertools

    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [{j: rng.randint(-2, 2) for j in range(n)} for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        sys = system(rows, rhs, n, DomainTag.INT)
        out = diophantine_solve(sys)
        brute = False
        for point in itertools.product(range(-6, 7), repeat=n):
            if all(
                sum(row.get(j, rat(0)) * point[j] for j in range(n)) == b
                for row, b in zip(sys.rows, sys.rhs)
            ):
                brute = True
                break
        if brute:
            assert out.feasible
        # (solver feasible with solutions outside the box is consistent)


def test_parity_certificate_json_round_trip():
    sys = system([{0: 2}], [1], 1, DomainTag.INT)
    out = diophantine_solve(sys)
    again = certificate_from_json(out.certificate.to_json())
    assert verify_parity_certificate(again, sys)


def test_parity_certificate_json_holds_one_multiplier_per_row():
    sys = system([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [1, 1, 1], 3, DomainTag.INT)
    doc = json.loads(diophantine_solve(sys).certificate.to_json())
    assert set(doc) == {"kind", "y"}
    assert doc["kind"] == "parity" and len(doc["y"]) == sys.num_rows


# -- the support restriction of ba -----------------------------------------------------


def test_support_restriction_decides_the_integer_phase():
    # rows x0 - x1 + x2 = 0, -x0 + x1 + x3 = 0, 2 x0 + x2 = 1: adding the first
    # two gives x2 + x3 = 0, so x2 = x3 = 0 in every nonnegative solution
    rows = [{0: 1, 1: -1, 2: 1}, {0: -1, 1: 1, 3: 1}, {0: 2, 2: 1}]
    sys = system(rows, [0, 0, 1], 4)
    support, _point, cert, _ = maximal_support(sys)
    assert cert is None and support == {0, 1}
    restricted, cols = _support_system(sys, support)
    assert cols == [0, 1]
    out = diophantine_solve(restricted)
    assert not out.feasible
    assert out.certificate.farkas == (rat(0), rat(0), rat(1, 2))
    assert verify_parity_certificate(out.certificate, restricted)
    # over all four columns x = (1, 0, -1, 1) is an integer solution
    unrestricted = system(rows, [0, 0, 1], 4, DomainTag.INT)
    out = diophantine_solve(unrestricted)
    assert out.feasible
    validate_integer_point(unrestricted, out.point)
    validate_integer_point(unrestricted, {0: rat(1), 1: rat(0), 2: rat(-1), 3: rat(1)})
