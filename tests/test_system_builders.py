"""The presolve of the equality-system builder: duplicate rows, pins and merges."""

import pytest

from minionlab.errors import MalformedInput
from minionlab.exact_solvers import DomainTag, lp_feasible, verify_farkas
from minionlab.rationals import rat
from minionlab.system_builders import EqualitySystemBuilder

from references import ReferenceSystemBuilder


def build(domain, *rows):
    """Presolve rows over named keys, numbered in the order the rows first name them."""
    index: dict = {}
    for coeffs, _ in rows:
        for key in coeffs:
            index.setdefault(key, len(index))
    builder = EqualitySystemBuilder(domain, tuple(index))
    for coeffs, rhs in rows:
        builder.rows.append(({index[key]: c for key, c in coeffs.items()}, rhs))
    return builder.build()


def test_parallel_rows_with_different_rhs_both_stay():
    presolved = build(DomainTag.NONNEG_RAT, ({"x": 1, "y": 1}, 1), ({"x": 2, "y": 2}, 4))
    system = presolved.system
    assert system.num_rows == 2
    outcome = lp_feasible(system)
    assert not outcome.feasible
    assert verify_farkas(outcome.certificate, system)


def test_zero_sum_pins_only_nonnegative_variables():
    nonneg = build(DomainTag.NONNEG_RAT, ({"x": 1, "y": 1}, 0))
    assert nonneg.system.num_vars == 0 and nonneg.system.num_rows == 0
    assert nonneg.expand({}) == {}  # both pinned, so both zero
    integer = build(DomainTag.INT, ({"x": 1, "y": 1}, 0))
    assert integer.system.num_vars == 2 and integer.system.num_rows == 1
    assert integer.system.rows == ({0: 1, 1: 1},)


def test_difference_row_merges_and_expand_repeats_the_value():
    presolved = build(DomainTag.NONNEG_RAT, ({"x": 1, "y": -1}, 0), ({"y": 1, "z": 1}, 1))
    system = presolved.system
    assert presolved.columns == [0, 0, 1]  # x and y share x's column
    assert system.var_names == ("x", "z")
    assert system.rows == ({0: 1, 1: 1},) and system.rhs == (1,)
    values = presolved.expand({0: rat(1, 3), 1: rat(2, 3)})
    assert values == {"x": rat(1, 3), "y": rat(1, 3), "z": rat(2, 3)}


@pytest.mark.parametrize("difference", [{"x": 1, "y": -1}, {"y": -1, "x": 1}],
                         ids=["later-key-first", "earlier-key-first"])
def test_a_merge_keeps_the_key_registered_first(difference):
    presolved = build(DomainTag.NONNEG_RAT, ({"y": 1, "z": 1}, 1), (difference, 0))
    assert presolved.columns == [0, 1, 0]  # x, registered last, takes y's column
    assert presolved.system.var_names == ("y", "z")


def test_scaled_copy_of_a_row_collapses():
    presolved = build(DomainTag.NONNEG_RAT, ({"x": 1, "z": 1}, 1), ({"x": 2, "z": 2}, 2))
    system = presolved.system
    assert system.rows == ({0: 1, 1: 1},) and system.rhs == (1,)
    assert system.var_names == ("x", "z")


def test_a_zero_coefficient_still_registers_its_key():
    presolved = build(DomainTag.NONNEG_RAT, ({"x": 1, "y": 0, "z": 1}, 1))
    assert presolved.key_order == ("x", "y", "z")
    assert presolved.system.var_names == ("x", "z")
    assert presolved.expand({0: rat(1, 2), 1: rat(1, 2)}).get("y", 0) == 0


def test_build_leaves_the_callers_rows_unchanged():
    rows = [({"x": 1, "y": -1}, 0), ({"x": 1, "y": 1, "z": 0}, 2), ({"y": 2, "z": 2}, 4)]
    copies = [(dict(coeffs), rhs) for coeffs, rhs in rows]
    build(DomainTag.NONNEG_RAT, *rows)
    assert rows == copies


def test_int_rows_leave_the_builder_as_ints():
    # 1 == Fraction(1), so only the types tell the emitted numbers apart
    system = build(DomainTag.INT, ({"x": 1, "y": 1}, 1), ({"y": 2, "z": -1}, 3)).system
    assert system.rows == ({0: 1, 1: 1}, {1: 2, 2: -1}) and system.rhs == (1, 3)
    assert all(type(c) is int for row in system.rows for c in row.values())
    assert all(type(b) is int for b in system.rhs)


@pytest.mark.parametrize("lead", [-1, 2, rat(2, 3)], ids=["minus-one", "two", "fraction"])
@pytest.mark.parametrize("unit_first", [True, False], ids=["unit-first", "scaled-first"])
def test_a_scaled_copy_collapses_into_the_row_seen_first(lead, unit_first):
    # each row is keyed by its primitive int vector, whose x entry is positive;
    # the keys must meet, and the first row seen is kept
    unit = ({"x": 1, "y": 2}, 3)
    scaled = ({"x": lead, "y": 2 * lead}, 3 * lead)
    first = unit if unit_first else scaled
    rows = (unit, scaled) if unit_first else (scaled, unit)
    system = build(DomainTag.NONNEG_RAT, *rows).system
    assert system.var_names == ("x", "y")
    assert system.rows == ({0: first[0]["x"], 1: first[0]["y"]},) and system.rhs == (first[1],)
    assert [type(c) for c in system.rows[0].values()] == [type(c) for c in first[0].values()]


@pytest.mark.parametrize("domain", list(DomainTag), ids=[tag.value for tag in DomainTag])
@pytest.mark.parametrize("int_first", [True, False], ids=["int-first", "fraction-first"])
def test_an_int_row_led_by_two_and_a_fraction_multiple_collapse(domain, int_first):
    # neither row is led by +-1, and the 2/3 multiple mixes Fractions with
    # denominators 3 and 1; both key as the primitive vector (2, 3, -1 | 5)
    ints = ({"x": 2, "y": 3, "z": -1}, 5)
    fractions = ({key: rat(2, 3) * c for key, c in ints[0].items()}, rat(2, 3) * ints[1])
    first, second = (ints, fractions) if int_first else (fractions, ints)
    system = build(domain, first, second).system
    assert system.var_names == ("x", "y", "z")
    assert system.rows == ({0: first[0]["x"], 1: first[0]["y"], 2: first[0]["z"]},)
    assert system.rhs == (first[1],)
    assert [type(c) for c in system.rows[0].values()] == [type(c) for c in first[0].values()]


@pytest.mark.parametrize("lead", [-1, 2, rat(2, 3)], ids=["minus-one", "two", "fraction"])
def test_a_copy_written_in_another_order_collapses(lead):
    # the key scales a row by the coefficient of its lowest index, x, though
    # the copy writes its y term first
    unit = ({"x": 1, "y": 2}, 3)
    scaled = ({"y": 2 * lead, "x": lead}, 3 * lead)
    system = build(DomainTag.NONNEG_RAT, unit, scaled).system
    assert system.var_names == ("x", "y")
    assert system.rows == ({0: 1, 1: 2},) and system.rhs == (3,)


@pytest.mark.parametrize("row", [{"x": 1, "y": 0.5}, {"x": 0.5, "y": 1}],
                         ids=["int-lead", "float-lead"])
def test_a_float_entry_is_refused_as_malformed_input(row):
    # the duplicate key reads a float as the exact rational it stores, so the
    # emitted system's own check refuses it, whichever entry leads the row
    with pytest.raises(MalformedInput, match="not an exact rational"):
        build(DomainTag.NONNEG_RAT, (row, 1))


# one- and two-term rows with right-hand side 0 on free, pinned and merged
# roots, and the longer rows they leave behind
PINS_AND_MERGES = [
    ({"u": 0}, 0),  # a zero coefficient: a tautology
    ({"x": 3}, 0),  # pins x
    ({"x": 1, "y": -1}, 0),  # x is pinned, so y is
    ({"y": 2, "x": -2}, 0),  # both pinned: a tautology
    ({"w": 1, "z": -1}, 0),  # merges z into w
    ({"z": 5, "w": -5}, 0),  # one root: a tautology
    ({"a": 1, "b": -1}, 0), ({"b": -1}, 0), ({"a": 1, "c": -1}, 0),  # merge, pin, pin
    ({"v": 1, "w": 1, "y": 1}, 1), ({"t": 1, "z": 1, "c": 1}, 1), ({"t": 1, "v": 1}, 0),
    ({"s": 1, "t": 1}, 0), ({"s": 2, "u": 1}, 0),
]


@pytest.mark.parametrize("domain", list(DomainTag), ids=[tag.value for tag in DomainTag])
def test_pins_and_merges_as_written_presolve_like_the_reference(domain):
    reference = ReferenceSystemBuilder(domain)
    for coeffs, rhs in PINS_AND_MERGES:
        reference.add_row(coeffs, rhs)
    expected = reference.build()
    presolved = build(domain, *PINS_AND_MERGES)
    assert presolved.system == expected.system
    assert [type(c) for row in presolved.system.rows for c in row.values()] == \
        [type(c) for row in expected.system.rows for c in row.values()]
    assert (presolved.key_order, presolved.columns) == (expected.key_order, expected.columns)


@pytest.mark.parametrize("domain", list(DomainTag), ids=[tag.value for tag in DomainTag])
@pytest.mark.parametrize("order", [1, -1], ids=["in-order", "reversed"])
def test_pins_and_merges_stated_directly_presolve_like_the_same_rows(domain, order):
    # each one-term row with a nonzero coefficient becomes a pin and each
    # two-term difference a merge, stated in the rows' order or reversed
    index: dict = {}
    for coeffs, _ in PINS_AND_MERGES:
        for key in coeffs:
            index.setdefault(key, len(index))
    builder = EqualitySystemBuilder(domain, tuple(index))
    stated = []
    for coeffs, rhs in PINS_AND_MERGES:
        ids = {index[key]: c for key, c in coeffs.items()}
        (first, c), *rest = ids.items()
        if rhs == 0 and c and not rest:
            stated.append((builder.pins.append, first))
        elif rhs == 0 and c and len(rest) == 1 and rest[0][1] == -c:
            stated.append((builder.merges.append, (first, rest[0][0])))
        else:
            builder.rows.append((ids, rhs))
    assert len(stated) == 8
    for state, *args in stated[::order]:
        state(*args)
    presolved = builder.build()
    expected = build(domain, *PINS_AND_MERGES)
    assert presolved.system == expected.system
    point = {j: j + 1 for j in range(expected.system.num_vars)}
    assert presolved.expand(point) == expected.expand(point)
