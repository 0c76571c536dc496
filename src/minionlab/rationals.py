"""Exact rational arithmetic used throughout the solvers.

A rational value is a Python int or a ``fractions.Fraction`` created
through :func:`rat`, and the two mix safely.  The linear systems carry the
ints their callers pass, the exact Gram reduction keeps its values as ints
while they are integral, and the simplex tableau holds ints over per-row
denominators.  A Fraction appears where a division needs one: in the
solvers' points and certificate vectors, and in the Gram reduction once a
value is no longer integral.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL_BACKEND = "fractions"
RATIONAL_TYPES = (int, Fraction)


def rat(p=0, q=1):
    return Fraction(p, q)

R0 = rat(0)
R1 = rat(1)


def is_integral(x) -> bool:
    return x.denominator == 1

