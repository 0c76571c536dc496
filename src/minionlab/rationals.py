"""Exact rational arithmetic used throughout the solvers.

Every rational value is a ``fractions.Fraction`` created through :func:`rat`.
Python ints mix safely with it: the system builder holds the ints its
callers pass, and converts them with :func:`rat` when a row leaves it, and
the exact Gram reduction keeps its values as ints while they are integral.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL_BACKEND = "fractions"


def rat(p=0, q=1):
    return Fraction(p, q)

R0 = rat(0)
R1 = rat(1)


def rat_to_str(x) -> str:
    """Render an exact rational as ``"p/q"`` (or ``"p"`` when integral)."""
    n, d = x.numerator, x.denominator
    return f"{n}/{d}" if d != 1 else str(n)


def is_integral(x) -> bool:
    return x.denominator == 1


def as_int(x) -> int:
    if x.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return int(x.numerator)
