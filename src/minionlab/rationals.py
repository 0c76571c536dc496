"""Exact rational arithmetic used throughout the solvers.

gmpy2's mpq is used when it is installed; fractions.Fraction is the fallback
so the package still imports without the C extension (the project has no
measurement of how much faster mpq is on the simplex paths).  Every
rational value is created through :func:`rat`, so the two rational types
never mix inside one computation.  Python ints mix safely with either type: the system builder
holds the ints its callers pass, and converts them with :func:`rat` when a
row leaves it.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _mpq

    RATIONAL_BACKEND = "fractions"


def rat(p=0, q=1):
    return _mpq(p, q)

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
