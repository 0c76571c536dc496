"""Size budgets guarding the exponential constructions.

Enhancement, tensor powers and partial-map enumerations all grow
exponentially in the level k, so every construction checks against a budget
and fails fast with :class:`~minionlab.errors.BudgetExceeded` instead of
thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Budget:
    """Caps on one run.

    ``max_tuples`` bounds the size of each exponential construction.
    ``max_pivots`` bounds each exact solve: it counts the simplex pivots of
    an LP and the echelon column operations of an integer system, and a
    solve that would exceed it raises ``IterationBudget``.
    """

    max_tuples: int = 100_000
    max_pivots: int = 1_000_000

    def check_tuples(self, n: int, what: str = "relation") -> None:
        if n > self.max_tuples:
            raise BudgetExceeded(f"{what} needs {n} tuples, budget is {self.max_tuples}")


DEFAULT_BUDGET = Budget()
