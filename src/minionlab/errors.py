"""Exception types shared across the package."""


class MinionLabError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(MinionLabError):
    """Input document is not valid JSON or misses required fields."""


class ArityMismatch(MinionLabError):
    """A tuple length does not match the declared arity."""


class UnknownAtom(MinionLabError):
    """A relation tuple mentions an atom outside the domain."""


class SignatureMismatch(MinionLabError):
    """Two structures that must share a signature do not."""


class SymbolClash(MinionLabError):
    """A reserved enhancement symbol exists with a conflicting interpretation."""


class BudgetExceeded(MinionLabError):
    """A construction would exceed the configured size budget."""


class IndexOutOfRange(MinionLabError):
    """A 1-based tuple position lies outside the tuple."""


class LengthMismatch(MinionLabError):
    """Two tuples that must have equal length do not."""


class NotAHomomorphism(MinionLabError):
    """A claimed homomorphism witness fails verification."""


class InvalidWitness(MinionLabError):
    """A solver witness fails its defining equations."""


class WrongKind(MinionLabError):
    """A certificate of the wrong kind was passed to a verifier."""


class IterationBudget(MinionLabError):
    """An iterative solver exceeded its pivot/iteration budget."""
