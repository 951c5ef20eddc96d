"""Exception types shared across the package."""


class ImaError(Exception):
    """Base class for all errors raised by this package."""


class NotComposable(ImaError):
    """Permutation symbols whose block strings do not line up."""


class RankMismatch(ImaError):
    """An operation was applied to a value of the wrong rank word."""


class RankError(ImaError):
    """A term does not rank-check; carries the offending subterm."""

    def __init__(self, message, subterm=None):
        super().__init__(message)
        self.subterm = subterm


class UnknownSymbol(ImaError):
    """A symbol name that is not declared in the ranked alphabet."""


class MissingSymbol(ImaError):
    """An interpretation does not cover a symbol used by a term."""


class ParseError(ImaError):
    """Concrete-syntax error; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class InvalidArity(ImaError):
    """Switch arity below 1."""


class InvalidSpec(ImaError):
    """Malformed Turing machine description."""


class IllFormedConfig(ImaError):
    """A machine configuration violating its well-formedness invariants."""


class BadLabel(ImaError):
    """A vertex label that the pre-soliton construction cannot interpret."""


class NotInternalEdge(ImaError):
    """Edge-sign queries are only defined on internal edges."""


class TooManyStates(ImaError):
    """A machine with more global states than ``dflow.MAX_STATES``."""
