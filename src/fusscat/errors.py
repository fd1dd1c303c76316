"""Exception types shared across the package."""


class FusscatError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(FusscatError):
    """Operand or leaf count incompatible with the arity m.

    Carries an optional 0-based character offset when raised by the
    expression parser.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = "%s (offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class ParseError(FusscatError):
    """Malformed expression text; offset is 0-based into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


class FormatError(FusscatError):
    """Malformed Dyck path data: bad text, bad entries, or a path that
    violates the lattice-path invariants."""


class SiteError(FusscatError):
    """A rotation or compression was requested at a position where the
    required pattern does not occur."""


class SizeError(FusscatError):
    """Two objects that must have matching size (tuple length or leaf
    count) do not."""


class DomainError(FusscatError):
    """An argument lies outside the declared domain of an operation."""


class BudgetError(FusscatError):
    """An enumeration would exceed the configured object budget, or a
    closed formula its fixed work limit (formula.FORMULA_WORK_LIMIT)."""


class InternalInvariantError(FusscatError):
    """A quantity that is provably integral or well-formed failed its
    runtime check; indicates a bug, not bad input."""
