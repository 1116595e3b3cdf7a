"""Exception taxonomy shared by all kronspin modules."""


class KronspinError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KronspinError, ValueError):
    """Operand dimensions do not match the operation's requirements."""


class SizingError(KronspinError, ValueError):
    """A result would exceed the representable / allocatable dense size."""


class CapacityError(KronspinError, ValueError):
    """Site count exceeds the dense cap; use the matrix-free engine instead."""


class SiteRangeError(KronspinError, ValueError):
    """A site or edge index lies outside [1, n_sites]."""


class SingularityError(KronspinError, ValueError):
    """A matrix to invert is singular: exactly, or with a reciprocal 1-norm
    condition number 1 / (||A||_1 ||A^-1||_1) below the inverse's threshold."""


class ContractError(KronspinError, ValueError):
    """An input violates a numerical precondition (e.g. non-Hermitian)."""


class ConvergenceError(KronspinError, RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the best estimates found so far in ``estimates`` (a list of
    ``(eigenvalue, residual)`` pairs, possibly empty).
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = list(estimates) if estimates is not None else []


class ParseError(KronspinError, ValueError):
    """Matrix text or spec file could not be parsed.

    ``line`` and ``column`` are 1-based positions of the offending token
    when known, else None.
    """

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.raw_message = message
        self.line = line
        self.column = column
