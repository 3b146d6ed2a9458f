"""Exception types shared across the package."""


class HardyOpError(Exception):
    """Base class for all package errors."""


class ParseError(HardyOpError):
    """Raised on malformed symbol DSL input; carries the offending position."""

    def __init__(self, message: str, pos: int, text: str | None = None):
        self.pos = pos
        self.text = text
        loc = f" at position {pos}"
        if text is not None:
            loc += f" in {text!r}"
        super().__init__(message + loc)


class UnitDiskPoleError(HardyOpError):
    """Denominator vanishes somewhere on the closed unit disk."""


class NotSelfmapError(HardyOpError):
    """An operation required a validated selfmap of the disk."""


class DegreeCapError(HardyOpError):
    """Rational degree exceeded the cap symbolic.MAX_DEGREE (4096)."""


class ConvergenceError(HardyOpError):
    """An iterative solve failed to converge within its budget."""


class BracketError(HardyOpError):
    """A root bracket for the exponent solve could not be established."""


class InconsistencyError(HardyOpError):
    """Computed quantities violate a guaranteed a-priori bound."""


class PreconditionError(HardyOpError):
    """Caller-supplied input does not satisfy an operation's contract."""


class SolverInternalError(HardyOpError):
    """An internal certificate failed (signals a solver bug, not bad input)."""
