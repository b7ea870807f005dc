"""Exception hierarchy shared across the package."""


class DiagalgError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(DiagalgError):
    """An operation was called outside its documented preconditions."""


class RingContextError(PreconditionError):
    """Operands live in different polynomial ring contexts."""


class DegreeCapError(PreconditionError):
    """A computation would form more monomials than the safety cap."""


class UnsupportedModeError(PreconditionError):
    """The input object does not carry the data this computation needs."""


class PolyParseError(PreconditionError):
    """Malformed polynomial text.  ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class InternalDefectError(DiagalgError):
    """An internal consistency check failed; indicates a bug, not bad input."""
