"""Exception hierarchy shared across the package, its one integer check
(:func:`check_integers`) and its one row budget (:data:`ROW_CAP`,
:func:`check_rows`)."""


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


def check_integers(names: str, *values) -> None:
    """Refuse the first of ``values`` that is not an ``int`` with
    :class:`PreconditionError` "<name> must be an integer: <repr>".

    ``names`` is space-separated, one name per value; the last name also
    covers any further values, so ``check_integers("m degree", m,
    *degrees)`` names each degree "degree".  The names are split only on
    failure, so a passing check costs one ``isinstance`` per value."""
    for value in values:
        if not isinstance(value, int):
            # By identity, not ==: 1.0 == 1 would name an earlier argument.
            index = next(i for i, v in enumerate(values) if v is value)
            name = names.split()[:index + 1][-1]
            raise PreconditionError(f"{name} must be an integer: {value!r}")


# Refuse tables, grids and ranges of more rows than this before any work:
# each row is one closed-form evaluation and one line of output.
ROW_CAP = 100_000


def check_rows(rows: int, what: str) -> None:
    """Refuse ``what``, a table, grid or range of ``rows`` rows, when it
    has more than :data:`ROW_CAP`; call it before computing any row."""
    if rows > ROW_CAP:
        raise DegreeCapError(f"{what} of {rows} rows exceeds the row cap "
                             f"{ROW_CAP}")
