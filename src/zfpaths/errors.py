"""Exception types shared across the package."""


class ZfError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ZfError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedSizeError(ZfError):
    """Input exceeds a documented size cap."""


class InvalidVertexError(ZfError):
    """A vertex id is outside 0..n-1."""


class InvalidSequenceError(ZfError):
    """A vertex sequence violates its contract (e.g. repeated vertex)."""


class NotForcingSetError(ZfError):
    """Operation requires a complete forcing run."""


class UnsupportedInputError(ZfError):
    """Input is valid but outside the operation's contract."""


class IsolatedVertexError(UnsupportedInputError):
    """Total forcing is undefined for graphs with isolated vertices."""


class ContractError(ZfError):
    """A documented precondition was violated by the caller."""


class InternalLogicError(ZfError):
    """A condition the underlying theory rules out was observed; signals a bug."""


class DrawingConstructionError(ZfError):
    """The rows a construction chose have no drawing: no x coordinates verify."""


class NumericalFailureError(ZfError):
    """An iterative numerical routine failed to converge."""


class UsageError(ZfError):
    """Bad command-line arguments or conflicting options."""
