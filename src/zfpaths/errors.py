"""Exception types shared across the package: one type per kind of fault."""


class ZfError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ZfError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InvalidVertexError(ZfError):
    """A vertex id or vertex count is out of range, or a vertex sequence
    repeats a vertex."""


class UnsupportedInputError(ZfError):
    """Input is valid but outside the operation's contract: above a size cap,
    a degree above 3, a forcing number out of range, isolated vertices for
    total forcing, or an unknown check name."""


class ContractError(ZfError):
    """A documented precondition was violated by the caller, such as chain
    extraction from an incomplete forcing run."""


class InternalLogicError(ZfError):
    """A condition the underlying theory rules out was observed, such as rows
    chosen by a construction that have no drawing; signals a bug."""


class NumericalFailureError(ZfError):
    """An iterative numerical routine failed to converge."""


class UsageError(ZfError):
    """Bad command-line arguments or conflicting options."""
