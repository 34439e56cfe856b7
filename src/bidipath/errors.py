"""Exception types shared across the package."""


class BidipathError(Exception):
    """Base class for all errors raised by this package."""


class LoopRejected(BidipathError):
    """An edge with identical endpoints was supplied; loops are not allowed."""


class UnknownVertex(BidipathError):
    """A vertex id or name does not exist in the host graph."""


class DuplicateVertex(BidipathError):
    """A vertex name was declared twice in an instance file."""


class GraphFrozen(BidipathError):
    """Mutation was attempted on a graph after freeze()."""


class SideConditionViolated(BidipathError):
    """The pair (S, T) does not satisfy X ∩ S = X ∩ T."""


class InvalidParameter(BidipathError):
    """A generator or CLI parameter is malformed or out of range."""


class LimitExceeded(BidipathError):
    """A brute-force routine hit its instance-size or output-count guard."""


class ParseError(BidipathError):
    """An instance file is syntactically invalid; carries a 1-based location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InternalDualityMismatch(BidipathError):
    """An answer failed its own check: the packing, the translated dual
    certificate or the hitting set.

    This is an internal assertion; it firing indicates a bug, never bad input.
    """
