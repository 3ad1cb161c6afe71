"""Exception types shared across the toolkit."""


class LreckitError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(LreckitError):
    pass


class ArityMismatch(LreckitError):
    pass


class IdOutOfRange(LreckitError):
    pass


class NotRooted(LreckitError):
    pass


class NotAcyclic(LreckitError):
    pass


class UnboundVariable(LreckitError):
    pass


class UnknownSymbol(LreckitError):
    pass


class ComponentOutOfRange(LreckitError):
    pass


class SizeExceeded(LreckitError):
    pass


class NonPositiveResource(LreckitError):
    pass


class RangeViolation(LreckitError):
    pass


class PreconditionViolated(LreckitError):
    pass


class IsLeaf(LreckitError):
    pass


class InternalLemmaViolation(LreckitError):
    """A constructive lemma failed to produce a valid witness; signals a bug."""


class UnsupportedDimension(LreckitError):
    pass


class SizeMismatch(LreckitError):
    pass


class NotInterval(LreckitError):
    pass


class NotAMaxclique(LreckitError):
    pass


class NestedLrec(LreckitError):
    pass


class TupleWidthUnsupported(LreckitError):
    pass
