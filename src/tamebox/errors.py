"""Exception types shared across the library.

Every failure mode named in a contract gets its own class so callers
can distinguish bad input from exceeded bounds from genuine law
violations.
"""


class TameboxError(Exception):
    """Base class for all library errors."""


class DomainMismatch(TameboxError):
    """A composition needed a value outside the declared domain."""


class NotInjective(TameboxError):
    """A map that must be injective sends two inputs to one output."""


class NotCovering(TameboxError):
    """Quasi-affine pieces fail to partition the positive naturals."""


class ArityMismatch(TameboxError):
    """Operadic composition received the wrong number of arguments."""


class IndexOutOfRange(TameboxError):
    """A slot index outside 1..arity was requested."""


class DegreeTooLarge(TameboxError):
    """A level beyond the degree bound would be built, or a monoid sum
    lies beyond its level cap."""


class SupportNotCovered(TameboxError):
    """An action was requested by a map not defined on the support."""


class WindowTooSmall(TameboxError):
    """A support computation has no room inside the working window."""


class NotTame(TameboxError):
    """An element table is inconsistent with a finitely supported action."""


class TruncationExceeded(TameboxError):
    """An operation would consult levels beyond the declared truncation."""


class InvalidMorphism(TameboxError):
    """A levelwise map fails equivariance or naturality validation."""


class OverlappingSupports(TameboxError):
    """A partial sum was requested on elements with intersecting supports."""


class ValidationFailed(TameboxError):
    """A presentation or algebra violates one of its defining laws."""


class NotAMonoid(TameboxError):
    """An operation table is not associative, commutative and unital."""


class PreconditionViolated(TameboxError):
    """Inputs fall outside what a construction needs: disagreement where
    a certificate needs agreement, or a pushout check outside the flat
    case."""


class SearchExhausted(TameboxError):
    """The certificate construction failed; indicates an internal bug."""


class ParseError(TameboxError):
    """A document could not be decoded."""


class ValidationError(TameboxError):
    """A decoded document violates a named invariant."""

    def __init__(self, invariant, location=None):
        self.invariant = invariant
        self.location = location
        msg = invariant if location is None else f"{invariant} at {location}"
        super().__init__(msg)
