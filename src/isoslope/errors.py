"""Exception hierarchy shared by every isoslope module.

All domain errors derive from IsoslopeError so callers (and the CLI) can
separate mathematical failure modes from genuine bugs; anything not listed
here escaping the library is a bug.
"""


class IsoslopeError(Exception):
    """Base class for every anticipated failure mode."""


class MalformedInput(IsoslopeError):
    """Input violates a structural precondition (missing index, bad range)."""


class NotPrime(MalformedInput):
    """A claimed prime characteristic failed the primality check."""


class DegreeTooLarge(IsoslopeError):
    """A table would exceed the configured table limit; .table names it."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class FieldMismatch(IsoslopeError):
    """Operands belong to different fields or different residue precisions."""


class PrecisionMismatch(FieldMismatch):
    """Truncated p-adic operands carry different precisions."""


class PrecisionInsufficient(IsoslopeError):
    """A censored coefficient bound falls strictly below the certified hull.

    Carries enough context for a caller to retry: `index` is the offending
    coefficient, `bound` the censoring bound, `needed` the hull ordinate the
    bound failed to clear.
    """

    def __init__(self, message, index=None, bound=None, needed=None):
        super().__init__(message)
        self.index = index
        self.bound = bound
        self.needed = needed

    def suggested_precision(self):
        # smallest integer strictly clearing the hull, with a safety margin
        if self.needed is None:
            return None
        num, den = self.needed.numerator, self.needed.denominator
        return -(-num // den) + 2


class NonConvexInput(IsoslopeError):
    """A function expected to be convex is not."""


class StrategyUnavailable(IsoslopeError):
    """The requested coefficient strategy does not apply to this datum."""


class RankTooLargeForP(IsoslopeError):
    """Power-sum recursion needs p > n; this datum has p <= n."""


class DatumMismatch(IsoslopeError):
    """Coweights or slope data attached to incompatible root data."""


class NotDominant(IsoslopeError):
    """A coweight expected to be dominant pairs negatively with a simple root."""


class NotInCorootSpan(IsoslopeError):
    """Difference of coweights leaves the span of the simple coroots."""


class UnsupportedDatum(IsoslopeError):
    """Operation needs a semisimple-compatible root datum."""


class InvalidC3(MalformedInput):
    """Third datum entry is outside [1, p-2] or hits the self-dual value."""


class PrimeTooSmall(MalformedInput):
    """Family needs a larger characteristic."""
