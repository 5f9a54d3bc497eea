"""Exception types shared across the package."""


class CoxError(Exception):
    """Base class for every error raised by this package."""


class ZeroConstantTerm(CoxError):
    """Series inversion needs a nonzero constant term."""


class ConstantTermNotOne(CoxError):
    """Operation needs a series with constant term 1."""


class NonzeroConstantTerm(CoxError):
    """Formal exponential needs a series with constant term 0."""


class NotAPolynomial(CoxError):
    """The rational function does not reduce to a polynomial."""


class ParseError(CoxError):
    """Malformed Coxeter type string."""


class RangeError(CoxError):
    """Type label outside the classification's valid ranges."""


class ProfileMismatch(CoxError):
    """Requested parameter profile is not defined for this type."""


class WrongFamily(CoxError):
    """Check only applies to certain type families."""


class InternalMismatch(CoxError):
    """Two internal computation routes, or two table entries, disagreed (logic bug guard)."""
