"""Semantic exception hierarchy, and the rule by which a checked record
refuses bad fields at every construction.

Every error raised on purpose by this package derives from :class:`TauberError`
so callers (and the CLI) can distinguish rejected inputs from genuine bugs.
"""

import functools

__all__ = [
    "TauberError",
    "ValidationError",
    "SignConditionViolated",
    "DegenerateExponent",
    "ZeroRate",
    "OffsetNotAllowed",
    "NumericOverflow",
    "DomainError",
    "NoInteriorPeak",
    "NotIntegrable",
    "EmptyMeasure",
    "MeasureFormatError",
    "BadRange",
    "InconsistentInputs",
    "SignChange",
    "DegenerateWindow",
    "InsufficientSpan",
    "SpecOutOfRange",
    "ConfigParseError",
]


class TauberError(Exception):
    """Base class for all package errors."""


class ValidationError(TauberError, ValueError):
    """Inputs rejected during validation."""


class SignConditionViolated(ValidationError):
    """One of the two admission products is not negative.

    Carries which product failed (``"a*b*(b-1)"`` or ``"a*b*c"``) and its value.
    """

    def __init__(self, product: str, value: float, a: float, b: float, c: float):
        self.product = product
        self.value = value
        super().__init__(
            f"admission condition {product} < 0 violated: "
            f"{product} = {value:g} (a={a:g}, b={b:g}, c={c:g})"
        )


class DegenerateExponent(ValidationError):
    """Exponent at a pole of the duality map (b in {0, 1}, or dual e = -1)."""


class ZeroRate(ValidationError):
    """Transform rate c = 0: the exponential kernel is constant."""


class OffsetNotAllowed(ValidationError):
    """Nonzero additive offset supplied while the dual coefficient is negative."""


class NumericOverflow(ValidationError):
    """Parameter magnitudes leave the representable range of the closed forms."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class NoInteriorPeak(TauberError):
    """Integrand is monotone: no interior maximum to center quadrature on."""


class NotIntegrable(TauberError):
    """Transform integrand fails the integrability checks."""


class EmptyMeasure(ValidationError):
    """Operation requires at least one atom."""


class MeasureFormatError(ValidationError):
    """Unreadable or malformed two-column measure or sample file."""


class BadRange(ValidationError):
    """Invalid evaluation-grid specification."""


class InconsistentInputs(ValidationError):
    """Inverse parameter map produced an inadmissible configuration."""


class SignChange(TauberError):
    """log f changes sign (or vanishes) inside the fit window."""


class DegenerateWindow(TauberError):
    """Fit window too small to estimate a slope."""


class InsufficientSpan(ValidationError):
    """Sample grid too short or too narrow for a limit diagnostic."""


class SpecOutOfRange(ValidationError):
    """Classical theorem parameters outside their stated ranges."""


class ConfigParseError(ValidationError):
    """Malformed CLI config file."""


def _checked(cls):
    """Class decorator for a NamedTuple record whose ``_check()`` refuses bad
    fields: each construction builds the tuple, then runs ``_check``.  That
    is the class call and ``_make``, and so ``_replace``, copy and unpickling
    too.  The wrapped ``__new__`` keeps the signature and the arity errors
    of the one it wraps."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        record = new(cls, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
