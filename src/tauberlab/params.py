"""Admissible parameters, the dual coefficient, saddle analysis and prediction.

The central object is the parameter vector (a, b, c, offset) describing a
log-power asymptotic ``log P(x) ~ a*x**b`` (as ``x**b -> inf``) together with
the exponential-kernel transform

    f(s) = offset + int_0^inf P(u*s) * exp(c*u) du.

Admissibility requires the two sign conditions

    a*b*(b-1) < 0   and   a*b*c < 0,

which leave exactly three regimes:

    0 < b < 1   =>  a > 0, c < 0, d > 0   (Kohlbecker type)
    b > 1       =>  a < 0, c > 0, d > 0   (Kasahara type)
    b < 0       =>  a < 0, c < 0, d < 0   (de Bruijn type)

Under these conditions the concave saddle function

    h(x) = a*x**b + c*x - d,   x > 0,

has a unique positive maximizer x_peak = (-c/(a*b))**(1/(b-1)) and the dual
coefficient d is fixed by h(x_peak) = 0, i.e. d = a*x_peak**b + c*x_peak,
equivalently d = a*(1-b)*(-c/(a*b))**(b/(b-1)); concavity then gives h <= 0
on x > 0 without sampling.  On the transform side
``log f(lam) ~ d * lam**(b/(1-b))`` in the regime psi = lam**(b/(1-b)) -> inf:
:func:`predict_log_f` writes d*psi and its Laplace correction, at psi or a sweep.

Admission turns (a, b, c) into Python floats once, so an overflow downstream
is an inf or NaN that a check refuses, never a numpy warning.  :func:`validate`
then computes the saddle once, refusing with NumericOverflow a d that is zero,
subnormal or not finite, an h''(x_peak) that is not finite and negative, and
an h(x_peak) that does not vanish within 1e-10*|d|.  The :func:`d_variants`
audit refuses nothing: its stated d reads +-inf or 0 outside the float range.

All functions are pure and all containers immutable, so values can be shared
freely between threads.
"""

import enum
import math
import sys
from typing import NamedTuple

from .errors import (
    DegenerateExponent,
    DomainError,
    InconsistentInputs,
    NumericOverflow,
    OffsetNotAllowed,
    SignConditionViolated,
    ValidationError,
    ZeroRate,
)

__all__ = [
    "Regime",
    "UnifiedParams",
    "SaddlePoint",
    "validate",
    "d_variants",
    "saddle_analysis",
    "dual_exponent",
    "primal_exponent",
    "recover_primal",
    "s_for_psi",
    "psi_for_s",
    "predict_log_f",
    "MAX_ABS_EXPONENT",
    "COEFF_MIN",
    "COEFF_MAX",
]

# Guardrails keeping x_peak and d inside double range; outside we raise
# NumericOverflow instead of returning silent infinities.
MAX_ABS_EXPONENT = 64.0
COEFF_MIN = 1e-8
COEFF_MAX = 1e8


class Regime(enum.Enum):
    """Which classical exponential-type theorem a parameter vector realizes."""

    KOHLBECKER = "kohlbecker"
    DE_BRUIJN = "de-bruijn"
    KASAHARA = "kasahara"


class SaddlePoint(NamedTuple):
    """Maximizer data of the saddle function h.

    h attains its maximum at ``x_peak`` with value ``h_at_max`` (zero up to
    roundoff by construction of d) and strictly negative ``curvature``
    h''(x_peak) = a*b*(b-1)*x_peak**(b-2).
    """

    x_peak: float
    h_at_max: float
    curvature: float


class UnifiedParams(NamedTuple):
    """Validated parameter vector with derived dual quantities.

    Construct through :func:`validate`; direct construction skips every check.

    Attributes:
        a: coefficient of the primal log-power asymptotic.
        b: primal growth exponent, b not in {0, 1}.
        c: transform kernel rate, c != 0.
        offset: additive constant of the transform (0 whenever d < 0).
        d: dual coefficient on the transform side.
        dual_exp: dual exponent b/(1-b).
        regime: regime tag determined by b.
        saddle: the saddle data of h that validate checked.
    """

    a: float
    b: float
    c: float
    offset: float
    d: float
    dual_exp: float
    regime: Regime
    saddle: SaddlePoint


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")


def _require_b(b: float, what: str) -> None:
    """Refuse a b that is not finite, then one of 0 or 1, where what is undefined."""
    if not math.isfinite(b) or b == 0.0 or b == 1.0:
        _require_finite(b=b)
        raise DegenerateExponent(f"{what} undefined for b={b:g}")


def _check_admissible(a: float, b: float, c: float) -> tuple[float, float, float]:
    """(a, b, c) as Python floats (an overflow is then an inf, not a numpy
    warning); raises unless they meet both sign conditions and guardrails."""
    a, b, c = float(a), float(b), float(c)
    _require_finite(a=a, b=b, c=c)
    if b == 0.0 or b == 1.0:
        raise DegenerateExponent(f"exponent b must avoid {{0, 1}}, got b={b:g}")
    if c == 0.0:
        raise ZeroRate("transform rate c must be nonzero")
    if abs(b) > MAX_ABS_EXPONENT:
        raise NumericOverflow(
            f"|b| = {abs(b)!r} exceeds the supported range {MAX_ABS_EXPONENT:g}"
        )
    for name, v in (("a", a), ("c", c)):
        if not (COEFF_MIN <= abs(v) <= COEFF_MAX):
            raise NumericOverflow(
                f"|{name}| = {abs(v)!r} outside supported range "
                f"[{COEFF_MIN:g}, {COEFF_MAX:g}]"
            )
    for name, v in (("a*b*(b-1)", a * b * (b - 1.0)), ("a*b*c", a * b * c)):
        if not v < 0.0:
            raise SignConditionViolated(name, v, a, b, c)
    return a, b, c


def _x_peak(a: float, b: float, c: float) -> float:
    """x_peak = (-c/(a*b))**(1/(b-1)), the maximizer of h (a*b*c < 0)."""
    return _positive_power(-c / (a * b), 1.0 / (b - 1.0), "saddle location x_peak")


def _dual_coefficient(a: float, b: float, c: float) -> float:
    """d of an admitted triple; refuses a d that is infinite, zero or subnormal."""
    base = -c / (a * b)
    d = a * (1.0 - b) * _positive_power(base, b / (b - 1.0), "(-c/(a*b))**(b/(b-1))")
    if not sys.float_info.min <= abs(d) < math.inf:
        raise NumericOverflow(
            f"dual coefficient not representable for (a={a:g}, b={b:g}, c={c:g})"
        )
    return d


def d_variants(a: float, b: float, c: float) -> tuple[float, float]:
    """Audit pair (d_stated, d_consistent) of the two dual-coefficient readings.

    Both share the prefactor a*(1-b) and the same base magnitude -a*b/c > 0 but
    differ in which exponent is applied:

        d_stated     = a*(1-b) * (-a*b/c)**(b/(b-1))
        d_consistent = a*(1-b) * (-a*b/c)**(b/(1-b))

    The two coincide exactly when |-a*b/c| = 1.  ``d_consistent`` is the d of
    :func:`validate` and is the variant certified by the quadrature engine;
    ``d_stated`` is reported, not checked: +-inf or 0 outside the float range.
    """
    a, b, c = _check_admissible(a, b, c)
    consistent = _dual_coefficient(a, b, c)
    try:
        power = (-(a * b) / c) ** (b / (b - 1.0))
    except OverflowError:
        power = math.inf
    return a * (1.0 - b) * power, consistent


def _regime_for(b: float) -> Regime:
    if 0.0 < b < 1.0:
        return Regime.KOHLBECKER
    if b > 1.0:
        return Regime.KASAHARA
    return Regime.DE_BRUIJN


# Relative tolerance of h(x_peak) = 0; roughly 100x unit roundoff under the
# condition numbers allowed by the guardrails.
_H_AT_MAX_RTOL = 1e-10


def validate(a: float, b: float, c: float, offset: float = 0.0) -> UnifiedParams:
    """Validate (a, b, c, offset) and derive d, the dual exponent, the regime
    and the saddle data of h (h'' < 0 on x > 0, so h <= h(x_peak) unsampled).

    Raises:
        DegenerateExponent: b in {0, 1}.
        ZeroRate: c = 0.
        SignConditionViolated: a*b*(b-1) >= 0 or a*b*c >= 0.
        NumericOverflow: magnitudes outside the guardrails; d zero, subnormal
            or not finite; x_peak or x_peak**b not a positive float; h''(x_peak)
            not finite and negative; or h(x_peak) not within 1e-10*|d| of 0.
        OffsetNotAllowed: offset != 0 while d < 0.
        DomainError: offset < 0.
    """
    a, b, c = _check_admissible(a, b, c)
    _require_finite(offset=offset)
    d = _dual_coefficient(a, b, c)
    if d < 0.0 and offset != 0.0:
        raise OffsetNotAllowed(
            f"additive offset must be 0 when d < 0 (d={d:g}, offset={offset:g})"
        )
    if offset < 0.0:
        raise DomainError("offset must be >= 0")
    x_peak = _x_peak(a, b, c)
    curvature = a * b * (b - 1.0) * _positive_power(x_peak, b - 2.0, "x_peak**(b-2)")
    if not math.isfinite(curvature) or curvature >= 0.0:
        raise NumericOverflow(
            f"saddle curvature {curvature!r} not strictly negative; parameters "
            f"are outside the numerically trustworthy range"
        )
    h_at_max = a * _positive_power(x_peak, b, "x_peak**b") + c * x_peak - d
    if not abs(h_at_max) <= _H_AT_MAX_RTOL * abs(d):
        raise NumericOverflow(
            f"h(x_peak) = {h_at_max:g} exceeds {_H_AT_MAX_RTOL:g}*|d|; closed "
            f"forms drowned by roundoff"
        )
    return UnifiedParams(
        a=a, b=b, c=c, offset=float(offset), d=d, dual_exp=dual_exponent(b),
        regime=_regime_for(b), saddle=SaddlePoint(x_peak, h_at_max, curvature),
    )


def saddle_analysis(p: UnifiedParams) -> SaddlePoint:
    """Closed-form saddle data of h: x_peak, h(x_peak) and h''(x_peak), as
    computed and checked by :func:`validate`."""
    return p.saddle


def dual_exponent(b: float) -> float:
    """Map the primal exponent b to the transform-side exponent b/(1-b)."""
    _require_b(b, "dual exponent")
    return b / (1.0 - b)


def primal_exponent(e: float) -> float:
    """Inverse of :func:`dual_exponent`: e/(1+e)."""
    _require_finite(e=e)
    if e == -1.0:
        raise DegenerateExponent("primal exponent undefined for e=-1")
    return e / (1.0 + e)


def recover_primal(d: float, e: float, c: float) -> tuple[float, float]:
    """Invert (d, dual exponent e, rate c) back to the primal pair (a, b).

    Uses b = e/(1+e), the positive stationary point v0 = d*b/(c*(b-1)) and
    a = (d - c*v0)/v0**b.  Round-trips with the d of :func:`validate` and
    :func:`dual_exponent` to about 1e-9 relative.

    Raises:
        ZeroRate: c = 0.
        InconsistentInputs: v0 is not a positive float (c*(b-1) underflowing
            to 0 included), v0**b is not a positive float, or the recovered
            triple fails validation.
    """
    d, e, c = float(d), float(e), float(c)
    _require_finite(d=d, e=e, c=c)
    if c == 0.0:
        raise ZeroRate("transform rate c must be nonzero")
    b = primal_exponent(e)
    if b == 0.0 or b == 1.0:
        raise InconsistentInputs(f"recovered exponent b={b:g} is degenerate")
    denominator = c * (b - 1.0)
    v0 = d * b / denominator if denominator else math.nan
    if not (math.isfinite(v0) and v0 > 0.0):
        raise InconsistentInputs(
            f"stationary point v0 = d*b/(c*(b-1)) = {v0!r} must be positive"
        )
    try:
        a = (d - c * v0) / _positive_power(v0, b, "v0**b")
    except NumericOverflow as exc:
        raise InconsistentInputs(f"recovered coefficient a = (d - c*v0)/v0**b: {exc}") from exc
    try:
        _check_admissible(a, b, c)
    except ValidationError as exc:
        raise InconsistentInputs(
            f"recovered triple (a={a!r}, b={b!r}, c={c!r}) inadmissible: {exc}"
        ) from exc
    return a, b


def _positive_power(base: float, exponent: float, what: str) -> float:
    """base**exponent, refusing a result that overflows or underflows to 0,
    and 0 to a negative power."""
    try:
        # On Python floats: a numpy float64 power warns on overflow, not raises.
        value = float(base) ** float(exponent)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise NumericOverflow(
            f"{what} = {base:g}**{exponent:g} is not a representable positive float"
        )
    return value


def _is_sweep(x) -> bool:
    """Whether x is a sweep: a list, tuple, range or array of 1 or more
    dimensions, not a float, numpy scalar or 0-d array (one value)."""
    return getattr(x, "ndim", 0) > 0 or isinstance(x, (list, tuple, range))


def _require_psi(psi: float) -> None:
    """Refuse a psi that is not > 0, then one that is not finite (NaN)."""
    if not 0.0 < psi < math.inf:
        if psi <= 0.0:
            raise DomainError("psi must be positive")
        raise DomainError(f"psi must be finite, got {psi:g}")


def _require_s(s: float) -> None:
    """Refuse an s that is not > 0 (NaN included), then an infinite one."""
    if not s > 0.0:
        raise DomainError("s must be positive")
    if s == math.inf:
        raise DomainError("s must be finite, got inf")


def s_for_psi(b: float, psi: float) -> float:
    """Transform argument s = psi**((1-b)/b) for the regime variable psi.

    A subnormal s keeps fewer than 53 bits, so a transform evaluated there
    would not be the one at psi; it is refused, as a subnormal d is.

    Raises:
        DomainError: psi <= 0 or not finite.
        ValidationError: b is not finite.
        DegenerateExponent: b is 0 or 1.
        NumericOverflow: s overflows, or is subnormal or 0.
    """
    _require_psi(psi)
    _require_b(b, "regime map")
    exponent = (1.0 - b) / b
    s = _positive_power(psi, exponent, "s")
    if s < sys.float_info.min:
        raise NumericOverflow(f"s = {psi:g}**{exponent:g} = {s:g} is subnormal")
    return s


def psi_for_s(b: float, s: float) -> float:
    """Regime variable psi = s**(b/(1-b)) for transform argument s.

    Raises:
        DomainError: s is not positive (NaN included) or not finite.
        ValidationError: b is not finite.
        DegenerateExponent: b is 0 or 1.
        NumericOverflow: psi overflows or underflows to 0.
    """
    _require_s(s)
    _require_b(b, "regime map")
    return _positive_power(s, b / (1.0 - b), "psi")


def predict_log_f(p: UnifiedParams, psi, order: str = "corrected"):
    """Closed-form prediction of log f at regime variable psi; at a sweep of
    psi (see _is_sweep), the list of each point's own, raising what its
    first failing psi raises.

    order="leading" gives d*psi; order="corrected" adds the Gaussian-peak
    refinement 0.5*log(psi) + 0.5*log(2*pi/|h''(x_peak)|) obtained from
    f ~ psi * e^{d*psi} * sqrt(2*pi / (psi*|h''(x_peak)|)).

    Raises:
        DomainError: psi is not positive and finite.
        ValidationError: order is neither "leading" nor "corrected".
        NumericOverflow: the prediction is outside the float range.
    """
    sweep, values = _is_sweep(psi), []
    corrected = order == "corrected"
    width_term = 0.5 * math.log(2.0 * math.pi / abs(p.saddle.curvature)) if corrected else 0.0
    for x in map(float, psi if sweep else (psi,)):
        _require_psi(x)  # a bad psi is refused before a bad order
        if not corrected and order != "leading":
            raise ValidationError(f"order must be 'leading' or 'corrected', got {order!r}")
        v = p.d * x
        if corrected:
            v = v + 0.5 * math.log(x) + width_term
        if not math.isfinite(v):
            raise NumericOverflow(f"predicted log f at psi={x:g} is not a finite float")
        values.append(v)
    return values if sweep else values[0]
