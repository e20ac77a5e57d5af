"""Log-domain evaluation of the exponential-kernel transform.

The transform f(s) = offset + int_0^inf P(u*s) * exp(c*u) du of a tabulated
measure's cumulative or tail function is a finite sum over its atoms, taken
exactly.  For power targets (PurePower, PerturbedPower) the integrand's
dynamic range exceeds the floating-point range at moderate regime values
(the peak value grows like d*psi), so a saddle-centered engine

  1. locates the interior maximum u* of the log-integrand
     g(u) = q(u*s) + c*u, whose existence the signs of a, b and c decide:
     a bracket in w = log u around the pure power's stationary point is
     widened until it holds the maximum and sampled on a 65-point grid,
     which zooms in on its argmax until its spacing is at most 1e-3; two
     parabolic steps, on that spacing and on a 1e-5 stencil, then refine
     the argmax.  Each grid or stencil is one vector evaluation of g,
  2. switches to w = log u, where integrable endpoint behavior turns into
     exponential decay of the w-integrand exp(g(e^w) + w),
  3. places each window frontier at the first unit-panel edge w* -+ (1 + k)
     where the shifted integrand has fallen 40 nats below its peak, probing
     the candidate edges in chunks that double in size,
  4. integrates exp(g(e^w) + w - m) by a nested trapezoid rule with interval
     halving, m being the peak value of g; the error estimate is the
     difference between successive refinements.

log f is then m + log(integral) combined with the offset in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DegenerateExponent,
    DomainError,
    NoInteriorPeak,
    NotIntegrable,
    NumericOverflow,
    ValidationError,
    ZeroRate,
)
from .measures import _log_sum_shifted, _require_atoms
from .params import UnifiedParams, _peak_curvature, psi_for_s, s_for_psi
from .targets import MeasureTarget, TargetFunction

__all__ = [
    "TransformSample",
    "log_integrand",
    "locate_peak",
    "log_transform",
    "predict_log_f",
    "sample_at_psi",
    "refinement_errors",
    "FRONTIER_DROP",
]

# Window cutoff: panels stop once the shifted integrand is this many nats
# below its peak.  exp(-40) ~ 4e-18 is below double roundoff of the total.
FRONTIER_DROP = 40.0

_MAX_WINDOW_PANELS = 800
# Most frontiers sit within a few panels of the peak; probing four candidate
# edges at once settles them in one call per side.
_FIRST_FRONTIER_CHUNK = 4
_PEAK_GRID_POINTS = 65
# The peak grid zooms in on its argmax until its spacing is at most this.  A
# parabolic step on that spacing then lands close enough for the final
# 1e-5 stencil, which works near the roundoff floor of g, to take its step
# even where |g'''/g''| is as large as |b| <= 64 allows.
_PEAK_GRID_SPACING = 1e-3
_FINAL_STENCIL = 1e-5
_MAX_REFINEMENTS = 14
_INITIAL_POINTS_PER_UNIT = 8.0


@dataclass(frozen=True)
class TransformSample:
    """One evaluation of log f along a sweep.

    psi is the regime variable tied to s by s = psi**((1-b)/b) for the owning
    parameters (NaN when the target carries no power exponent). quad_error is
    an absolute error estimate on log_f (0 for an exact sum); tol_met records
    whether the requested tolerance was reached before the refinement cap.
    """

    psi: float
    s: float
    log_f: float
    quad_error: float
    tol_met: bool = True


def log_integrand(t: TargetFunction, c: float, s: float, u) -> float | np.ndarray:
    """g(u) = q(u*s) + c*u for u > 0, s > 0."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("u must be positive")
    if not s > 0.0:
        raise DomainError("s must be positive")
    values = t.log_amplitude(arr * s) + c * arr
    return float(values) if arr.ndim == 0 else values


def _g_of_w(t: TargetFunction, c: float, s: float, w) -> np.ndarray:
    """g(e^w) on an array of w; NaN (e.g. inf - inf) reads as -inf."""
    u = np.exp(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(t.log_amplitude(s * u) + c * u, dtype=float)
    return np.where(np.isnan(vals), -np.inf, vals)


def _require_interior_peak(t: TargetFunction, c: float) -> None:
    """Refuse a target whose log-integrand g has no interior maximum.

    For q = a*x**b, perturbed or not, g has one exactly when a*b*c < 0 and
    a*b*(b-1) < 0.  Otherwise g is monotone: decreasing and integrable
    (NoInteriorPeak) when a < 0, b > 0 and c < 0, else not integrable.
    """
    b, a = t.power_exponent, getattr(t, "a", None)
    if b is None or a is None:
        raise ValidationError(f"the engine takes power targets only, got {t.label()}")
    if b in (0.0, 1.0):
        raise DegenerateExponent(f"b = {b:g} leaves g without an interior maximum")
    if a * b * c < 0.0 and a * b * (b - 1.0) < 0.0:
        return
    if a < 0.0 and b > 0.0 and c < 0.0:
        raise NoInteriorPeak("log-integrand decreasing on u > 0; no interior maximum")
    raise NotIntegrable(f"transform diverges for a={a:g}, b={b:g}, c={c:g}")


def _closed_form_seed(t: TargetFunction, c: float, s: float) -> float | None:
    """Stationary point of g for the pure power a*x**b of t, if representable.

    Solves a*b*(u*s)**b = -c*u in log space, so that no power of s can
    overflow or underflow on the way to a representable u.
    """
    b = t.power_exponent
    base = -c / (t.a * b)
    if not 0.0 < base < math.inf:
        return None
    try:
        u = math.exp((math.log(base) - b * math.log(s)) / (b - 1.0))
    except OverflowError:
        return None
    return u if u > 0.0 else None


def _parabolic_step(g_of_w, w: float, h: float) -> float:
    """Vertex of the parabola through g at w - h, w, w + h (one vector call).

    The step is taken only when the stencil is concave and the vertex lies
    within it; otherwise w is returned unchanged.
    """
    fm, f0, fp = g_of_w(np.array([w - h, w, w + h]))
    denom = fm - 2.0 * f0 + fp
    if not (math.isfinite(denom) and denom < 0.0):
        return w
    step = 0.5 * h * (fm - fp) / denom
    return w + step if abs(step) < h else w


def locate_peak(t: TargetFunction, c: float, s: float) -> float:
    """Argmax u* of the log-integrand, refined to ~1e-10 relative in u.

    For exact power targets this matches the closed form x_peak * psi.

    Raises:
        NoInteriorPeak: integrand monotone, or no maximum bracketed.
        NotIntegrable: the signs of a, b and c make the transform diverge.
        NumericOverflow: the stationary point is outside the float range.
    """
    if not s > 0.0:
        raise DomainError("s must be positive")
    _require_interior_peak(t, c)
    g_of_w = partial(_g_of_w, t, c, s)
    seed = _closed_form_seed(t, c, s)
    if seed is None:
        raise NumericOverflow(f"stationary point of g at s={s:g} is not representable")
    w0 = math.log(seed)
    lo, hi = w0 - 0.7, w0 + 0.7
    # Widen until the bracket contains the maximum (perturbed targets shift
    # it slightly off the closed form).
    for _ in range(60):
        gl, gm, gh = g_of_w(np.asarray([lo, 0.5 * (lo + hi), hi]))
        if gm >= gl and gm >= gh:
            break
        lo, hi = lo - (hi - lo), hi + (hi - lo)
    else:
        raise NoInteriorPeak("no maximum of g bracketed around the closed-form seed")
    ws = np.linspace(lo, hi, _PEAK_GRID_POINTS)
    while True:
        k = int(np.argmax(g_of_w(ws)))
        spacing = float(ws[1] - ws[0])
        if spacing <= _PEAK_GRID_SPACING:
            break
        ws = np.linspace(ws[max(k - 1, 0)], ws[min(k + 1, ws.size - 1)], ws.size)
    w_star = float(ws[k])
    for h in (spacing, _FINAL_STENCIL):
        w_star = _parabolic_step(g_of_w, w_star, h)
    return math.exp(w_star)


def _prepare_window(t: TargetFunction, c: float, s: float):
    """Locate the peak and extend the log-u window to both 40-nat frontiers.

    Returns (g_of_w, w_lo, w_hi, m) where m is the peak value of the
    log-integrand used as the shift.
    """
    g_of_w = partial(_g_of_w, t, c, s)
    w_center = math.log(locate_peak(t, c, s))
    m = float(g_of_w(np.asarray([w_center]))[0])
    w_lo, w_hi = (_frontier(g_of_w, w_center, m, side) for side in (-1.0, 1.0))
    return g_of_w, w_lo, w_hi, m


def _frontier(g_of_w, w_center: float, m: float, side: float) -> float:
    """First panel edge w_center + side*(1 + k) at which the w-integrand is
    FRONTIER_DROP nats below its peak.

    The shifted value includes the Jacobian term w so that both frontiers
    terminate.  Candidate edges are probed in chunks that double in size.

    Raises:
        NotIntegrable: no edge with k < _MAX_WINDOW_PANELS qualifies.
    """
    k, size = 0, _FIRST_FRONTIER_CHUNK
    while k < _MAX_WINDOW_PANELS:
        ks = np.arange(k, min(k + size, _MAX_WINDOW_PANELS), dtype=float)
        ws = w_center + side * (1.0 + ks)
        below = np.flatnonzero(g_of_w(ws) + ws - m - w_center < -FRONTIER_DROP)
        if below.size:
            return float(ws[below[0]])
        k, size = k + ks.size, 2 * size
    raise NotIntegrable(
        f"{'left' if side < 0.0 else 'right'} frontier not reached "
        f"within {_MAX_WINDOW_PANELS} panels"
    )


def _trapezoid_log(g_of_w, w_lo: float, w_hi: float, m: float, n: int) -> float:
    """log of the shifted trapezoid estimate of int exp(g(e^w)+w) dw, n panels."""
    ws = np.linspace(w_lo, w_hi, n + 1)
    vals = g_of_w(ws) + ws - m
    peak = float(np.max(vals))
    weights = np.ones_like(ws)
    weights[0] = weights[-1] = 0.5
    total = float(np.sum(weights * np.exp(vals - peak)))
    return m + peak + math.log(total * (w_hi - w_lo) / n)


def _refine_log_integral(
    g_of_w, w_lo: float, w_hi: float, m: float, tol: float
) -> tuple[float, float, bool]:
    """Interval-halving refinement; error = difference of successive levels."""
    n = max(128, int((w_hi - w_lo) * _INITIAL_POINTS_PER_UNIT))
    log_integral = _trapezoid_log(g_of_w, w_lo, w_hi, m, n)
    quad_error = math.inf
    for _ in range(_MAX_REFINEMENTS - 1):
        n *= 2
        prev, log_integral = log_integral, _trapezoid_log(g_of_w, w_lo, w_hi, m, n)
        quad_error = abs(log_integral - prev)
        if quad_error <= tol:
            return log_integral, quad_error, True
    return log_integral, quad_error, False


def _exact_log_integral(t: TargetFunction, c: float, s: float) -> float | None:
    """log int_0^inf P(u*s) e^{c*u} du in closed form, or None for the engine.

    With z_i = c*x_i/s an atom (x_i, m_i) adds m_i e^{z_i}/(-c) to the
    cumulative kind (c < 0) and m_i (e^{z_i} - 1)/c to the tail kind.  A power
    target with a = 0 has P = 1.
    """
    if isinstance(t, MeasureTarget):
        _require_atoms(t.measure)
        if t.kind == "cumulative" and not c < 0.0:
            raise NotIntegrable("mu[0, x] does not vanish at infinity; need c < 0")
        if c == 0.0:
            raise ZeroRate("the tail transform needs c != 0")
        with np.errstate(over="ignore", divide="ignore"):
            z = c * np.asarray(t.measure.locations) / s
            if t.kind == "tail":
                # log|e^z - 1| = max(z, 0) + log(1 - e^-|z|); an atom at 0 adds -inf.
                z = np.maximum(z, 0.0) + np.log(-np.expm1(-np.abs(z)))
            return _log_sum_shifted(np.log(t.measure.masses) + z) - math.log(abs(c))
    if getattr(t, "a", None) == 0.0:
        if not c < 0.0:
            raise NotIntegrable("P = 1 needs c < 0")
        return -math.log(-c)
    return None


def refinement_errors(
    t: TargetFunction, c: float, s: float, n0: int = 32, levels: int = 8
) -> list[float]:
    """Successive-refinement error estimates |I_k - I_{k-1}| on log f.

    Diagnostic used to confirm that the error estimate shrinks as the panel
    resolution doubles, starting from a deliberately coarse n0.
    """
    g_of_w, w_lo, w_hi, m = _prepare_window(t, c, s)
    values = [
        _trapezoid_log(g_of_w, w_lo, w_hi, m, n0 * 2**k) for k in range(levels)
    ]
    return [abs(b - a) for a, b in zip(values, values[1:])]


def log_transform(
    t: TargetFunction,
    c: float,
    offset: float,
    s: float,
    tol: float = 1e-8,
    psi: float | None = None,
) -> TransformSample:
    """Evaluate log f(s) = log(offset + int_0^inf P(u*s) e^{c*u} du).

    A tabulated measure's transform is an exact sum (quad_error 0).  For a
    power target tol is the target absolute error on log f; if the
    refinement cap is hit first, the best estimate is returned with
    ``tol_met=False``.

    Raises:
        NotIntegrable: integrand diverges at an endpoint.
        NoInteriorPeak: power integrand monotone (see locate_peak).
        EmptyMeasure: measure target without atoms.
        DomainError: s <= 0, offset < 0 or tol <= 0.
    """
    if not s > 0.0:
        raise DomainError("s must be positive")
    if offset < 0.0:
        raise DomainError("offset must be >= 0")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    log_integral, quad_error, tol_met = _exact_log_integral(t, c, s), 0.0, True
    if log_integral is None:
        window = _prepare_window(t, c, s)
        log_integral, quad_error, tol_met = _refine_log_integral(*window, tol)

    if offset > 0.0:
        log_f = float(np.logaddexp(math.log(offset), log_integral))
    else:
        log_f = log_integral

    if psi is None:
        b = t.power_exponent
        psi = psi_for_s(b, s) if b not in (None, 0.0, 1.0) else float("nan")
    return TransformSample(
        psi=float(psi),
        s=float(s),
        log_f=log_f,
        quad_error=float(quad_error),
        tol_met=tol_met,
    )


def predict_log_f(p: UnifiedParams, psi: float, order: str = "corrected") -> float:
    """Closed-form prediction of log f at regime variable psi.

    order="leading" gives d*psi; order="corrected" adds the Gaussian-peak
    refinement 0.5*log(psi) + 0.5*log(2*pi/|h''(x_peak)|) obtained from
    f ~ psi * e^{d*psi} * sqrt(2*pi / (psi*|h''(x_peak)|)).
    """
    if psi <= 0.0:
        raise DomainError("psi must be positive")
    if order == "leading":
        return p.d * psi
    if order != "corrected":
        raise ValidationError(f"order must be 'leading' or 'corrected', got {order!r}")
    _, curvature = _peak_curvature(p.a, p.b, p.c)
    return p.d * psi + 0.5 * math.log(psi) + 0.5 * math.log(2.0 * math.pi / abs(curvature))


def sample_at_psi(
    p: UnifiedParams, t: TargetFunction, psi: float, tol: float = 1e-8
) -> TransformSample:
    """Evaluate log f at the transform argument matching regime variable psi."""
    s = s_for_psi(p.b, psi)
    return log_transform(t, p.c, p.offset, s, tol=tol, psi=psi)
