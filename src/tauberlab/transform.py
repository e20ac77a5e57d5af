"""Log-domain evaluation of the exponential-kernel transform.

The transform f(s) = offset + int_0^inf P(u*s) * exp(c*u) du of a tabulated
measure's cumulative or tail function is a finite sum over its atoms, taken
exactly.  For power targets (PurePower, PerturbedPower) the integrand's
dynamic range exceeds the floating-point range at moderate regime values
(the peak value grows like d*psi), so a saddle-centered engine

  1. centres its window on the stationary point u* of the pure-power part
     of the log-integrand g(u) = q(u*s) + c*u, in closed form; the signs of
     a, b and c decide whether g has an interior maximum,
  2. switches to w = log u, where integrable endpoint behavior turns into
     exponential decay of the w-integrand exp(g(e^w) + w),
  3. places each window frontier at the first unit-panel edge w* -+ (1 + k)
     where the shifted integrand has fallen 40 nats below its value at w*,
     probing the candidate edges in chunks that double in size,
  4. integrates exp(g(e^w) + w - m) by a nested trapezoid rule with interval
     halving, m being g(u*); the error estimate is the difference between
     successive refinements.

No search refines u* for a perturbed target: on these analytic integrands the
trapezoid rule in w converges geometrically wherever its nodes fall
(Trefethen & Weideman, SIAM Rev. 56, 2014).

Every step runs on all rows (s values) of a sweep at once: the centre value,
each frontier chunk and each trapezoid level is one vector evaluation of g
over the rows still open.  Each row sees the nodes and float expressions
of a batch of one, so a sweep equals its points evaluated one by one.

log f is then m + log(integral) combined with the offset in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# edges at once settles most of them in the first call.
_FIRST_FRONTIER_CHUNK = 4
_MAX_REFINEMENTS = 14
_INITIAL_POINTS_PER_UNIT = 8.0
# A trapezoid level runs in slices of this many nodes (or one row): bounded memory.
_MAX_POINTS_PER_CALL = 2**18


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


def _g_rows(t: TargetFunction, c: float, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g(e^w) for each row of w at that row's s; NaN (e.g. inf - inf) reads as -inf."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.exp(w)
        vals = np.asarray(t.log_amplitude(s[:, None] * u) + c * u, dtype=float)
    return np.where(np.isnan(vals), -np.inf, vals)


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], n) as C-contiguous rows, by linspace's own
    expressions, so that row sums run as on a 1-D grid."""
    ws = np.arange(n, dtype=float) * ((hi - lo) / (n - 1))[:, None]
    ws += lo[:, None]
    ws[:, -1] = hi
    return ws


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


def locate_peak(t: TargetFunction, c: float, s):
    """Stationary point u* of g for the pure power a*x**b of the target.

    For exact power targets this is the argmax x_peak * psi in closed form; a
    perturbed target's argmax lies near it, and the engine centres its window
    there without refining it (see the module docstring).  Given a 1-D array
    of s, returns the list of the rows' u*.

    Raises:
        DomainError: s <= 0.
        NoInteriorPeak: integrand monotone.
        NotIntegrable: the signs of a, b and c make the transform diverge.
        NumericOverflow: the stationary point is outside the float range.
    """
    s_rows = np.array(s, dtype=float, ndmin=1)
    if not (s_rows > 0.0).all():
        raise DomainError("s must be positive")
    _require_interior_peak(t, c)
    peaks = [_closed_form_seed(t, c, si) for si in s_rows.tolist()]
    if None in peaks:
        bad = s_rows[peaks.index(None)]
        raise NumericOverflow(f"stationary point of g at s={bad:g} is not representable")
    return peaks if np.ndim(s) else peaks[0]


def _prepare_windows(t: TargetFunction, c: float, s: np.ndarray):
    """Centre each row's log-u window on locate_peak's u* and extend it to the
    first panel edges w* -+ (1 + k) where the w-integrand, Jacobian term w
    included, is FRONTIER_DROP nats below its value at w*; returns
    (w_lo, w_hi, m), m = g(u*).  For a perturbed target m is at most the peak
    of g, so each edge is at least FRONTIER_DROP nats below the peak too.

    Raises:
        NumericOverflow: g(u*) is not a finite float.
        NotIntegrable: no edge with k < _MAX_WINDOW_PANELS qualifies.
    """
    w_center = [math.log(u) for u in locate_peak(t, c, s)]
    m = _g_rows(t, c, s, np.array(w_center)[:, None])[:, 0]
    if not np.isfinite(m).all():
        bad = s[~np.isfinite(m)][0]
        raise NumericOverflow(f"peak value g(u*) at s={bad:g} is not a finite float")
    # Frontier q < r is row q's left one, q >= r row q - r's right one.
    r, k, size = s.size, 0, _FIRST_FRONTIER_CHUNK
    edge, probes = [0.0] * 2 * r, list(range(2 * r))
    while k < _MAX_WINDOW_PANELS:
        ks = np.arange(k, min(k + size, _MAX_WINDOW_PANELS), dtype=float)
        rows = [q % r for q in probes]
        center = np.array([w_center[i] for i in rows])[:, None]
        ws = center + np.array([-1.0 if q < r else 1.0 for q in probes])[:, None] * (1.0 + ks)
        below = _g_rows(t, c, s[rows], ws) + ws - m[rows][:, None] - center < -FRONTIER_DROP
        for q, b, w, j in zip(probes, below, ws, below.argmax(axis=1).tolist()):
            edge[q] = float(w[j]) if b[j] else None
        probes, k, size = [q for q in probes if edge[q] is None], k + ks.size, 2 * size
        if not probes:
            return np.array(edge[:r]), np.array(edge[r:]), m
    raise NotIntegrable(
        f"{'left' if probes[0] < r else 'right'} frontier not reached "
        f"within {_MAX_WINDOW_PANELS} panels"
    )


def _trapezoid_rows(t, c, s, w_lo, w_hi, m, n: int) -> list[float]:
    """log of the shifted trapezoid estimate of int exp(g(e^w)+w) dw on n
    panels, per row, in slices of at most _MAX_POINTS_PER_CALL nodes."""
    # numpy reuses a large temporary only against a scalar or an operand of its
    # shape (hence 2-D weights and -=); a fresh large array pays page faults.
    weights = np.ones((1, n + 1))
    weights[0, 0] = weights[0, -1] = 0.5
    out, per_call = [], max(1, _MAX_POINTS_PER_CALL // (n + 1))
    for i in range(0, s.size, per_call):
        lo, hi, mi = w_lo[i : i + per_call], w_hi[i : i + per_call], m[i : i + per_call]
        ws = _linspace_rows(lo, hi, n + 1)
        vals = _g_rows(t, c, s[i : i + per_call], ws) + ws
        vals -= mi[:, None]
        peak = vals.max(axis=1)
        total = (weights * np.exp(vals - peak[:, None])).sum(axis=1)
        out += [a + p + math.log(v * (h - l) / n) for a, p, v, l, h in
                zip(mi.tolist(), peak.tolist(), total.tolist(), lo.tolist(), hi.tolist())]
        del ws, vals  # before the next slice allocates its own
    return out


def _refine_rows(t, c, s, w_lo, w_hi, m, tol: float):
    """Interval-halving refinement; error = difference of successive levels.
    Rows that share an initial panel count refine together, and a row leaves
    once it meets tol.  Returns (log_integral, quad_error, tol_met) lists."""
    log_integral, quad_error, tol_met = [0.0] * s.size, [0.0] * s.size, [False] * s.size
    n0 = [max(128, int((h - l) * _INITIAL_POINTS_PER_UNIT)) for l, h in zip(w_lo.tolist(), w_hi.tolist())]
    for n in sorted(set(n0)):
        rows = [i for i, ni in enumerate(n0) if ni == n]
        group = (s, w_lo, w_hi, m) if len(rows) == s.size else [v[rows] for v in (s, w_lo, w_hi, m)]
        cur = _trapezoid_rows(t, c, *group, n)
        for _ in range(_MAX_REFINEMENTS - 1):
            n *= 2
            prev, cur = cur, _trapezoid_rows(t, c, *group, n)
            for i, a, b in zip(rows, prev, cur):
                log_integral[i], quad_error[i], tol_met[i] = b, abs(b - a), abs(b - a) <= tol
            keep = [j for j, i in enumerate(rows) if not tol_met[i]]
            if len(keep) < len(rows):
                rows, cur, group = [rows[j] for j in keep], [cur[j] for j in keep], [v[keep] for v in group]
            if not rows:
                break
    return log_integral, quad_error, tol_met


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
    row = np.array([s], dtype=float)
    window = _prepare_windows(t, c, row)
    values = [_trapezoid_rows(t, c, row, *window, n0 * 2**k)[0] for k in range(levels)]
    return [float(abs(b - a)) for a, b in zip(values, values[1:])]


def _transform_rows(t: TargetFunction, c: float, offset: float, s: list, tol: float, psi):
    """log_transform at each s of a batch, with its psi (or None); power
    targets take one engine pass for all rows."""
    if not all(si > 0.0 for si in s):
        raise DomainError("s must be positive")
    if offset < 0.0:
        raise DomainError("offset must be >= 0")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    rows = np.array(s, dtype=float)
    log_integral = [_exact_log_integral(t, c, si) for si in s]
    quad_error, tol_met = [0.0] * rows.size, [True] * rows.size
    if log_integral[0] is None:
        window = _prepare_windows(t, c, rows)
        log_integral, quad_error, tol_met = _refine_rows(t, c, rows, *window, tol)
    b, samples = t.power_exponent, []
    for si, psi_i, li, err, met in zip(s, psi, log_integral, quad_error, tol_met):
        log_f = float(np.logaddexp(math.log(offset), li)) if offset > 0.0 else float(li)
        if psi_i is None:
            psi_i = psi_for_s(b, si) if b not in (None, 0.0, 1.0) else float("nan")
        samples.append(TransformSample(float(psi_i), float(si), log_f, float(err), bool(met)))
    return samples


def log_transform(
    t: TargetFunction,
    c: float,
    offset: float,
    s: float,
    tol: float = 1e-8,
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
    return _transform_rows(t, c, offset, [s], tol, [None])[0]


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


def sample_at_psi(p: UnifiedParams, t: TargetFunction, psi, tol: float = 1e-8):
    """Evaluate log f at the transform argument matching regime variable psi.

    Given a sequence of psi, evaluates all its points in one batched engine
    pass and returns the list of their samples, each equal to the point's
    sample on its own; a sweep raises what its first failing point raises.
    """
    psis = list(psi) if np.ndim(psi) else [psi]
    try:
        samples = _transform_rows(t, p.c, p.offset, [s_for_psi(p.b, x) for x in psis], tol, psis)
    except Exception:
        # Rows fail at different engine stages: a sweep replays its points one
        # by one so that its first failing point raises its own exception.
        for x in psis if len(psis) > 1 else ():
            sample_at_psi(p, t, x, tol)
        raise
    return samples if np.ndim(psi) else samples[0]
