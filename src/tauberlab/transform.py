"""Log-domain evaluation of the exponential-kernel transform.

The transform f(s) = offset + int_0^inf P(u*s) * exp(c*u) du of a tabulated
measure's cumulative or tail function is a finite sum over its atoms, taken
exactly.  For power targets (PurePower, PerturbedPower) the integrand's
dynamic range exceeds the floating-point range at moderate regime values
(the peak value grows like d*psi), so a saddle-centred engine

  1. centres its window on the stationary point u* = x_peak*psi of the
     pure-power part of the log-integrand g(u) = q(u*s) + c*u, in closed
     form; the signs of a, b and c decide whether g has an interior maximum,
  2. integrates exp(g(u) + v) over v = log(u/u*), forming u = u*·e^v and
     x = s·u by multiplication; log u* is added once per row, not per node,
  3. steps in the peak's Laplace width h = 1/sqrt(|(b-1)*c*u*|) =
     1/sqrt(|b*d*psi|), kept in [2**-26, 1]: each frontier is the first edge
     -+k*h probed, k every width up to 9 and then about 20% apart up to the
     cap, where the v-integrand is 40 nats below its value at u*; the centre
     and every candidate edge of a row are one evaluation,
  4. integrates exp(g(u) + v - m), m = g(u*), by a nested trapezoid rule with
     interval halving from _NODES_PER_WIDTH panels per width; the error
     estimate is the difference between successive levels, and a row stops
     refining once it meets the tolerance.  Each step evaluates only its fine
     level of 2n panels, whose even nodes are the coarse level's n panels bit
     for bit.  The fine rows lie in one buffer, each after a pad slot of -inf:
     one maximum.reduceat gives every row's peak, one add.reduceat its fine
     sum, and one add.reduceat of the odd slots, its even nodes, its coarse sum.

So the resolution is the same at every psi.  On a pure power and on both
perturbed families, whose delta is analytic in log x, the v-integrand is
analytic in a strip about the real axis, where the trapezoid rule converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014, section 5).  Every
call evaluates at most _MAX_POINTS_PER_CALL nodes, in blocks of whole rows:
a row whose next level would not fit stops refining with tol_met=False and
its last level difference as quad_error.  No search refines u*.
s = psi**((1-b)/b) is not a float at large psi once |b| is below about
0.05, and for b < 0 it turns subnormal, keeping fewer than 53 bits, before
it underflows (from psi about 6.7e153 at b = -1).  The engine works at s, so
sample_at_psi refuses those points (NumericOverflow).

Every step runs on all rows (s values) of a sweep at once: the centre and
frontier block and each refinement step are each one vector evaluation of g
over the rows still open, a level laying its rows' nodes end to end in one
flat array.  Each row sees the nodes, float expressions and summation order
of a batch of one, so a sweep equals its points evaluated one by one.
log f = m + log u* + log(integral), combined with the offset in log space.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateExponent,
    DomainError,
    InconsistentInputs,
    NoInteriorPeak,
    NotIntegrable,
    NumericOverflow,
    ValidationError,
)
from .measures import _log_integral
from .params import UnifiedParams, _is_sweep, _require_s, _x_peak, psi_for_s, s_for_psi
from .targets import MeasureTarget

__all__ = ["TransformSample", "locate_peak", "log_transform", "sample_at_psi", "FRONTIER_DROP"]

# Window cutoff: panels stop once the shifted integrand is this many nats
# below its peak.  exp(-40) ~ 4e-18 is below double roundoff of the total.
FRONTIER_DROP = 40.0

# Floor of the window step h.  One step lowers g by about |(b-1)*c*u*|*h**2/2,
# and g carries a roundoff of about eps*|c*u*|: below h = sqrt(eps) a step's
# own drop is smaller than the integrand's roundoff.
_MIN_STEP = 2.0**-26
_MAX_WINDOW_WIDTHS = 800
# Candidate frontier edges in widths from u*: 38 geometric steps to the cap,
# which round up to 34 distinct edges (a Gaussian peak falls 40 nats in 9).
_FRONTIER_WIDTHS = np.array(
    sorted({math.ceil(_MAX_WINDOW_WIDTHS ** (j / 37)) for j in range(38)}), dtype=float)
# A row's centre v = 0, then its left and its right candidate edges.
_CENTRE_AND_EDGES = np.concatenate(([0.0], -_FRONTIER_WIDTHS, _FRONTIER_WIDTHS))
_NODES_PER_WIDTH = 3
# Nodes per block of whole rows in a trapezoid level.  A row refines only
# while its next level fits, so this bounds every call's memory.
_MAX_POINTS_PER_CALL = 2**18


class TransformSample(NamedTuple):
    """One evaluation of log f along a sweep.

    psi is the regime variable tied to s by s = psi**((1-b)/b) for the owning
    parameters (NaN when the target carries no power exponent). quad_error is
    an absolute error estimate on log_f (0 for an exact sum); tol_met records
    whether the requested tolerance was reached within the node budget.
    """

    psi: float
    s: float
    log_f: float
    quad_error: float
    tol_met: bool = True


def _g_rows(t, c: float, s, u_star, v) -> np.ndarray:
    """g(u) + v at u = u*·e^v, elementwise over s, u* and v (broadcast);
    NaN (e.g. inf - inf) reads as -inf."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = u_star * np.exp(v)
        vals = np.asarray(t.log_amplitude(s * u) + c * u, dtype=float)
        vals += v
        np.fmax(vals, -np.inf, out=vals)
    return vals


def _require_finite_arg(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v:g}")


def _require_interior_peak(t, c: float) -> None:
    """Refuse a target whose log-integrand g has no interior maximum.

    For q = a*x**b, perturbed or not, g has one exactly when a*b*c < 0 and
    a*b*(b-1) < 0.  Otherwise g is monotone: decreasing and integrable
    (NoInteriorPeak) when c < 0 and a = 0 (where g = c*u) or a < 0 < b, else
    not integrable.
    """
    a, b = getattr(t, "a", None), getattr(t, "b", None)
    if b is None or a is None:
        raise ValidationError(f"the engine takes power targets only, got {type(t).__name__}")
    if b in (0.0, 1.0):
        raise DegenerateExponent(f"b = {b:g} leaves g without an interior maximum")
    if a * b * c < 0.0 and a * b * (b - 1.0) < 0.0:
        return
    if c < 0.0 and (a == 0.0 or a < 0.0 < b):
        raise NoInteriorPeak("log-integrand decreasing on u > 0; no interior maximum")
    raise NotIntegrable(f"transform diverges for a={a:g}, b={b:g}, c={c:g}")


def locate_peak(t, c: float, s):
    """Stationary point u* = x_peak*psi(s) of g for the pure power a*x**b of
    the target: its argmax in closed form, near a perturbed target's argmax,
    which no search refines (see the module docstring).  Given a sweep of s,
    returns the list of the rows' u*; the first failing row raises its own.

    Raises:
        DomainError: s not positive and finite, or c not finite.
        NoInteriorPeak: integrand monotone.
        NotIntegrable: the signs of a, b and c make the transform diverge.
        NumericOverflow: psi or the stationary point is outside the float range.
    """
    sweep, x_peak, peaks = _is_sweep(s), None, []
    for si in map(float, s if sweep else (s,)):
        _require_s(si)
        if x_peak is None:  # what no row's s changes is checked after row 0's s
            _require_finite_arg("c", c)
            _require_interior_peak(t, c)
            x_peak = _x_peak(t.a, t.b, c)
        u = x_peak * psi_for_s(t.b, si)
        if not 0.0 < u < math.inf:
            raise NumericOverflow(f"stationary point of g at s={si:g} is not representable")
        peaks.append(u)
    return peaks if sweep else peaks[0]


def _row_blocks(sizes: list[int]):
    """(i, j) spans of whole rows, in order, of at most _MAX_POINTS_PER_CALL
    nodes together, rows i..j-1 holding sizes[i..j-1] nodes."""
    i = 0
    while i < len(sizes):
        j, size = i + 1, sizes[i]
        while j < len(sizes) and size + sizes[j] <= _MAX_POINTS_PER_CALL:
            j, size = j + 1, size + sizes[j]
        yield i, j
        i = j


def _prepare_windows(t, c: float, s: np.ndarray):
    """Centre each row on locate_peak's u* and extend its v-window to the first
    probed edges -+k*h, h the row's step, where the v-integrand is
    FRONTIER_DROP nats below m = g(u*), which is at most the peak of g; returns
    (u_star, v_lo, v_hi, m, n0), n0 being the row's first panel count.  A row's
    centre and all its candidate edges are one block of g.

    Raises:
        NumericOverflow: g(u*), or a missed side's largest probe, is not a finite float.
        DomainError: no edge within _MAX_WINDOW_WIDTHS widths qualifies, the
            integrand's peak lying beyond u*'s window; the message gives the
            largest probed g + v - g(u*) on that side and its width.
    """
    u_star = np.array(locate_peak(t, c, s))
    bc = (t.b - 1.0) * c
    with np.errstate(divide="ignore", over="ignore"):  # bc*u* = 0 gives h = 1, inf the floor
        # A (b-1)*c that overflows alone multiplies c*u* instead.
        bcu = bc * u_star if math.isfinite(bc) else (t.b - 1.0) * (c * u_star)
        h = np.minimum(1.0, np.maximum(_MIN_STEP, 1.0 / np.sqrt(np.abs(bcu))))
    vals = np.empty((s.size, _CENTRE_AND_EDGES.size))
    for i, j in _row_blocks([_CENTRE_AND_EDGES.size] * s.size):
        v = h[i:j, None] * _CENTRE_AND_EDGES
        vals[i:j] = _g_rows(t, c, s[i:j, None], u_star[i:j, None], v)
    m = vals[:, 0].copy()
    if not np.isfinite(m).all():
        bad = s[~np.isfinite(m)][0]
        raise NumericOverflow(f"peak value g(u*) at s={bad:g} is not a finite float")
    below = (vals[:, 1:] - m[:, None] < -FRONTIER_DROP).reshape(s.size, 2, -1)
    reached = below.any(axis=2)
    if not reached.all():
        row, k = np.argwhere(~reached)[0]  # the first row's missed side, left first
        rise, side = vals[row, 1:].reshape(2, -1)[k] - m[row], ("left", "right")[k]
        where = f"{_FRONTIER_WIDTHS[rise.argmax()]:g} widths {side} of u*"
        if rise.max() == math.inf:  # an overflowed probe, not a peak beyond the window
            raise NumericOverflow(f"probed g + v at s={s[row]:g}, {where}, is not a finite float")
        raise DomainError(
            f"{side} frontier not reached within {_MAX_WINDOW_WIDTHS} widths: largest probed "
            f"g + v - g(u*) {rise.max():.4g} nats, {where}")
    edge = _FRONTIER_WIDTHS[below.argmax(axis=2)]  # first qualifying edge per side
    n0 = (_NODES_PER_WIDTH * (edge[:, 0] + edge[:, 1]).astype(int)).tolist()
    return u_star, -h * edge[:, 0], h * edge[:, 1], m, n0


def _trapezoid_rows(t, c, s, u_star, v_lo, v_hi, m, n: list[int]):
    """log of the shifted trapezoid estimates of int exp(g(u*e^v) + v) dv on
    n[i] and n[i] // 2 panels for row i (n[i] even), from one evaluation of g
    on n[i] panels; returns the lists (fine, coarse) of row estimates.

    Row i's n[i] + 1 nodes follow row i-1's, in blocks of whole rows of at
    most _MAX_POINTS_PER_CALL nodes, and are np.linspace(v_lo[i], v_hi[i],
    n[i] + 1) by linspace's own expressions.  Node 2j, 2j*((hi-lo)/n), equals
    j*((hi-lo)/(n/2)) bit for bit, so the even nodes are the coarse level's.
    A block is one buffer of its rows' values of g - m, each row after a pad
    slot of -inf; one maximum.reduceat gives each row's peak.  reduceat adds
    a segment's first element to numpy's pairwise sum of the rest, so a fine
    row, led by the pad's exp(-inf) = 0, equals np.add.reduce of the row, a
    batch of one, bit for bit.  A row's n[i] + 2 slots are even in number, so
    its even nodes, both ends included, sit at odd slots: one add.reduceat of
    the odd slots sums the coarse rows under the fine peaks.  A coarse sum
    that underflows to 0 reads -inf.
    """
    fine_rows, coarse_rows = [], []
    for i, j in _row_blocks([k + 1 for k in n]):
        lo, hi, mi, ni = v_lo[i:j], v_hi[i:j], m[i:j], np.array(n[i:j])
        width = ni + 1
        start = np.cumsum(width) - width
        # np.repeat(x, width) gives each node its row's x.  In place from
        # here: a fresh large array pays page faults.
        vs = np.arange(start[-1] + width[-1], dtype=float)
        vs -= np.repeat(start, width)
        vs *= np.repeat((hi - lo) / (width - 1), width)
        vs += np.repeat(lo, width)
        vs[start + width - 1] = hi
        vals = _g_rows(t, c, np.repeat(s[i:j], width), np.repeat(u_star[i:j], width), vs)
        del vs
        vals -= np.repeat(mi, width)
        slots = ni + 2
        pad = start + np.arange(j - i)
        buf, keep = np.empty(vals.size + j - i), np.ones(vals.size + j - i, dtype=bool)
        keep[pad] = False
        buf[pad] = -np.inf
        buf[keep] = vals
        del vals, keep
        peak = np.maximum.reduceat(buf, pad)
        buf -= np.repeat(peak, slots)
        np.exp(buf, out=buf)
        buf[pad + 1] *= 0.5
        buf[pad + slots - 1] *= 0.5
        fine = np.add.reduceat(buf, pad) * (hi - lo) / ni
        coarse = np.add.reduceat(buf[1::2], pad // 2) * (hi - lo) / (ni // 2)
        del buf  # before the next block allocates its own
        for a, f, h in zip((mi + peak).tolist(), fine.tolist(), coarse.tolist()):
            fine_rows.append(a + math.log(f))
            coarse_rows.append(a + math.log(h) if h else -math.inf)
    return fine_rows, coarse_rows


def _refine_rows(t, c, s, u_star, v_lo, v_hi, m, n0: list[int], tol: float):
    """Interval-halving refinement from n0 panels; error = difference of
    successive levels.  Each step is one _trapezoid_rows evaluation of the
    open rows' fine level of 2n panels, which gives the coarse level of n
    panels off its even nodes.  A row leaves once it meets tol, or with
    tol_met=False once its next fine level would exceed _MAX_POINTS_PER_CALL
    nodes (n0 is at most 6 * _MAX_WINDOW_WIDTHS, so the first step always
    fits).  Returns (log_integral, quad_error, tol_met) lists."""
    log_integral, quad_error, tol_met = [0.0] * s.size, [0.0] * s.size, [False] * s.size
    rows, group, n = list(range(s.size)), [s, u_star, v_lo, v_hi, m], n0
    while True:
        n = [2 * k for k in n]
        fine, coarse = _trapezoid_rows(t, c, *group, n)
        for i, a, b in zip(rows, coarse, fine):
            log_integral[i], quad_error[i], tol_met[i] = b, abs(b - a), abs(b - a) <= tol
        keep = [j for j, (i, k) in enumerate(zip(rows, n))
                if not tol_met[i] and 2 * k < _MAX_POINTS_PER_CALL]
        if not keep:
            break
        rows, n = ([v[j] for j in keep] for v in (rows, n))
        group = [v[keep] for v in group]
    return log_integral, quad_error, tol_met


def _transform_rows(t, c: float, offset: float, s: list, tol: float, psi):
    """log_transform at each s of a batch, with its psi (or None): a measure
    target takes its exact sum, any other target one engine pass for all
    rows."""
    for si in s:
        _require_s(si)
    if offset < 0.0:
        raise DomainError("offset must be >= 0")
    _require_finite_arg("offset", offset)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol:g}")
    _require_finite_arg("c", c)
    if not s:
        return []
    if isinstance(t, MeasureTarget):
        log_integral = [_log_integral(t.measure, t.kind, c, si) for si in s]
        quad_error, tol_met = [0.0] * len(s), [True] * len(s)
    else:
        rows = np.array(s, dtype=float)
        window = _prepare_windows(t, c, rows)
        # A Python float tol makes each tol_met a Python bool.
        log_integral, quad_error, tol_met = _refine_rows(t, c, rows, *window, float(tol))
        # int_0^inf du = u* int dv: log u* enters once per row.
        log_integral = [li + math.log(u) for li, u in zip(log_integral, window[0].tolist())]
    if offset > 0.0:
        log_f = np.logaddexp(math.log(offset), np.array(log_integral, dtype=float)).tolist()
    else:
        log_f = log_integral
    b, samples = getattr(t, "b", None), []
    for si, psi_i, lf, err, met in zip(s, psi, log_f, quad_error, tol_met):
        if psi_i is None:
            psi_i = float("nan") if b is None else psi_for_s(b, si)
        samples.append(TransformSample(float(psi_i), float(si), lf, err, met))
    return samples


def log_transform(t, c: float, offset: float, s: float, tol: float = 1e-8) -> TransformSample:
    """Evaluate log f(s) = log(offset + int_0^inf P(u*s) e^{c*u} du).

    A tabulated measure's transform is an exact sum (quad_error 0).  For a
    power target tol is the target absolute error on log f; if the next
    refinement level would exceed _MAX_POINTS_PER_CALL nodes first, the best
    estimate is returned with ``tol_met=False``.

    Raises:
        NotIntegrable: integrand diverges at an endpoint.
        NoInteriorPeak: power integrand monotone (see locate_peak).
        EmptyMeasure: measure target without atoms.
        DomainError: s a sweep; s, or tol, not positive and finite, offset
            < 0 or not finite, or c not finite; or a power target's integrand
            does not fall FRONTIER_DROP nats below g(u*) within
            _MAX_WINDOW_WIDTHS widths of u* on one side (see _prepare_windows).
    """
    if _is_sweep(s):
        raise DomainError("log_transform takes one s, not a sweep; sample_at_psi takes a sweep")
    return _transform_rows(t, c, offset, [s], tol, [None])[0]


def sample_at_psi(p: UnifiedParams, t, psi, tol: float = 1e-8):
    """Evaluate log f at the transform argument matching regime variable psi.

    Given a sweep of psi, evaluates all its points in one batched engine
    pass and returns the list of their samples, each equal to the point's
    sample on its own; a sweep raises what its first failing point raises.

    Raises:
        InconsistentInputs: a power target whose a or b is not p's; s comes
            from p.b, so it would be sampled off its own regime grid.
    """
    a, b = getattr(t, "a", None), getattr(t, "b", None)
    if a is not None and b is not None and (a, b) != (p.a, p.b):
        raise InconsistentInputs("target log-amplitude is not the validated (a, b) power")
    sweep = _is_sweep(psi)
    psis = list(psi) if sweep else [psi]
    try:
        samples = _transform_rows(t, p.c, p.offset, [s_for_psi(p.b, x) for x in psis], tol, psis)
    except Exception:
        # Rows fail at different engine stages: a sweep replays its points one
        # by one so that its first failing point raises its own exception.
        for x in psis if len(psis) > 1 else ():
            sample_at_psi(p, t, x, tol)
        raise
    return samples if sweep else samples[0]
