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
     -+k*h probed, k every width up to 9 and then about 20% apart, in two
     probe calls (to 16 widths, then to the cap), where the v-integrand is
     40 nats below its value at u*,
  4. integrates exp(g(u) + v - m), m = g(u*), by a nested trapezoid rule with
     interval halving from _NODES_PER_WIDTH panels per width; the error
     estimate is the difference between successive levels, and a row stops
     refining once it meets the tolerance.

So the resolution is the same at every psi.  On a pure power and on both
perturbed families, whose delta is analytic in log x, the v-integrand is
analytic in a strip about the real axis, where the trapezoid rule converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014, section 5).  Every
call evaluates at most _MAX_POINTS_PER_CALL nodes: a row whose next level
would not fit stops refining with tol_met=False and its last level
difference as quad_error.  No search refines u*.
s = psi**((1-b)/b) is not a float at large psi once |b| is below about
0.05, so the engine, which works at s, refuses those points (NumericOverflow).

Every step runs on all rows (s values) of a sweep at once: the centre value,
each frontier probe call and each trapezoid level is one vector evaluation
of g over the rows still open, a level laying its rows' nodes end to end in
one flat array.  Each row sees the nodes, float expressions and summation
order of a batch of one, so a sweep equals its points evaluated one by one.
log f = m + log u* + log(integral), combined with the offset in log space.
"""

from __future__ import annotations

import itertools
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
from .params import UnifiedParams, _x_peak, psi_for_s, s_for_psi
from .targets import MeasureTarget, TargetFunction

__all__ = [
    "TransformSample",
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

# Floor of the window step h.  One step lowers g by about |(b-1)*c*u*|*h**2/2,
# and g carries a roundoff of about eps*|c*u*|: below h = sqrt(eps) a step's
# own drop is smaller than the integrand's roundoff.
_MIN_STEP = 2.0**-26
_MAX_WINDOW_WIDTHS = 800
# Candidate frontier edges in widths from u*, 38 geometric steps to the cap.
# The first probe call reaches 16 widths (a Gaussian peak falls 40 nats in
# 9), the second the cap.
_FRONTIER_WIDTHS = np.array(
    sorted({math.ceil(_MAX_WINDOW_WIDTHS ** (j / 37)) for j in range(38)}), dtype=float)
_FIRST_FRONTIER_CHUNK = 12
_NODES_PER_WIDTH = 3
# Nodes per block of whole rows in a trapezoid level.  A row refines only
# while its next level fits, so this bounds every call's memory.
_MAX_POINTS_PER_CALL = 2**18


@dataclass(frozen=True)
class TransformSample:
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


def _g_rows(t: TargetFunction, c: float, s, u_star, v) -> np.ndarray:
    """g(u) + v at u = u*·e^v, elementwise over s, u* and v (broadcast);
    NaN (e.g. inf - inf) reads as -inf."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = u_star * np.exp(v)
        vals = np.asarray(t.log_amplitude(s * u) + c * u, dtype=float)
        vals += v
    vals[np.isnan(vals)] = -np.inf
    return vals


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


def locate_peak(t: TargetFunction, c: float, s):
    """Stationary point u* = x_peak*psi(s) of g for the pure power a*x**b of
    the target: its argmax in closed form, near a perturbed target's argmax,
    which no search refines (see the module docstring).  Given a 1-D array of
    s, returns the list of the rows' u*.

    Raises:
        DomainError: s <= 0.
        NoInteriorPeak: integrand monotone.
        NotIntegrable: the signs of a, b and c make the transform diverge.
        NumericOverflow: psi or the stationary point is outside the float range.
    """
    s_rows = np.array(s, dtype=float, ndmin=1)
    if not (s_rows > 0.0).all():
        raise DomainError("s must be positive")
    _require_interior_peak(t, c)
    b = t.power_exponent
    x_peak = _x_peak(t.a, b, c)
    peaks = [x_peak * psi_for_s(b, si) for si in s_rows.tolist()]
    bad = [si for si, u in zip(s_rows.tolist(), peaks) if not 0.0 < u < math.inf]
    if bad:
        raise NumericOverflow(f"stationary point of g at s={bad[0]:g} is not representable")
    return peaks if np.ndim(s) else peaks[0]


def _prepare_windows(t: TargetFunction, c: float, s: np.ndarray):
    """Centre each row on locate_peak's u* and extend its v-window to the first
    probed edges -+k*h, h the row's step, where the v-integrand is
    FRONTIER_DROP nats below m = g(u*), which is at most the peak of g; returns
    (u_star, v_lo, v_hi, m, n0), n0 being the row's first panel count.

    Raises:
        NumericOverflow: g(u*) is not a finite float.
        NotIntegrable: no edge within _MAX_WINDOW_WIDTHS widths qualifies.
    """
    u_star = np.array(locate_peak(t, c, s))
    r = s.size
    m = _g_rows(t, c, s, u_star, np.zeros(r))
    if not np.isfinite(m).all():
        bad = s[~np.isfinite(m)][0]
        raise NumericOverflow(f"peak value g(u*) at s={bad:g} is not a finite float")
    bc = (t.power_exponent - 1.0) * c
    h = [min(1.0, max(_MIN_STEP, 1.0 / math.sqrt(abs(bc * u)))) for u in u_star.tolist()]
    # Frontier q < r is row q's left one, q >= r row q - r's right one.
    step = np.array([-x for x in h] + h)
    edge, probes = [0.0] * 2 * r, list(range(2 * r))
    for widths in np.split(_FRONTIER_WIDTHS, [_FIRST_FRONTIER_CHUNK]):
        rows = [q % r for q in probes]
        below = _g_rows(t, c, s[rows, None], u_star[rows, None], step[probes, None] * widths)
        below = below - m[rows][:, None] < -FRONTIER_DROP
        for q, hit, j in zip(probes, below, below.argmax(axis=1).tolist()):
            edge[q] = float(widths[j]) if hit[j] else None
        probes = [q for q in probes if edge[q] is None]
        if not probes:
            n0 = [_NODES_PER_WIDTH * int(lo + hi) for lo, hi in zip(edge[:r], edge[r:])]
            return u_star, step[:r] * edge[:r], step[r:] * edge[r:], m, n0
    raise NotIntegrable(
        f"{'left' if probes[0] < r else 'right'} frontier not reached "
        f"within {_MAX_WINDOW_WIDTHS} widths"
    )


def _trapezoid_rows(t, c, s, u_star, v_lo, v_hi, m, n: list[int]) -> list[float]:
    """log of the shifted trapezoid estimate of int exp(g(u*e^v) + v) dv on
    n[i] panels for row i.

    Row i's n[i] + 1 nodes follow row i-1's in one flat array, in blocks of
    whole rows of at most _MAX_POINTS_PER_CALL nodes.  Row i
    takes np.linspace(v_lo[i], v_hi[i], n[i] + 1) by linspace's own
    expressions; its max and sum run over its own nodes, the sum by numpy's
    pairwise rule for a row of that length (np.add.reduceat's is not), so
    each row equals a batch of one bit for bit.
    """
    out, i = [], 0
    while i < len(n):
        j, size = i + 1, n[i] + 1
        while j < len(n) and size + n[j] + 1 <= _MAX_POINTS_PER_CALL:
            j, size = j + 1, size + n[j] + 1
        lo, hi, mi, ni = v_lo[i:j], v_hi[i:j], m[i:j], n[i:j]
        width = np.array(ni) + 1
        end = np.cumsum(width) - 1
        start = end - (width - 1)
        row = np.repeat(np.arange(j - i), width)  # each node's row
        # In place from here: a fresh large array pays page faults.
        vs = np.arange(size, dtype=float)
        vs -= start[row]
        vs *= ((hi - lo) / (width - 1))[row]
        vs += lo[row]
        vs[end] = hi
        vals = _g_rows(t, c, s[i:j][row], u_star[i:j][row], vs)
        vals -= mi[row]
        peak = np.maximum.reduceat(vals, start)
        vals -= peak[row]
        np.exp(vals, out=vals)
        vals[start] *= 0.5
        vals[end] *= 0.5
        total = []
        for nk, run in itertools.groupby(ni):  # rows of equal n sum as one block
            r, k = len(list(run)), start[len(total)]
            total += vals[k : k + r * (nk + 1)].reshape(r, nk + 1).sum(axis=1).tolist()
        out += [a + p + math.log(v * (h - l) / nk) for a, p, v, l, h, nk in
                zip(mi.tolist(), peak.tolist(), total, lo.tolist(), hi.tolist(), ni)]
        del vs, vals  # before the next block allocates its own
        i = j
    return out


def _refine_rows(t, c, s, u_star, v_lo, v_hi, m, n0: list[int], tol: float):
    """Interval-halving refinement from n0 panels; error = difference of
    successive levels.  Each level is one _trapezoid_rows call over the open
    rows.  A row leaves once it meets tol, or with tol_met=False once its
    next level would exceed _MAX_POINTS_PER_CALL nodes (n0 is at most
    6 * _MAX_WINDOW_WIDTHS, so the first two levels always fit).  Returns
    (log_integral, quad_error, tol_met) lists."""
    log_integral, quad_error, tol_met = [0.0] * s.size, [0.0] * s.size, [False] * s.size
    rows, group, n = list(range(s.size)), [s, u_star, v_lo, v_hi, m], n0
    cur = _trapezoid_rows(t, c, *group, n)
    while True:
        n = [2 * k for k in n]
        prev, cur = cur, _trapezoid_rows(t, c, *group, n)
        for i, a, b in zip(rows, prev, cur):
            log_integral[i], quad_error[i], tol_met[i] = b, abs(b - a), abs(b - a) <= tol
        keep = [j for j, (i, k) in enumerate(zip(rows, n))
                if not tol_met[i] and 2 * k < _MAX_POINTS_PER_CALL]
        if not keep:
            break
        rows, n, cur = ([v[j] for j in keep] for v in (rows, n, cur))
        group = [v[keep] for v in group]
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
    """Successive-refinement error estimates |I_k - I_{k-1}| on log f, from a
    deliberately coarse n0 panels: a diagnostic of the convergence rate.

    Raises:
        DomainError: the last level, n0 * 2**(levels - 1) panels, would
            evaluate more than _MAX_POINTS_PER_CALL nodes.
    """
    if n0 * 2 ** (levels - 1) + 1 > _MAX_POINTS_PER_CALL:
        raise DomainError(
            f"n0={n0}, levels={levels} exceeds {_MAX_POINTS_PER_CALL} nodes per level")
    row = np.array([s], dtype=float)
    window = _prepare_windows(t, c, row)[:-1]
    values = [_trapezoid_rows(t, c, row, *window, [n0 * 2**k])[0] for k in range(levels)]
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
    if rows.size and log_integral[0] is None:
        window = _prepare_windows(t, c, rows)
        log_integral, quad_error, tol_met = _refine_rows(t, c, rows, *window, tol)
        # int_0^inf du = u* int dv: log u* enters once per row.
        log_integral = [li + math.log(u) for li, u in zip(log_integral, window[0].tolist())]
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
    power target tol is the target absolute error on log f; if the next
    refinement level would exceed _MAX_POINTS_PER_CALL nodes first, the best
    estimate is returned with ``tol_met=False``.

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
    if not math.isfinite(psi):
        raise DomainError(f"psi must be finite, got {psi:g}")
    if order == "leading":
        return p.d * psi
    if order != "corrected":
        raise ValidationError(f"order must be 'leading' or 'corrected', got {order!r}")
    curvature = abs(p.saddle.curvature)
    return p.d * psi + 0.5 * math.log(psi) + 0.5 * math.log(2.0 * math.pi / curvature)


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
