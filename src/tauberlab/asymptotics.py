"""End-to-end equivalence verification over a geometric sweep.

A least-squares fit of log|log f| against log(lambda) over the tail of the
sweep recovers the transform-side exponent and coefficient.
`verify_equivalence` ties the machinery together: sweep the transform over a
geometric psi grid, compare against the closed-form predictions, fit the
exponent, and map the fit back to the primal parameters.  The growth-index
estimators are in `index`.
"""

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    BadRange,
    DegenerateWindow,
    DomainError,
    NumericOverflow,
    SignChange,
    TauberError,
    _checked,
)
from .measures import _geometric_grid
from .params import UnifiedParams, predict_log_f, recover_primal
from .transform import TransformSample, sample_at_psi

__all__ = [
    "EvalGrid",
    "make_grid",
    "AsymptoticFit",
    "fit_exponent",
    "CheckResult",
    "EquivalenceReport",
    "evaluate_sweep",
    "verify_equivalence",
]

_MIN_GRID_POINTS = 8
# The stated targets of the equivalence checks: ratio gaps |log f/(d*psi) - 1|
# at _PSI_MID and at the grid top, |log f - corrected prediction| in nats at
# the top, and relative gaps of the fitted exponent and the recovered (a, b).
_PSI_MID = 100.0
_RATIO_RTOL_MID = 0.07
_RATIO_RTOL_TOP = 0.015
_CORRECTED_ABS_TOP = 0.2
_EXPONENT_RTOL = 0.03
_INVERSE_RTOL = 0.10


class _EvalGridFields(NamedTuple):
    psi_values: tuple[float, ...]


@_checked
class EvalGrid(_EvalGridFields):
    """Strictly increasing geometric psi grid with at least 8 points, held as
    a tuple of Python floats whatever sequence it was built from.  Its length
    is the number of psi values."""

    __slots__ = ()

    def __new__(cls, psi_values: tuple[float, ...]):
        return super().__new__(cls, tuple(map(float, psi_values)))

    def _check(self):
        v = self.psi_values
        if len(v) < _MIN_GRID_POINTS:
            raise BadRange(f"grid needs >= {_MIN_GRID_POINTS} points, got {len(v)}")
        if not all(math.isfinite(x) for x in v):
            raise BadRange("psi values must be finite")
        if v[0] < 1.0 or any(hi <= lo for lo, hi in zip(v, v[1:])):
            raise BadRange("psi values must be strictly increasing and >= 1")
        ratios = [hi / lo for lo, hi in zip(v, v[1:])]
        if max(ratios) - min(ratios) > 1e-12 * max(ratios):
            raise BadRange("psi values must be geometrically spaced")

    def __len__(self) -> int:
        return len(self.psi_values)


def make_grid(psi_min: float, psi_max: float, n: int) -> EvalGrid:
    """n geometric points from psi_min to psi_max inclusive, psi_min >= 1."""
    try:
        n = operator.index(n)
    except TypeError:
        raise BadRange(f"n must be an integer, got {n!r}") from None
    if n < _MIN_GRID_POINTS:
        raise BadRange(f"n must be >= {_MIN_GRID_POINTS}, got {n}")
    if not (1.0 <= psi_min < psi_max):
        raise BadRange(
            f"need 1 <= psi_min < psi_max, got psi_min={psi_min!r}, psi_max={psi_max!r}"
        )
    if not psi_max < math.inf:
        raise BadRange(f"psi_max must be finite, got {psi_max:g}")
    return EvalGrid(_geometric_grid(psi_min, psi_max, n))


class AsymptoticFit(NamedTuple):
    """Estimated transform-side exponent and coefficient.

    residual is the maximum absolute deviation of the fitted line from
    log|log f| over the tail window [window[0], window[1]) in sample indices.
    """

    exponent_hat: float
    coefficient_hat: float
    residual: float
    window: tuple[int, int]


def fit_exponent(samples: list[TransformSample]) -> AsymptoticFit:
    """Least-squares exponent of log f ~ coeff * lambda**exponent on the tail.

    Fits log|log f| against log(lambda=s) over the last half of the samples
    (samples ordered along the sweep).  The sign of log f is reattached to the
    coefficient, which is the tail mean of log_f / lambda**exponent_hat.

    Raises:
        DegenerateWindow: fewer than 8 samples, or lambda constant in the window.
        SignChange: log f changes sign or vanishes inside the window.
        DomainError: a window sample's s is not positive and finite, or its log f is infinite.
        NumericOverflow: the coefficient is not a finite float.
    """
    n = len(samples)
    if n < _MIN_GRID_POINTS:
        raise DegenerateWindow(f"need >= {_MIN_GRID_POINTS} samples, got {n}")
    start = n - n // 2
    window = samples[start:]
    values = [t.log_f for t in window]
    if any(y == 0.0 or math.isnan(y) for y in values):
        raise SignChange("log f vanishes inside the fit window")
    if any((y > 0.0) != (values[0] > 0.0) for y in values):
        raise SignChange("log f changes sign inside the fit window")
    if any(not 0.0 < t.s < math.inf or math.isinf(t.log_f) for t in window):
        raise DomainError("fit window needs a positive finite s and a finite log f per sample")
    # The ufuncs are called directly: np.add.reduce(v) / k is v.mean() and
    # x.max() - x.min() is np.ptp(x), bit for bit, without their wrappers.
    k = len(window)
    log_f = np.asarray(values)
    lam = np.asarray([t.s for t in window])
    x = np.log(lam)
    if x.max() - x.min() == 0.0:
        raise DegenerateWindow("lambda constant across the fit window")
    y = np.log(np.abs(log_f))
    x_mean, y_mean = np.add.reduce(x) / k, np.add.reduce(y) / k
    xc = x - x_mean
    slope = float(np.dot(xc, y - y_mean) / np.dot(xc, xc))
    intercept = float(y_mean - slope * x_mean)
    residual = float(np.abs(y - (intercept + slope * x)).max())
    with np.errstate(over="ignore", divide="ignore"):
        coefficient = float(np.add.reduce(log_f / lam**slope) / k)
    if not math.isfinite(coefficient):
        raise NumericOverflow(f"fit coefficient {coefficient!r} is not a finite float")
    return AsymptoticFit(
        exponent_hat=slope,
        coefficient_hat=coefficient,
        residual=residual,
        window=(start, n),
    )


class CheckResult(NamedTuple):
    """One named verification check; limit is None for informational rows."""

    name: str
    value: float
    limit: float | None
    passed: bool | None


class EquivalenceReport(NamedTuple):
    """Everything a verification run produced, including partial results.

    inverse_passed is the inverse direction's verdict: the primal pair was
    recovered and both of its relative gaps are within the 10% target.
    """

    params: UnifiedParams
    target_label: str
    grid: EvalGrid
    samples: tuple[TransformSample, ...]
    predictions_leading: tuple[float, ...]
    predictions_corrected: tuple[float, ...]
    ratios: tuple[float, ...]
    mid_sample: TransformSample | None
    fit: AsymptoticFit | None
    a_hat: float | None
    b_hat: float | None
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()
    inverse_passed: bool = False

    @property
    def passed(self) -> bool:
        """Every bounded check passed; informational rows do not count."""
        return all(c.passed for c in self.checks if c.limit is not None)

    @property
    def mid_ratio(self) -> float | None:
        """log f / (d*psi) at psi_mid, the number its ratio check bounds."""
        ms = self.mid_sample
        return None if ms is None else ms.log_f / predict_log_f(self.params, ms.psi, "leading")

    @property
    def recovered_gaps(self) -> tuple[float, float] | None:
        """Relative gaps of a_hat and b_hat, the numbers the inverse checks bound."""
        p, a, b = self.params, self.a_hat, self.b_hat
        return None if a is None or b is None else (_rel_gap(a, p.a), _rel_gap(b, p.b))


def _rel_gap(value: float, true: float) -> float:
    return abs(value - true) / abs(true)


def _monotone_check(ratios: tuple[float, ...]) -> CheckResult:
    """Every step of the ratios brings the ratio closer to 1; the value is the
    largest step of |ratio - 1|, NaN if any step is NaN (numpy's max rule)."""
    gaps = [abs(r - 1.0) for r in ratios]
    steps = [hi - lo for lo, hi in zip(gaps, gaps[1:])]
    value = math.nan if any(map(math.isnan, steps)) else max(steps, default=0.0)
    return CheckResult("monotone_ratio_last_half", value, 0.0, all(st < 0.0 for st in steps))


def evaluate_sweep(
    p: UnifiedParams,
    t,
    grid: EvalGrid,
    quad_tol: float = 1e-8,
) -> list[TransformSample]:
    """log f across the psi grid, all points in one batched engine pass."""
    return sample_at_psi(p, t, grid.psi_values, tol=quad_tol)


def verify_equivalence(
    p: UnifiedParams,
    t,
    grid: EvalGrid,
    quad_tol: float = 1e-8,
) -> EquivalenceReport:
    """Sweep, fit, and check the two-sided equivalence numerically.

    Forward direction: the sweep's log f must track d*psi within the stated
    ratio targets and approach it monotonically; the fitted exponent must match
    b/(1-b).  Inverse direction: mapping (coefficient_hat, exponent_hat, c)
    back through the stationary-point inversion must recover (a, b).

    The target is what sample_at_psi takes: a power target whose (a, b) is
    p's, or a MeasureTarget.  sample_at_psi refuses a power target with
    another (a, b), and the engine any other object (ValidationError).

    The report always carries the full sample table; failed stages are
    recorded as failed checks instead of raising.
    """
    psi_lo, psi_hi = grid.psi_values[0], grid.psi_values[-1]
    mid = (_PSI_MID,) if psi_lo <= _PSI_MID <= psi_hi else ()
    psis = grid.psi_values + mid
    samples = sample_at_psi(p, t, psis, tol=quad_tol)
    notes = [
        f"quadrature tolerance not met at psi={s.psi:g} (quad_error {s.quad_error:.3g})"
        for s in samples if not s.tol_met
    ]
    lead = predict_log_f(p, psis, "leading")  # the mid sample's too, popped with it
    mid_sample, mid_lead = (samples.pop(), lead.pop()) if mid else (None, None)
    lead, corr = tuple(lead), tuple(predict_log_f(p, grid.psi_values, "corrected"))
    ratios = tuple(s.log_f / ld for s, ld in zip(samples, lead))

    checks: list[CheckResult] = []

    def bounded(name: str, value: float, limit: float) -> bool:
        # A NaN value (a refused fit or inverse map) fails the comparison.
        checks.append(CheckResult(name, value, limit, value <= limit))
        return checks[-1].passed

    if mid_sample is not None:
        bounded(f"ratio_dev_at_psi_{_PSI_MID:g}", abs(mid_sample.log_f / mid_lead - 1.0),
                _RATIO_RTOL_MID)
    else:
        notes.append(f"psi_mid={_PSI_MID:g} outside grid; mid check skipped")
    bounded(f"ratio_dev_at_psi_{psi_hi:g}", abs(ratios[-1] - 1.0), _RATIO_RTOL_TOP)
    # Past |log f| = 2**50 an ulp of a double passes 0.2 nats: the limit takes
    # 4 ulp of the larger value, so roundoff alone does not fail the check.
    top = max(abs(samples[-1].log_f), abs(corr[-1]))
    bounded("corrected_gap_at_top", abs(samples[-1].log_f - corr[-1]),
            max(_CORRECTED_ABS_TOP, 4.0 * math.ulp(top)))
    checks.append(_monotone_check(ratios[len(samples) - len(samples) // 2 - 1 :]))

    fit = a_hat = b_hat = None
    inverse_passed = False
    try:
        fit = fit_exponent(samples)
    except TauberError as exc:
        notes.append(f"fit failed: {exc}")
    exp_gap = math.nan if fit is None else _rel_gap(fit.exponent_hat, p.dual_exp)
    bounded("exponent_rel_gap", exp_gap, _EXPONENT_RTOL)
    if fit is not None:
        coeff_gap = _rel_gap(fit.coefficient_hat, p.d)
        checks.append(CheckResult("coefficient_rel_gap", coeff_gap, None, None))
        try:
            a_hat, b_hat = recover_primal(fit.coefficient_hat, fit.exponent_hat, p.c)
        except TauberError as exc:
            notes.append(f"inverse map failed: {exc}")
            bounded("inverse_a_rel_gap", math.nan, _INVERSE_RTOL)
        else:
            inverse_passed = all([
                bounded(f"inverse_{name}_rel_gap", _rel_gap(hat, true), _INVERSE_RTOL)
                for name, hat, true in (("a", a_hat, p.a), ("b", b_hat, p.b))
            ])

    return EquivalenceReport(
        params=p,
        target_label=t.label(),
        grid=grid,
        samples=tuple(samples),
        predictions_leading=lead,
        predictions_corrected=corr,
        ratios=ratios,
        mid_sample=mid_sample,
        fit=fit,
        a_hat=a_hat,
        b_hat=b_hat,
        checks=tuple(checks),
        notes=tuple(notes),
        inverse_passed=inverse_passed,
    )
