"""Empirical growth-index estimation and end-to-end equivalence verification.

Two estimators live here:

* the log-quotient index tau_hat(x) = log U(x) / log(x), which converges to
  the growth index exactly for the class of functions pinched between
  x**(tau-eps) and x**(tau+eps) for every eps > 0, together with the
  finite-grid trajectory diagnostic for that pinching;
* a least-squares fit of log|log f| against log(lambda) over the tail of a
  geometric sweep, recovering the transform-side exponent and coefficient.

`verify_equivalence` ties the machinery together: sweep the transform over a
geometric psi grid, compare against the closed-form predictions, fit the
exponent, and map the fit back to the primal parameters.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadRange,
    DegenerateWindow,
    DomainError,
    InconsistentInputs,
    InsufficientSpan,
    NumericOverflow,
    SignChange,
    TauberError,
    ValidationError,
)
from .measures import _geometric_grid
from .params import UnifiedParams, recover_primal
from .transform import TransformSample, _predictions, sample_at_psi

__all__ = [
    "EvalGrid",
    "make_grid",
    "AsymptoticFit",
    "fit_exponent",
    "CkIndexResult",
    "ck_index",
    "TrendVerdict",
    "EpsilonCheck",
    "ClassMDiagnostic",
    "class_m_check",
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


@dataclass(frozen=True)
class EvalGrid:
    """Strictly increasing geometric psi grid with at least 8 points, held as
    a tuple of Python floats whatever sequence it was built from."""

    psi_values: tuple[float, ...]

    def __post_init__(self):
        v = tuple(map(float, self.psi_values))
        object.__setattr__(self, "psi_values", v)
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
            f"need 1 <= psi_min < psi_max, got psi_min={psi_min:g}, psi_max={psi_max:g}"
        )
    if not psi_max < math.inf:
        raise BadRange(f"psi_max must be finite, got {psi_max:g}")
    return EvalGrid(_geometric_grid(psi_min, psi_max, n))


@dataclass(frozen=True)
class AsymptoticFit:
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
    coefficient = float(np.add.reduce(log_f / lam**slope) / k)
    return AsymptoticFit(
        exponent_hat=slope,
        coefficient_hat=coefficient,
        residual=residual,
        window=(start, n),
    )


@dataclass(frozen=True)
class CkIndexResult:
    """Pointwise log-quotient index estimates with a convergence summary."""

    points: tuple[tuple[float, float], ...]
    tau_at_top: float
    spread_last_quarter: float


def ck_index(samples: list[tuple[float, float]]) -> CkIndexResult:
    """tau_hat(x) = log(U(x)) / log(x) for finite samples (x > 1, U > 0).

    The summary reports tau_hat at the largest x and the spread (max - min)
    over the last quarter of the samples, samples taken in increasing x.
    """
    if not samples:
        raise DomainError("need at least one sample")
    points = []
    for x, u in samples:
        if not (math.isfinite(x) and math.isfinite(u)):
            raise DomainError(f"samples must be finite, got ({x:g}, {u:g})")
        if not x > 1.0:
            raise DomainError(f"x must be > 1, got {x:g}")
        if not u > 0.0:
            raise DomainError(f"U must be > 0, got {u:g}")
        points.append((float(x), math.log(u) / math.log(x)))
    points.sort(key=lambda p: p[0])
    taus = [t for _, t in points]
    quarter = max(1, len(points) // 4)
    tail = taus[-quarter:]
    return CkIndexResult(
        points=tuple(points),
        tau_at_top=taus[-1],
        spread_last_quarter=max(tail) - min(tail),
    )


class TrendVerdict(enum.Enum):
    TENDS_TO_ZERO = "tends-to-zero"
    TENDS_TO_INFINITY = "tends-to-infinity"
    INCONCLUSIVE = "inconclusive"


# Deterministic finite-grid limit rule: a trajectory "tends to zero" when its
# last quarter is strictly decreasing and the final value has dropped below
# 1e-2 of the first value; mirrored for "tends to infinity".
_TREND_FACTOR_LOG = math.log(100.0)


def _trend_verdict(log_traj: np.ndarray) -> TrendVerdict:
    quarter = max(2, len(log_traj) // 4)
    tail = log_traj[-quarter:]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    increasing = bool(np.all(np.diff(tail) > 0.0))
    drop = log_traj[0] - log_traj[-1]
    if decreasing and drop > _TREND_FACTOR_LOG:
        return TrendVerdict.TENDS_TO_ZERO
    if increasing and -drop > _TREND_FACTOR_LOG:
        return TrendVerdict.TENDS_TO_INFINITY
    return TrendVerdict.INCONCLUSIVE


@dataclass(frozen=True)
class EpsilonCheck:
    """Verdicts on the trajectories U/x**(tau+eps) (upper) and U/x**(tau-eps)
    (lower)."""

    epsilon: float
    upper_verdict: TrendVerdict
    lower_verdict: TrendVerdict

    @property
    def passed(self) -> bool:
        return (
            self.upper_verdict is TrendVerdict.TENDS_TO_ZERO
            and self.lower_verdict is TrendVerdict.TENDS_TO_INFINITY
        )


@dataclass(frozen=True)
class ClassMDiagnostic:
    """Index diagnostic: is U consistent with pinching index tau?  estimate is
    the ck_index of the samples it was computed from."""

    tau: float
    estimate: CkIndexResult
    epsilon_checks: tuple[EpsilonCheck, ...]

    @property
    def consistent(self) -> bool:
        return all(chk.passed for chk in self.epsilon_checks)


_MIN_SPAN_DECADES = 3.0


def class_m_check(
    samples: list[tuple[float, float]],
    tau: float,
    epsilons: tuple[float, ...] = (0.5, 1.0),
) -> ClassMDiagnostic:
    """Finite-grid check of U(x)/x**(tau+eps) -> 0 and U(x)/x**(tau-eps) -> inf.

    Requires at least 8 samples spanning at least 3 decades in x, and at least
    one epsilon.  Verdicts follow the deterministic trend rule, so results are
    reproducible.  The diagnostic carries the samples' ck_index as estimate.

    Raises:
        DomainError: tau is not finite, or a sample that ck_index refuses.
        ValidationError: no epsilon, or one that is not positive and finite.
        InsufficientSpan: fewer than 8 samples, or a span under 3 decades.
        NumericOverflow: a log trajectory leaves the float range.
    """
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau:g}")
    if not epsilons:
        raise ValidationError("need at least one epsilon")
    if len(samples) < _MIN_GRID_POINTS:
        raise InsufficientSpan(f"need >= {_MIN_GRID_POINTS} samples, got {len(samples)}")
    estimate = ck_index(samples)  # validates x > 1 and U > 0
    xs, us = np.array(sorted(samples, key=lambda xu: xu[0]), dtype=float).T.copy()
    if xs[-1] / xs[0] < 10.0**_MIN_SPAN_DECADES:
        raise InsufficientSpan(
            f"samples span {math.log10(xs[-1] / xs[0]):.2f} decades, need >= "
            f"{_MIN_SPAN_DECADES:g}"
        )
    log_u = np.log(us)
    log_x = np.log(xs)
    checks = []
    for eps in epsilons:
        if not 0.0 < eps < math.inf:
            raise ValidationError(f"epsilons must be positive and finite, got {eps:g}")
        with np.errstate(over="ignore", invalid="ignore"):
            upper = log_u - (tau + eps) * log_x
            lower = log_u - (tau - eps) * log_x
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise NumericOverflow(
                f"log U/x**(tau -+ eps) at tau={tau:g}, eps={eps:g} is not a finite float")
        checks.append(
            EpsilonCheck(
                epsilon=float(eps),
                upper_verdict=_trend_verdict(upper),
                lower_verdict=_trend_verdict(lower),
            )
        )
    return ClassMDiagnostic(tau=float(tau), estimate=estimate, epsilon_checks=tuple(checks))


@dataclass(frozen=True)
class CheckResult:
    """One named verification check; limit is None for informational rows."""

    name: str
    value: float
    limit: float | None
    passed: bool | None


@dataclass(frozen=True)
class EquivalenceReport:
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
    notes: tuple[str, ...] = field(default_factory=tuple)
    inverse_passed: bool = False

    @property
    def passed(self) -> bool:
        """Every bounded check passed; informational rows do not count."""
        return all(c.passed for c in self.checks if c.limit is not None)

    @property
    def mid_ratio(self) -> float | None:
        """log f / (d*psi) at psi_mid, the number its ratio check bounds."""
        return None if self.mid_sample is None else _ratio(self.params, self.mid_sample)

    @property
    def recovered_gaps(self) -> tuple[float, float] | None:
        """Relative gaps of a_hat and b_hat, the numbers the inverse checks bound."""
        p, a, b = self.params, self.a_hat, self.b_hat
        return None if a is None or b is None else (_rel_gap(a, p.a), _rel_gap(b, p.b))


def _ratio(p: UnifiedParams, sample: TransformSample) -> float:
    return sample.log_f / (p.d * sample.psi)


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


def _target_matches(p: UnifiedParams, t) -> bool:
    return getattr(t, "a", None) == p.a and getattr(t, "b", None) == p.b


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

    The report always carries the full sample table; failed stages are
    recorded as failed checks instead of raising.
    """
    if not _target_matches(p, t):
        raise InconsistentInputs(
            "target log-amplitude is not the validated (a, b) power"
        )
    psi_lo, psi_hi = grid.psi_values[0], grid.psi_values[-1]
    mid = (_PSI_MID,) if psi_lo <= _PSI_MID <= psi_hi else ()
    samples = sample_at_psi(p, t, grid.psi_values + mid, tol=quad_tol)
    notes = [
        f"quadrature tolerance not met at psi={s.psi:g} (quad_error {s.quad_error:.3g})"
        for s in samples if not s.tol_met
    ]
    mid_sample = samples.pop() if mid else None
    psis = [s.psi for s in samples]
    lead = tuple(_predictions(p, psis, "leading"))
    corr = tuple(_predictions(p, psis, "corrected"))
    ratios = tuple(s.log_f / ld for s, ld in zip(samples, lead))

    checks: list[CheckResult] = []

    def bounded(name: str, value: float, limit: float) -> bool:
        # A NaN value (a refused fit or inverse map) fails the comparison.
        checks.append(CheckResult(name, value, limit, value <= limit))
        return checks[-1].passed

    if mid_sample is not None:
        bounded(f"ratio_dev_at_psi_{_PSI_MID:g}", abs(_ratio(p, mid_sample) - 1.0),
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
