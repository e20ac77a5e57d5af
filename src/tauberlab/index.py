"""Empirical growth-index estimators, after Cadena and Kratz.

Two estimators live here:

* the log-quotient index tau_hat(x) = log U(x) / log(x), which converges to
  the growth index exactly for the class of functions pinched between
  x**(tau-eps) and x**(tau+eps) for every eps > 0 (`ck_index`);
* the finite-grid trajectory diagnostic for that pinching: the verdicts on
  U(x)/x**(tau+eps) -> 0 and U(x)/x**(tau-eps) -> inf (`class_m_check`).

They work on tabulated (x, U(x)) samples and share nothing with the
transform engine, so the package loads this module on first use.
"""

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientSpan, NumericOverflow, ValidationError

__all__ = [
    "CkIndexResult",
    "ck_index",
    "TrendVerdict",
    "EpsilonCheck",
    "ClassMDiagnostic",
    "class_m_check",
]

_MIN_SAMPLES = 8


class CkIndexResult(NamedTuple):
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
            raise DomainError(f"samples must be finite, got ({x!r}, {u!r})")
        if not x > 1.0:
            raise DomainError(f"x must be > 1, got {x!r}")
        if not u > 0.0:
            raise DomainError(f"U must be > 0, got {u!r}")
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


class EpsilonCheck(NamedTuple):
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


class ClassMDiagnostic(NamedTuple):
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
        raise DomainError(f"tau must be finite, got {tau!r}")
    if not epsilons:
        raise ValidationError("need at least one epsilon")
    if len(samples) < _MIN_SAMPLES:
        raise InsufficientSpan(f"need >= {_MIN_SAMPLES} samples, got {len(samples)}")
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
            raise ValidationError(f"epsilons must be positive and finite, got {eps!r}")
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
