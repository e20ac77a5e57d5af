"""Target functions: descriptions of P through its log-amplitude q(x) = log P(x).

The engine reads a target's coefficient ``a``, exponent ``b``,
``log_amplitude(x)`` and ``label()``: any object whose ``a`` and ``b`` are not
None is a power target, integrated by the saddle-centred engine about the
stationary point of a*x**b (PurePower, PerturbedPower).  A MeasureTarget
carries no ``a`` or ``b`` and takes the exact sum over its atoms; any other
target is refused.
"""

from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _checked
from .measures import TabulatedMeasure

__all__ = [
    "PurePower",
    "PerturbedPower",
    "MeasureTarget",
    "PERTURBATION_FAMILIES",
]


class PurePower(NamedTuple):
    """q(x) = a * x**b exactly."""

    a: float
    b: float

    def log_amplitude(self, x):
        return self.a * np.asarray(x, dtype=float) ** self.b

    def label(self) -> str:
        return f"pure-power(a={self.a:g}, b={self.b:g})"


def _delta_inverse_log(k: float, t):
    """k / (1 + sqrt(1 + t**2)) at t = log x."""
    return k / (1.0 + np.sqrt(1.0 + t * t))


def _delta_log_sine(k: float, t):
    """k * sin(t) / (1 + sqrt(1 + t**2)) at t = log x."""
    return k * np.sin(t) / (1.0 + np.sqrt(1.0 + t * t))


# Slowly-decaying relative perturbations delta(x) -> 0 as |log x| -> inf,
# analytic in log x.
PERTURBATION_FAMILIES = {
    "inverse-log": _delta_inverse_log,
    "log-sine": _delta_log_sine,
}

_MAX_PERTURBATION = 0.5


@_checked
class PerturbedPower(NamedTuple):
    """q(x) = a * x**b * (1 + delta(x)) with a named vanishing perturbation.

    With t = log x, the families are k/(1 + sqrt(1 + t**2)) ("inverse-log")
    and k*sin(t)/(1 + sqrt(1 + t**2)) ("log-sine").  They decay like k/|t|,
    so the target still satisfies the primal asymptotic in the regime
    x**b -> inf, and they are analytic in t, so the engine's trapezoid rule
    converges geometrically on them.  Magnitude is capped at |k| <= 0.5.
    """

    a: float
    b: float
    family: str
    magnitude: float

    def _check(self):
        if self.family not in PERTURBATION_FAMILIES:
            raise ValidationError(
                f"unknown perturbation family {self.family!r}; "
                f"choose from {sorted(PERTURBATION_FAMILIES)}"
            )
        if not abs(self.magnitude) <= _MAX_PERTURBATION:
            raise ValidationError(
                f"|magnitude| must be <= {_MAX_PERTURBATION}, got {self.magnitude!r}"
            )

    def log_amplitude(self, x):
        arr = np.asarray(x, dtype=float)
        delta = PERTURBATION_FAMILIES[self.family](self.magnitude, np.log(arr))
        return self.a * arr**self.b * (1.0 + delta)

    def label(self) -> str:
        return (
            f"perturbed-power(a={self.a:g}, b={self.b:g}, "
            f"family={self.family}, k={self.magnitude:g})"
        )


@_checked
class MeasureTarget(NamedTuple):
    """q(x) = log of a tabulated measure's cumulative or tail function.

    kind="cumulative" evaluates log mu[0, x]; kind="tail" evaluates
    log mu(x, inf).  Regions carrying no mass give q = -inf, i.e. P = 0.
    """

    measure: TabulatedMeasure
    kind: str = "cumulative"

    def _check(self):
        if self.kind not in ("cumulative", "tail"):
            raise ValidationError(f"kind must be 'cumulative' or 'tail', got {self.kind!r}")

    def log_amplitude(self, x):
        arr = np.asarray(x, dtype=float)
        if self.kind == "cumulative":
            values = self.measure.cumulative(arr)
        else:
            values = self.measure.tail(arr)
        with np.errstate(divide="ignore"):
            return np.log(values)

    def label(self) -> str:
        return f"measure-{self.kind}({len(self.measure)} atoms)"
