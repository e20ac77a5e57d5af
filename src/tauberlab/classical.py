"""Adapters between the classical theorem parametrizations and (a, b, c).

Each classical statement fixes its own symbols:

* Kohlbecker (alpha > 1, B > 0): log mu[0, x] ~ B*x**(1/alpha) against
  M(lam) = int e^{-x/lam} dmu(x), coefficient (alpha-1)*(B/alpha)**(alpha/(alpha-1)),
  lambda exponent 1/(alpha-1).  Reduction: a=B, b=1/alpha, c=-1, M(lam)=f(lam).
* de Bruijn (beta < 0, B < 0, rate > 0): log P(1/x) ~ B*x**(-beta) against
  M(lam) = lam * int P(x) e^{-lam*rate*x} dx, coefficient
  B*(1-beta)*(rate/(B*beta))**(beta/(beta-1)), lambda exponent beta/(beta-1).
  Reduction: a=B, b=beta, c=-rate; the lam prefactor is absorbed exactly by
  the substitution u = x/s, giving M(1/s) = f(s).
* Kasahara (0 < alpha < 1, B > 0): log mu(x, inf) ~ -B*x**(1/alpha) against
  M(lam) = int e^{lam*x} dmu(x), coefficient (1-alpha)*(alpha/B)**(alpha/(1-alpha)),
  lambda exponent 1/(1-alpha).  Reduction: a=-B, b=1/alpha, c=1,
  offset = mu(0, inf), M(lam) = f(1/lam).

The shared dual coefficient reproduces each classical coefficient exactly;
`coefficient_identity_check` certifies this numerically.
"""

import math
from typing import NamedTuple, Union

from .errors import SpecOutOfRange, ValidationError, _checked
from .params import Regime, UnifiedParams, validate

__all__ = [
    "Kohlbecker",
    "DeBruijn",
    "Kasahara",
    "ClassicalSpec",
    "UnifiedReduction",
    "to_unified",
    "coefficient_identity_check",
    "classify",
]


def _require_finite(spec) -> None:
    """Refuse the first of a spec's fields that is not a finite float."""
    for name, value in zip(spec._fields, spec):
        if not math.isfinite(value):
            raise SpecOutOfRange(f"{type(spec).__name__} needs a finite {name}, got {value!r}")


@_checked
class Kohlbecker(NamedTuple):
    """Measure growth log mu[0,x] ~ B*x**(1/alpha); alpha > 1, B > 0."""

    alpha: float
    B: float

    def _check(self):
        _require_finite(self)
        if not self.alpha > 1.0:
            raise SpecOutOfRange(f"Kohlbecker needs alpha > 1, got {self.alpha!r}")
        if not self.B > 0.0:
            raise SpecOutOfRange(f"Kohlbecker needs B > 0, got {self.B!r}")


@_checked
class DeBruijn(NamedTuple):
    """Small-argument decay log P(1/x) ~ B*x**(-beta); beta < 0, B < 0, rate > 0."""

    beta: float
    B: float
    rate: float = 1.0

    def _check(self):
        _require_finite(self)
        if not self.beta < 0.0:
            raise SpecOutOfRange(f"DeBruijn needs beta < 0, got {self.beta!r}")
        if not self.B < 0.0:
            raise SpecOutOfRange(f"DeBruijn needs B < 0, got {self.B!r}")
        if not self.rate > 0.0:
            raise SpecOutOfRange(f"DeBruijn needs rate > 0, got {self.rate!r}")


@_checked
class Kasahara(NamedTuple):
    """Tail decay log mu(x,inf) ~ -B*x**(1/alpha); 0 < alpha < 1, B > 0."""

    alpha: float
    B: float

    def _check(self):
        _require_finite(self)
        if not 0.0 < self.alpha < 1.0:
            raise SpecOutOfRange(f"Kasahara needs 0 < alpha < 1, got {self.alpha!r}")
        if not self.B > 0.0:
            raise SpecOutOfRange(f"Kasahara needs B > 0, got {self.B!r}")


ClassicalSpec = Union[Kohlbecker, DeBruijn, Kasahara]


class UnifiedReduction(NamedTuple):
    """Result of reducing a classical spec to the shared parameter vector.

    classical_coefficient/lambda_exponent are the coefficient and lambda power
    of the classical statement; lambda_map describes how the engine argument s
    relates to the classical lambda.  rel_gap is the relative gap between the
    unified d and the classical coefficient.
    """

    params: UnifiedParams
    classical_coefficient: float
    lambda_exponent: float
    lambda_map: str

    @property
    def rel_gap(self) -> float:
        return abs(self.params.d - self.classical_coefficient) / abs(self.classical_coefficient)


def to_unified(
    spec: ClassicalSpec, measure_mass: float | None = None
) -> UnifiedReduction:
    """Reduce a classical spec to validated parameters plus its displayed forms.

    For Kasahara the transform offset is the total measure mass (1.0 when no
    measure fixture is attached).
    """
    if isinstance(spec, Kohlbecker):
        alpha, B = spec.alpha, spec.B
        params = validate(a=B, b=1.0 / alpha, c=-1.0, offset=0.0)
        coeff = (alpha - 1.0) * (B / alpha) ** (alpha / (alpha - 1.0))
        exponent, lambda_map = 1.0 / (alpha - 1.0), "lambda = s"
    elif isinstance(spec, DeBruijn):
        beta, B, rate = spec.beta, spec.B, spec.rate
        params = validate(a=B, b=beta, c=-rate, offset=0.0)
        coeff = B * (1.0 - beta) * (rate / (B * beta)) ** (beta / (beta - 1.0))
        exponent, lambda_map = beta / (beta - 1.0), "lambda = 1/s"
    elif isinstance(spec, Kasahara):
        alpha, B = spec.alpha, spec.B
        offset = 1.0 if measure_mass is None else float(measure_mass)
        params = validate(a=-B, b=1.0 / alpha, c=1.0, offset=offset)
        coeff = (1.0 - alpha) * (alpha / B) ** (alpha / (1.0 - alpha))
        exponent, lambda_map = 1.0 / (1.0 - alpha), "lambda = 1/s"
    else:
        raise ValidationError(f"unknown classical spec {spec!r}")
    return UnifiedReduction(params, coeff, exponent, lambda_map)


def coefficient_identity_check(spec: ClassicalSpec) -> tuple[float, float, float]:
    """(unified d, classical coefficient, relative gap) for one spec."""
    red = to_unified(spec)
    return red.params.d, red.classical_coefficient, red.rel_gap


def classify(p: UnifiedParams) -> ClassicalSpec:
    """Regime-based inverse of :func:`to_unified`.

    Exact for canonical rates (c = -1 Kohlbecker, c = +1 Kasahara, any rate
    de Bruijn); for non-canonical rates the returned spec describes the
    transform after rescaling the kernel rate to its canonical value, which
    leaves (a, b) unchanged.
    """
    if p.regime is Regime.KOHLBECKER:
        return Kohlbecker(alpha=1.0 / p.b, B=p.a)
    if p.regime is Regime.KASAHARA:
        return Kasahara(alpha=1.0 / p.b, B=-p.a)
    return DeBruijn(beta=p.b, B=p.a, rate=-p.c)
