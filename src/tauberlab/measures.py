"""Discrete (tabulated) measures, their exponential transforms, and fixtures.

A measure is a finite list of atoms (location, mass) with strictly increasing
nonnegative locations and strictly positive masses.  Transforms are computed
by max-shifted summation so that kernels like exp(lam*x) never overflow.  The
log-space exponents are formed without numpy warnings: a term whose exponent
is -inf vanishes, and a +inf or NaN exponent at the maximum (a log M outside
the float range) raises NumericOverflow.

The two-column text format used for ingestion is one atom per line,
``location<TAB>mass`` (whitespace-separated also accepted), lines beginning
with '#' ignored.
"""

import math
import operator
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    EmptyMeasure,
    MeasureFormatError,
    NotIntegrable,
    NumericOverflow,
    ValidationError,
    ZeroRate,
)

__all__ = [
    "TabulatedMeasure",
    "parse_measure_text",
    "load_measure",
    "measure_transform_kohlbecker",
    "measure_transform_kasahara",
    "kohlbecker_panel_bracket",
    "kasahara_panel_bracket",
    "kasahara_via_parts",
    "quantize_cumulative",
    "quantize_tail",
]


class TabulatedMeasure:
    """Finite atomic measure on [0, inf).

    locations: strictly increasing, >= 0.
    masses: strictly positive, same length, summing to a finite float.

    Both are tuples of floats, checked once.  Every sum over the atoms reads
    four read-only arrays held beside them: the locations, the log-masses,
    the cumulative sums with a leading 0 and the suffix sums with a trailing
    0.  A measure is immutable; equality and hash read (locations, masses).
    """

    __slots__ = ("locations", "masses", "_x", "_log_m", "_cum", "_suffix")

    def __init__(self, locations: tuple[float, ...], masses: tuple[float, ...]):
        locs = np.array(locations, dtype=float)
        mass = np.array(masses, dtype=float)
        if locs.shape != mass.shape or locs.ndim != 1:
            raise ValidationError("locations and masses must be 1-d and equal length")
        if locs.size:
            if not np.all(np.isfinite(locs)) or not np.all(np.isfinite(mass)):
                raise ValidationError("atoms must be finite")
            if locs[0] < 0.0:
                raise ValidationError("locations must be >= 0")
            if np.any(np.diff(locs) <= 0.0):
                raise ValidationError("locations must be strictly increasing")
            if np.any(mass <= 0.0):
                raise ValidationError("masses must be strictly positive")
        object.__setattr__(self, "locations", tuple(locs.tolist()))
        object.__setattr__(self, "masses", tuple(mass.tolist()))
        try:  # total_mass (an exact sum) and the held running sums must be finite
            math.fsum(self.masses)
            with np.errstate(over="raise"):
                cum, suffix = np.cumsum(mass), np.cumsum(mass[::-1])[::-1]
        except (OverflowError, FloatingPointError):
            raise NumericOverflow("total mass of the atoms is not a finite float") from None
        held = (locs, np.log(mass), np.concatenate([[0.0], cum]),
                np.concatenate([suffix, [0.0]]))
        for name, arr in zip(("_x", "_log_m", "_cum", "_suffix"), held):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.locations, self.masses)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(locations={self.locations!r}, "
                f"masses={self.masses!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.locations, self.masses) == (other.locations, other.masses)

    def __hash__(self) -> int:
        return hash((self.locations, self.masses))

    def __len__(self) -> int:
        return len(self.locations)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def mass_above_zero(self) -> float:
        """Total mass on (0, inf); only the first atom can sit at 0."""
        return math.fsum(self.masses[1:] if self.locations[:1] == (0.0,) else self.masses)

    def _atoms_at_or_below(self, x):
        # searchsorted sorts NaN past every atom, which would give a NaN x
        # the total mass.
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise DomainError("a measure's cumulative and tail are undefined at x = nan")
        return np.searchsorted(self._x, arr, side="right")

    def cumulative(self, x):
        """mu[0, x]: mass at locations <= x (vectorized); refuses a NaN x."""
        return self._cum[self._atoms_at_or_below(x)]

    def tail(self, x):
        """mu(x, inf): mass at locations strictly greater than x (0 past the
        last atom, since it is read from suffix sums); refuses a NaN x."""
        return self._suffix[self._atoms_at_or_below(x)]


def _rows(text: str, source: str, columns: str):
    """(lineno, first, second) per line of two numeric fields, '#' and blank
    lines skipped, with no rule on the values or their order."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MeasureFormatError(
                f"{source}:{lineno}: expected '{columns}', got {raw!r}"
            )
        try:
            first, second = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise MeasureFormatError(
                f"{source}:{lineno}: non-numeric field in {raw!r}"
            ) from exc
        yield lineno, first, second


def parse_measure_text(text: str, source: str = "<string>") -> TabulatedMeasure:
    """Parse the two-column atom format; '#' lines and blank lines ignored."""
    locations: list[float] = []
    masses: list[float] = []
    for lineno, loc, mass in _rows(text, source, "location<TAB>mass"):
        if locations and loc <= locations[-1]:
            raise MeasureFormatError(
                f"{source}:{lineno}: locations must be strictly increasing"
            )
        locations.append(loc)
        masses.append(mass)
    try:
        return TabulatedMeasure(tuple(locations), tuple(masses))
    except ValidationError as exc:
        raise MeasureFormatError(f"{source}: {exc}") from exc


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MeasureFormatError(f"cannot read {what} file {path}: {exc}") from exc


def load_measure(path: str | Path) -> TabulatedMeasure:
    p = Path(path)
    return parse_measure_text(_read_text(p, "measure"), source=str(p))


def _load_pairs(path: str | Path) -> list[tuple[float, float]]:
    """The (x, U(x)) rows of a two-column file, in file order."""
    p = Path(path)
    return [(x, y) for _, x, y in _rows(_read_text(p, "sample"), str(p), "x<TAB>U(x)")]


def _log_sum_shifted(log_terms: np.ndarray) -> float:
    """log(sum(exp(t_i))) via max shift; -inf when every term vanishes, and
    NumericOverflow when a term is +inf or NaN (a sum beyond the float range)."""
    m = float(np.max(log_terms))
    if m == -math.inf:
        return m
    if not math.isfinite(m):
        raise NumericOverflow(f"log of the exponential sum is not a finite float ({m!r})")
    return m + math.log(float(np.sum(np.exp(log_terms - m))))


def _require_atoms(m: TabulatedMeasure) -> None:
    if len(m) == 0:
        raise EmptyMeasure("measure has no atoms")


def _require_lam(m: TabulatedMeasure, lam: float, positive: bool) -> None:
    """The gate of the lam sums: refuse an empty measure, then a lam out of
    range (lam > 0 if ``positive``, else lam >= 0; NaN included), then inf."""
    _require_atoms(m)
    if not (lam > 0.0 if positive else lam >= 0.0):
        raise DomainError("lam must be positive" if positive else "lam must be >= 0")
    if lam == math.inf:
        raise DomainError("lam must be finite, got inf")


def measure_transform_kohlbecker(m: TabulatedMeasure, lam: float) -> float:
    """log of sum_i mass_i * exp(-x_i / lam), 0 < lam < inf: _log_integral at c = -1."""
    _require_lam(m, lam, positive=True)
    return _log_integral(m, "cumulative", -1.0, lam)


def measure_transform_kasahara(m: TabulatedMeasure, lam: float) -> float:
    """log of sum_i mass_i * exp(lam * x_i), 0 <= lam < inf (finite atom list)."""
    _require_lam(m, lam, positive=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_sum_shifted(m._log_m + lam * m._x)


def _left_edges(m: TabulatedMeasure) -> np.ndarray:
    """Left edges [0, x_0, ..., x_{n-2}] of the quantizers' panels: atom i
    carries the mass of (x_{i-1}, x_i], the first atom the mass from 0 (a
    panel of zero width when it sits at 0)."""
    return np.concatenate([[0.0], m._x[:-1]])


def _panel_bracket(m: TabulatedMeasure, direct: float, exponent, decreasing: bool):
    """(lower, upper) from ``direct``, the transform with each panel's mass at
    its right edge, and the sum with it at its left edge, for the log-kernel
    ``exponent``: lower is ``direct`` when the kernel is ``decreasing``."""
    with np.errstate(over="ignore"):
        at_left = _log_sum_shifted(m._log_m + exponent(_left_edges(m)))
    return (direct, at_left) if decreasing else (at_left, direct)


def kohlbecker_panel_bracket(m: TabulatedMeasure, lam: float) -> tuple[float, float]:
    """(lower, upper) around the exact transform of the measure either
    quantizer tabulated, up to its mass past x_max: the kernel exp(-x/lam)
    falls, so the direct transform is lower and the left edges' sum upper."""
    return _panel_bracket(m, measure_transform_kohlbecker(m, lam), lambda x: -x / lam, True)


def kasahara_panel_bracket(m: TabulatedMeasure, lam: float) -> tuple[float, float]:
    """(lower, upper) around the exact transform of the measure either
    quantizer tabulated, up to its mass past x_max: the kernel exp(lam*x)
    rises, so the left edges' sum is lower and the direct transform upper."""
    return _panel_bracket(m, measure_transform_kasahara(m, lam), lambda x: lam * x, False)


def kasahara_via_parts(m: TabulatedMeasure, lam: float) -> float:
    """log M(lam) through the integration-by-parts route.

    Evaluates mu(0,inf) + int_0^inf e^x * mu(x/lam, inf) dx with the integral
    done exactly on the step tail function, one panel per atom, in shifted
    log space.  For measures with no atom at 0 this equals the direct
    transform up to roundoff; it exercises an independent summation path.
    """
    _require_lam(m, lam, positive=False)
    # Tail value T_i on (x_{i-1}, x_i) is the mass at locations >= x_i, and
    # log(T_i * (e^hi - e^lo)) is -inf for an empty panel; then log mu(0, inf).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi = lam * _left_edges(m), lam * m._x
        log_terms = np.log(m._suffix[:-1]) + hi + np.log(-np.expm1(lo - hi))
        log_terms = np.append(log_terms, np.log(m.mass_above_zero()))
    return _log_sum_shifted(log_terms)


def _log_integral(m: TabulatedMeasure, kind: str, c: float, s: float) -> float:
    """log int_0^inf P(u*s) e^{c*u} du for P = mu[0, x] or mu(x, inf) (kind).

    With z_i = c*x_i/s an atom (x_i, m_i) adds m_i e^{z_i}/(-c) to the
    cumulative kind (c < 0) and m_i (e^{z_i} - 1)/c to the tail kind.
    """
    _require_atoms(m)
    if kind == "cumulative" and not c < 0.0:
        raise NotIntegrable("mu[0, x] does not vanish at infinity; need c < 0")
    if c == 0.0:
        raise ZeroRate("the tail transform needs c != 0")
    with np.errstate(over="ignore", divide="ignore"):
        z = c * m._x / s
        if kind == "tail":
            # log|e^z - 1| = max(z, 0) + log(1 - e^-|z|); an atom at 0 adds -inf.
            z = np.maximum(z, 0.0) + np.log(-np.expm1(-np.abs(z)))
        return _log_sum_shifted(m._log_m + z) - math.log(abs(c))


def _geometric_grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    if not (0.0 < x_min < x_max):
        raise ValidationError("need 0 < x_min < x_max")
    if not x_max < math.inf:
        raise ValidationError(f"x_max must be finite, got {x_max:g}")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"n must be an integer, got {n!r}") from None
    if n < 2:
        raise ValidationError("need at least 2 grid points")
    xs = np.exp(np.linspace(math.log(x_min), math.log(x_max), n))
    xs[0], xs[-1] = x_min, x_max  # exp/log round trip fuzzes the endpoints
    return xs


def _quantize(
    fn: Callable[[float], float], x_min: float, x_max: float, n: int, tail: bool, error: str
) -> TabulatedMeasure:
    """Atoms at the edges [0, x_1..x_n] of a geometric grid where the mass
    function fn drops by a positive amount: a cumulative drop is
    F(x_i) - F(x_{i-1}), and F(0) at 0; a tail drop G(x_{i-1}) - G(x_i).
    A value of fn that is not finite is refused, as a NaN drop would vanish."""
    edges = np.concatenate([[0.0], _geometric_grid(x_min, x_max, n)])
    values = np.asarray([float(fn(float(x))) for x in edges])
    finite = np.isfinite(values)
    if not finite.all():
        x = float(edges[np.argmin(finite)])
        raise ValidationError(f"mass function is not finite at x = {x!r}")
    drops = -np.diff(values, prepend=values[0]) if tail else np.diff(values, prepend=0.0)
    if np.any(drops < 0.0) or (tail and np.any(values < 0.0)):
        raise ValidationError(error)
    keep = drops > 0.0
    return TabulatedMeasure(edges[keep], drops[keep])


def quantize_cumulative(
    fn: Callable[[float], float], x_min: float, x_max: float, n: int
) -> TabulatedMeasure:
    """Quantize a cumulative mass function F(x) = mu[0, x] onto a geometric grid.

    Produces an atom at 0 carrying F(0) (the measure's atom at the origin, if
    any) and atoms at grid points x_i carrying F(x_i) - F(x_{i-1}).  Panels
    with zero mass are dropped.
    """
    return _quantize(fn, x_min, x_max, n, False,
                     "cumulative function must be nondecreasing and >= 0")


def quantize_tail(
    fn: Callable[[float], float], x_min: float, x_max: float, n: int
) -> TabulatedMeasure:
    """Quantize a tail mass function G(x) = mu(x, inf) onto a geometric grid.

    Panels are (0, x_min], then geometric up to x_max, as :func:`_left_edges`
    states: atom i sits at the panel's right endpoint with mass G(left) -
    G(right).  The mass G(x_max) beyond the grid is omitted; pick x_max large
    enough that the kernel makes it negligible for the lam range of interest.
    """
    return _quantize(fn, x_min, x_max, n, True,
                     "tail function must be nonincreasing and >= 0")
