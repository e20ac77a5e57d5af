"""Exact references for log f of pure-power targets, computed with mpmath.

For q(x) = a*x**b the transform f(s) = offset + int_0^inf exp(a*(u*s)**b + c*u) du
has a closed form at three exponents:

    b = 1/2:  k = a*sqrt(s), g = -c > 0,
              f = offset + 1/g + (k/(2g)) sqrt(pi/g) exp(k^2/(4g)) erfc(-k/(2 sqrt g))
    b = 2:    r = -a*s^2 > 0,
              f = offset + (1/2) sqrt(pi/r) exp(c^2/(4r)) erfc(-c/(2 sqrt r))
    b = -1:   f = 2 sqrt(|a|/(s|c|)) K_1(2 sqrt(|a||c|/s))        (offset is 0)

mpmath carries an unbounded exponent, so exp(d*psi) is formed exactly even
where it overflows a double; the logarithm is taken at DPS digits and only
then rounded to a float.  The forms are the README canonicals generalised to
free a and c.
"""

from __future__ import annotations

import math

EXACT_EXPONENTS = (0.5, 2.0, -1.0)
DPS = 40

# An answer counts as correct when |log_f - exact| <= ROUNDOFF_FLOOR(exact) +
# EXCESS_LIMIT_NATS.  The floor is the larger of the engine's default absolute
# tolerance and 16 ulp of the exact value, so roundoff at large psi does not
# count while under-resolved peaks (errors of order 1 nat) do.
EXCESS_LIMIT_NATS = 1e-6


def roundoff_floor(exact: float) -> float:
    return max(1e-8, 16.0 * math.ulp(exact))


def excess_error(log_f: float, exact: float) -> float:
    """Error beyond the roundoff floor, in nats (0 when within it)."""
    return max(0.0, abs(log_f - exact) - roundoff_floor(exact))


def s_for_psi(b: float, psi: float) -> float:
    """Transform argument the engine integrates at for regime variable psi.

    Same float expression as the program, so the oracle is evaluated at the
    exact double the engine used.
    """
    return psi ** ((1.0 - b) / b)


def _mp():
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


def _f_exact(mp, a, b, c, offset, s):
    a, c, s, offset = mp.mpf(a), mp.mpf(c), mp.mpf(s), mp.mpf(offset)
    if b == 0.5:
        k, g = a * mp.sqrt(s), -c
        body = (k / (2 * g)) * mp.sqrt(mp.pi / g) * mp.exp(k * k / (4 * g))
        return offset + 1 / g + body * mp.erfc(-k / (2 * mp.sqrt(g)))
    if b == 2.0:
        r = -a * s * s
        body = mp.sqrt(mp.pi / r) / 2 * mp.exp(c * c / (4 * r))
        return offset + body * mp.erfc(-c / (2 * mp.sqrt(r)))
    if b == -1.0:
        beta, g = -a / s, -c
        return offset + 2 * mp.sqrt(beta / g) * mp.besselk(1, 2 * mp.sqrt(beta * g))
    raise ValueError(f"no closed form for b={b!r}")


def log_f_exact(a: float, b: float, c: float, offset: float, s: float) -> float:
    """log f(s) for q = a*x**b, b in EXACT_EXPONENTS, rounded once to a float."""
    mp = _mp()
    return float(mp.log(_f_exact(mp, a, b, c, offset, s)))


def log_f_quad(a: float, b: float, c: float, offset: float, s: float) -> float:
    """Independent mpmath.quad value of the same integral (for self-checks)."""
    mp = _mp()
    a, c, s = mp.mpf(a), mp.mpf(c), mp.mpf(s)
    integrand = lambda u: mp.exp(a * (u * s) ** b + c * u)  # noqa: E731
    return float(mp.log(offset + mp.quad(integrand, [0, 1, mp.inf])))


class OracleCache:
    """Exact log f keyed by (a, b, c, offset, s); fill it before timing."""

    def __init__(self):
        self._values: dict[tuple, float] = {}
        self.misses = 0

    def precompute(self, keys) -> None:
        for key in keys:
            if key not in self._values:
                self._values[key] = log_f_exact(*key)

    def get(self, a, b, c, offset, s) -> float:
        key = (float(a), float(b), float(c), float(offset), float(s))
        if key not in self._values:
            self.misses += 1
            self._values[key] = log_f_exact(*key)
        return self._values[key]

    def __len__(self) -> int:
        return len(self._values)
