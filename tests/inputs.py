"""The suite's inputs: the canonical triples, the boxes that its properties
range over, the quantized classical measures, and the two helpers of a sweep
property.

The guardrail box is what params admits, read off its own bounds: |a| and |c|
log-uniform over [tl.COEFF_MIN, tl.COEFF_MAX], |b| over its regime's range,
capped at tl.MAX_ABS_EXPONENT and kept 0.05 from 0 and 1 so that
s = psi**((1-b)/b) stays representable.  The desk box is its part at desk
scale: |a| and |c| uniform in [0.1, 10], |b| at most 8.
"""

import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import tauberlab as tl

# The README canonicals: name -> (a, b, c, offset), with verify's offset.
CANONICAL = {
    "kohlbecker": (2.0, 0.5, -1.0, 0.0),
    "kasahara": (-1.0, 2.0, 1.0, 1.0),
    "de-bruijn": (-1.0, -1.0, -1.0, 0.0),
}
CANONICALS = list(CANONICAL.values())

LOG10_COEFF = (math.log10(tl.COEFF_MIN), math.log10(tl.COEFF_MAX))
# Regime -> (|b| range, sign of a, sign of b, sign of c), in CANONICAL's order.
GUARDRAIL_BOX = {
    "kohlbecker": ((0.05, 0.95), 1.0, 1.0, -1.0),
    "kasahara": ((1.05, tl.MAX_ABS_EXPONENT), -1.0, 1.0, 1.0),
    "de-bruijn": ((0.05, tl.MAX_ABS_EXPONENT), -1.0, -1.0, -1.0),
}


def guardrail_triples(rng, n, canonical_b=False):
    """Yield n (a, b, c) of the guardrail box, cycling over the regimes; each
    draws |a|, |c| and then |b|, unless canonical_b fixes b at the regime's
    canonical.  Drawn lazily: a caller may draw from rng between triples."""
    regimes = list(GUARDRAIL_BOX.values())
    for k in range(n):
        (b_lo, b_hi), sa, sb, sc = regimes[k % 3]
        a, c = (10.0 ** rng.uniform(*LOG10_COEFF) for _ in range(2))
        if canonical_b:
            b = CANONICALS[k % 3][1]
        else:
            b = sb * math.exp(rng.uniform(math.log(b_lo), math.log(b_hi)))
        yield sa * a, b, sc * c


def _box_point(regime, u_b, log_a, log_c):
    (b_lo, b_hi), sa, sb, sc = regime
    return sa * 10.0**log_a, sb * b_lo ** (1.0 - u_b) * b_hi**u_b, sc * 10.0**log_c


def guardrail_box():
    """The hypothesis strategy of (a, b, c) over the guardrail box."""
    return st.builds(_box_point, st.sampled_from(list(GUARDRAIL_BOX.values())),
                     st.floats(0.0, 1.0), st.floats(*LOG10_COEFF), st.floats(*LOG10_COEFF))


def near_one_triples(rng, n):
    """n (a, b, c) of the guardrail box with |b - 1| log-uniform in
    [1e-14, 1e-1], either side of 1; |a| and then |c| drawn after all b."""

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    b = 1.0 + rng.choice([-1.0, 1.0], n) * log_uniform(1e-14, 1e-1)
    sign = np.where(b < 1.0, 1.0, -1.0)
    a = sign * log_uniform(tl.COEFF_MIN, tl.COEFF_MAX)
    return list(zip(a, b, -sign * log_uniform(tl.COEFF_MIN, tl.COEFF_MAX)))


# Regime -> (b range, sign of a, sign of c) of the desk box; the narrow box,
# for the closed-form peak check, has its own ranges of b and of |a| and |c|.
DESK_BOX = {
    "kohlbecker": ((0.05, 0.95), 1.0, -1.0),
    "kasahara": ((1.05, 8.0), -1.0, 1.0),
    "de-bruijn": ((-8.0, -0.05), -1.0, -1.0),
}
DESK_COEFF, NARROW_COEFF = (0.1, 10.0), (0.2, 5.0)
NARROW_B = {"kohlbecker": (0.1, 0.9), "kasahara": (1.2, 5.0), "de-bruijn": (-4.0, -0.2)}


def desk_triples(rng, n, regimes=tuple(DESK_BOX), order="abc", narrow=False):
    """n (a, b, c) of each regime in turn from the desk (or narrow) box, as
    floats.  A regime draws its columns as vectors of n in the given order,
    which a seed's triples depend on; n = 1 draws a, b and c in turn."""
    triples = []
    for regime in regimes:
        (b_range, sa, sc), coeff = DESK_BOX[regime], DESK_COEFF
        if narrow:
            b_range, coeff = NARROW_B[regime], NARROW_COEFF
        ranges = {"a": coeff, "b": b_range, "c": coeff}
        col = {name: rng.uniform(*ranges[name], n) for name in order}
        triples += zip((sa * col["a"]).tolist(), col["b"].tolist(), (sc * col["c"]).tolist())
    return triples


def desk_specs(rng, n):
    """n rounds of a Kohlbecker, a de Bruijn and a Kasahara spec at desk scale:
    |B| and the rate uniform in [0.1, 10]."""
    for _ in range(n):
        yield tl.Kohlbecker(alpha=1.0 + rng.uniform(0.05, 9.0), B=rng.uniform(0.1, 10.0))
        yield tl.DeBruijn(beta=-rng.uniform(0.05, 8.0), B=-rng.uniform(0.1, 10.0),
                          rate=rng.uniform(0.1, 10.0))
        yield tl.Kasahara(alpha=rng.uniform(0.1, 0.95), B=rng.uniform(0.1, 10.0))


# The two classical statements about a measure, name -> (spec, target), each
# measure quantized at 8,192 atoms: mu[0, x] = expm1(sqrt(x)) for Kohlbecker
# and mu(x, inf) = exp(-x**2) for Kasahara.
CLASSICAL_MEASURES = {
    "kohlbecker": (tl.Kohlbecker(alpha=2.0, B=1.0), tl.MeasureTarget(
        tl.quantize_cumulative(lambda x: math.expm1(x**0.5), 1e-3, 4.9e5, 8192), "cumulative")),
    "kasahara": (tl.Kasahara(alpha=0.5, B=1.0), tl.MeasureTarget(
        tl.quantize_tail(lambda x: math.exp(-x * x), 1e-3, 26.5, 8192), "tail")),
}


class Refusal(NamedTuple):
    kind: type
    message: str


def bits(value):
    """value in a form that compares bit for bit: a float as its hex; an array,
    list or tuple (a TransformSample too) as the list or tuple of its items'."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def outcome(f, *args):
    """bits(f(*args)), or the Refusal (class, message) of its TauberError."""
    try:
        value = f(*args)
    except tl.TauberError as exc:
        return Refusal(type(exc), str(exc))
    return bits(value)


def sweep_of(points):
    """The outcome that a sweep of these points' outcomes must have: the
    first Refusal among them, or else the list of their values."""
    return next((r for r in points if isinstance(r, Refusal)), points)
