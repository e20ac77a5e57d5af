"""What the engine reads from a target, and the refusals of its numeric inputs."""

import math
import warnings

import numpy as np
import pytest

import tauberlab as tl
from inputs import CANONICAL, CANONICALS, bits
from tauberlab import report

MEASURE = tl.TabulatedMeasure((0.0, 1.0, 2.0), (1.0, 2.0, 3.0))


class BarePower:
    """A power target with nothing but a, b, log_amplitude and label."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def log_amplitude(self, x):
        return self.a * np.asarray(x, dtype=float) ** self.b

    def label(self):
        return f"pure-power(a={self.a:g}, b={self.b:g})"


@pytest.mark.parametrize("a,b,c,offset", CANONICALS)
def test_a_bare_power_target_is_evaluated_as_the_pure_power(a, b, c, offset):
    bare, pure = BarePower(a, b), tl.PurePower(a, b)
    p = tl.validate(a, b, c, offset)
    grid = tl.make_grid(10.0, 1000.0, 9)
    s = tl.s_for_psi(b, 100.0)
    assert bits(tl.log_transform(bare, c, offset, s)) == bits(tl.log_transform(pure, c, offset, s))
    assert bits(tl.sample_at_psi(p, bare, 100.0)) == bits(tl.sample_at_psi(p, pure, 100.0))
    psis = grid.psi_values[:3]
    assert bits(tl.sample_at_psi(p, bare, psis)) == bits(tl.sample_at_psi(p, pure, psis))
    rep_bare = tl.verify_equivalence(p, bare, grid)
    rep_pure = tl.verify_equivalence(p, pure, grid)
    assert bits(rep_bare.samples) == bits(rep_pure.samples)
    assert report.render_report(rep_bare) == report.render_report(rep_pure)
    assert report.render_samples_csv(rep_bare) == report.render_samples_csv(rep_pure)


def test_a_grid_built_from_a_list_holds_python_floats():
    grid = tl.make_grid(10.0, 1000.0, 9)
    listed = tl.EvalGrid(list(np.array(grid.psi_values)))
    assert listed == grid and hash(listed) == hash(grid)
    assert all(type(x) is float for x in listed.psi_values)
    p = tl.validate(2.0, 0.5, -1.0)
    target = tl.PurePower(2.0, 0.5)
    assert report.render_report(tl.verify_equivalence(p, target, listed)) == (
        report.render_report(tl.verify_equivalence(p, target, grid)))


# (callable, refusal class, message fragment)
REFUSALS = {
    "validate-offset-negative": (
        lambda: tl.validate(2.0, 0.5, -1.0, -1.0), tl.DomainError, "offset must be >= 0"),
    "classical-measure-mass-negative": (
        lambda: tl.to_unified(tl.Kasahara(0.5, 1.0), measure_mass=-1.0),
        tl.DomainError, "offset must be >= 0"),
    "log-transform-offset-nan": (
        lambda: tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, math.nan, 1.0),
        tl.DomainError, "offset must be finite, got nan"),
    "log-transform-offset-inf": (
        lambda: tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, math.inf, 1.0),
        tl.DomainError, "offset must be finite, got inf"),
    "log-transform-measure-offset-nan": (
        lambda: tl.log_transform(tl.MeasureTarget(MEASURE), -1.0, math.nan, 1.0),
        tl.DomainError, "offset must be finite, got nan"),
    "make-grid-float-n": (
        lambda: tl.make_grid(10.0, 1000.0, 16.0), tl.BadRange, "n must be an integer"),
    "quantize-x-max-inf": (
        lambda: tl.quantize_cumulative(lambda x: min(x, 1.0), 1.0, math.inf, 4),
        tl.ValidationError, "x_max must be finite, got inf"),
    # a*b overflows, so the base of x_peak, -c/(a*b), is 0.0.
    "log-transform-x-peak-base-zero": (
        lambda: tl.log_transform(tl.PurePower(-1e308, -64.0), -1.0, 0.0, 1.0),
        tl.NumericOverflow, "saddle location x_peak = 0"),
    # -c/(a*b) underflows to 0.0.
    "log-transform-x-peak-base-underflow": (
        lambda: tl.log_transform(tl.PurePower(-1e200, -3.0), -1e-200, 0.0, 1.0),
        tl.NumericOverflow, "saddle location x_peak = 0"),
    "recover-primal-c-zero": (
        lambda: tl.recover_primal(1.0, 1.0, 0.0), tl.ZeroRate, "c must be nonzero"),
    "recover-primal-c-times-b-minus-1-underflow": (
        lambda: tl.recover_primal(1.0, 1.0, 5e-324), tl.InconsistentInputs,
        "stationary point v0"),
    "quantize-cumulative-float-n": (
        lambda: tl.quantize_cumulative(lambda x: min(x, 1.0), 1.0, 4.0, 4.5),
        tl.ValidationError, "n must be an integer, got 4.5"),
    "quantize-tail-float-n": (
        lambda: tl.quantize_tail(lambda x: max(4.0 - x, 0.0), 1.0, 4.0, 4.5),
        tl.ValidationError, "n must be an integer, got 4.5"),
    "sample-at-psi-nan": (
        lambda: tl.sample_at_psi(tl.validate(2, 0.5, -1), tl.PurePower(2, 0.5), math.nan),
        tl.DomainError, "psi must be finite, got nan"),
    "sample-at-psi-inf": (
        lambda: tl.sample_at_psi(tl.validate(2, 0.5, -1), tl.PurePower(2, 0.5), math.inf),
        tl.DomainError, "psi must be finite, got inf"),
    "s-for-psi-nan": (
        lambda: tl.s_for_psi(0.5, math.nan), tl.DomainError, "psi must be finite, got nan"),
    "psi-for-s-nan": (
        lambda: tl.psi_for_s(0.5, math.nan), tl.DomainError, "s must be positive"),
    "psi-for-s-inf": (
        lambda: tl.psi_for_s(0.5, math.inf), tl.DomainError, "s must be finite, got inf"),
    "log-transform-s-inf": (
        lambda: tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, 0.0, math.inf),
        tl.DomainError, "s must be finite, got inf"),
    "log-transform-measure-s-inf": (
        lambda: tl.log_transform(tl.MeasureTarget(MEASURE), -1.0, 0.0, math.inf),
        tl.DomainError, "s must be finite, got inf"),
    # a = 0 leaves g = c*u: decreasing for c < 0, divergent for c > 0.
    "log-transform-a-zero-c-negative": (
        lambda: tl.log_transform(tl.PurePower(0.0, 0.5), -1.0, 0.0, 1.0),
        tl.NoInteriorPeak, "no interior maximum"),
    "log-transform-a-zero-c-positive": (
        lambda: tl.log_transform(tl.PurePower(0.0, 0.5), 1.0, 0.0, 1.0),
        tl.NotIntegrable, "transform diverges for a=0, b=0.5, c=1"),
    "measure-kohlbecker-lam-inf": (
        lambda: tl.measure_transform_kohlbecker(MEASURE, math.inf), tl.DomainError,
        "lam must be finite, got inf"),
    "kohlbecker-bracket-lam-inf": (
        lambda: tl.kohlbecker_panel_bracket(MEASURE, math.inf), tl.DomainError,
        "lam must be finite, got inf"),
    "measure-kasahara-lam-inf": (
        lambda: tl.measure_transform_kasahara(MEASURE, math.inf), tl.DomainError,
        "lam must be finite, got inf"),
    "kasahara-bracket-lam-inf": (
        lambda: tl.kasahara_panel_bracket(MEASURE, math.inf), tl.DomainError,
        "lam must be finite, got inf"),
    "kasahara-via-parts-lam-inf": (
        lambda: tl.kasahara_via_parts(MEASURE, math.inf), tl.DomainError,
        "lam must be finite, got inf"),
    # s = 1e154**-2 = 1e-308 keeps fewer than 53 bits.
    "s-for-psi-subnormal": (
        lambda: tl.s_for_psi(-1.0, 1e154), tl.NumericOverflow, "is subnormal"),
    # The window width 1/sqrt(|(b-1)*c*u*|) overflows in (b-1)*c*u*; the row
    # is refused by its peak value.
    "log-transform-window-width-overflow": (
        lambda: tl.log_transform(tl.PurePower(-1.0, 2.0), 1e308, 0.0, 1.0),
        tl.NumericOverflow, r"peak value g\(u\*\) at s=1 is not a finite float"),
    "sample-at-psi-window-width-overflow": (
        lambda: tl.sample_at_psi(tl.validate(-1e-8, 64.0, 1e8), tl.PurePower(-1e-8, 64.0), 1e300),
        tl.NumericOverflow, r"peak value g\(u\*\) at s=4\.86968e-296 is not a finite float"),
    # The regime maps are undefined at b = 0 and b = 1, after their own
    # argument's refusals.
    "s-for-psi-b-zero": (
        lambda: tl.s_for_psi(0.0, 10.0), tl.DegenerateExponent, "regime map undefined for b=0"),
    "s-for-psi-b-one": (
        lambda: tl.s_for_psi(1.0, 10.0), tl.DegenerateExponent, "regime map undefined for b=1"),
    "psi-for-s-b-zero": (
        lambda: tl.psi_for_s(0.0, 10.0), tl.DegenerateExponent, "regime map undefined for b=0"),
    "psi-for-s-b-one": (
        lambda: tl.psi_for_s(1.0, 10.0), tl.DegenerateExponent, "regime map undefined for b=1"),
    "s-for-psi-b-zero-psi-nan": (
        lambda: tl.s_for_psi(0.0, math.nan), tl.DomainError, "psi must be finite, got nan"),
    "psi-for-s-b-one-s-zero": (
        lambda: tl.psi_for_s(1.0, 0.0), tl.DomainError, "s must be positive"),
    # A NaN or infinite b is refused after the argument's own refusals.
    "s-for-psi-b-nan": (
        lambda: tl.s_for_psi(math.nan, 1.0), tl.ValidationError, "b must be finite, got nan"),
    "s-for-psi-b-inf": (
        lambda: tl.s_for_psi(math.inf, 10.0), tl.ValidationError, "b must be finite, got inf"),
    "psi-for-s-b-inf": (
        lambda: tl.psi_for_s(math.inf, 1.0), tl.ValidationError, "b must be finite, got inf"),
    "psi-for-s-b-nan": (
        lambda: tl.psi_for_s(math.nan, 10.0), tl.ValidationError, "b must be finite, got nan"),
    "s-for-psi-b-nan-psi-zero": (
        lambda: tl.s_for_psi(math.nan, 0.0), tl.DomainError, "psi must be positive"),
    "psi-for-s-b-inf-s-inf": (
        lambda: tl.psi_for_s(math.inf, math.inf), tl.DomainError, "s must be finite, got inf"),
    # A refused value is printed whole: rounded to 6 digits it would read as
    # inside the range it is refused from.
    "kasahara-alpha-just-above-1": (
        lambda: tl.Kasahara(1.0000000001, 1.0), tl.SpecOutOfRange,
        r"^Kasahara needs 0 < alpha < 1, got 1\.0000000001$"),
    "kohlbecker-alpha-just-below-1": (
        lambda: tl.Kohlbecker(0.99999999999, 1.0), tl.SpecOutOfRange,
        r"^Kohlbecker needs alpha > 1, got 0\.99999999999$"),
    "perturbation-magnitude-just-above-half": (
        lambda: tl.PerturbedPower(1.0, 0.5, "inverse-log", 0.50000001), tl.ValidationError,
        r"^\|magnitude\| must be <= 0\.5, got 0\.50000001$"),
    "ck-index-x-just-below-1": (
        lambda: tl.ck_index([(0.9999999, 2.0)]), tl.DomainError,
        r"^x must be > 1, got 0\.9999999$"),
    "make-grid-psi-min-just-below-1": (
        lambda: tl.make_grid(0.9999999, 10.0, 8), tl.BadRange,
        r"^need 1 <= psi_min < psi_max, got psi_min=0\.9999999, psi_max=10\.0$"),
    "sample-at-psi-other-power": (
        lambda: tl.sample_at_psi(tl.validate(2, 0.5, -1), tl.PurePower(2, 0.25), 100.0),
        tl.InconsistentInputs, "target log-amplitude is not the validated"),
    # At sqrt(float max) the probe s*u*e^v overflows 1 width right of u*; the
    # transform is finite and no peak lies outside the window.
    "sample-at-psi-probe-overflow": (
        lambda: tl.sample_at_psi(tl.validate(2, 0.5, -1), tl.PurePower(2, 0.5), 1.34078079e154),
        tl.NumericOverflow,
        r"^probed g \+ v at s=1\.34078e\+154, 1 widths right of u\*, is not a finite float$"),
    # The refusal of a target that is not a power target names its class, so
    # it needs no label() of the refused object.
    "log-transform-not-a-target": (
        lambda: tl.log_transform(object(), -1.0, 0.0, 1.0), tl.ValidationError,
        "^the engine takes power targets only, got object$"),
    # log_transform takes one s; a sweep is refused, as a list or as an array.
    "log-transform-s-list": (
        lambda: tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, 0.0, [1.0, 2.0]),
        tl.DomainError, "log_transform takes one s, not a sweep"),
    "log-transform-s-array": (
        lambda: tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, 0.0, np.array([1.0, 2.0])),
        tl.DomainError, "log_transform takes one s, not a sweep"),
}


@pytest.mark.parametrize("call, error, fragment", list(REFUSALS.values()), ids=list(REFUSALS))
def test_numeric_inputs_are_refused_without_warnings(call, error, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=fragment):
            call()


def test_numpy_integers_are_taken_as_counts():
    grid = tl.make_grid(10.0, 1000.0, np.int64(9))
    assert grid == tl.make_grid(10.0, 1000.0, 9)


# Each extreme float, for a sweep in which every call must return or refuse
# with a TauberError: no numpy warning and no bare Python exception.
EXTREMES = (1e308, -1e308, 5e-324, -5e-324, 1e-300, -1e-300, 0.0, math.inf, -math.inf,
            math.nan, 1.0, -1.0)
SWEPT_TARGETS = {
    **{name: (tl.PurePower(a, b), offset) for name, (a, b, _, offset) in CANONICAL.items()},
    "perturbed": (tl.PerturbedPower(2.0, 0.5, "log-sine", 0.3), 0.0),
    "measure-cumulative": (tl.MeasureTarget(MEASURE, "cumulative"), 0.0),
    "measure-tail": (tl.MeasureTarget(MEASURE, "tail"), 0.0),
}


def _uncaught(calls) -> list[str]:
    """The calls, as (label, thunk), that warn or raise other than a TauberError."""
    uncaught = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for label, call in calls:
            try:
                call()
            except tl.TauberError:
                pass
            except Exception as exc:  # the sweep reports every leak
                uncaught.append(f"{label}: {type(exc).__name__}: {exc}")
    return uncaught


@pytest.mark.parametrize("target, offset", list(SWEPT_TARGETS.values()), ids=list(SWEPT_TARGETS))
def test_the_engine_returns_or_refuses_at_every_extreme_c_and_s(target, offset):
    calls = [(f"log_transform(c={c!r}, s={s!r})",
              lambda c=c, s=s: tl.log_transform(target, c, offset, s))
             for c in EXTREMES for s in EXTREMES]
    calls += [(f"locate_peak(c={c!r}, s={s!r})", lambda c=c, s=s: tl.locate_peak(target, c, s))
              for c in EXTREMES for s in EXTREMES]
    assert _uncaught(calls) == []


@pytest.mark.parametrize("fn", [tl.s_for_psi, tl.psi_for_s])
def test_the_regime_maps_return_or_refuse_at_every_extreme_b_and_argument(fn):
    calls = [(f"{fn.__name__}({b!r}, {x!r})", lambda b=b, x=x: fn(b, x))
             for b in (0.0, 1.0, math.inf, -math.inf, math.nan, 0.5, 2.0, -1.0)
             for x in EXTREMES]
    assert _uncaught(calls) == []


def _finite_fit(samples):
    fit = tl.fit_exponent(samples)
    if not all(math.isfinite(v) for v in (fit.exponent_hat, fit.coefficient_hat, fit.residual)):
        raise ValueError(f"fit with a non-finite field: {fit}")


def test_the_fit_returns_or_refuses_at_every_extreme_window_sample():
    # A library caller can hand fit_exponent any samples.  One sample of the
    # 8-sample window takes each extreme s and log f, and then every log f of
    # the window does: the fit has finite fields, or is refused.
    p = tl.validate(2.0, 0.5, -1.0)
    samples = tl.evaluate_sweep(p, tl.PurePower(2.0, 0.5), tl.make_grid(10.0, 1000.0, 16))
    head, first, rest = samples[:8], samples[8], samples[9:]
    calls = []
    for v in EXTREMES:
        calls += [(f"window sample s={v!r}", head + [first._replace(s=v)] + rest),
                  (f"window sample log_f={v!r}", head + [first._replace(log_f=v)] + rest),
                  (f"every window log_f={v!r}", head + [t._replace(log_f=v) for t in samples[8:]])]
    assert _uncaught([(label, lambda w=w: _finite_fit(w)) for label, w in calls]) == []
