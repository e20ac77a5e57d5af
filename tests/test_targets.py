"""What the engine reads from a target, and the refusals of its numeric inputs."""

import math
import warnings

import numpy as np
import pytest

import tauberlab as tl
from tauberlab import report

CANONICALS = [(2.0, 0.5, -1.0, 0.0), (-1.0, 2.0, 1.0, 1.0), (-1.0, -1.0, -1.0, 0.0)]
MEASURE = tl.TabulatedMeasure((0.0, 1.0, 2.0), (1.0, 2.0, 3.0))


class BarePower:
    """A power target with nothing but a, b, log_amplitude and label."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def log_amplitude(self, x):
        return self.a * np.asarray(x, dtype=float) ** self.b

    def label(self):
        return f"pure-power(a={self.a:g}, b={self.b:g})"


def _hex(samples):
    return [
        (s.psi.hex(), s.s.hex(), s.log_f.hex(), s.quad_error.hex(), s.tol_met)
        for s in samples
    ]


@pytest.mark.parametrize("a,b,c,offset", CANONICALS)
def test_a_bare_power_target_is_evaluated_as_the_pure_power(a, b, c, offset):
    bare, pure = BarePower(a, b), tl.PurePower(a, b)
    p = tl.validate(a, b, c, offset)
    grid = tl.make_grid(10.0, 1000.0, 9)
    s = tl.s_for_psi(b, 100.0)
    assert _hex([tl.log_transform(bare, c, offset, s)]) == _hex(
        [tl.log_transform(pure, c, offset, s)])
    assert _hex([tl.sample_at_psi(p, bare, 100.0)]) == _hex([tl.sample_at_psi(p, pure, 100.0)])
    psis = grid.psi_values[:3]
    assert _hex(tl.sample_at_psi(p, bare, psis)) == _hex(tl.sample_at_psi(p, pure, psis))
    rep_bare = tl.verify_equivalence(p, bare, grid)
    rep_pure = tl.verify_equivalence(p, pure, grid)
    assert _hex(rep_bare.samples) == _hex(rep_pure.samples)
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
    "sample-at-psi-other-power": (
        lambda: tl.sample_at_psi(tl.validate(2, 0.5, -1), tl.PurePower(2, 0.25), 100.0),
        tl.InconsistentInputs, "target log-amplitude is not the validated"),
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
