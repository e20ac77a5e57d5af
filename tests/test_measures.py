"""Tabulated measures: ingestion, transforms, quantization brackets."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tauberlab as tl
from inputs import outcome
from tauberlab.measures import _log_sum_shifted


class TestConstruction:
    def test_valid(self):
        m = tl.TabulatedMeasure((0.0, 1.0, 2.5), (1.0, 0.5, 0.25))
        assert len(m) == 3
        assert m.total_mass == pytest.approx(1.75)
        assert m.mass_above_zero() == pytest.approx(0.75)

    def test_rejects_bad_atoms(self):
        with pytest.raises(tl.ValidationError):
            tl.TabulatedMeasure((1.0, 1.0), (0.5, 0.5))  # not strictly increasing
        with pytest.raises(tl.ValidationError):
            tl.TabulatedMeasure((-1.0, 1.0), (0.5, 0.5))  # negative location
        with pytest.raises(tl.ValidationError):
            tl.TabulatedMeasure((0.0, 1.0), (0.5, 0.0))  # zero mass
        with pytest.raises(tl.ValidationError):
            tl.TabulatedMeasure((0.0,), (0.5, 0.5))  # length mismatch
        with pytest.raises(tl.ValidationError, match="finite"):
            tl.TabulatedMeasure((0.0, math.inf), (1.0, 1.0))

    @pytest.mark.parametrize("masses", [
        (1e308, 1e308),  # the running sums overflow
        (sys.float_info.max, 2.0**969, 2.0**969),  # the running sums round down; the total does not
    ])
    def test_a_total_mass_past_the_doubles_is_refused(self, masses):
        # Refused where it is built, before any sum warns or total_mass raises.
        with pytest.raises(tl.NumericOverflow, match="total mass"):
            tl.TabulatedMeasure(tuple(map(float, range(len(masses)))), masses)
        top = tl.TabulatedMeasure((0.0, 1.0), (sys.float_info.max / 2,) * 2)
        assert top.total_mass == sys.float_info.max

    def test_cumulative_and_tail(self):
        m = tl.TabulatedMeasure((0.0, 1.0, 2.0), (1.0, 2.0, 4.0))
        assert m.cumulative(0.0) == 1.0
        assert m.cumulative(1.5) == 3.0
        assert m.tail(1.0) == 4.0  # strictly greater than x
        assert m.tail(5.0) == 0.0

    def test_nan_x_is_refused_and_infinities_kept(self):
        # searchsorted alone puts NaN past every atom: total mass and 0.
        m = tl.TabulatedMeasure((1.0, 2.0), (2.0, 3.0))
        for fn in (m.cumulative, m.tail, tl.MeasureTarget(m, "cumulative").log_amplitude,
                   tl.MeasureTarget(m, "tail").log_amplitude):
            for x in (math.nan, np.array([0.5, math.nan, 3.0])):
                with pytest.raises(tl.DomainError, match="x = nan"):
                    fn(x)
        assert m.cumulative(np.array([-math.inf, math.inf])).tolist() == [0.0, 5.0]
        assert m.tail(np.array([-math.inf, math.inf])).tolist() == [5.0, 0.0]

    def test_tail_is_exactly_zero_past_last_atom(self):
        # total_mass - cumulative(x) left a 1.67e-15 residue on this fixture.
        m = tl.quantize_tail(lambda x: math.exp(-x * x), 1e-3, 40.0, 8192)
        assert m.tail(41.0) == 0.0
        assert tl.MeasureTarget(m, "tail").log_amplitude(41.0) == -math.inf

    def test_cumulative_amplitude(self):
        target = tl.MeasureTarget(tl.TabulatedMeasure((1.0,), (2.0,)), "cumulative")
        assert target.log_amplitude(np.array([0.5, 1.0])).tolist() == [-math.inf, math.log(2.0)]


class TestParsing:
    def test_parse_with_comments(self):
        text = "# fixture\n0\t1.0\n\n2.5\t0.5\n"
        m = tl.parse_measure_text(text)
        assert m.locations == (0.0, 2.5)
        assert m.masses == (1.0, 0.5)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "atoms.tsv"
        path.write_text("0.5\t1\n2\t0.25\n", encoding="utf-8")
        m = tl.load_measure(path)
        assert m.locations == (0.5, 2.0)

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(tl.MeasureFormatError, match="cannot read measure file"):
            tl.load_measure(tmp_path / "absent.tsv")

    @pytest.mark.parametrize(
        "text",
        ["1.0\n", "1 2 3\n", "x\t1\n", "2\t1\n1\t1\n", "0 1\n1 -1\n"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(tl.MeasureFormatError):
            tl.parse_measure_text(text)


class TestKohlbeckerTransform:
    def test_single_atom_at_origin(self):
        m = tl.TabulatedMeasure((0.0,), (1.0,))
        for lam in (0.1, 1.0, 100.0):
            assert tl.measure_transform_kohlbecker(m, lam) == pytest.approx(0.0)

    def test_two_atoms(self):
        lam = 3.7
        m = tl.TabulatedMeasure((0.0, lam), (1.0, 1.0))
        expected = math.log(1.0 + math.exp(-1.0))
        assert tl.measure_transform_kohlbecker(m, lam) == pytest.approx(expected)

    def test_empty_and_domain(self):
        with pytest.raises(tl.EmptyMeasure):
            tl.measure_transform_kohlbecker(tl.TabulatedMeasure((), ()), 1.0)
        m = tl.TabulatedMeasure((1.0,), (1.0,))
        with pytest.raises(tl.DomainError):
            tl.measure_transform_kohlbecker(m, 0.0)

    def test_extreme_locations_do_not_overflow(self):
        m = tl.TabulatedMeasure((0.0, 1e6), (1.0, 1.0))
        value = tl.measure_transform_kohlbecker(m, 1e-3)
        assert math.isfinite(value) and value == pytest.approx(0.0, abs=1e-12)


class TestKasaharaTransform:
    def test_single_atom_at_origin(self):
        m = tl.TabulatedMeasure((0.0,), (1.0,))
        for lam in (0.0, 1.0, 50.0):
            assert tl.measure_transform_kasahara(m, lam) == pytest.approx(0.0)

    def test_unit_mass_at_lambda_zero(self):
        m = tl.TabulatedMeasure((0.0, 1.0), (0.5, 0.5))
        assert tl.measure_transform_kasahara(m, 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "fn", [tl.measure_transform_kasahara, tl.kasahara_via_parts])
    def test_negative_lambda_refused(self, fn):
        with pytest.raises(tl.DomainError, match="lam must be >= 0"):
            fn(tl.TabulatedMeasure((0.0, 1.0), (1.0, 1.0)), -1.0)

    @pytest.mark.parametrize(
        "fn", [tl.measure_transform_kasahara, tl.kasahara_panel_bracket, tl.kasahara_via_parts])
    def test_nan_lambda_refused(self, fn):
        with pytest.raises(tl.DomainError, match="lam must be >= 0"):
            fn(tl.TabulatedMeasure((0.0, 1.0), (1.0, 1.0)), math.nan)

    def test_shift_dominated_by_top_atom(self):
        m = tl.TabulatedMeasure((1.0, 500.0), (1.0, 1.0))
        # exp(lam*500) dwarfs exp(lam*1); max-shifted sum must stay finite.
        value = tl.measure_transform_kasahara(m, 10.0)
        assert value == pytest.approx(5000.0, abs=1e-9)


# A log M outside the float range is refused, a vanishing term drops out, and
# neither leaks a numpy RuntimeWarning (an error under the suite's filter).
FAR = tl.TabulatedMeasure((0.0, 1e300), (1.0, 1.0))


class TestOverflowRule:
    @pytest.mark.parametrize(
        "fn", [tl.measure_transform_kasahara, tl.kasahara_via_parts, tl.kasahara_panel_bracket])
    def test_infinite_log_m_refused(self, fn):
        with pytest.raises(tl.NumericOverflow, match="not a finite float"):
            fn(FAR, 1e10)

    def test_nan_exponent_refused(self):
        # inf - inf for the panel (1e300, 1.1e300], both edges times lam
        # beyond the float range.
        far3 = tl.TabulatedMeasure((0.0, 1e300, 1.1e300), (1.0, 1.0, 1.0))
        with pytest.raises(tl.NumericOverflow, match="nan"):
            tl.kasahara_via_parts(far3, 1e10)

    def test_vanishing_term_drops_out(self):
        assert tl.measure_transform_kohlbecker(FAR, 1e-10) == 0.0
        far3 = tl.TabulatedMeasure((0.0, 1e300, 1.1e300), (1.0, 1.0, 1.0))
        assert tl.kohlbecker_panel_bracket(far3, 1e-10) == (0.0, math.log(2.0))

    def test_tail_route_refuses_infinite_log_f(self):
        with pytest.raises(tl.NumericOverflow):
            tl.log_transform(tl.MeasureTarget(FAR, "tail"), 1.0, 0.0, 1e-10)


class TestPartsIdentity:
    def test_exact_on_random_measures(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 40)
            locs = np.sort(rng.uniform(0.01, 5.0, n))
            locs += np.arange(n) * 1e-6  # enforce strict increase
            masses = rng.uniform(0.1, 3.0, n)
            m = tl.TabulatedMeasure(tuple(locs), tuple(masses))
            for lam in (0.0, 0.5, 2.0, 11.0):
                direct = tl.measure_transform_kasahara(m, lam)
                via = tl.kasahara_via_parts(m, lam)
                assert via == pytest.approx(direct, abs=1e-10)

    def test_matches_panel_loop(self):
        # Reference: the panel-by-panel loop, one math.* call per atom.
        m = tl.quantize_tail(lambda x: math.exp(-x * x), 1e-3, 40.0, 512)
        for lam in (0.0, 0.3, 3.0, 30.0):
            log_terms = [math.log(m.mass_above_zero())]
            prev = 0.0
            for i, x in enumerate(m.locations):
                tail = math.fsum(m.masses[i:])
                lo, hi = lam * prev, lam * x
                prev = x
                if hi > lo:
                    log_terms.append(math.log(tail) + hi + math.log1p(-math.exp(lo - hi)))
            top = max(log_terms)
            expected = top + math.log(math.fsum(math.exp(t - top) for t in log_terms))
            assert tl.kasahara_via_parts(m, lam) == pytest.approx(expected, abs=1e-12)

    def test_tail_quantized_fixture_at_lambda_ten(self):
        # mu(x, inf) = exp(-x^2): direct summation and the offset+integral
        # route must agree to roundoff on the same tabulated measure.
        m = tl.quantize_tail(lambda x: math.exp(-x * x), 1e-3, 40.0, 4096)
        direct = tl.measure_transform_kasahara(m, 10.0)
        via = tl.kasahara_via_parts(m, 10.0)
        assert via == pytest.approx(direct, abs=1e-9)


class TestQuantization:
    def test_cumulative_masses_reconstruct_function(self):
        F = lambda x: math.exp(2.0 * math.sqrt(x))
        m = tl.quantize_cumulative(F, 1e-2, 100.0, 256)
        assert m.locations[0] == 0.0 and m.masses[0] == pytest.approx(1.0)
        assert m.cumulative(100.0) == pytest.approx(F(100.0), rel=1e-9)

    def test_tail_masses_reconstruct_function(self):
        G = lambda x: math.exp(-x * x)
        m = tl.quantize_tail(G, 1e-2, 10.0, 256)
        assert m.total_mass == pytest.approx(1.0, rel=1e-9)
        # Step tail matches G up to one panel's kernel variation.
        assert m.tail(1.0) == pytest.approx(G(1.0), rel=0.1)

    def test_monotonicity_enforced(self):
        with pytest.raises(tl.ValidationError):
            tl.quantize_cumulative(lambda x: -x, 0.1, 10.0, 16)
        with pytest.raises(tl.ValidationError):
            tl.quantize_tail(lambda x: x, 0.1, 10.0, 16)

    def test_non_finite_mass_function_refused(self):
        # A NaN drop once fell out of the kept atoms, leaving 43.9 of 100.
        fn = lambda x: math.nan if 3.0 < x < 50.0 else min(x, 100.0)
        with pytest.raises(tl.ValidationError, match="not finite at x = ") as info:
            tl.quantize_cumulative(fn, 0.1, 1000.0, 40)
        x = float(str(info.value).rsplit(" ", 1)[-1])
        assert 3.0 < x < 3.0 * (1e4 ** (1 / 39))  # the first grid point past 3
        with pytest.raises(tl.ValidationError, match=r"not finite at x = 0\.0"):
            tl.quantize_tail(lambda x: math.inf if x == 0.0 else 1.0, 0.1, 10.0, 8)

    @pytest.mark.parametrize(
        "quantize,args,message",
        [(tl.quantize_cumulative, (0.0, 1.0, 8), "need 0 < x_min < x_max"),
         (tl.quantize_tail, (0.1, 1.0, 1), "need at least 2 grid points")],
    )
    def test_bad_grid_refused(self, quantize, args, message):
        with pytest.raises(tl.ValidationError, match=message):
            quantize(lambda x: 1.0, *args)

    def test_kohlbecker_bracket_contains_quadrature_route(self):
        # Quantized mu[0,x] = exp(2*sqrt(x)) versus the integral route
        # M(lam) = int_0^inf e^{-y} mu[0, y*lam] dy evaluated by quadrature.
        F = lambda x: math.exp(2.0 * math.sqrt(x))
        m = tl.quantize_cumulative(F, 1e-4, 1e4, 4096)
        for lam in (0.3, 3.0):
            lo, hi = tl.kohlbecker_panel_bracket(m, lam)
            assert lo <= tl.measure_transform_kohlbecker(m, lam) <= hi
            ts = tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, 0.0, lam)
            slack = ts.quad_error + 1e-6
            assert lo - slack <= ts.log_f <= hi + slack

    def test_kasahara_bracket_contains_quadrature_route(self):
        G = lambda x: math.exp(-x * x)
        m = tl.quantize_tail(G, 1e-3, 40.0, 4096)
        for lam in (0.3, 3.0):
            lo, hi = tl.kasahara_panel_bracket(m, lam)
            assert lo <= tl.measure_transform_kasahara(m, lam) <= hi
            ts = tl.log_transform(tl.PurePower(-1.0, 2.0), 1.0, 1.0, 1.0 / lam)
            slack = ts.quad_error + 1e-6
            assert lo - slack <= ts.log_f <= hi + slack


def _cumulative_sqrt_exact(lam):
    # mu[0, x] = expm1(sqrt(x)): with x = t**2 the transform is
    # int_0^inf exp(t - t**2/lam) dt = sqrt(pi*lam)/2 * e^(lam/4) * erfc(-sqrt(lam)/2).
    return (lam / 4.0 + 0.5 * math.log(math.pi * lam) - math.log(2.0)
            + math.log(math.erfc(-math.sqrt(lam) / 2.0)))


# (bracket, quantizer, mass function, x_max, n, lam, exact log M(lam)).  A
# grid from x_min > 0 gives no atom at 0: the first atom carries the mass of
# (0, x_min], which a first panel starting at that atom would put outside
# the bracket.
ENCLOSURES = {
    **{f"kohlbecker-lam={lam:g}": (
        tl.kohlbecker_panel_bracket, tl.quantize_cumulative, lambda x: math.expm1(math.sqrt(x)),
        1e4, 4000, lam, _cumulative_sqrt_exact(lam)) for lam in (0.3, 3.0, 30.0)},
    **{f"kasahara-lam={lam:g}": (
        tl.kasahara_panel_bracket, tl.quantize_tail, lambda x: math.exp(-x),
        60.0, 2000, lam, -math.log1p(-lam)) for lam in (0.2, 0.5)},
}


@pytest.mark.parametrize("x_min", [1e-3, 0.3, 1.0], ids=lambda x: f"x_min={x:g}")
@pytest.mark.parametrize(
    "bracket, quantize, fn, x_max, n, lam, exact", list(ENCLOSURES.values()), ids=list(ENCLOSURES))
def test_the_bracket_encloses_the_exact_transform(bracket, quantize, fn, x_max, n, lam, exact,
                                                  x_min):
    lo, hi = bracket(quantize(fn, x_min, x_max, n), lam)
    assert lo <= exact <= hi


@pytest.mark.parametrize("lam", [0.3, 3.0, 30.0])
def test_the_closed_form_of_the_kohlbecker_enclosure_is_the_integral(lam):
    with mp.workdps(30):
        exact = mp.log(mp.quad(lambda t: mp.exp(t - t * t / lam), [0, mp.inf]))
        assert _cumulative_sqrt_exact(lam) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)


# References for TestHeldArrays: each output formed from the measure's tuples
# on every call, with the expressions the sums had before the measure held
# its arrays.
def _ref_cumulative(m, x):
    cum = np.concatenate([[0.0], np.cumsum(m.masses)])
    return cum[np.searchsorted(np.asarray(m.locations), np.asarray(x, dtype=float), side="right")]


def _ref_suffix_sums(m):
    return np.concatenate([np.cumsum(np.asarray(m.masses)[::-1])[::-1], [0.0]])


def _ref_tail(m, x):
    idx = np.searchsorted(np.asarray(m.locations), np.asarray(x, dtype=float), side="right")
    return _ref_suffix_sums(m)[idx]


def _ref_left_edges(m):
    return np.concatenate([[0.0], np.asarray(m.locations)[:-1]])


def _ref_finite_lam(lam):
    if lam == math.inf:
        raise tl.DomainError("lam must be finite, got inf")


def _ref_kohlbecker(m, lam, locs=None):
    _ref_finite_lam(lam)
    locs = np.asarray(m.locations) if locs is None else locs
    with np.errstate(over="ignore"):
        return _log_sum_shifted(np.log(np.asarray(m.masses)) - locs / lam)


def _ref_kasahara(m, lam, locs=None):
    _ref_finite_lam(lam)
    locs = np.asarray(m.locations) if locs is None else locs
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_sum_shifted(np.log(np.asarray(m.masses)) + lam * locs)


def _ref_kohlbecker_bracket(m, lam):
    lower = _ref_kohlbecker(m, lam)
    return lower, _ref_kohlbecker(m, lam, _ref_left_edges(m))


def _ref_kasahara_bracket(m, lam):
    upper = _ref_kasahara(m, lam)
    return _ref_kasahara(m, lam, _ref_left_edges(m)), upper


def _ref_parts(m, lam):
    _ref_finite_lam(lam)
    locs = np.asarray(m.locations)
    above = math.fsum(w for x, w in zip(m.locations, m.masses) if x > 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi = lam * np.concatenate([[0.0], locs[:-1]]), lam * locs
        log_terms = np.log(_ref_suffix_sums(m)[:-1]) + hi + np.log(-np.expm1(lo - hi))
        log_terms = np.append(log_terms, np.log(above))
    return _log_sum_shifted(log_terms)


def _ref_route(m, kind, c, s):
    if kind == "cumulative" and not c < 0.0:
        raise tl.NotIntegrable("mu[0, x] does not vanish at infinity; need c < 0")
    with np.errstate(over="ignore", divide="ignore"):
        z = c * np.asarray(m.locations) / s
        if kind == "tail":
            z = np.maximum(z, 0.0) + np.log(-np.expm1(-np.abs(z)))
        return _log_sum_shifted(np.log(m.masses) + z) - math.log(abs(c))


@st.composite
def _measures(draw):
    locs = sorted(set(draw(st.lists(
        st.floats(-6.0, 5.0).map(lambda e: 10.0**e), min_size=1, max_size=40))))
    if draw(st.booleans()):
        locs = [0.0, *locs]
    masses = draw(st.lists(st.floats(-300.0, 3.0).map(lambda e: 10.0**e),
                           min_size=len(locs), max_size=len(locs)))
    return tl.TabulatedMeasure(tuple(locs), tuple(masses))


LAMS = (1e-300, 1e-3, 0.37, 1.0, 7.5, 1e3, 1e10, math.inf)


class TestHeldArrays:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(m=_measures())
    def test_every_output_equals_the_tuple_reference(self, m):
        locs = np.asarray(m.locations)
        xs = np.concatenate([[0.0, 0.5, 1e5, 2e5], locs, np.nextafter(locs, -1.0)])
        pairs = [
            (outcome(lambda: m.total_mass), outcome(math.fsum, m.masses)),
            (outcome(m.mass_above_zero),
             outcome(math.fsum, [w for x, w in zip(m.locations, m.masses) if x > 0.0])),
            (outcome(m.cumulative, xs), outcome(_ref_cumulative, m, xs)),
            (outcome(m.tail, xs), outcome(_ref_tail, m, xs)),
        ]
        for kind, ref in (("cumulative", _ref_cumulative), ("tail", _ref_tail)):
            target = tl.MeasureTarget(m, kind)
            with np.errstate(divide="ignore"):
                pairs.append((outcome(target.log_amplitude, xs), outcome(np.log, ref(m, xs))))
            for c in (-2.0, -1e-3, 0.5, 3.0):
                for s in (1e-3, 1.0, 40.0):
                    pairs.append((
                        outcome(lambda: tl.log_transform(target, c, 0.0, s).log_f),
                        outcome(_ref_route, m, kind, c, s)))
        for lam in LAMS:
            pairs += [
                (outcome(tl.measure_transform_kohlbecker, m, lam),
                 outcome(_ref_kohlbecker, m, lam)),
                (outcome(tl.kohlbecker_panel_bracket, m, lam),
                 outcome(_ref_kohlbecker_bracket, m, lam)),
            ]
        for lam in (0.0, *LAMS):
            pairs += [
                (outcome(tl.measure_transform_kasahara, m, lam),
                 outcome(_ref_kasahara, m, lam)),
                (outcome(tl.kasahara_panel_bracket, m, lam),
                 outcome(_ref_kasahara_bracket, m, lam)),
                (outcome(tl.kasahara_via_parts, m, lam), outcome(_ref_parts, m, lam)),
            ]
        for got, expected in pairs:
            assert got == expected

    def test_fields_are_float_tuples_and_held_arrays_are_read_only(self):
        locs = np.array([0.0, 0.1, 2.5])
        m = tl.TabulatedMeasure(locs, [1, 1e-300, 0.3])
        # The benchmark's fixture writer prints the atoms with {x!r}, which
        # the parser must read back: a numpy scalar prints as np.float64(...).
        for values in (m.locations, m.masses):
            assert type(values) is tuple
            assert all(type(v) is float and float(repr(v)) == v for v in values)
        assert m == tl.TabulatedMeasure((0.0, 0.1, 2.5), (1.0, 1e-300, 0.3))
        # Nothing but a measure equals a measure, its own field tuple included.
        assert (m == (m.locations, m.masses)) is False and m.__eq__(object()) is NotImplemented
        assert locs.flags.writeable  # the caller's array is copied, not frozen
        for held in (m._x, m._log_m, m._cum, m._suffix):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 1.0


# The five lam sums and the refusal of a lam out of each one's range.
LAM_SUMS = {
    "kohlbecker": (tl.measure_transform_kohlbecker, "lam must be positive"),
    "kohlbecker-bracket": (tl.kohlbecker_panel_bracket, "lam must be positive"),
    "kasahara": (tl.measure_transform_kasahara, "lam must be >= 0"),
    "kasahara-bracket": (tl.kasahara_panel_bracket, "lam must be >= 0"),
    "kasahara-parts": (tl.kasahara_via_parts, "lam must be >= 0"),
}


class TestLamGate:
    @pytest.mark.parametrize("fn, message", list(LAM_SUMS.values()), ids=list(LAM_SUMS))
    def test_an_empty_measure_is_refused_before_a_nan_lam(self, fn, message):
        with pytest.raises(tl.EmptyMeasure, match="^measure has no atoms$"):
            fn(tl.TabulatedMeasure((), ()), math.nan)

    @pytest.mark.parametrize("fn, message", list(LAM_SUMS.values()), ids=list(LAM_SUMS))
    def test_a_nan_lam_is_refused_with_its_sides_message(self, fn, message):
        with pytest.raises(tl.DomainError, match=f"^{re.escape(message)}$"):
            fn(tl.TabulatedMeasure((0.0, 1.0), (1.0, 1.0)), math.nan)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(m=_measures(), lam=st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    def test_the_kohlbecker_sum_is_the_cumulative_route(self, m, lam):
        # Bit for bit: repr tells -0.0 from 0.0.
        route = tl.log_transform(tl.MeasureTarget(m), -1.0, 0.0, lam).log_f
        assert repr(tl.measure_transform_kohlbecker(m, lam)) == repr(route)
