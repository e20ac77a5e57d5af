"""Tabulated measures: ingestion, transforms, quantization brackets."""

import math

import numpy as np
import pytest

import tauberlab as tl


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

    def test_cumulative_and_tail(self):
        m = tl.TabulatedMeasure((0.0, 1.0, 2.0), (1.0, 2.0, 4.0))
        assert m.cumulative(0.0) == 1.0
        assert m.cumulative(1.5) == 3.0
        assert m.tail(1.0) == 4.0  # strictly greater than x
        assert m.tail(5.0) == 0.0

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
        # inf * 0 for the atom at the origin.
        with pytest.raises(tl.NumericOverflow, match="nan"):
            tl.measure_transform_kasahara(FAR, math.inf)

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
