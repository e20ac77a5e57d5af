"""Validation, dual-coefficient closed forms, and saddle invariants."""

import math
import sys

import numpy as np
import pytest

import tauberlab as tl

# Canonical example per regime: (a, b, c, offset) -> (d, dual_exp, regime).
CANONICAL = {
    "kohlbecker": (2.0, 0.5, -1.0, 0.0, 1.0, 1.0, tl.Regime.KOHLBECKER),
    "kasahara": (-1.0, 2.0, 1.0, 0.0, 0.25, -2.0, tl.Regime.KASAHARA),
    "de-bruijn": (-1.0, -1.0, -1.0, 0.0, -2.0, -0.5, tl.Regime.DE_BRUIJN),
}


def _h(p, x):
    """The saddle function h(x) = a*x**b + c*x - d from p's own fields."""
    return p.a * x**p.b + p.c * x - p.d


def _random_triples(rng, regime, n):
    """Admissible (a, b, c) with magnitudes in [0.1, 10] and regime signs."""
    mag_a = rng.uniform(0.1, 10.0, n)
    mag_c = rng.uniform(0.1, 10.0, n)
    if regime == "kohlbecker":
        b = rng.uniform(0.05, 0.95, n)
        return np.column_stack([mag_a, b, -mag_c])
    if regime == "kasahara":
        b = rng.uniform(1.05, 8.0, n)
        return np.column_stack([-mag_a, b, mag_c])
    b = rng.uniform(-8.0, -0.05, n)
    return np.column_stack([-mag_a, b, -mag_c])


class TestValidate:
    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_canonical_examples(self, name):
        a, b, c, offset, d, dual, regime = CANONICAL[name]
        p = tl.validate(a, b, c, offset)
        assert p.d == pytest.approx(d, rel=1e-12)
        assert p.dual_exp == pytest.approx(dual, rel=1e-14)
        assert p.regime is regime

    def test_kohlbecker_d_matches_classical_coefficient(self):
        # Cross-check against (alpha-1)*(B/alpha)**(alpha/(alpha-1)), alpha=2, B=2.
        alpha, B = 2.0, 2.0
        classical = (alpha - 1.0) * (B / alpha) ** (alpha / (alpha - 1.0))
        assert tl.validate(2.0, 0.5, -1.0).d == pytest.approx(classical, rel=1e-14)

    def test_debruijn_d_matches_classical_coefficient(self):
        # B*(1-beta)*(rate/(B*beta))**(beta/(beta-1)), beta=-1, B=-1, rate=1.
        beta, B, rate = -1.0, -1.0, 1.0
        classical = B * (1.0 - beta) * (rate / (B * beta)) ** (beta / (beta - 1.0))
        assert tl.validate(-1.0, -1.0, -1.0).d == pytest.approx(classical, rel=1e-14)

    def test_sign_condition_rejected_with_product_value(self):
        with pytest.raises(tl.SignConditionViolated) as err:
            tl.validate(1.0, 2.0, -1.0)
        assert err.value.product == "a*b*(b-1)"
        assert err.value.value == pytest.approx(2.0)
        assert "a*b*(b-1) = 2" in str(err.value)

    def test_kernel_sign_condition_rejected(self):
        with pytest.raises(tl.SignConditionViolated) as err:
            tl.validate(2.0, 0.5, 1.0)  # a*b*(b-1) fine, a*b*c = 1 > 0
        assert err.value.product == "a*b*c"

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_degenerate_exponent(self, b):
        with pytest.raises(tl.DegenerateExponent):
            tl.validate(2.0, b, -1.0)

    def test_zero_rate(self):
        with pytest.raises(tl.ZeroRate):
            tl.validate(2.0, 0.5, 0.0)

    def test_offset_not_allowed_when_d_negative(self):
        with pytest.raises(tl.OffsetNotAllowed):
            tl.validate(-1.0, -1.0, -1.0, offset=1.0)
        # d > 0 regimes accept an offset.
        assert tl.validate(-1.0, 2.0, 1.0, offset=1.0).offset == 1.0

    @pytest.mark.parametrize(
        "a,b,c",
        [
            (1e9, 0.5, -1.0), (1e-9, 0.5, -1.0), (2.0, 65.0, -1.0), (2.0, 0.5, -1e9),
            # Inside the box, but d = a*(1-b)*(-c/(a*b))**(b/(b-1)) overflows.
            (-1.0, 1.001, 100.0), (-1e-8, 1.0005, 1e8), (-1.0, 1.01, 1e4),
        ],
    )
    def test_guardrails_raise_numeric_overflow(self, a, b, c):
        with pytest.raises(tl.NumericOverflow):
            tl.validate(a, b, c)

    def test_non_finite_rejected(self):
        with pytest.raises(tl.ValidationError):
            tl.validate(float("nan"), 0.5, -1.0)
        with pytest.raises(tl.ValidationError):
            tl.validate(2.0, 0.5, float("inf"))

    def test_every_other_sign_pattern_rejected(self):
        # For each regime's b, only one (sign a, sign c) pattern is admissible.
        cases = {0.5: (1, -1), 2.0: (-1, 1), -1.0: (-1, -1)}
        for b, allowed in cases.items():
            for sa in (1, -1):
                for sc in (1, -1):
                    if (sa, sc) == allowed:
                        tl.validate(sa * 2.0, b, sc * 1.5)
                    else:
                        with pytest.raises(tl.SignConditionViolated):
                            tl.validate(sa * 2.0, b, sc * 1.5)


class TestComputeD:
    """The d that validate computes."""

    @pytest.mark.parametrize(
        "a,b,c,expected",
        [(-1.0, 2.0, 1.0, 0.25), (2.0, 0.5, -1.0, 1.0), (-1.0, -1.0, -1.0, -2.0)],
    )
    def test_examples(self, a, b, c, expected):
        assert tl.validate(a, b, c).d == pytest.approx(expected, rel=1e-12)

    def test_kasahara_d_matches_classical_coefficient(self):
        # (1-alpha)*(alpha/B)**(alpha/(1-alpha)), alpha=0.5, B=1.
        alpha, B = 0.5, 1.0
        classical = (1.0 - alpha) * (alpha / B) ** (alpha / (1.0 - alpha))
        assert tl.validate(-1.0, 2.0, 1.0).d == pytest.approx(classical, rel=1e-14)

    def test_agrees_with_value_form_on_random_triples(self):
        rng = np.random.default_rng(1234)
        for regime in ("kohlbecker", "kasahara", "de-bruijn"):
            for a, b, c in _random_triples(rng, regime, 300):
                d = tl.validate(a, b, c).d
                x = (-c / (a * b)) ** (1.0 / (b - 1.0))
                value_form = a * x**b + c * x
                assert d == pytest.approx(value_form, rel=1e-12)


class TestDVariants:
    def test_base_one_forces_agreement(self):
        assert tl.d_variants(2.0, 0.5, -1.0) == pytest.approx((1.0, 1.0))
        assert tl.d_variants(-1.0, -1.0, -1.0) == pytest.approx((-2.0, -2.0))

    def test_kasahara_variants_differ(self):
        # Base -a*b/c = 2, exponents b/(b-1) = 2 vs b/(1-b) = -2:
        # stated = a*(1-b)*2**2 = 4, consistent = a*(1-b)*2**-2 = 0.25.
        stated, consistent = tl.d_variants(-1.0, 2.0, 1.0)
        assert stated == pytest.approx(4.0, rel=1e-14)
        assert consistent == pytest.approx(0.25, rel=1e-14)

    def test_consistent_variant_equals_compute_d(self):
        rng = np.random.default_rng(99)
        for regime in ("kohlbecker", "kasahara", "de-bruijn"):
            for a, b, c in _random_triples(rng, regime, 100):
                _, consistent = tl.d_variants(a, b, c)
                assert consistent == pytest.approx(tl.validate(a, b, c).d, rel=1e-12)

    @pytest.mark.parametrize(
        "a,b,c,stated,consistent",
        [
            # The stated power overflows: the audit reports +inf, not a refusal.
            (-1e8, 1.0001, 93243111.17428248, math.inf, 5.044978353477935e-301),
            (-15787882.360285742, 1.0246206765357095, 0.5512759532684256,
             math.inf, 6.597730537913163e-306),
            # a*(1-b) times the stated power underflows to 0.
            (-1e-8, 1.000000001, 1.0000007090452255e-08, 0.0, 3.1622780414947405e+290),
        ],
    )
    def test_stated_variant_outside_float_range_is_reported(self, a, b, c, stated, consistent):
        assert tl.d_variants(a, b, c) == (stated, consistent)

    def test_variants_agree_iff_unit_base(self):
        rng = np.random.default_rng(7)
        for a, b, c in _random_triples(rng, "kasahara", 200):
            stated, consistent = tl.d_variants(a, b, c)
            base = -(a * b) / c
            if abs(base - 1.0) < 1e-12:
                assert stated == pytest.approx(consistent, rel=1e-9)
            elif abs(math.log(base)) > 1e-3:
                assert stated != pytest.approx(consistent, rel=1e-6)


class TestNumpyInputs:
    """A numpy float64 input gives the Python-float outcome: the admission step
    converts it, so no numpy RuntimeWarning (an error under the suite's
    warning filter) stands in for the refusal."""

    @pytest.mark.parametrize("fn", [tl.validate])
    def test_unrepresentable_d_refused(self, fn):
        with pytest.raises(tl.NumericOverflow, match="dual coefficient not representable"):
            fn(np.float64(1e8), 0.9999, -93220735.51272528)

    def test_d_variants_reports_overflow(self):
        assert tl.d_variants(np.float64(-1e8), 1.0001, 93243111.17428248) == (
            math.inf, 5.044978353477935e-301)

    def test_recover_primal_stationary_point_refused(self):
        with pytest.raises(tl.InconsistentInputs, match="stationary point v0 .* must be positive"):
            tl.recover_primal(np.float64(1e300), np.float64(1e15), np.float64(1e-8))


class TestSaddle:
    @pytest.mark.parametrize(
        "a,b,c,x_peak,curvature",
        [
            (2.0, 0.5, -1.0, 1.0, -0.5),
            (-1.0, -1.0, -1.0, 1.0, -2.0),
            (-1.0, 2.0, 1.0, 0.5, -2.0),
        ],
    )
    def test_examples(self, a, b, c, x_peak, curvature):
        p = tl.validate(a, b, c)
        sp = tl.saddle_analysis(p)
        assert sp.x_peak == pytest.approx(x_peak, rel=1e-12)
        assert abs(sp.h_at_max) <= 1e-10 * abs(p.d)
        assert sp.curvature == pytest.approx(curvature, rel=1e-12)

    def test_invariants_on_random_triples(self):
        rng = np.random.default_rng(2024)
        for regime in ("kohlbecker", "kasahara", "de-bruijn"):
            for a, b, c in _random_triples(rng, regime, 1000):
                p = tl.validate(a, b, c)
                sp = tl.saddle_analysis(p)
                scale = abs(p.d)
                assert abs(sp.h_at_max) <= 1e-10 * scale
                assert sp.curvature < 0.0
                grid = sp.x_peak * np.logspace(-2, 2, 64)
                assert np.all(_h(p, grid) <= 1e-12 * scale)
                assert math.copysign(1.0, p.d) == math.copysign(1.0, p.b)

    @pytest.mark.parametrize(
        "a,b,c",
        [
            # h(x_peak) overflows to NaN.
            (-35.9226308546618, 1.017781697399071, 8526849.10586266),
            (1243646.727069192, 0.9938868893061318, -17041.056669970476),
            # d = 5e-324 is subnormal, so 1e-10*|d| rounds to 0.
            (-0.6634491378833124, 1.0229653032791624, 4.124122724605254e-08),
        ],
    )
    def test_roundoff_refused_without_warning(self, a, b, c):
        # pytest turns a RuntimeWarning into an error, so a leaked numpy
        # warning fails here instead of reaching NumericOverflow.  validate
        # alone refuses: no command gets a triple whose saddle is untrusted.
        with pytest.raises(tl.NumericOverflow):
            tl.validate(a, b, c)

    def test_curvature_underflow_refused(self):
        # x_peak**(b-2) underflows, so h''(x_peak) rounds to -0.0.
        with pytest.raises(tl.NumericOverflow, match="saddle curvature -0.0 not strictly negative"):
            tl.validate(-1e-8, 1.0000000000000002, 1.0000000000001535e-08)

    def test_closed_form_contract_near_b_one(self):
        # |b - 1| log-uniform in [1e-14, 1e-1] is where x_peak, h(x_peak) and
        # d come closest to the float limits.
        rng = np.random.default_rng(16)
        n = 10_000

        def log_uniform(lo, hi):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

        b = 1.0 + rng.choice([-1.0, 1.0], n) * log_uniform(1e-14, 1e-1)
        # Regime signs: a > 0 > c below b = 1 (Kohlbecker), a < 0 < c above.
        sign = np.where(b < 1.0, 1.0, -1.0)
        refused = 0
        for a, bb, c in zip(sign * log_uniform(1e-8, 1e8), b, -sign * log_uniform(1e-8, 1e8)):
            try:
                p = tl.validate(a, bb, c)
                sp = tl.saddle_analysis(p)
            except tl.NumericOverflow:
                refused += 1
                continue
            assert math.isfinite(sp.x_peak)
            assert sp.curvature < 0.0
            assert abs(sp.h_at_max) <= 1e-10 * abs(p.d)
            assert abs(p.d) >= sys.float_info.min
        assert 0 < refused < n


class TestExponentDuality:
    def test_examples(self):
        assert tl.dual_exponent(0.5) == 1.0
        assert tl.dual_exponent(2.0) == -2.0

    @pytest.mark.parametrize("b", [-3.0, -1.0, 0.25, 0.9, 1.5, 4.0])
    def test_mutual_inverse(self, b):
        assert tl.primal_exponent(tl.dual_exponent(b)) == pytest.approx(b, abs=1e-14)

    def test_degenerate(self):
        for b in (0.0, 1.0):
            with pytest.raises(tl.DegenerateExponent):
                tl.dual_exponent(b)
        with pytest.raises(tl.DegenerateExponent):
            tl.primal_exponent(-1.0)


class TestRecoverPrimal:
    @pytest.mark.parametrize(
        "d,e,c,a,b",
        [
            (1.0, 1.0, -1.0, 2.0, 0.5),
            (0.25, -2.0, 1.0, -1.0, 2.0),
            (-2.0, -0.5, -1.0, -1.0, -1.0),
        ],
    )
    def test_examples(self, d, e, c, a, b):
        a_hat, b_hat = tl.recover_primal(d, e, c)
        assert a_hat == pytest.approx(a, rel=1e-12)
        assert b_hat == pytest.approx(b, rel=1e-12)

    def test_round_trip_on_random_triples(self):
        rng = np.random.default_rng(55)
        for regime in ("kohlbecker", "kasahara", "de-bruijn"):
            for a, b, c in _random_triples(rng, regime, 300):
                d = tl.validate(a, b, c).d
                a_hat, b_hat = tl.recover_primal(d, tl.dual_exponent(b), c)
                assert a_hat == pytest.approx(a, rel=1e-9)
                assert b_hat == pytest.approx(b, rel=1e-9)

    def test_inconsistent_inputs(self):
        # d > 0 with a c that forces v0 < 0.
        with pytest.raises(tl.InconsistentInputs):
            tl.recover_primal(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("e,c,b", [(0.0, -1.0, 0), (1e17, 1.0, 1)])
    def test_degenerate_recovered_exponent(self, e, c, b):
        # e = 1e17 rounds b = e/(1+e) to exactly 1.
        with pytest.raises(tl.InconsistentInputs, match=f"recovered exponent b={b} is degenerate"):
            tl.recover_primal(1.0, e, c)

    def test_inadmissible_recovered_triple(self):
        with pytest.raises(tl.InconsistentInputs, match="inadmissible: .c. = 1e-09 outside"):
            tl.recover_primal(1.0, 1.0, -1e-9)

    @pytest.mark.parametrize(
        "d,e,c",
        [(10.0, -1.001, 1.0), (5.0, -1.0001, 1.0), (1e-3, -1.001, 1.0),
         pytest.param(np.float64(10.0), np.float64(-1.001), 1.0, id="numpy-float64")],
    )
    def test_dual_exponent_near_minus_one(self, d, e, c):
        # b = e/(1+e) is about 1e3 or 1e4, so v0**b leaves the float range:
        # it overflows for v0 > 1 and underflows to 0 for v0 < 1, with numpy
        # float64 inputs too.
        with pytest.raises(tl.InconsistentInputs):
            tl.recover_primal(d, e, c)


class TestHEval:
    """h evaluated from the fields that validate returns."""

    def test_examples(self):
        p = tl.validate(2.0, 0.5, -1.0)
        assert _h(p, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert _h(p, 4.0) == pytest.approx(-1.0, rel=1e-12)

    def test_zero_at_peak_for_any_valid_params(self):
        for a, b, c, *_ in CANONICAL.values():
            p = tl.validate(a, b, c)
            assert abs(_h(p, p.saddle.x_peak)) <= 1e-10


class TestPsiMaps:
    def test_round_trip(self):
        for b in (0.5, 2.0, -1.0, -3.0, 0.25):
            for psi in (1.0, 10.0, 1e3):
                s = tl.s_for_psi(b, psi)
                assert tl.psi_for_s(b, s) == pytest.approx(psi, rel=1e-12)

    @pytest.mark.parametrize(
        "to,b,x",
        [("s", 1e-3, 1e16), ("psi", 0.999, 1e16),
         pytest.param("s", 0.01, np.float64(1e5), id="numpy-float64")],
    )
    def test_overflow_refused(self, to, b, x):
        # The power x**((1-b)/b) or x**(b/(1-b)) exceeds the float range; a
        # numpy float64 x must raise too, not warn.
        with pytest.raises(tl.NumericOverflow):
            (tl.s_for_psi if to == "s" else tl.psi_for_s)(b, x)

    @pytest.mark.parametrize("fn", [tl.s_for_psi, tl.psi_for_s])
    def test_non_positive_argument_refused(self, fn):
        with pytest.raises(tl.DomainError):
            fn(0.5, 0.0)

    def test_numpy_sweep_overflow_refused(self):
        p = tl.validate(1.0, 0.01, -1.0)
        with pytest.raises(tl.NumericOverflow):
            tl.sample_at_psi(p, tl.PurePower(1.0, 0.01), np.array([10.0, 1e5]))

    @pytest.mark.parametrize(
        "to,b,x",
        [("s", -1e-3, 1e16), ("psi", 0.999, 1e-16)],
    )
    def test_underflow_refused(self, to, b, x):
        # An underflow to 0 is refused too, not passed on as s = 0 or psi = 0.
        with pytest.raises(tl.NumericOverflow):
            (tl.s_for_psi if to == "s" else tl.psi_for_s)(b, x)
