"""Grids, index estimators, exponent fits, and equivalence verification."""

import math

import numpy as np
import pytest

import tauberlab as tl
from tauberlab import report as tl_report


def _synthetic_samples(model, lam_min=10.0, lam_max=1000.0, n=16):
    lams = np.exp(np.linspace(math.log(lam_min), math.log(lam_max), n))
    return [
        tl.TransformSample(psi=l, s=l, log_f=model(l), quad_error=0.0) for l in lams
    ]


class TestMakeGrid:
    def test_geometric_points(self):
        g = tl.make_grid(10.0, 1000.0, 9)
        ratio = 100.0 ** (1.0 / 8.0)
        for k, psi in enumerate(g.psi_values):
            assert psi == pytest.approx(10.0 * ratio**k, rel=1e-12)
        assert g.psi_values[0] == 10.0 and g.psi_values[-1] == 1000.0

    @pytest.mark.parametrize(
        "args", [(1.0, 100.0, 3), (1.0, 1.0, 8), (0.5, 100.0, 8), (10.0, 5.0, 8)]
    )
    def test_bad_ranges(self, args):
        with pytest.raises(tl.BadRange):
            tl.make_grid(*args)

    def test_non_geometric_rejected(self):
        with pytest.raises(tl.BadRange):
            tl.EvalGrid(tuple(float(x) for x in range(1, 10)))


class TestCkIndex:
    def test_exact_power(self):
        samples = [(math.e**2, math.e**6), (math.e**4, math.e**12), (math.e**8, math.e**24)]
        res = tl.ck_index(samples)
        for _, tau in res.points:
            assert tau == pytest.approx(3.0, abs=1e-12)

    def test_constant_factor_shift(self):
        x = math.e**10
        res = tl.ck_index([(x, 5.0 * x**3)])
        assert res.tau_at_top == pytest.approx(3.0 + math.log(5.0) / 10.0, abs=1e-12)

    def test_slowly_varying_factor_fades(self):
        x = math.e**100
        res = tl.ck_index([(x, x**3 * math.log(x))])
        assert res.tau_at_top == pytest.approx(3.0 + math.log(100.0) / 100.0, abs=1e-12)

    def test_pointwise_identity_for_scaled_powers(self):
        # |tau_hat(x) - tau| = |log C| / log x exactly.
        rng = np.random.default_rng(3)
        for _ in range(50):
            tau = rng.uniform(-3.0, 4.0)
            C = rng.uniform(0.2, 8.0)
            x = rng.uniform(5.0, 1e12)
            res = tl.ck_index([(x, C * x**tau)])
            assert abs(res.tau_at_top - tau) == pytest.approx(
                abs(math.log(C)) / math.log(x), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(tl.DomainError):
            tl.ck_index([(1.0, 2.0)])
        with pytest.raises(tl.DomainError):
            tl.ck_index([(2.0, 0.0)])
        with pytest.raises(tl.DomainError):
            tl.ck_index([])


def _grid_samples(fn, x_min, x_max, n):
    xs = np.exp(np.linspace(math.log(x_min), math.log(x_max), n))
    return [(float(x), float(fn(x))) for x in xs]


class TestClassMCheck:
    def test_exact_power_consistent_at_true_index(self):
        samples = _grid_samples(lambda x: x**2, 10.0, 1e6, 16)
        diag = tl.class_m_check(samples, tau=2.0, epsilons=(0.5,))
        assert diag.consistent
        chk = diag.epsilon_checks[0]
        assert chk.upper_verdict is tl.TrendVerdict.TENDS_TO_ZERO
        assert chk.lower_verdict is tl.TrendVerdict.TENDS_TO_INFINITY

    def test_wrong_index_fails(self):
        samples = _grid_samples(lambda x: x**2, 10.0, 1e6, 16)
        diag = tl.class_m_check(samples, tau=3.0, epsilons=(0.5,))
        assert not diag.consistent
        # U/x^{2.5} -> 0, so the lower trajectory cannot tend to infinity.
        assert diag.epsilon_checks[0].lower_verdict is not tl.TrendVerdict.TENDS_TO_INFINITY

    def test_stretched_exponential_has_no_index(self):
        # x capped so U = exp(sqrt(x)) stays inside double range.
        samples = _grid_samples(lambda x: math.exp(math.sqrt(x)), 10.0, 1e5, 16)
        for tau in (1.0, 2.0, 5.0):
            assert not tl.class_m_check(samples, tau=tau).consistent

    def test_insufficient_span(self):
        with pytest.raises(tl.InsufficientSpan):
            tl.class_m_check(_grid_samples(lambda x: x, 10.0, 100.0, 16), 1.0)
        with pytest.raises(tl.InsufficientSpan):
            tl.class_m_check(_grid_samples(lambda x: x, 10.0, 1e6, 4), 1.0)

    def test_agrees_with_ck_index_when_quotient_stabilizes(self):
        # Once tau_hat's last-quarter spread is below 0.05, the pinching
        # diagnostic passes at tau for eps >= 0.1 (grid wide enough for the
        # factor-100 rule to fire).
        samples = _grid_samples(lambda x: 5.0 * x**3, 10.0, 1e24, 32)
        res = tl.ck_index(samples)
        assert res.spread_last_quarter < 0.05
        tau = 3.0
        diag = tl.class_m_check(samples, tau=tau, epsilons=(0.1, 0.5))
        assert diag.consistent


class TestFitExponent:
    def test_exact_linear_model(self):
        fit = tl.fit_exponent(_synthetic_samples(lambda l: l))
        assert fit.exponent_hat == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficient_hat == pytest.approx(1.0, abs=1e-10)
        assert fit.residual <= 1e-10

    def test_quadratic_with_log_correction(self):
        fit = tl.fit_exponent(
            _synthetic_samples(lambda l: 0.25 * l**2 + 0.5 * math.log(l))
        )
        assert 1.97 <= fit.exponent_hat <= 2.0

    def test_negative_coefficient_square_root(self):
        fit = tl.fit_exponent(_synthetic_samples(lambda l: -2.0 * l**0.5))
        assert fit.exponent_hat == pytest.approx(0.5, abs=1e-10)
        assert fit.coefficient_hat == pytest.approx(-2.0, abs=1e-10)

    def test_scale_equivariance(self):
        base = tl.fit_exponent(_synthetic_samples(lambda l: 0.7 * l**1.3))
        scaled = tl.fit_exponent(_synthetic_samples(lambda l: 3.0 * 0.7 * l**1.3))
        assert scaled.exponent_hat == pytest.approx(base.exponent_hat, abs=1e-12)
        assert scaled.coefficient_hat == pytest.approx(
            3.0 * base.coefficient_hat, rel=1e-12
        )

    def test_window_is_last_half(self):
        fit = tl.fit_exponent(_synthetic_samples(lambda l: l, n=16))
        assert fit.window == (8, 16)

    def test_sign_change_rejected(self):
        samples = _synthetic_samples(lambda l: l - 300.0)
        with pytest.raises(tl.SignChange):
            tl.fit_exponent(samples)

    def test_too_few_samples(self):
        with pytest.raises(tl.DegenerateWindow):
            tl.fit_exponent(_synthetic_samples(lambda l: l, n=5))


# Fit results on the canonical 16-point sweeps, frozen from the quadrature
# engine after cross-checking log f against the mpmath oracle.
CANONICAL_FITS = {
    "kohlbecker": (2.0, 0.5, -1.0, 0.0, 0.9882332887, 1.0867239310),
    "kasahara": (-1.0, 2.0, 1.0, 1.0, -1.9269710176, 0.3242108628),
    "de-bruijn": (-1.0, -1.0, -1.0, 0.0, -0.5024232499, -1.9324721200),
}


class TestVerifyEquivalence:
    @pytest.mark.parametrize("name", sorted(CANONICAL_FITS))
    def test_fit_values_frozen(self, name):
        a, b, c, offset, exp_hat, coef_hat = CANONICAL_FITS[name]
        p = tl.validate(a, b, c, offset)
        rep = tl.verify_equivalence(p, tl.PurePower(a, b), tl.make_grid(10, 1000, 16))
        assert rep.fit is not None
        assert rep.fit.exponent_hat == pytest.approx(exp_hat, abs=1e-6)
        assert rep.fit.coefficient_hat == pytest.approx(coef_hat, abs=1e-6)

    def test_kohlbecker_passes_default_profile(self):
        p = tl.validate(2.0, 0.5, -1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), tl.make_grid(10, 1000, 16))
        assert rep.passed
        assert rep.a_hat == pytest.approx(2.0, rel=0.10)
        assert rep.b_hat == pytest.approx(0.5, rel=0.10)
        # coefficient_hat lands within 10% of d at this grid scale
        gap = next(c for c in rep.checks if c.name == "coefficient_rel_gap")
        assert gap.value < 0.10

    def test_debruijn_passes_default_profile(self):
        p = tl.validate(-1.0, -1.0, -1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(-1.0, -1.0), tl.make_grid(10, 1000, 16))
        assert rep.passed
        assert rep.a_hat == pytest.approx(-1.0, rel=0.10)
        assert rep.b_hat == pytest.approx(-1.0, rel=0.10)

    def test_kasahara_small_d_fails_ratio_checks(self):
        # With d = 1/4 the Gaussian-peak correction (0.5*log psi + 0.5*log pi)
        # is 11.5% of d*psi at psi=100 and 1.61% at psi=1000, so the default
        # desk-scale thresholds cannot be met; the report must say so rather
        # than raise.
        p = tl.validate(-1.0, 2.0, 1.0, offset=1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(-1.0, 2.0), tl.make_grid(10, 1000, 16))
        assert not rep.passed
        failed = {c.name for c in rep.checks if c.passed is False}
        assert failed == {
            "ratio_dev_at_psi_100",
            "ratio_dev_at_psi_1000",
            "exponent_rel_gap",
            "inverse_a_rel_gap",
        }
        monotone = next(c for c in rep.checks if c.name == "monotone_ratio_last_half")
        assert monotone.passed

    def test_inverse_passed_false_when_recover_primal_fails(self, monkeypatch):
        p = tl.validate(2.0, 0.5, -1.0)
        grid = tl.make_grid(10, 1000, 16)
        assert tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), grid).inverse_passed

        def refuse(d, e, c):
            raise tl.InconsistentInputs("no positive stationary point")

        monkeypatch.setattr("tauberlab.asymptotics.recover_primal", refuse)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), grid)
        assert rep.a_hat is None
        assert not rep.inverse_passed
        assert "inverse map failed: no positive stationary point" in rep.notes
        gap = rep.checks[-1]
        assert gap.name == "inverse_a_rel_gap"
        assert math.isnan(gap.value) and gap.passed is False

    def test_fit_failure_is_reported_not_raised(self, monkeypatch):
        def refuse(samples):
            raise tl.SignChange("log f changes sign inside the fit window")

        monkeypatch.setattr("tauberlab.asymptotics.fit_exponent", refuse)
        p = tl.validate(2.0, 0.5, -1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), tl.make_grid(10, 1000, 16))
        assert rep.fit is None and rep.a_hat is None
        assert "fit failed: log f changes sign inside the fit window" in rep.notes
        gap = rep.checks[-1]
        assert gap.name == "exponent_rel_gap"
        assert math.isnan(gap.value) and gap.passed is False
        names = [c.name for c in rep.checks]
        assert "coefficient_rel_gap" not in names
        assert not any(n.startswith("inverse_") for n in names)
        assert not rep.passed and not rep.inverse_passed
        assert "\nexponent_hat = unavailable\n" in tl_report.render_report(rep)

    def test_perturbed_target_still_converges(self):
        p = tl.validate(2.0, 0.5, -1.0)
        t = tl.PerturbedPower(2.0, 0.5, "inverse-log", 0.2)
        samples = tl.evaluate_sweep(p, t, tl.make_grid(10, 1000, 16))
        ratios = [s.log_f / (p.d * s.psi) for s in samples]
        # Slowly-varying perturbations converge like 1/log(psi): loose bound.
        assert abs(ratios[-1] - 1.0) < 0.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        fit = tl.fit_exponent(samples)
        assert fit.exponent_hat == pytest.approx(1.0, abs=0.03)

    def test_target_mismatch_rejected(self):
        p = tl.validate(2.0, 0.5, -1.0)
        with pytest.raises(tl.InconsistentInputs):
            tl.verify_equivalence(p, tl.PurePower(3.0, 0.5), tl.make_grid(10, 1000, 16))

    def test_report_has_full_sample_table(self):
        p = tl.validate(2.0, 0.5, -1.0)
        grid = tl.make_grid(10, 1000, 16)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), grid)
        assert len(rep.samples) == 16
        assert len(rep.ratios) == 16
        assert rep.mid_sample is not None
        for s, psi in zip(rep.samples, grid.psi_values):
            assert s.psi == pytest.approx(psi, rel=1e-12)

    def test_notes_name_each_sample_that_missed_tolerance(self):
        # Kasahara at psi=1e12: the peak is narrower than the first panels
        # and refinement stops at its cap; every other sample, psi_mid=100
        # included, meets 1e-8.
        p = tl.validate(-1.0, 2.0, 1.0, offset=1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(-1.0, 2.0), tl.make_grid(10, 1e12, 12))
        missed = [s for s in rep.samples if not s.tol_met]
        assert [s.psi for s in missed] == [1e12] and rep.mid_sample.tol_met
        assert missed[0].quad_error > 1e-8
        assert [n for n in rep.notes if "tolerance" in n] == [
            f"quadrature tolerance not met at psi=1e+12 (quad_error {missed[0].quad_error:.3g})"
        ]
