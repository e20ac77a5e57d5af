"""Grids, index estimators, exponent fits, and equivalence verification."""

import inspect
import math

import numpy as np
import pytest

import tauberlab as tl
from inputs import CANONICAL, CLASSICAL_MEASURES, bits
from tauberlab import asymptotics
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
        "args",
        [(1.0, 100.0, 3), (1.0, 1.0, 8), (0.5, 100.0, 8), (10.0, 5.0, 8), (1.0, math.inf, 16)],
    )
    def test_bad_ranges(self, args):
        with pytest.raises(tl.BadRange):
            tl.make_grid(*args)

    def test_non_geometric_rejected(self):
        with pytest.raises(tl.BadRange):
            tl.EvalGrid(tuple(float(x) for x in range(1, 10)))

    def test_non_finite_rejected(self):
        with pytest.raises(tl.BadRange):
            tl.EvalGrid((1.0,) + (math.nan,) * 7)

    @pytest.mark.parametrize(
        "values", [(1.0, 10.0, 100.0), tuple(1000.0 / 2.0**k for k in range(8))]
    )
    def test_short_or_decreasing_rejected(self, values):
        with pytest.raises(tl.BadRange):
            tl.EvalGrid(values)


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
        for sample in ((math.inf, 2.0), (10.0, math.inf)):
            with pytest.raises(tl.DomainError):
                tl.ck_index([sample, (10.0, 5.0)])


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

    def test_no_epsilon_rejected(self):
        # With no epsilon there is no check, and all() of none is True.
        samples = _grid_samples(lambda x: x**2, 10.0, 1e9, 16)
        with pytest.raises(tl.ValidationError):
            tl.class_m_check(samples, tau=5.0, epsilons=())

    def test_negative_epsilon_rejected(self):
        samples = _grid_samples(lambda x: x**2, 10.0, 1e9, 16)
        with pytest.raises(tl.ValidationError):
            tl.class_m_check(samples, tau=5.0, epsilons=(0.5, -1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        samples = _grid_samples(lambda x: x**2, 10.0, 1e9, 16)
        with pytest.raises(tl.DomainError, match="tau must be finite"):
            tl.class_m_check(samples, tau=tau)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps):
        samples = _grid_samples(lambda x: x**2, 10.0, 1e9, 16)
        with pytest.raises(tl.ValidationError, match="positive and finite"):
            tl.class_m_check(samples, tau=2.0, epsilons=(0.5, eps))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, eps", [(2.0, 1e308), (1e308, 0.5), (-1e308, 0.5)])
    def test_trajectory_outside_the_float_range_refused(self, tau, eps):
        # (tau + eps) * log x overflows on x up to 1e9.
        samples = _grid_samples(lambda x: x**2, 10.0, 1e9, 16)
        with pytest.raises(tl.NumericOverflow, match="not a finite float"):
            tl.class_m_check(samples, tau=tau, epsilons=(eps,))

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

    def test_diagnostic_carries_its_index_estimate(self):
        samples = _grid_samples(lambda x: 5.0 * x**3, 10.0, 1e24, 32)[::-1]
        assert tl.class_m_check(samples, 3.0).estimate == tl.ck_index(samples)

    def test_shuffled_samples_give_the_sorted_diagnostic(self):
        # The trend rule reads the samples in increasing x, whatever their
        # order; each check keeps its epsilon and its two verdicts only.
        samples = _grid_samples(lambda x: x**2 * (1.0 + 0.5 / math.log(x)), 10.0, 1e9, 16)
        shuffled = [samples[k] for k in np.random.default_rng(7).permutation(len(samples))]
        diag = tl.class_m_check(shuffled, 2.0, epsilons=(0.05, 0.5))
        assert diag == tl.class_m_check(samples, 2.0, epsilons=(0.05, 0.5))
        assert list(inspect.signature(tl.EpsilonCheck).parameters) == [
            "epsilon", "upper_verdict", "lower_verdict"]


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

    def test_vanishing_last_log_f_rejected(self):
        samples = _synthetic_samples(lambda l: l)
        samples[-1] = tl.TransformSample(psi=1000.0, s=1000.0, log_f=0.0, quad_error=0.0)
        with pytest.raises(tl.SignChange, match="vanishes"):
            tl.fit_exponent(samples)

    def test_constant_lambda_rejected(self):
        samples = [tl.TransformSample(psi=5.0, s=5.0, log_f=5.0, quad_error=0.0)] * 8
        with pytest.raises(tl.DegenerateWindow, match="lambda constant"):
            tl.fit_exponent(samples)

    def test_too_few_samples(self):
        with pytest.raises(tl.DegenerateWindow):
            tl.fit_exponent(_synthetic_samples(lambda l: l, n=5))

    def test_equals_the_numpy_wrapper_form_bit_for_bit(self):
        # fit_exponent calls the ufunc reductions directly.  The reference is
        # the np.mean / np.ptp / np.max form; windows of 4 to 40 samples take
        # both of numpy's sums, plain below 8 values and blocked pairwise above.
        def reference(samples):
            window = samples[len(samples) - len(samples) // 2 :]
            log_f = np.asarray([t.log_f for t in window])
            lam = np.asarray([t.s for t in window])
            x = np.log(lam)
            assert np.ptp(x) != 0.0
            y = np.log(np.abs(log_f))
            xc = x - x.mean()
            slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
            intercept = float(y.mean() - slope * x.mean())
            residual = float(np.max(np.abs(y - (intercept + slope * x))))
            return slope, float(np.mean(log_f / lam**slope)), residual

        rng = np.random.default_rng(20)
        for n in range(8, 81):
            lam = np.exp(np.sort(rng.uniform(0.0, 20.0, n)))
            sign, coeff, power = rng.choice([-1.0, 1.0]), rng.uniform(0.2, 3.0), rng.uniform(0.2, 2.0)
            log_f = sign * coeff * lam**power * np.exp(rng.normal(0.0, 0.1, n))
            samples = [tl.TransformSample(float(l), float(l), float(v), 0.0)
                       for l, v in zip(lam, log_f)]
            fit = tl.fit_exponent(samples)
            assert (fit.exponent_hat, fit.coefficient_hat, fit.residual) == reference(samples)


# Fit results (exponent_hat, coefficient_hat) on the canonical 16-point
# sweeps, frozen from the quadrature engine after cross-checking log f
# against the mpmath oracle.
CANONICAL_FITS = {
    "kohlbecker": (0.9882332887, 1.0867239310),
    "kasahara": (-1.9269710176, 0.3242108628),
    "de-bruijn": (-0.5024232499, -1.9324721200),
}


class TestVerifyEquivalence:
    @pytest.mark.parametrize("name", sorted(CANONICAL_FITS))
    def test_fit_values_frozen(self, name):
        a, b, c, offset = CANONICAL[name]
        exp_hat, coef_hat = CANONICAL_FITS[name]
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

    def test_checks_carry_the_stated_targets(self):
        p = tl.validate(2.0, 0.5, -1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), tl.make_grid(10, 1000, 16))
        assert [(c.name, c.limit) for c in rep.checks] == [
            ("ratio_dev_at_psi_100", 0.07),
            ("ratio_dev_at_psi_1000", 0.015),
            ("corrected_gap_at_top", 0.2),
            ("monotone_ratio_last_half", 0.0),
            ("exponent_rel_gap", 0.03),
            ("coefficient_rel_gap", None),
            ("inverse_a_rel_gap", 0.1),
            ("inverse_b_rel_gap", 0.1),
        ]
        assert rep.checks[5].passed is None

    @pytest.mark.parametrize(
        "name,limit", [("kohlbecker", 8.0), ("kasahara", 2.0), ("de-bruijn", 16.0)]
    )
    def test_corrected_gap_limit_covers_roundoff_at_large_psi(self, name, limit):
        # At psi = 1e16 the top |log f| is past 2**50, where one ulp of a
        # double is at least 0.25 nats, above the 0.2-nat target.  The limit
        # becomes 4 ulp of the top value; Kasahara, within 1 ulp of its exact
        # transform there, is 0.5 nats from the corrected prediction.
        a, b, c, offset = CANONICAL[name]
        p = tl.validate(a, b, c, offset)
        rep = tl.verify_equivalence(p, tl.PurePower(a, b), tl.make_grid(1, 1e16, 17))
        gap = next(c for c in rep.checks if c.name == "corrected_gap_at_top")
        assert gap.limit == limit and gap.passed

    @pytest.mark.parametrize("grid", [(10.0, 1000.0, 16), (1.0, 1e16, 17)])
    @pytest.mark.parametrize("name", sorted(CANONICAL_FITS))
    def test_predictions_are_predict_log_f(self, name, grid):
        a, b, c, offset = CANONICAL[name]
        p = tl.validate(a, b, c, offset)
        rep = tl.verify_equivalence(p, tl.PurePower(a, b), tl.make_grid(*grid))
        for order, got in (("leading", rep.predictions_leading),
                           ("corrected", rep.predictions_corrected)):
            assert got == tuple(tl.predict_log_f(p, s.psi, order) for s in rep.samples)

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
        # sample_at_psi refuses another (a, b), and the engine an object that
        # is neither a power target nor a MeasureTarget.
        p, grid = tl.validate(2.0, 0.5, -1.0), tl.make_grid(10, 1000, 16)
        with pytest.raises(tl.InconsistentInputs,
                           match="target log-amplitude is not the validated .a, b. power"):
            tl.verify_equivalence(p, tl.PurePower(3.0, 0.5), grid)
        with pytest.raises(tl.ValidationError, match="power targets only, got object$"):
            tl.verify_equivalence(p, object(), grid)

    # name -> the figures of its report at psi = 1000 (log f), of the fit and
    # of the inverse map, and those of the pure power on the same parameters.
    MEASURE_FIGURES = {
        "kohlbecker": (("253.736034", "0.96347486", "1.1261043", "0.49069885"),
                       ("254.026243", "0.96348551", "1.1267308", "0.49070161")),
        "kasahara": (("254.354137", "-1.92709234", "-0.79826533", "2.0786412"),
                     ("254.026243", "-1.92697102", "-0.79906710", "2.0787824")),
    }

    @pytest.mark.parametrize("name", MEASURE_FIGURES)
    def test_a_classical_spec_reduced_and_verified_on_its_measure(self, name):
        # Kohlbecker's and Kasahara's statements are about a measure: the spec
        # is reduced by to_unified (Kasahara's offset is the mass above 0) and
        # verified on its quantized measure, every sample an exact atom sum.
        # The report is sample_at_psi over the grid, fit_exponent of those
        # samples and recover_primal of that fit, bit for bit.
        spec, target = CLASSICAL_MEASURES[name]
        mass = target.measure.mass_above_zero() if target.kind == "tail" else None
        p, grid = tl.to_unified(spec, measure_mass=mass).params, tl.make_grid(10, 1000, 16)
        rep = tl.verify_equivalence(p, target, grid)
        samples = tl.sample_at_psi(p, target, grid.psi_values)
        fit = tl.fit_exponent(samples)
        assert bits(rep.samples) == bits(tuple(samples))
        assert bits(rep.mid_sample) == bits(tl.sample_at_psi(p, target, 100.0))
        assert bits(rep.fit) == bits(fit)
        assert bits((rep.a_hat, rep.b_hat)) == bits(
            tl.recover_primal(fit.coefficient_hat, fit.exponent_hat, p.c))
        assert all(s.quad_error == 0.0 and s.tol_met for s in (*rep.samples, rep.mid_sample))
        assert rep.target_label == target.label() and rep.notes == ()
        power = tl.verify_equivalence(p, tl.PurePower(p.a, p.b), grid)
        for r, figures in zip((rep, power), self.MEASURE_FIGURES[name]):
            values = (r.samples[-1].log_f, r.fit.exponent_hat, r.a_hat, r.b_hat)
            digits = [len(f.split(".")[1]) for f in figures]
            assert tuple(f"{v:.{k}f}" for v, k in zip(values, digits)) == figures

    def test_report_has_full_sample_table(self):
        p = tl.validate(2.0, 0.5, -1.0)
        grid = tl.make_grid(10, 1000, 16)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), grid)
        assert len(rep.samples) == 16
        assert len(rep.ratios) == 16
        assert rep.mid_sample is not None
        for s, psi in zip(rep.samples, grid.psi_values):
            assert s.psi == pytest.approx(psi, rel=1e-12)

    def test_grid_without_psi_mid_skips_the_mid_check(self):
        p = tl.validate(2.0, 0.5, -1.0)
        rep = tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), tl.make_grid(200, 2000, 8))
        assert rep.mid_sample is None
        assert "psi_mid=100 outside grid; mid check skipped" in rep.notes
        assert "ratio_dev_at_psi_100" not in [c.name for c in rep.checks]
        assert "[mid]" not in tl_report.render_report(rep)

    def test_notes_name_each_sample_that_missed_tolerance(self, kinked_kasahara):
        # The kinked target at tol 1e-14: the kink at x = 1 slows the
        # trapezoid rule, and the rows at psi = 20, 35 and 61 stop at the
        # engine's node budget; every other sample, psi_mid=100 included,
        # meets it.
        p = tl.validate(-1.0, 2.0, 1.0, offset=1.0)
        rep = tl.verify_equivalence(p, kinked_kasahara, tl.make_grid(20, 1000, 8), quad_tol=1e-14)
        missed = [s for s in rep.samples if not s.tol_met]
        assert [s.psi for s in missed] == list(rep.grid.psi_values[:3]) and rep.mid_sample.tol_met
        assert all(s.quad_error > 1e-14 for s in missed)
        assert [n for n in rep.notes if "tolerance" in n] == [
            f"quadrature tolerance not met at psi={psi} (quad_error {s.quad_error:.3g})"
            for psi, s in zip(("20", "34.9736", "61.1575"), missed)
        ]


class TestMonotoneCheck:
    def test_equals_the_numpy_formula(self):
        # The check runs on Python floats; the reference is the numpy form,
        # whose max is NaN when any step is NaN.
        def reference(ratios):
            steps = np.diff(np.abs(np.asarray(ratios) - 1.0))
            return float(np.max(steps)) if steps.size else 0.0, bool(np.all(steps < 0.0))

        rng = np.random.default_rng(21)
        cases = []
        for n in range(2, 20):
            gaps = np.sort(rng.uniform(1e-6, 0.3, n))[::-1]
            decreasing = (1.0 + rng.choice([-1.0, 1.0], n) * gaps).tolist()
            with_nan = list(decreasing)
            with_nan[rng.integers(n)] = math.nan
            cases += [decreasing, rng.uniform(0.7, 1.3, n).tolist(), with_nan]
        verdicts = set()
        for ratios in cases:
            row = asymptotics._monotone_check(tuple(ratios))
            value, passed = reference(ratios)
            assert (row.name, row.limit, row.passed) == ("monotone_ratio_last_half", 0.0, passed)
            assert row.value == value or math.isnan(row.value) and math.isnan(value)
            verdicts.add((passed, math.isnan(value)))
        assert verdicts == {(True, False), (False, False), (False, True)}
