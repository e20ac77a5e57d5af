"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Criteria 3 and 4 check the engine against the exact transforms of the three
canonicals (Bingham-Goldie-Teugels, Regular Variation, section 4.12):

    kohlbecker  f = 1 + sqrt(pi*psi) e^psi erfc(-sqrt(psi))
    kasahara    f = 1 + e^{psi/4} (sqrt(pi*psi)/2) erfc(-sqrt(psi)/2)
    de bruijn   f = 2 psi K_1(2 psi)

The integrals run over u > 0, which gives the erfc factors; dropping the
Kasahara factor erfc(-sqrt(psi)/2)/2 leaves a form that is only asymptotic
(about 0.013 nats off at psi=10).  The engine must match each closed form to
its quadrature error plus 1e-10 nats.  Each desk-scale target (ratio 7% at
psi=100 and 1.5% at psi=1000, exponent 3%, inverse 10%) is applied to the
exact values first.  Where they meet it, the engine must meet it too.  Where
they miss it, the miss must be one that DOCUMENTED_MISSES lists with the
README's figure, and the engine's quantity must equal the exact one.  The
theorem is a limit statement, so the exact Kasahara transform (d = 1/4)
misses four targets: 11.5% at psi=100, 1.61% at psi=1000, a 3.65% exponent
gap and a 20.1% error in the recovered a.  All nine criteria pass.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

import exact
import tauberlab as tl
from inputs import CANONICAL, DESK_BOX, desk_specs, desk_triples

# Targets that the exact transform itself misses at desk scale, with the
# README's figures to three significant digits.
DOCUMENTED_MISSES = {
    ("kasahara", "ratio_dev_at_psi_100"): 0.115,
    ("kasahara", "ratio_dev_at_psi_1000"): 0.0161,
    ("kasahara", "exponent_rel_gap"): 0.0365,
    ("kasahara", "inverse_a_rel_gap"): 0.201,
}

# Relative agreement of the engine's fit and inversion with the reference
# computed on the exact values, where the exact values miss a target.
FIT_RTOL = 1e-9


def _report(criterion: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " :: " + "; ".join(failures)
    print(f"ACCEPTANCE {criterion} [{name}]: {status}{detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _sweep(name, n=16, quad_tol=1e-8):
    a, b, c, offset = CANONICAL[name]
    p = tl.validate(a, b, c, offset)
    grid = tl.make_grid(10.0, 1000.0, n)
    samples = tl.evaluate_sweep(p, tl.PurePower(a, b), grid, quad_tol=quad_tol)
    return p, samples


def _reference_fit(name, samples):
    """(exponent, a, b) from the exact log f, computed apart from the engine.

    The estimator is fit_exponent's as its docstring states it: least squares
    of log|log f| on log s over the last half of the sweep, coefficient the
    mean of log f / s**exponent, with s = psi**((1-b)/b) formed in mpmath from
    each sample's psi.  The inverse map is recover_primal's:
    b = e/(1+e), v0 = d*b/(c*(b-1)), a = (d - c*v0)/v0**b.
    """
    c = CANONICAL[name][2]
    psis = [s.psi for s in samples[len(samples) - len(samples) // 2 :]]
    log_f = [exact.log_f_closed(*CANONICAL[name], psi) for psi in psis]
    with mp.workdps(40):
        b = mp.mpf(CANONICAL[name][1])
        window = [mp.mpf(psi) ** ((1 - b) / b) for psi in psis]
        x = [mp.log(s) for s in window]
        y = [mp.log(abs(v)) for v in log_f]
        x_mean, y_mean = mp.fsum(x) / len(x), mp.fsum(y) / len(y)
        e = mp.fsum((xi - x_mean) * (yi - y_mean) for xi, yi in zip(x, y)) / mp.fsum(
            (xi - x_mean) ** 2 for xi in x
        )
        d = mp.fsum(v / s**e for v, s in zip(log_f, window)) / len(window)
        b = e / (1 + e)
        v0 = d * b / (c * (b - 1))
        a = (d - c * v0) / v0**b
    return float(e), float(a), float(b)


def _against_target(name, check, limit, exact, program, agrees, detail):
    """Failures of one stated target, applied to the exact value first.

    Where the exact value meets the limit, the program's value must meet it
    too.  Where the exact value misses, the miss must be the documented one
    and the program must agree with the exact computation (``agrees``;
    ``detail`` says how it differs).
    """
    failures = []
    documented = DOCUMENTED_MISSES.get((name, check))
    if exact <= limit:
        if documented is not None:
            failures.append(
                f"{name}: exact {check} {exact:.4f} meets {limit:g}, "
                f"but a miss of {documented:g} is documented"
            )
        if program > limit:
            failures.append(f"{name}: {check} {program:.4f} > {limit:g}")
    else:
        if documented is None or float(f"{exact:.3g}") != documented:
            failures.append(
                f"{name}: exact {check} {exact:.4f} > {limit:g}, "
                f"documented miss {documented}"
            )
        if not agrees:
            failures.append(f"{name}: {check}: {detail}")
    return failures


def test_criterion_1_coefficient_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    failures = []
    worst = 0.0
    for spec in desk_specs(rng, 500):
        _, _, gap = tl.coefficient_identity_check(spec)
        worst = max(worst, gap)
        if gap >= 1e-12:
            failures.append(f"{spec}: rel gap {gap:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    print(f"  worst relative gap over 1500 specs: {worst:.3e} ({elapsed:.2f}s)")
    _report(1, "coefficient identities", failures)


def test_criterion_2_formula_discrepancy_audit():
    start = time.perf_counter()
    failures = []
    for name, (a, b, c, offset) in CANONICAL.items():
        stated, consistent = tl.d_variants(a, b, c)
        ts = tl.log_transform(tl.PurePower(a, b), c, offset, tl.s_for_psi(b, 1000.0))
        dev_consistent = abs(ts.log_f / (consistent * 1000.0) - 1.0)
        if dev_consistent >= 0.02:
            failures.append(f"{name}: consistent-form dev {dev_consistent:.4f} >= 2%")
        if abs(stated - consistent) > 1e-12 * abs(consistent):
            dev_stated = abs(ts.log_f / (stated * 1000.0) - 1.0)
            if dev_stated <= 0.20:
                failures.append(f"{name}: stated-form dev {dev_stated:.4f} <= 20%")
            print(
                f"  {name}: variants differ (stated {stated:g} vs consistent "
                f"{consistent:g}); quadrature sides with the consistent form"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(2, "dual-coefficient variant audit", failures)


def test_criterion_3_forward_equivalence():
    failures = []
    for name in CANONICAL:
        p, samples = _sweep(name)
        mid = tl.sample_at_psi(p, tl.PurePower(p.a, p.b), 100.0)
        points = [mid, *samples]
        expected = [exact.log_f_closed(*CANONICAL[name], s.psi) for s in points]
        gaps = [abs(s.log_f - e) for s, e in zip(points, expected)]
        for s, gap in zip(points, gaps):
            if gap > s.quad_error + 1e-10:
                failures.append(f"{name}: log f {gap:.2e} nats off exact at psi={s.psi:g}")
        shown = []
        targets = ((mid, expected[0], 0.07), (samples[-1], expected[-1], 0.015))
        for s, exact_log_f, limit in targets:
            dev = abs(s.log_f / (p.d * s.psi) - 1.0)
            exact_dev = abs(exact_log_f / (p.d * s.psi) - 1.0)
            slack = (s.quad_error + 1e-10) / (abs(p.d) * s.psi)
            failures += _against_target(
                name,
                f"ratio_dev_at_psi_{s.psi:g}",
                limit,
                exact_dev,
                dev,
                abs(dev - exact_dev) <= slack,
                f"ratio dev {dev:.10f} vs exact {exact_dev:.10f}",
            )
            shown.append(f"dev@{s.psi:g}={dev:.4%}")
        devs = [abs(s.log_f / (p.d * s.psi) - 1.0) for s in samples[8:]]
        if not all(b < a for a, b in zip(devs, devs[1:])):
            failures.append(f"{name}: |ratio-1| not decreasing over last half")
        corr_gap = abs(samples[-1].log_f - tl.predict_log_f(p, 1000.0, "corrected"))
        if corr_gap > 0.2:
            failures.append(f"{name}: corrected gap {corr_gap:.3f} > 0.2 nats")
        print(
            f"  {name}: {' '.join(shown)} corrected gap={corr_gap:.2e} "
            f"max gap to exact={max(gaps):.2e} nats"
        )
    _report(3, "forward equivalence at desk scale", failures)


def test_criterion_4_exponent_recovery():
    start = time.perf_counter()
    failures = []
    for name in CANONICAL:
        p, samples = _sweep(name)
        fit = tl.fit_exponent(samples)
        exp_ref, a_ref, b_ref = _reference_fit(name, samples)
        target = tl.dual_exponent(p.b)
        exp_gap = abs(fit.exponent_hat - target) / abs(target)
        failures += _against_target(
            name,
            "exponent_rel_gap",
            0.03,
            abs(exp_ref - target) / abs(target),
            exp_gap,
            math.isclose(fit.exponent_hat, exp_ref, rel_tol=FIT_RTOL),
            f"exp_hat {fit.exponent_hat!r} vs {exp_ref!r} on exact data",
        )
        try:
            a_hat, b_hat = tl.recover_primal(fit.coefficient_hat, fit.exponent_hat, p.c)
            for check, got, want, true in (
                ("inverse_a_rel_gap", a_hat, a_ref, p.a),
                ("inverse_b_rel_gap", b_hat, b_ref, p.b),
            ):
                failures += _against_target(
                    name,
                    check,
                    0.10,
                    abs(want - true) / abs(true),
                    abs(got - true) / abs(true),
                    math.isclose(got, want, rel_tol=FIT_RTOL),
                    f"{got!r} vs {want!r} on exact data",
                )
            print(
                f"  {name}: exp_hat={fit.exponent_hat:.6f} (gap {exp_gap:.4%}), "
                f"a_hat={a_hat:.4f}, b_hat={b_hat:.4f}"
            )
        except tl.TauberError as exc:
            failures.append(f"{name}: inverse map failed: {exc}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(4, "exponent recovery and inversion", failures)


def test_criterion_5_saddle_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    failures = []
    for name in DESK_BOX:
        for a, b, c in desk_triples(rng, 1000, [name]):
            p = tl.validate(a, b, c)
            sp = tl.saddle_analysis(p)
            scale = abs(p.d)
            if abs(sp.h_at_max) > 1e-10 * scale:
                failures.append(f"{name}: |h(x_peak)| = {abs(sp.h_at_max):.2e}")
            if not sp.curvature < 0.0:
                failures.append(f"{name}: curvature {sp.curvature:.2e} >= 0")
            grid = sp.x_peak * np.logspace(-2, 2, 64)
            hmax = float(np.max(p.a * grid**p.b + p.c * grid - p.d))
            if hmax > 1e-12 * scale:
                failures.append(f"{name}: h grid max {hmax:.2e}")
            if math.copysign(1.0, p.d) != math.copysign(1.0, p.b):
                failures.append(f"{name}: sign(d) != sign(b)")
            if failures:
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    print(f"  3000 random triples checked in {elapsed:.2f}s")
    _report(5, "saddle invariants", failures)


def test_criterion_6_round_trips():
    failures = []
    for b in (-3.0, -1.0, 0.25, 0.9, 1.5, 4.0):
        back = tl.primal_exponent(tl.dual_exponent(b))
        if abs(back - b) > 1e-14 * max(1.0, abs(b)):
            failures.append(f"primal(dual({b})) = {back!r}")
    rng = np.random.default_rng(6)
    for name in DESK_BOX:
        for _ in range(200):
            (a, b, c), = desk_triples(rng, 1, [name])
            d = tl.validate(a, b, c).d
            a_hat, b_hat = tl.recover_primal(d, tl.dual_exponent(b), c)
            if abs(a_hat - a) > 1e-9 * abs(a) or abs(b_hat - b) > 1e-9 * abs(b):
                failures.append(f"recover gap at (a={a:g}, b={b:g}, c={c:g})")
    canonical_specs = [
        tl.Kohlbecker(alpha=2.0, B=2.0),
        tl.Kasahara(alpha=0.5, B=1.0),
        tl.DeBruijn(beta=-1.0, B=-1.0, rate=1.0),
        tl.DeBruijn(beta=-2.5, B=-0.7, rate=3.25),
        tl.Kohlbecker(alpha=4.0, B=0.375),
        tl.Kasahara(alpha=0.25, B=5.5),
    ]
    for spec in canonical_specs:
        if tl.classify(tl.to_unified(spec).params) != spec:
            failures.append(f"classify round trip not exact for {spec}")
    _report(6, "round trips", failures)


def test_criterion_7_ck_estimator():
    failures = []
    # Pointwise identity on scaled pure powers.
    for C, tau in ((5.0, 3.0), (0.2, -1.5), (7.5, 1.0)):
        for x in (10.0, 1e4, 1e8, 1e12):
            res = tl.ck_index([(x, C * x**tau)])
            expected = abs(math.log(C)) / math.log(x)
            if abs(abs(res.tau_at_top - tau) - expected) > 1e-12:
                failures.append(f"pointwise identity off at C={C}, tau={tau}, x={x:g}")
    # Slowly-varying perturbations: quotient near tau at x=1e12, and the
    # pinching diagnostic passes at tau but fails at tau +/- 0.5.
    fixtures = [
        ("log^0.25 factor", lambda x: x**2 * math.log(x) ** 0.25),
        ("saturating factor", lambda x: x**2 * math.exp(0.5 * math.log(x) / (1.0 + math.log(x)))),
    ]
    xs = np.exp(np.linspace(math.log(10.0), math.log(1e12), 48))
    for name, fn in fixtures:
        samples = [(float(x), float(fn(x))) for x in xs]
        res = tl.ck_index(samples)
        top = [t for x, t in res.points if x == samples[-1][0]][0]
        if abs(top - 2.0) > 0.05:
            failures.append(f"{name}: tau_hat(1e12) = {top:.4f} not within 0.05 of 2")
        if not tl.class_m_check(samples, 2.0).consistent:
            failures.append(f"{name}: diagnostic fails at true tau")
        for off in (-0.5, 0.5):
            if tl.class_m_check(samples, 2.0 + off).consistent:
                failures.append(f"{name}: diagnostic passes at tau{off:+g}")
    _report(7, "log-quotient index estimator", failures)


def test_criterion_8_measure_function_agreement():
    failures = []
    # Cumulative reduction: mu[0,x] = exp(2*sqrt(x)), kernel exp(-x/lam).
    F = lambda x: math.exp(2.0 * math.sqrt(x))
    m_cum = tl.quantize_cumulative(F, 1e-4, 1e4, 8192)
    for lam in np.exp(np.linspace(math.log(0.3), math.log(30.0), 9)):
        lo, hi = tl.kohlbecker_panel_bracket(m_cum, lam)
        ts = tl.log_transform(tl.PurePower(2.0, 0.5), -1.0, 0.0, float(lam))
        slack = ts.quad_error + 1e-6
        if not (lo - slack <= ts.log_f <= hi + slack):
            failures.append(
                f"cumulative: lam={lam:.3f} quad {ts.log_f:.6f} outside "
                f"[{lo:.6f}, {hi:.6f}]"
            )
    # Tail reduction: mu(x,inf) = exp(-x^2), kernel exp(lam*x).
    G = lambda x: math.exp(-x * x)
    m_tail = tl.quantize_tail(G, 1e-3, 40.0, 8192)
    for lam in np.exp(np.linspace(math.log(0.1), math.log(10.0), 9)):
        lo, hi = tl.kasahara_panel_bracket(m_tail, float(lam))
        ts = tl.log_transform(tl.PurePower(-1.0, 2.0), 1.0, 1.0, 1.0 / float(lam))
        slack = ts.quad_error + 1e-6
        if not (lo - slack <= ts.log_f <= hi + slack):
            failures.append(
                f"tail: lam={lam:.3f} quad {ts.log_f:.6f} outside "
                f"[{lo:.6f}, {hi:.6f}]"
            )
        via = tl.kasahara_via_parts(m_tail, float(lam))
        direct = tl.measure_transform_kasahara(m_tail, float(lam))
        if abs(via - direct) > 1e-9:
            failures.append(f"tail: parts identity off by {abs(via - direct):.2e}")
    _report(8, "measure vs function-route agreement", failures)


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    failures = []

    # The child imports this checkout's package, installed or not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tauberlab", *args], capture_output=True, text=True, env=env
        )

    # Expected codes: the pass/fail split follows the stated targets of the
    # equivalence checks, whose desk-scale values the kasahara canonical misses
    # (pinned by test_kasahara_small_d_fails_ratio_checks); the exit-code
    # contract maps that to 1.
    matrix = [
        (("verify", "--a", "2", "--b", "0.5", "--c", "-1"), 0),
        (("verify", "--a", "-1", "--b", "-1", "--c", "-1"), 0),
        (("verify", "--a", "-1", "--b", "2", "--c", "1", "--offset", "1"), 1),
        (("validate", "--a", "1", "--b", "2", "--c", "-1"), 2),
        (("verify", "--a", "2", "--b", "0.5", "--c", "-1", "--n", "3"), 2),
        (("validate", "--a", "2", "--b", "0", "--c", "-1"), 2),
    ]
    for args, expected in matrix:
        res = run(*args)
        if res.returncode != expected:
            failures.append(f"{' '.join(args)}: exit {res.returncode} != {expected}")

    out1, csv1 = tmp_path / "a.txt", tmp_path / "a.csv"
    out2, csv2 = tmp_path / "b.txt", tmp_path / "b.csv"
    r1 = run("verify", "--a", "2", "--b", "0.5", "--c", "-1",
             "--out", str(out1), "--csv", str(csv1))
    r2 = run("verify", "--a", "2", "--b", "0.5", "--c", "-1",
             "--out", str(out2), "--csv", str(csv2))
    if r1.stdout != r2.stdout:
        failures.append("stdout differs between repeated runs")
    if out1.read_bytes() != out2.read_bytes():
        failures.append("report file differs between repeated runs")
    if csv1.read_bytes() != csv2.read_bytes():
        failures.append("csv differs between repeated runs")
    _report(9, "CLI determinism and exit codes", failures)
