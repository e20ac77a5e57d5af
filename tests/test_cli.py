"""End-to-end CLI: exit codes, determinism, config files, ingestion."""

import gc
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tauberlab as tl
from tauberlab import cli


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args):
    """Run a script in a fresh interpreter, for a test of what a cold process
    loads or leaves behind.  Warnings are errors there too, as in this
    process.  The child imports this checkout's package, installed or not."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def invoke(capsys, *args):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    code = cli.run(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestVerifyCommand:
    def test_kohlbecker_pass_and_artifacts(self, tmp_path, capsys):
        out, csv = tmp_path / "rep.txt", tmp_path / "rep.csv"
        code, stdout, _ = invoke(
            capsys, "verify", "--classical", "kohlbecker", "--alpha", "2", "--B", "2",
            "--psi-min", "10", "--psi-max", "1000", "--n", "16",
            "--out", str(out), "--csv", str(csv),
        )
        assert code == 0
        assert "status = pass" in stdout
        assert out.read_text(encoding="utf-8") == stdout
        rows = csv.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "psi,s,log_f,prediction_leading,prediction_corrected,ratio"
        assert len(rows) == 17  # header + 16 samples
        last_ratio = float(rows[-1].split(",")[-1])
        assert 0.99 <= last_ratio <= 1.01


class TestSweepCommand:
    def test_sweep_emits_csv(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        code, stdout, _ = invoke(
            capsys, "sweep", "--a", "-1", "--b", "-1", "--c", "-1",
            "--psi-min", "10", "--psi-max", "100", "--n", "8", "--csv", str(csv),
        )
        assert code == 0
        text = csv.read_text(encoding="utf-8")
        assert text == stdout
        assert len(text.strip().splitlines()) == 9


class TestClassicalCommand:
    @pytest.mark.parametrize("spec", [
        ("kohlbecker", "--alpha", "2", "--B", "2"),
        ("debruijn", "--beta", "-1", "--B", "-1", "--rate", "2"),
        ("kasahara", "--alpha", "0.5", "--B", "1"),
    ])
    def test_the_spec_is_reduced_once(self, monkeypatch, capsys, spec):
        # The coefficient identity is read off the one reduction the command prints.
        calls, validate = [], tl.classical.validate
        monkeypatch.setattr("tauberlab.classical.validate",
                            lambda *args, **kw: calls.append(1) or validate(*args, **kw))
        code, out, _ = invoke(capsys, "classical", "--variant", *spec)
        assert code == 0 and "rel_gap = " in out
        assert len(calls) == 1


class TestDataCommands:
    def test_ck_index_accepts_any_order(self, tmp_path, capsys):
        # ck_index sorts its samples, so the file's order must not matter.
        lines = CK_CUBES.splitlines(keepends=True)
        runs = []
        for name, order in (("sorted", lines), ("shuffled", lines[::2] + lines[1::2][::-1])):
            path = tmp_path / f"{name}.tsv"
            path.write_text("".join(order), encoding="utf-8")
            runs.append(invoke(capsys, "ck-index", "--input", str(path), "--tau", "3",
                               "--epsilon", "0.5"))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "consistent_with_tau = True" in runs[0][1]

    def test_ck_index_with_tau_estimates_the_index_once(self, tmp_path, monkeypatch, capsys):
        # The diagnostic reads the index estimate the command printed.
        path = tmp_path / "samples.tsv"
        path.write_text(CK_CUBES, encoding="utf-8")
        calls, ck_index = [], tl.index.ck_index
        monkeypatch.setattr("tauberlab.index.ck_index",
                            lambda samples: calls.append(1) or ck_index(samples))
        code, out, _ = invoke(capsys, "ck-index", "--input", str(path), "--tau", "3")
        assert code == 0 and "consistent_with_tau = True" in out
        assert len(calls) == 1


class TestReportRendering:
    def test_empty_sample_table_gives_header_only_csv(self):
        from tauberlab import report as report_mod

        rep = tl.EquivalenceReport(
            params=tl.validate(2.0, 0.5, -1.0),
            target_label="pure-power(a=2, b=0.5)",
            grid=tl.make_grid(10, 1000, 8),
            samples=(),
            predictions_leading=(),
            predictions_corrected=(),
            ratios=(),
            mid_sample=None,
            fit=None,
            a_hat=None,
            b_hat=None,
            checks=(),
        )
        csv_text = report_mod.render_samples_csv(rep)
        assert csv_text == "psi,s,log_f,prediction_leading,prediction_corrected,ratio\n"
        text = report_mod.render_report(rep)
        assert "status = pass" in text  # vacuous checks pass

    def test_full_report_text_is_pinned(self):
        from tauberlab import report as report_mod

        sample = tl.TransformSample
        rep = tl.EquivalenceReport(
            params=tl.validate(2.0, 0.5, -1.0),
            target_label="pure-power(a=2, b=0.5)",
            grid=tl.make_grid(10, 1000, 8),
            samples=(
                sample(10.0, 10.0, 12.5, 0.0, True),
                sample(1000.0, 1000.0, 1003.25, 0.5, False),
            ),
            predictions_leading=(10.0, 1000.0),
            predictions_corrected=(12.0, 1003.5),
            ratios=(1.25, 1.00325),
            mid_sample=sample(100.0, 100.0, 103.0 + 1.0 / 3.0, 0.0, True),
            fit=tl.AsymptoticFit(1.0, 0.75, 0.125, (1, 2)),
            a_hat=2.5,
            b_hat=0.5,
            checks=(
                tl.CheckResult("coefficient_rel_gap", 0.25, None, None),
                tl.CheckResult("exponent_rel_gap", 0.0, 0.03, True),
                tl.CheckResult("inverse_a_rel_gap", 0.25, 0.1, False),
            ),
            notes=("quadrature tolerance not met at psi=1000 (quad_error 0.5)",),
        )
        assert report_mod.render_report(rep, title="invert") == (
            "report = invert\n"
            "status = fail\n"
            "\n"
            "[input]\n"
            "a = 2\nb = 0.5\nc = -1\noffset = 0\n"
            "target = pure-power(a=2, b=0.5)\n"
            "psi_min = 10\npsi_max = 1000\nn = 8\n"
            "\n"
            "[derived]\n"
            "regime = kohlbecker\nd = 1\ndual_exp = 1\n"
            "\n"
            "[samples]\n"
            "psi s log_f prediction_leading prediction_corrected ratio\n"
            "10 10 12.5 10 12 1.25\n"
            "1000 1000 1003.25 1000 1003.5 1.00325\n"
            "\n"
            "[mid]\n"
            "psi = 100\nlog_f = 103.333333333\nratio = 1.03333333333\n"
            "\n"
            "[fit]\n"
            "exponent_hat = 1\ncoefficient_hat = 0.75\nresidual = 0.125\n"
            "window = [1, 2)\n"
            "\n"
            "[recovered]\n"
            "a_hat = 2.5\nb_hat = 0.5\na_rel_gap = 0.25\nb_rel_gap = 0\n"
            "\n"
            "[checks]\n"
            "coefficient_rel_gap = 0.25 (informational)\n"
            "exponent_rel_gap = 0 (limit 0.03) pass\n"
            "inverse_a_rel_gap = 0.25 (limit 0.1) FAIL\n"
            "note = quadrature tolerance not met at psi=1000 (quad_error 0.5)\n"
        )
        assert report_mod.render_samples_csv(rep) == (
            "psi,s,log_f,prediction_leading,prediction_corrected,ratio\n"
            "10.0,10.0,12.5,10.0,12.0,1.25\n"
            "1000.0,1000.0,1003.25,1000.0,1003.5,1.00325\n"
        )


K = ("--a", "2", "--b", "0.5", "--c", "-1")
KASAHARA = ("--a", "-1", "--b", "2", "--c", "1", "--offset", "1")
DE_BRUIJN = ("--a", "-1", "--b", "-1", "--c", "-1")
# U = x**2 and U = x**3 at x = 10 .. 1e8: eight samples over seven decades.
CK_SAMPLES = "".join(f"{10.0**k}\t{10.0 ** (2 * k)}\n" for k in range(1, 9))
CK_CUBES = "".join(f"{10.0**k}\t{(10.0**k) ** 3}\n" for k in range(1, 9))
CANONICAL_CONFIG = "a = 2\nb = 0.5\nc = -1\n"

# (args, config file text or None, exit code, stream, fragment or tuple of
# fragments).  A config text is written to run.cfg in the working directory
# first.
IN_PROCESS_CASES = {
    "validate-kohlbecker": (
        ("validate", *K), None, 0, "stdout", "regime = kohlbecker\nd = 1\ndual_exp = 1\n"),
    "validate-sign-violation": (
        ("validate", "--a", "1", "--b", "2", "--c", "-1"), None, 2,
        "stderr", "error: SignConditionViolated: admission condition a*b*(b-1) < 0 violated: "
                  "a*b*(b-1) = 2 (a=1, b=2, c=-1)\n"),
    "validate-degenerate-exponent": (
        ("validate", "--a", "2", "--b", "1", "--c", "-1"), None, 2,
        "stderr", "error: DegenerateExponent: exponent b must avoid {0, 1}, got b=1\n"),
    "validate-raw-missing-a": (
        ("validate", "--b", "0.5", "--c", "-1"), None, 2,
        "stderr", "error: ConfigParseError: need --a, --b and --c (or --classical ...)\n"),
    # A blank line and a "#" line of a config file are skipped.
    "config-file": (
        ("validate", "--config", "run.cfg"), "# the Kohlbecker canonical\n\n" + CANONICAL_CONFIG,
        0, "stdout", "a = 2\nb = 0.5\nc = -1\noffset = 0\nregime = kohlbecker\n"),
    "config-flag-override": (
        ("validate", "--config", "run.cfg", "--a", "4"), CANONICAL_CONFIG, 0,
        "stdout", "a = 4\nb = 0.5\nc = -1\n"),
    "config-malformed-line": (
        ("validate", "--config", "run.cfg"), "a 2\n", 2,
        "stderr", "error: ConfigParseError: run.cfg:1: expected 'key = value'\n"),
    # d = 16, so d*psi leaves the float range.
    "predict-overflow": (
        ("predict", "--a", "8", "--b", "0.5", "--c", "-1", "--psi", "1.5e307"), None, 2,
        "stderr", "error: NumericOverflow: predicted log f at psi=1.5e+307 is not a finite "
                  "float\n"),
    "verify-kohlbecker": (("verify", *K), None, 0, "stdout", "status = pass\n"),
    "verify-de-bruijn": (("verify", *DE_BRUIJN), None, 0, "stdout", "status = pass\n"),
    # The small-d canonical (kasahara, d = 1/4) fails the default desk-scale
    # tolerances, so the verification-failure exit code is the honest outcome.
    "verify-kasahara": (("verify", *KASAHARA), None, 1, "stdout", "status = fail\n"),
    "verify-n-below-8": (
        ("verify", *K, "--n", "3"), None, 2, "stderr", "error: BadRange: n must be >= 8, got 3\n"),
    "sweep-prints-csv": (
        ("sweep", *DE_BRUIJN, "--psi-min", "10", "--psi-max", "100", "--n", "8"), None, 0,
        "stdout", "psi,s,log_f,prediction_leading,prediction_corrected,ratio\n10.0,0.01,"),
    "classical-debruijn-identity": (
        ("classical", "--variant", "debruijn", "--beta", "-1", "--B", "-1", "--rate", "1"), None,
        0, "stdout", "unified_d = -2\nclassical_coefficient = -2\nrel_gap = 0\n"),
    "classical-kohlbecker-alpha-below-1": (
        ("classical", "--variant", "kohlbecker", "--alpha", "0.5", "--B", "2"), None, 2,
        "stderr", "error: SpecOutOfRange: Kohlbecker needs alpha > 1, got 0.5\n"),
    "ck-index-tau-3": (
        ("ck-index", "--input", "run.cfg", "--tau", "3", "--epsilon", "0.5"), CK_CUBES, 0,
        "stdout", ("\ntau_at_top = 3\n", "\nconsistent_with_tau = True\n")),
    "ck-index-tau-4": (
        ("ck-index", "--input", "run.cfg", "--tau", "4", "--epsilon", "0.5"), CK_CUBES, 1,
        "stdout", "\nconsistent_with_tau = False\n"),
    "ck-index-without-tau": (
        ("ck-index", "--input", "run.cfg"), CK_SAMPLES, 0, "stdout", "\ntau_at_top = 2\n"),
    # log M(2.5) = log(1 + e^-1)
    "measure-ingestion": (
        ("measure", "--file", "run.cfg", "--variant", "kohlbecker", "--lam", "2.5"),
        "# atoms\n0\t1\n2.5\t1\n", 0, "stdout", "lambda log_M\n2.5 0.313261687518\n"),
    "measure-unsorted-locations": (
        ("measure", "--file", "run.cfg", "--variant", "kohlbecker", "--lam", "1"),
        "2\t1\n1\t1\n", 2,
        "stderr", "error: MeasureFormatError: run.cfg:2: locations must be strictly increasing\n"),
    "predict-leading": (
        ("predict", *K, "--psi", "100", "--order", "leading"), None, 0,
        "stdout", "predict_log_f(leading) = 100\n"),
    "predict-corrected": (
        ("predict", *K, "--psi", "100", "--order", "corrected"), None, 0,
        "stdout", "predict_log_f(corrected) = 103.568097216\n"),
    "config-grid": (
        ("verify", "--config", "run.cfg"),
        "a = 2\nb = 0.5\nc = -1\npsi-min = 20\npsi-max = 500\nn = 9\n", 0,
        "stdout", "psi_min = 20\npsi_max = 500\nn = 9\n"),
    "config-classical": (
        ("validate", "--config", "run.cfg"),
        "classical = Kohlbecker\nalpha = 2\nB = 2\n", 0,
        "stdout", "a = 2\nb = 0.5\nc = -1\noffset = 0\nregime = kohlbecker\n"),
    "config-cast-error": (
        ("validate", "--config", "run.cfg"), "a = x\nb = 0.5\nc = -1\n", 2,
        "stderr", "error: ConfigParseError: config key 'a': could not convert"),
    "config-unknown-key": (
        ("verify", "--config", "run.cfg"), "a = 2\nb = 0.5\nc = -1\npsi_min = 20\n", 2,
        "stderr", "error: ConfigParseError: run.cfg:4: unknown key 'psi_min'\n"),
    "config-flag-only-key": (
        ("verify", "--config", "run.cfg"), "a = 2\nb = 0.5\nc = -1\nquad-tol = 1e-3\n", 2,
        "stderr", "error: ConfigParseError: run.cfg:4: unknown key 'quad-tol'\n"),
    "config-missing": (
        ("validate", "--config", "absent.cfg"), None, 2,
        "stderr", "error: ConfigParseError: cannot read config file absent.cfg"),
    "raw-and-classical": (
        ("validate", *K, "--classical", "kohlbecker"), None, 2,
        "stderr", "give either raw --a/--b/--c or --classical, not both"),
    "classical-offset-flag": (
        ("validate", "--classical", "kohlbecker", "--alpha", "2", "--B", "2", "--offset", "5"),
        None, 2, "stderr", "--offset applies to raw --a/--b/--c, not to --classical"),
    "classical-offset-config": (
        ("validate", "--config", "run.cfg"),
        "classical = kohlbecker\nalpha = 2\nB = 2\noffset = 5\n", 2,
        "stderr", "--offset applies to raw --a/--b/--c, not to --classical"),
    "validate-h-peak-overflow": (
        ("validate", "--a", "-35.9226308546618", "--b", "1.017781697399071",
         "--c", "8526849.10586266"), None, 2,
        "stderr", "error: NumericOverflow: h(x_peak) = nan"),
    "verify-d-subnormal": (
        ("verify", "--a", "-0.6634491378833124", "--b", "1.0229653032791624",
         "--c", "4.124122724605254e-08"), None, 2,
        "stderr", "error: NumericOverflow: dual coefficient not representable"),
    "predict-h-peak-overflow": (
        ("predict", "--a", "1243646.727069192", "--b", "0.9938868893061318",
         "--c", "-17041.056669970476", "--psi", "100"), None, 2,
        "stderr", "error: NumericOverflow: h(x_peak) = nan"),
    "validate-d-overflow": (
        ("validate", "--a", "-1", "--b", "1.001", "--c", "100"), None, 2,
        "stderr", "error: NumericOverflow: (-c/(a*b))**(b/(b-1)) = 99.9001**1001"),
    "validate-d-stated-overflow": (
        ("validate", "--a", "-1e8", "--b", "1.0001", "--c", "93243111.17428248"), None, 0,
        "stdout", "d_stated_variant = inf\n"),
    "validate-d-stated-overflow-kasahara": (
        ("validate", "--a", "-15787882.360285742", "--b", "1.0246206765357095",
         "--c", "0.5512759532684256"), None, 0,
        "stdout", "d_stated_variant = inf\n"),
    "unknown-variant": (
        ("validate", "--classical", "weierstrass", "--alpha", "2", "--B", "2"), None, 2,
        "stderr", "unknown classical variant 'weierstrass'"),
    "classical-config": (
        ("classical", "--variant", "kohlbecker", "--config", "run.cfg"),
        "alpha = 2\nB = 2\n", 0,
        "stdout", "variant = kohlbecker\na = 2\nb = 0.5\n"),
    "invert-kohlbecker": (
        ("invert", *K), None, 0,
        "stdout", ("status = pass\n", "\n[recovered]\na_hat = ", "\nb_hat = ", "\na_rel_gap = ")),
    "invert-kasahara": (("invert", *KASAHARA), None, 1, "stdout", "status = fail\n"),
    "invert-de-bruijn": (("invert", *DE_BRUIJN), None, 0, "stdout", "status = pass\n"),
    "ck-index-tau-nan": (
        ("ck-index", "--input", "run.cfg", "--tau", "nan"), CK_SAMPLES, 2,
        "stderr", "error: DomainError: tau must be finite, got nan"),
    "ck-index-tau-inf": (
        ("ck-index", "--input", "run.cfg", "--tau", "inf"), CK_SAMPLES, 2,
        "stderr", "error: DomainError: tau must be finite, got inf"),
    "ck-index-epsilon-inf": (
        ("ck-index", "--input", "run.cfg", "--tau", "2", "--epsilon", "inf"), CK_SAMPLES, 2,
        "stderr", "error: ValidationError: epsilons must be positive and finite, got inf"),
    "ck-index-epsilon-overflow": (
        ("ck-index", "--input", "run.cfg", "--tau", "2", "--epsilon", "1e308"), CK_SAMPLES, 2,
        "stderr", "error: NumericOverflow: log U/x**(tau -+ eps) at tau=2, eps=1e+308"),
    "verify-quad-tol-inf": (
        ("verify", *K, "--quad-tol", "inf"), None, 2,
        "stderr", "error: DomainError: tol must be positive and finite, got inf"),
    "classical-kohlbecker-alpha-inf": (
        ("classical", "--variant", "kohlbecker", "--alpha", "inf", "--B", "1"), None, 2,
        "stderr", "error: SpecOutOfRange: Kohlbecker needs a finite alpha, got inf"),
    "classical-debruijn-rate-inf": (
        ("classical", "--variant", "debruijn", "--beta", "-1", "--B", "-1", "--rate", "inf"),
        None, 2, "stderr", "error: SpecOutOfRange: DeBruijn needs a finite rate, got inf"),
    "classical-kasahara-alpha-just-above-1": (
        ("classical", "--variant", "kasahara", "--alpha", "1.0000000001", "--B", "1"), None, 2,
        "stderr", "error: SpecOutOfRange: Kasahara needs 0 < alpha < 1, got 1.0000000001\n"),
    "ck-index-missing-file": (
        ("ck-index", "--input", "nope.tsv"), None, 2,
        "stderr", "error: MeasureFormatError: cannot read sample file nope.tsv"),
    "verify-psi-max-inf": (
        ("verify", *K, "--psi-max", "inf"), None, 2,
        "stderr", "error: BadRange: psi_max must be finite"),
    "validate-offset-negative": (
        ("validate", *K, "--offset", "-1"), None, 2,
        "stderr", "error: DomainError: offset must be >= 0\n"),
    "predict-offset-negative": (
        ("predict", *K, "--offset", "-1", "--psi", "100"), None, 2,
        "stderr", "error: DomainError: offset must be >= 0\n"),
    "verify-offset-negative": (
        ("verify", *K, "--offset", "-1"), None, 2,
        "stderr", "error: DomainError: offset must be >= 0\n"),
    "predict-psi-nan": (
        ("predict", *K, "--psi", "nan"), None, 2,
        "stderr", "error: DomainError: psi must be finite"),
    "measure-kasahara-overflow": (
        ("measure", "--file", "run.cfg", "--variant", "kasahara", "--lam", "1e10"),
        "0\t1\n1e300\t1\n", 2,
        "stderr", "error: NumericOverflow: log of the exponential sum is not a finite float"),
    "measure-kasahara-lam-nan": (
        ("measure", "--file", "run.cfg", "--variant", "kasahara", "--lam", "nan"),
        "0\t1\n1\t1\n", 2, "stderr", "error: DomainError: lam must be >= 0"),
    "measure-kohlbecker-vanishing-term": (
        ("measure", "--file", "run.cfg", "--variant", "kohlbecker", "--lam", "1e-10"),
        "0\t1\n1e300\t1\n", 0, "stdout", "lambda log_M\n1e-10 0\n"),
    "measure-missing-file": (
        ("measure", "--file", "nope.tsv", "--variant", "kohlbecker", "--lam", "1"), None, 2,
        "stderr", "error: MeasureFormatError: cannot read measure file nope.tsv"),
    # Each variant needs the fields of its spec that have no default.
    "classical-kohlbecker-missing": (
        ("classical", "--variant", "kohlbecker", "--alpha", "2"), None, 2,
        "stderr", "error: ConfigParseError: kohlbecker needs --alpha and --B\n"),
    "classical-debruijn-missing": (
        ("classical", "--variant", "debruijn", "--B", "-1", "--rate", "2"), None, 2,
        "stderr", "error: ConfigParseError: debruijn needs --beta and --B\n"),
    "classical-kasahara-missing": (
        ("validate", "--classical", "kasahara", "--B", "1"), None, 2,
        "stderr", "error: ConfigParseError: kasahara needs --alpha and --B\n"),
    # A classical option that the run does not use is refused, from a flag or
    # a config key; a raw run uses none.
    "kohlbecker-unused-rate-flag": (
        ("classical", "--variant", "kohlbecker", "--alpha", "2", "--B", "2", "--rate", "5"),
        None, 2, "stderr", "error: ConfigParseError: --rate does not apply to kohlbecker\n"),
    "kohlbecker-unused-rate-config": (
        ("validate", "--config", "run.cfg"),
        "classical = kohlbecker\nalpha = 2\nB = 2\nrate = 5\n", 2,
        "stderr", "error: ConfigParseError: --rate does not apply to kohlbecker\n"),
    "kasahara-unused-beta-flag": (
        ("verify", "--classical", "kasahara", "--alpha", "0.5", "--B", "1", "--beta", "-1"),
        None, 2, "stderr", "error: ConfigParseError: --beta does not apply to kasahara\n"),
    "kasahara-unused-beta-config": (
        ("classical", "--variant", "kasahara", "--config", "run.cfg"),
        "alpha = 0.5\nB = 1\nbeta = -1\n", 2,
        "stderr", "error: ConfigParseError: --beta does not apply to kasahara\n"),
    "raw-unused-alpha-flag": (
        ("validate", *K, "--alpha", "2"), None, 2,
        "stderr", "error: ConfigParseError: --alpha does not apply to raw --a/--b/--c\n"),
    "raw-unused-alpha-config": (
        ("predict", *K, "--psi", "100", "--config", "run.cfg"), "alpha = 2\n", 2,
        "stderr", "error: ConfigParseError: --alpha does not apply to raw --a/--b/--c\n"),
    "raw-classical-cast-error": (
        ("validate", *K, "--config", "run.cfg"), "rate = fast\n", 2,
        "stderr", "error: ConfigParseError: config key 'rate': could not convert"),
    # A config file is read as UTF-8, as the measure and sample files are.
    "config-not-utf8": (
        ("validate", *K, "--config", "run.cfg"), b"a = 2\xff\n", 2,
        "stderr", "error: ConfigParseError: cannot read config file run.cfg: 'utf-8' codec"),
    # (b-1)*c*u* overflows in the window width; the row is refused by its
    # peak value.
    "verify-window-width-overflow": (
        ("verify", "--a", "-1e-8", "--b", "64", "--c", "1e8", "--psi-max", "1e308"), None, 2,
        "stderr", "error: NumericOverflow: peak value g(u*) at s=6.49382e-304 is not a finite"),
    "measure-total-mass-overflow": (
        ("measure", "--file", "run.cfg", "--variant", "kohlbecker", "--lam", "1"),
        "0\t1e308\n1\t1e308\n", 2,
        "stderr", "error: MeasureFormatError: run.cfg: total mass of the atoms is not a finite"),
}


@pytest.mark.parametrize(
    "args, config, code, stream, fragment",
    list(IN_PROCESS_CASES.values()),
    ids=list(IN_PROCESS_CASES),
)
def test_cli_in_process(tmp_path, monkeypatch, capsys, args, config, code, stream, fragment):
    monkeypatch.chdir(tmp_path)
    if config is not None:  # text, or bytes written as they are
        data = config if isinstance(config, bytes) else config.encode("utf-8")
        (tmp_path / "run.cfg").write_bytes(data)
    res_code, out, err = invoke(capsys, *args)
    assert res_code == code, (out, err)
    text = {"stdout": out, "stderr": err}[stream]
    for part in fragment if isinstance(fragment, tuple) else (fragment,):
        assert part in text, (part, text)
    if code == 2:  # an input error is refused before any output
        assert out == ""


# Each config key, with a value that changes the output, in the run that
# uses it.
CONFIG_KEY_RUNS = (
    ("verify", {"a": "2", "b": "0.5", "c": "-1", "offset": "0.5",
                "psi-min": "20", "psi-max": "300", "n": "9"}),
    ("validate", {"classical": "debruijn", "beta": "-0.5", "B": "-2", "rate": "2"}),
    ("validate", {"classical": "kohlbecker", "alpha": "3", "B": "2"}),
)
CONFIG_KEYS = "a b c offset classical alpha B beta rate psi-min psi-max n".split()


def test_the_config_keys_are_the_listed_ones_and_each_has_a_run():
    assert set(cli._CONFIG_CASTS) == set(CONFIG_KEYS)
    assert set().union(*(values for _, values in CONFIG_KEY_RUNS)) == set(CONFIG_KEYS)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_a_config_key_gives_the_output_of_its_flag(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    command, values = next(run for run in CONFIG_KEY_RUNS if key in run[1])
    (tmp_path / "run.cfg").write_text(f"{key} = {values[key]}\n", encoding="utf-8")
    others = [arg for k, v in values.items() if k != key for arg in (f"--{k}", v)]
    from_flag = invoke(capsys, command, *others, f"--{key}", values[key])
    assert from_flag[0] == 0, from_flag
    assert invoke(capsys, command, *others, "--config", "run.cfg") == from_flag


@pytest.mark.parametrize("args", [
    ("verify", *K, "--out", "nodir/x"),
    ("verify", *K, "--csv", "nodir/x"),
    ("sweep", *K, "--csv", "nodir/x"),
    ("invert", *K, "--out", "nodir/x"),
    ("verify", *K, "--out", "ok.txt", "--csv", "nodir/x"),
], ids=["verify-out", "verify-csv", "sweep-csv", "invert-out", "verify-out-then-csv"])
def test_a_failed_write_is_refused_before_any_output(tmp_path, monkeypatch, capsys, args):
    # The files are written before the report is printed, so a path that
    # cannot be written exits 2 with nothing on stdout, not 1 (a failed
    # verification) after the report.  A refused --csv also removes the
    # --out report that this run had written.
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: cannot write nodir/x: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, csv", [
    ("x", "x"), ("x", "./x"), ("old.txt", "old.txt"), ("x", "link-to-x"),
    ("old.txt", "hard-link"),
], ids=["same-name", "dot-slash", "existing-file", "symlink", "hard-link"])
def test_two_outputs_to_one_file_are_refused_before_any_output(tmp_path, monkeypatch, capsys,
                                                               out, csv):
    # The CSV would replace the report, so the pair is refused before either
    # is written; a file that was there keeps its text.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.txt").write_text("an older report\n", encoding="utf-8")
    (tmp_path / "link-to-x").symlink_to("x")
    (tmp_path / "hard-link").hardlink_to("old.txt")
    before = sorted(p.name for p in tmp_path.iterdir())
    code, stdout, err = invoke(capsys, "verify", *K, "--out", out, "--csv", csv)
    assert (code, stdout) == (2, "")
    assert err == (f"error: ValidationError: cannot write {csv}: "
                   "another output of this command names the same file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "old.txt").read_text(encoding="utf-8") == "an older report\n"


def test_both_outputs_may_go_to_a_device(capsys):
    code, stdout, err = invoke(capsys, "verify", *K, "--out", os.devnull, "--csv", os.devnull)
    assert (code, err) == (0, "")
    assert stdout.startswith("report = verify\n")


def test_a_refused_write_empties_an_out_file_that_existed(tmp_path, monkeypatch, capsys):
    # A file that was there before the command is kept, without this run's
    # report; only a file the command created is removed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.txt").write_text("an older report\n", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", *K, "--out", "old.txt", "--csv", "nodir/x")
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: cannot write nodir/x: ")
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]
    assert (tmp_path / "old.txt").read_text(encoding="utf-8") == ""


def test_a_refused_write_is_reported_when_its_cleanup_fails(tmp_path, monkeypatch, capsys):
    # Removing the --out file can fail too (its directory may be read-only
    # to the user); the refusal is still the write's ValidationError.
    def unlink(self, missing_ok=False):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Path, "unlink", unlink)
    code, out, err = invoke(capsys, "verify", *K, "--out", "ok.txt", "--csv", "nodir/x")
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: cannot write nodir/x: ")


@pytest.mark.parametrize("samples, flags, fragment", [
    (CK_SAMPLES, ("--tau", "nan"), "DomainError: tau must be finite, got nan"),
    (CK_SAMPLES, ("--tau", "2", "--epsilon", "inf"), "epsilons must be positive"),
    ("".join(CK_SAMPLES.splitlines(keepends=True)[:4]), ("--tau", "2"),
     "InsufficientSpan: need >= 8 samples, got 4"),
    # The --tau refusal comes before the samples' own.
    (CK_SAMPLES + "1\t1\n", ("--tau", "nan"), "tau must be finite"),
    (CK_SAMPLES + "1e9 2 3\n", (), "expected 'x<TAB>U(x)', got '1e9 2 3'"),
    # An --epsilon without --tau would be ignored, so it is refused.
    (CK_SAMPLES, ("--epsilon", "0.5"), "ConfigParseError: --epsilon applies to the --tau"),
], ids=["tau-nan", "epsilon-inf", "four-samples", "tau-before-samples", "bad-line",
        "epsilon-without-tau"])
def test_ck_index_prints_nothing_before_it_refuses(tmp_path, capsys, samples, flags,
                                                   fragment):
    path = tmp_path / "samples.tsv"
    path.write_text(samples, encoding="utf-8")
    code, out, err = invoke(capsys, "ck-index", "--input", str(path), *flags)
    assert (code, out) == (2, "")
    assert fragment in err



@pytest.mark.parametrize("variant", ["kohlbecker", "kasahara"])
def test_measure_refuses_an_infinite_lambda_before_any_output(tmp_path, capsys, variant):
    path = tmp_path / "atoms.tsv"
    path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    code, out, err = invoke(capsys, "measure", "--file", str(path), "--variant", variant,
                            "--lam", "1", "--lam", "inf")
    assert (code, out) == (2, "")
    assert err == "error: DomainError: lam must be finite, got inf\n"

# Every command and the flags its --help must list; the group's --help lists
# the commands.
_CLASSICAL_FLAGS = ("--alpha", "--B", "--beta", "--rate", "--config")
_PARAMS_FLAGS = ("--a", "--b", "--c", "--offset", "--classical", *_CLASSICAL_FLAGS)
_GRID_FLAGS = (*_PARAMS_FLAGS, "--psi-min", "--psi-max", "--n", "--quad-tol")
COMMAND_FLAGS = {
    "validate": _PARAMS_FLAGS,
    "predict": (*_PARAMS_FLAGS, "--psi", "--order"),
    "verify": (*_GRID_FLAGS, "--out", "--csv"),
    "sweep": (*_GRID_FLAGS, "--csv"),
    "invert": (*_GRID_FLAGS, "--out"),
    "classical": ("--variant", *_CLASSICAL_FLAGS),
    "ck-index": ("--input", "--tau", "--epsilon"),
    "measure": ("--file", "--variant", "--lam"),
}


@pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
def test_help_lists_every_flag(capsys, command):
    args = ("--help",) if command is None else (command, "--help")
    code, out, err = invoke(capsys, *args)
    assert code == 0, err
    for word in COMMAND_FLAGS if command is None else COMMAND_FLAGS[command]:
        assert re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", out), word


USAGE_ERRORS = {
    "no-arguments": (),
    "unknown-command": ("frobnicate",),
    "unknown-option": ("validate", *K, "--zzz", "1"),
    "non-float": ("validate", "--a", "x", "--b", "0.5", "--c", "-1"),
    "missing-psi": ("predict", *K),
    "missing-lam": ("measure", "--file", "atoms.tsv", "--variant", "kohlbecker"),
    "unknown-order": ("predict", *K, "--psi", "100", "--order", "third"),
    "bare-epsilon": ("ck-index", "--input", "samples.tsv", "--tau", "3", "--epsilon"),
    "non-int-n": ("verify", *K, "--n", "3.5"),
    "option-prefix": ("verify", *K, "--qu", "1e-4"),
    "no-short-help": ("validate", "-h"),
}


@pytest.mark.parametrize("args", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exits_2_before_any_output(capsys, args):
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (2, "")
    assert err.strip()


# An option's value may begin with "-": each is read as the value of --a.
NEGATIVE_VALUES = {
    "-1e8": ("stdout", "a = -100000000\n"),
    "-inf": ("stderr", "error: ValidationError: a must be finite, got -inf\n"),
    "-1e-3": ("stdout", "a = -0.001\n"),
    "-.5": ("stdout", "a = -0.5\n"),
}


@pytest.mark.parametrize("value", list(NEGATIVE_VALUES))
def test_negative_values_are_option_values(capsys, value):
    stream, fragment = NEGATIVE_VALUES[value]
    code, out, err = invoke(capsys, "validate", "--a", value, "--b", "-1", "--c", "-1")
    assert code == (0 if stream == "stdout" else 2), err
    assert fragment in {"stdout": out, "stderr": err}[stream]


def test_main_returns_on_exit_0_and_raises_any_other_code(capsys, monkeypatch):
    # The console script and the benchmark's child process rely on this.
    # main() freezes this process's heap, so the collector is given it back.
    try:
        monkeypatch.setattr(sys, "argv", ["tauberlab", "validate", *K])
        assert cli.main() is None
        monkeypatch.setattr(sys, "argv",
                            ["tauberlab", "validate", "--a", "1", "--b", "2", "--c", "-1"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
    finally:
        gc.unfreeze()
    assert exc.value.code == 2
    assert "error: SignConditionViolated" in capsys.readouterr().err


def test_main_freezes_the_import_heap_and_keeps_the_collector_on():
    res = run_python("-c", (
        "import gc, sys\n"
        "from tauberlab import cli\n"
        f"sys.argv = ['tauberlab', 'validate', *{K!r}]\n"
        "cli.main()\n"
        "print(gc.get_freeze_count() > 0, gc.isenabled())\n"
    ))
    assert (res.returncode, res.stdout.splitlines()[-1]) == (0, "True True"), res.stderr


def test_import_and_run_leave_the_collector_as_they_found_it():
    res = run_python("-c", (
        "import gc\n"
        "import tauberlab.cli as cli\n"
        f"assert cli.run(['validate', *{K!r}]) == 0\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
    ))
    assert (res.returncode, res.stdout.splitlines()[-1]) == (0, "0 True"), res.stderr


def test_cli_import_loads_no_click():
    res = run_python("-c", "import sys, tauberlab.cli; print('click' in sys.modules)")
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr


def test_a_cold_verify_loads_no_dataclasses():
    res = run_python("-c", (
        "import sys\n"
        "from tauberlab import cli\n"
        "code = cli.run(['verify', '--a', '2', '--b', '0.5', '--c', '-1'])\n"
        "print(code, 'dataclasses' in sys.modules, file=sys.stderr)"
    ))
    assert (res.returncode, res.stderr) == (0, "0 False\n"), res.stderr


def test_a_cold_cli_loads_the_traced_modules_and_each_front_end_on_first_use(
        tmp_path, monkeypatch):
    # The benchmark's tracer looks its modules up in sys.modules right after
    # importing the CLI, so they stay eager; classical and index load only
    # for the commands that run them.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = set(tracer.FUNCTIONS) | {module for module, *_ in tracer.METHODS}
    samples = tmp_path / "samples.tsv"
    samples.write_text(CK_SAMPLES, encoding="utf-8")
    commands = [
        ["classical", "--variant", "kasahara", "--alpha", "0.5", "--B", "1"],
        ["ck-index", "--input", str(samples), "--tau", "2"],
    ]
    res = run_python("-B", "-c", (
        "import contextlib, io, sys\n"
        "from tauberlab import cli\n"
        "def loaded():\n"
        "    return sorted(n[len('tauberlab.'):] for n in sys.modules\n"
        "                  if n.startswith('tauberlab.'))\n"
        "print(*loaded())\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(argv) == 0, argv\n"
        "    print(*loaded())\n"
    ))
    assert res.returncode == 0, res.stderr
    cold, after_classical, after_ck_index = map(set, map(str.split, res.stdout.splitlines()))
    assert traced <= cold
    assert not {"classical", "index"} & cold
    assert after_classical - cold == {"classical"}
    assert after_ck_index - after_classical == {"index"}


def test_star_import_binds_every_exported_name():
    res = run_python("-B", "-c", (
        "import tauberlab\n"
        "from tauberlab import *\n"
        "missing = [n for n in tauberlab.__all__ if globals().get(n) is not getattr(tauberlab, n)]\n"
        "print(len(tauberlab.__all__), missing)\n"
    ))
    assert (res.returncode, res.stdout) == (0, f"{len(tl.__all__)} []\n"), res.stderr
