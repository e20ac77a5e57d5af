"""End-to-end CLI: exit codes, determinism, config files, ingestion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tauberlab as tl
from tauberlab import cli


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    # Warnings are errors here too, as in the in-process tests.  The child
    # imports this checkout's package, installed or not.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tauberlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def invoke(capsys, *args):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    code = cli.run(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestValidateCommand:
    def test_canonical_kohlbecker(self):
        res = run_cli("validate", "--a", "2", "--b", "0.5", "--c", "-1")
        assert res.returncode == 0
        assert "d = 1" in res.stdout
        assert "dual_exp = 1" in res.stdout
        assert "regime = kohlbecker" in res.stdout

    def test_sign_violation_names_product(self):
        res = run_cli("validate", "--a", "1", "--b", "2", "--c", "-1")
        assert res.returncode == 2
        assert "a*b*(b-1) = 2" in res.stderr

    def test_degenerate_exponent(self):
        res = run_cli("validate", "--a", "2", "--b", "1", "--c", "-1")
        assert res.returncode == 2
        assert "DegenerateExponent" in res.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2\nb = 0.5\nc = -1\n", encoding="utf-8")
        res = run_cli("validate", "--config", str(cfg))
        assert res.returncode == 0 and "regime = kohlbecker" in res.stdout
        # flag overrides the config value of a
        res2 = run_cli("validate", "--config", str(cfg), "--a", "4")
        assert res2.returncode == 0
        assert "a = 4" in res2.stdout

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("a 2\n", encoding="utf-8")
        res = run_cli("validate", "--config", str(cfg))
        assert res.returncode == 2
        assert "ConfigParse" in res.stderr


class TestPredictCommand:
    def test_overflow_refused(self):
        # d = 16, so d*psi leaves the float range.
        res = run_cli("predict", "--a", "8", "--b", "0.5", "--c", "-1", "--psi", "1.5e307")
        assert res.returncode == 2
        assert "error: NumericOverflow: predicted log f" in res.stderr
        assert res.stdout == ""


class TestVerifyCommand:
    def test_kohlbecker_pass_and_artifacts(self, tmp_path):
        out, csv = tmp_path / "rep.txt", tmp_path / "rep.csv"
        res = run_cli(
            "verify", "--classical", "kohlbecker", "--alpha", "2", "--B", "2",
            "--psi-min", "10", "--psi-max", "1000", "--n", "16",
            "--out", str(out), "--csv", str(csv),
        )
        assert res.returncode == 0
        assert "status = pass" in res.stdout
        rows = csv.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "psi,s,log_f,prediction_leading,prediction_corrected,ratio"
        assert len(rows) == 17  # header + 16 samples
        last_ratio = float(rows[-1].split(",")[-1])
        assert 0.99 <= last_ratio <= 1.01

    def test_exit_code_matrix(self):
        # Three canonical runs plus three invalid inputs.  The small-d
        # canonical (kasahara, d=1/4) genuinely fails the default desk-scale
        # tolerances, so the verification-failure exit code is the honest
        # outcome there.
        matrix = [
            (("verify", "--a", "2", "--b", "0.5", "--c", "-1"), 0),
            (("verify", "--a", "-1", "--b", "-1", "--c", "-1"), 0),
            (("verify", "--a", "-1", "--b", "2", "--c", "1", "--offset", "1"), 1),
            (("validate", "--a", "1", "--b", "2", "--c", "-1"), 2),
            (("verify", "--a", "2", "--b", "0.5", "--c", "-1", "--n", "3"), 2),
            (("validate", "--a", "2", "--b", "1", "--c", "-1"), 2),
        ]
        for args, expected in matrix:
            res = run_cli(*args)
            assert res.returncode == expected, (args, res.stderr)

    def test_byte_identical_reports(self, tmp_path):
        def one(run_dir):
            run_dir.mkdir()
            out, csv = run_dir / "rep.txt", run_dir / "rep.csv"
            res = run_cli(
                "verify", "--a", "2", "--b", "0.5", "--c", "-1",
                "--out", str(out), "--csv", str(csv),
            )
            return res.returncode, res.stdout, out.read_bytes(), csv.read_bytes()

        first = one(tmp_path / "r1")
        second = one(tmp_path / "r2")
        assert first == second


class TestSweepAndInvert:
    def test_sweep_emits_csv(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        res = run_cli(
            "sweep", "--a", "-1", "--b", "-1", "--c", "-1",
            "--psi-min", "10", "--psi-max", "100", "--n", "8", "--csv", str(csv),
        )
        assert res.returncode == 0
        rows = csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 9

    def test_invert_reports_recovered_parameters(self):
        res = run_cli("invert", "--a", "2", "--b", "0.5", "--c", "-1")
        assert res.returncode == 0
        assert "a_hat" in res.stdout and "b_hat" in res.stdout
        assert "a_rel_gap" in res.stdout


class TestClassicalCommand:
    def test_identity_certified(self):
        res = run_cli("classical", "--variant", "debruijn", "--beta", "-1",
                      "--B", "-1", "--rate", "1")
        assert res.returncode == 0
        assert "unified_d = -2" in res.stdout
        assert "rel_gap = 0" in res.stdout

    def test_out_of_range(self):
        res = run_cli("classical", "--variant", "kohlbecker", "--alpha", "0.5", "--B", "2")
        assert res.returncode == 2
        assert "SpecOutOfRange" in res.stderr


class TestDataCommands:
    def test_ck_index_and_diagnostic(self, tmp_path):
        path = tmp_path / "samples.tsv"
        lines = [f"{10.0**k}\t{(10.0**k) ** 3}" for k in range(1, 9)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = run_cli("ck-index", "--input", str(path), "--tau", "3",
                      "--epsilon", "0.5")
        assert res.returncode == 0
        assert "tau_at_top = 3" in res.stdout
        assert "consistent_with_tau = True" in res.stdout
        res_bad = run_cli("ck-index", "--input", str(path), "--tau", "4",
                          "--epsilon", "0.5")
        assert res_bad.returncode == 1
        assert "consistent_with_tau = False" in res_bad.stdout

    def test_ck_index_accepts_any_order(self, tmp_path):
        # ck_index sorts its samples, so the file's order must not matter.
        lines = [f"{10.0**k}\t{(10.0**k) ** 3}" for k in range(1, 9)]
        runs = []
        for name, order in (("sorted", lines), ("shuffled", lines[::2] + lines[1::2][::-1])):
            path = tmp_path / f"{name}.tsv"
            path.write_text("\n".join(order) + "\n", encoding="utf-8")
            res = run_cli("ck-index", "--input", str(path), "--tau", "3", "--epsilon", "0.5")
            runs.append((res.returncode, res.stdout))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "consistent_with_tau = True" in runs[0][1]

    def test_ck_index_with_tau_estimates_the_index_once(self, tmp_path, monkeypatch, capsys):
        # The diagnostic reads the index estimate the command printed.
        path = tmp_path / "samples.tsv"
        path.write_text("".join(f"{10.0**k}\t{(10.0**k) ** 3}\n" for k in range(1, 9)),
                        encoding="utf-8")
        calls, ck_index = [], tl.asymptotics.ck_index
        monkeypatch.setattr("tauberlab.asymptotics.ck_index",
                            lambda samples: calls.append(1) or ck_index(samples))
        code, out, _ = invoke(capsys, "ck-index", "--input", str(path), "--tau", "3")
        assert code == 0 and "consistent_with_tau = True" in out
        assert len(calls) == 1

    def test_measure_ingestion(self, tmp_path):
        path = tmp_path / "atoms.tsv"
        path.write_text("# atoms\n0\t1\n2.5\t1\n", encoding="utf-8")
        res = run_cli("measure", "--file", str(path), "--variant", "kohlbecker",
                      "--lam", "2.5")
        assert res.returncode == 0
        assert "0.313261687518" in res.stdout  # log(1 + e^-1)

    def test_malformed_measure_file(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("2\t1\n1\t1\n", encoding="utf-8")
        res = run_cli("measure", "--file", str(path), "--variant", "kohlbecker",
                      "--lam", "1")
        assert res.returncode == 2
        assert "MeasureFormatError" in res.stderr


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
# U = x**2 at x = 10 .. 1e8: eight samples over seven decades.
CK_SAMPLES = "".join(f"{10.0**k}\t{10.0 ** (2 * k)}\n" for k in range(1, 9))

# (args, config file text or None, exit code, stream, fragment).  A config
# text is written to run.cfg in the working directory first.
IN_PROCESS_CASES = {
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
    "invert-kohlbecker": (("invert", *K), None, 0, "stdout", "status = pass\n"),
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
    "ck-index-missing-file": (
        ("ck-index", "--input", "nope.tsv"), None, 2,
        "stderr", "error: MeasureFormatError: cannot read measure file nope.tsv"),
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
}


@pytest.mark.parametrize(
    "args, config, code, stream, fragment",
    list(IN_PROCESS_CASES.values()),
    ids=list(IN_PROCESS_CASES),
)
def test_cli_in_process(tmp_path, monkeypatch, capsys, args, config, code, stream, fragment):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    res_code, out, err = invoke(capsys, *args)
    assert res_code == code, (out, err)
    assert fragment in {"stdout": out, "stderr": err}[stream]


@pytest.mark.parametrize("args", [
    ("verify", *K, "--out", "nodir/x"),
    ("verify", *K, "--csv", "nodir/x"),
    ("sweep", *K, "--csv", "nodir/x"),
    ("invert", *K, "--out", "nodir/x"),
], ids=["verify-out", "verify-csv", "sweep-csv", "invert-out"])
def test_a_failed_write_is_refused_before_any_output(tmp_path, monkeypatch, capsys, args):
    # The files are written before the report is printed, so a path that
    # cannot be written exits 2 with nothing on stdout, not 1 (a failed
    # verification) after the report.
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ValidationError: cannot write nodir/x: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples, flags, fragment", [
    (CK_SAMPLES, ("--tau", "nan"), "DomainError: tau must be finite, got nan"),
    (CK_SAMPLES, ("--tau", "2", "--epsilon", "inf"), "epsilons must be positive"),
    ("".join(CK_SAMPLES.splitlines(keepends=True)[:4]), ("--tau", "2"),
     "InsufficientSpan: need >= 8 samples, got 4"),
    # The --tau refusal comes before the samples' own.
    (CK_SAMPLES + "1\t1\n", ("--tau", "nan"), "tau must be finite"),
    (CK_SAMPLES + "1e9 2 3\n", (), "expected 'x<TAB>U(x)', got '1e9 2 3'"),
], ids=["tau-nan", "epsilon-inf", "four-samples", "tau-before-samples", "bad-line"])
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
    monkeypatch.setattr(sys, "argv", ["tauberlab", "validate", *K])
    assert cli.main() is None
    monkeypatch.setattr(sys, "argv", ["tauberlab", "validate", "--a", "1", "--b", "2", "--c", "-1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "error: SignConditionViolated" in capsys.readouterr().err


def test_cli_import_loads_no_click():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, tauberlab.cli; print('click' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr
