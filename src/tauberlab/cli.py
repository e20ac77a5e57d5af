"""Command-line front end.

Usage:
    tauberlab validate --a 2 --b 0.5 --c -1
    tauberlab predict --a 2 --b 0.5 --c -1 --psi 100 --order corrected
    tauberlab verify --classical kohlbecker --alpha 2 --B 2 \
        --psi-min 10 --psi-max 1000 --n 16 --out report.txt --csv sweep.csv
    tauberlab verify --a -1 --b -1 --c -1
    tauberlab invert --a 2 --b 0.5 --c -1
    tauberlab sweep --a 2 --b 0.5 --c -1 --csv sweep.csv
    tauberlab classical --variant kasahara --alpha 0.5 --B 1
    tauberlab ck-index --input samples.tsv --tau 3 --epsilon 0.5
    tauberlab measure --file atoms.tsv --variant kohlbecker --lam 10

Exit codes: 0 success / verification passed, 1 verification failed,
2 input or configuration error, or an --out or --csv file that cannot be
written.  The files are written before anything is printed.

Options may also come from a config file of ``key = value`` lines via
``--config``; explicit flags override file values.  The config keys are
``a b c offset classical alpha B beta rate psi-min psi-max n``, and any
other key is refused; ``--quad-tol``, ``--out`` and ``--csv`` are flags only.

The options are parsed with the standard library's argparse.  Options take
no abbreviations, and an option's value may begin with "-" (``--a -1e8``,
``--c -inf``).  ``run(argv)`` runs one command line in this process and
returns its exit code.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import asymptotics, classical, measures, params, report, targets, transform
from .errors import ConfigParseError, TauberError, ValidationError

__all__ = ["main", "run"]

_EXIT_VERIFY_FAILED = 1
_EXIT_INPUT_ERROR = 2

# Config-file keys of the shared options and how their values are cast.  The
# flag of each key is ``--<key>``.
_CONFIG_CASTS = {
    "a": float, "b": float, "c": float, "offset": float, "classical": str,
    "alpha": float, "B": float, "beta": float, "rate": float,
    "psi-min": float, "psi-max": float, "n": int,
}


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_CASTS:
            raise ConfigParseError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


class Options:
    """The shared options of one command, read flag first, then config, then default."""

    def __init__(self, args: argparse.Namespace):
        self.flags = vars(args)
        self.cfg = _load_config(args.config)

    def _get(self, key: str, default=None):
        flag = self.flags.get(key.replace("-", "_"))
        if flag is not None:
            return flag
        if key in self.cfg:
            try:
                return _CONFIG_CASTS[key](self.cfg[key])
            except ValueError as exc:
                raise ConfigParseError(f"config key {key!r}: {exc}") from exc
        return default

    def params(self) -> params.UnifiedParams:
        """Raw (a, b, c, offset) or a classical spec, resolved to parameters."""
        a, b, c = self._get("a"), self._get("b"), self._get("c")
        offset = self._get("offset")
        variant = self._get("classical")
        if variant is not None and any(v is not None for v in (a, b, c)):
            raise ConfigParseError("give either raw --a/--b/--c or --classical, not both")
        if variant is not None and offset is not None:
            raise ConfigParseError("--offset applies to raw --a/--b/--c, not to --classical")
        if variant is not None:
            return classical.to_unified(self.classical(variant)).params
        if a is None or b is None or c is None:
            raise ConfigParseError("need --a, --b and --c (or --classical ...)")
        return params.validate(a, b, c, 0.0 if offset is None else offset)

    def classical(self, variant: str) -> classical.ClassicalSpec:
        variant = variant.lower()
        alpha, big_b = self._get("alpha"), self._get("B")
        beta, rate = self._get("beta"), self._get("rate", 1.0)
        if variant == "kohlbecker":
            if alpha is None or big_b is None:
                raise ConfigParseError("kohlbecker needs --alpha and --B")
            return classical.Kohlbecker(alpha=alpha, B=big_b)
        if variant == "debruijn":
            if beta is None or big_b is None:
                raise ConfigParseError("debruijn needs --beta and --B")
            return classical.DeBruijn(beta=beta, B=big_b, rate=rate)
        if variant == "kasahara":
            if alpha is None or big_b is None:
                raise ConfigParseError("kasahara needs --alpha and --B")
            return classical.Kasahara(alpha=alpha, B=big_b)
        raise ConfigParseError(
            f"unknown classical variant {variant!r}; "
            "choose kohlbecker, debruijn or kasahara"
        )

    def verify(self) -> asymptotics.EquivalenceReport:
        """Verify the pure power of the resolved parameters over the resolved grid."""
        p = self.params()
        grid = asymptotics.make_grid(
            self._get("psi-min", 10.0), self._get("psi-max", 1000.0), self._get("n", 16)
        )
        return asymptotics.verify_equivalence(
            p, targets.PurePower(p.a, p.b), grid, quad_tol=self.flags["quad_tol"]
        )


class _Parser(argparse.ArgumentParser):
    """argparse with no option prefixes and no ``-h``, whose option values may
    begin with "-"."""

    def __init__(self, add_help=True, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        if add_help:
            self.add_argument("--help", action="help", help="show this message and exit")
        # argparse reads an argument that begins with "-" as an option name
        # unless it matches this pattern.  Its own pattern matches only "-1"
        # and "-1.5", so "--a -1e8" and "--c -inf" would end in "expected one
        # argument".
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _write(path: str | None, text: str) -> None:
    """Write text to path, if given; a failed write is a ValidationError."""
    if path is None:
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _print_pairs(pairs) -> None:
    for key, value in pairs:
        print(report.kv(key, value))


def cmd_validate(args) -> int:
    """Validate parameters and print the derived dual quantities."""
    p = Options(args).params()
    stated, _ = params.d_variants(p.a, p.b, p.c)
    _print_pairs([
        ("a", p.a), ("b", p.b), ("c", p.c), ("offset", p.offset),
        ("regime", p.regime.value), ("d", p.d), ("dual_exp", p.dual_exp),
        ("x_peak", p.saddle.x_peak), ("curvature", p.saddle.curvature),
        ("d_stated_variant", stated),
    ])
    return 0


def cmd_predict(args) -> int:
    """Closed-form prediction of log f at a given psi."""
    value = transform.predict_log_f(Options(args).params(), args.psi, args.order)
    print(f"predict_log_f({args.order}) = {report.fmt(value)}")
    return 0


def cmd_verify(args) -> int:
    """Sweep the transform and check the equivalence forward and backward."""
    rep = Options(args).verify()
    text = report.render_report(rep, title="verify")
    _write(args.out, text)
    _write(args.csv, report.render_samples_csv(rep))
    print(text, end="")
    return 0 if rep.passed else _EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    """Emit the sweep sample table without pass/fail judgment."""
    csv_text = report.render_samples_csv(Options(args).verify())
    _write(args.csv, csv_text)
    print(csv_text, end="")
    return 0


def cmd_invert(args) -> int:
    """Recover (a, b) from the fitted transform sweep and report the gaps."""
    rep = Options(args).verify()
    text = report.render_report(rep, title="invert")
    _write(args.out, text)
    print(text, end="")
    return 0 if rep.inverse_passed else _EXIT_VERIFY_FAILED


def cmd_classical(args) -> int:
    """Reduce a classical spec and certify its coefficient identity."""
    spec = Options(args).classical(args.variant)
    red = classical.to_unified(spec)
    d, coeff, gap = classical.coefficient_identity_check(spec)
    p = red.params
    _print_pairs([
        ("variant", args.variant.lower()), ("a", p.a), ("b", p.b), ("c", p.c),
        ("offset", p.offset), ("regime", p.regime.value), ("unified_d", d),
        ("classical_coefficient", coeff), ("rel_gap", gap),
        ("lambda_exponent", red.lambda_exponent), ("lambda_map", red.lambda_map),
    ])
    return 0


def cmd_ck_index(args) -> int:
    """Log-quotient index estimates from tabulated (x, U) samples."""
    samples = measures._load_pairs(args.input)  # any order; ck_index sorts
    if args.tau is None:
        diag, result = None, asymptotics.ck_index(samples)
    else:
        epsilons = {} if args.epsilon is None else {"epsilons": tuple(args.epsilon)}
        diag = asymptotics.class_m_check(samples, args.tau, **epsilons)
        result = diag.estimate
    print("x tau_hat")
    for x, t in result.points:
        print(f"{report.fmt(x)} {report.fmt(t)}")
    print(f"tau_at_top = {report.fmt(result.tau_at_top)}")
    print(f"spread_last_quarter = {report.fmt(result.spread_last_quarter)}")
    if diag is None:
        return 0
    for chk in diag.epsilon_checks:
        print(
            f"epsilon {report.fmt(chk.epsilon)}: upper {chk.upper_verdict.value}, "
            f"lower {chk.lower_verdict.value}"
        )
    print(f"consistent_with_tau = {diag.consistent}")
    return 0 if diag.consistent else _EXIT_VERIFY_FAILED


def cmd_measure(args) -> int:
    """Exponential transform of a tabulated measure at given lambdas."""
    m = measures.load_measure(args.file)
    fn = (
        measures.measure_transform_kohlbecker
        if args.variant == "kohlbecker"
        else measures.measure_transform_kasahara
    )
    values = [(x, fn(m, x)) for x in args.lam]
    print("lambda log_M")
    for x, v in values:
        print(f"{report.fmt(x)} {report.fmt(v)}")
    return 0


def _parser() -> _Parser:
    classical_opts = _Parser(add_help=False)
    classical_opts.add_argument("--alpha", type=float, help="classical alpha")
    classical_opts.add_argument("--B", type=float, help="classical B")
    classical_opts.add_argument("--beta", type=float, help="classical beta")
    classical_opts.add_argument("--rate", type=float, help="de Bruijn rate constant")
    classical_opts.add_argument("--config", help="key = value config file")
    params_opts = _Parser(add_help=False)
    params_opts.add_argument("--a", type=float, help="primal coefficient a")
    params_opts.add_argument("--b", type=float, help="primal exponent b")
    params_opts.add_argument("--c", type=float, help="kernel rate c")
    params_opts.add_argument("--offset", type=float, help="transform offset")
    params_opts.add_argument(
        "--classical", help="classical variant: kohlbecker | debruijn | kasahara")
    grid_opts = _Parser(add_help=False)
    grid_opts.add_argument("--psi-min", type=float)
    grid_opts.add_argument("--psi-max", type=float)
    grid_opts.add_argument("--n", type=int)
    grid_opts.add_argument("--quad-tol", type=float, default=1e-8,
                           help="quadrature tolerance (default: %(default)s)")

    parser = _Parser(prog="tauberlab", description=(
        "Numerical laboratory for exponential-type Tauberian equivalences."))
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, fn, *parents):
        sub = commands.add_parser(name, parents=parents, help=fn.__doc__,
                                  description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    command("validate", cmd_validate, params_opts, classical_opts)
    predict = command("predict", cmd_predict, params_opts, classical_opts)
    predict.add_argument("--psi", type=float, required=True, help="regime variable psi")
    predict.add_argument("--order", choices=["leading", "corrected"], default="corrected",
                         help="(default: %(default)s)")
    verify = command("verify", cmd_verify, params_opts, classical_opts, grid_opts)
    verify.add_argument("--out", help="write report to this path")
    verify.add_argument("--csv", help="write sample CSV")
    sweep = command("sweep", cmd_sweep, params_opts, classical_opts, grid_opts)
    sweep.add_argument("--csv", help="write sample CSV")
    invert = command("invert", cmd_invert, params_opts, classical_opts, grid_opts)
    invert.add_argument("--out", help="write report to this path")
    command("classical", cmd_classical, classical_opts).add_argument(
        "--variant", required=True)
    ck_index = command("ck-index", cmd_ck_index)
    ck_index.add_argument("--input", required=True, help="two-column file: x<TAB>U(x)")
    ck_index.add_argument("--tau", type=float,
                          help="run the pinching diagnostic at this index")
    ck_index.add_argument("--epsilon", type=float, action="append",
                          help="epsilons for the diagnostic (repeatable)")
    measure = command("measure", cmd_measure)
    measure.add_argument("--file", required=True,
                         help="two-column atom file: location<TAB>mass")
    measure.add_argument("--variant", choices=["kohlbecker", "kasahara"], required=True)
    measure.add_argument("--lam", type=float, action="append", required=True,
                         help="transform argument lambda (repeatable)")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2), already printed
        return exc.code
    try:
        return args.run(args)
    except TauberError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INPUT_ERROR


def main() -> None:
    """Console entry point: return on exit code 0, else raise SystemExit(code)."""
    code = run()
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
