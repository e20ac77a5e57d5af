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
2 input or configuration error, an --out or --csv file that cannot be
written, or an --out and a --csv that name the same file.  The files are
written before anything is printed.  A refused write removes the files the
command created and empties the ones it overwrote, so none holds this run's
output.

Options may also come from a config file of ``key = value`` lines via
``--config``; explicit flags override file values.  The config keys are the
shared flags' names (``a b c offset classical alpha B beta rate psi-min
psi-max n``); any other key is refused, so ``--quad-tol`` is a flag only.

A classical variant takes exactly the fields of its spec in ``classical``
(``--alpha --B``; debruijn ``--beta --B`` and an optional ``--rate``).  A
classical option that the run does not use is refused, from a flag or the
config alike, and a raw ``--a/--b/--c`` run uses none.

The options are parsed with the standard library's argparse.  Options take
no abbreviations, and an option's value may begin with "-" (``--a -1e8``,
``--c -inf``).

``main()`` is the process entry (``python -m tauberlab`` and the console
script).  ``run(argv)`` runs one command line in this process and returns its
exit code; it is for in-process use and has no process-wide effect.

The ``classical`` adapters and the ``index`` estimators are imported by the
commands that use them (``--classical``, ``classical`` and ``ck-index``), so
the other commands never compile them.
"""

import argparse
import contextlib
import gc
import os
import re
import stat
import sys
from pathlib import Path

from . import asymptotics, measures, params, report, targets
from .errors import ConfigParseError, TauberError, ValidationError

__all__ = ["main", "run"]

_EXIT_VERIFY_FAILED = 1
_EXIT_INPUT_ERROR = 2

# The shared options, by the parent parser that holds them, as (key, type,
# help).  The flag of each key is ``--<key>``, and each key is also a config
# key, whose value is cast by the type.
_SHARED_OPTIONS = {
    "classical": (("alpha", float, "classical alpha"), ("B", float, "classical B"),
                  ("beta", float, "classical beta"), ("rate", float, "de Bruijn rate constant")),
    "params": (("a", float, "primal coefficient a"), ("b", float, "primal exponent b"),
               ("c", float, "kernel rate c"), ("offset", float, "transform offset"),
               ("classical", str, "classical variant: kohlbecker | debruijn | kasahara")),
    "grid": (("psi-min", float, None), ("psi-max", float, None), ("n", int, None)),
}
_CONFIG_CASTS = {key: cast for group in _SHARED_OPTIONS.values() for key, cast, _ in group}
_CLASSICAL_KEYS = [key for key, _, _ in _SHARED_OPTIONS["classical"]]
# Each variant's spec class, by name, so that ``classical`` loads on first use.
_VARIANTS = {"kohlbecker": "Kohlbecker", "debruijn": "DeBruijn", "kasahara": "Kasahara"}


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _refuse_unused(values: dict, allowed: tuple[str, ...], run: str) -> None:
    """Refuse the first classical option given that ``run`` does not take."""
    for key, value in values.items():
        if value is not None and key not in allowed:
            raise ConfigParseError(f"--{key} does not apply to {run}")


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
            return self.reduction(variant).params
        if a is None or b is None or c is None:
            raise ConfigParseError("need --a, --b and --c (or --classical ...)")
        _refuse_unused({key: self._get(key) for key in _CLASSICAL_KEYS}, (), "raw --a/--b/--c")
        return params.validate(a, b, c, 0.0 if offset is None else offset)

    def reduction(self, variant: str) -> "classical.UnifiedReduction":
        """The reduction of a variant's spec, built from exactly its fields' options."""
        values = {key: self._get(key) for key in _CLASSICAL_KEYS}
        variant = variant.lower()
        if variant not in _VARIANTS:
            raise ConfigParseError(f"unknown classical variant {variant!r}; "
                                   "choose kohlbecker, debruijn or kasahara")
        from . import classical

        spec_cls = getattr(classical, _VARIANTS[variant])
        required = [key for key in spec_cls._fields if key not in spec_cls._field_defaults]
        if any(values[key] is None for key in required):
            needs = " and ".join(f"--{key}" for key in required)
            raise ConfigParseError(f"{variant} needs {needs}")
        _refuse_unused(values, spec_cls._fields, variant)
        return classical.to_unified(spec_cls(**{k: v for k, v in values.items() if v is not None}))

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


def _write(*files: tuple[str | None, str]) -> None:
    """Write each (path, text) whose path is given.  A failed write is a
    ValidationError, and first it takes this call's text back out of the
    files already written: a file this call created is removed, a file that
    existed is left empty.

    Two paths that name the same regular file (a link to it included), or
    that resolve to the same path that does not exist yet, are refused before
    anything is written: the second text would replace the first.  A device
    such as /dev/null may take every output.
    """
    files = [(path, text) for path, text in files if path is not None]
    seen = set()
    for path, _ in files:
        try:
            st = os.stat(path)
        except OSError:  # not there yet: the path the write would create
            key = os.path.realpath(path)
        else:
            if not stat.S_ISREG(st.st_mode):
                continue
            key = (st.st_dev, st.st_ino)
        if key in seen:
            raise ValidationError(
                f"cannot write {path}: another output of this command names the same file")
        seen.add(key)
    written: list[tuple[Path, bool]] = []
    for path, text in files:
        target = Path(path)
        created = not os.path.lexists(target)
        try:
            target.write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            for done, was_created in written:
                with contextlib.suppress(OSError):
                    if was_created:
                        done.unlink()
                    else:
                        done.write_bytes(b"")
            raise ValidationError(f"cannot write {path}: {exc}") from exc
        written.append((target, created))


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
    value = params.predict_log_f(Options(args).params(), args.psi, args.order)
    print(f"predict_log_f({args.order}) = {report.fmt(value)}")
    return 0


def cmd_verify(args) -> int:
    """Sweep the transform and check the equivalence forward and backward."""
    rep = Options(args).verify()
    text = report.render_report(rep, title="verify")
    _write((args.out, text), (args.csv, report.render_samples_csv(rep)))
    print(text, end="")
    return 0 if rep.passed else _EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    """Emit the sweep sample table without pass/fail judgment."""
    csv_text = report.render_samples_csv(Options(args).verify())
    _write((args.csv, csv_text))
    print(csv_text, end="")
    return 0


def cmd_invert(args) -> int:
    """Recover (a, b) from the fitted transform sweep and report the gaps."""
    rep = Options(args).verify()
    text = report.render_report(rep, title="invert")
    _write((args.out, text))
    print(text, end="")
    return 0 if rep.inverse_passed else _EXIT_VERIFY_FAILED


def cmd_classical(args) -> int:
    """Reduce a classical spec and certify its coefficient identity."""
    red = Options(args).reduction(args.variant)
    p = red.params
    _print_pairs([
        ("variant", args.variant.lower()), ("a", p.a), ("b", p.b), ("c", p.c),
        ("offset", p.offset), ("regime", p.regime.value), ("unified_d", p.d),
        ("classical_coefficient", red.classical_coefficient), ("rel_gap", red.rel_gap),
        ("lambda_exponent", red.lambda_exponent), ("lambda_map", red.lambda_map),
    ])
    return 0


def cmd_ck_index(args) -> int:
    """Log-quotient index estimates from tabulated (x, U) samples."""
    if args.tau is None and args.epsilon is not None:
        raise ConfigParseError("--epsilon applies to the --tau diagnostic; give --tau too")
    from . import index

    samples = measures._load_pairs(args.input)  # any order; ck_index sorts
    if args.tau is None:
        diag, result = None, index.ck_index(samples)
    else:
        epsilons = {} if args.epsilon is None else {"epsilons": tuple(args.epsilon)}
        diag = index.class_m_check(samples, args.tau, **epsilons)
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
    fn = getattr(measures, f"measure_transform_{args.variant}")
    values = [(x, fn(m, x)) for x in args.lam]
    print("lambda log_M")
    for x, v in values:
        print(f"{report.fmt(x)} {report.fmt(v)}")
    return 0


def _parser() -> _Parser:
    parents = {group: _Parser(add_help=False) for group in _SHARED_OPTIONS}
    for group, options in _SHARED_OPTIONS.items():
        for key, cast, help_text in options:
            parents[group].add_argument(f"--{key}", type=cast, help=help_text)
    classical_opts, params_opts, grid_opts = parents.values()
    classical_opts.add_argument("--config", help="key = value config file")
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
    """Process entry point: run ``sys.argv[1:]``, return on exit code 0, else
    raise SystemExit(code).

    The process ends after this one command, so the objects the imports
    built are frozen first: no collection, the shutdown one included, walks
    them again.  The command's own objects are collected as usual.
    """
    gc.freeze()
    code = run()
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
