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
2 input or configuration error.

Options may also come from a config file of ``key = value`` lines via
``--config``; explicit flags override file values.  The config keys are
``a b c offset classical alpha B beta rate psi-min psi-max n``;
``--quad-tol``, ``--out`` and ``--csv`` are flags only.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import asymptotics, classical, measures, params, report, targets, transform
from .errors import ConfigParseError, TauberError

__all__ = ["main", "cli"]

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
        values[key.strip()] = value.strip()
    return values


class Options:
    """The shared options of one command, read flag first, then config, then default."""

    def __init__(self, flags: dict, cfg: dict[str, str]):
        self.flags = flags
        self.cfg = cfg

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
        profile = asymptotics.ToleranceProfile(quad_tol=self.flags["quad_tol"])
        return asymptotics.verify_equivalence(p, targets.PurePower(p.a, p.b), grid, profile)


_CLASSICAL = [
    click.option("--alpha", type=float, default=None, help="classical alpha"),
    click.option("--B", "B", type=float, default=None, help="classical B"),
    click.option("--beta", type=float, default=None, help="classical beta"),
    click.option("--rate", type=float, default=None, help="de Bruijn rate constant"),
    click.option("--config", type=str, default=None, help="key = value config file"),
]
_PARAMS = [
    click.option("--a", type=float, default=None, help="primal coefficient a"),
    click.option("--b", type=float, default=None, help="primal exponent b"),
    click.option("--c", type=float, default=None, help="kernel rate c"),
    click.option("--offset", type=float, default=None, help="transform offset"),
    click.option(
        "--classical",
        type=str,
        default=None,
        help="classical variant: kohlbecker | debruijn | kasahara",
    ),
    *_CLASSICAL,
]
_GRID = [
    *_PARAMS,
    click.option("--psi-min", type=float, default=None),
    click.option("--psi-max", type=float, default=None),
    click.option("--n", type=int, default=None),
    click.option("--quad-tol", type=float, default=1e-8, show_default=True),
]
_SHARED = {key.replace("-", "_") for key in _CONFIG_CASTS} | {"quad_tol"}


def _resolved(options):
    """Add shared ``options`` ahead of the command's own; pass it one Options."""

    def decorate(fn):
        @functools.wraps(fn)
        def command(config, **kwargs):
            flags = {k: kwargs.pop(k) for k in _SHARED & kwargs.keys()}
            return fn(Options(flags, _load_config(config)), **kwargs)

        for opt in reversed(options):
            command = opt(command)
        return command

    return decorate


def _write(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _echo_pairs(pairs) -> None:
    for key, value in pairs:
        click.echo(report.kv(key, value))


class _Group(click.Group):
    """Reports any TauberError of a command as an input error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TauberError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            raise click.exceptions.Exit(_EXIT_INPUT_ERROR) from None


@click.group(cls=_Group)
def cli():
    """Numerical laboratory for exponential-type Tauberian equivalences."""


@cli.command("validate")
@_resolved(_PARAMS)
def cmd_validate(opts):
    """Validate parameters and print the derived dual quantities."""
    p = opts.params()
    saddle = params.saddle_analysis(p)
    stated, _ = params.d_variants(p.a, p.b, p.c)
    _echo_pairs([
        ("a", p.a), ("b", p.b), ("c", p.c), ("offset", p.offset),
        ("regime", p.regime.value), ("d", p.d), ("dual_exp", p.dual_exp),
        ("x_peak", saddle.x_peak), ("curvature", saddle.curvature),
        ("d_stated_variant", stated),
    ])


@cli.command("predict")
@_resolved(_PARAMS)
@click.option("--psi", type=float, required=True, help="regime variable psi")
@click.option(
    "--order",
    type=click.Choice(["leading", "corrected"]),
    default="corrected",
    show_default=True,
)
def cmd_predict(opts, psi, order):
    """Closed-form prediction of log f at a given psi."""
    value = transform.predict_log_f(opts.params(), psi, order)
    click.echo(f"predict_log_f({order}) = {report.fmt(value)}")


@cli.command("verify")
@_resolved(_GRID)
@click.option("--out", type=str, default=None, help="write report to this path")
@click.option("--csv", "csv_path", type=str, default=None, help="write sample CSV")
def cmd_verify(opts, out, csv_path):
    """Sweep the transform and check the equivalence forward and backward."""
    rep = opts.verify()
    text = report.render_report(rep, title="verify")
    click.echo(text, nl=False)
    _write(out, text)
    _write(csv_path, report.render_samples_csv(rep))
    if not rep.passed:
        raise click.exceptions.Exit(_EXIT_VERIFY_FAILED)


@cli.command("sweep")
@_resolved(_GRID)
@click.option("--csv", "csv_path", type=str, default=None, help="write sample CSV")
def cmd_sweep(opts, csv_path):
    """Emit the sweep sample table without pass/fail judgment."""
    csv_text = report.render_samples_csv(opts.verify())
    click.echo(csv_text, nl=False)
    _write(csv_path, csv_text)


@cli.command("invert")
@_resolved(_GRID)
@click.option("--out", type=str, default=None, help="write report to this path")
def cmd_invert(opts, out):
    """Recover (a, b) from the fitted transform sweep and report the gaps."""
    rep = opts.verify()
    text = report.render_report(rep, title="invert")
    click.echo(text, nl=False)
    _write(out, text)
    if not rep.inverse_passed:
        raise click.exceptions.Exit(_EXIT_VERIFY_FAILED)


@cli.command("classical")
@click.option("--variant", type=str, required=True)
@_resolved(_CLASSICAL)
def cmd_classical(opts, variant):
    """Reduce a classical spec and certify its coefficient identity."""
    spec = opts.classical(variant)
    red = classical.to_unified(spec)
    d, coeff, gap = classical.coefficient_identity_check(spec)
    p = red.params
    _echo_pairs([
        ("variant", variant.lower()), ("a", p.a), ("b", p.b), ("c", p.c),
        ("offset", p.offset), ("regime", p.regime.value), ("unified_d", d),
        ("classical_coefficient", coeff), ("rel_gap", gap),
        ("lambda_exponent", red.lambda_exponent), ("lambda_map", red.lambda_map),
    ])


@cli.command("ck-index")
@click.option("--input", "input_path", type=str, required=True,
              help="two-column file: x<TAB>U(x)")
@click.option("--tau", type=float, default=None,
              help="run the pinching diagnostic at this index")
@click.option("--epsilon", "eps", type=float, multiple=True,
              help="epsilons for the diagnostic (repeatable)")
def cmd_ck_index(input_path, tau, eps):
    """Log-quotient index estimates from tabulated (x, U) samples."""
    m = measures.load_measure(input_path)  # same two-column format
    samples = list(zip(m.locations, m.masses))
    result = asymptotics.ck_index(samples)
    click.echo("x tau_hat")
    for x, t in result.points:
        click.echo(f"{report.fmt(x)} {report.fmt(t)}")
    click.echo(f"tau_at_top = {report.fmt(result.tau_at_top)}")
    click.echo(f"spread_last_quarter = {report.fmt(result.spread_last_quarter)}")
    if tau is None:
        return
    diag = asymptotics.class_m_check(samples, tau, tuple(eps) or (0.5, 1.0))
    for chk in diag.epsilon_checks:
        click.echo(
            f"epsilon {report.fmt(chk.epsilon)}: upper {chk.upper_verdict.value}, "
            f"lower {chk.lower_verdict.value}"
        )
    click.echo(f"consistent_with_tau = {diag.consistent}")
    if not diag.consistent:
        raise click.exceptions.Exit(_EXIT_VERIFY_FAILED)


@cli.command("measure")
@click.option("--file", "path", type=str, required=True,
              help="two-column atom file: location<TAB>mass")
@click.option("--variant", type=click.Choice(["kohlbecker", "kasahara"]),
              required=True)
@click.option("--lam", type=float, multiple=True, required=True,
              help="transform argument lambda (repeatable)")
def cmd_measure(path, variant, lam):
    """Exponential transform of a tabulated measure at given lambdas."""
    m = measures.load_measure(path)
    fn = (
        measures.measure_transform_kohlbecker
        if variant == "kohlbecker"
        else measures.measure_transform_kasahara
    )
    values = [(x, fn(m, x)) for x in lam]
    click.echo("lambda log_M")
    for x, v in values:
        click.echo(f"{report.fmt(x)} {report.fmt(v)}")


def main() -> None:
    try:
        # With standalone_mode off, click returns Exit codes instead of
        # calling sys.exit, letting us own the exit-code contract.
        rv = cli.main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(_EXIT_INPUT_ERROR)
    except click.exceptions.Abort:
        sys.exit(_EXIT_INPUT_ERROR)
    if isinstance(rv, int) and rv != 0:
        sys.exit(rv)


if __name__ == "__main__":
    main()
