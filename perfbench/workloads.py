"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one caller, one process and no threads.
``run(i)`` is the timed operation; ``check(i, output)`` runs afterwards,
untimed, and turns the output into delivered samples, failures and the
digest used for the repeat checks.  Program functions are always resolved
through the ``tauberlab`` package or module at call time, so the tracer's
replacements are seen.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tauberlab as tl
from tauberlab import report as tl_report

import oracles

PACKAGE_DIR = Path(tl.__file__).resolve().parent


@dataclass
class Failure:
    """One failed check of one operation."""

    layer: str
    cls: str
    where: str
    detail: str
    input: str = ""
    flagged: bool = True  # False: a wrong answer the program did not flag
    refusal: bool = False  # a TauberError: the program refused the input

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Outcome:
    samples: int = 0
    failures: list[Failure] = field(default_factory=list)
    excess: list[float] = field(default_factory=list)
    digest: str = ""


def failure_from(exc: BaseException, input: str = "") -> Failure:
    """Attribute an exception to the deepest tauberlab frame it passed through."""
    where = "bench"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == PACKAGE_DIR:
            where = f"{path.stem}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return Failure(
        layer=where.split(".")[0],
        cls=type(exc).__name__,
        where=where,
        detail=str(exc)[:160],
        input=input,
        refusal=isinstance(exc, tl.TauberError),
    )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _exact_check(out: Outcome, log_f, exact, tol_met, input, where) -> None:
    """Compare one log f against its exact reference and record the result."""
    excess = oracles.excess_error(log_f, exact)
    out.excess.append(excess)
    if excess > oracles.EXCESS_LIMIT_NATS:
        out.failures.append(Failure(
            layer="transform", cls="ExcessError", where=where,
            detail=f"log_f={log_f!r} exact={exact!r} excess={excess:.3g} nats",
            input=input, flagged=not tol_met,
        ))


def _finite_check(out: Outcome, log_f, input, where) -> bool:
    if math.isfinite(log_f):
        out.samples += 1
        return True
    out.failures.append(Failure(
        layer="transform", cls="NonFinite", where=where,
        detail=f"log_f={log_f!r}", input=input,
    ))
    return False


def _pure_target(b: float) -> bool:
    return b in oracles.EXACT_EXPONENTS


class Workload:
    """Base: one pass of ``pass_len`` operations; inputs fixed by the seed."""

    name = ""
    pass_len = 1
    latency_limit_s: float | None = None
    # Canonical inputs with no known defect: any failure makes the run wrong.
    must_succeed = False

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        # Span files written by traced child processes, one per operation.
        self.span_files: list[Path] = []

    def prepare_pass(self, p: int) -> list:
        """Untimed: make the inputs of pass p; return the oracle keys it needs."""
        return []

    def start_pass(self, p: int) -> None:
        """Timed per-pass work, counted in workload wall time but in no op."""

    def op_key(self, i: int):
        raise NotImplementedError

    def describe(self, i: int) -> str:
        return repr(self.op_key(i))

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output, cache: oracles.OracleCache) -> Outcome:
        raise NotImplementedError


# (name, (a, b, c, offset), perturbation or None): the README canonicals and
# two perturbed sessions.
SESSIONS = [
    ("kohlbecker", (2.0, 0.5, -1.0, 0.0), None),
    ("kasahara", (-1.0, 2.0, 1.0, 1.0), None),
    ("de-bruijn", (-1.0, -1.0, -1.0, 0.0), None),
    ("kohlbecker-inverse-log", (2.0, 0.5, -1.0, 0.0), ("inverse-log", 0.2)),
    ("de-bruijn-log-sine", (-1.0, -1.0, -1.0, 0.0), ("log-sine", 0.3)),
]
GRID = (10.0, 1000.0, 16)
PSI_MID = 100.0


def verify_session(session) -> tuple:
    """validate -> saddle_analysis -> verify_equivalence -> render report + CSV."""
    _, (a, b, c, offset), pert = session
    p = tl.validate(a, b, c, offset)
    tl.saddle_analysis(p)
    target = tl.PurePower(a, b) if pert is None else tl.PerturbedPower(a, b, *pert)
    rep = tl.verify_equivalence(p, target, tl.make_grid(*GRID))
    return rep, tl_report.render_report(rep), tl_report.render_samples_csv(rep)


class PowerVerify(Workload):
    """A researcher's library session on the canonicals and two perturbations.

    Dominated by the scalar probes of locate_peak; the power-engine work
    (ROADMAP item 3) shows here.
    """

    name = "power-verify"
    must_succeed = True
    pass_len = len(SESSIONS)

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.order = [int(k) for k in self.rng.permutation(len(SESSIONS))]

    def prepare_pass(self, p):
        if p:
            return []
        keys = []
        psis = list(tl.make_grid(*GRID).psi_values) + [PSI_MID]
        for _, (a, b, c, offset), pert in SESSIONS:
            if pert is None:
                keys += [(a, b, c, offset, oracles.s_for_psi(b, psi)) for psi in psis]
        return keys

    def op_key(self, i):
        return SESSIONS[self.order[i % len(SESSIONS)]][0]

    def run(self, i):
        return verify_session(SESSIONS[self.order[i % len(SESSIONS)]])

    def check(self, i, output, cache):
        rep, text, csv = output
        name, (a, b, c, offset), pert = SESSIONS[self.order[i % len(SESSIONS)]]
        out = Outcome(digest=_digest(text, csv))
        samples = list(rep.samples) + ([rep.mid_sample] if rep.mid_sample else [])
        for smp in samples:
            where = f"{name} psi={smp.psi:g}"
            if _finite_check(out, smp.log_f, name, where) and pert is None:
                exact = cache.get(a, b, c, offset, smp.s)
                _exact_check(out, smp.log_f, exact, smp.tol_met, name, where)
        return out


# Draw box: |a|, |c| in [1e-8, 1e8] as the guardrails allow; |b| in
# [1e-3, 64] since a log-uniform draw needs a floor and the guardrails give
# none; psi in [1, 1e16].  Each regime gets one draw per (psi decade,
# variant) cell, and log|a|, log|c| and log|b| are Latin-hypercube samples
# over the regime's draws, so every seed has nearly the same mix of cheap,
# expensive and failing draws.  One pass runs the pool; later passes repeat it.
COEFF_RANGE = (1e-8, 1e8)
B_FLOOR, B_CEIL = 1e-3, 64.0
PSI_DECADES = 16
# One in three draws takes its regime's exact exponent (1/2, 2 or -1) with
# free a and c, so it has an exact reference.
VARIANTS = ("exact", "free", "free")
# (b range, sign of a, sign of c, exact b) per regime.
REGIMES = {
    "kohlbecker": ((B_FLOOR, 1.0), 1.0, -1.0, 0.5),
    "kasahara": ((1.0, B_CEIL), -1.0, 1.0, 2.0),
    "de-bruijn": ((-B_CEIL, -B_FLOOR), -1.0, -1.0, -1.0),
}


def guardrail_pool(seed: int) -> list[tuple]:
    """The draws (regime, a, b, c, psi) of a seed, in seeded order."""
    rng = np.random.default_rng(seed)

    def strata(n):
        """n points in [0, 1), one in each of n equal strata, in random order."""
        return iter((rng.permutation(n) + rng.uniform(size=n)) / n)

    def log_between(lo, hi, u):
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))

    n = PSI_DECADES * len(VARIANTS)
    n_free = PSI_DECADES * VARIANTS.count("free")
    draws = []
    for regime, ((b_lo, b_hi), sa, sc, b_exact) in REGIMES.items():
        b_mag = sorted((abs(b_lo), abs(b_hi)))
        u_a, u_c, u_b = strata(n), strata(n), strata(n_free)
        for k in range(n):
            decade, variant = divmod(k, len(VARIANTS))
            if VARIANTS[variant] == "exact":
                b = b_exact
            else:
                b = math.copysign(log_between(*b_mag, next(u_b)), b_lo)
            a = sa * log_between(*COEFF_RANGE, next(u_a))
            c = sc * log_between(*COEFF_RANGE, next(u_c))
            psi = 10.0 ** (decade + rng.uniform())
            draws.append((regime, a, b, c, psi))
    return [draws[k] for k in rng.permutation(len(draws))]


class GuardrailBox(Workload):
    """Seeded draws over the whole guardrail box and psi in [1, 1e16].

    Exercises scale: window growth and the refinement cap at large psi,
    validation refusals and crash paths.  Scale-aware quadrature (ROADMAP
    item 2) shows here.  A draw over its latency limit counts as failed; a
    few small-b draws otherwise run for seconds and would swamp the run.
    """

    name = "guardrail-box"
    latency_limit_s = 0.25

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.draws = guardrail_pool(seed)
        self.pass_len = len(self.draws)

    def prepare_pass(self, p):
        if p:
            return []
        return [(a, b, c, 0.0, oracles.s_for_psi(b, psi))
                for _, a, b, c, psi in self.draws if _pure_target(b)]

    def draw(self, i):
        return self.draws[i % len(self.draws)]

    def op_key(self, i):
        return i % len(self.draws)

    def describe(self, i):
        regime, a, b, c, psi = self.draw(i)
        return f"{regime} a={a!r} b={b!r} c={c!r} psi={psi!r}"

    def run(self, i):
        _, a, b, c, psi = self.draw(i)
        p = tl.validate(a, b, c)
        tl.saddle_analysis(p)
        return tl.sample_at_psi(p, tl.PurePower(a, b), psi)

    def check(self, i, smp, cache):
        _, a, b, c, psi = self.draw(i)
        out = Outcome(digest=_digest(smp.log_f, smp.s, smp.tol_met))
        desc = self.describe(i)
        if _finite_check(out, smp.log_f, desc, "sample_at_psi") and _pure_target(b):
            exact = cache.get(a, b, c, 0.0, smp.s)
            _exact_check(out, smp.log_f, exact, smp.tol_met, desc, "sample_at_psi")
        return out


# The acceptance-8 fixtures: cumulative exp(2 sqrt x) on [1e-4, 1e4] and tail
# exp(-x^2) on [1e-3, 40], 8192 panels each, with their lambda grids.
FIXTURES = {
    "cumulative": (lambda x: math.exp(2.0 * math.sqrt(x)), (1e-4, 1e4), (0.3, 30.0)),
    "tail": (lambda x: math.exp(-x * x), (1e-3, 40.0), (0.1, 10.0)),
}
PANELS = 8192
N_LAMBDA = 9
SETUP_LAMBDA = 4


def lambda_grid(lo: float, hi: float) -> list[float]:
    return [float(x) for x in np.exp(np.linspace(math.log(lo), math.log(hi), N_LAMBDA))]


def fixture_paths(out_dir: Path) -> dict[str, Path]:
    return {kind: out_dir / f"fixture-{kind}.tsv" for kind in FIXTURES}


def write_fixtures(out_dir: Path) -> dict[str, str]:
    """Quantize both fixtures and write them in the two-column atom format."""
    texts = {}
    for kind, (fn, (x_lo, x_hi), _) in FIXTURES.items():
        quantize = tl.quantize_cumulative if kind == "cumulative" else tl.quantize_tail
        m = quantize(fn, x_lo, x_hi, PANELS)
        texts[kind] = "".join(f"{x!r}\t{w!r}\n" for x, w in zip(m.locations, m.masses))
        fixture_paths(out_dir)[kind].write_text(texts[kind], encoding="utf-8")
    return texts


def parse_fixtures(texts: dict[str, str]) -> dict:
    return {kind: tl.parse_measure_text(text, source=kind) for kind, text in texts.items()}


def measure_op(m: dict, k: int) -> dict:
    """Both families at lambda index k: direct sums, brackets, parts, routes.

    Each step runs even when an earlier one raised, so one defect does not
    hide the others; an exception is returned in place of its value.
    """
    lam_c = lambda_grid(*FIXTURES["cumulative"][2])[k]
    lam_t = lambda_grid(*FIXTURES["tail"][2])[k]
    cum, tail = m["cumulative"], m["tail"]
    steps = {
        "cumulative.direct": lambda: tl.measure_transform_kohlbecker(cum, lam_c),
        "cumulative.bracket": lambda: tl.kohlbecker_panel_bracket(cum, lam_c),
        "tail.direct": lambda: tl.measure_transform_kasahara(tail, lam_t),
        "tail.bracket": lambda: tl.kasahara_panel_bracket(tail, lam_t),
        "tail.parts": lambda: tl.kasahara_via_parts(tail, lam_t),
        "cumulative.route": lambda: tl.log_transform(
            tl.MeasureTarget(cum, "cumulative"), -1.0, 0.0, lam_c),
        "tail.route": lambda: tl.log_transform(
            tl.MeasureTarget(tail, "tail"), 1.0, tail.mass_above_zero(), 1.0 / lam_t),
    }
    results = {}
    for key, step in steps.items():
        try:
            results[key] = step()
        except Exception as exc:  # recorded per step; check() reports it
            results[key] = exc
    return results


class MeasureTransform(Workload):
    """Tabulated measures through the direct sums and the function route.

    The function route drives the generic scan-seeded engine on step
    integrands that reach the refinement cap.  The power path of ROADMAP
    item 3 bypasses it, so the prediction for item 3 here is no change.
    """

    name = "measure-transform"
    pass_len = N_LAMBDA

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.texts = write_fixtures(out_dir)
        self.measures = None
        self.orders: dict[int, list[int]] = {}

    def prepare_pass(self, p):
        self.orders[p] = [int(k) for k in self.rng.permutation(N_LAMBDA)]
        return []

    def start_pass(self, p):
        self.measures = parse_fixtures(self.texts)

    def op_key(self, i):
        return self.orders[i // N_LAMBDA][i % N_LAMBDA]

    def describe(self, i):
        return f"lambda index {self.op_key(i)}"

    def run(self, i):
        return measure_op(self.measures, self.op_key(i))

    def check(self, i, res, cache):
        out = Outcome(digest=_digest(*(
            type(v).__name__ if isinstance(v, Exception) else v for v in res.values())))
        desc = self.describe(i)
        for key, value in res.items():
            if isinstance(value, Exception):
                out.failures.append(failure_from(value, f"{desc} {key}"))
            elif key.endswith(".bracket"):
                if not all(math.isfinite(v) for v in value):
                    out.failures.append(Failure("measures", "NonFinite", key,
                                                repr(value), desc))
            elif key.endswith(".route"):
                _finite_check(out, value.log_f, desc, key)
            else:
                _finite_check(out, value, desc, key)
        # The direct sum is the exact transform of the tabulated measure.
        for family, others in (("cumulative", ("route",)), ("tail", ("parts", "route"))):
            direct = res[f"{family}.direct"]
            if isinstance(direct, Exception) or not math.isfinite(direct):
                continue
            for other in others:
                value = res[f"{family}.{other}"]
                if isinstance(value, Exception):
                    continue
                log_f, tol_met = (value.log_f, value.tol_met) if other == "route" else (value, True)
                if math.isfinite(log_f):
                    _exact_check(out, log_f, direct, tol_met, desc, f"{family}.{other}")
        return out


# CLI rotation: (key, argv, expected exit code).  The canonical each of
# sweep and invert uses is drawn from the seed.
CANONICAL_ARGS = {
    "kohlbecker": ["--a", "2", "--b", "0.5", "--c", "-1"],
    "kasahara": ["--a", "-1", "--b", "2", "--c", "1", "--offset", "1"],
    "de-bruijn": ["--a", "-1", "--b", "-1", "--c", "-1"],
}
CANONICAL_PARAMS = {name: params for name, params, pert in SESSIONS if pert is None}
# Kasahara fails criteria 3 and 4 by design, which the CLI maps to exit 1.
VERIFY_EXIT = {"kohlbecker": 0, "kasahara": 1, "de-bruijn": 0}
MEASURE_LAMBDAS = ["0.5", "2", "8"]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliCold(Workload):
    """One cold `python -m tauberlab` process per operation.

    End to end as the ROADMAP defines it: interpreter start through to the
    report bytes.  CLI shrinking and lazy imports (item 5) show only here;
    compute-layer gains should stay under noise.
    """

    name = "cli-cold"
    must_succeed = True

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        write_fixtures(out_dir)
        self.cli_dir = out_dir / "cli"
        self.cli_dir.mkdir(exist_ok=True)
        names = list(CANONICAL_ARGS)
        sweep = names[int(self.rng.integers(3))]
        invert = names[int(self.rng.integers(3))]
        fixture = fixture_paths(out_dir)["cumulative"].relative_to(root)
        ops = []
        for name in names:
            files = [self.cli_dir / f"verify-{name}.txt", self.cli_dir / f"verify-{name}.csv"]
            ops.append((f"verify-{name}", ["verify", *CANONICAL_ARGS[name],
                                           "--out", str(files[0]), "--csv", str(files[1])],
                        VERIFY_EXIT[name], files, name))
        sweep_csv = self.cli_dir / f"sweep-{sweep}.csv"
        ops.append((f"sweep-{sweep}", ["sweep", *CANONICAL_ARGS[sweep], "--csv", str(sweep_csv)],
                    0, [sweep_csv], sweep))
        ops.append((f"invert-{invert}", ["invert", *CANONICAL_ARGS[invert]],
                    VERIFY_EXIT[invert], [], None))
        lams = [x for lam in MEASURE_LAMBDAS for x in ("--lam", lam)]
        ops.append(("measure", ["measure", "--file", str(fixture), "--variant",
                                "kohlbecker", *lams], 0, [], None))
        # Inadmissible signs: a*b*c >= 0 must be refused with exit 2.
        ops.append(("input-error", ["validate", "--a", "1", "--b", "2", "--c", "-1"],
                    2, [], None))
        self.ops = [ops[k] for k in self.rng.permutation(len(ops))]
        self.pass_len = len(self.ops)
        self.env = cli_env(root)
        self.traced_spans_dir: Path | None = None

    def prepare_pass(self, p):
        if p:
            return []
        keys = []
        for _, _, _, _, canon in self.ops:
            if canon is not None:
                a, b, c, offset = CANONICAL_PARAMS[canon]
                keys += [(a, b, c, offset, oracles.s_for_psi(b, psi))
                         for psi in tl.make_grid(*GRID).psi_values]
        return keys

    def op_key(self, i):
        return self.ops[i % len(self.ops)][0]

    def command(self, i) -> list[str]:
        argv = self.ops[i % len(self.ops)][1]
        if self.traced_spans_dir is None:
            return [sys.executable, "-m", "tauberlab", *argv]
        spans = self.traced_spans_dir / f"op-{len(self.span_files)}.jsonl"
        self.span_files.append(spans)
        child = Path(__file__).resolve().parent / "child.py"
        return [sys.executable, str(child), "cli", str(spans), *argv]

    def run(self, i):
        files = self.ops[i % len(self.ops)][3]
        for path in files:
            path.unlink(missing_ok=True)
        proc = subprocess.run(self.command(i), cwd=self.root, env=self.env,
                              capture_output=True)
        return proc

    def check(self, i, proc, cache):
        key, argv, expected, files, canon = self.ops[i % len(self.ops)]
        contents = [path.read_bytes() if path.exists() else b"<missing>" for path in files]
        out = Outcome(digest=_digest(proc.returncode, proc.stdout, proc.stderr, *contents))
        if proc.returncode != expected or b"Traceback" in proc.stderr:
            out.failures.append(Failure(
                "cli", "ExitCode", key,
                f"exit {proc.returncode} != {expected}: {proc.stderr[-200:]!r}", key))
            return out
        try:
            out.samples = count_rows(key, proc.stdout.decode())
        except ValueError:
            out.failures.append(Failure("cli", "MalformedOutput", key,
                                        repr(proc.stderr[-300:]), key))
            return out
        for path, body in zip(files, contents):
            if path.suffix == ".csv":
                self._check_csv(out, key, canon, body.decode(errors="replace"), cache)
        return out

    @staticmethod
    def _check_csv(out, key, canon, body, cache):
        a, b, c, offset = CANONICAL_PARAMS[canon]
        for row in body.splitlines()[1:]:
            psi, s, log_f = (float(v) for v in row.split(",")[:3])
            where = f"{key} psi={psi:g}"
            if not math.isfinite(log_f):
                out.failures.append(Failure("transform", "NonFinite", where, row, key))
                continue
            _exact_check(out, log_f, cache.get(a, b, c, offset, s), True, key, where)


def count_rows(key: str, stdout: str) -> int:
    """log f values a CLI operation delivered.

    verify/invert: the report's [samples] rows plus its [mid] row; sweep: the
    CSV rows; measure: one row per lambda.
    """
    lines = stdout.splitlines()
    if key.startswith(("verify", "invert")):
        start = lines.index("[samples]") + 2
        end = lines.index("", start)
        return (end - start) + ("[mid]" in lines)
    if key.startswith("sweep"):
        return len(lines) - 1
    if key == "measure":
        return len(lines) - 1
    return 0


WORKLOADS = {
    cls.name: cls for cls in (PowerVerify, GuardrailBox, MeasureTransform, CliCold)
}


def setup_op(name: str, out_dir: Path) -> None:
    """A fixed first operation, so set-up time does not depend on the seed."""
    if name == "power-verify":
        verify_session(SESSIONS[0])
    elif name == "guardrail-box":
        p = tl.validate(2.0, 0.5, -1.0)
        tl.saddle_analysis(p)
        tl.sample_at_psi(p, tl.PurePower(2.0, 0.5), 100.0)
    elif name == "measure-transform":
        texts = {kind: path.read_text(encoding="utf-8")
                 for kind, path in fixture_paths(out_dir).items()}
        measure_op(parse_fixtures(texts), SETUP_LAMBDA)
    else:
        raise ValueError(f"no in-process set-up for {name}")
