"""tauberlab benchmark: one workload per run, end-to-end or traced per-layer.

    python3 perfbench/run.py --workload power-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/selftest.py      # fast self-test of this benchmark's code

Workloads (workloads.py says what each runs and why): power-verify,
guardrail-box, measure-transform, cli-cold.  BENCHMARK.json lists
power-verify and cli-cold.  guardrail-box and measure-transform run by name:
they carry the program's known defects, so every run has failing operations,
and their timings move between seeds by more than the bounds (guardrail-box
through its heavy-tailed draw costs, measure-transform through memory-bound
refinement on a shared host).  Each workload is a closed loop with one
caller; the seed fixes its inputs, one pass runs every input once, and the
loop ends on a whole pass once --seconds have passed and every input has run
at least twice.  The program is imported from ``src/`` of the checkout this
file lives in; without that tree the run exits with code 2 and prints no
result.

Operation times: an operation's time is the least wall time the run saw for
the same input.  The host's vCPUs switch between a fast and a slow speed for
seconds at a time, which moved a plain median by up to a third between runs;
the least time per input keeps the cost of the input and the program.  The
plain statistics are printed and recorded as *_observed.

End-to-end metrics (--trace 0, tracing off):
  op_ms_p50            median operation time
  op_ms_tail           highest percentile with >= 10 operations beyond it,
                       at most p90; the percentile and op count are printed
  samples_per_s        log f values delivered per second of operation time
                       plus per-pass parsing (checks excluded)
  fail_frac            failed / attempted operations (printed and recorded;
                       the JSON line carries it as attempted and failed)
  max_excess_err_nats  max over samples with an exact reference of
                       |log_f - exact| - max(1e-8, 16 ulp(exact)), floored at
                       0 (printed and recorded; per-layer in the JSON)
  setup_s              median wall time of a fresh interpreter importing
                       tauberlab and completing a fixed first operation
  peak_rss_mb          peak RSS of those fresh processes (on cli-cold, of
                       every CLI process); the benchmark's own peak is
                       recorded as peak_rss_own_mb

An operation fails on an exception (a TauberError refusal of a drawn input
included), a non-finite log f, a wrong exit code, outputs that differ when
an input repeats, an excess error above oracles.EXCESS_LIMIT_NATS, or its
workload's latency limit.  A verification verdict of "fail" is an output,
not a failure.  ``correct`` is false when a wrong output went unflagged by
the program (an excess error on a sample reporting tol_met, differing
repeats, differing evaluation counts), or when any operation fails on the
canonical workloads power-verify and cli-cold.

--trace 1 spends the first half of the time untraced and then up to
TRACED_SECONDS with spans around every public layer function (tracer.py),
and reports the per-layer metrics, the import split and the tracing overhead
(traced minus untraced op_ms_p50).

stdout is a human-readable summary, then as its last line one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(environment, every failure with its input, layer and exception class, the
per-layer table including layers a workload does not reach) goes to
perfbench/out/<workload>-trace<0|1>.json, and a traced run's spans to
perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Every input runs at least twice in a phase: timings take the least time
# per input, and outputs and evaluation counts must repeat exactly.
MIN_PASSES = 2
# A traced phase keeps every span in memory (about 1100 per power-verify
# operation), so it is capped at this length.
TRACED_SECONDS = 5.0


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "tauberlab" / "__init__.py").is_file():
        die(f"no tauberlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tauberlab

    if Path(tauberlab.__file__).resolve().parent != (SRC / "tauberlab").resolve():
        die(f"imported tauberlab from {tauberlab.__file__}, not from {SRC}")
    return tauberlab


class LatencyLimit(Exception):
    """An operation ran past its workload's latency limit."""


@dataclass
class Phase:
    traced: bool
    op_ns: list[int] = field(default_factory=list)
    pass_ns: list[int] = field(default_factory=list)
    op_samples: list[int] = field(default_factory=list)
    samples: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    excess: list[float] = field(default_factory=list)
    op_keys: list = field(default_factory=list)
    timed_out: list[bool] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ns)


class Runner:
    def __init__(self, wl, cache):
        self.wl = wl
        self.cache = cache
        self.digests: dict = {}
        self._armed = False
        if wl.latency_limit_s is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise LatencyLimit(f"over {self.wl.latency_limit_s} s")

    def _timed(self, i: int):
        limit = self.wl.latency_limit_s
        t0 = time.perf_counter_ns()
        try:
            if limit is not None:
                self._armed = True
                signal.setitimer(signal.ITIMER_REAL, limit)
            output, error = self.wl.run(i), None
        except (Exception, LatencyLimit) as exc:
            output, error = None, exc
        finally:
            self._armed = False
            if limit is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter_ns() - t0, output, error

    def phase(self, seconds: float, start: int, tracer=None) -> tuple[Phase, int]:
        """Closed loop until `seconds` have passed, ending on a pass boundary."""
        wl = self.wl
        ph = Phase(traced=tracer is not None)
        begin = time.perf_counter()
        i = start
        while True:
            if i % wl.pass_len == 0:
                if (i >= start + MIN_PASSES * wl.pass_len
                        and time.perf_counter() - begin >= seconds):
                    break
                self.cache.precompute(wl.prepare_pass(i // wl.pass_len))
                t0 = time.perf_counter_ns()
                wl.start_pass(i // wl.pass_len)
                ph.pass_ns.append(time.perf_counter_ns() - t0)
            self._op(ph, i, tracer)
            i += 1
        return ph, i

    def _op(self, ph: Phase, idx: int, tracer) -> None:
        from workloads import Failure, Outcome, failure_from

        wl = self.wl
        if tracer is not None:
            tracer.begin_op(len(ph.op_ns))
        dt, output, error = self._timed(idx)
        key = wl.op_key(idx)
        if error is None:
            out = wl.check(idx, output, self.cache)
        else:
            fail = failure_from(error, wl.describe(idx))
            out = Outcome(failures=[fail], digest=f"{fail.cls}: {fail.detail}")
        timed_out = isinstance(error, LatencyLimit)
        if not timed_out:
            seen = self.digests.setdefault(key, out.digest)
            if seen != out.digest:
                out.failures.append(Failure(
                    "program", "OutputDiffers", str(key),
                    f"digest {out.digest} != {seen}", wl.describe(idx), flagged=False))
        ph.op_ns.append(dt)
        ph.op_samples.append(out.samples)
        ph.samples += out.samples
        ph.excess += out.excess
        ph.failed += bool(out.failures)
        ph.failures += [f.as_dict() | {"op": len(ph.op_ns) - 1} for f in out.failures]
        ph.op_keys.append(key)
        ph.timed_out.append(timed_out)


def tail_percentile(n: int) -> int:
    """Highest percentile with at least 10 operations beyond it, capped at 90."""
    return max(50, min(90, math.floor(100 * (1 - 10 / n)))) if n > 10 else 50


def nearest_rank(sorted_values, p: float) -> float:
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def least_per_input(ph: Phase) -> list[int]:
    """Each operation's time as the least time the phase saw for its input.

    Every input repeats within a phase, so this removes the spells in which
    the machine itself runs slower (a shared host), and keeps the cost that
    belongs to the input and the program.
    """
    least: dict = {}
    for key, ns in zip(ph.op_keys, ph.op_ns):
        least[key] = min(ns, least.get(key, ns))
    return [least[key] for key in ph.op_keys]


def timing(op_ns: list[int], samples: int, pass_ns: int) -> tuple[float, float, float, int]:
    """(p50 ms, tail ms, samples per s, tail percentile) of operation times."""
    ms = sorted(v / 1e6 for v in op_ns)
    p_tail = tail_percentile(len(ms))
    seconds = (sum(op_ns) + pass_ns) / 1e9
    return statistics.median(ms), nearest_rank(ms, p_tail), samples / seconds, p_tail


def end_to_end(ph: Phase, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict, int]:
    n_passes = len(ph.pass_ns)
    p50, tail, rate, p_tail = timing(least_per_input(ph), ph.samples,
                                     min(ph.pass_ns) * n_passes)
    seen_p50, seen_tail, seen_rate, _ = timing(ph.op_ns, ph.samples, sum(ph.pass_ns))
    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "samples_per_s": (rate, "1/s"),
        "fail_frac": (ph.failed / ph.attempted, "frac"),
        "max_excess_err_nats": (max(ph.excess, default=0.0), "nats"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    observed = {
        "op_ms_p50_observed": (seen_p50, "ms"),
        "op_ms_tail_observed": (seen_tail, "ms"),
        "samples_per_s_observed": (seen_rate, "1/s"),
    }
    return metrics, observed, p_tail


# Reported in the JSON line; fail_frac and max_excess_err_nats can be 0, so
# they are printed and recorded but travel as attempted/failed and as the
# per-layer transform.max_excess_err_nats instead.
JSON_END_TO_END = ["op_ms_p50", "op_ms_tail", "samples_per_s", "setup_s", "peak_rss_mb"]


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def wall_of(cmd: list[str], expected: int = 0) -> float:
    from workloads import cli_env

    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(ROOT), capture_output=True)
    dt = time.perf_counter() - t0
    if proc.returncode != expected:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        die(f"{' '.join(cmd)} exited {proc.returncode}, expected {expected}")
    return dt


def measure_setup(wl) -> float:
    """Median wall time of a fresh interpreter importing tauberlab and
    completing a fixed first operation (oracles are not part of it)."""
    if wl.name == "cli-cold":
        i = next(k for k in range(len(wl.ops)) if wl.op_key(k) == "verify-kohlbecker")
        cmd, expected = python_cmd("-m", "tauberlab", *wl.ops[i][1]), wl.ops[i][2]
    else:
        cmd, expected = python_cmd(str(CHILD), "setup", wl.name, str(OUT)), 0
    return statistics.median(wall_of(cmd, expected) for _ in range(SETUP_REPEATS))


def import_costs() -> dict:
    """Interpreter floor, CLI import cost and its split from -X importtime."""
    from workloads import cli_env

    interp = statistics.median(
        wall_of(python_cmd("-c", "pass")) for _ in range(IMPORT_REPEATS))
    imported = statistics.median(
        wall_of(python_cmd("-c", "import tauberlab.cli")) for _ in range(IMPORT_REPEATS))
    proc = subprocess.run(python_cmd("-X", "importtime", "-c", "import tauberlab.cli"),
                          cwd=ROOT, env=cli_env(ROOT), capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    # tauberlab.cli is the top-level import; its cumulative time contains the
    # package, numpy and click.
    own = (cumulative.get("tauberlab.cli", 0.0)
           - cumulative.get("numpy", 0.0) - cumulative.get("click", 0.0))
    return {
        "cli.interp_ms": (interp * 1e3, "ms"),
        "cli.import_ms": ((imported - interp) * 1e3, "ms"),
        "import.numpy_ms": (cumulative.get("numpy", 0.0), "ms"),
        "import.click_ms": (cumulative.get("click", 0.0), "ms"),
        "import.tauberlab_ms": (own, "ms"),
    }


LAYERS = ["params", "transform", "targets", "asymptotics", "report", "measures", "cli"]


def per_layer(spans, ph: Phase) -> tuple[dict, dict, list]:
    """Per-layer metrics of a traced phase, the printed extras, count checks."""
    from tracer import END, INFO, NAME, OP, START, self_times

    selfs = self_times(spans)
    by_name = defaultdict(list)
    for rec, st in zip(spans, selfs):
        by_name[rec[NAME]].append((rec, st))

    def dur(name):
        return sum(r[END] - r[START] for r, _ in by_name[name])

    def self_of(name):
        return sum(st for _, st in by_name[name])

    def count(name):
        return len(by_name[name])

    def mean(total_ns, n, scale):
        return total_ns / n / scale if n else None

    lt = by_name["transform.log_transform"]
    n_samples = len(lt)
    returned = [r for r, _ in lt if r[INFO] is not None]
    la = [r for r, _ in by_name["targets.log_amplitude"]]
    points = sum(r[INFO] for r in la)
    op_ns = sum(ph.op_ns)
    n_ops = ph.attempted

    def failure_frac(layer, refusal):
        return sum(1 for f in ph.failures if f["layer"] == layer and f["cls"] != "LatencyLimit"
                   and f.get("refusal") is refusal) / n_ops

    layer_self = Counter()
    for rec, st in zip(spans, selfs):
        layer_self[rec[NAME].split(".")[0]] += st
    metrics = {
        "transform.locate_peak_ms": (mean(self_of("transform.locate_peak"), n_samples, 1e6), "ms"),
        "transform.quad_self_ms": (mean(self_of("transform.log_transform"), n_samples, 1e6), "ms"),
        "transform.evals_per_sample": (mean(len(la), n_samples, 1), "count"),
        "transform.scalar_evals_per_sample": (
            mean(sum(1 for r in la if r[INFO] <= 3), n_samples, 1), "count"),
        "transform.points_per_sample": (mean(points, n_samples, 1), "count"),
        "transform.tol_miss_frac": (
            mean(sum(1 for r in returned if r[INFO] is False), len(returned), 1), "frac"),
        "transform.max_excess_err_nats": (max(ph.excess, default=0.0), "nats"),
        "transform.refused": (failure_frac("transform", True), "frac"),
        "transform.crashed": (failure_frac("transform", False), "frac"),
        "params.refused": (failure_frac("params", True), "frac"),
        "params.crashed": (failure_frac("params", False), "frac"),
        "targets.eval_share": (dur("targets.log_amplitude") / max(dur("transform.log_transform"), 1), "frac"),
        "targets.ns_per_point": (dur("targets.log_amplitude") / max(points, 1), "ns"),
        "report.bytes": ((sum(r[INFO] or 0 for r, _ in by_name["report.render_report"])
                          + sum(r[INFO] or 0 for r, _ in by_name["report.render_samples_csv"]))
                         / n_ops, "B"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / op_ns, "frac")
    # Layers a workload does not reach have no value here; these are printed
    # and recorded but not part of the JSON line.
    n_verify = count("asymptotics.verify_equivalence")
    direct = ["measures.measure_transform_kohlbecker", "measures.measure_transform_kasahara",
              "measures.kohlbecker_panel_bracket", "measures.kasahara_panel_bracket"]
    extras = {
        "params.validate_us": (mean(dur("params.validate") + dur("params.saddle_analysis"),
                                    count("params.validate"), 1e3), "us"),
        "asymptotics.sweep_ms": (mean(dur("asymptotics.evaluate_sweep"),
                                      count("asymptotics.evaluate_sweep"), 1e6), "ms"),
        "asymptotics.verify_self_ms": (mean(self_of("asymptotics.verify_equivalence"),
                                            n_verify, 1e6), "ms"),
        "asymptotics.fit_us": (mean(dur("asymptotics.fit_exponent") + dur("params.recover_primal"),
                                    n_verify, 1e3), "us"),
        "report.render_us": (mean(dur("report.render_report") + dur("report.render_samples_csv"),
                                  count("report.render_report") or count("report.render_samples_csv"),
                                  1e3), "us"),
        "measures.parse_ms": (mean(dur("measures.parse_measure_text"),
                                   count("measures.parse_measure_text"), 1e6), "ms"),
        "measures.direct_us": (mean(sum(dur(n) for n in direct),
                                    sum(count(n) for n in direct), 1e3), "us"),
        "measures.via_parts_ms": (mean(dur("measures.kasahara_via_parts"),
                                       count("measures.kasahara_via_parts"), 1e6), "ms"),
        "cli.compute_ms": (mean(dur("cli.main"), count("cli.main"), 1e6), "ms"),
    }
    # Deterministic counts: calls and points of log_amplitude per operation
    # must repeat exactly whenever an input repeats.
    per_op = defaultdict(lambda: [0, 0])
    for r in la:
        per_op[r[OP]][0] += 1
        per_op[r[OP]][1] += r[INFO]
    seen, mismatches, compared = {}, [], 0
    for op, key in enumerate(ph.op_keys):
        if ph.timed_out[op]:
            continue
        counts = tuple(per_op[op])
        if key in seen:
            compared += 1
            if seen[key] != counts:
                mismatches.append({"key": str(key), "first": seen[key], "again": counts})
        else:
            seen[key] = counts
    metrics["transform.count_repeats_checked"] = (compared, "count")
    return metrics, extras, mismatches


def environment(tl) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "mpmath": metadata.version("mpmath"),
        "tauberlab": tl.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def breakdown(failures) -> dict:
    counts = Counter(f"{f['layer']}:{f['cls']}" for f in failures)
    return dict(sorted(counts.items()))


def fmt_value(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tl = load_program()
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT)

    setup_s = measure_setup(wl)
    cache = oracles.OracleCache()
    runner = Runner(wl, cache)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(tl)}
    correct = True
    if args.trace:
        from tracer import Tracer, dump_spans, load_spans, nesting_violations

        half = args.seconds / 2
        plain, next_i = runner.phase(half, 0)
        tracer = Tracer()
        if wl.name == "cli-cold":
            wl.traced_spans_dir = OUT / "spans-cli-cold.d"
            wl.traced_spans_dir.mkdir(exist_ok=True)
        else:
            tracer.install()
        try:
            ph, _ = runner.phase(min(half, TRACED_SECONDS), next_i, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        for op, path in enumerate(wl.span_files):
            if path.exists():
                spans += load_spans(path, op_offset=op, id_offset=len(spans))
        metrics, extras, mismatches = per_layer(spans, ph)
        metrics.update(import_costs())
        untraced_p50 = statistics.median(least_per_input(plain)) / 1e6
        traced_p50 = statistics.median(least_per_input(ph)) / 1e6
        metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
        violations = nesting_violations(spans)
        correct = not mismatches and violations == 0
        dump_spans(spans, OUT / f"spans-{wl.name}.jsonl")
        record.update(per_layer={k: v for k, (v, _) in metrics.items()},
                      layers_not_in_json={k: v for k, (v, _) in extras.items()},
                      count_mismatches=mismatches, span_nesting_violations=violations,
                      spans=len(spans))
        phases = [plain, ph]
        reported = {k: (0.0 if v is None else v, unit) for k, (v, unit) in metrics.items()}
        title = "traced"
    else:
        ph, _ = runner.phase(args.seconds, 0)
        # Children: the set-up processes (and on cli-cold every operation).
        # The own-process peak is set by the largest refinement level any
        # single draw reaches, so it is recorded but not bounded.
        peak_children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        peak_self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, extras, p_tail = end_to_end(ph, setup_s, peak_children_mb)
        extras["peak_rss_own_mb"] = (peak_self_mb, "MB")
        record.update(end_to_end={k: v for k, (v, _) in {**metrics, **extras}.items()},
                      tail_percentile=p_tail)
        phases = [ph]
        reported = {k: metrics[k] for k in JSON_END_TO_END}
        title = "untraced"

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f | {"traced": p.traced} for p in phases for f in p.failures]
    silent = [f for f in failures if not f["flagged"]]
    if silent or (wl.must_succeed and failed):
        correct = False
    record.update(correct=correct, attempted=attempted, failed=failed,
                  failures_by_layer=breakdown(failures), failures=failures,
                  excess_limit_nats=oracles.EXCESS_LIMIT_NATS,
                  oracle_values=len(cache), oracle_misses=cache.misses)
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"perfbench {wl.name} seed={args.seed} {title} {args.seconds:g}s  "
          f"python {env['python']} numpy {env['numpy']} click {env['click']} "
          f"mpmath {env['mpmath']} nproc {env['nproc']} cpu {env['cpu']!r}")
    if not args.trace:
        print(f"  ops {ph.attempted}, tail percentile p{p_tail}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:36s} {fmt_value(value):>14s} {unit}")
    print(f"  failed {failed}/{attempted}: {breakdown(failures) or 'none'}"
          f"{'  (unflagged wrong outputs: %d)' % len(silent) if silent else ''}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
