"""Fast self-test of the benchmark's own code (a few seconds).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Checks that the exact oracles agree with mpmath.quad, that the engine agrees
with the oracles on the canonicals for psi <= 1000 to 1e-9 nats, and that
the tracer's spans nest (no child outlasts its parent) and are removed again
by uninstall.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tauberlab as tl  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import NAME, Tracer, nesting_violations, self_times  # noqa: E402

CANONICALS = [params for _, params, pert in workloads.SESSIONS if pert is None]


def test_oracles_match_quadrature():
    # Free a and c at each exact exponent, with the peak at moderate u.
    for a, b, c, offset, s in [
        (2.0, 0.5, -1.0, 0.0, 3.0),
        (0.7, 0.5, -2.5, 1.5, 10.0),
        (-1.0, 2.0, 0.5, 0.0, 0.7),
        (-3.0, 2.0, 4.0, 1.0, 1.3),
        (-2.0, -1.0, -3.0, 0.0, 0.7),
        (-0.4, -1.0, -1.2, 0.0, 0.05),
    ]:
        exact = oracles.log_f_exact(a, b, c, offset, s)
        quad = oracles.log_f_quad(a, b, c, offset, s)
        assert abs(exact - quad) <= 1e-12 * max(1.0, abs(exact)), (a, b, c, s, exact, quad)


def test_engine_matches_oracles_on_canonicals():
    for a, b, c, offset in CANONICALS:
        p = tl.validate(a, b, c, offset)
        for psi in tl.make_grid(1.0, 1000.0, 16).psi_values:
            smp = tl.sample_at_psi(p, tl.PurePower(a, b), psi)
            exact = oracles.log_f_exact(a, b, c, offset, smp.s)
            assert abs(smp.log_f - exact) <= 1e-9, (a, b, c, psi, smp.log_f, exact)


def test_spans_nest_and_uninstall_restores():
    originals = (tl.sample_at_psi, tl.transform.locate_peak, tl.PurePower.log_amplitude)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        workloads.verify_session(workloads.SESSIONS[0])
    finally:
        tracer.uninstall()
    assert (tl.sample_at_psi, tl.transform.locate_peak, tl.PurePower.log_amplitude) == originals
    names = {rec[NAME] for rec in tracer.spans}
    for expected in ("asymptotics.verify_equivalence", "transform.sample_at_psi",
                     "transform.locate_peak", "targets.log_amplitude",
                     "report.render_report"):
        assert expected in names, expected
    assert nesting_violations(tracer.spans) == 0
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_nesting_check_flags_child_outlasting_parent():
    spans = [[0, -1, "a.f", 0, 10, 0, None, None], [1, 0, "b.g", 2, 12, 0, None, None]]
    assert nesting_violations(spans) > 0


def test_excess_error_floor():
    assert oracles.excess_error(1e16 + 16, 1e16) == 0.0  # within 16 ulp
    assert oracles.excess_error(100.0 + 2e-6, 100.0) > 1e-6
    assert math.isclose(oracles.roundoff_floor(1.0), 1e-8)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
