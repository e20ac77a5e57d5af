"""Quadrature engine: peaks, transforms, predictions, and the mpmath oracle."""

import cProfile
import dataclasses
import math
import pstats
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tauberlab as tl

KOHL = tl.PurePower(2.0, 0.5)
KASA = tl.PurePower(-1.0, 2.0)
DEBR = tl.PurePower(-1.0, -1.0)

# Frozen from the high-resolution mpmath oracle (dps=40); the b=0.5 and b=2
# cases are exactly Gaussian, so these equal closed forms:
#   kohlbecker psi=100:  100 + log(20*sqrt(pi))
#   kasahara  psi=100:   log(1 + e^25 * 10*sqrt(pi) * (1+erf(5))/2)
ORACLE_LOG_F = {
    ("kohl", 100.0): 103.56809721647869,
    ("kohl", 1000.0): 1004.7193897629757,
    ("kasa", 100.0): 27.874950035918761,
    ("kasa", 1000.0): 254.02624258241577,
    ("debr", 10.0): -18.25804196681191,
    ("debr", 100.0): -197.12317963120413,
    ("debr", 1000.0): -1995.9735699644387,
}


class TestLocatePeak:
    @pytest.mark.parametrize(
        "target,c,s,expected",
        [
            (KOHL, -1.0, 100.0, 100.0),  # x_peak=1, psi=100
            (KASA, 1.0, 0.1, 50.0),  # x_peak=0.5, psi=100
            (DEBR, -1.0, 0.01, 10.0),  # x_peak=1, psi=10
            # A perturbed target's window centres on its pure power's peak.
            (tl.PerturbedPower(2.0, 0.5, "inverse-log", 0.2), -1.0, 100.0, 100.0),
            (tl.PerturbedPower(-1.0, -1.0, "log-sine", 0.3), -1.0, 0.01, 10.0),
        ],
    )
    def test_matches_closed_form(self, target, c, s, expected):
        assert tl.locate_peak(target, c, s) == pytest.approx(expected, rel=1e-8)

    def test_closed_form_match_on_random_parameters(self):
        rng = np.random.default_rng(31)
        ranges = {
            "kohlbecker": ((0.1, 0.9), 1, -1),
            "kasahara": ((1.2, 5.0), -1, 1),
            "de-bruijn": ((-4.0, -0.2), -1, -1),
        }
        for (blo, bhi), sa, sc in ranges.values():
            for _ in range(25):
                a = sa * rng.uniform(0.2, 5.0)
                b = rng.uniform(blo, bhi)
                c = sc * rng.uniform(0.2, 5.0)
                p = tl.validate(a, b, c)
                psi = rng.uniform(5.0, 500.0)
                s = tl.s_for_psi(b, psi)
                x_peak = tl.saddle_analysis(p).x_peak
                u = tl.locate_peak(tl.PurePower(a, b), c, s)
                assert u * s ** (-b / (1.0 - b)) / x_peak == pytest.approx(
                    1.0, abs=1e-8
                )

    def test_closed_form_seed_survives_extreme_powers_of_s(self):
        # s**50 underflows at s=1e-10 and overflows at s=1e10, although the
        # stationary point u* = x_peak*psi = ((1/50)*s**-50)**(1/49) is
        # representable; the window centres there and the transform is finite.
        t = tl.PurePower(-1.0, 50.0)
        for s in (1e-10, 1e10):
            u = tl.locate_peak(t, 1.0, s)
            assert u == pytest.approx(
                math.exp((math.log(1.0 / 50.0) - 50.0 * math.log(s)) / 49.0),
                rel=1e-12,
            )
            assert math.isfinite(tl.log_transform(t, 1.0, 0.0, s).log_f)
        # b close to 1 puts psi, and with it u*, out of range: refused.
        near_one = tl.PurePower(-1.0, 1.001)
        for s in (1e-10, 1e10):
            with pytest.raises(tl.NumericOverflow):
                tl.locate_peak(near_one, 1.0, s)

    def test_non_positive_s_refused(self):
        with pytest.raises(tl.DomainError, match="s must be positive"):
            tl.locate_peak(KOHL, -1.0, 0.0)

    def test_no_interior_peak_for_monotone_integrand(self):
        # q decreasing and c < 0: supremum at u -> 0.
        with pytest.raises(tl.NoInteriorPeak):
            tl.locate_peak(tl.PurePower(-1.0, 0.5), -1.0, 1.0)


class _CountingTarget:
    """Delegates to a target, counts its log_amplitude calls and records the
    shape of each call's input."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.shapes = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def log_amplitude(self, x):
        self.calls += 1
        self.shapes.append(np.shape(x))
        return self.inner.log_amplitude(x)


class TestSearchCost:
    @pytest.mark.parametrize(
        "a,b,c,offset",
        [(2.0, 0.5, -1.0, 0.0), (-1.0, 2.0, 1.0, 1.0), (-1.0, -1.0, -1.0, 0.0)],
    )
    def test_sample_makes_few_target_calls(self, a, b, c, offset):
        # The window centre and all candidate edges are one call, and each
        # refinement step is one call that gives two levels: a converged
        # sample takes two log_amplitude calls, not one per probe point.
        t = _CountingTarget(tl.PurePower(a, b))
        tl.sample_at_psi(tl.validate(a, b, c, offset), t, 100.0)
        assert t.calls <= 2

    @pytest.mark.parametrize(
        "a,b,c,offset",
        [(2.0, 0.5, -1.0, 0.0), (-1.0, 2.0, 1.0, 1.0), (-1.0, -1.0, -1.0, 0.0)],
    )
    def test_sweep_evaluates_all_points_per_call(self, a, b, c, offset):
        # Every step of a sweep is one call over all its open rows, whatever
        # their panel counts, so 16 points cost as many calls as one (32
        # point by point).
        t = _CountingTarget(tl.PurePower(a, b))
        tl.evaluate_sweep(tl.validate(a, b, c, offset), t, tl.make_grid(10.0, 1000.0, 16))
        assert t.calls <= 2

    def test_refinement_calls_keep_the_memory_bound(self, kinked_kasahara):
        # The kinked target's derivative jump at x = 1 slows the trapezoid
        # rule to algebraic convergence: at tol 1e-14 the rows at psi = 10
        # and 15 refine until their next level would exceed
        # _MAX_POINTS_PER_CALL nodes and stop there unmet.  Every call, their
        # last levels included, takes at most that many nodes.
        a, b, c, offset = -1.0, 2.0, 1.0, 1.0
        t = _CountingTarget(kinked_kasahara)
        psis = [1000.0, 10.0, 15.0, 100.0]
        samples = tl.sample_at_psi(tl.validate(a, b, c, offset), t, psis, tol=1e-14)
        assert [s.tol_met for s in samples] == [True, False, False, True]
        cap, sizes = tl.transform._MAX_POINTS_PER_CALL, [math.prod(x) for x in t.shapes]
        assert cap // 2 < max(sizes) <= cap

    def test_centre_and_frontier_calls_keep_the_memory_bound(self):
        # A row's centre and candidate edges take 69 nodes, so 12,000 rows
        # are split into calls of whole rows, as the trapezoid levels are.
        t = _CountingTarget(DEBR)
        tl.evaluate_sweep(tl.validate(-1.0, -1.0, -1.0), t, tl.make_grid(10.0, 1000.0, 12000))
        cap, sizes = tl.transform._MAX_POINTS_PER_CALL, [math.prod(x) for x in t.shapes]
        assert sum(sizes[:4]) == 12000 * tl.transform._CENTRE_AND_EDGES.size
        assert max(sizes) <= cap

    def test_sessions_stay_within_the_parent_cost(self):
        # log_amplitude calls and points are deterministic.  The five
        # power-verify sessions (16-point grid plus psi_mid) make 10 calls on
        # 25,654 points: one centre-and-frontier call and one refinement
        # step per session, the step evaluating exactly the sum of n_i + 1
        # nodes of its rows' fine level and reading the coarse level off it.
        # Two evaluations per step took 23 calls on 32,401 points; padding
        # every row of a level to the widest row took 59,149.
        sessions = [
            ((2.0, 0.5, -1.0, 0.0), None),
            ((-1.0, 2.0, 1.0, 1.0), None),
            ((-1.0, -1.0, -1.0, 0.0), None),
            ((2.0, 0.5, -1.0, 0.0), ("inverse-log", 0.2)),
            ((-1.0, -1.0, -1.0, 0.0), ("log-sine", 0.3)),
        ]
        calls = points = 0
        for (a, b, c, offset), pert in sessions:
            inner = tl.PurePower(a, b) if pert is None else tl.PerturbedPower(a, b, *pert)
            t = _CountingTarget(inner)
            tl.verify_equivalence(tl.validate(a, b, c, offset), t, tl.make_grid(10, 1000, 16))
            calls += t.calls
            points += sum(math.prod(x) for x in t.shapes)
        assert calls <= 10
        assert points <= 25654

    @pytest.mark.parametrize("a,b,c,offset", [(2.0, 0.5, -1.0, 0.0), (-1.0, 2.0, 1.0, 1.0)])
    def test_sweep_makes_as_many_reductions_as_one_point(self, a, b, c, offset):
        # Each trapezoid level is one maximum.reduceat and one add.reduceat
        # over all its rows, so a 17-point sweep, whose rows start from 10 to
        # 12 distinct panel counts, makes as many ufunc reductions as one
        # point.  One sum per run of equal panel counts made 30 (Kohlbecker)
        # and 32 (Kasahara) against 10.
        p, t = tl.validate(a, b, c, offset), tl.PurePower(a, b)
        psis = tl.make_grid(10.0, 1000.0, 16).psi_values + (100.0,)
        s = np.array([tl.s_for_psi(b, x) for x in psis])
        assert len(set(tl.transform._prepare_windows(t, c, s)[-1])) >= 10
        names = ("<method 'reduce' of 'numpy.ufunc' objects>",
                 "<method 'reduceat' of 'numpy.ufunc' objects>")

        def reductions(psi):
            prof = cProfile.Profile()
            prof.runcall(tl.sample_at_psi, p, t, psi)
            return sum(v[1] for k, v in pstats.Stats(prof).stats.items() if k[2] in names)

        assert reductions(psis) == reductions(100.0)

    def test_perturbed_kasahara_sweep_converges(self):
        # The library inverse-log family is analytic in log x, so the
        # trapezoid rule converges geometrically there: every row of the
        # Kasahara sweep meets tol 1e-12 within two refinement steps (3 calls
        # on 12,099 points).  The kinked target of conftest.py takes 3.05M points
        # on this sweep and stops 6 of its 17 rows at the node budget.
        a, b, c, offset = -1.0, 2.0, 1.0, 1.0
        t = _CountingTarget(tl.PerturbedPower(a, b, "inverse-log", 0.4))
        psis = tl.make_grid(10, 1000, 16).psi_values + (100.0,)
        samples = tl.sample_at_psi(tl.validate(a, b, c, offset), t, psis, tol=1e-12)
        assert all(s.tol_met for s in samples)
        assert t.calls <= 3
        assert sum(math.prod(x) for x in t.shapes) <= 12099

    @pytest.mark.parametrize(
        "target,c,s",
        [
            (KOHL, -1.0, 100.0),
            (KOHL, -1.0, 10.0),
            (KASA, 1.0, 0.1),
            (KASA, 1.0, 10.0**-0.5),
            (DEBR, -1.0, 0.01),
        ],
    )
    def test_window_matches_unit_step_walk(self, target, c, s):
        # Reference: walk out from u* one Laplace width h = 1/sqrt(|b*d*psi|)
        # at a time until the v-integrand g(u*e^v) + v is FRONTIER_DROP nats
        # below g(u*); the engine's edge is the first probed width at or past it.
        (u_star,), (v_lo,), (v_hi,), (m,), (n0,) = tl.transform._prepare_windows(
            target, c, np.array([s])
        )
        b = target.b
        p, psi = tl.validate(target.a, b, c), tl.psi_for_s(b, s)
        assert u_star == pytest.approx(tl.saddle_analysis(p).x_peak * psi, rel=1e-14)
        h = 1.0 / math.sqrt(abs(b * p.d * psi))

        def shifted(v):
            u = u_star * math.exp(v)
            return float(target.log_amplitude(s * u)) + c * u + v - m

        assert shifted(0.0) == 0.0
        widths = []
        for side in (-1.0, 1.0):
            k = 1
            while not shifted(side * k * h) < -tl.transform.FRONTIER_DROP:
                k += 1
            probed = tl.transform._FRONTIER_WIDTHS
            widths.append(probed[np.searchsorted(probed, k)])
        assert [-v_lo / h, v_hi / h] == pytest.approx(widths, rel=1e-12)
        assert n0 == tl.transform._NODES_PER_WIDTH * sum(widths)


def _fields(sample):
    """The five TransformSample fields, in a form that compares bit for bit."""
    return repr(dataclasses.astuple(sample))


def _guardrail_triples(seed: int, n: int) -> list[tuple[float, float, float]]:
    """Seeded (a, b, c) draws from the guardrail box, cycling over the regimes:
    |a|, |c| log-uniform in [1e-8, 1e8], |b| log-uniform in the regime's range,
    kept 0.05 from 0 and 1 so that s = psi**((1-b)/b) is representable."""
    rng = np.random.default_rng(seed)
    regimes = [((0.05, 0.95), 1.0, -1.0), ((1.05, 64.0), -1.0, 1.0), ((0.05, 64.0), -1.0, -1.0)]
    triples = []
    for k in range(n):
        (b_lo, b_hi), sa, sc = regimes[k % 3]
        a, c = (10.0 ** rng.uniform(-8.0, 8.0) for _ in range(2))
        b = math.exp(rng.uniform(math.log(b_lo), math.log(b_hi)))
        triples.append((sa * a, b if k % 3 < 2 else -b, sc * c))
    return triples


def _linspace_levels(t, c, s, window, panels) -> list[float]:
    """Reference trapezoid level: each row on its own, nodes from np.linspace,
    a plain max and sum (w.sum() is np.add.reduce(w))."""
    out = []
    for si, u_star, lo, hi, m, ni in zip(s, *window, panels):
        v = np.linspace(lo, hi, ni + 1)
        u = u_star * np.exp(v)
        vals = t.log_amplitude(si * u) + c * u + v - m
        peak = vals.max()
        w = np.exp(vals - peak)
        w[[0, -1]] *= 0.5
        out.append(m + peak + math.log(w.sum() * (hi - lo) / ni))
    return out


class TestBatchedSweep:
    """A sweep is one batched engine pass that equals its points one by one."""

    GRID = tl.make_grid(10.0, 1000.0, 16)

    @pytest.mark.parametrize(
        "a,b,c,offset,pert",
        [
            (2.0, 0.5, -1.0, 0.0, None),
            (-1.0, 2.0, 1.0, 1.0, None),
            (-1.0, -1.0, -1.0, 0.0, None),
            (2.0, 0.5, -1.0, 0.0, ("inverse-log", 0.2)),
            (-1.0, -1.0, -1.0, 0.0, ("log-sine", 0.3)),
        ],
    )
    def test_sessions_match_per_psi_samples(self, a, b, c, offset, pert):
        p = tl.validate(a, b, c, offset)
        t = tl.PurePower(a, b) if pert is None else tl.PerturbedPower(a, b, *pert)
        psis = self.GRID.psi_values + (100.0,)
        batch = tl.sample_at_psi(p, t, psis)
        assert [_fields(s) for s in batch] == [
            _fields(tl.sample_at_psi(p, t, psi)) for psi in psis
        ]
        assert tl.evaluate_sweep(p, t, self.GRID) == batch[:-1]

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize(
        "a,b,c,offset,pert",
        [(-1.0, 2.0, 1.0, 1.0, None), (2.0, 0.5, -1.0, 0.0, ("inverse-log", 0.2))],
    )
    def test_rows_of_mixed_panel_counts_keep_input_order(self, a, b, c, offset, pert, order):
        # The rows' windows span from 19 to 164 Laplace widths, so their first
        # panel counts differ; each level lays the rows end to end in the
        # order given, and must return them in that order.
        p = tl.validate(a, b, c, offset)
        t = tl.PurePower(a, b) if pert is None else tl.PerturbedPower(a, b, *pert)
        psis = self.GRID.psi_values + (100.0,)
        if order == "reversed":
            psis = psis[::-1]
        else:
            psis = [psis[k] for k in np.random.default_rng(11).permutation(len(psis))]
        s = np.array([tl.s_for_psi(b, x) for x in psis])
        assert len(set(tl.transform._prepare_windows(t, c, s)[-1])) >= 4
        assert [_fields(s) for s in tl.sample_at_psi(p, t, psis)] == [
            _fields(tl.sample_at_psi(p, t, psi)) for psi in psis
        ]

    @pytest.mark.parametrize("k", [0, 4, 10])
    def test_levels_match_a_linspace_reference(self, k):
        # Reference: each row and level on its own, nodes from np.linspace, a
        # plain max and sum.  One evaluation on the fine level of n panels,
        # n = n0 * 2**(k + 1), gives it and, off its even nodes, the coarse
        # level of n/2 panels; k = 0 is the first refinement step.  At k = 10
        # the fine rows hold 141k to 1M nodes, so a level has blocks of
        # several rows and rows past _MAX_POINTS_PER_CALL.
        a, b, c = -1.0, 2.0, 1.0
        t = tl.PerturbedPower(a, b, "inverse-log", 0.4)
        s = np.array([tl.s_for_psi(b, x) for x in tl.make_grid(10.0, 1000.0, 8).psi_values])
        *window, n0 = tl.transform._prepare_windows(t, c, s[::-1])
        n = [x * 2 ** (k + 1) for x in n0]

        fine, coarse = tl.transform._trapezoid_rows(t, c, s[::-1], *window, n)
        assert fine == _linspace_levels(t, c, s[::-1], window, n)
        assert coarse == _linspace_levels(t, c, s[::-1], window, [x // 2 for x in n])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 1500)),
                         min_size=1, max_size=8))
    def test_padded_level_sums_equal_each_rows_own_sum(self, rows):
        # A level sums its rows in one add.reduceat, each row after a pad
        # slot of exp(-inf) = 0.  Rows of 3 to 3,001 fine and 2 to 1,501
        # coarse nodes cross numpy's 8- and 128-element pairwise blocks, in
        # drawn order, and a 4,096-node cap splits a level into blocks of
        # whole rows.  Every row must equal its plain np.add.reduce bit for
        # bit, so a numpy whose reduceat sums in another order fails here.
        a, b, c = -1.0, 2.0, 1.0
        t = tl.PerturbedPower(a, b, "inverse-log", 0.4)
        psis = tl.make_grid(10.0, 1000.0, 16).psi_values
        s = np.array([tl.s_for_psi(b, psis[i]) for i, _ in rows])
        window = tl.transform._prepare_windows(t, c, s)[:-1]
        n = [2 * k for _, k in rows]
        with mock.patch.object(tl.transform, "_MAX_POINTS_PER_CALL", 4096):
            fine, coarse = tl.transform._trapezoid_rows(t, c, s, *window, n)
        assert fine == _linspace_levels(t, c, s, window, n)
        assert coarse == _linspace_levels(t, c, s, window, [x // 2 for x in n])

    def test_guardrail_draws_match_per_psi_samples(self):
        for a, b, c in _guardrail_triples(seed=5, n=20):
            p, t = tl.validate(a, b, c), tl.PurePower(a, b)
            batch = tl.evaluate_sweep(p, t, self.GRID)
            assert [_fields(s) for s in batch] == [
                _fields(tl.sample_at_psi(p, t, psi)) for psi in self.GRID.psi_values
            ], (a, b, c)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        regime=st.sampled_from([((0.05, 0.95), 1.0, -1.0), ((1.05, 64.0), -1.0, 1.0),
                                ((-64.0, -0.05), -1.0, -1.0)]),
        u_b=st.floats(0.0, 1.0),
        log_a=st.floats(-8.0, 8.0),
        log_c=st.floats(-8.0, 8.0),
        family=st.sampled_from([None, "inverse-log", "log-sine"]),
        log_psis=st.lists(st.floats(0.0, 16.0), min_size=1, max_size=5),
        tol=st.sampled_from([1e-8, 1e-12, 1e-14]),
    )
    def test_sweep_equals_its_points_over_the_guardrail_box(
        self, regime, u_b, log_a, log_c, family, log_psis, tol
    ):
        # Small tolerances keep rows refining past the first step; large psi
        # and small |b| make points fail, and then the sweep raises what its
        # first failing point raises.
        (b_lo, b_hi), sa, sc = regime
        b = math.copysign(abs(b_lo) ** (1.0 - u_b) * abs(b_hi) ** u_b, b_lo)
        a, c = sa * 10.0**log_a, sc * 10.0**log_c
        try:
            p = tl.validate(a, b, c)
        except tl.TauberError:
            return
        t = tl.PurePower(a, b) if family is None else tl.PerturbedPower(a, b, family, 0.3)
        psis = [10.0**x for x in log_psis]

        def outcome(f):
            try:
                return f()
            except tl.TauberError as exc:
                return type(exc), str(exc)

        alone = [outcome(lambda x=x: _fields(tl.sample_at_psi(p, t, x, tol))) for x in psis]
        swept = outcome(lambda: [_fields(x) for x in tl.sample_at_psi(p, t, psis, tol)])
        failed = [r for r in alone if isinstance(r, tuple)]
        assert swept == (failed[0] if failed else alone)

    def test_unrepresentable_seed_raises_as_one_row(self):
        # b close to 1: the stationary point u* = e^(1000*0.7 + log psi)
        # leaves the float range once psi > ~1.8e4, while s stays near 1.
        a, b, c = -1.0, 1.001, 1.001 * math.exp(0.7)
        p, t = tl.validate(a, b, c), tl.PurePower(a, b)
        grid = tl.make_grid(10.0, 1e6, 8)
        with pytest.raises(tl.NumericOverflow):
            tl.sample_at_psi(p, t, grid.psi_values[-1])
        tl.sample_at_psi(p, t, grid.psi_values[0])
        with pytest.raises(tl.NumericOverflow, match="not representable"):
            tl.evaluate_sweep(p, t, grid)

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_sweep_gives_no_samples(self, empty):
        p, t = tl.validate(2.0, 0.5, -1.0), tl.PurePower(2.0, 0.5)
        assert tl.sample_at_psi(p, t, empty) == []
        assert tl.locate_peak(t, p.c, empty) == []

    @pytest.mark.parametrize(
        "psis,first_failure",
        [
            ([10.0, 1e6, -1.0], tl.NumericOverflow),
            ([10.0, -1.0, 1e6], tl.DomainError),
            ([10.0, 1e4, 1e6], tl.NumericOverflow),
        ],
    )
    def test_mixed_failures_raise_the_first_failing_point(self, psis, first_failure):
        # The rows fail at different stages: psi=1e6 in the engine (its seed
        # is unrepresentable), psi=1e4 at the window centre (u* ~ e^708 is
        # representable, g(u*) is not), psi=-1 before both (in s_for_psi).
        # A sweep raises what its first failing point raises on its own.
        a, b, c = -1.0, 1.001, 1.001 * math.exp(0.7)
        p, t = tl.validate(a, b, c), tl.PurePower(a, b)
        with pytest.raises(first_failure) as alone:
            for psi in psis:
                tl.sample_at_psi(p, t, psi)
        with pytest.raises(tl.TauberError) as swept:
            tl.sample_at_psi(p, t, psis)
        assert type(swept.value) is first_failure
        assert str(swept.value) == str(alone.value)


class TestLogTransform:
    @pytest.mark.parametrize(
        "name,target,c,offset,psi",
        [
            ("kohl", KOHL, -1.0, 0.0, 100.0),
            ("kohl", KOHL, -1.0, 0.0, 1000.0),
            ("kasa", KASA, 1.0, 1.0, 100.0),
            ("kasa", KASA, 1.0, 1.0, 1000.0),
            ("debr", DEBR, -1.0, 0.0, 10.0),
            ("debr", DEBR, -1.0, 0.0, 100.0),
            ("debr", DEBR, -1.0, 0.0, 1000.0),
        ],
    )
    def test_frozen_oracle_values(self, name, target, c, offset, psi):
        b = target.b
        s = tl.s_for_psi(b, psi)
        ts = tl.log_transform(target, c, offset, s)
        assert ts.tol_met
        assert ts.log_f == pytest.approx(ORACLE_LOG_F[(name, psi)], abs=5e-7)
        assert ts.psi == pytest.approx(psi, rel=1e-12)

    def test_kohlbecker_spec_window(self):
        # Leading prediction d*psi + 0.5*log(psi) + 0.5*log(2*pi/|h''|) puts
        # log f near 103.57 at psi = 100.
        ts = tl.log_transform(KOHL, -1.0, 0.0, 100.0)
        assert abs(ts.log_f - 103.57) <= 0.2

    def test_frontier_not_reached(self):
        # P == 1 behind the window of 2*x**0.5: the engine centres on
        # u* = psi = s, but the v-integrand exp(-u* e^v + v) peaks at
        # v = -log u*.  At s = 1 the window holds that peak and log f = 0 is
        # exact; at larger s the integrand still rises 800 widths left of u*.
        class Flat(tl.PurePower):
            def log_amplitude(self, x):
                return np.zeros_like(np.asarray(x, dtype=float))

        ts = tl.log_transform(Flat(2.0, 0.5), -1.0, 0.0, 1.0)
        assert ts.tol_met and ts.log_f == pytest.approx(0.0, abs=1e-12)
        for s in (100.0, 1e4):
            with pytest.raises(tl.NotIntegrable, match="left frontier not reached within 800"):
                tl.log_transform(Flat(2.0, 0.5), -1.0, 0.0, s)

    @pytest.mark.parametrize("family,k", [("cosine", 0.1), ("log-sine", 0.6)])
    def test_perturbation_refused(self, family, k):
        with pytest.raises(tl.ValidationError):
            tl.PerturbedPower(2.0, 0.5, family, k)

    def test_mpmath_oracle_crosscheck(self):
        def oracle(a, b, c, offset, psi):
            a, b, c, psi = map(mp.mpf, (a, b, c, psi))
            xm = (-c / (a * b)) ** (1 / (b - 1))
            d = a * xm**b + c * xm
            integ = mp.quad(
                lambda v: mp.exp(psi * (a * v**b + c * v - d)),
                [0, xm / 2, xm, 2 * xm, mp.inf],
            )
            log_i = mp.log(psi) + d * psi + mp.log(integ)
            if offset:
                log_i += mp.log(1 + offset * mp.exp(-log_i))
            return float(log_i)

        cases = [
            (2.0, 0.5, -1.0, 0.0),
            (-1.0, 2.0, 1.0, 1.0),
            (-1.0, -1.0, -1.0, 0.0),
            (3.0, 0.25, -2.0, 0.0),
            (-0.5, 3.0, 0.7, 0.0),
            (-2.0, -0.5, -0.3, 0.0),
        ]
        for a, b, c, offset in cases:
            p = tl.validate(a, b, c, offset)
            for psi in (10.0, 100.0):
                s = tl.s_for_psi(b, psi)
                ts = tl.log_transform(tl.PurePower(a, b), c, offset, s)
                with mp.workdps(30):
                    expected = oracle(a, b, c, offset, psi)
                assert ts.log_f == pytest.approx(expected, abs=1e-6), (a, b, c, psi)

    @pytest.mark.parametrize(
        "a,b,c,family,k",
        [
            (2.0, 0.5, -1.0, "inverse-log", 0.2),
            (-1.0, -1.0, -1.0, "log-sine", 0.3),
            (-1.0, 2.0, 1.0, "inverse-log", 0.4),
            (2.0, 0.5, -1.0, "log-sine", 0.5),
        ],
    )
    @pytest.mark.parametrize("psi", [10.0, 100.0, 1000.0])
    def test_perturbed_log_f_matches_mpmath_quadrature(self, a, b, c, family, k, psi):
        # No closed form here: the reference integrates exp(G(w) - G(w*)),
        # G(w) = q(e^w*s) + c*e^w + w, at 40 digits between the points where
        # it is 110 nats down (found in Laplace widths 1/sqrt(|c*u*(1-b)|)
        # from the pure power's peak w*), split at w*.  delta is analytic in
        # log x, so the engine converges geometrically to within 1e-12 nats.
        p, t = tl.validate(a, b, c), tl.PerturbedPower(a, b, family, k)
        smp = tl.sample_at_psi(p, t, psi, tol=1e-12)
        with mp.workdps(40):
            a_, b_, c_, k_, s = map(mp.mpf, (a, b, c, k, smp.s))

            def G(w):
                x = mp.exp(w) * s
                delta = k_ / (1 + mp.sqrt(1 + mp.log(x) ** 2))
                if family == "log-sine":
                    delta *= mp.sin(mp.log(x))
                return a_ * x**b_ * (1 + delta) + c_ * mp.exp(w) + w

            u_star = (-c_ / (a_ * b_)) ** (1 / (b_ - 1)) * s ** (-b_ / (b_ - 1))
            w_star, width = mp.log(u_star), 1 / mp.sqrt(abs(c_ * u_star * (1 - b_)))
            shift = G(w_star)
            lo = hi = w_star
            while G(lo) - shift > -110:
                lo -= width
            while G(hi) - shift > -110:
                hi += width
            integral = mp.quad(lambda w: mp.exp(G(w) - shift), [lo, w_star, hi])
            oracle = float(shift + mp.log(integral))
        assert abs(smp.log_f - oracle) <= 1e-12, (family, psi, smp.log_f, oracle)

    def test_shift_scale_identity(self):
        # Substituting u -> u/k maps (c, s) -> (k*c, k*s) and divides f by k.
        for k in (0.5, 2.0, 7.0):
            base = tl.log_transform(KOHL, -1.0, 0.0, 50.0)
            scaled = tl.log_transform(KOHL, -k, 0.0, k * 50.0)
            assert scaled.log_f == pytest.approx(base.log_f - math.log(k), abs=1e-6)

    def test_offset_negligible_at_large_psi(self):
        with_off = tl.log_transform(KASA, 1.0, 1.0, 0.1)
        without = tl.log_transform(KASA, 1.0, 0.0, 0.1)
        assert with_off.log_f - without.log_f == pytest.approx(0.0, abs=1e-9)

    def test_offset_dominates_small_integral(self):
        # At s >> 1 the Kasahara-type integral is tiny against offset=1.
        ts = tl.log_transform(KASA, 1.0, 1.0, 40.0)
        assert 0.0 < ts.log_f < 0.05

    def test_not_integrable_near_zero(self):
        # P(x) = exp(x**-1) blows up faster than any integrable power at 0.
        with pytest.raises(tl.NotIntegrable):
            tl.log_transform(tl.PurePower(1.0, -1.0), -1.0, 0.0, 1.0)

    def test_not_integrable_at_infinity(self):
        # q -> 0 while c > 0: integrand grows like e^{c*u}.
        with pytest.raises(tl.NotIntegrable):
            tl.log_transform(tl.PurePower(-1.0, -1.0), 1.0, 0.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(tl.DomainError):
            tl.log_transform(KOHL, -1.0, 0.0, -1.0)
        with pytest.raises(tl.DomainError):
            tl.log_transform(KOHL, -1.0, -0.5, 1.0)
        with pytest.raises(tl.DomainError):
            tl.log_transform(KOHL, -1.0, 0.0, 1.0, tol=0.0)

    def test_infinite_tolerance_refused(self):
        p = tl.validate(2.0, 0.5, -1.0)
        with pytest.raises(tl.DomainError, match="tol must be positive and finite"):
            tl.sample_at_psi(p, KOHL, [10.0, 100.0], tol=math.inf)
        with pytest.raises(tl.DomainError, match="tol must be positive and finite"):
            tl.log_transform(KOHL, -1.0, 0.0, 1.0, tol=math.inf)

    def test_step_of_an_underflowing_width_product_is_one(self):
        # At s = 5e-324 the product (b-1)*c*u* underflows to 0: the Laplace
        # width is unbounded and the step takes its cap h = 1, with no
        # division warning, so the window is the one at s = 1e-300.
        _, lo, hi, _, n0 = tl.transform._prepare_windows(KOHL, -1.0, np.array([5e-324, 1e-300]))
        assert lo[0] == lo[1] and hi[0] == hi[1] and n0[0] == n0[1]

    def test_refinement_errors_decrease(self):
        # Richardson-consistent: the successive-refinement estimate
        # |fine - coarse| at n0 * 2**k panels shrinks (down to the
        # floating-point noise floor) as resolution doubles.
        for target, c, s in [(KOHL, -1.0, 100.0), (DEBR, -1.0, 0.01)]:
            row = np.array([s])
            window = tl.transform._prepare_windows(target, c, row)[:-1]
            errs = []
            for k in range(1, 8):
                (fine,), (coarse,) = tl.transform._trapezoid_rows(
                    target, c, row, *window, [4 * 2**k])
                errs.append(abs(fine - coarse))
            assert errs[0] > 0.0
            floor = 1e-12
            for prev, nxt in zip(errs, errs[1:]):
                assert nxt <= max(prev, floor)
            assert errs[-1] <= 1e-10

    def test_refinement_errors_read_every_level_off_one_evaluation(self):
        # One _trapezoid_rows call gives both levels of a row from one
        # evaluation: the coarse level is read off the fine level's even
        # nodes (the _linspace_levels tests pin it to its own evaluation).
        row = np.array([0.01])
        window = tl.transform._prepare_windows(DEBR, -1.0, row)[:-1]
        t = _CountingTarget(DEBR)
        fine, coarse = tl.transform._trapezoid_rows(t, -1.0, row, *window, [512])
        assert t.calls == 1 and t.shapes == [(513,)]
        assert len(fine) == len(coarse) == 1

    def test_tolerance_flagged_when_not_met(self, kinked_kasahara):
        # The kinked target at psi = 10: the kink at x = 1 slows the
        # trapezoid rule to algebraic convergence, refinement stops at the
        # node budget short of tol 1e-14, and the sample comes back flagged
        # instead of raising.
        ts = tl.log_transform(kinked_kasahara, 1.0, 1.0, tl.s_for_psi(2.0, 10.0), tol=1e-14)
        assert not ts.tol_met
        assert ts.quad_error > 1e-14

    def test_measure_target_matches_direct_stieltjes(self):
        # For P = mu[0, .] and c = -1 the transform at s = lam equals
        # sum_i m_i e^{-x_i/lam}, which the measure path sums exactly.
        m = tl.TabulatedMeasure((0.5, 2.0, 7.0), (1.0, 0.3, 0.2))
        for lam in (1.0, 3.0, 9.0):
            ts = tl.log_transform(tl.MeasureTarget(m, "cumulative"), -1.0, 0.0, lam)
            direct = tl.measure_transform_kohlbecker(m, lam)
            assert ts.log_f == pytest.approx(direct, abs=1e-12)


def _exact_log_f(a, b, c, offset, s):
    """log f(s) for q = a*x**b at b = 1/2, 2 or -1, in closed form at 40
    digits and rounded once to a float.  These are the README canonicals with
    free a and c:

        b = 1/2:  k = a*sqrt(s), g = -c,
                  f = offset + 1/g + (k/(2g)) sqrt(pi/g) e^(k^2/(4g)) erfc(-k/(2 sqrt g))
        b = 2:    r = -a*s^2,
                  f = offset + (1/2) sqrt(pi/r) e^(c^2/(4r)) erfc(-c/(2 sqrt r))
        b = -1:   f = 2 sqrt(|a|/(s|c|)) K_1(2 sqrt(|a||c|/s))
    """
    with mp.workdps(40):
        a, c, s, offset = map(mp.mpf, (a, c, s, offset))
        if b == 0.5:
            k, g = a * mp.sqrt(s), -c
            body = (k / (2 * g)) * mp.sqrt(mp.pi / g) * mp.exp(k * k / (4 * g))
            f = 1 / g + body * mp.erfc(-k / (2 * mp.sqrt(g)))
        elif b == 2.0:
            r = -a * s * s
            f = mp.sqrt(mp.pi / r) / 2 * mp.exp(c * c / (4 * r)) * mp.erfc(-c / (2 * mp.sqrt(r)))
        else:
            beta, g = -a / s, -c
            f = 2 * mp.sqrt(beta / g) * mp.besselk(1, 2 * mp.sqrt(beta * g))
        return float(mp.log(offset + f))


class TestExactOracleAtLargePsi:
    """Samples meet the exact closed forms at their own s up to psi = 1e16:
    within max(1e-8, 16 ulp) of log f, with the tolerance met."""

    @staticmethod
    def check(a, b, c, offset, psi):
        smp = tl.sample_at_psi(tl.validate(a, b, c, offset), tl.PurePower(a, b), psi)
        exact = _exact_log_f(a, b, c, offset, smp.s)
        where = (a, b, c, psi, smp.log_f, exact, smp.quad_error)
        assert smp.tol_met, where
        assert abs(smp.log_f - exact) <= max(1e-8, 16.0 * math.ulp(exact)), where

    @pytest.mark.parametrize("psi", [1e12, 1e14, 1e16])
    @pytest.mark.parametrize(
        "a,b,c,offset",
        [(2.0, 0.5, -1.0, 0.0), (-1.0, 2.0, 1.0, 1.0), (-1.0, -1.0, -1.0, 0.0)],
    )
    def test_canonicals(self, a, b, c, offset, psi):
        self.check(a, b, c, offset, psi)

    def test_guardrail_draws(self):
        # b in {1/2, 2, -1} with free a and c, |a|, |c| log-uniform in
        # [1e-8, 1e8] and psi log-uniform in [1, 1e16].
        rng = np.random.default_rng(2014)
        for k in range(30):
            b, sa, sc = [(0.5, 1.0, -1.0), (2.0, -1.0, 1.0), (-1.0, -1.0, -1.0)][k % 3]
            a, c = sa * 10.0 ** rng.uniform(-8.0, 8.0), sc * 10.0 ** rng.uniform(-8.0, 8.0)
            self.check(a, b, c, 0.0, 10.0 ** rng.uniform(0.0, 16.0))


class TestSubnormalS:
    """At b = -1, s = psi**-2 turns subnormal from psi about 6.7e153, where it
    keeps fewer than 53 bits.  A sample meets the exact log f at the psi it
    was asked for, log(2*psi*K_1(2*psi)) in 40-digit mpmath, or is refused
    where s is subnormal, never labelled with a psi its s does not carry."""

    @pytest.mark.parametrize("psi", [
        *(10.0 ** k for k in range(150, 159)), 6.6e153, 6.7e153, 6.71e153, 6.8e153])
    def test_de_bruijn_samples_meet_the_oracle_at_psi_or_are_refused(self, psi):
        with mp.workdps(40):
            x = mp.mpf(psi)
            exact = float(mp.log(2 * x * mp.besselk(1, 2 * x)))
            s_subnormal = x**-2 < sys.float_info.min
        try:
            smp = tl.sample_at_psi(tl.validate(-1.0, -1.0, -1.0), DEBR, psi)
        except tl.NumericOverflow:
            assert s_subnormal, psi
            return
        assert abs(smp.log_f - exact) <= 4.0 * math.ulp(exact), (smp, exact)


class TestMeasureTransform:
    """The exact sums for tabulated measures, against per-atom closed forms."""

    M = tl.TabulatedMeasure((0.0, 0.5, 2.0, 7.0, 30.0), (0.4, 1.0, 0.3, 0.2, 1e-3))

    @staticmethod
    def oracle(m, kind, c, offset, s):
        # 40-digit sum of int_0^inf P(u*s) e^{c*u} du over the atoms.
        with mp.workdps(40):
            c, s = mp.mpf(c), mp.mpf(s)
            total = mp.mpf(offset)
            for x, w in zip(m.locations, m.masses):
                z = c * mp.mpf(x) / s
                total += w * (mp.exp(z) / -c if kind == "cumulative" else mp.expm1(z) / c)
            return float(mp.log(total))

    @pytest.mark.parametrize(
        "kind,c",
        [("cumulative", -1.0), ("cumulative", -2.5), ("tail", 1.0), ("tail", -1.0),
         ("tail", -0.4)],
    )
    @pytest.mark.parametrize("offset", [0.0, 2.5])
    @pytest.mark.parametrize("s", [0.05, 1.0, 40.0])
    def test_matches_per_atom_closed_forms(self, kind, c, offset, s):
        ts = tl.log_transform(tl.MeasureTarget(self.M, kind), c, offset, s)
        expected = self.oracle(self.M, kind, c, offset, s)
        assert ts.log_f == pytest.approx(expected, abs=1e-12)
        assert ts.quad_error == 0.0 and ts.tol_met and math.isnan(ts.psi)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_tail_route_matches_kasahara_sums(self, lam):
        # With offset mu(0, inf), c = 1 and s = 1/lam the tail route is
        # M(lam) = sum_i m_i e^{lam*x_i}, for a measure with no atom at 0.
        m = tl.quantize_tail(lambda x: math.exp(-x * x), 1e-3, 40.0, 8192)
        ts = tl.log_transform(
            tl.MeasureTarget(m, "tail"), 1.0, m.mass_above_zero(), 1.0 / lam
        )
        assert ts.log_f == pytest.approx(tl.measure_transform_kasahara(m, lam), abs=1e-12)
        assert ts.log_f == pytest.approx(tl.kasahara_via_parts(m, lam), abs=1e-12)

    def test_tail_kind_without_mass_above_zero(self):
        m = tl.TabulatedMeasure((0.0,), (1.0,))
        assert tl.log_transform(tl.MeasureTarget(m, "tail"), 1.0, 0.0, 1.0).log_f == -math.inf
        assert tl.log_transform(tl.MeasureTarget(m, "tail"), 1.0, 2.0, 1.0).log_f == math.log(2.0)

    def test_refusals(self):
        with pytest.raises(tl.EmptyMeasure):
            tl.log_transform(tl.MeasureTarget(tl.TabulatedMeasure((), ())), -1.0, 0.0, 1.0)
        for c in (0.0, 1.0):
            with pytest.raises(tl.NotIntegrable):
                tl.log_transform(tl.MeasureTarget(self.M, "cumulative"), c, 0.0, 1.0)
        with pytest.raises(tl.ZeroRate):
            tl.log_transform(tl.MeasureTarget(self.M, "tail"), 0.0, 0.0, 1.0)
        with pytest.raises(tl.ValidationError):
            tl.MeasureTarget(self.M, "density")

    def test_engine_takes_power_targets_only(self):
        with pytest.raises(tl.ValidationError):
            tl.locate_peak(tl.MeasureTarget(self.M), -1.0, 1.0)

        class Custom:
            power_exponent = None

            def log_amplitude(self, x):
                return -np.asarray(x, dtype=float)

            def label(self):
                return "custom"

        with pytest.raises(tl.ValidationError):
            tl.log_transform(Custom(), -1.0, 0.0, 1.0)


class TestSignConditions:
    def test_degenerate_exponents_refused(self):
        for b in (0.0, 1.0):
            with pytest.raises(tl.DegenerateExponent):
                tl.log_transform(tl.PurePower(-1.0, b), -1.0, 0.0, 1.0)

    def test_unrepresentable_stationary_point(self):
        # b close to 1 puts u* = (s**-b / b)**(1/(b-1)) out of range.
        with pytest.raises(tl.NumericOverflow):
            tl.locate_peak(tl.PurePower(-1.0, 1.001), 1.0, 1e10)

    @pytest.mark.parametrize(
        "a,b,c",
        [(-1.0, 3.0, -1.0), (-2.0, 0.5, -1.0), (-1.0, 0.5, -0.1)],
    )
    def test_monotone_integrable_signs(self, a, b, c):
        with pytest.raises(tl.NoInteriorPeak):
            tl.log_transform(tl.PurePower(a, b), c, 0.0, 1.0)

    @pytest.mark.parametrize(
        "a,b,c",
        [(1.0, 3.0, -1.0), (1.0, 0.5, 1.0), (-1.0, 0.5, 1.0), (1.0, -2.0, -1.0),
         (-1.0, -2.0, 1.0), (0.0, 0.5, 1.0)],
    )
    def test_divergent_signs(self, a, b, c):
        with pytest.raises(tl.NotIntegrable):
            tl.log_transform(tl.PurePower(a, b), c, 0.0, 1.0)


class TestPredictLogF:
    def test_leading(self):
        p = tl.validate(2.0, 0.5, -1.0)
        assert tl.predict_log_f(p, 100.0, "leading") == pytest.approx(100.0)
        q = tl.validate(-1.0, -1.0, -1.0)
        assert tl.predict_log_f(q, 10.0, "leading") == pytest.approx(-20.0)

    def test_corrected_closed_form(self):
        # 100 + 0.5*log(100) + 0.5*log(2*pi/0.5) = 103.568097...
        p = tl.validate(2.0, 0.5, -1.0)
        expected = 100.0 + 0.5 * math.log(100.0) + 0.5 * math.log(4.0 * math.pi)
        got = tl.predict_log_f(p, 100.0, "corrected")
        assert got == pytest.approx(expected, rel=1e-14)
        assert abs(got - 103.569) <= 1e-3

    def test_corrected_matches_quadrature_at_scale(self):
        for a, b, c, offset in [
            (2.0, 0.5, -1.0, 0.0),
            (-1.0, 2.0, 1.0, 1.0),
            (-1.0, -1.0, -1.0, 0.0),
        ]:
            p = tl.validate(a, b, c, offset)
            ts = tl.log_transform(tl.PurePower(a, b), c, offset, tl.s_for_psi(b, 1e3))
            assert abs(ts.log_f - tl.predict_log_f(p, 1e3)) <= 0.01

    def test_corrected_gap_shrinks_along_psi_grid(self):
        # Residual beyond the Gaussian-peak prediction decays like 1/psi;
        # ties at the noise floor are allowed (two canonicals are exactly
        # Gaussian, so their gap is already roundoff at every psi).
        for a, b, c, offset in [
            (2.0, 0.5, -1.0, 0.0),
            (-1.0, 2.0, 1.0, 1.0),
            (-1.0, -1.0, -1.0, 0.0),
        ]:
            p = tl.validate(a, b, c, offset)
            gaps = []
            for psi in tl.make_grid(10.0, 1000.0, 8).psi_values:
                ts = tl.log_transform(tl.PurePower(a, b), c, offset, tl.s_for_psi(b, psi))
                gaps.append(abs(ts.log_f - tl.predict_log_f(p, psi)))
            for prev, nxt in zip(gaps, gaps[1:]):
                assert nxt <= prev + 1e-6
            assert gaps[-1] <= 0.2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi", [1.5e307, np.float64(1.5e307)])
    @pytest.mark.parametrize("order", ["leading", "corrected"])
    def test_overflow_refused(self, psi, order):
        # d = 16: d*psi is not a float, whether psi is a Python or numpy float.
        with pytest.raises(tl.NumericOverflow, match="predicted log f"):
            tl.predict_log_f(tl.validate(8.0, 0.5, -1.0), psi, order)

    def test_numpy_psi_gives_the_python_float(self):
        p = tl.validate(2.0, 0.5, -1.0)
        got = tl.predict_log_f(p, np.float64(100.0))
        assert type(got) is float and got == tl.predict_log_f(p, 100.0)

    def test_rejects_bad_order_and_psi(self):
        p = tl.validate(2.0, 0.5, -1.0)
        with pytest.raises(tl.ValidationError):
            tl.predict_log_f(p, 10.0, "cubic")
        for psi in (0.0, math.nan, math.inf):
            with pytest.raises(tl.DomainError):
                tl.predict_log_f(p, psi)
