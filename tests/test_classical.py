"""Classical theorem adapters: reductions, coefficient identities, inversion."""

from fractions import Fraction

import numpy as np
import pytest

import tauberlab as tl


class TestToUnified:
    def test_kohlbecker_example(self):
        red = tl.to_unified(tl.Kohlbecker(alpha=2.0, B=2.0))
        p = red.params
        assert (p.a, p.b, p.c, p.offset) == (2.0, 0.5, -1.0, 0.0)
        assert red.classical_coefficient == pytest.approx(1.0)
        assert red.lambda_exponent == pytest.approx(1.0)

    def test_kasahara_example(self):
        red = tl.to_unified(tl.Kasahara(alpha=0.5, B=1.0))
        p = red.params
        assert (p.a, p.b, p.c) == (-1.0, 2.0, 1.0)
        assert p.offset == 1.0  # no measure fixture attached
        assert red.classical_coefficient == pytest.approx(0.25)
        assert red.lambda_exponent == pytest.approx(2.0)

    def test_kasahara_offset_from_measure_mass(self):
        red = tl.to_unified(tl.Kasahara(alpha=0.5, B=1.0), measure_mass=3.5)
        assert red.params.offset == 3.5

    def test_debruijn_example(self):
        red = tl.to_unified(tl.DeBruijn(beta=-1.0, B=-1.0, rate=1.0))
        p = red.params
        assert (p.a, p.b, p.c, p.offset) == (-1.0, -1.0, -1.0, 0.0)
        assert red.classical_coefficient == pytest.approx(-2.0)
        assert red.lambda_exponent == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "spec",
        [
            lambda: tl.Kohlbecker(alpha=1.0, B=2.0),
            lambda: tl.Kohlbecker(alpha=2.0, B=-1.0),
            lambda: tl.DeBruijn(beta=0.5, B=-1.0),
            lambda: tl.DeBruijn(beta=-1.0, B=1.0),
            lambda: tl.DeBruijn(beta=-1.0, B=-1.0, rate=-2.0),
            lambda: tl.Kasahara(alpha=1.5, B=1.0),
            lambda: tl.Kasahara(alpha=0.5, B=0.0),
        ],
    )
    def test_out_of_range_rejected(self, spec):
        with pytest.raises(tl.SpecOutOfRange):
            spec()


def test_to_unified_refuses_a_variant_name():
    with pytest.raises(tl.ValidationError, match="unknown classical spec"):
        tl.to_unified("kohlbecker")


def _random_specs(rng, n):
    for _ in range(n):
        yield tl.Kohlbecker(alpha=1.0 + rng.uniform(0.05, 9.0), B=rng.uniform(0.1, 10.0))
        yield tl.DeBruijn(
            beta=-rng.uniform(0.05, 8.0),
            B=-rng.uniform(0.1, 10.0),
            rate=rng.uniform(0.1, 10.0),
        )
        yield tl.Kasahara(alpha=rng.uniform(0.1, 0.95), B=rng.uniform(0.1, 10.0))


class TestCoefficientIdentity:
    def test_examples(self):
        assert tl.coefficient_identity_check(tl.Kohlbecker(2.0, 2.0)) == pytest.approx(
            (1.0, 1.0, 0.0), abs=1e-14
        )
        assert tl.coefficient_identity_check(tl.Kasahara(0.5, 1.0)) == pytest.approx(
            (0.25, 0.25, 0.0), abs=1e-14
        )

    def test_500_random_specs_per_variant(self):
        rng = np.random.default_rng(123)
        for spec in _random_specs(rng, 500):
            _, _, gap = tl.coefficient_identity_check(spec)
            assert gap < 1e-12, spec

    def test_kasahara_statement_and_proof_forms_agree(self):
        # (1-alpha)*(alpha/B)**(alpha/(1-alpha)) == (1-alpha)*(B/alpha)**(alpha/(alpha-1))
        rng = np.random.default_rng(5)
        for _ in range(500):
            alpha = rng.uniform(0.05, 0.95)
            B = rng.uniform(0.1, 10.0)
            lhs = (1.0 - alpha) * (alpha / B) ** (alpha / (1.0 - alpha))
            rhs = (1.0 - alpha) * (B / alpha) ** (alpha / (alpha - 1.0))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLambdaExponentIdentities:
    """The displayed lambda powers versus the dual exponent, in exact rationals."""

    def test_kohlbecker(self):
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(11)):
            b = 1 / alpha
            assert b / (1 - b) == 1 / (alpha - 1)

    def test_kasahara_via_reciprocal_argument(self):
        for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            b = 1 / alpha
            assert -(b / (1 - b)) == 1 / (1 - alpha)

    def test_debruijn_via_reciprocal_argument(self):
        for beta in (Fraction(-1), Fraction(-5, 2), Fraction(-1, 3)):
            assert -(beta / (1 - beta)) == beta / (beta - 1)


class TestClassify:
    def test_examples(self):
        assert tl.classify(tl.validate(2.0, 0.5, -1.0)) == tl.Kohlbecker(2.0, 2.0)
        assert tl.classify(tl.validate(-1.0, 2.0, 1.0, offset=1.0)) == tl.Kasahara(0.5, 1.0)
        assert tl.classify(tl.validate(-1.0, -1.0, -1.0)) == tl.DeBruijn(-1.0, -1.0, 1.0)

    def test_round_trip_exact_on_dyadic_alphas(self):
        # 1/(1/alpha) is exact in binary floating point for dyadic alpha, so
        # classify(to_unified(spec)) reproduces the spec bit for bit.
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha = float(2 ** rng.integers(1, 6)) + float(
                rng.integers(0, 8)
            ) / 8.0 + 1.0
            B = float(rng.uniform(0.1, 10.0))
            spec = tl.Kohlbecker(alpha=alpha, B=B)
            if 1.0 / (1.0 / alpha) == alpha:
                assert tl.classify(tl.to_unified(spec).params) == spec
        for _ in range(200):
            alpha = 1.0 / float(rng.integers(2, 64))
            if 1.0 / (1.0 / alpha) != alpha:
                continue
            spec = tl.Kasahara(alpha=alpha, B=float(rng.uniform(0.1, 10.0)))
            assert tl.classify(tl.to_unified(spec).params) == spec

    def test_debruijn_round_trip_exact_for_any_floats(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            spec = tl.DeBruijn(
                beta=-float(rng.uniform(0.05, 8.0)),
                B=-float(rng.uniform(0.1, 10.0)),
                rate=float(rng.uniform(0.1, 10.0)),
            )
            assert tl.classify(tl.to_unified(spec).params) == spec

    def test_non_canonical_rate_keeps_a_b(self):
        p = tl.validate(2.0, 0.5, -3.0)
        spec = tl.classify(p)
        assert spec == tl.Kohlbecker(alpha=2.0, B=2.0)
