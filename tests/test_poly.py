"""Exact polynomial arithmetic: ring laws, calculus, evaluation, JSON."""
import random
from fractions import Fraction

import pytest

from zmcgraph.poly import RationalPoly, ZERO_POLY


def rp(*coeffs):
    return RationalPoly(coeffs)


def random_poly(rng, max_deg=6):
    return RationalPoly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, max_deg + 1))]
    )


class TestArithmetic:
    def test_monomial_product(self):
        # 4y times the constant 4
        assert rp(0, 4) * rp(4) == rp(0, 16)

    def test_add_zero_identity(self):
        p = rp(1, Fraction(2, 3), 0, 5)
        assert p + ZERO_POLY == p
        assert ZERO_POLY + p == p

    def test_cubic_times_linear(self):
        prod = rp(0, 0, 0, -8) * rp(0, 4)
        assert prod == rp(0, 0, 0, 0, -32)
        assert prod(Fraction(2)) == Fraction(-512)

    def test_sub_and_neg(self):
        p = rp(1, 2, 3)
        assert p - p == ZERO_POLY
        assert -p + p == ZERO_POLY

    def test_scale(self):
        assert rp(0, 4).scale(Fraction(1, 2)) == rp(0, 2)
        assert rp(1, 1).scale(0) == ZERO_POLY

    def test_degree_law_on_random_products(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q = random_poly(rng), random_poly(rng)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree == p.degree + q.degree


class TestCanonicalForm:
    def test_trailing_zeros_trimmed_at_construction(self):
        assert RationalPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_zero_poly_has_empty_coeffs(self):
        assert ZERO_POLY.coeffs == ()
        assert ZERO_POLY.is_zero
        assert ZERO_POLY.degree == -1

    def test_cancellation_renormalizes(self):
        p = rp(1, 0, 3)
        q = rp(0, 0, -3)
        assert (p + q).coeffs == (Fraction(1),)

    def test_operations_never_leave_trailing_zeros(self):
        rng = random.Random(11)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            for r in (p + q, p - q, p * q, p.derivative(), p.antiderivative_zero()):
                assert not r.coeffs or r.coeffs[-1] != 0

    def test_immutability(self):
        p = rp(1, 2)
        with pytest.raises(AttributeError):
            p.coeffs = ()


class TestCalculus:
    def test_derivative_linear(self):
        assert rp(0, 4).derivative() == rp(4)

    def test_derivative_cubic(self):
        assert rp(0, 0, 0, -8).derivative() == rp(0, 0, -24)

    def test_derivative_constant(self):
        assert rp(5).derivative() == ZERO_POLY

    def test_antiderivative_linear(self):
        assert rp(0, -48).antiderivative_zero() == rp(0, 0, -24)

    def test_antiderivative_zero_poly(self):
        assert ZERO_POLY.antiderivative_zero() == ZERO_POLY

    def test_double_antiderivative(self):
        got = rp(0, -48).antiderivative_zero().antiderivative_zero()
        assert got == rp(0, 0, 0, -8)

    def test_derivative_inverts_antiderivative(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_poly(rng)
            assert p.antiderivative_zero().derivative() == p

    def test_antiderivative_vanishes_at_zero(self):
        rng = random.Random(17)
        for _ in range(50):
            p = random_poly(rng)
            assert p.antiderivative_zero()(Fraction(0)) == 0


class TestEvaluation:
    def test_exact_rational_point(self):
        v = rp(0, 0, 0, -8)(Fraction(1, 2))
        assert v == Fraction(-1)
        assert isinstance(v, Fraction)

    def test_zero_poly_evaluates_to_zero(self):
        assert ZERO_POLY(Fraction(3, 7)) == 0
        assert ZERO_POLY(123.5) == 0.0

    def test_quintic_at_one(self):
        assert rp(0, 0, 0, 0, 0, -32)(Fraction(1)) == Fraction(-32)

    def test_float_horner_matches_exact(self):
        rng = random.Random(19)
        for _ in range(100):
            p = random_poly(rng)
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
            exact = float(p(y))
            approx = p(float(y))
            assert approx == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_multiplicativity_at_rational_points(self):
        rng = random.Random(23)
        for _ in range(100):
            p, q = random_poly(rng), random_poly(rng)
            y = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            assert (p * q)(y) == p(y) * q(y)


class TestSerialization:
    def test_coefficient_strings(self):
        assert rp(0, 0, 0, -8).to_json() == ["0", "0", "0", "-8"]

    def test_fraction_strings_stay_exact(self):
        p = rp(Fraction(1, 2), Fraction(-100, 3))
        assert p.to_json() == ["1/2", "-100/3"]
        assert RationalPoly(p.to_json()) == p

    def test_round_trip_random(self):
        rng = random.Random(29)
        for _ in range(50):
            p = random_poly(rng)
            assert RationalPoly(p.to_json()) == p

    def test_str_is_the_construct_form(self):
        assert str(rp(Fraction(1, 2), 0, 0, -8)) == "1/2 + -8*y^3"
        assert str(rp(0, Fraction(-1, 3))) == "-1/3*y"
        assert str(ZERO_POLY) == "0"
        assert repr(rp(0, 4)) == "RationalPoly(4*y)"

    def test_zero_poly_round_trip(self):
        assert ZERO_POLY.to_json() == []
        assert RationalPoly([]) == ZERO_POLY
