"""Exact rational polynomial utilities."""

from fractions import Fraction

import pytest

from tautdr.qpoly import QPoly, newton_interpolate, power_sum_poly


def test_constructor_trims_and_compares():
    assert QPoly([1, 2, 0, 0]) == QPoly([1, 2])
    assert QPoly([]) == QPoly.constant(0)
    assert not QPoly([0])
    assert QPoly([Fraction(1, 2)]) == Fraction(1, 2)


def test_arithmetic_matches_pointwise_evaluation():
    p = QPoly([1, -3, Fraction(5, 7)])
    q = QPoly([0, 2, 0, 1])
    for x in range(-4, 5):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p**3)(x) == p(x) ** 3
        assert (-p)(x) == -p(x)
        assert (p + 5)(x) == p(x) + 5
        assert (2 - p)(x) == 2 - p(x)


def test_composition_and_shift():
    # p = 1 + x + x^2 composed by hand with q = x^2 and with x + 2
    p = QPoly([1, 1, 1])
    q = QPoly([0, 0, 1])
    assert 1 + q + q * q == QPoly([1, 0, 1, 0, 1])
    x_plus_2 = QPoly([2, 1])
    shifted = 1 + x_plus_2 + x_plus_2**2
    assert shifted == QPoly([7, 5, 1])
    for x in range(-3, 4):
        assert shifted(x) == p(x + 2)


def test_degree_and_constant_predicates():
    assert QPoly([5]).degree == 0
    assert QPoly([0, 0, 3]).degree == 2
    assert QPoly().degree == -1


def test_power_sum_poly_against_brute_force():
    # Convention: F_k(n) = sum_{x=0}^{n} x**k with 0**0 == 1.
    for k in range(6):
        p = power_sum_poly(k)
        for n in range(0, 12):
            expected = sum(Fraction(j) ** k for j in range(0, n + 1))
            assert p(n) == expected


def test_sum_over_range_brute_force():
    p = QPoly([2, -1, Fraction(1, 3), 1])
    for lo in range(-3, 4):
        for hi in range(lo - 1, lo + 6):
            expected = sum(p(x) for x in range(lo, hi + 1))
            assert p.sum_over_range(lo, hi) == expected


def test_newton_interpolation_roundtrip():
    p = QPoly([Fraction(3, 2), 0, -7, Fraction(1, 5)])
    points = [(x, p(x)) for x in (2, 5, 7, 11)]
    assert newton_interpolate(points) == p
    # Non-consecutive, unsorted nodes are fine.
    points = [(11, p(11)), (2, p(2)), (7, p(7)), (5, p(5))]
    assert newton_interpolate(points) == p


def test_newton_interpolation_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        newton_interpolate([(1, 1), (1, 2)])
