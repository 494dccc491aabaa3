import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgstar.polynomials import ONE, X, ZERO, IntPolynomial

from .strategies import coeff_lists, small_ints


def test_trailing_zeros_are_trimmed():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1


@pytest.mark.parametrize("coeffs", [(3, 0, 2), (3, 0, 2, 0, 0), (0, 0, 0), ()])
def test_every_iterable_gives_the_same_coefficients(coeffs):
    want = tuple(coeffs)
    while want and want[-1] == 0:
        want = want[:-1]
    for given in (list(coeffs), tuple(coeffs), bytes(coeffs), (c for c in coeffs)):
        assert IntPolynomial(given).coeffs == want
        assert type(IntPolynomial(given).coeffs) is tuple


def test_a_trimmed_tuple_is_stored_as_is():
    t = (1, 2, 3)
    assert IntPolynomial(t).coeffs is t
    assert IntPolynomial((1, 2, 0)).coeffs == (1, 2)


def test_zero_polynomial():
    assert ZERO.coeffs == ()
    assert ZERO.degree == -1
    assert ZERO.is_zero()
    assert IntPolynomial([0, 0]).is_zero()


def test_degree_of_constant_one_is_zero():
    assert ONE.degree == 0


def test_product_of_one_plus_x_with_itself():
    p = IntPolynomial([1, 1])
    assert (p * p).coeffs == (1, 2, 1)


def test_adding_zero_is_identity():
    p = IntPolynomial([3, -1, 4])
    assert p + ZERO == p


def test_shift_multiplies_by_power_of_x():
    assert IntPolynomial([1, 1]).shift(1).coeffs == (0, 1, 1)
    assert ZERO.shift(5) == ZERO
    with pytest.raises(ValueError):
        X.shift(-1)


def test_binomial_expansion():
    assert IntPolynomial.binomial(3).coeffs == (1, 3, 3, 1)
    assert IntPolynomial.binomial(0) == ONE
    assert IntPolynomial.binomial(4) == (ONE + X) ** 4


def test_binomial_row_matches_math_comb():
    for n in [*range(301), 2200]:
        assert IntPolynomial.binomial(n).coeffs == tuple(math.comb(n, k) for k in range(n + 1))


def test_scalar_multiplication():
    assert (2 * IntPolynomial([1, -3])).coeffs == (2, -6)
    assert (IntPolynomial([1, 1]) * 0) == ZERO


def test_evaluation():
    p = IntPolynomial([1, 4, 3])
    assert p(-1) == 0
    assert p(1) == 8
    assert p(10) == 341


def test_divide_linear_root_exact():
    p = IntPolynomial([1, 4, 3])  # (1 + x)(1 + 3x)
    q, rem = p.divide_linear_root(-1)
    assert rem == 0
    assert q.coeffs == (1, 3)
    with pytest.raises(ValueError):
        ZERO.divide_linear_root(-1)


def test_format():
    assert IntPolynomial([1, 3, 0, -2]).format("t") == "1 + 3t - 2t^3"
    assert IntPolynomial([0, 1, 1]).format() == "x + x^2"
    assert IntPolynomial([-1, -1]).format() == "-1 - x"
    assert ZERO.format() == "0"
    assert ONE.format() == "1"


@given(coeff_lists, coeff_lists, small_ints)
def test_ring_operations_commute_with_evaluation(a, b, x):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists, st.integers(0, 5), small_ints)
def test_power_and_shift_evaluate_consistently(a, k, x):
    p = IntPolynomial(a)
    assert (p ** k)(x) == p(x) ** k
    assert p.shift(k)(x) == p(x) * x ** k


@given(coeff_lists, small_ints)
def test_synthetic_division_reconstructs(a, r):
    p = IntPolynomial(a)
    if p.is_zero():
        return
    q, rem = p.divide_linear_root(r)
    assert rem == p(r)
    assert q * IntPolynomial([-r, 1]) + IntPolynomial([rem]) == p
