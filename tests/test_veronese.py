"""Monomial enumeration, the polynomial embedding, and differentiation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import monomial_position

from gpca.polynomial import PolynomialBasis, basis_gradients
from gpca.veronese import (
    monomial_basis,
    monomial_count,
    raise_table,
    veronese_lift,
)


def brute_force_exponents(degree, dim):
    """Independent oracle: enumerate all exponent tuples summing to degree."""
    return sorted(
        (
            e
            for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) == degree
        ),
        reverse=True,
    )


def exact_lift(x, degree):
    """Oracle: every monomial as the exact rational product of the float inputs.

    Returns object arrays of the integer numerators and the (power-of-two)
    denominators, shaped (N, M), of x^e over monomial_basis(degree, D).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    exps = monomial_basis(degree, pts.shape[1]).astype(object)
    ratios = [[Fraction(v) for v in row] for row in pts.tolist()]
    num = np.array([[r.numerator for r in row] for row in ratios], dtype=object)
    den = np.array([[r.denominator for r in row] for row in ratios], dtype=object)
    return (
        np.prod(num[:, None, :] ** exps, axis=2),
        np.prod(den[:, None, :] ** exps, axis=2),
    )


def assert_within_product_rounding(actual, x, degree):
    """Each entry within (degree - 1) * u of the exact product, zeros signed as products.

    A product of n floats rounded n - 1 times, without underflow, is off by at
    most (n - 1) * u relative, u = 2**-53 (Rump, Bunger and Jeannerod, BIT
    2016). Rounding never changes a sign, and a zero's sign is the parity of
    the negative factors whatever the order of multiplication.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    actual = np.atleast_2d(actual)
    num, den = exact_lift(pts, degree)
    assert actual.shape == num.shape
    ratios = np.array([float(v).as_integer_ratio() for v in actual.ravel()], dtype=object)
    a_num = ratios[:, 0].reshape(actual.shape)
    a_den = ratios[:, 1].reshape(actual.shape)
    # |a - num/den| <= (n - 1) u |num/den|, with both sides times den * a_den * 2**53.
    error = abs(a_num * den - num * a_den) * 2**53
    bound = max(degree - 1, 0) * abs(num) * a_den
    assert np.all(error <= bound)
    negative = (monomial_basis(degree, pts.shape[1]) @ np.signbit(pts).T.astype(int)) % 2
    zeros = num == 0
    assert np.array_equal(np.signbit(actual)[zeros], negative.T[zeros].astype(bool))


def reference_derivative_matrix(degree, axis, dim):
    """Oracle: the differentiation matrix built through exponent-tuple lookups."""
    lower_positions = {
        tuple(e): position for position, e in enumerate(monomial_basis(degree - 1, dim).tolist())
    }
    mat = np.zeros((monomial_count(degree, dim), monomial_count(degree - 1, dim)))
    for position, exponents in enumerate(monomial_basis(degree, dim).tolist()):
        e = exponents[axis]
        if e == 0:
            continue
        lowered = list(exponents)
        lowered[axis] -= 1
        mat[position, lower_positions[tuple(lowered)]] = float(e)
    return mat


def mixed_scale_points(rng, count, dim):
    """Coordinates that are exact zeros, negative, of order 1 or of order 1e3."""
    X = rng.standard_normal((count, dim)) * rng.choice([1.0, -1.0, 1e3, -1e3], (count, dim))
    X[rng.random((count, dim)) < 0.15] = 0.0
    X[rng.random((count, dim)) < 0.05] = -0.0
    return X


class TestMonomialCount:
    def test_degree_two_three_vars(self):
        assert monomial_count(2, 3) == 6

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    def test_degree_one_is_dim(self, dim):
        assert monomial_count(1, dim) == dim

    def test_degree_three_three_vars_matches_enumeration(self):
        assert monomial_count(3, 3) == len(brute_force_exponents(3, 3)) == 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monomial_count(2, 0)
        with pytest.raises(ValueError):
            monomial_count(-1, 3)

    def test_huge_count_reports_overflow(self):
        with pytest.raises(OverflowError):
            monomial_count(500, 80)


class TestMonomialBasis:
    def test_canonical_order_degree_two(self):
        exps = monomial_basis(2, 3).tolist()
        assert exps == [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]

    def test_degree_one(self):
        exps = monomial_basis(1, 3).tolist()
        assert exps == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_degree_three_two_vars(self):
        exps = monomial_basis(3, 2).tolist()
        assert exps == [[3, 0], [2, 1], [1, 2], [0, 3]]

    @settings(deadline=None, max_examples=40)
    @given(degree=st.integers(1, 6), dim=st.integers(1, 5))
    def test_bijection_with_enumeration(self, degree, dim):
        basis = monomial_basis(degree, dim)
        assert basis.shape == (monomial_count(degree, dim), dim)
        assert [tuple(e) for e in basis.tolist()] == brute_force_exponents(degree, dim)

    def test_cached_and_readonly(self):
        basis = monomial_basis(3, 4)
        assert monomial_basis(3, 4) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 5


class TestVeroneseLift:
    def test_degree_two_entries(self):
        x = np.array([2.0, 3.0, 5.0])
        expected = [4.0, 6.0, 10.0, 9.0, 15.0, 25.0]
        assert np.allclose(veronese_lift(x, 2), expected)

    def test_zero_vector(self):
        assert np.all(veronese_lift(np.zeros(3), 2) == 0.0)

    def test_degree_three_two_vars(self):
        assert np.allclose(veronese_lift([1.0, 2.0], 3), [1.0, 2.0, 4.0, 8.0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 4))
        batch = veronese_lift(X, 3)
        for j in range(7):
            assert np.allclose(batch[j], veronese_lift(X[j], 3))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        for degree in (1, 2, 3, 4):
            x = rng.standard_normal(3)
            lam = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            lhs = veronese_lift(lam * x, degree)
            rhs = lam**degree * veronese_lift(x, degree)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_invalid_degree_and_empty_points_rejected(self):
        with pytest.raises(ValueError):
            veronese_lift(np.ones((3, 2)), -1)
        with pytest.raises(ValueError):
            veronese_lift(np.ones((3, 0)), 0)


class TestLiftOracle:
    """The lift is within (n - 1) * u of the exact product of its float inputs.

    The test names predate this oracle: the lift was once bit-identical to a
    per-variable power loop, a bound that the tail-block recursion gives up.
    """

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(0, 7))
    def test_batches_match_bit_for_bit(self, degree, dim):
        rng = np.random.default_rng(100 * degree + dim)
        for count in (2, 3, 9, 40, 400):
            X = mixed_scale_points(rng, count, dim)
            assert_within_product_rounding(veronese_lift(X, degree), X, degree)

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(0, 7))
    def test_single_points_match_bit_for_bit(self, degree, dim):
        rng = np.random.default_rng(1000 + 100 * degree + dim)
        for x in [*mixed_scale_points(rng, 6, dim), np.zeros(dim)]:
            lifted = veronese_lift(x, degree)
            assert lifted.shape == (monomial_count(degree, dim),)
            assert_within_product_rounding(lifted, x, degree)

    def test_non_contiguous_input(self):
        X = np.asfortranarray(mixed_scale_points(np.random.default_rng(4), 30, 5))
        assert_within_product_rounding(veronese_lift(X, 4), X, 4)
        assert_within_product_rounding(veronese_lift(X[::2, 1:], 3), X[::2, 1:], 3)


class TestRaiseTable:
    @pytest.mark.parametrize("degree, dim", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 5)])
    def test_entries_are_raised_monomials(self, degree, dim):
        table = raise_table(degree, dim)
        lower = monomial_basis(degree - 1, dim)
        assert table.shape == (len(lower), dim)
        for position, exponents in enumerate(lower.tolist()):
            for var in range(dim):
                raised = list(exponents)
                raised[var] += 1
                assert table[position, var] == monomial_position(raised, dim)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            raise_table(0, 3)


def monomial_gradients(X, degree):
    """basis_gradients of the basis of all degree-n monomials, (N, D, M_n)."""
    dim = np.shape(X)[-1]
    return basis_gradients(PolynomialBasis(degree, dim, np.eye(monomial_count(degree, dim))), X)


class TestDerivativeOperator:
    """Differentiation on Veronese coordinates, as basis_gradients computes it."""

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_lookup_oracle(self, degree, dim):
        # Each monomial's partial derivative is one term, so both sides are exact.
        X = mixed_scale_points(np.random.default_rng(10 * degree + dim), 20, dim)
        grads = monomial_gradients(X, degree)
        lower = veronese_lift(X, degree - 1)
        for axis in range(dim):
            expected = lower @ reference_derivative_matrix(degree, axis, dim).T
            assert np.array_equal(grads[:, axis, :], expected)

    def test_degree_two_first_variable(self):
        a, b, c = 2.0, 3.0, 5.0
        grads = monomial_gradients(np.array([a, b, c]), 2)
        assert np.array_equal(grads[0], [2 * a, b, c, 0, 0, 0])

    def test_degree_two_third_variable(self):
        a, b, c = 2.0, 3.0, 5.0
        grads = monomial_gradients(np.array([a, b, c]), 2)
        assert np.array_equal(grads[2], [0, 0, a, 0, b, 2 * c])

    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_degree_one_rows_are_kronecker_deltas(self, axis):
        # a degree-1 basis has its coefficients as gradients at every point
        rng = np.random.default_rng(axis)
        coeffs = np.vstack([np.eye(4)[axis], rng.standard_normal(4)])
        P = PolynomialBasis(1, 4, coeffs)
        for x in rng.standard_normal((3, 4)):
            assert np.array_equal(basis_gradients(P, x), coeffs.T)
        grads = basis_gradients(P, rng.standard_normal((5, 4)))
        assert np.array_equal(grads, np.broadcast_to(coeffs.T, (5, 4, 2)))

    def test_row_structure_single_nonzero(self):
        for degree, dim in [(2, 3), (3, 2), (4, 3)]:
            exps = monomial_basis(degree, dim)
            # at the all-ones point every monomial's gradient is its exponent row
            assert np.array_equal(monomial_gradients(np.ones(dim), degree), exps.T)
            # x_v * d(x^e)/dx_v == e_v * x^e: each partial derivative is one term
            x = np.random.default_rng(degree).uniform(0.5, 2.0, dim)
            grads = monomial_gradients(x, degree)
            expected = exps.T * veronese_lift(x, degree)
            assert np.allclose(x[:, None] * grads, expected, rtol=1e-14, atol=0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for degree, dim in [(2, 3), (3, 3), (4, 2), (3, 5)]:
            x = rng.uniform(-1.0, 1.0, size=dim)
            P = PolynomialBasis(degree, dim, rng.standard_normal((2, monomial_count(degree, dim))))
            grads = basis_gradients(P, x)
            for axis in range(dim):
                step = np.zeros(dim)
                step[axis] = h
                numeric = (P.evaluate(x + step) - P.evaluate(x - step)) / (2 * h)
                scale = max(np.linalg.norm(numeric), 1.0)
                assert np.linalg.norm(numeric - grads[axis]) <= 1e-6 * scale

    def test_euler_identity(self):
        # gradients contracted with the point recover degree times the value
        rng = np.random.default_rng(3)
        for degree, dim in [(2, 3), (3, 4), (5, 2)]:
            x = rng.standard_normal(dim)
            P = PolynomialBasis(degree, dim, rng.standard_normal((2, monomial_count(degree, dim))))
            total = x @ basis_gradients(P, x)
            assert np.allclose(total, degree * P.evaluate(x), rtol=1e-10)
