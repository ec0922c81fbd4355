"""Monomial enumeration, the polynomial embedding, and differentiation matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpca.veronese import (
    derivative_operator,
    monomial_basis,
    monomial_count,
    monomial_position,
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


def reference_lift(x, degree):
    """Oracle: the per-variable power loop, x_v ** e_v multiplied in variable order."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    exps = monomial_basis(degree, pts.shape[1])
    out = np.ones((pts.shape[0], exps.shape[0]))
    for var in range(pts.shape[1]):
        col = exps[:, var]
        active = col > 0
        if active.any():
            out[:, active] *= pts[:, var][:, None] ** col[active][None, :]
    return out[0] if single else out


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


def assert_identical(actual, expected):
    """Same shape, same values and the same sign on every zero."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


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
        for position, exponents in enumerate(basis):
            assert monomial_position(exponents, dim) == position

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


class TestLiftOracle:
    """The power-table lift is bit-identical to the per-variable power loop."""

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(0, 7))
    def test_batches_match_bit_for_bit(self, degree, dim):
        rng = np.random.default_rng(100 * degree + dim)
        for count in (2, 3, 9, 40, 400):
            X = mixed_scale_points(rng, count, dim)
            assert_identical(veronese_lift(X, degree), reference_lift(X, degree))

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(0, 7))
    def test_single_points_match_bit_for_bit(self, degree, dim):
        rng = np.random.default_rng(1000 + 100 * degree + dim)
        for x in mixed_scale_points(rng, 6, dim):
            assert_identical(veronese_lift(x, degree), reference_lift(x, degree))
        assert_identical(veronese_lift(np.zeros(dim), degree), reference_lift(np.zeros(dim), degree))

    def test_non_contiguous_input(self):
        X = np.asfortranarray(mixed_scale_points(np.random.default_rng(4), 30, 5))
        assert_identical(veronese_lift(X, 4), reference_lift(X, 4))
        assert_identical(veronese_lift(X[::2, 1:], 3), reference_lift(X[::2, 1:], 3))


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


class TestDerivativeOperator:
    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_lookup_oracle(self, degree, dim):
        for axis in range(dim):
            assert_identical(
                derivative_operator(degree, axis, dim),
                reference_derivative_matrix(degree, axis, dim),
            )

    def test_degree_two_first_variable(self):
        mat = derivative_operator(2, 0, 3)
        expected = np.array(
            [[2, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
            dtype=float,
        )
        assert np.array_equal(mat, expected)

    def test_degree_two_third_variable(self):
        mat = derivative_operator(2, 2, 3)
        expected = np.array(
            [[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 2]],
            dtype=float,
        )
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_degree_one_rows_are_kronecker_deltas(self, axis):
        mat = derivative_operator(1, axis, 4)
        assert mat.shape == (4, 1)
        assert np.array_equal(mat[:, 0], np.eye(4)[axis])

    def test_row_structure_single_nonzero(self):
        for degree, dim in [(2, 3), (3, 2), (4, 3)]:
            for axis in range(dim):
                mat = derivative_operator(degree, axis, dim)
                assert np.all((mat != 0).sum(axis=1) <= 1)
                assert np.array_equal(mat.sum(axis=1), monomial_basis(degree, dim)[:, axis])

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for degree, dim in [(2, 3), (3, 3), (4, 2), (3, 5)]:
            x = rng.uniform(-1.0, 1.0, size=dim)
            lower = veronese_lift(x, degree - 1)
            for axis in range(dim):
                step = np.zeros(dim)
                step[axis] = h
                numeric = (veronese_lift(x + step, degree) - veronese_lift(x - step, degree)) / (2 * h)
                analytic = derivative_operator(degree, axis, dim) @ lower
                scale = max(np.linalg.norm(numeric), 1.0)
                assert np.linalg.norm(numeric - analytic) <= 1e-6 * scale

    def test_euler_identity(self):
        # gradients contracted with the point recover degree times the value
        rng = np.random.default_rng(3)
        for degree, dim in [(2, 3), (3, 4), (5, 2)]:
            x = rng.standard_normal(dim)
            c = rng.standard_normal(monomial_count(degree, dim))
            lower = veronese_lift(x, degree - 1)
            total = sum(
                x[k] * (c @ derivative_operator(degree, k, dim) @ lower)
                for k in range(dim)
            )
            assert np.isclose(total, degree * (c @ veronese_lift(x, degree)), rtol=1e-10)

    def test_cached_instances_are_reused_and_readonly(self):
        a = derivative_operator(3, 1, 3)
        b = derivative_operator(3, 1, 3)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 99.0
