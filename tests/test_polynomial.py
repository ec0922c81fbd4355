"""Coefficient-vector polynomials: evaluation, gradients, lifts, text format."""

import numpy as np
import pytest
import sympy
from util import (
    gradient,
    intro_quadratic_basis,
    monomial_polynomial,
    monomial_position,
    polynomial_from_text,
    product_of_linear_forms,
)

from gpca.polynomial import (
    HomogeneousPolynomial,
    PolynomialBasis,
    basis_gradients,
    evaluate,
    lift_matrix,
    to_text,
)
from gpca.veronese import monomial_basis, monomial_count, veronese_lift


def to_sympy(p):
    symbols = sympy.symbols(f"x0:{p.dim}")
    expr = 0
    for mono, c in zip(monomial_basis(p.degree, p.dim), p.coefficients):
        term = sympy.Integer(1)
        for s, e in zip(symbols, mono.tolist()):
            term *= s**e
        expr += c * term
    return expr, symbols


class TestEvaluate:
    def test_monomial_on_line_point(self):
        p = monomial_polynomial((1, 0, 1), 3)  # x1*x3
        assert evaluate(p, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_zero_point(self):
        rng = np.random.default_rng(0)
        p = HomogeneousPolynomial(3, 4, rng.standard_normal(monomial_count(3, 4)))
        assert evaluate(p, np.zeros(4)) == 0.0

    def test_sum_of_monomials(self):
        c = monomial_polynomial((1, 0, 1), 3).coefficients + monomial_polynomial(
            (0, 1, 1), 3
        ).coefficients
        p = HomogeneousPolynomial(2, 3, c)
        assert evaluate(p, np.array([1.0, 1.0, 2.0])) == pytest.approx(4.0)

    def test_against_sympy_on_random_polynomials(self):
        rng = np.random.default_rng(1)
        for degree, dim in [(2, 3), (3, 2), (4, 3)]:
            p = HomogeneousPolynomial(
                degree, dim, rng.standard_normal(monomial_count(degree, dim))
            )
            expr, symbols = to_sympy(p)
            x = rng.uniform(-2, 2, size=dim)
            expected = float(expr.subs(dict(zip(symbols, x))))
            assert evaluate(p, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_batched_evaluation(self):
        rng = np.random.default_rng(2)
        p = HomogeneousPolynomial(2, 3, rng.standard_normal(6))
        X = rng.standard_normal((5, 3))
        vals = evaluate(p, X)
        assert vals.shape == (5,)
        for j in range(5):
            assert vals[j] == pytest.approx(evaluate(p, X[j]))

    def test_coefficient_length_validated(self):
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 3, np.ones(5))


class TestGradient:
    def test_intro_gradients_at_line_point(self):
        y = np.array([0.0, 0.0, 1.0])
        assert np.allclose(gradient(monomial_polynomial((1, 0, 1), 3), y), [1, 0, 0])
        assert np.allclose(gradient(monomial_polynomial((0, 1, 1), 3), y), [0, 1, 0])

    def test_intro_gradients_at_plane_point(self):
        y = np.array([1.0, 1.0, 0.0])
        assert np.allclose(gradient(monomial_polynomial((1, 0, 1), 3), y), [0, 0, 1])
        assert np.allclose(gradient(monomial_polynomial((0, 1, 1), 3), y), [0, 0, 1])

    def test_power_rule(self):
        p = monomial_polynomial((2, 0), 2)  # x1^2
        assert np.allclose(gradient(p, np.array([3.0, 0.0])), [6.0, 0.0])

    def test_against_sympy(self):
        rng = np.random.default_rng(3)
        for degree, dim in [(2, 3), (3, 3), (5, 2)]:
            p = HomogeneousPolynomial(
                degree, dim, rng.standard_normal(monomial_count(degree, dim))
            )
            expr, symbols = to_sympy(p)
            x = rng.uniform(-1.5, 1.5, size=dim)
            expected = [
                float(sympy.diff(expr, s).subs(dict(zip(symbols, x)))) for s in symbols
            ]
            assert np.allclose(gradient(p, x), expected, rtol=1e-9, atol=1e-10)

    def test_euler_identity(self):
        rng = np.random.default_rng(4)
        for degree, dim in [(2, 4), (4, 3)]:
            p = HomogeneousPolynomial(
                degree, dim, rng.standard_normal(monomial_count(degree, dim))
            )
            x = rng.standard_normal(dim)
            assert x @ gradient(p, x) == pytest.approx(degree * evaluate(p, x), rel=1e-10)


class TestBasisGradients:
    def test_intro_displays(self):
        P = intro_quadratic_basis()
        at_line = basis_gradients(P, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(at_line, [[1, 0], [0, 1], [0, 0]])
        at_plane = basis_gradients(P, np.array([1.0, 1.0, 0.0]))
        assert np.allclose(at_plane, [[0, 0], [0, 0], [1, 1]])

    def test_single_polynomial_reduces_to_gradient(self):
        # column i of a basis's gradients is the gradient of row i alone
        rng = np.random.default_rng(5)
        P = PolynomialBasis(3, 3, rng.standard_normal((3, 10)))
        x = rng.standard_normal(3)
        assert all(np.allclose(g, gradient(p, x)) for g, p in zip(basis_gradients(P, x).T, P))

    def test_batched_shape(self):
        P = intro_quadratic_basis()
        X = np.random.default_rng(6).standard_normal((4, 3))
        out = basis_gradients(P, X)
        assert out.shape == (4, 3, 2)
        for j in range(4):
            assert np.allclose(out[j], basis_gradients(P, X[j]))

    def test_independence_enforced(self):
        p = monomial_polynomial((1, 0, 1), 3)
        with pytest.raises(ValueError):
            PolynomialBasis(2, 3, np.vstack([p.coefficients, 2.0 * p.coefficients]))

    @pytest.mark.parametrize("shape", [(0, 6), (6,), (2, 5), (7, 6)])
    def test_stack_shape_enforced(self, shape):
        with pytest.raises(ValueError):
            PolynomialBasis(2, 3, np.ones(shape))

    def test_rows_iterate_as_polynomials(self):
        P = intro_quadratic_basis()
        rows = list(P)
        assert len(P) == len(rows) == 2
        assert all(r.degree == 2 and r.dim == 3 for r in rows)
        assert np.array_equal(np.vstack([r.coefficients for r in rows]), P.coefficients)
        with pytest.raises(ValueError):
            P.coefficients[0, 0] = 1.0


def reference_lift_matrix(b, degree):
    """Oracle: the multiplication matrix built through exponent-tuple lookups."""
    dim = b.shape[0]
    mat = np.zeros((monomial_count(degree - 1, dim), monomial_count(degree, dim)))
    for position, exponents in enumerate(monomial_basis(degree - 1, dim).tolist()):
        for var in range(dim):
            raised = list(exponents)
            raised[var] += 1
            mat[position, monomial_position(raised, dim)] += b[var]
    return mat


class TestLiftMatrix:
    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_matches_lookup_oracle_bit_for_bit(self, degree, dim):
        rng = np.random.default_rng(10 * degree + dim)
        for b in (
            rng.standard_normal(dim),
            rng.standard_normal(dim) * 1e3,
            -np.abs(rng.standard_normal(dim)),
            np.where(np.arange(dim) % 2 == 0, 0.0, -rng.uniform(1.0, 1e3, dim)),
            np.full(dim, -0.0),
        ):
            actual = lift_matrix(b, degree)
            expected = reference_lift_matrix(b, degree)
            assert np.array_equal(actual, expected)
            assert np.array_equal(np.signbit(actual), np.signbit(expected))

    def test_three_variable_layout(self):
        b = np.array([7.0, 11.0, 13.0])
        mat = lift_matrix(b, 2)
        b1, b2, b3 = b
        expected = np.array(
            [
                [b1, b2, b3, 0, 0, 0],
                [0, b1, 0, b2, b3, 0],
                [0, 0, b1, 0, b2, b3],
            ]
        )
        assert np.array_equal(mat, expected)

    def test_multiplication_by_first_variable_two_vars(self):
        mat = lift_matrix(np.array([1.0, 0.0]), 2)
        assert np.array_equal(mat, np.array([[1.0, 0, 0], [0, 1.0, 0]]))

    def test_defining_identity_random(self):
        rng = np.random.default_rng(7)
        for degree, dim in [(2, 3), (3, 3), (4, 2)]:
            b = rng.standard_normal(dim)
            c = rng.standard_normal(monomial_count(degree - 1, dim))
            x = rng.standard_normal(dim)
            lift = lift_matrix(b, degree)
            lhs = (c @ veronese_lift(x, degree - 1)) * (b @ x)
            rhs = (c @ lift) @ veronese_lift(x, degree)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_degree_one_is_row_vector(self):
        b = np.array([2.0, -3.0, 5.0])
        assert np.array_equal(lift_matrix(b, 1), b[None, :])


class TestDivision:
    def test_against_sympy_quotient(self):
        # the lift_matrix product divides by b^T x exactly, back to the factor
        x0, x1, x2 = sympy.symbols("x0:3")
        b = np.array([1.0, 2.0, -1.0])
        low = HomogeneousPolynomial(1, 3, np.array([3.0, -1.0, 2.0]))
        product = HomogeneousPolynomial(2, 3, low.coefficients @ lift_matrix(b, 2))
        expr, _ = to_sympy(product)
        quotient = sympy.simplify(expr / (b[0] * x0 + b[1] * x1 + b[2] * x2))
        low_expr, _ = to_sympy(low)
        difference = sympy.Poly(sympy.expand(low_expr - quotient), x0, x1, x2)
        assert all(abs(float(c)) < 1e-12 for c in difference.coeffs())


class TestProductGradients:
    def test_gradient_parallel_to_vanishing_factor(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            normals = [rng.standard_normal(3) for _ in range(3)]
            p = product_of_linear_forms(normals)
            # a point where exactly the first factor vanishes
            b = normals[0]
            basis = np.linalg.svd(b[None, :])[2][1:]
            for _ in range(20):
                y = basis.T @ rng.standard_normal(2)
                if all(abs(n @ y) > 0.1 for n in normals[1:]):
                    break
            g = gradient(p, y)
            cos = abs(g @ b) / (np.linalg.norm(g) * np.linalg.norm(b))
            assert cos == pytest.approx(1.0, abs=1e-10)


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        p = HomogeneousPolynomial(3, 4, rng.standard_normal(monomial_count(3, 4)))
        q = polynomial_from_text(to_text(p))
        assert q.degree == p.degree and q.dim == p.dim
        assert np.array_equal(q.coefficients, p.coefficients)
