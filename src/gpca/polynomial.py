"""Homogeneous polynomials as coefficient vectors over the canonical monomials.

Supports evaluation, gradients read off the coefficients through
`raise_table` (never through numerical differences of the data), multiplication
and least-squares division by linear forms, and a plain-text round-trip
format used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .veronese import monomial_basis, monomial_count, raise_table, veronese_lift

__all__ = [
    "HomogeneousPolynomial",
    "PolynomialBasis",
    "evaluate",
    "gradient",
    "basis_gradients",
    "lift_matrix",
    "multiply_by_linear",
    "product_of_linear_forms",
    "divide_by_linear",
    "to_text",
    "from_text",
]

# Coefficient stacks more rank-deficient than this are rejected at construction.
_INDEPENDENCE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class HomogeneousPolynomial:
    """A degree-n homogeneous polynomial in dim variables.

    `coefficients[p]` multiplies the monomial at position p of
    monomial_basis(degree, dim).
    """

    degree: int
    dim: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).ravel()
        expected = monomial_count(self.degree, self.dim)
        if coeffs.shape[0] != expected:
            raise ValueError(
                f"degree {self.degree} in dim {self.dim} needs {expected} "
                f"coefficients, got {coeffs.shape[0]}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        return evaluate(self, x)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True, eq=False)
class PolynomialBasis:
    """Linearly independent degree-n polynomials in dim variables.

    `coefficients` is the read-only (m, M) stack, one polynomial per row,
    over monomial_basis(degree, dim). Iterating yields the rows as
    HomogeneousPolynomial.
    """

    degree: int
    dim: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        stack = np.array(self.coefficients, dtype=float)
        count = monomial_count(self.degree, self.dim)
        if stack.ndim != 2 or stack.shape[0] == 0 or stack.shape[1] != count:
            raise ValueError(
                f"degree {self.degree} in dim {self.dim} needs a nonempty (m, {count}) "
                f"coefficient stack, got shape {stack.shape}"
            )
        sv = np.linalg.svd(stack, compute_uv=False)
        if stack.shape[0] > count or sv[-1] <= _INDEPENDENCE_RTOL * sv[0]:
            raise ValueError("coefficient vectors are not linearly independent")
        stack.flags.writeable = False
        object.__setattr__(self, "coefficients", stack)

    def __len__(self) -> int:
        return self.coefficients.shape[0]

    def __iter__(self):
        return (HomogeneousPolynomial(self.degree, self.dim, c) for c in self.coefficients)

    def evaluate(self, x) -> np.ndarray:
        """Values of all basis polynomials: (m,) for one point, (N, m) batched."""
        return veronese_lift(x, self.degree) @ self.coefficients.T


def evaluate(p: HomogeneousPolynomial, x):
    """p(x) as coefficients dotted with the lifted point; batched over rows."""
    lifted = veronese_lift(x, p.degree)
    value = lifted @ p.coefficients
    return float(value) if np.isscalar(value) or value.ndim == 0 else value


def gradient(p: HomogeneousPolynomial, x):
    """Gradient of p at x from its differentiated coefficients.

    Returns (D,) for a single point or (N, D) for a batch. The data itself is
    never differenced; only the lift of degree n-1 is evaluated.
    """
    rows = _derivative_rows(p.degree, p.dim, p.coefficients[None, :])[:, :, 0]
    return veronese_lift(x, p.degree - 1) @ rows


def basis_gradients(P: PolynomialBasis, x):
    """Gradients of all basis polynomials, one per column.

    Returns (D, m) for a single point x, or (N, D, m) for an (N, D) batch.
    """
    lifted = veronese_lift(x, P.degree - 1)
    rows = _derivative_rows(P.degree, P.dim, P.coefficients)
    grads = lifted @ rows.reshape(rows.shape[0], -1)
    return grads.reshape(lifted.shape[:-1] + rows.shape[1:])


def _derivative_rows(degree: int, dim: int, coeff_matrix: np.ndarray) -> np.ndarray:
    """(M_{n-1}, D, m) tensor: entry (f, v, i) is d(polynomial i)/dx_v's coefficient of f.

    Monomial f of degree n-1 times x_v differentiates back to (e_v + 1) * f.
    """
    lower = monomial_basis(degree - 1, dim)
    return coeff_matrix.T[raise_table(degree, dim)] * (lower + 1.0)[:, :, None]


def lift_matrix(b, degree: int) -> np.ndarray:
    """Read-only (M_{n-1}, M_n) matrix of multiplication by the linear form b^T x.

    Row f holds the degree-n coefficients of (monomial f of degree n-1) * (b^T x),
    so for any degree-(n-1) coefficient vector c and any x:
    (c @ veronese_lift(x, n-1)) * (b @ x) == (c @ matrix) @ veronese_lift(x, n).
    """
    b = np.asarray(b, dtype=float).ravel()
    if degree < 1:
        raise ValueError("lift needs degree >= 1")
    table = raise_table(degree, b.shape[0])
    mat = np.zeros((table.shape[0], monomial_count(degree, b.shape[0])))
    mat[np.arange(table.shape[0])[:, None], table] += b
    mat.flags.writeable = False
    return mat


def multiply_by_linear(p: HomogeneousPolynomial, b) -> HomogeneousPolynomial:
    """The product p(x) * (b^T x), one degree higher."""
    lift = lift_matrix(b, p.degree + 1)
    return HomogeneousPolynomial(p.degree + 1, p.dim, p.coefficients @ lift)


def product_of_linear_forms(normals) -> HomogeneousPolynomial:
    """Polynomial vanishing on the union of the hyperplanes b_i^T x = 0."""
    normals = [np.asarray(b, dtype=float).ravel() for b in normals]
    if not normals:
        raise ValueError("need at least one linear form")
    dim = normals[0].shape[0]
    p = HomogeneousPolynomial(1, dim, normals[0])
    for b in normals[1:]:
        p = multiply_by_linear(p, b)
    return p


def divide_by_linear(p: HomogeneousPolynomial, b) -> tuple[HomogeneousPolynomial, float]:
    """Least-squares division of p by the linear form b^T x.

    Returns the degree-(n-1) quotient and the coefficient-space residual
    norm. The residual is ~0 exactly when b^T x divides p; with noisy
    coefficients it doubles as a divisibility diagnostic.
    """
    b = np.asarray(b, dtype=float).ravel()
    if np.linalg.norm(b) == 0.0:
        raise ValueError("cannot divide by the zero form")
    if p.degree < 1:
        raise ValueError("division needs degree >= 1")
    lift = lift_matrix(b, p.degree)
    # Solve c_low @ R = c in least squares; R always has full row rank for b != 0
    # because multiplication by a nonzero form is injective.
    c_low, _, rank, _ = np.linalg.lstsq(lift.T, p.coefficients, rcond=None)
    if rank < lift.shape[0]:
        raise ArithmeticError("division matrix unexpectedly rank deficient")
    residual = float(np.linalg.norm(c_low @ lift - p.coefficients))
    return HomogeneousPolynomial(p.degree - 1, p.dim, c_low), residual


def to_text(p: HomogeneousPolynomial) -> str:
    """One-line header `degree dim`, then the coefficients in canonical order."""
    coeffs = " ".join(repr(float(c)) for c in p.coefficients)
    return f"{p.degree} {p.dim}\n{coeffs}\n"


def from_text(text: str) -> HomogeneousPolynomial:
    """Inverse of to_text; round-trips exactly."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected a header line and a coefficient line")
    try:
        degree, dim = (int(tok) for tok in lines[0].split())
        coeffs = np.array([float(tok) for tok in lines[1].split()])
    except ValueError as exc:
        raise ValueError(f"malformed polynomial text: {exc}") from exc
    return HomogeneousPolynomial(degree, dim, coeffs)
