"""Homogeneous polynomials as coefficient vectors over the canonical monomials.

Supports evaluation, basis gradients read off the coefficients through
`raise_table` (never through numerical differences of the data), the matrix
of multiplication by a linear form, and the plain-text format of the CLI
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .veronese import monomial_basis, monomial_count, raise_table, veronese_lift

__all__ = [
    "HomogeneousPolynomial",
    "PolynomialBasis",
    "evaluate",
    "basis_gradients",
    "lift_matrix",
    "to_text",
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
        # orthonormal rows, such as null_vectors gives, are independent: every
        # singular value is 1 to rounding, so only other stacks need the SVD
        m = stack.shape[0]
        if m > count or not np.abs(stack @ stack.T - np.eye(m)).max() <= 1e-12:
            sv = np.linalg.svd(stack, compute_uv=False)
            if m > count or sv[-1] <= _INDEPENDENCE_RTOL * sv[0]:
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


def to_text(p: HomogeneousPolynomial) -> str:
    """One-line header `degree dim`, then the coefficients in canonical order."""
    coeffs = " ".join(repr(float(c)) for c in p.coefficients)
    return f"{p.degree} {p.dim}\n{coeffs}\n"
