"""Monomial combinatorics of degree-n homogeneous polynomials in D variables.

Everything in the package hangs off one canonical monomial ordering:
exponent tuples sorted degree-lexicographically with the first variable
most significant. For degree 2 in three variables the order is

    x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2

and coefficient vectors, embedded data matrices, and the constant
differentiation matrices all use positions in this order.

A lift raises each coordinate once to the powers it carries (the power
table) and multiplies the per-variable powers in variable order. One index
table, (degree-(n-1) monomial, variable) -> position of the raised monomial,
builds the differentiation and the multiplication-by-a-linear-form matrices.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "monomial_count",
    "monomial_basis",
    "monomial_position",
    "veronese_lift",
    "raise_table",
    "derivative_operator",
]


def monomial_count(degree: int, dim: int) -> int:
    """Number of degree-n monomials in D variables: C(n + D - 1, D - 1)."""
    if degree < 0 or dim < 1:
        raise ValueError(f"need degree >= 0 and dim >= 1, got ({degree}, {dim})")
    count = math.comb(degree + dim - 1, dim - 1)
    if count > np.iinfo(np.intp).max:
        raise OverflowError(
            f"monomial count {count} for degree={degree}, dim={dim} exceeds "
            "addressable array sizes"
        )
    return count


@lru_cache(maxsize=None)
def monomial_basis(degree: int, dim: int) -> np.ndarray:
    """Exponents of all degree-n monomials in D variables, in the canonical order.

    Row p of the read-only (M, D) integer array holds the per-variable
    exponents of the monomial at position p.
    """
    exps = np.zeros((monomial_count(degree, dim), dim), dtype=np.int64)
    for position, combo in enumerate(combinations_with_replacement(range(dim), degree)):
        for var in combo:
            exps[position, var] += 1
    exps.flags.writeable = False
    return exps


@lru_cache(maxsize=None)
def _position_table(degree: int, dim: int) -> dict[tuple[int, ...], int]:
    rows = monomial_basis(degree, dim).tolist()
    return {tuple(exponents): position for position, exponents in enumerate(rows)}


def monomial_position(exponents, dim: int | None = None) -> int:
    """Position of an exponent tuple in the basis of its degree."""
    exponents = tuple(int(e) for e in exponents)
    if any(e < 0 for e in exponents):
        raise ValueError(f"negative exponent in {exponents}")
    if dim is None:
        dim = len(exponents)
    return _position_table(sum(exponents), dim)[exponents]


def veronese_lift(x, degree: int) -> np.ndarray:
    """Evaluate all degree-n monomials at x.

    x may be a single D-vector (returns shape (M,)) or an (N, D) batch of
    points (returns shape (N, M)), with M = monomial_count(degree, D).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    exps = monomial_basis(degree, pts.shape[1])
    # Power table (D, 1 + len(carried), N) with x ** 0 == 1 in row 0. numpy
    # squares exactly when 2 is a lone broadcast exponent but uses its SIMD pow
    # inside an exponent array, so raising to the exponents the basis carries
    # (just n when D == 1) rounds each x_v ** e_v as a per-variable loop does.
    carried = np.unique(exps[exps > 0])
    table = np.ones((pts.shape[1], carried.size + 1, pts.shape[0]))
    table[:, 1:, :] = (pts[:, :, None] ** carried).transpose(1, 2, 0)
    rows = np.searchsorted(carried, exps) + (exps > 0)
    lifted = np.ones((exps.shape[0], pts.shape[0]))
    for var in range(pts.shape[1]):
        lifted *= table[var][rows[:, var]]
    out = np.ascontiguousarray(lifted.T)
    return out[0] if single else out


@lru_cache(maxsize=None)
def raise_table(degree: int, dim: int) -> np.ndarray:
    """Entry (f, v) is the degree-n position of monomial f of degree n-1 times x_v."""
    positions = _position_table(degree, dim)
    raised = monomial_basis(degree - 1, dim)[:, None, :] + np.eye(dim, dtype=np.int64)
    table = np.array([[positions[tuple(e)] for e in row] for row in raised.tolist()])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def derivative_operator(degree: int, axis: int, dim: int) -> np.ndarray:
    """Constant (M_n, M_{n-1}) matrix realizing d/dx_axis on degree-n lifts.

    For every x: d(veronese_lift(x, degree))/dx_axis == matrix @ veronese_lift(x, degree - 1).
    Each row has at most one nonzero entry, the exponent of x_axis in that
    row's monomial; `axis` is 0-based. The read-only matrix is cached per
    (degree, axis, dim) since it is reused for every gradient evaluation.
    For degree 1 the lower lift is the scalar 1.
    """
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dim {dim}")
    if degree < 1:
        raise ValueError("differentiation needs degree >= 1")
    # Monomial f of degree n-1 times x_axis differentiates back to (e_axis + 1) * f.
    lower = monomial_basis(degree - 1, dim)
    mat = np.zeros((monomial_count(degree, dim), lower.shape[0]))
    mat[raise_table(degree, dim)[:, axis], np.arange(lower.shape[0])] = lower[:, axis] + 1.0
    mat.flags.writeable = False
    return mat
