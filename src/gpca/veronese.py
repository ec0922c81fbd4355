"""Monomial combinatorics of degree-n homogeneous polynomials in D variables.

Everything in the package hangs off one canonical monomial ordering:
exponent tuples sorted degree-lexicographically with the first variable
most significant. For degree 2 in three variables the order is

    x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2

and coefficient vectors and embedded data matrices use positions in this
order.

In this order the degree-k monomials led by x_v are x_v times the last
monomial_count(k - 1, D - v) monomials of degree k - 1, those in x_v..x_D.
A lift therefore builds each degree from the one below as D column-scaled
tail blocks, each multiplied in place into its columns of one column-major
array: no temporaries, no concatenation, and the layout in which LAPACK's
QR reads the lift. One index table, (degree-(n-1) monomial, variable) ->
position of the raised monomial, carries differentiation and
multiplication by a linear form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "monomial_count",
    "monomial_basis",
    "veronese_lift",
    "raise_table",
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


def veronese_lift(x, degree: int) -> np.ndarray:
    """Evaluate all degree-n monomials at x.

    x may be a single D-vector (returns shape (M,)) or an (N, D) batch of
    points (returns shape (N, M)), with M = monomial_count(degree, D). The
    batch is column-major.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    dim = pts.shape[1]
    monomial_count(degree, dim)  # rejects degree < 0 and points without coordinates
    # Column-major, so every column block below is one contiguous run.
    pts = np.asfortranarray(pts)
    lifted = np.ones((pts.shape[0], 1), order="F")
    for k in range(1, degree + 1):
        below, lifted = lifted, np.empty((pts.shape[0], monomial_count(k, dim)), order="F")
        start = 0
        for v in range(dim):
            width = monomial_count(k - 1, dim - v)
            np.multiply(pts[:, v : v + 1], below[:, -width:], out=lifted[:, start : start + width])
            start += width
    return lifted[0] if single else lifted


@lru_cache(maxsize=None)
def raise_table(degree: int, dim: int) -> np.ndarray:
    """Entry (f, v) is the degree-n position of monomial f of degree n-1 times x_v."""
    positions = _position_table(degree, dim)
    raised = monomial_basis(degree - 1, dim)[:, None, :] + np.eye(dim, dtype=np.int64)
    table = np.array([[positions[tuple(e)] for e in row] for row in raised.tolist()])
    table.flags.writeable = False
    return table
