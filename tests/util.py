"""Shared builders for test arrangements, polynomial oracles and the per-pair normal angle."""

import numpy as np

from gpca._linalg import null_vectors, orthonormal_completion, triangular_factor
from gpca.fitting import KAPPA, _rank_criterion, select_rank
from gpca.polynomial import HomogeneousPolynomial, PolynomialBasis, basis_gradients, lift_matrix
from gpca.segmentation import _ROUNDING_D2, _TRUNCATION_MARGIN, PINV_RTOL, _values_and_gradients
from gpca.synthgen import generate_from_bases
from gpca.veronese import monomial_basis, monomial_count, raise_table

# Introductory configuration: the z-axis line union the xy-plane.
LINE_SPAN = np.array([[0.0], [0.0], [1.0]])
PLANE_SPAN = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def line_and_plane(points_per=120, noise=0.0, seed=1):
    """Line x1=x2=0 union plane x3=0 in R^3."""
    return generate_from_bases([LINE_SPAN, PLANE_SPAN], points_per, noise, seed=seed)


def two_coordinate_lines(points_per=200, noise=0.0, seed=7):
    """The x-axis union the y-axis in R^3; both sit inside the plane x3=0."""
    l1 = np.array([[1.0], [0.0], [0.0]])
    l2 = np.array([[0.0], [1.0], [0.0]])
    return generate_from_bases([l1, l2], points_per, noise, seed=seed)


def lines_plus_plane(points_per=200, noise=0.0, seed=11):
    """Two coordinate axes plus the plane x1 + x2 = 0: mixed dimensions."""
    l1 = np.array([[1.0], [0.0], [0.0]])
    l2 = np.array([[0.0], [1.0], [0.0]])
    plane = np.column_stack(
        [np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0), np.array([0.0, 0.0, 1.0])]
    )
    return generate_from_bases([l1, l2, plane], points_per, noise, seed=seed)


def random_projection(X, new_dim, seed):
    """X projected by a row-orthonormalized Gaussian (new_dim, D) map drawn from `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    mat, _ = np.linalg.qr(rng.standard_normal((X.shape[1], new_dim)))
    return X @ mat


def monomial_position(exponents, dim):
    """Row of the exponent tuple in monomial_basis of its degree."""
    basis = monomial_basis(sum(exponents), dim)
    return int(np.flatnonzero((basis == np.asarray(exponents)).all(axis=1))[0])


def monomial_polynomial(exponents, dim):
    """The single monomial x^exponents as a HomogeneousPolynomial."""
    degree = sum(exponents)
    coeffs = np.zeros(monomial_count(degree, dim))
    coeffs[monomial_position(exponents, dim)] = 1.0
    return HomogeneousPolynomial(degree, dim, coeffs)


def intro_quadratic_basis():
    """The basis {x1*x3, x2*x3} of the line-plus-plane configuration."""
    rows = [monomial_polynomial(e, 3).coefficients for e in ((1, 0, 1), (0, 1, 1))]
    return PolynomialBasis(2, 3, np.vstack(rows))


def gradient(p, x):
    """Gradient of one polynomial: the one-row basis_gradients, (D,) or (N, D)."""
    return basis_gradients(PolynomialBasis(p.degree, p.dim, p.coefficients[None, :]), x)[..., 0]


def product_of_linear_forms(normals):
    """Polynomial vanishing on the union of the hyperplanes b_i^T x = 0."""
    coeffs = np.asarray(normals[0], dtype=float)
    for degree, b in enumerate(normals[1:], start=2):
        coeffs = coeffs @ lift_matrix(b, degree)
    return HomogeneousPolynomial(len(normals), len(normals[0]), coeffs)


def peel(embedded, model):
    """The vanishing basis one degree down once `model` is divided out of the fit.

    The factor's transpose keeps the embedded matrix's spectrum and column
    span. Its product with the lift of a complement direction b has row
    f = sum_v b_v * (row of f * x_v); these blocks, side by side, are reduced
    by one triangular factorization, and `select_rank` sizes the basis.
    """
    raised = embedded.factor.T[raise_table(embedded.degree, embedded.dim)]
    blocks = model.complement_basis.T @ raised
    factor = triangular_factor(blocks.reshape(blocks.shape[0], -1))
    nullity = select_rank(np.linalg.svd(factor, compute_uv=False)).nullity
    return PolynomialBasis(embedded.degree - 1, embedded.dim, null_vectors(factor, nullity).T)


def pca_complement(members, dim):
    """Complement of the rows' dim-dim PCA subspace: trailing right vectors of their factor.

    One QR and one SVD per group, the reference for the batched one-hot refit.
    """
    _, _, rows = np.linalg.svd(triangular_factor(members.T))
    return rows[dim:].T


def polynomial_from_text(text):
    """Parse `to_text` output: a `degree dim` line, then the coefficients."""
    header, coeffs = text.splitlines()
    return HomogeneousPolynomial(*map(int, header.split()), np.array(coeffs.split(), dtype=float))


def product_basis(spans, degree=None):
    """Orthonormalized span of all one-normal-per-subspace products."""
    from itertools import product as iter_product

    comps = [orthonormal_completion(np.atleast_2d(s)) for s in spans]
    dim = comps[0].shape[0]
    rows = []
    for combo in iter_product(*[range(c.shape[1]) for c in comps]):
        normals = [comps[i][:, j] for i, j in enumerate(combo)]
        rows.append(product_of_linear_forms(normals).coefficients)
    mat = np.vstack(rows)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    return PolynomialBasis(len(spans), dim, vt[s > 1e-10 * s[0]])


def brute_force_distance(x, spans):
    """Exact distance to a union of subspaces via orthogonal projections."""
    return min(np.linalg.norm(x - U @ (U.T @ x)) for U in spans)


def svd_distance2(P, X):
    """algebraic_distance2 at (N, D) points by a batched SVD of the gradients, for any m."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values, grads = _values_and_gradients(P, X)
    _, sv, rows = np.linalg.svd(grads, full_matrices=False)
    top = sv[:, 0]
    reach = top * np.linalg.norm(X, axis=1)
    scale = _TRUNCATION_MARGIN * P.degree * np.linalg.norm(values, axis=1)
    scale = scale / np.where(reach > 0.0, reach, 1.0)
    ranks, _ = _rank_criterion(sv, np.maximum(KAPPA, scale**2), sv.shape[1])
    keep = (np.arange(sv.shape[1]) < ranks[:, None]) & (sv > PINV_RTOL * sv[:, :1])
    proj = np.einsum("nkm,nm->nk", rows, values)
    safe_sv = np.where(keep & (sv > 0.0), sv, 1.0)
    d2 = np.where(keep, (proj / safe_sv) ** 2, 0.0).sum(axis=1) / float(P.degree) ** 2
    d2 = np.where(d2 > _ROUNDING_D2 * np.einsum("nd,nd->n", X, X), d2, 0.0)
    return np.where(top > 0.0, d2, np.inf)


def vector_angle(u, v):
    """Sign-invariant angle between two nonzero vectors, radians in [0, pi/2].

    Built on atan2 so angles near zero keep full relative precision.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle with a zero vector is undefined")
    u = u / nu
    v = v / nv
    dot = float(u @ v)
    if dot < 0.0:
        v = -v
        dot = -dot
    perp = v - dot * u
    return float(np.arctan2(np.linalg.norm(perp), dot))
