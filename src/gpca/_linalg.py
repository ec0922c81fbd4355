"""Small dense linear-algebra helpers used throughout the package.

The fits carry an upper-triangular factor R with R^T R = A A^T for their
embedded matrix A (`triangular_factor`, LAPACK's blocked compact-WY QR,
which consumes A), take its spectrum from a values-only SVD of R and its
null directions from `null_vectors`. PCA (`discovery.project`) takes the
right singular vectors of the points' R.
"""

from __future__ import annotations

import numpy as np


def unit_rows(X):
    """Scale each row of X to unit Euclidean norm; zero rows are left at zero."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return X / safe


# Block size of the compact-WY QR. On the (1200, 126), (900, 220) and
# (1200, 330) lifts, 32 was as fast as any of 8-128, and 1.6-2.3x faster
# than np.linalg.qr (LAPACK dgeqrf).
_QR_BLOCK = 32


def triangular_factor(A):
    """Square upper-triangular R with R^T R = A A^T, for an (M, N) matrix A.

    R is the triangle of a QR factorization of A^T (Chan 1982): A = R^T Q^T,
    so R^T has A's left singular vectors and singular values, and R's right
    singular vectors are A's left ones. With N < M the (N, M) trapezoid is
    padded with zero rows, which add the M - N exact zeros of A's spectrum.
    The QR is LAPACK's blocked compact-WY `dgeqrt` (Schreiber & Van Loan
    1989), which makes the Householder reflectors of np.linalg.qr, so R
    equals its R to rounding, signs included. The factorization consumes A:
    LAPACK overwrites A^T in place when it is column-major, as the
    transpose of a `veronese_lift` is, so a caller that reads A afterwards
    passes a copy.
    """
    # scipy is imported on first use: it takes longer to import than gpca.
    from scipy.linalg import lapack

    A = np.asarray(A, dtype=float)
    M, N = A.shape
    qr, _, _ = lapack.dgeqrt(min(_QR_BLOCK, M, N), A.T, overwrite_a=True)
    R = np.triu(qr[:M])
    if N < M:
        R = np.vstack([R, np.zeros((M - N, M))])
    return R


# LAPACK block size of the regularizing QR; 8 was the fastest at M = 126-330.
_TPQRT_BLOCK = 8

# Inverse iteration stops once its block is null to within the
# regularization, ||R X||_F <= mu * sqrt(m): directions of one null cluster
# are then indistinguishable, and a block in a cluster larger than m would
# drift through it without settling. Otherwise it stops once a step moves the
# block by at most _STILL * sqrt(m) (the Frobenius norm of the moved part,
# which bounds the sines of the principal angles), or once a move below
# _SETTLED fails to shrink: the block has reached its rounding floor.
# _MAX_STEPS caps the steps on spectra with little gap at the nullity.
_STILL = 1e-13
_SETTLED = 1e-6
_MAX_STEPS = 100


def null_vectors(R, m: int) -> np.ndarray:
    """Orthonormal (M, m) basis of the m smallest right singular vectors of an upper-triangular R.

    The columns are in ascending order of singular value. For a
    `triangular_factor` R these are the trailing left singular vectors of
    its matrix. Block inverse iteration (Ipsen 1997) on the regularized
    R^T R + mu^2 I, mu = M * eps * ||R||_F, which has the same eigenvectors
    and stays solvable when R is exactly singular: each step makes two
    triangular solves against the triangle of [R; mu I] and re-orthonormalizes
    the block by a QR. The start is a fixed block, so two calls give the same
    bytes. A Rayleigh-Ritz step against R itself orders the columns.
    """
    # scipy is imported on first use: it takes longer to import than gpca.
    from scipy.linalg import lapack

    R = np.asarray(R, dtype=float)
    M = R.shape[0]
    mu = M * np.finfo(float).eps * np.linalg.norm(R) or 1.0
    # dtpqrt keeps R's zero lower triangle, and its Fortran-ordered result
    # goes to dtrtrs without a copy.
    stacked, *_ = lapack.dtpqrt(M, min(M, _TPQRT_BLOCK), R, mu * np.eye(M))
    block, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((M, m)))
    tol = _STILL * np.sqrt(m)
    last_move = np.inf
    for _ in range(_MAX_STEPS):
        step, _ = lapack.dtrtrs(stacked, lapack.dtrtrs(stacked, block, trans=1)[0])
        step = step / np.linalg.norm(step) if m == 1 else np.linalg.qr(step)[0]
        move = np.linalg.norm(step - block @ (block.T @ step))
        block, image = step, R @ step
        if np.linalg.norm(image) <= mu * np.sqrt(m) or move <= tol or _SETTLED > move >= last_move:
            break
        last_move = move
    _, rotation = np.linalg.eigh(image.T @ image)
    return block @ rotation


def orthonormal_completion(U):
    """Return an orthonormal basis of the orthogonal complement of span(U).

    U must have orthonormal columns (shape (D, k), k <= D); the result has
    shape (D, D - k).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    D, k = U.shape
    if k == 0:
        return np.eye(D)
    if k >= D:
        return np.zeros((D, 0))
    # Full SVD of U: the trailing left singular vectors span the complement.
    full, _, _ = np.linalg.svd(U, full_matrices=True)
    return full[:, k:]


def principal_angles(A, B):
    """Principal angles (radians, descending) between span(A) and span(B).

    Both inputs must have orthonormal columns. Uses the sine-based formula
    for small angles, where arccos of the cosine loses all precision.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k = min(A.shape[1], B.shape[1])
    if k == 0:
        return np.zeros(0)
    if A.shape[1] > B.shape[1]:
        A, B = B, A
    cos = np.linalg.svd(A.T @ B, compute_uv=False)[:k]
    cos = np.clip(cos, -1.0, 1.0)
    sin = np.linalg.svd(B - A @ (A.T @ B), compute_uv=False)[:k]
    sin = np.clip(sin, 0.0, 1.0)
    # cos ascending <-> angle descending; sin descending <-> angle descending.
    cos_desc_angle = cos[::-1]
    angles = np.where(cos_desc_angle > 0.7, np.arcsin(sin), np.arccos(cos_desc_angle))
    return np.sort(angles)[::-1]


def max_principal_angle(A, B):
    """Largest principal angle between the two column spans, in radians."""
    angles = principal_angles(A, B)
    return float(angles[0]) if angles.size else 0.0

