"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np


def unit_rows(X):
    """Scale each row of X to unit Euclidean norm; zero rows are left at zero."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return X / safe


# At two or more columns per row the QR route is the faster one; below that,
# LAPACK's own economy SVD is as fast or faster.
_QR_FIRST_RATIO = 2


def left_svd(A):
    """Left singular vectors and singular values of A, without the right factor.

    Returns the (M, min(M, N)) and (min(M, N),) arrays that
    np.linalg.svd(A, full_matrices=False) returns first, equal to rounding.
    A wide A is first reduced by a QR factorization of its transpose
    (Chan 1982): A = R^T Q^T, so the small square R^T has the same left
    singular vectors and singular values.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[1] >= _QR_FIRST_RATIO * A.shape[0]:
        A = np.linalg.qr(A.T, mode="r").T
    left, sv, _ = np.linalg.svd(A, full_matrices=False)
    return left, sv


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
