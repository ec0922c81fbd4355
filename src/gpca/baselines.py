"""Iterative reference algorithms: K-subspaces and EM for mixtures of PCA.

Both alternate between assigning points to subspaces and refitting each
subspace by (weighted) PCA. They are sensitive to initialization, which is
exactly why the algebraic segmentation makes a good warm start; both accept
either seeded random bases or a list of already-fitted models.
"""

from __future__ import annotations

import numpy as np

from ._linalg import orthonormal_completion
from .errors import FitError
from .segmentation import Segmentation, SubspaceModel, assign

__all__ = ["MAX_ITERS", "TOL", "k_subspaces", "em_mixture_pca"]

# Iteration cap and absolute objective tolerance of both algorithms.
MAX_ITERS = 300
TOL = 1e-9
_VARIANCE_FLOOR = 1e-12


def _resize_complement(B, D, d):
    """Trim or orthonormally extend a complement basis to D - d columns."""
    want = D - d
    if B.shape[1] == want:
        return B
    if B.shape[1] > want:
        return B[:, :want]
    extra = orthonormal_completion(B)
    return np.hstack([B, extra[:, : want - B.shape[1]]])


def _start(X, dims, seed, init_models):
    """Float X, int dims, and init models' complements resized to dims, else seeded random ones."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise ValueError("points must be finite; got NaN or inf")
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one subspace")
    D = X.shape[1]
    if init_models is None:
        rng = np.random.default_rng(seed)
        return X, dims, [np.linalg.qr(rng.standard_normal((D, D - d)))[0] for d in dims]
    if len(init_models) != len(dims):
        raise ValueError(f"{len(init_models)} init models for {len(dims)} subspaces")
    return X, dims, [
        _resize_complement(np.asarray(m.complement_basis, dtype=float), D, d)
        for m, d in zip(init_models, dims)
    ]


def _finish(X, bases, dims, labels) -> Segmentation:
    """The models of the final bases, each shown by its best-fit member, and their assignment."""
    models = []
    for cluster, (B, d) in enumerate(zip(bases, dims)):
        member = np.flatnonzero(labels == cluster)
        if member.size:
            res = np.linalg.norm(X[member] @ B, axis=1)
            representative = X[member[int(np.argmin(res))]]
        else:
            representative = np.zeros(X.shape[1])
        models.append(SubspaceModel(complement_basis=B, dim=d, representative=representative))
    models = tuple(models)
    return Segmentation(models, *assign(X, models))


def _complement_from_cluster(points, d, D, weights=None):
    """Minor principal directions of a (weighted) cluster as complement basis."""
    if weights is None:
        scatter = points.T @ points
    else:
        scatter = (points * weights[:, None]).T @ points
    eigvals, eigvecs = np.linalg.eigh(scatter)
    # ascending eigenvalues: the leading columns are the minor directions
    return eigvecs[:, : D - d]


def _reseed_basis(X, residuals, d, D):
    """Deterministic re-seed for an emptied cluster from the worst-fit point.

    The new subspace contains the worst point, completed with the data's
    leading principal directions orthogonalized against it.
    """
    worst = X[int(np.argmax(residuals))]
    worst = worst / max(np.linalg.norm(worst), 1e-300)
    span = [worst]
    _, _, rows = np.linalg.svd(X, full_matrices=False)
    for direction in rows:
        if len(span) == d:
            break
        cand = direction - sum((direction @ s) * s for s in span)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            span.append(cand / norm)
    if len(span) < d:
        raise FitError(
            f"cannot re-seed a {d}-dimensional subspace: the data span fewer directions"
        )
    span_mat = np.column_stack(span)
    return orthonormal_completion(span_mat)


def _log_sum_exp(a):
    """Row-wise log(sum(exp(a))) of a 2-D array, as scipy.special.logsumexp.

    The row maximum and its ties are split out of the sum for precision:
    log1p(s / m) + log(m) + max, with s the sum of exp(a - max) over the
    other entries and m the number of ties. Rows where that is not finite
    (an all -inf row, an overflow) take the direct log of the sum.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=1))
        top = np.max(a, axis=1, keepdims=True)
        at_top = a == top
        ties = np.sum(at_top, axis=1, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=1, keepdims=True)
        rest = np.where(rest == 0, rest, rest / ties)
        out = (np.log1p(rest) + np.log(ties) + top)[:, 0]
    return np.where(np.isfinite(out), out, direct)


def _residual_matrix(X, bases):
    return np.column_stack([np.linalg.norm(X @ B, axis=1) for B in bases])


def k_subspaces(X, dims, *, seed=0, init_models=None, objective_history: list | None = None):
    """Alternating assignment and per-cluster PCA refit.

    Returns (Segmentation, iterations). The objective, the sum of squared
    complement residuals at the assigned subspaces, never increases: the
    refit step is optimal per cluster and the assignment step is a pointwise
    argmin. Stops at a label fixpoint, an objective change of at most TOL,
    or MAX_ITERS. One subspace per entry of `dims`; `init_models` take
    priority over `seed`. Pass a list as `objective_history` to collect
    the per-iteration values.
    """
    X, dims, bases = _start(X, dims, seed, init_models)
    N, D = X.shape
    residuals = _residual_matrix(X, bases)
    labels = np.argmin(residuals, axis=1)
    objective = float((residuals[np.arange(N), labels] ** 2).sum())
    if objective_history is not None:
        objective_history.append(objective)
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        for cluster in range(len(dims)):
            member = labels == cluster
            if not member.any():
                point_res = residuals[np.arange(N), labels]
                bases[cluster] = _reseed_basis(X, point_res, dims[cluster], D)
                continue
            bases[cluster] = _complement_from_cluster(X[member], dims[cluster], D)
        residuals = _residual_matrix(X, bases)
        new_labels = np.argmin(residuals, axis=1)
        new_objective = float((residuals[np.arange(N), new_labels] ** 2).sum())
        if objective_history is not None:
            objective_history.append(new_objective)
        done = np.array_equal(new_labels, labels) or abs(objective - new_objective) <= TOL
        labels = new_labels
        objective = new_objective
        if done:
            break
    return _finish(X, bases, dims, labels), iterations


def em_mixture_pca(
    X,
    dims,
    noise_variance: float = 1e-2,
    *,
    seed=0,
    init_models=None,
    likelihood_history: list | None = None,
):
    """EM for a mixture of PCA models with isotropic complement noise.

    A variant of the mixture of probabilistic PCA of Tipping & Bishop
    (Neural Computation, 1999): each component is a subspace plus zero-mean
    Gaussian noise in the directions orthogonal to it. The E-step computes
    responsibilities from the complement residual likelihoods; the M-step
    refits each complement by responsibility-weighted PCA and updates
    mixing weights and variances.
    Returns (Segmentation, responsibilities, iterations); the observed-data
    log-likelihood is non-decreasing, and a change of at most TOL or
    MAX_ITERS stops it. Other arguments are as for `k_subspaces`; pass a
    list as `likelihood_history` to collect the per-iteration values.
    """
    if not (np.isfinite(noise_variance) and noise_variance > 0):
        raise ValueError(f"noise variance must be finite and positive, got {noise_variance}")
    X, dims, bases = _start(X, dims, seed, init_models)
    N, D = X.shape
    n = len(dims)
    codims = np.array([D - d for d in dims], dtype=float)
    sigma2 = np.full(n, float(noise_variance))
    weights = np.full(n, 1.0 / n)
    log_likelihood = -np.inf
    iterations = 0
    responsibilities = np.full((N, n), 1.0 / n)
    residual2 = np.column_stack([np.sum((X @ B) ** 2, axis=1) for B in bases])
    for iterations in range(1, MAX_ITERS + 1):
        log_density = (
            np.log(weights)[None, :]
            - 0.5 * codims[None, :] * np.log(2.0 * np.pi * sigma2)[None, :]
            - 0.5 * residual2 / sigma2[None, :]
        )
        norm = _log_sum_exp(log_density)
        responsibilities = np.exp(log_density - norm[:, None])
        new_log_likelihood = float(norm.sum())
        if likelihood_history is not None:
            likelihood_history.append(new_log_likelihood)

        mass = responsibilities.sum(axis=0)
        for cluster in range(n):
            if mass[cluster] <= 1e-10:
                point_res = np.sqrt(residual2.min(axis=1))
                bases[cluster] = _reseed_basis(X, point_res, dims[cluster], D)
                mass[cluster] = 1e-10
                continue
            bases[cluster] = _complement_from_cluster(
                X, dims[cluster], D, weights=responsibilities[:, cluster]
            )
        residual2 = np.column_stack([np.sum((X @ B) ** 2, axis=1) for B in bases])
        sigma2 = np.maximum(
            (responsibilities * residual2).sum(axis=0) / (codims * np.maximum(mass, 1e-300)),
            _VARIANCE_FLOOR,
        )
        weights = np.maximum(mass / N, 1e-300)
        weights = weights / weights.sum()

        if abs(new_log_likelihood - log_likelihood) <= TOL:
            log_likelihood = new_log_likelihood
            break
        log_likelihood = new_log_likelihood
    labels = np.argmax(responsibilities, axis=1)
    return _finish(X, bases, dims, labels), responsibilities, iterations
