"""Iterative reference algorithms: K-subspaces and EM for mixtures of PCA.

Both alternate between assigning points to subspaces and refitting each
subspace by (weighted) PCA. They are sensitive to initialization, which is
exactly why the algebraic segmentation makes a good warm start; both accept
either seeded random bases or a list of already-fitted models.

Each iteration is a fixed number of whole-array operations on the
nearest-subspace kernel that `segmentation.assign` and `segment` share,
whatever the number of subspaces n: with the per-point outer products x xᵀ
formed once per call (N·D² floats), one batched eigh of the weighted
scatters refits every complement (`_refit`), and one batched product of the
zero-padded complement stack gives every squared residual (`_residual2`).
The last iteration's residuals give the result's labels and representatives.
"""

from __future__ import annotations

import numpy as np

from ._linalg import orthonormal_completion
from .errors import FitError
from .segmentation import (
    Segmentation,
    _models,
    _nearest,
    _outer_products,
    _refit,
    _residual2,
    _stack,
)

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
    """Float X, int dims and the complement stack.

    The stack holds the init models' complements resized to dims, else seeded random ones.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise ValueError("points must be finite; got NaN or inf")
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one subspace")
    D = X.shape[1]
    if any(not 0 < d < D for d in dims):
        raise ValueError(f"subspace dims must lie strictly between 0 and {D}, got {dims}")
    if init_models is None:
        rng = np.random.default_rng(seed)
        bases = [np.linalg.qr(rng.standard_normal((D, D - d)))[0] for d in dims]
    elif len(init_models) != len(dims):
        raise ValueError(f"{len(init_models)} init models for {len(dims)} subspaces")
    else:
        bases = [
            _resize_complement(np.asarray(m.complement_basis, dtype=float), D, d)
            for m, d in zip(init_models, dims)
        ]
    return X, dims, _stack(bases)


def _finish(X, stack, dims, residual2):
    """The final stack's segmentation; a model is shown by its best-fit nearest point, or zeros."""
    labels, residuals = _nearest(residual2)
    nearest = labels == np.arange(len(dims))[:, None]
    own = np.where(nearest, residual2, np.inf)
    best = np.where(nearest.any(axis=1)[:, None], X[np.argmin(own, axis=1)], 0.0)
    return Segmentation(_models(stack, dims, best), labels, residuals)


def _reseed_basis(X, residual2, d, D):
    """Deterministic re-seed for an emptied cluster from the worst-fit point.

    The new subspace contains the worst point, completed with the data's
    leading principal directions orthogonalized against it.
    """
    worst = X[int(np.argmax(residual2))]
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


def k_subspaces(X, dims, *, seed=0, init_models=None, objective_history: list | None = None):
    """Alternating assignment and PCA refit of every cluster.

    Returns (Segmentation, iterations). The objective, the sum of squared
    complement residuals at the assigned subspaces, never increases: the
    refit step is optimal per cluster and the assignment step is a pointwise
    argmin. Each iteration refits all clusters with one scatter product of
    the one-hot labels and one batched eigh, then re-seeds any emptied
    cluster from the pre-refit residuals. Stops at a label fixpoint, an
    objective change of at most TOL, or MAX_ITERS. One subspace per entry of
    `dims`; `init_models` take priority over `seed`. Pass a list as
    `objective_history` to collect the per-iteration values.
    """
    X, dims, stack = _start(X, dims, seed, init_models)
    D = X.shape[1]
    Z = _outer_products(X)
    clusters = np.arange(len(dims))
    residual2 = _residual2(X, stack)
    labels = np.argmin(residual2, axis=0)
    fit2 = residual2.min(axis=0)
    objective = float(fit2.sum())
    if objective_history is not None:
        objective_history.append(objective)
    for iterations in range(1, MAX_ITERS + 1):
        onehot = labels == clusters[:, None]
        stack = _refit(onehot.astype(float), Z, dims)
        for k in np.flatnonzero(~onehot.any(axis=1)):
            stack[k, :, : D - dims[k]] = _reseed_basis(X, fit2, dims[k], D)
        residual2 = _residual2(X, stack)
        new_labels = np.argmin(residual2, axis=0)
        fit2 = residual2.min(axis=0)
        new_objective = float(fit2.sum())
        if objective_history is not None:
            objective_history.append(new_objective)
        done = np.array_equal(new_labels, labels) or abs(objective - new_objective) <= TOL
        labels = new_labels
        objective = new_objective
        if done:
            break
    return _finish(X, stack, dims, residual2), iterations


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
    all responsibilities from the complement residual likelihoods with one
    max-shifted log-sum-exp; the M-step refits every complement by
    responsibility-weighted PCA, one scatter product of the responsibilities
    and one batched eigh, re-seeds any emptied component, and updates mixing
    weights and variances.
    Returns (Segmentation, responsibilities, iterations); the observed-data
    log-likelihood is non-decreasing, and a change of at most TOL or
    MAX_ITERS stops it. A model is shown by its best-fit point among those
    nearest to it, not among those where it has the highest responsibility.
    Other arguments are as for `k_subspaces`; pass a list as
    `likelihood_history` to collect the per-iteration values.
    """
    if not (np.isfinite(noise_variance) and noise_variance > 0):
        raise ValueError(f"noise variance must be finite and positive, got {noise_variance}")
    X, dims, stack = _start(X, dims, seed, init_models)
    D = X.shape[1]
    Z = _outer_products(X)
    codims = np.array([D - d for d in dims], dtype=float)
    sigma2 = np.full(len(dims), float(noise_variance))
    weights = np.full(len(dims), 1.0 / len(dims))
    log_likelihood = -np.inf
    residual2 = _residual2(X, stack)
    for iterations in range(1, MAX_ITERS + 1):
        log_density = (
            (np.log(weights) - 0.5 * codims * np.log(2.0 * np.pi * sigma2))[:, None]
            - (0.5 / sigma2)[:, None] * residual2
        )
        # finite everywhere (sigma2 and the weights are floored), so a max shift suffices
        top = log_density.max(axis=0)
        density = np.exp(log_density - top)
        total = density.sum(axis=0)
        responsibilities = density / total
        new_log_likelihood = float(np.sum(top + np.log(total)))
        if likelihood_history is not None:
            likelihood_history.append(new_log_likelihood)

        mass = responsibilities.sum(axis=1)
        stack = _refit(responsibilities, Z, dims)
        for k in np.flatnonzero(mass <= 1e-10):
            stack[k, :, : D - dims[k]] = _reseed_basis(X, residual2.min(axis=0), dims[k], D)
        mass = np.maximum(mass, 1e-10)
        residual2 = _residual2(X, stack)
        sigma2 = np.maximum(
            (responsibilities * residual2).sum(axis=1) / (codims * mass), _VARIANCE_FLOOR
        )
        weights = mass / mass.sum()

        if abs(new_log_likelihood - log_likelihood) <= TOL:
            break
        log_likelihood = new_log_likelihood
    return _finish(X, stack, dims, residual2), responsibilities.T, iterations
