"""Iterative reference algorithms: K-subspaces and EM for mixtures of PCA.

Both alternate between assigning points to subspaces and refitting each
subspace by (weighted) PCA. They are sensitive to initialization, which is
exactly why the algebraic segmentation makes a good warm start; both accept
either seeded random bases or a list of already-fitted models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormal_completion
from .errors import FitError
from .segmentation import Segmentation, SubspaceModel, assign

__all__ = ["IterativeConfig", "k_subspaces", "em_mixture_pca"]

_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class IterativeConfig:
    """Shared knobs: iteration cap, absolute objective tolerance, and init.

    When `init_models` is given it takes priority over the seed; bases are
    reshaped to the requested per-subspace dimensions if they disagree.
    """

    max_iters: int = 300
    tol: float = 1e-9
    seed: int = 0
    init_models: tuple[SubspaceModel, ...] | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.init_models is not None:
            object.__setattr__(self, "init_models", tuple(self.init_models))


def _random_complements(rng, D, dims):
    bases = []
    for d in dims:
        mat, _ = np.linalg.qr(rng.standard_normal((D, D - d)))
        bases.append(mat)
    return bases


def _resize_complement(B, D, d):
    """Trim or orthonormally extend a complement basis to D - d columns."""
    want = D - d
    if B.shape[1] == want:
        return B
    if B.shape[1] > want:
        return B[:, :want]
    extra = orthonormal_completion(B)
    return np.hstack([B, extra[:, : want - B.shape[1]]])


def _initial_bases(X, n, dims, config):
    D = X.shape[1]
    if config.init_models is not None:
        if len(config.init_models) != n:
            raise ValueError(
                f"{len(config.init_models)} init models for {n} subspaces"
            )
        return [
            _resize_complement(np.asarray(m.complement_basis, dtype=float), D, d)
            for m, d in zip(config.init_models, dims)
        ]
    rng = np.random.default_rng(config.seed)
    return _random_complements(rng, D, dims)


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


def k_subspaces(
    X,
    n: int,
    dims,
    config: IterativeConfig = IterativeConfig(),
    objective_history: list | None = None,
):
    """Alternating assignment and per-cluster PCA refit.

    Returns (Segmentation, iterations). The objective, the sum of squared
    complement residuals at the assigned subspaces, never increases: the
    refit step is optimal per cluster and the assignment step is a pointwise
    argmin. Stops at a label fixpoint, objective stall, or max_iters.
    Pass a list as `objective_history` to collect the per-iteration values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dims = [int(d) for d in (dims if np.iterable(dims) else [dims] * n)]
    if len(dims) != n:
        raise ValueError(f"{len(dims)} dims for {n} subspaces")
    N, D = X.shape
    bases = _initial_bases(X, n, dims, config)
    residuals = _residual_matrix(X, bases)
    labels = np.argmin(residuals, axis=1)
    objective = float((residuals[np.arange(N), labels] ** 2).sum())
    if objective_history is not None:
        objective_history.append(objective)
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        for cluster in range(n):
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
        done = np.array_equal(new_labels, labels) or abs(objective - new_objective) <= config.tol
        labels = new_labels
        objective = new_objective
        if done:
            break
    models = _models_from_bases(X, bases, dims, labels)
    final_labels, final_residuals = assign(X, models)
    return (
        Segmentation(models=models, labels=final_labels, residuals=final_residuals),
        iterations,
    )


def em_mixture_pca(
    X,
    n: int,
    dims,
    noise_variance: float = 1e-2,
    config: IterativeConfig = IterativeConfig(),
    likelihood_history: list | None = None,
):
    """EM for a mixture of PCA models with isotropic complement noise.

    Each component is a subspace plus zero-mean Gaussian noise in the
    directions orthogonal to it. The E-step computes responsibilities from
    the complement residual likelihoods; the M-step refits each complement
    by responsibility-weighted PCA and updates mixing weights and variances.
    Returns (Segmentation, responsibilities, iterations); the observed-data
    log-likelihood is non-decreasing across iterations. Pass a list as
    `likelihood_history` to collect the per-iteration values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dims = [int(d) for d in (dims if np.iterable(dims) else [dims] * n)]
    if len(dims) != n:
        raise ValueError(f"{len(dims)} dims for {n} subspaces")
    if noise_variance <= 0:
        raise ValueError("noise variance must be positive")
    N, D = X.shape
    bases = _initial_bases(X, n, dims, config)
    codims = np.array([D - d for d in dims], dtype=float)
    sigma2 = np.full(n, float(noise_variance))
    weights = np.full(n, 1.0 / n)
    log_likelihood = -np.inf
    iterations = 0
    responsibilities = np.full((N, n), 1.0 / n)
    residual2 = np.column_stack([np.sum((X @ B) ** 2, axis=1) for B in bases])
    for iterations in range(1, config.max_iters + 1):
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

        if abs(new_log_likelihood - log_likelihood) <= config.tol:
            log_likelihood = new_log_likelihood
            break
        log_likelihood = new_log_likelihood
    labels = np.argmax(responsibilities, axis=1)
    models = _models_from_bases(X, bases, dims, labels)
    final_labels, final_residuals = assign(X, models)
    return (
        Segmentation(models=models, labels=final_labels, residuals=final_residuals),
        responsibilities,
        iterations,
    )


def _models_from_bases(X, bases, dims, labels):
    models = []
    for cluster, (B, d) in enumerate(zip(bases, dims)):
        member = np.flatnonzero(labels == cluster)
        if member.size:
            res = np.linalg.norm(X[member] @ B, axis=1)
            representative = X[member[int(np.argmin(res))]]
        else:
            representative = np.zeros(X.shape[1])
        models.append(
            SubspaceModel(complement_basis=B, dim=int(d), representative=representative)
        )
    return tuple(models)
