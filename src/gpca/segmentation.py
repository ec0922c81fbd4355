"""Segmenting a known number of subspaces by differentiating and dividing.

The pipeline per degree stage: fit the vanishing polynomials, pick the data
point closest to the arrangement by a first-order distance (`select_point`),
read the subspace's complement off the polynomial gradients at that point
(`model_at_point`), then divide the fitted polynomials by the recovered
linear forms to remove the subspace and repeat one degree lower. Labels
come last, by smallest residual against the recovered complements.

Each stage lifts the points once, to degree n-1: the gradients give the
values too, by Euler's identity. Distances at rounding level are exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import triangular_factor
from .errors import FitError, StageError
from .fitting import (
    KAPPA,
    _null_space_fit,
    _rank_criterion,
    embed,
    select_rank,
)
from .polynomial import PolynomialBasis, basis_gradients
from .veronese import raise_table

__all__ = [
    "SubspaceModel",
    "StageRecord",
    "Segmentation",
    "algebraic_distance2",
    "select_point",
    "model_at_point",
    "assign",
    "segment",
    "reject_outliers",
]

# Damping of select_point's score (distance + DELTA) / (residuals + DELTA) once
# some subspaces are known: the score stays finite on a recovered subspace,
# where the residual product is 0, and is at least 1 there.
DELTA = 0.02

# Singular values below this fraction of the largest are treated as zero in
# pseudo-inverses and gradient rank checks.
PINV_RTOL = 1e-10

# Points closer to the origin than this sit in every subspace and carry no
# directional information; they are never selected as representatives.
_MIN_POINT_NORM = 1e-12

# Representative candidates must have gradient magnitude above this fraction
# of the strongest gradient in the data: the vanishing-gradient exclusion at
# intersections, applied at floating-point scale.
_GRADIENT_FLOOR = 0.05

@dataclass(frozen=True, eq=False)
class SubspaceModel:
    """One subspace: orthonormal basis of its complement plus its dimension."""

    complement_basis: np.ndarray = field(repr=False)
    dim: int
    representative: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.complement_basis, dtype=float))
        if B.ndim != 2 or B.shape[0] < B.shape[1]:
            raise ValueError(f"complement basis has invalid shape {B.shape}")
        D, c = B.shape
        if not 0 < self.dim < D or c != D - self.dim:
            raise ValueError(
                f"dim {self.dim} inconsistent with a {D}x{c} complement basis"
            )
        # np.allclose(BᵀB, I, atol=1e-10) written out; a NaN fails the comparison
        eye = np.eye(c)
        if not (np.abs(B.T @ B - eye) <= 1e-10 + 1e-5 * eye).all():
            raise ValueError("complement basis columns are not orthonormal")
        B = B.copy()
        B.flags.writeable = False
        object.__setattr__(self, "complement_basis", B)
        object.__setattr__(
            self, "representative", np.asarray(self.representative, dtype=float).copy()
        )

    @property
    def ambient_dim(self) -> int:
        return self.complement_basis.shape[0]

    def residuals(self, X) -> np.ndarray:
        """Per-point distance to the subspace along its complement."""
        X = np.asarray(X, dtype=float)
        return np.linalg.norm(np.atleast_2d(X) @ self.complement_basis, axis=1)


@dataclass(frozen=True)
class StageRecord:
    """Diagnostics for one degree stage of the segmentation loop."""

    degree: int
    nullity: int
    picked_index: int
    model_dim: int


@dataclass(frozen=True, eq=False)
class Segmentation:
    """Full segmentation output: models, labels, residuals, diagnostics.

    Labels index into `models`; -1 marks points set aside as outliers.
    `vanishing_basis` is the top-degree basis `segment` fitted to all points;
    it is None for segmentations made another way.
    """

    models: tuple[SubspaceModel, ...]
    labels: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    stages: tuple[StageRecord, ...] = ()
    vanishing_basis: PolynomialBasis | None = field(default=None, repr=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.models)


def _values_and_gradients(P: PolynomialBasis, X):
    """Basis values (N, m) and gradients (N, D, m) at a batch of points.

    The values come from the gradients by Euler's identity for homogeneous
    degree-n polynomials, x . grad p(x) = n p(x), so only the degree-(n-1)
    lift is built.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grads = basis_gradients(P, X)
    return np.einsum("nd,ndm->nm", X, grads) / P.degree, grads


def algebraic_distance2(P: PolynomialBasis, x):
    """First-order squared distance from x to the zero set of the basis.

    Computed as values @ pinv(gradients^T gradients) @ values^T, scaled by
    1/degree^2 so that degree * sqrt of the result approximates the
    Euclidean distance to the nearest subspace. Points where the gradient
    matrix vanishes (intersections, the origin) get +inf, and distances at
    rounding level relative to ||x|| are exactly 0.

    The pseudo-inverse is truncated at the penalized-criterion rank of the
    gradient spectrum, not just at the absolute floor: when the basis holds
    more polynomials than the local complement dimension, the gradient
    matrix picks up spurious near-zero directions whose value/gradient
    ratios are O(1) noise and would swamp the distance.
    """
    x = np.asarray(x, dtype=float)
    d2, _ = _distance2(P, np.atleast_2d(x))
    return float(d2[0]) if x.ndim == 1 else d2


def _distance2(P: PolynomialBasis, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """algebraic_distance2 at (N, D) points, and the basis gradients (N, D, m) there."""
    values, grads = _values_and_gradients(P, X)
    if len(P) == 1:
        # A (D, 1) gradient's one singular value is its norm, its right vector [1].
        sv, rows = np.linalg.norm(grads, axis=1), np.ones((len(X), 1, 1))
    else:
        _, sv, rows = np.linalg.svd(grads, full_matrices=False)
    top = sv[:, 0]
    safe_top = np.where(top > 0.0, top, 1.0)
    # Per-point truncation scale: spurious directions shrink with the distance
    # itself, so the penalty floor is raised to the squared evident
    # displacement scale (degree * ||values|| / leading singular value).
    scale = _TRUNCATION_MARGIN * P.degree * np.linalg.norm(values, axis=1) / safe_top
    kappa_eff = np.maximum(KAPPA, scale**2)
    ranks, _ = _rank_criterion(sv, kappa_eff, sv.shape[1])
    keep = np.arange(sv.shape[1]) < ranks[:, None]
    keep &= sv > PINV_RTOL * sv[:, :1]
    proj = np.einsum("nkm,nm->nk", rows, values)
    safe_sv = np.where(keep & (sv > 0.0), sv, 1.0)
    terms = np.where(keep, (proj / safe_sv) ** 2, 0.0)
    d2 = terms.sum(axis=1) / float(P.degree) ** 2
    d2 = np.where(d2 > _ROUNDING_D2 * np.einsum("nd,nd->n", X, X), d2, 0.0)
    return np.where(top > 0.0, d2, np.inf), grads


# Headroom factor between the evident displacement scale and the smallest
# singular value treated as a genuine complement direction.
_TRUNCATION_MARGIN = 20.0

# Squared distances at or below this fraction of ||x||^2 (a relative distance
# of 1e-12) are rounding and count as 0, so exact data ties at zero at any
# scale and select_point's ties go to the lowest index, not to rounding.
_ROUNDING_D2 = 1e-24


def select_point(P: PolynomialBasis, X, already_found: tuple[SubspaceModel, ...] = ()) -> int:
    """Index of the best representative point for the next subspace.

    With no models found yet this is the plain first-order distance argmin.
    Once some complements are known, the distance is damped by how far each
    point sits from the already-recovered subspaces, steering the choice
    onto a subspace not yet seen. Ties resolve to the lowest index.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2, grads = _distance2(P, X)
    grad_norm = np.linalg.norm(grads, axis=(1, 2))
    valid = (
        np.isfinite(d2)
        & (np.linalg.norm(X, axis=1) >= _MIN_POINT_NORM)
        & (grad_norm > _GRADIENT_FLOOR * grad_norm.max())
    )
    if not valid.any():
        raise FitError("no candidate point has a nonzero polynomial gradient")
    if already_found:
        dist = np.sqrt(np.where(valid, d2, 0.0))
        denom = np.ones(X.shape[0])
        for model in already_found:
            denom *= model.residuals(X)
        score = (dist + DELTA) / (denom + DELTA)
    else:
        score = d2
    score = np.where(valid, score, np.inf)
    return int(np.argmin(score))


def model_at_point(P: PolynomialBasis, y) -> SubspaceModel:
    """Subspace model from the polynomial gradients at one point.

    The gradients' dominant left singular subspace is the complement basis;
    its rank is chosen by the same penalized spectral criterion used on the
    embedded data matrix, and the subspace dimension is the ambient
    dimension minus that rank.
    """
    y = np.asarray(y, dtype=float).ravel()
    D = y.shape[0]
    grads = basis_gradients(P, y)
    left, sv, _ = np.linalg.svd(grads, full_matrices=True)
    if sv[0] <= 0.0:
        raise FitError("polynomial gradients vanish at the chosen point")
    rank = select_rank(sv, allow_full_rank=True).effective_rank
    if rank >= D:
        raise FitError(
            "gradients span the whole space; the point is not on any subspace "
            "at the working tolerance"
        )
    return SubspaceModel(
        complement_basis=left[:, :rank], dim=D - rank, representative=y
    )


def _peel(factor: np.ndarray, degree: int, model: SubspaceModel) -> np.ndarray:
    """Triangular factor of the degree-(degree-1) fitting matrix once the model is divided out.

    The factor's transpose keeps the degree-`degree` matrix's spectrum and
    column span. Its product with the lift of a complement direction b has
    row f = sum_v b_v * (row of f * x_v); these blocks, side by side in
    complement-basis order, are reduced by `triangular_factor`'s QR.
    """
    raised = factor.T[raise_table(degree, model.ambient_dim)]
    blocks = model.complement_basis.T @ raised
    return triangular_factor(blocks.reshape(blocks.shape[0], -1))


def assign(X, models) -> tuple[np.ndarray, np.ndarray]:
    """Label every point with its nearest subspace; ties go to the lowest index."""
    models = tuple(models)
    if not models:
        raise ValueError("need at least one model to assign against")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    residual_matrix = np.column_stack([m.residuals(X) for m in models])
    labels = np.argmin(residual_matrix, axis=1)
    residuals = residual_matrix[np.arange(X.shape[0]), labels]
    return labels, residuals


def segment(X, n: int) -> Segmentation:
    """Segment a union of n subspaces from unlabeled points.

    Runs the descending-degree loop on the unit-norm points: fit vanishing
    polynomials, pick one representative point with `select_point`, read
    that subspace's complement off the gradients with `model_at_point`,
    peel the subspace off by polynomial division, and finally assign every
    point to its nearest recovered subspace.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if n < 1:
        raise ValueError("need n >= 1 subspaces")
    embedded = embed(X, n)
    points, dim = embedded.points, embedded.dim
    factor, sv = embedded.factor, embedded.singular_values
    models: list[SubspaceModel] = []
    stages: list[StageRecord] = []
    for degree in range(n, 0, -1):
        try:
            basis, decision = _null_space_fit(factor, sv, degree, dim)
            if degree == n:
                top_basis = basis
            idx = select_point(basis, points, tuple(models))
            model = model_at_point(basis, points[idx])
            models.append(model)
            stages.append(
                StageRecord(
                    degree=degree,
                    nullity=decision.nullity,
                    picked_index=idx,
                    model_dim=model.dim,
                )
            )
            if degree > 1:
                factor = _peel(factor, degree, model)
                sv = np.linalg.svd(factor, compute_uv=False)
        except FitError as exc:
            if isinstance(exc, StageError):
                raise
            raise StageError(degree, str(exc)) from exc
    labels, residuals = assign(X, models)
    return Segmentation(
        models=tuple(models),
        labels=labels,
        residuals=residuals,
        stages=tuple(stages),
        vanishing_basis=top_basis,
    )


def _chi2_quantile(q: float, dof: int) -> float:
    """Chi-square quantile, as scipy.stats.chi2.ppf computes it.

    After scipy.linalg, scipy.special imports in about 0.04 s and scipy.stats
    in about 0.7 s.
    """
    # scipy is imported on first use: it takes longer to import than gpca.
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2.0, q))


def reject_outliers(
    X,
    P: PolynomialBasis,
    mode: str = "percentile",
    threshold: float = 0.9,
    dof: int | None = None,
) -> np.ndarray:
    """Inlier mask from first-order distances to a fitted polynomial basis.

    "percentile" keeps points at or below the given quantile of the squared
    distances. "chi2" estimates the noise scale robustly (median of the
    squared distances against the chi-square median) and keeps points whose
    normalized distance is below the chi-square quantile at `threshold`.
    Distances are evaluated at the raw points: additive noise gives
    chi-square behavior in absolute units, not after per-point rescaling.
    `dof` defaults to the basis degree, exact for hyperplane arrangements
    when it matches the per-point codimension; pass the known value
    otherwise. Refitting on the surviving points is the caller's loop.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2 = algebraic_distance2(P, X)
    d2 = np.where(np.isfinite(d2), d2, 0.0)
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if mode == "percentile":
        mask = d2 <= np.quantile(d2, threshold)
    elif mode == "chi2":
        dof = P.degree if dof is None else int(dof)
        sigma2 = float(np.median(d2)) / _chi2_quantile(0.5, dof)
        if sigma2 <= 1e-300:
            mask = np.ones(X.shape[0], dtype=bool)
        else:
            mask = d2 / sigma2 <= _chi2_quantile(threshold, dof)
    else:
        raise ValueError(f"unknown outlier mode {mode!r}")
    if not mask.any():
        raise FitError("outlier rejection removed every point")
    return mask
