"""Segmenting a known number of subspaces by voting on per-point normal spaces.

One fit at the top degree n gives the vanishing polynomials; their
gradients at each data point span that point's normal space, the
complement of the subspace through it (Vidal, Ma, Sastry, PAMI 2005).
n vote rounds then pick the subspaces (Ma, Yang, Derksen, Fossum, SIAM
Review 2008): a round's candidates are evenly spaced remaining points,
every remaining point votes for the candidates whose normal space agrees
with its own, and the winner's voters give its complement and leave (at a
tighter angle if the points run out). Labels come by smallest residual,
each complement is refit by PCA on its points, and labels are read again.

`select_point` is one vote round and `model_at_point` the normal space at
one point, over the same helpers. First-order distances read the same
gradient spectra: by Euler's identity a point's distance is the length of
its coordinates in its normal space over the degree, exactly 0 at rounding
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, StageError
from .fitting import KAPPA, _rank_criterion, embed, fit_vanishing
from .polynomial import PolynomialBasis, basis_gradients

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

# A point votes for a candidate of codimension c when the squared sines of
# the principal angles between their top-c normal spaces sum to at most
# sin^2(tau), tau = 10 degrees unless the rounds run out of points
# (`_rounds`), and never below 0.01 degrees. Each round weighs at most
# _CANDIDATES evenly spaced remaining points, so a round costs O(N) memory.
_SIN2_TAU, _MIN_SIN2_TAU = np.sin(np.radians([10.0, 0.01])) ** 2
_CANDIDATES = 128

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
    """Diagnostics for one model: the fit's degree and nullity, the vote winner's index, the dim."""

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


def _gradient_spectrum(P: PolynomialBasis, X) -> tuple[np.ndarray, np.ndarray]:
    """Each point's gradient left singular vectors (N, D, K) and singular values (N, K).

    With one polynomial they are the unit gradient (0 where it vanishes) and its norm.
    """
    grads = basis_gradients(P, np.atleast_2d(X))
    if len(P) == 1:
        sv = np.linalg.norm(grads, axis=1)
        return grads / np.where(sv > 0.0, sv, 1.0)[:, None, :], sv
    vectors, sv, _ = np.linalg.svd(grads, full_matrices=False)
    return vectors, sv


def algebraic_distance2(P: PolynomialBasis, x):
    """First-order squared distance from x to the zero set of the basis.

    The first-order distance |p(x)| / ||grad p(x)|| (Taubin, PAMI 1991) is,
    by Euler's identity x . grad p(x) = n p(x) for degree-n polynomials, the
    length of x in its normal space (the gradients' left singular vectors)
    divided by n; no pseudo-inverse is formed. The result is its square
    over n^2, so that degree * sqrt of it approximates the Euclidean
    distance to the nearest subspace. Points where the gradients vanish
    (intersections, the origin) get +inf, and distances at rounding level
    relative to ||x|| are exactly 0.

    The normal space is truncated at the penalized-criterion rank of the
    gradient spectrum: when the basis holds more polynomials than the local
    complement dimension, the gradients pick up spurious near-zero
    directions along which x has arbitrary O(||x||) coordinates.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    vectors, sv = _gradient_spectrum(P, X)
    coords = np.einsum("ndk,nd->nk", vectors, X)
    top = sv[:, 0]
    # Per-point truncation scale: spurious directions shrink with the distance
    # itself, so the penalty floor is raised to the squared evident relative
    # displacement (||sv * coords||, which is degree * ||values|| by Euler,
    # over the leading singular value times ||x||), free of the data's units.
    reach = top * np.linalg.norm(X, axis=1)
    scale = _TRUNCATION_MARGIN * np.linalg.norm(sv * coords, axis=1)
    scale = scale / np.where(reach > 0.0, reach, 1.0)
    ranks, _ = _rank_criterion(sv, np.maximum(KAPPA, scale**2))
    keep = np.arange(sv.shape[1]) < ranks[:, None]
    d2 = np.where(keep, coords**2, 0.0).sum(axis=1) / float(P.degree) ** 4
    d2 = np.where(d2 > _ROUNDING_D2 * np.einsum("nd,nd->n", X, X), d2, 0.0)
    d2 = np.where(top > 0.0, d2, np.inf)
    return float(d2[0]) if x.ndim == 1 else d2


# Headroom factor between the evident displacement scale and the smallest
# singular value treated as a genuine complement direction.
_TRUNCATION_MARGIN = 20.0

# Squared distances at or below this fraction of ||x||^2 (a relative distance
# of 1e-12) are rounding and count as 0, so exact data ties at zero at any
# scale.
_ROUNDING_D2 = 1e-24


def _normal_spaces(P: PolynomialBasis, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-point normal spaces (N, D, K) of the basis gradients, and their ranks (N,).

    Point j's block holds its `_gradient_spectrum` vectors, zeroed past its
    rank, which the penalized spectral criterion reads (0 where every
    gradient vanishes).
    """
    normals, sv = _gradient_spectrum(P, X)
    ranks = np.where(sv[:, 0] > 0.0, _rank_criterion(sv, KAPPA)[0], 0)
    normals = normals * (np.arange(sv.shape[1]) < ranks[:, None])[:, None, :]
    return normals, ranks


def _votes(normals: np.ndarray, spaces: np.ndarray) -> np.ndarray:
    """(k, N) summed squared sines from point j's top-c normal space to space i of `spaces`.

    The squared sines of the principal angles between two c-dimensional
    spaces sum to c less the inner product of their projectors, so one
    product of flattened projectors gives them all (for c = 1, one less the
    squared cosines between unit normals).
    """
    c = spaces.shape[2]
    top = normals[:, :, :c]
    points = np.einsum("ndc,nec->nde", top, top).reshape(len(top), -1)
    candidates = np.einsum("kdc,kec->kde", spaces, spaces).reshape(len(spaces), -1)
    return c - candidates @ points.T


def _vote(normals: np.ndarray, ranks: np.ndarray, remaining: np.ndarray, sin2: float = _SIN2_TAU):
    """One vote round over the remaining points: winner, voters, complement and widest vote.

    Up to `_CANDIDATES` evenly spaced remaining points of rank 1..D-1 stand;
    a point votes for a candidate within `sin2` of it, and the most votes
    win, ties to the lowest index. The complement is the top-c left singular
    vectors of the voters' stacked top-c normals: the top-c eigenvectors of
    their summed projectors. The widest vote is the largest sin2 of a voter.
    """
    pool = np.flatnonzero(remaining & (ranks > 0) & (ranks < normals.shape[1]))
    if not pool.size:
        raise FitError("no remaining point has a proper normal space")
    candidates = pool[np.linspace(0, pool.size - 1, min(pool.size, _CANDIDATES)).astype(int)]
    voting = np.flatnonzero(remaining)
    counts = np.zeros(len(candidates), dtype=int)
    for c in np.unique(ranks[candidates]):
        same = ranks[candidates] == c
        counts[same] = (_votes(normals[voting], normals[candidates[same], :, :c]) <= sin2).sum(1)
    winner = int(candidates[np.argmax(counts)])
    c = int(ranks[winner])
    sines = _votes(normals[voting], normals[[winner], :, :c])[0]
    voters, widest = voting[sines <= sin2], sines[sines <= sin2].max()
    top = normals[voters, :, :c]
    _, vectors = np.linalg.eigh(np.einsum("ndc,nec->de", top, top))
    return winner, voters, vectors[:, ::-1][:, :c], widest


def _rounds(normals: np.ndarray, ranks: np.ndarray, n: int, sin2: float = _SIN2_TAU):
    """The winners' (index, complement) of n vote rounds, each round's voters leaving.

    When the points run out first, some round's voters came from subspaces
    closer than tau, so the rounds rerun at a quarter of the widest vote's
    sin2 (about half its angle), which splits the widest such pair at its
    middle; below `_MIN_SIN2_TAU` the FitError stands.
    """
    remaining, won, widest = np.ones(len(ranks), dtype=bool), [], 0.0
    try:
        for _ in range(n):
            winner, voters, complement, spread = _vote(normals, ranks, remaining, sin2)
            remaining[voters], widest = False, max(widest, spread)
            won.append((winner, complement))
    except FitError:
        if widest / 4 < _MIN_SIN2_TAU:
            raise
        return _rounds(normals, ranks, n, widest / 4)
    return won


def select_point(P: PolynomialBasis, X, already_found: tuple[SubspaceModel, ...] = ()) -> int:
    """Index of the winner of one vote round: the next subspace's representative.

    Points whose normal space agrees with an already-found complement have
    voted for it and sit the round out. Ties resolve to the lowest index.
    """
    normals, ranks = _normal_spaces(P, X)
    remaining = np.ones(len(ranks), dtype=bool)
    for model in already_found:
        remaining &= _votes(normals, model.complement_basis[None])[0] > _SIN2_TAU
    return _vote(normals, ranks, remaining)[0]


def model_at_point(P: PolynomialBasis, y) -> SubspaceModel:
    """Subspace model from the polynomial gradients at one point.

    The complement basis is the point's normal space: the gradients'
    dominant left singular vectors, as many as the penalized spectral
    criterion keeps. The subspace dimension is the ambient dimension less
    that rank.
    """
    y = np.asarray(y, dtype=float).ravel()
    normals, ranks = _normal_spaces(P, y)
    rank = int(ranks[0])
    if not 0 < rank < y.size:
        raise FitError(f"the gradients have rank {rank} in R^{y.size}: the point is on no subspace")
    return SubspaceModel(complement_basis=normals[0, :, :rank], dim=y.size - rank, representative=y)


def _stack(bases):
    """The (n, D, c_max) stack of complement bases, each zero-padded to c_max columns."""
    stack = np.zeros((len(bases), bases[0].shape[0], max(B.shape[1] for B in bases)))
    for slot, B in zip(stack, bases):
        slot[:, : B.shape[1]] = B
    return stack


def _residual2(X, stack):
    """n x N squared complement residuals: one batched product, summed over c_max.

    The padding columns add exact zeros. Cluster-major: a reduction over the
    clusters of every point then runs elementwise over n rows of length N,
    which numpy does far faster than N reductions of length n.
    """
    return np.square(stack.transpose(0, 2, 1) @ X.T).sum(axis=1)


def _nearest(residual2):
    """Labels by smallest squared residual, ties to the lowest index, and their residuals."""
    labels = np.argmin(residual2, axis=0)
    return labels, np.sqrt(residual2[labels, np.arange(residual2.shape[1])])


def _models(stack, dims, points) -> tuple[SubspaceModel, ...]:
    """The models of a complement stack at dims, shown by the given points."""
    D = stack.shape[1]
    return tuple(SubspaceModel(B[:, : D - d], d, x) for B, d, x in zip(stack, dims, points))


def _outer_products(X):
    """The (N, D, D) per-point outer products x xᵀ."""
    return X[:, :, None] * X[:, None, :]


def _refit(W, Z, dims):
    """Every cluster's PCA complement at its dim, row k of W weighting the points of cluster k.

    One product of W and the `_outer_products` Z forms the weighted
    scatters and one batched eigh takes their eigenvectors, minor directions
    first. Each cluster's columns past its codimension are zeroed.
    """
    N, D, _ = Z.shape
    codims = [D - d for d in dims]
    _, eigvecs = np.linalg.eigh((W @ Z.reshape(N, -1)).reshape(-1, D, D))
    return eigvecs[:, :, : max(codims)] * (np.arange(max(codims)) < np.array(codims)[:, None, None])


def assign(X, models) -> tuple[np.ndarray, np.ndarray]:
    """Label every point with its nearest subspace; ties go to the lowest index."""
    models = tuple(models)
    if not models:
        raise ValueError("need at least one model to assign against")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _nearest(_residual2(X, _stack([m.complement_basis for m in models])))


def segment(X, n: int) -> Segmentation:
    """Segment a union of n subspaces from unlabeled points.

    Fits the vanishing polynomials once at degree n on the unit-norm points,
    reads every point's normal space off their gradients, and runs n vote
    rounds (`_rounds`), each giving one subspace whose voters leave; a fit
    whose gradients give most points no proper normal space (rank 0 or D)
    raises. Every point then goes to its nearest subspace, each subspace is
    refit by PCA on its points (a group of fewer than dim points keeps its
    voted complement), and the points are assigned again.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if n < 1:
        raise ValueError("need n >= 1 subspaces")
    try:
        embedded = embed(X, n)
        basis, decision = fit_vanishing(embedded)
        normals, ranks = _normal_spaces(basis, embedded.points)
        if 2 * np.count_nonzero((ranks > 0) & (ranks < X.shape[1])) < len(X):
            raise FitError("at most points the gradients span the whole space or vanish")
        won = _rounds(normals, ranks, n)
        dims = [X.shape[1] - complement.shape[1] for _, complement in won]
    except FitError as exc:
        raise StageError(n, str(exc)) from exc
    stack = _stack([complement for _, complement in won])
    onehot = np.argmin(_residual2(X, stack), axis=0) == np.arange(n)[:, None]
    refit = _refit(onehot.astype(float), _outer_products(X), dims)
    stack = np.where((onehot.sum(axis=1) >= dims)[:, None, None], refit, stack)
    models = _models(stack, dims, embedded.points[[w for w, _ in won]])
    stages = tuple(StageRecord(n, decision.nullity, w, d) for (w, _), d in zip(won, dims))
    return Segmentation(models, *assign(X, models), stages, basis)


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
    `dof`, an integer >= 1, defaults to the basis degree n, while a point's
    residual has as many degrees of freedom as its codimension (one on a
    hyperplane, whatever n), so pass the known value. Refitting on the
    surviving points is the caller's loop. Bad arguments raise ValueError
    before any distance is computed.
    """
    if mode not in ("percentile", "chi2"):
        raise ValueError(f"unknown outlier mode {mode!r}")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    dof = P.degree if dof is None else dof
    if isinstance(dof, bool) or not isinstance(dof, (int, np.integer)) or dof < 1:
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2 = algebraic_distance2(P, X)
    d2 = np.where(np.isfinite(d2), d2, 0.0)
    if mode == "percentile":
        mask = d2 <= np.quantile(d2, threshold)
    else:
        sigma2 = float(np.median(d2)) / _chi2_quantile(0.5, dof)
        if sigma2 <= 1e-300:
            mask = np.ones(X.shape[0], dtype=bool)
        else:
            mask = d2 / sigma2 <= _chi2_quantile(threshold, dof)
    if not mask.any():
        raise FitError("outlier rejection removed every point")
    return mask
