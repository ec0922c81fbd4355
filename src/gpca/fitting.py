"""Embedding data through the Veronese lift and fitting vanishing polynomials.

The coefficient vectors of polynomials that vanish on a union of subspaces
live in the left null space of the embedded data matrix. With noise the
null space is read off the smallest singular values, with the number of
polynomials chosen by a penalized spectral-gap criterion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import orthonormal_completion, unit_rows
from .errors import DegenerateDataError
from .polynomial import HomogeneousPolynomial, PolynomialBasis
from .veronese import monomial_count, veronese_lift

__all__ = [
    "SampleSufficiencyWarning",
    "EmbeddedMatrix",
    "RankDecision",
    "embed",
    "select_rank",
    "vanishing_basis",
    "fit_vanishing",
]

DEFAULT_KAPPA = 1e-6


class SampleSufficiencyWarning(UserWarning):
    """Fewer samples than the embedded dimension can support reliably."""


@dataclass(frozen=True, eq=False)
class EmbeddedMatrix:
    """Column-wise Veronese lift of a point set plus its singular spectrum.

    `matrix` has shape (M, N) with M = monomial_count(degree, dim); column j
    is the lift of `points[j]`. `singular_values` are the economy-size SVD
    values, descending; values beyond min(M, N) are implicitly zero.
    """

    degree: int
    dim: int
    matrix: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class RankDecision:
    """Outcome of the penalized rank selection on a singular spectrum."""

    effective_rank: int
    nullity: int
    criterion_values: tuple[float, ...]
    candidate_ranks: tuple[int, ...]
    kappa: float


def embed(X, degree: int, *, normalize: bool = True, warn: bool = True) -> EmbeddedMatrix:
    """Assemble the embedded data matrix of a point set at the given degree.

    Points are scaled to unit norm first (unless `normalize=False`): lifted
    entries grow like ||x||^degree, and normalization equalizes each point's
    weight in the algebraic least squares. Issues a SampleSufficiencyWarning
    when there are too few points to pin down even a one-dimensional null
    space.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, D) point array, got shape {X.shape}")
    n_points, dim = X.shape
    if n_points == 0:
        raise ValueError("cannot embed an empty point set")
    count = monomial_count(degree, dim)
    if warn and n_points < count - 1:
        warnings.warn(
            f"{n_points} samples for {count} degree-{degree} monomials; "
            f"at least {count - 1} are needed to isolate the null space",
            SampleSufficiencyWarning,
            stacklevel=2,
        )
    pts = unit_rows(X) if normalize else X
    matrix = veronese_lift(pts, degree).T
    left, sv, _ = np.linalg.svd(matrix, full_matrices=False)
    return EmbeddedMatrix(
        degree=degree,
        dim=dim,
        matrix=matrix,
        singular_values=sv,
        points=pts,
        left_vectors=left,
    )


def criterion_rank(
    singular_values,
    kappa: float,
    *,
    total: int | None = None,
    min_rank: int = 1,
    max_rank: int | None = None,
) -> RankDecision:
    """Effective rank of a descending spectrum by penalized spectral gap.

    Minimizes sigma_{r+1}^2 / sum_{j<=r} sigma_j^2 + kappa * r over candidate
    ranks; singular values past the end of the list count as exact zeros.
    Exact zeros short-circuit the search to the count of nonzero values.
    """
    sv = np.asarray(singular_values, dtype=float).ravel()
    if sv.size == 0:
        raise ValueError("empty singular spectrum")
    if np.any(sv < 0) or np.any(np.diff(sv) > 1e-12 * max(sv[0], 1.0)):
        raise ValueError("singular values must be non-negative and descending")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    total = int(total) if total is not None else sv.size
    if total < sv.size:
        raise ValueError("total cannot be smaller than the number of values given")
    if not np.any(sv > 0):
        raise DegenerateDataError("all singular values are zero")
    max_rank = total if max_rank is None else int(max_rank)
    max_rank = min(max_rank, total)
    min_rank = max(1, int(min_rank))
    if min_rank > max_rank:
        raise ValueError(f"no candidate ranks in [{min_rank}, {max_rank}]")

    # Exact zeros (including values missing from an economy SVD) bound the
    # rank from above; the criterion still chooses within the remaining range.
    nonzero = int(np.count_nonzero(sv > 0.0))
    max_rank = min(max_rank, max(nonzero, min_rank))

    padded = np.zeros(total + 1)
    padded[: sv.size] = sv
    energy = np.cumsum(padded[:total] ** 2)
    candidates = np.arange(min_rank, max_rank + 1)
    values = padded[candidates] ** 2 / energy[candidates - 1] + kappa * candidates
    rank = int(candidates[int(np.argmin(values))])
    return RankDecision(
        effective_rank=rank,
        nullity=total - rank,
        criterion_values=tuple(float(v) for v in values),
        candidate_ranks=tuple(int(c) for c in candidates),
        kappa=float(kappa),
    )


def select_rank(
    singular_values,
    kappa: float = DEFAULT_KAPPA,
    max_nullity: int | None = None,
    *,
    total: int | None = None,
    allow_full_rank: bool = False,
) -> RankDecision:
    """Pick the effective rank of an embedded data matrix spectrum.

    Candidates run over ranks 1 .. total-1 so that a fit always keeps at
    least one vanishing polynomial; rank probes in model discovery pass
    `allow_full_rank=True`, which adds the rank == total candidate (its
    criterion value is exactly kappa * total) and lets nullity 0 mean "no
    deficiency". `max_nullity` caps the search from the other side.
    """
    sv = np.asarray(singular_values, dtype=float).ravel()
    total = int(total) if total is not None else sv.size
    min_rank = 1 if max_nullity is None else max(1, total - int(max_nullity))
    max_rank = total if allow_full_rank else total - 1
    return criterion_rank(sv, kappa, total=total, min_rank=min_rank, max_rank=max_rank)


def null_space_polynomials(
    left_vectors: np.ndarray,
    degree: int,
    dim: int,
    nullity: int,
) -> PolynomialBasis:
    """Polynomials from the left singular vectors of the smallest values.

    `left_vectors` is the economy factor (M x k); when k < M the missing
    directions correspond to exact zeros and are completed orthonormally.
    """
    count = monomial_count(degree, dim)
    k = left_vectors.shape[1]
    rows = []
    missing = count - k
    if missing > 0:
        completion = orthonormal_completion(left_vectors)
        rows.extend(completion.T[: min(missing, nullity)])
    needed = nullity - len(rows)
    if needed > 0:
        rows.extend(left_vectors[:, k - needed :].T[::-1])
    coeffs = np.vstack(rows)
    polys = tuple(HomogeneousPolynomial(degree, dim, c) for c in coeffs)
    return PolynomialBasis(polys)


def fit_vanishing(
    embedded: EmbeddedMatrix,
    kappa: float = DEFAULT_KAPPA,
    max_nullity: int | None = None,
) -> tuple[PolynomialBasis, RankDecision]:
    """Vanishing basis plus the rank decision that sized it."""
    count = monomial_count(embedded.degree, embedded.dim)
    decision = select_rank(
        embedded.singular_values, kappa, max_nullity, total=count
    )
    basis = null_space_polynomials(
        embedded.left_vectors,
        embedded.degree,
        embedded.dim,
        decision.nullity,
    )
    return basis, decision


def vanishing_basis(
    embedded: EmbeddedMatrix,
    kappa: float = DEFAULT_KAPPA,
    max_nullity: int | None = None,
) -> PolynomialBasis:
    """Least-squares basis of polynomials vanishing on the embedded points."""
    basis, _ = fit_vanishing(embedded, kappa, max_nullity)
    return basis
