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

from ._linalg import left_svd, orthonormal_completion, unit_rows
from .errors import DegenerateDataError
from .polynomial import PolynomialBasis
from .veronese import monomial_count, veronese_lift

__all__ = [
    "SampleSufficiencyWarning",
    "EmbeddedMatrix",
    "RankDecision",
    "embed",
    "min_samples",
    "select_rank",
    "fit_vanishing",
]

# Rank penalty of the criterion: each extra rank costs KAPPA against the
# relative energy of the discarded tail.
KAPPA = 1e-6


class SampleSufficiencyWarning(UserWarning):
    """Fewer samples than the embedded dimension can support reliably."""


@dataclass(frozen=True, eq=False)
class EmbeddedMatrix:
    """Column-wise Veronese lift of a point set plus its singular spectrum.

    `matrix` has shape (M, N) with M = monomial_count(degree, dim); column j
    is the lift of `points[j]`. `singular_values` are the economy-size SVD
    values, descending; values beyond min(M, N) are implicitly zero.
    They and `left_vectors` come from `left_svd`, equal to
    np.linalg.svd(matrix, full_matrices=False)'s to rounding.
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


def min_samples(degree: int, dim: int) -> int:
    """Fewest points that can isolate a null space at this degree and dimension."""
    return monomial_count(degree, dim) - 1


def embed(X, degree: int, *, warn: bool = True) -> EmbeddedMatrix:
    """Assemble the embedded data matrix of a point set at the given degree.

    Points are scaled to unit norm first: lifted entries grow like
    ||x||^degree, and normalization equalizes each point's weight in the
    algebraic least squares. Issues a SampleSufficiencyWarning when there are
    fewer than `min_samples` points, too few to pin down even a
    one-dimensional null space.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, D) point array, got shape {X.shape}")
    n_points, dim = X.shape
    if n_points == 0:
        raise ValueError("cannot embed an empty point set")
    needed = min_samples(degree, dim)
    if warn and n_points < needed:
        warnings.warn(
            f"{n_points} samples for {monomial_count(degree, dim)} degree-{degree} monomials; "
            f"at least {needed} are needed to isolate the null space",
            SampleSufficiencyWarning,
            stacklevel=2,
        )
    pts = unit_rows(X)
    matrix = veronese_lift(pts, degree).T
    left, sv = left_svd(matrix)
    return EmbeddedMatrix(
        degree=degree,
        dim=dim,
        matrix=matrix,
        singular_values=sv,
        points=pts,
        left_vectors=left,
    )


def _rank_criterion(sv: np.ndarray, kappa, max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Penalized spectral-gap rank of each row of descending spectra.

    `sv` is (n, K) with K >= max_rank, zero-padded past each row's values;
    kappa is a scalar or one value per row. Returns the ranks (n,) that
    minimize sv_{r+1}^2 / sum_{j<=r} sv_j^2 + kappa * r over r = 1..max_rank
    (ties to the lowest r) and the criterion values (n, max_rank). Past a
    row's last nonzero value the criterion is kappa * r, which rises, so
    exact zeros never win.
    """
    energy = np.cumsum(sv**2, axis=1)[:, :max_rank]
    trailing = np.concatenate([sv[:, 1:] ** 2, np.zeros((len(sv), 1))], axis=1)[:, :max_rank]
    safe_energy = np.where(energy > 0.0, energy, 1.0)
    ranks = np.arange(1, max_rank + 1)
    values = trailing / safe_energy + np.reshape(kappa, (-1, 1)) * ranks
    return np.argmin(values, axis=1) + 1, values


def select_rank(
    singular_values, *, total: int | None = None, allow_full_rank: bool = False
) -> RankDecision:
    """Effective rank of a descending spectrum by penalized spectral gap.

    Minimizes sigma_{r+1}^2 / sum_{j<=r} sigma_j^2 + KAPPA * r; singular
    values past the end of the list, up to `total`, count as exact zeros.
    Candidates run over ranks 1 .. total-1 so that a fit always keeps at
    least one vanishing polynomial; rank probes in model discovery and the
    gradient rank pass `allow_full_rank=True`, which adds the rank == total
    candidate (its criterion value is exactly KAPPA * total) and lets
    nullity 0 mean "no deficiency".
    """
    sv = np.asarray(singular_values, dtype=float).ravel()
    if sv.size == 0:
        raise ValueError("empty singular spectrum")
    if np.any(sv < 0) or np.any(np.diff(sv) > 1e-12 * max(sv[0], 1.0)):
        raise ValueError("singular values must be non-negative and descending")
    total = int(total) if total is not None else sv.size
    if total < sv.size:
        raise ValueError("total cannot be smaller than the number of values given")
    if not np.any(sv > 0):
        raise DegenerateDataError("all singular values are zero")
    max_rank = total if allow_full_rank else total - 1
    if max_rank < 1:
        raise ValueError(f"no candidate ranks in [1, {max_rank}]")
    padded = np.zeros((1, total))
    padded[0, : sv.size] = sv
    ranks, values = _rank_criterion(padded, KAPPA, max_rank)
    rank = int(ranks[0])
    return RankDecision(
        effective_rank=rank,
        nullity=total - rank,
        criterion_values=tuple(float(v) for v in values[0]),
        candidate_ranks=tuple(range(1, max_rank + 1)),
    )


def _null_space_fit(
    left_vectors: np.ndarray, singular_values: np.ndarray, degree: int, dim: int
) -> tuple[PolynomialBasis, RankDecision]:
    """Vanishing basis and rank decision from a factored fitting matrix.

    The basis rows are the left singular vectors of the smallest values.
    `left_vectors` is the economy factor (M x k); when k < M the missing
    directions correspond to exact zeros and are completed orthonormally.
    """
    count = monomial_count(degree, dim)
    decision = select_rank(singular_values, total=count)
    k = left_vectors.shape[1]
    rows = []
    missing = count - k
    if missing > 0:
        completion = orthonormal_completion(left_vectors)
        rows.extend(completion.T[: min(missing, decision.nullity)])
    needed = decision.nullity - len(rows)
    if needed > 0:
        rows.extend(left_vectors[:, k - needed :].T[::-1])
    return PolynomialBasis(degree, dim, np.vstack(rows)), decision


def fit_vanishing(embedded: EmbeddedMatrix) -> tuple[PolynomialBasis, RankDecision]:
    """Least-squares vanishing basis of the embedded points, and the rank decision that sized it."""
    return _null_space_fit(
        embedded.left_vectors, embedded.singular_values, embedded.degree, embedded.dim
    )
