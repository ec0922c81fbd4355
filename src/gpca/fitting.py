"""Embedding data through the Veronese lift and fitting vanishing polynomials.

The coefficient vectors of polynomials that vanish on a union of subspaces
live in the left null space of the embedded data matrix. With noise the
null space is read off the smallest singular values, with the number of
polynomials chosen by a penalized spectral-gap criterion; a degree-n fit
weighs only the nullities n transversal subspaces can have. A fit carries
the matrix's triangular factor R (R^T R = A A^T) and its spectrum, not the
matrix A itself: the factorization consumes the lift, the spectrum is a
values-only SVD of R and the basis the `null_vectors` of R.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from ._linalg import null_vectors, triangular_factor, unit_rows
from .errors import DegenerateDataError
from .polynomial import PolynomialBasis
from .veronese import monomial_count, veronese_lift

__all__ = [
    "SampleSufficiencyWarning",
    "EmbeddedMatrix",
    "RankDecision",
    "embed",
    "min_samples",
    "hilbert_nullity",
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
    """Triangular factor and spectrum of the column-wise Veronese lift of a point set.

    The (M, N) embedded matrix A, M = monomial_count(degree, dim), has the
    lift of `points[j]` as column j; it is not kept. `factor` is the (M, M)
    upper-triangular `triangular_factor` of A, with factor^T factor = A A^T,
    and `singular_values` are its M values, descending: A's own, to
    rounding, with zeros past min(M, N).
    """

    degree: int
    dim: int
    singular_values: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RankDecision:
    """Outcome of the penalized rank selection on a singular spectrum."""

    effective_rank: int
    nullity: int


def min_samples(degree: int, dim: int) -> int:
    """Fewest points that can isolate a null space at this degree and dimension."""
    return monomial_count(degree, dim) - 1


def hilbert_nullity(dims, ambient_dim: int, degree: int) -> int:
    """Independent degree-k polynomials vanishing on a transversal arrangement.

    Inclusion-exclusion over generic intersections: the sum over subsets S
    of (-1)^|S| * M_k(sum_S d_i - (|S| - 1) * D), where an empty
    intersection, {0}, adds nothing. Exact for degree >= len(dims)
    (Derksen, Hilbert series of subspace arrangements, JPAA 2007). Each added
    subspace shrinks the intersection by D - d_i > 0, so a depth-first walk
    stops a branch at its first empty intersection.
    """

    def terms(start: int, meet: int, sign: int) -> int:
        total = sign * monomial_count(degree, meet)
        for i in range(start, len(dims)):
            smaller = meet + dims[i] - ambient_dim
            if smaller > 0:
                total += terms(i + 1, smaller, -sign)
        return total

    return terms(0, ambient_dim, 1)


def embed(X, degree: int, *, warn: bool = True) -> EmbeddedMatrix:
    """Assemble the embedded data matrix of a point set at the given degree.

    Points are scaled to unit norm first: lifted entries grow like
    ||x||^degree, and normalization equalizes each point's weight in the
    algebraic least squares. Issues a SampleSufficiencyWarning when there are
    fewer than `min_samples` points, too few to pin down even a
    one-dimensional null space. Non-finite points raise ValueError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, D) point array, got shape {X.shape}")
    n_points, dim = X.shape
    if n_points == 0:
        raise ValueError("cannot embed an empty point set")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite; got NaN or inf")
    needed = min_samples(degree, dim)
    if warn and n_points < needed:
        warnings.warn(
            f"{n_points} samples for {monomial_count(degree, dim)} degree-{degree} monomials; "
            f"at least {needed} are needed to isolate the null space",
            SampleSufficiencyWarning,
            stacklevel=2,
        )
    pts = unit_rows(X)
    factor = triangular_factor(veronese_lift(pts, degree).T)
    return EmbeddedMatrix(
        degree=degree,
        dim=dim,
        singular_values=np.linalg.svd(factor, compute_uv=False),
        points=pts,
        factor=factor,
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


def select_rank(singular_values, *, nullities=None) -> RankDecision:
    """Effective rank of a descending spectrum by penalized spectral gap.

    Minimizes sigma_{r+1}^2 / sum_{j<=r} sigma_j^2 + KAPPA * r (ties to the
    lowest r) over the spectrum's length `total`, which counts its exact
    zeros. The candidate ranks are total - k for k in `nullities`, by
    default 1 .. total-1 so that a fit always keeps at least one vanishing
    polynomial. Rank probes in model discovery allow nullity 0 ("no
    deficiency"; its criterion value is exactly KAPPA * total), and a
    top-degree fit only the nullities its arrangements can have.
    """
    sv = np.asarray(singular_values, dtype=float).ravel()
    if sv.size == 0:
        raise ValueError("empty singular spectrum")
    if np.any(sv < 0) or np.any(np.diff(sv) > 1e-12 * max(sv[0], 1.0)):
        raise ValueError("singular values must be non-negative and descending")
    total = sv.size
    if not np.any(sv > 0):
        raise DegenerateDataError("all singular values are zero")
    ranks = np.sort(total - np.array(range(1, total) if nullities is None else nullities, int))
    if not ranks.size or ranks[0] < 1 or ranks[-1] > total:
        raise ValueError(f"no candidate ranks in [1, {total}]")
    values = _rank_criterion(sv[None], KAPPA, total)[1][0]
    rank = int(ranks[np.argmin(values[ranks - 1])])
    return RankDecision(effective_rank=rank, nullity=total - rank)


@lru_cache(maxsize=None)
def _arrangement_nullities(degree: int, dim: int) -> tuple[int, ...]:
    """Descending `hilbert_nullity` values of every multiset of `degree` dims in R^dim."""
    dims_sets = combinations_with_replacement(range(1, dim), degree)
    return tuple(sorted({hilbert_nullity(dims, dim, degree) for dims in dims_sets}, reverse=True))


def fit_vanishing(embedded: EmbeddedMatrix) -> tuple[PolynomialBasis, RankDecision]:
    """Least-squares vanishing basis of the embedded points, and the rank decision that sized it.

    A degree-n fit models n subspaces in general position, so `select_rank`
    weighs only the nullities a transversal arrangement of n subspaces has:
    the `hilbert_nullity` of some n-multiset of dims. Subspaces in special
    position (two planes in R^4 sharing a line) have more vanishing
    polynomials than that; the fit keeps an allowed count. The basis rows
    are the factor's `null_vectors` at the nullity, smallest singular value
    first.
    """
    decision = select_rank(
        embedded.singular_values, nullities=_arrangement_nullities(embedded.degree, embedded.dim)
    )
    rows = null_vectors(embedded.factor, decision.nullity).T
    return PolynomialBasis(embedded.degree, embedded.dim, rows), decision
