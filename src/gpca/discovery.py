"""Model discovery: the subspace count and dimensions from rank probes.

For k >= n, the number of independent degree-k polynomials vanishing on a
transversal union of n subspaces is fixed by their dims
(`fitting.hilbert_nullity`). Discovery probes the nullity at degrees
1..n_max on PCA projections to ell+1 dimensions, from ell = D-1 down, and
takes the smallest n whose nullities at every probed k >= n are predicted
by exactly one dims multiset. A probe reads the embedded matrix's spectrum
alone: its nullity counts only when the smallest singular value vanishes
relative to the whole spectrum. `recursive_segment` then splits that level's
points with `segment` and refits each group in R^D.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from ._linalg import triangular_factor
from .errors import DiscoveryError, FitError
from .fitting import embed, hilbert_nullity, select_rank
from .segmentation import Segmentation, _models, _outer_products, _refit, assign, segment
from .veronese import monomial_count

__all__ = [
    "RankProbe",
    "DiscoveryNode",
    "DiscoveryReport",
    "project",
    "count_hyperplanes",
    "discover_equal_dim",
    "recursive_segment",
]

# A rank probe only counts as a deficiency when the embedded matrix A has a
# direction v that vanishes on the data at this relative tolerance,
# ||A^T v|| <= _VANISH_TOL * ||A||_F: that is the smallest singular value
# against the spectrum's 2-norm. Thin-but-nonzero spectrum directions
# otherwise masquerade as structure.
_VANISH_TOL = 1e-6


@dataclass(frozen=True)
class RankProbe:
    """One rank test: degree and projected dimension against the criterion."""

    level: int
    degree: int
    ambient_dim: int
    embedded_dim: int
    rank: int
    nullity: int


@dataclass(frozen=True)
class DiscoveryNode:
    """The split of `recursive_segment`, or one of its leaves."""

    name: str
    n_points: int
    ambient_dim: int
    split_degree: int | None = None
    split_level: int | None = None
    leaf_dim: int | None = None
    children: tuple["DiscoveryNode", ...] = ()


@dataclass(frozen=True)
class DiscoveryReport:
    """Structured record of a discovery run: counts, dims, probes, and tree."""

    n: int
    d: tuple[int, ...]
    rank_table: tuple[RankProbe, ...]
    tree: DiscoveryNode | None = None

    def to_text(self) -> str:
        """Deterministic plain-text rendering (rank table plus split tree)."""
        lines = ["discovery report"]
        lines.append(f"  subspaces: {self.n}")
        lines.append(f"  dims: {list(self.d)}")
        lines.append("rank table (level, degree, dim, M, rank, nullity)")
        for p in self.rank_table:
            lines.append(
                f"  l={p.level} i={p.degree} dim={p.ambient_dim} "
                f"M={p.embedded_dim} rank={p.rank} nullity={p.nullity}"
            )
        if self.tree is not None:
            lines.append("tree")
            lines.append(_node_text(self.tree, "  "))
            lines.extend(_node_text(leaf, "    ") for leaf in self.tree.children)
        return "\n".join(lines) + "\n"


def _node_text(node: DiscoveryNode, pad: str) -> str:
    desc = f"{pad}node {node.name or 'root'}: points={node.n_points} ambient={node.ambient_dim}"
    if node.leaf_dim is not None:
        desc += f" leaf dim={node.leaf_dim}"
    if node.split_degree is not None:
        desc += f" split degree={node.split_degree} level={node.split_level}"
    return desc


def project(X, new_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Project points onto their new_dim top principal directions.

    Returns the read-only (new_dim, D) row-orthonormal map and the (N,
    new_dim) projected points. The rows are the leading right singular
    vectors of the points' `triangular_factor` R, with RᵀR = XᵀX; with fewer
    points than new_dim, R's zero rows give those past the point span.
    Non-finite points raise ValueError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise ValueError("points must be finite; got NaN or inf")
    D = X.shape[1]
    if new_dim > D:
        raise ValueError(f"cannot project {D}-dimensional data up to {new_dim}")
    if new_dim < 1:
        raise ValueError("projection needs at least one dimension")
    _, _, rows = np.linalg.svd(triangular_factor(X.T.copy()))
    matrix = rows[:new_dim].copy()
    matrix.flags.writeable = False
    return matrix, X @ matrix.T


def _probe(X, degree) -> RankProbe:
    sv = embed(X, degree).singular_values
    dim, count = X.shape[1], sv.size
    nullity = select_rank(sv, nullities=range(count)).nullity
    if sv[-1] > _VANISH_TOL * np.linalg.norm(sv):
        nullity = 0
    return RankProbe(
        level=dim - 1,
        degree=degree,
        ambient_dim=dim,
        embedded_dim=count,
        rank=count - nullity,
        nullity=nullity,
    )


def _probes(projected, n_max: int):
    """Rank probes of projected points at degrees 1..n_max, while N >= M."""
    N, dim = projected.shape
    for degree in range(1, n_max + 1):
        if N < monomial_count(degree, dim):
            return
        yield _probe(projected, degree)


def _match(X, n_max: int, equal_dim: bool):
    """The arrangement whose Hilbert function matches the rank probes.

    Walks the levels from D-1 down and accepts the smallest n for which
    exactly one candidate dims multiset (equal dims only with `equal_dim`)
    has `hilbert_nullity` equal to the observed nullity at every probed
    degree k >= n; two or more raise. Returns the ascending dims, the
    level, its projected points and every probe made.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    probes: list[RankProbe] = []
    _, rotated = project(X, X.shape[1])
    for level in range(X.shape[1] - 1, 0, -1):
        projected = rotated[:, : level + 1]
        level_probes = list(_probes(projected, n_max))
        probes.extend(level_probes)
        for n in range(1, n_max + 1):
            checked = [p for p in level_probes if p.degree >= n]
            if not checked:
                break
            if equal_dim:
                candidates = [(d,) * n for d in range(1, level + 1)]
            else:
                candidates = combinations_with_replacement(range(1, level + 1), n)
            found = [
                dims
                for dims in candidates
                if all(p.nullity == hilbert_nullity(dims, level + 1, p.degree) for p in checked)
            ]
            if len(found) > 1:
                raise DiscoveryError(
                    f"the rank probes at level {level} fit {n} subspaces of dims "
                    + " and of dims ".join(str(list(dims)) for dims in found)
                )
            if found:
                return found[0], level, projected, tuple(probes)
    raise DiscoveryError(f"no arrangement of at most {n_max} subspaces matches the rank probes")


def count_hyperplanes(X, n_max: int) -> int:
    """Smallest degree at which the embedded data matrix drops rank.

    Valid when every subspace is a hyperplane of the ambient space; the
    first deficient degree of the top level (D-1, no projection beyond a
    rotation) equals the number of hyperplanes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, D = X.shape
    _, rotated = project(X, D)
    for probe in _probes(rotated, n_max):
        if probe.nullity >= 1:
            return probe.degree
    raise DiscoveryError(f"no arrangement of at most {n_max} hyperplanes fits {N} samples")


def discover_equal_dim(X, n_max: int) -> DiscoveryReport:
    """Common dimension and count for subspaces of equal unknown dimension.

    The Hilbert-function match over equal-dimension candidates only.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dims, _, _, probes = _match(X, n_max, equal_dim=True)
    return DiscoveryReport(len(dims), dims, probes)


def recursive_segment(X, n_max: int) -> tuple[Segmentation, DiscoveryReport]:
    """Segment an unknown number of subspaces of unknown dimensions.

    The Hilbert-function match over every dims multiset gives n, the dims
    and a level; `segment` splits that level's projected points into n
    groups, each group's subspace is refit in R^D by PCA at its dim, and
    every point goes to its nearest refit subspace. A failed split, or one
    whose dims differ from the matched ones, raises DiscoveryError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, D = X.shape
    dims, level, projected, probes = _match(X, n_max, equal_dim=False)
    n = len(dims)
    try:
        split = segment(projected, n)
    except FitError as exc:
        raise DiscoveryError(f"splitting {n} subspaces at level {level} failed: {exc}") from exc
    if tuple(sorted(split.dims)) != dims:
        raise DiscoveryError(f"the split found dims {sorted(split.dims)}, the match {list(dims)}")
    onehot = split.labels == np.arange(n)[:, None]
    for count, dim in zip(onehot.sum(axis=1), split.dims):
        if count < dim:
            raise DiscoveryError(f"{count} points cannot span a {dim}-dim subspace")
    stack = _refit(onehot.astype(float), _outer_products(X), split.dims)
    models = _models(stack, split.dims, X[np.argmax(onehot, axis=1)])
    labels, residuals = assign(X, models)
    segmentation = Segmentation(models, labels, residuals, split.stages)
    leaves = tuple(
        DiscoveryNode(str(group) if n > 1 else "", int(count), D, leaf_dim=dim)
        for group, (count, dim) in enumerate(zip(np.bincount(labels, minlength=n), split.dims))
    )
    tree = leaves[0] if n == 1 else DiscoveryNode("", N, D, n, level, children=leaves)
    return segmentation, DiscoveryReport(n, split.dims, probes, tree)
