"""Model discovery: counting subspaces and dimensions by rank probes.

A union of n hyperplanes makes the embedded data matrix drop rank first at
degree n. Lower-dimensional subspaces hide that signature in the full
ambient space, so probes run on projections to ell+1 dimensions for
increasing ell; the first (ell, degree) deficiency gives the common
dimension and count. For mixed dimensions the split is applied recursively
inside each recovered subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import left_svd, orthonormal_completion
from .errors import DiscoveryError, FitError
from .fitting import embed, select_rank
from .segmentation import Segmentation, StageRecord, SubspaceModel, segment
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

# Residual threshold for flagging points that do not sit cleanly on their
# assigned subspace during recursive splitting.
_MEMBERSHIP_TOL = 1e-6

# A rank probe only counts as a deficiency when its null direction actually
# vanishes on the data at this relative tolerance: thin-but-nonzero spectrum
# directions otherwise masquerade as structure.
_VANISH_TOL = 1e-6

# Fraction of points allowed beyond the membership tolerance before a split
# is rejected as the product of a degenerate projection.
_MAX_STRAY_FRACTION = 0.02


@dataclass(frozen=True)
class RankProbe:
    """One rank test: degree and projected dimension against the criterion."""

    node: str
    level: int
    degree: int
    ambient_dim: int
    embedded_dim: int
    rank: int
    nullity: int


@dataclass(frozen=True)
class DiscoveryNode:
    """One node of the recursive splitting trace."""

    name: str
    n_points: int
    ambient_dim: int
    tightened_to: int | None = None
    split_degree: int | None = None
    split_level: int | None = None
    leaf_dim: int | None = None
    diagnostic: str = ""
    children: tuple["DiscoveryNode", ...] = ()


@dataclass(frozen=True)
class DiscoveryReport:
    """Structured record of a discovery run: counts, dims, probes, and tree."""

    n: int
    d: tuple[int, ...]
    rank_table: tuple[RankProbe, ...]
    tree: DiscoveryNode | None = None

    def to_text(self) -> str:
        """Deterministic plain-text rendering (rank table plus recursion tree)."""
        lines = ["discovery report"]
        lines.append(f"  subspaces: {self.n}")
        lines.append(f"  dims: {list(self.d)}")
        lines.append("rank table (node, level, degree, dim, M, rank, nullity)")
        for p in self.rank_table:
            lines.append(
                f"  {p.node or '-'} l={p.level} i={p.degree} dim={p.ambient_dim} "
                f"M={p.embedded_dim} rank={p.rank} nullity={p.nullity}"
            )
        if self.tree is not None:
            lines.append("tree")
            lines.extend(self._node_lines(self.tree, indent=1))
        return "\n".join(lines) + "\n"

    def _node_lines(self, node: DiscoveryNode, indent: int) -> list[str]:
        pad = "  " * indent
        desc = f"{pad}node {node.name or 'root'}: points={node.n_points} ambient={node.ambient_dim}"
        if node.tightened_to is not None:
            desc += f" tightened->{node.tightened_to}"
        if node.leaf_dim is not None:
            desc += f" leaf dim={node.leaf_dim}"
        if node.split_degree is not None:
            desc += f" split degree={node.split_degree} level={node.split_level}"
        if node.diagnostic:
            desc += f" [{node.diagnostic}]"
        out = [desc]
        for child in node.children:
            out.extend(self._node_lines(child, indent + 1))
        return out


def project(
    X, new_dim: int, kind: str = "pca", seed: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Project points to new_dim dimensions, preserving generic arrangements.

    Returns the read-only (new_dim, D) row-orthonormal map and the (N,
    new_dim) projected points. "pca" keeps the top principal directions of
    the data matrix; "random" draws a row-orthonormalized Gaussian map from
    `seed`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    D = X.shape[1]
    if new_dim > D:
        raise ValueError(f"cannot project {D}-dimensional data up to {new_dim}")
    if new_dim < 1:
        raise ValueError("projection needs at least one dimension")
    if kind == "pca":
        left, _ = left_svd(X.T)
        if left.shape[1] < new_dim:
            # fewer points than dimensions: complete the point span orthonormally
            left = np.hstack([left, orthonormal_completion(left)])
        return _projected(left[:, :new_dim].T, X)
    if kind != "random":
        raise ValueError(f"unknown projection kind {kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    mat, _ = np.linalg.qr(rng.standard_normal((D, new_dim)))
    return _projected(mat.T, X)


def _projected(matrix, X) -> tuple[np.ndarray, np.ndarray]:
    """A read-only C-ordered copy of the map, and the points it projects."""
    matrix = matrix.copy()
    matrix.flags.writeable = False
    return matrix, X @ matrix.T


def _probe(X, degree, level, dim, node: str) -> RankProbe:
    embedded = embed(X, degree, warn=False)
    count = monomial_count(degree, dim)
    decision = select_rank(embedded.singular_values, total=count, allow_full_rank=True)
    nullity = decision.nullity
    if nullity >= 1 and embedded.left_vectors.shape[1] == count:
        # confirm the best null direction vanishes on the data; conditioning
        # artifacts produce small singular values without vanishing residuals
        direction = embedded.left_vectors[:, -1]
        scales = np.maximum(np.linalg.norm(embedded.matrix, axis=0), 1e-300)
        residual = float(np.max(np.abs(direction @ embedded.matrix) / scales))
        if residual > _VANISH_TOL:
            nullity = 0
    return RankProbe(
        node=node,
        level=level,
        degree=degree,
        ambient_dim=dim,
        embedded_dim=count,
        rank=count - nullity,
        nullity=nullity,
    )


def _probe_sweep(X, n_max, node: str, levels=None):
    """Rank probes on PCA projections in (level, degree) order.

    Yields (projected points, probe) for `levels` (default 1..D-1) and
    degrees 1..n_max, moving to the next level once the degree needs more
    monomials than there are points.
    """
    N, D = X.shape
    for level in range(1, D) if levels is None else levels:
        _, projected = project(X, level + 1, kind="pca")
        for degree in range(1, n_max + 1):
            if N < monomial_count(degree, level + 1):
                break
            yield projected, _probe(projected, degree, level, level + 1, node=node)


def count_hyperplanes(X, n_max: int) -> int:
    """Smallest degree at which the embedded data matrix drops rank.

    Valid when every subspace is a hyperplane of the ambient space; the
    first deficient degree of the sweep's top level (D-1, no projection
    beyond a rotation) equals the number of hyperplanes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, D = X.shape
    for _, probe in _probe_sweep(X, n_max, node="", levels=(D - 1,)):
        if probe.nullity >= 1:
            return probe.degree
    raise DiscoveryError(f"no arrangement of at most {n_max} hyperplanes fits {N} samples")


def discover_equal_dim(X, n_max: int) -> DiscoveryReport:
    """Common dimension and count for subspaces of equal unknown dimension.

    Sweeps candidate dimensions from below: project to ell+1 dimensions and
    probe degrees 1..n_max; the first deficiency wins, reported as n
    subspaces of dimension ell. Projecting below the true dimension fills
    the whole space and stays full rank, so the sweep cannot stop early with
    an undersized answer.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probes: list[RankProbe] = []
    for _, probe in _probe_sweep(X, n_max, node=""):
        probes.append(probe)
        if probe.nullity >= 1:
            n = probe.degree
            return DiscoveryReport(n, (probe.level,) * n, tuple(probes))
    raise DiscoveryError(
        f"no equal-dimension arrangement found with up to {n_max} subspaces"
    )


def recursive_segment(X, n_max: int) -> tuple[Segmentation, DiscoveryReport]:
    """Segment an unknown number of subspaces of unknown dimensions.

    Each recursion first tightens its ambient space to the span of its
    points, then looks for the minimal (dimension, degree) rank deficiency,
    splits with the known-degree segmentation on the projected data, and
    recurses into each group with that group's subspace as the new ambient
    space. Groups admitting no further split become leaves.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, D = X.shape
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    probes: list[RankProbe] = []
    leaves: list[tuple[np.ndarray, SubspaceModel]] = []

    def recurse(points, indices, basis, depth, name) -> DiscoveryNode:
        local = points
        cur_basis = basis
        cur_dim = local.shape[1]
        tightened_to = None

        # Tighten the ambient space to the span of the points.
        left, data_sv = left_svd(local.T)
        span_dec = select_rank(data_sv, total=cur_dim, allow_full_rank=True)
        if span_dec.nullity > 0:
            keep = span_dec.effective_rank
            rot = left[:, :keep]
            local = local @ rot
            cur_basis = cur_basis @ rot
            cur_dim = keep
            tightened_to = keep

        def leaf(diagnostic=""):
            if cur_dim >= D:
                raise DiscoveryError(
                    "points span the full ambient space; no subspace structure found"
                )
            model = SubspaceModel(
                complement_basis=orthonormal_completion(cur_basis),
                dim=cur_dim,
                representative=X[indices[0]],
            )
            leaves.append((indices, model))
            return DiscoveryNode(
                name=name,
                n_points=len(indices),
                ambient_dim=cur_dim,
                tightened_to=tightened_to,
                leaf_dim=cur_dim,
                diagnostic=diagnostic,
            )

        if cur_dim == 1 or depth >= n_max:
            return leaf("depth limit" if cur_dim > 1 and depth >= n_max else "")

        # Find the minimal (level, degree) rank deficiency.
        # Degree-1 deficiency is owned by the tightening step above, so probes
        # at degree 1 are recorded for the table but never trigger a split.
        # A deficiency only counts once its split is usable: degenerate
        # projections can align with the arrangement and fake structure, in
        # which case probing simply continues at the next (level, degree).
        skipped = []
        for projected, probe in _probe_sweep(local, n_max, node=name):
            probes.append(probe)
            level, degree = probe.level, probe.degree
            if degree < 2 or probe.nullity < 1:
                continue
            try:
                split = segment(projected, degree)
            except FitError as exc:
                skipped.append(f"l={level} i={degree}: split failed ({exc})")
                continue
            groups = [
                np.flatnonzero(split.labels == g)
                for g in range(len(split.models))
            ]
            groups = [g for g in groups if g.size > 0]
            stray = int(np.sum(split.residuals > _MEMBERSHIP_TOL))
            if len(groups) < 2 or stray > _MAX_STRAY_FRACTION * local.shape[0]:
                skipped.append(
                    f"l={level} i={degree}: unusable split "
                    f"({len(groups)} groups, {stray} stray points)"
                )
                continue
            children = []
            for child_index, group in enumerate(groups):
                children.append(
                    recurse(
                        local[group],
                        indices[group],
                        cur_basis,
                        depth + 1,
                        f"{name}.{child_index}" if name else str(child_index),
                    )
                )
            diagnostic = "; ".join(skipped)
            if stray:
                note = f"{stray} points beyond membership tolerance"
                diagnostic = f"{diagnostic}; {note}" if diagnostic else note
            return DiscoveryNode(
                name=name,
                n_points=len(indices),
                ambient_dim=cur_dim,
                tightened_to=tightened_to,
                split_degree=degree,
                split_level=level,
                diagnostic=diagnostic,
                children=tuple(children),
            )
        return leaf("; ".join(skipped))

    tree = recurse(X, np.arange(N), np.eye(D), depth=0, name="")

    models = tuple(model for _, model in leaves)
    labels = np.empty(N, dtype=int)
    residuals = np.empty(N)
    for leaf_index, (indices, model) in enumerate(leaves):
        labels[indices] = leaf_index
        residuals[indices] = model.residuals(X[indices])
    segmentation = Segmentation(
        models=models,
        labels=labels,
        residuals=residuals,
        stages=tuple(
            StageRecord(degree=0, nullity=0, picked_index=int(idx[0]), model_dim=m.dim)
            for idx, m in leaves
        ),
    )
    report = DiscoveryReport(
        n=len(models),
        d=tuple(m.dim for m in models),
        rank_table=tuple(probes),
        tree=tree,
    )
    return segmentation, report
