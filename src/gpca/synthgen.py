"""Reproducible synthetic subspace arrangements and the angle-error metric."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._linalg import max_principal_angle, orthonormal_completion
from .errors import InputError
from .segmentation import SubspaceModel

__all__ = [
    "ArrangementSpec",
    "generate",
    "generate_from_bases",
    "angle_error",
    "save_dataset",
    "load_dataset",
]

# Rejection-sampling floor on the largest principal angle between any two
# sampled subspaces; rules out near-degenerate arrangements.
_MIN_PAIRWISE_ANGLE = np.deg2rad(10.0)
_MAX_REJECTIONS = 1000


def as_int(value, name):
    """`value` as an int; a bool, a float or a string is a TypeError, not rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name):
    """`value` as a float; a bool or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_tuple(value, name):
    """`value` as a tuple; a string or a scalar is a TypeError, not split or wrapped."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ArrangementSpec:
    """Recipe for a random union of subspaces with optional normal-space noise."""

    ambient_dim: int
    dims: tuple[int, ...]
    points_per_subspace: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("ambient_dim", "points_per_subspace", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "noise_sigma", as_real(self.noise_sigma, "noise_sigma"))
        dims = as_tuple(self.dims, "dims")
        object.__setattr__(self, "dims", tuple(as_int(d, "dim") for d in dims))
        if not self.dims:
            raise ValueError("need at least one subspace")
        if any(not 0 < d < self.ambient_dim for d in self.dims):
            raise ValueError(
                f"subspace dims must lie strictly between 0 and {self.ambient_dim}"
            )
        if self.points_per_subspace < 1:
            raise ValueError("need at least one point per subspace")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise level must be finite and not negative, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed cannot be negative, got {self.seed}")


def _random_subspace_bases(rng, ambient_dim, dims):
    """Orthonormal spans, rejection-sampled to stay pairwise well separated."""
    bases = []
    for d in dims:
        for attempt in range(_MAX_REJECTIONS):
            cand, _ = np.linalg.qr(rng.standard_normal((ambient_dim, d)))
            if all(
                max_principal_angle(cand, other) >= _MIN_PAIRWISE_ANGLE
                for other in bases
            ):
                bases.append(cand)
                break
        else:
            raise ValueError(
                f"could not sample {len(dims)} well-separated subspaces of dims {list(dims)} "
                f"in R^{ambient_dim}"
            )
    return bases


def generate_from_bases(bases, points_per_subspace, noise_sigma=0.0, seed=0):
    """Sample points on explicitly given subspace spans.

    Each basis is a (D, d) matrix with independent columns (orthonormalized
    here). Points are uniform on the unit ball of each subspace; noise is
    Gaussian along the complement directions only.

    Returns (X, models, labels) with models holding the true complement
    bases.
    """
    rng = np.random.default_rng(seed)
    bases = [np.atleast_2d(np.asarray(b, dtype=float)) for b in bases]
    if not bases:
        raise ValueError("need at least one subspace basis")
    ambient_dim = bases[0].shape[0]
    blocks, labels, models = [], [], []
    for index, raw in enumerate(bases):
        if raw.shape[0] != ambient_dim:
            raise ValueError("all bases must share the ambient dimension")
        span, _ = np.linalg.qr(raw)
        d = span.shape[1]
        complement = orthonormal_completion(span)
        directions = rng.standard_normal((points_per_subspace, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(size=(points_per_subspace, 1)) ** (1.0 / d)
        pts = (directions * radii) @ span.T
        if noise_sigma > 0:
            pts = pts + rng.standard_normal(
                (points_per_subspace, ambient_dim - d)
            ) @ (noise_sigma * complement.T)
        blocks.append(pts)
        labels.extend([index] * points_per_subspace)
        models.append(
            SubspaceModel(complement_basis=complement, dim=d, representative=pts[0])
        )
    return np.vstack(blocks), models, np.array(labels, dtype=int)


def generate(spec: ArrangementSpec):
    """Sample an arrangement per the spec; same seed reproduces bit-for-bit."""
    rng = np.random.default_rng(spec.seed)
    bases = _random_subspace_bases(rng, spec.ambient_dim, spec.dims)
    return generate_from_bases(
        bases, spec.points_per_subspace, spec.noise_sigma, seed=spec.seed + 1
    )


def _complement_of(model):
    if isinstance(model, SubspaceModel):
        return model.complement_basis
    return np.atleast_2d(np.asarray(model, dtype=float))


def _unit_columns(normals):
    """The (D, 1) normals as the unit columns of one D x k array."""
    V = np.hstack(normals)
    norms = np.linalg.norm(V, axis=0)
    if not norms.all():
        raise ValueError("angle with a zero vector is undefined")
    return V / norms


def angle_error(true_models, estimated_models) -> float:
    """Mean angle (degrees) between true and estimated complement spaces.

    Models are matched by minimal total angle before averaging. Hyperplane
    complements compare as normal vectors with sign ignored, since a normal
    is only defined up to sign; higher-codimension complements compare by
    largest principal angle.
    """
    # scipy is imported on first use: it takes longer to import than gpca.
    from scipy.optimize import linear_sum_assignment

    true_bases = [_complement_of(m) for m in true_models]
    est_bases = [_complement_of(m) for m in estimated_models]
    if len(true_bases) != len(est_bases):
        raise ValueError(
            f"model count mismatch: {len(true_bases)} true vs {len(est_bases)} estimated"
        )
    n = len(true_bases)
    angle = np.zeros((n, n))
    for i, bt in enumerate(true_bases):
        for j, be in enumerate(est_bases):
            if bt.shape[1] > 1 or be.shape[1] > 1:
                angle[i, j] = max_principal_angle(bt, be)
    # every pair of hyperplane normals at once, sign-free, on atan2 so that
    # angles near zero keep full relative precision
    t_idx = [i for i, b in enumerate(true_bases) if b.shape[1] == 1]
    e_idx = [j for j, b in enumerate(est_bases) if b.shape[1] == 1]
    if t_idx and e_idx:
        T = _unit_columns([true_bases[i] for i in t_idx])
        E = _unit_columns([est_bases[j] for j in e_idx])
        cos = T.T @ E
        sin = np.linalg.norm(E.T[None] - T.T[:, None] * cos[:, :, None], axis=2)
        angle[np.ix_(t_idx, e_idx)] = np.arctan2(sin, np.abs(cos))
    rows, cols = linear_sum_assignment(angle)
    return float(np.degrees(angle[rows, cols].mean()))


def save_dataset(prefix, X, models, labels, spec=None):
    """Write points as CSV plus a JSON sidecar with ground truth.

    Floats are written with shortest round-trip precision. Returns the two
    paths written.
    """
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(csv_path, "w") as fh:
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    sidecar = {
        "spec": asdict(spec) if spec is not None else None,
        "labels": [int(v) for v in labels],
        "models": [
            {
                "dim": int(m.dim),
                "complement_basis": [[float(v) for v in row] for row in m.complement_basis],
            }
            for m in models
        ],
    }
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def load_dataset(csv_path):
    """Read a dataset CSV and, if present, its ground-truth sidecar."""
    csv_path = Path(csv_path)
    try:
        X = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read point CSV {csv_path}: {exc}") from exc
    sidecar = None
    json_path = csv_path.with_suffix(".json")
    if json_path.exists():
        try:
            with open(json_path) as fh:
                sidecar = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read sidecar {json_path}: {exc}") from exc
    return X, sidecar
