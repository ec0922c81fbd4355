"""Motion segmentation reductions to subspace segmentation.

Two-view translational motions: each correspondence yields an epipolar line
(the cross product of the two image rays); lines of one motion lie on the
plane whose normal is that motion's epipole, so segmenting translations is
plane segmentation in R^3. Multiframe affine motions: stacked trajectories
of one rigid motion span a subspace of dimension at most four, so tracks
are segmented in a five-dimensional spectral projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._linalg import unit_rows
from .errors import FitError, InputError

__all__ = [
    "EpipolarData",
    "epipolar_lines",
    "trajectory_matrix",
    "project_trajectories",
    "read_correspondences",
    "read_tracks",
    "write_tracks",
    "convert_w_matrix",
]

# Cross products smaller than this (relative to the ray norms) indicate a
# stationary correspondence with no epipolar information.
_ZERO_MOTION_RTOL = 1e-12

# Affine tracks are segmented in this many spectral dimensions: one rigid
# motion spans at most four.
_TRAJECTORY_DIM = 5


@dataclass(frozen=True, eq=False)
class EpipolarData:
    """Unit epipolar lines plus the mask of correspondences that produced them."""

    lines: np.ndarray = field(repr=False)
    kept: np.ndarray = field(repr=False)

    @property
    def excluded_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.kept)


def epipolar_lines(correspondences) -> EpipolarData:
    """Cross products of matched rays, unit-normalized for segmentation.

    `correspondences` holds (x1, y1, x2, y2) rows; each row is the pair of
    rays (x1, y1, 1) and (x2, y2, 1). Stationary correspondences (parallel
    rays, vanishing cross product) are flagged and excluded; their indices
    are reported in the result.
    """
    rows = np.atleast_2d(np.asarray(correspondences, dtype=float))
    if rows.shape[1] != 4:
        raise ValueError(f"expected 4 columns (x1, y1, x2, y2), got {rows.shape[1]}")
    if rows.shape[0] == 0:
        raise ValueError("no correspondences given")
    ones = np.ones((rows.shape[0], 1))
    x1 = np.hstack([rows[:, :2], ones])
    x2 = np.hstack([rows[:, 2:], ones])
    lines = np.cross(x2, x1)
    norms = np.linalg.norm(lines, axis=1)
    scale = np.linalg.norm(x1, axis=1) * np.linalg.norm(x2, axis=1)
    kept = norms > _ZERO_MOTION_RTOL * scale
    return EpipolarData(lines=unit_rows(lines[kept]), kept=kept)


def trajectory_matrix(tracks) -> np.ndarray:
    """Assemble the 2F x N matrix from N complete tracks of F image points.

    Rows 2f and 2f+1 hold frame f's x and y coordinates; column j is track j.
    """
    tracks = list(tracks)
    if not tracks:
        raise ValueError("no tracks given")
    arrays = [np.atleast_2d(np.asarray(t, dtype=float)) for t in tracks]
    frames = arrays[0].shape[0]
    for i, t in enumerate(arrays):
        if t.shape != (frames, 2):
            raise InputError(
                f"track {i} has shape {t.shape}; every track needs {frames} "
                "frames of 2 coordinates"
            )
    W = np.empty((2 * frames, len(arrays)))
    for j, t in enumerate(arrays):
        W[0::2, j] = t[:, 0]
        W[1::2, j] = t[:, 1]
    return W


def project_trajectories(W) -> np.ndarray:
    """Per-track coordinates in the five leading right singular directions.

    Returns an (N, 5) array: row j holds track j's coordinates along the top
    singular directions (singular-value scaled, i.e. the projection of
    column j onto the leading left singular basis). A single rigid motion
    occupies at most four of the five dimensions. W needs at least 5 rows
    (3 frames) and 5 columns (tracks).
    """
    matrix = np.asarray(W, dtype=float)
    if min(matrix.shape) < _TRAJECTORY_DIM:
        raise ValueError(
            f"need at least {_TRAJECTORY_DIM} rows and {_TRAJECTORY_DIM} tracks, "
            f"got a {matrix.shape[0]} x {matrix.shape[1]} trajectory matrix"
        )
    _, sv, rows = np.linalg.svd(matrix, full_matrices=False)
    if (sv > 1e-12 * sv[0]).sum() < 2:
        raise FitError("trajectory matrix is degenerate (rank below 2)")
    return (sv[:_TRAJECTORY_DIM, None] * rows[:_TRAJECTORY_DIM]).T.copy()


def synthetic_translations(
    n_motions: int = 2,
    points_per_motion: int = 46,
    pixel_noise: float = 0.0,
    seed: int = 0,
    focal: float = 500.0,
):
    """Synthetic two-frame scene of purely translating objects.

    The camera has the given focal length in pixels (image scale ~500x500,
    principal point at the center). Each object gets its own translation
    between the frames; Gaussian pixel noise is added to both frames.

    Returns (correspondences (N, 4), epipoles (n, 3), labels (N,)). The
    epipoles are the unit-normalized images of the translations; epipolar
    lines of one object lie on the plane with that normal.
    """
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(n_motions):
        for _ in range(1000):
            t = rng.standard_normal(3)
            t /= np.linalg.norm(t)
            if all(abs(t @ u) < np.cos(np.deg2rad(30.0)) for u in directions):
                directions.append(t)
                break
        else:
            raise RuntimeError("could not sample separated translations")
    # Translation and depth ranges keep image displacements large relative to
    # pixel noise, as with hand-held scenes of nearby moving objects.
    translations = [t * rng.uniform(0.4, 0.7) for t in directions]

    rows, labels, epipoles = [], [], []
    for index, t in enumerate(translations):
        epipole = np.array([focal * t[0], focal * t[1], t[2]])
        epipoles.append(epipole / np.linalg.norm(epipole))
        for _ in range(points_per_motion):
            depth = rng.uniform(1.5, 3.5)
            point = np.array(
                [rng.uniform(-0.45, 0.45) * depth, rng.uniform(-0.45, 0.45) * depth, depth]
            )
            moved = point + t
            if moved[2] < 0.5:
                moved[2] = 0.5
            u1 = focal * point[:2] / point[2]
            u2 = focal * moved[:2] / moved[2]
            if pixel_noise > 0:
                u1 = u1 + rng.normal(0.0, pixel_noise, size=2)
                u2 = u2 + rng.normal(0.0, pixel_noise, size=2)
            rows.append([u1[0], u1[1], u2[0], u2[1]])
            labels.append(index)
    return np.array(rows), np.vstack(epipoles), np.array(labels, dtype=int)


def read_correspondences(path) -> np.ndarray:
    """Correspondence CSV: one `x1,y1,x2,y2` row per tracked point."""
    rows = []
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no correspondence rows")
    return np.array(rows)


def read_tracks(path) -> np.ndarray:
    """Track file: header `F N`, then N lines of 2F whitespace-separated floats.

    Returns an (N, F, 2) array.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise InputError(f"{path}: empty track file")
    header_no, header = lines[0]
    try:
        frames, count = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise InputError(f"{path}:{header_no}: header must be `F N`: {exc}") from exc
    if frames < 1 or count < 0:
        raise InputError(f"{path}:{header_no}: header `F N` needs F >= 1 and N >= 0")
    body = lines[1:]
    if len(body) != count:
        raise InputError(f"{path}: header promises {count} tracks, found {len(body)}")
    tracks = np.empty((count, frames, 2))
    for row, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 2 * frames:
            raise InputError(
                f"{path}:{lineno}: expected {2 * frames} coordinates, got {len(parts)}"
            )
        try:
            vals = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        tracks[row] = vals.reshape(frames, 2)
    return tracks


def write_tracks(path, tracks) -> None:
    """Inverse of read_tracks."""
    tracks = np.asarray(tracks, dtype=float)
    count, frames, _ = tracks.shape
    with open(path, "w") as fh:
        fh.write(f"{frames} {count}\n")
        for track in tracks:
            fh.write(" ".join(repr(float(v)) for v in track.ravel()) + "\n")


def convert_w_matrix(path) -> np.ndarray:
    """Best-effort importer for externally published trajectory matrices.

    Accepts a whitespace-separated numeric matrix with 2F rows and N
    columns (coordinates interleaved by frame) and returns (N, F, 2) tracks.
    """
    path = Path(path)
    try:
        matrix = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse matrix file {path}: {exc}") from exc
    if matrix.shape[0] % 2 != 0:
        raise InputError(
            f"{path}: matrix has {matrix.shape[0]} rows; expected an even count "
            "(two rows per frame)"
        )
    frames = matrix.shape[0] // 2
    tracks = np.empty((matrix.shape[1], frames, 2))
    tracks[:, :, 0] = matrix[0::2, :].T
    tracks[:, :, 1] = matrix[1::2, :].T
    return tracks
