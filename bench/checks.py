"""Correctness checks for benchmark outputs, written with numpy alone.

Each check returns a list of problems; an empty list means the output
passed. Checks compare against the generator's ground truth or against
properties any correct segmentation has. None of them compares against a
stored copy of earlier program output, and none calls into `gpca`.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

# Mean matched complement angle accepted at noise level sigma, in degrees:
# the floor at sigma = 0, where only rounding error is allowed, rising by
# ANGLE_BOUND_PER_SIGMA_DEG per unit of sigma up to ANGLE_BOUND_CAP_DEG.
# With noise the bound is wide. The generator may put two subspaces 10-15
# degrees apart, and then gpca can be off by tens of degrees at sigma = 0.01
# or 0.02 alike (up to 34 degrees over 3200 sweep cells, 28 over 800
# `segment` calls at D = 8). Random models are off by a median of 39
# degrees in R^3, 52 in R^5 and 62 in R^8. On noisy data the
# nearest-subspace label check and, in the sweep, the warm-start rule bind.
ANGLE_BOUND_FLOOR_DEG = 1e-3
ANGLE_BOUND_PER_SIGMA_DEG = 4500.0
ANGLE_BOUND_CAP_DEG = 45.0

# A gpca+* sweep row may end at most this much further from the truth than
# the gpca row it started from. Seen: at most 4.6 degrees over 1900 cells;
# K-subspaces and EM from their own random starts exceed it in 16-20% of
# cells.
REFINE_SLACK_DEG = 10.0

# Largest epipole error accepted per pixel of image noise, in degrees.
EPIPOLE_BOUND_PER_PIXEL_DEG = 6.0

# A label counts as the nearest subspace when its residual is within this
# relative tolerance of the smallest one, so exact ties may go either way.
NEAREST_RTOL = 1e-9


def angle_bound_deg(sigma: float) -> float:
    """Largest mean complement angle, in degrees, accepted at noise sigma."""
    rise = min(ANGLE_BOUND_CAP_DEG, ANGLE_BOUND_PER_SIGMA_DEG * float(sigma))
    return ANGLE_BOUND_FLOOR_DEG + rise


def largest_angle_deg(A, B) -> float:
    """Largest principal angle between two equal-rank orthonormal column spans.

    Uses the sine of the angle, ||B - A A^T B||_2, which keeps full
    precision for small angles.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sines = np.linalg.svd(B - A @ (A.T @ B), compute_uv=False)
    return float(np.degrees(np.arcsin(np.clip(sines.max(initial=0.0), 0.0, 1.0))))


def matched_mean_angle_deg(true_bases, est_bases) -> float:
    """Mean largest principal angle after the best one-to-one matching."""
    n = len(true_bases)
    cost = np.array(
        [
            [
                largest_angle_deg(t, e) if np.shape(t) == np.shape(e) else 90.0
                for e in est_bases
            ]
            for t in true_bases
        ]
    )
    return min(
        float(np.mean(cost[np.arange(n), list(perm)]))
        for perm in itertools.permutations(range(n))
    )


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code!r}, expected 0"]


def check_dims(true_dims, got_dims) -> list[str]:
    if sorted(int(d) for d in got_dims) != sorted(int(d) for d in true_dims):
        return [f"dims {sorted(got_dims)} differ from the generator's {sorted(true_dims)}"]
    return []


def nearest_label_problems(X, bases, labels) -> list[str]:
    """Every label must name a subspace of smallest residual ||x^T B||."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        return [f"{labels.size} labels for {X.shape[0]} points"]
    if labels.size and (labels.min() < 0 or labels.max() >= len(bases)):
        return [f"labels outside 0..{len(bases) - 1}"]
    residuals = np.column_stack(
        [np.sqrt(np.sum((X @ np.asarray(B, dtype=float)) ** 2, axis=1)) for B in bases]
    )
    chosen = residuals[np.arange(X.shape[0]), labels]
    best = residuals.min(axis=1)
    wrong = np.flatnonzero(chosen > best + NEAREST_RTOL * (1.0 + residuals.max(axis=1)))
    if wrong.size:
        return [f"{wrong.size} points not labelled with their nearest subspace"]
    return []


def check_segmentation(X, labels, bases, reported_dims, true_bases, sigma) -> list[str]:
    """Model count and dims, orthonormal bases, angle bound, nearest labels.

    `bases` are the returned complement bases (D x c each), `reported_dims`
    the dims the program reported for them, and `true_bases` the
    generator's complement bases.
    """
    bases = [np.asarray(B, dtype=float) for B in bases]
    true_bases = [np.asarray(B, dtype=float) for B in true_bases]
    if len(bases) != len(true_bases):
        return [f"{len(bases)} models, the generator made {len(true_bases)}"]
    D = true_bases[0].shape[0]
    true_dims = [D - B.shape[1] for B in true_bases]
    problems = check_dims(true_dims, reported_dims)
    if [D - B.shape[1] for B in bases] != [int(d) for d in reported_dims]:
        problems.append("reported dims disagree with the complement basis shapes")
    for index, B in enumerate(bases):
        if B.shape[0] != D or not np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-8):
            problems.append(f"complement basis {index} is not orthonormal in R^{D}")
    if problems:
        return problems
    angle = matched_mean_angle_deg(true_bases, bases)
    if angle > angle_bound_deg(sigma):
        problems.append(
            f"mean complement angle {angle:.4g} deg exceeds {angle_bound_deg(sigma):.4g} "
            f"deg at sigma={sigma}"
        )
    problems.extend(nearest_label_problems(X, bases, labels))
    return problems


def check_outlier_flags(labels, flagged, injected) -> list[str]:
    """Flagged points carry label -1 and are mostly the injected outliers."""
    labels = np.asarray(labels)
    flagged = np.asarray(sorted(flagged), dtype=int)
    problems = []
    marked = np.flatnonzero(labels == -1)
    if not np.array_equal(marked, flagged):
        problems.append("points labelled -1 are not exactly the flagged outliers")
    if flagged.size == 0:
        return problems + ["no point was flagged as an outlier"]
    hits = np.isin(flagged, np.asarray(list(injected), dtype=int)).sum()
    if hits <= flagged.size / 2:
        problems.append(
            f"only {hits} of {flagged.size} flagged points are injected outliers"
        )
    return problems


def check_epipoles(estimated, true, pixel_noise) -> list[str]:
    """Sign-invariant epipole directions match the truth within the bound."""
    est = [np.asarray(e, dtype=float).reshape(3, 1) for e in estimated]
    tru = [np.asarray(t, dtype=float).reshape(3, 1) for t in true]
    if len(est) != len(tru):
        return [f"{len(est)} epipoles, expected {len(tru)}"]
    est = [e / np.linalg.norm(e) for e in est]
    tru = [t / np.linalg.norm(t) for t in tru]
    worst = min(
        max(largest_angle_deg(tru[i], est[j]) for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(est)))
    )
    bound = EPIPOLE_BOUND_PER_PIXEL_DEG * float(pixel_noise)
    if worst > bound:
        return [f"epipole off by {worst:.4g} deg, bound {bound:.4g} deg"]
    return []


def epipolar_lines(corr):
    """Lines x2 x x1 of pixel rows (x1, y1, x2, y2) taken as rays (x, y, 1)."""
    corr = np.asarray(corr, dtype=float)
    ones = np.ones((corr.shape[0], 1))
    x1 = np.hstack([corr[:, :2], ones])
    x2 = np.hstack([corr[:, 2:], ones])
    lines = np.cross(x2, x1)
    return lines / np.linalg.norm(lines, axis=1, keepdims=True)


def schema_problems(report, validator) -> list[str]:
    return [f"schema: {e.message}" for e in validator.iter_errors(report)][:3]


def discovered_dims(text) -> list[int] | None:
    """Dims from a `gpca discover` text report, either format; None if absent."""
    match = re.search(r"^\s*dims: \[([\d, ]*)\]\s*$", text, re.MULTILINE)
    if match:
        return [int(tok) for tok in match.group(1).split(",") if tok.strip()]
    d = re.search(r"^\s*d: (\d+)\s*$", text, re.MULTILINE)
    n = re.search(r"^\s*n: (\d+)\s*$", text, re.MULTILINE)
    if d and n:
        return [int(d.group(1))] * int(n.group(1))
    return None


def check_discover_text(text, true_dims) -> list[str]:
    dims = discovered_dims(text)
    if dims is None:
        return ["no dims in the discovery report"]
    return check_dims(true_dims, dims)


def check_sweep_rows(rows, algorithms, noise_grid) -> list[str]:
    """Every trial row ok; gpca rows within the angle bound; warm starts help.

    A gpca+* row starts its iterations from the gpca models of the same
    cell, so it may not end more than REFINE_SLACK_DEG further from the
    truth than that gpca row.
    """
    trial = [r for r in rows if r.kind == "trial"]
    problems = []
    if len(trial) != len(algorithms) * len(noise_grid):
        problems.append(
            f"{len(trial)} trial rows, expected {len(algorithms) * len(noise_grid)}"
        )
    problems += [f"{r.algorithm} at sigma={r.sigma}: {r.status}" for r in trial if r.status != "ok"]
    ok = [r for r in trial if r.status == "ok"]
    gpca_error = {r.sigma: r.error_degrees for r in ok if r.algorithm == "gpca"}
    for r in ok:
        if not (r.algorithm == "gpca" or r.algorithm.startswith("gpca+")):
            continue
        if not r.error_degrees <= angle_bound_deg(r.sigma):
            problems.append(
                f"{r.algorithm} at sigma={r.sigma}: angle {r.error_degrees:.4g} deg "
                f"exceeds {angle_bound_deg(r.sigma):.4g}"
            )
        start = gpca_error.get(r.sigma)
        if r.algorithm != "gpca" and start is not None and not (
            r.error_degrees <= start + REFINE_SLACK_DEG
        ):
            problems.append(
                f"{r.algorithm} at sigma={r.sigma}: angle {r.error_degrees:.4g} deg, "
                f"more than {REFINE_SLACK_DEG} deg worse than its gpca start ({start:.4g})"
            )
    return problems
