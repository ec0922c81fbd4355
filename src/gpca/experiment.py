"""Deterministic benchmark harness: algorithm roster over a noise grid.

Each (algorithm, noise, trial) cell regenerates the arrangement from a
per-trial seed, runs the algorithm (possibly warm-started by the algebraic
segmentation), and reports angle error, classification rate, iteration
count, and wall time. Rows are deterministic under a fixed master seed
except for the wall-time column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import IterativeConfig, em_mixture_pca, k_subspaces
from .errors import FitError, InputError
from .metrics import matched_accuracy
from .segmentation import segment
from .synthgen import ArrangementSpec, angle_error, generate

__all__ = ["ALGORITHMS", "ExperimentConfig", "TrialRow", "run_experiment", "rows_to_csv"]

ALGORITHMS = (
    "gpca",
    "ksub",
    "em",
    "gpca+ksub",
    "gpca+em",
    "gpca+ksub+em",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description: roster, noise grid, trials, and generation recipe."""

    algorithms: tuple[str, ...]
    noise_grid: tuple[float, ...]
    trials: int
    n: int
    ambient_dim: int = 3
    dims: tuple[int, ...] | None = None
    points_per_subspace: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "noise_grid", tuple(float(s) for s in self.noise_grid))
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise InputError(f"unknown algorithms {unknown}; roster is {list(ALGORITHMS)}")
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if not all(np.isfinite(s) and s >= 0 for s in self.noise_grid):
            raise InputError("noise levels must be finite and not negative")
        if self.seed < 0:
            raise InputError(f"seed cannot be negative, got {self.seed}")
        if self.n < 1:
            raise InputError("need at least one subspace")
        dims = self.dims
        if dims is None:
            dims = (self.ambient_dim - 1,) * self.n
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if len(self.dims) != self.n:
            raise InputError(f"{len(self.dims)} dims for n={self.n}")
        if any(not 0 < d < self.ambient_dim for d in self.dims):
            raise InputError(f"dims must lie strictly between 0 and {self.ambient_dim}")
        if self.points_per_subspace < max(self.dims):
            raise InputError("points_per_subspace must be at least the largest subspace dim")


@dataclass(frozen=True)
class TrialRow:
    """One results row; `kind` is "trial" for raw cells, "mean" for summaries."""

    kind: str
    algorithm: str
    sigma: float
    trial: int
    error_degrees: float | None
    classification_pct: float | None
    iterations: float | None
    wall_time_s: float | None
    status: str = "ok"


def _trial_seed(master: int, sigma_index: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(sigma_index, trial))


def _run_algorithm(name, X, true_models, true_labels, config, seed_seq, warm):
    """(error_degrees, classification_pct, iterations); `warm` is the cell's gpca result."""
    n = config.n
    dims = config.dims
    iter_seed = int(seed_seq.generate_state(1)[0])
    base_cfg = IterativeConfig(seed=iter_seed)

    def finish(seg, iterations):
        return (
            angle_error(true_models, seg.models),
            100.0 * matched_accuracy(true_labels, seg.labels, size=n),
            iterations,
        )

    if name == "ksub":
        seg, iters = k_subspaces(X, n, dims, base_cfg)
        return finish(seg, iters)
    if name == "em":
        seg, _, iters = em_mixture_pca(X, n, dims, config=base_cfg)
        return finish(seg, iters)

    if isinstance(warm, FitError):
        raise warm
    if name == "gpca":
        return finish(warm, 0)
    warm_cfg = replace(base_cfg, init_models=warm.models)
    if name == "gpca+ksub":
        seg, iters = k_subspaces(X, n, dims, warm_cfg)
        return finish(seg, iters)
    if name == "gpca+em":
        seg, _, iters = em_mixture_pca(X, n, dims, config=warm_cfg)
        return finish(seg, iters)
    if name == "gpca+ksub+em":
        mid, _ = k_subspaces(X, n, dims, warm_cfg)
        seg, _, iters = em_mixture_pca(
            X, n, dims, config=replace(base_cfg, init_models=mid.models)
        )
        return finish(seg, iters)
    raise InputError(f"unknown algorithm {name!r}")


def run_experiment(config: ExperimentConfig) -> list[TrialRow]:
    """Run the sweep; trial rows in deterministic order, means appended."""
    rows: list[TrialRow] = []
    for sigma_index, sigma in enumerate(config.noise_grid):
        for trial in range(config.trials):
            seed_seq = _trial_seed(config.seed, sigma_index, trial)
            children = seed_seq.spawn(len(config.algorithms) + 1)
            gen_seed = int(children[0].generate_state(1)[0])
            spec = ArrangementSpec(
                ambient_dim=config.ambient_dim,
                dims=config.dims,
                points_per_subspace=config.points_per_subspace,
                noise_sigma=sigma,
                seed=gen_seed,
            )
            X, true_models, true_labels = generate(spec)
            # One gpca segmentation (or its FitError) per cell; every gpca row and
            # gpca+* row reuses it and is charged its time.
            warm, warm_s = None, 0.0
            if any(name.startswith("gpca") for name in config.algorithms):
                start = time.perf_counter()
                try:
                    warm = segment(X, config.n)
                except FitError as exc:
                    warm = exc
                warm_s = time.perf_counter() - start
            for algo_index, name in enumerate(config.algorithms):
                start = time.perf_counter() - (warm_s if name.startswith("gpca") else 0.0)
                try:
                    error, classification, iterations = _run_algorithm(
                        name, X, true_models, true_labels, config, children[algo_index + 1], warm
                    )
                    rows.append(
                        TrialRow(
                            kind="trial",
                            algorithm=name,
                            sigma=sigma,
                            trial=trial,
                            error_degrees=error,
                            classification_pct=classification,
                            iterations=iterations,
                            wall_time_s=time.perf_counter() - start,
                        )
                    )
                except FitError as exc:
                    rows.append(
                        TrialRow(
                            kind="trial",
                            algorithm=name,
                            sigma=sigma,
                            trial=trial,
                            error_degrees=None,
                            classification_pct=None,
                            iterations=None,
                            wall_time_s=time.perf_counter() - start,
                            status=f"failed: {exc}",
                        )
                    )
    rows.extend(_summaries(config, rows))
    return rows


def _summaries(config, rows):
    """One "mean" row per (sigma, algorithm) cell over its successful trial rows."""
    out = []
    for sigma in config.noise_grid:
        for name in config.algorithms:
            cell = [
                r
                for r in rows
                if (r.kind, r.algorithm, r.sigma, r.status) == ("trial", name, sigma, "ok")
            ]
            if not cell:
                continue
            out.append(
                TrialRow(
                    kind="mean",
                    algorithm=name,
                    sigma=sigma,
                    trial=-1,
                    error_degrees=float(np.mean([r.error_degrees for r in cell])),
                    classification_pct=float(
                        np.mean([r.classification_pct for r in cell])
                    ),
                    iterations=float(np.mean([r.iterations for r in cell])),
                    wall_time_s=float(np.mean([r.wall_time_s for r in cell])),
                )
            )
    return out


def rows_to_csv(rows) -> str:
    """Render rows as CSV with shortest round-trip float formatting."""
    header = (
        "kind,algorithm,sigma,trial,error_degrees,classification_pct,"
        "iterations,wall_time_s,status"
    )

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [header]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.kind,
                    r.algorithm,
                    fmt(r.sigma),
                    str(r.trial),
                    fmt(r.error_degrees),
                    fmt(r.classification_pct),
                    fmt(r.iterations),
                    fmt(r.wall_time_s),
                    r.status.replace(",", ";"),
                ]
            )
        )
    return "\n".join(lines) + "\n"
