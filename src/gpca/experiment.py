"""Deterministic benchmark harness: algorithm roster over a noise grid.

Each (noise, trial) cell regenerates the arrangement from a per-trial seed
and runs every roster entry on it. An entry is a `+`-chain of stages, such
as "gpca+ksub+em": each stage starts from the models of the chain before
it, and only the first stage draws from the entry's seed. Every distinct
prefix runs once per cell, so "gpca" and "gpca+ksub" are shared by the
entries that extend them, and each row is charged the time of all its
stages. Rows report angle error, classification rate, the last stage's
iteration count and wall time; they are deterministic under a fixed master
seed except for the wall-time column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .baselines import em_mixture_pca, k_subspaces
from .errors import FitError, InputError
from .fitting import min_samples
from .metrics import matched_accuracy
from .segmentation import segment
from .synthgen import ArrangementSpec, angle_error, as_int, as_real, as_tuple, generate

__all__ = ["ALGORITHMS", "ExperimentConfig", "TrialRow", "run_experiment", "rows_to_csv"]

ALGORITHMS = ("gpca", "ksub", "em", "gpca+ksub", "gpca+em", "gpca+ksub+em")


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
        for name in ("trials", "n", "ambient_dim", "points_per_subspace", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "algorithms", as_tuple(self.algorithms, "algorithms"))
        grid = as_tuple(self.noise_grid, "noise_grid")
        object.__setattr__(self, "noise_grid", tuple(as_real(s, "noise level") for s in grid))
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise InputError(f"unknown algorithms {unknown}; roster is {list(ALGORITHMS)}")
        for name in ("algorithms", "noise_grid"):
            entries = getattr(self, name)
            if not entries or len(set(entries)) < len(entries):
                raise InputError(f"{name} must be a non-empty list without repeats")
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
        object.__setattr__(self, "dims", tuple(as_int(d, "dim") for d in as_tuple(dims, "dims")))
        if len(self.dims) != self.n:
            raise InputError(f"{len(self.dims)} dims for n={self.n}")
        if any(not 0 < d < self.ambient_dim for d in self.dims):
            raise InputError(f"dims must lie strictly between 0 and {self.ambient_dim}")
        if self.points_per_subspace < max(self.dims):
            raise InputError("points_per_subspace must be at least the largest subspace dim")
        if any(a.startswith("gpca") for a in self.algorithms):
            N, needed = self.n * self.points_per_subspace, min_samples(self.n, self.ambient_dim)
            if N < needed:
                raise InputError(
                    f"{N} points cannot fit {self.n} subspaces in R^{self.ambient_dim} "
                    f"by gpca; at least {needed} are needed"
                )


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


def _run_stage(stage, X, config, seed, warm):
    """(segmentation, iterations) of one stage, from `warm`'s models if given; gpca counts none."""
    if stage == "gpca":
        return segment(X, config.n), 0
    fit = k_subspaces if stage == "ksub" else em_mixture_pca
    result = fit(X, config.dims, seed=seed, init_models=None if warm is None else warm.models)
    return result[0], result[-1]


def _run_chain(name, X, config, iter_seed, done):
    """(segmentation or FitError, iterations, seconds) of chain `name`, kept in `done`.

    "a+b" runs stage b warm-started from chain a's models, and its seconds
    include chain a's. A failed prefix fails every chain that extends it.
    The seed reaches only a first stage: a warm-started stage ignores it,
    so a cached prefix is the one its own roster entry would have run.
    """
    if name not in done:
        prefix, _, stage = name.rpartition("+")
        warm, _, seconds = (None, 0, 0.0)
        if prefix:
            warm, _, seconds = _run_chain(prefix, X, config, iter_seed, done)
        start = time.perf_counter()
        if isinstance(warm, FitError):
            seg, iterations = warm, None
        else:
            try:
                seg, iterations = _run_stage(stage, X, config, iter_seed, warm)
            except FitError as exc:
                seg, iterations = exc, None
        done[name] = (seg, iterations, seconds + time.perf_counter() - start)
    return done[name]


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
            done = {}
            for child, name in zip(children[1:], config.algorithms):
                iter_seed = int(child.generate_state(1)[0])
                seg, iterations, seconds = _run_chain(name, X, config, iter_seed, done)
                if isinstance(seg, FitError):
                    scores, status = (None, None, None), f"failed: {seg}"
                else:
                    accuracy = matched_accuracy(true_labels, seg.labels, size=config.n)
                    scores = (angle_error(true_models, seg.models), 100.0 * accuracy, iterations)
                    status = "ok"
                rows.append(TrialRow("trial", name, sigma, trial, *scores, seconds, status))
    rows.extend(_summaries(config, rows))
    return rows


def _summaries(config, rows):
    """One "mean" row per (sigma, algorithm) cell over its successful trial rows."""
    measures = ("error_degrees", "classification_pct", "iterations", "wall_time_s")
    out = []
    for sigma in config.noise_grid:
        for name in config.algorithms:
            cell = [
                r
                for r in rows
                if (r.kind, r.algorithm, r.sigma, r.status) == ("trial", name, sigma, "ok")
            ]
            if cell:
                means = [float(np.mean([getattr(r, m) for r in cell])) for m in measures]
                out.append(TrialRow("mean", name, sigma, -1, *means))
    return out


def rows_to_csv(rows) -> str:
    """Render rows as CSV, one column per `TrialRow` field, floats shortest round-trip.

    A comma inside a text field (only a failure status holds one) becomes ";".
    """
    names = [f.name for f in fields(TrialRow)]

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, str):
            return value.replace(",", ";")
        return str(value)

    lines = [",".join(names)]
    lines.extend(",".join(fmt(getattr(r, name)) for name in names) for r in rows)
    return "\n".join(lines) + "\n"
