"""Command-line surface: generate, segment, discover, experiment, motion.

Every command is a pure function of its inputs, flags, and seed; repeated
runs produce byte-identical outputs except for wall-time columns. Exit
codes: 0 success, 2 input error, 3 fit failure, 4 discovery failure.
Input is checked before any fitting: data values must be finite, points
need at least 2 coordinates, counts are at least 1, focal is positive,
outlier levels lie inside (0, 1), and motion needs a moving correspondence
or at least 5 tracks of 3 frames. `segment`, `motion` and a gpca chain of
`experiment` need at least `fitting.min_samples(n, D)` points for n
subspaces in R^D. A generate spec or experiment config holds no key beyond
the ones its command reads, no float, bool or string where an integer is
read, no string where a list is read, and no negative seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .discovery import count_hyperplanes, discover_equal_dim, recursive_segment
from .errors import DiscoveryError, FitError, GpcaError, InputError
from .experiment import ExperimentConfig, run_experiment, rows_to_csv
from .fitting import embed, fit_vanishing, min_samples
from .motion import (
    convert_w_matrix,
    epipolar_lines,
    project_trajectories,
    read_correspondences,
    read_tracks,
    trajectory_matrix,
)
from .polynomial import to_text
from .segmentation import reject_outliers, segment
from .synthgen import (
    ArrangementSpec,
    as_tuple,
    generate,
    generate_from_bases,
    load_dataset,
    save_dataset,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_DISCOVERY = 4


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(payload, path):
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _finite(array, path):
    if not np.isfinite(array).all():
        raise InputError(f"{path}: NaN or infinite values")
    return array


def _load_points(path):
    X, sidecar = load_dataset(path)
    if X.size == 0:
        raise InputError(f"{path}: no data rows")
    if X.shape[1] < 2:
        raise InputError(f"{path}: points need at least 2 coordinates to lie on subspaces")
    return _finite(X, path), sidecar


def _check_samples(points, n, path):
    try:
        needed = min_samples(n, points.shape[1])
    except OverflowError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if points.shape[0] < needed:
        raise InputError(
            f"{path}: {points.shape[0]} points cannot fit {n} subspaces "
            f"in R^{points.shape[1]}; at least {needed} are needed"
        )


def _model_payload(model):
    return {
        "dim": int(model.dim),
        "complement_basis": [[float(v) for v in row] for row in model.complement_basis],
        "representative": [float(v) for v in model.representative],
    }


def _segment_payload(command, seg, n, basis=None):
    payload = {
        "command": command,
        "n": int(n),
        "dims": [int(m.dim) for m in seg.models],
        "models": [_model_payload(m) for m in seg.models],
        "labels": [int(v) for v in seg.labels],
        "residuals": [float(v) for v in seg.residuals],
        "stages": [
            {
                "degree": int(s.degree),
                "nullity": int(s.nullity),
                "picked_index": int(s.picked_index),
                "model_dim": int(s.model_dim),
            }
            for s in seg.stages
        ],
    }
    if basis is not None:
        payload["vanishing_basis"] = [to_text(p) for p in basis]
    return payload


def _read_object(path, what, keys):
    """The JSON object in a file, which may hold no key outside `keys`."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise InputError(f"unknown {what} keys {unknown}; known keys are {sorted(keys)}")
    return raw


def _spec_bases(bases, spec):
    """A spec's explicit bases: one (ambient_dim, d) matrix of rank d per dim."""
    bases = [np.array(b, dtype=float) for b in as_tuple(bases, "bases")]
    shapes = [(spec.ambient_dim, d) for d in spec.dims]
    if [b.shape for b in bases] != shapes or any(
        np.linalg.matrix_rank(b) < b.shape[1] for b in bases
    ):
        raise ValueError(f"bases must have shapes {shapes}, each of full column rank")
    return bases


def cmd_generate(args) -> int:
    keys = [f.name for f in fields(ArrangementSpec)] + ["bases"]
    raw = _read_object(args.spec, "spec", keys)
    bases = raw.pop("bases", None)
    try:
        spec = ArrangementSpec(**raw)
        if bases is None:
            X, models, labels = generate(spec)
        else:
            X, models, labels = generate_from_bases(
                _spec_bases(bases, spec), spec.points_per_subspace, spec.noise_sigma, spec.seed
            )
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad arrangement spec: {exc}") from exc
    csv_path, json_path = save_dataset(args.out, X, models, labels, spec)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _parse_outliers(flag):
    mode, _, level = flag.partition(":")
    if mode not in ("percentile", "chi2") or not level:
        raise InputError(
            f"bad --outliers value {flag!r}; expected percentile:Q or chi2:LEVEL"
        )
    try:
        level = float(level)
    except ValueError as exc:
        raise InputError(f"bad outlier level in {flag!r}: {exc}") from exc
    if not 0.0 < level < 1.0:
        raise InputError(f"outlier level in {flag!r} must lie strictly between 0 and 1")
    return mode, level


def _check_args(args):
    """Reject flag values no command can use, before any input is read."""
    flags = vars(args)
    if isinstance(flags.get("n"), str) and args.n != "auto":
        try:
            args.n = int(args.n)
        except ValueError:
            raise InputError(f"--n must be an integer or 'auto', got {args.n!r}") from None
    for name in ("n", "n_max"):
        if isinstance(flags.get(name), int) and flags[name] < 1:
            raise InputError(f"--{name.replace('_', '-')} must be at least 1, got {flags[name]}")
    if flags.get("focal") is not None and not (np.isfinite(args.focal) and args.focal > 0.0):
        raise InputError(f"--focal must be a positive number, got {args.focal}")
    if flags.get("outliers"):
        args.outliers = _parse_outliers(args.outliers)


def cmd_segment(args) -> int:
    X, _ = _load_points(args.data)
    _check_samples(X, args.n, args.data)
    outliers = np.zeros(X.shape[0], dtype=bool)
    if args.outliers:
        basis, _ = fit_vanishing(embed(X, args.n))
        outliers = ~reject_outliers(X, basis, *args.outliers)
        seg = segment(X[~outliers], args.n)
    else:
        seg = segment(X, args.n)
        basis = seg.vanishing_basis
    labels = np.full(X.shape[0], -1, dtype=int)
    residuals = np.full(X.shape[0], np.nan)
    labels[~outliers] = seg.labels
    residuals[~outliers] = seg.residuals
    payload = _segment_payload("segment", seg, args.n, basis)
    payload["labels"] = [int(v) for v in labels]
    payload["residuals"] = [None if np.isnan(v) else float(v) for v in residuals]
    payload["outliers"] = [int(i) for i in np.flatnonzero(outliers)]
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_discover(args) -> int:
    X, _ = _load_points(args.data)
    if args.equal_dim:
        report = discover_equal_dim(X, args.n_max)
    else:
        _, report = recursive_segment(X, args.n_max)
    _write_text(report.to_text(), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    raw = _read_object(
        args.config, "experiment config", [f.name for f in fields(ExperimentConfig)]
    )
    try:
        config = ExperimentConfig(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad experiment config: {exc}") from exc
    rows = run_experiment(config)
    _write_text(rows_to_csv(rows), args.out)
    return EXIT_OK


def cmd_motion(args) -> int:
    if args.mode == "epipolar":
        corr = _finite(read_correspondences(args.input), args.input)
        data = epipolar_lines(corr / args.focal if args.focal is not None else corr)
        if not data.kept.any():
            raise InputError(f"{args.input}: every correspondence is stationary")
        points = data.lines
    else:
        reader = convert_w_matrix if args.format == "w-matrix" else read_tracks
        tracks = _finite(reader(args.input), args.input)
        if len(tracks) < 5:
            raise InputError(f"{args.input}: {len(tracks)} tracks; at least 5 are needed")
        if tracks.shape[1] < 3:
            raise InputError(f"{args.input}: {tracks.shape[1]} frames; at least 3 are needed")
        points = project_trajectories(trajectory_matrix(tracks))
    n = count_hyperplanes(points, args.n_max) if args.n == "auto" else args.n
    _check_samples(points, n, args.input)
    seg = segment(points, n)
    payload = _segment_payload(f"motion-{args.mode}", seg, n)
    if args.mode == "epipolar":
        labels = np.full(corr.shape[0], -1, dtype=int)
        labels[data.kept] = seg.labels
        payload["labels"] = [int(v) for v in labels]
        payload["excluded"] = [int(i) for i in data.excluded_indices]
        payload["epipoles"] = [
            [float(v) for v in m.complement_basis[:, 0]] for m in seg.models
        ]
    _write_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpca",
        description="Subspace segmentation by polynomial fitting, differentiation, and voting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic arrangement dataset")
    p.add_argument("--spec", required=True, help="arrangement spec JSON")
    p.add_argument("--out", required=True, help="output path prefix (.csv/.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("segment", help="segment a known number of subspaces")
    p.add_argument("--data", required=True, help="point-per-row CSV")
    p.add_argument("--n", type=int, required=True, help="number of subspaces")
    p.add_argument("--outliers", default=None, help="percentile:Q or chi2:LEVEL")
    p.add_argument("--out", default=None, help="report JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("discover", help="discover subspace count and dimensions")
    p.add_argument("--data", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument(
        "--equal-dim", action="store_true", help="consider only arrangements of equal dimensions"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("experiment", help="run the benchmark sweep")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="results CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("motion", help="two-view or multiframe motion segmentation")
    p.add_argument("--mode", choices=("epipolar", "affine"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--n", default="2", help="motion count or 'auto'")
    p.add_argument("--n-max", dest="n_max", type=int, default=4)
    p.add_argument(
        "--focal", type=float, help="focal length in pixels; scales image coordinates to rays"
    )
    p.add_argument("--format", choices=("tracks", "w-matrix"), default="tracks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_motion)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except GpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = {DiscoveryError: EXIT_DISCOVERY, FitError: EXIT_FIT}
        return next((code for kind, code in codes.items() if isinstance(exc, kind)), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
