"""Each benchmark check passes a correct output and rejects a corrupted one."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from tracer import Tracer

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "gpca" / "schemas" / "report.schema.json"


def _arrangement(sigma, seed=0, D=5, n=4, per=200):
    """Hyperplanes in R^D with points on them; labels are the nearest plane."""
    rng = np.random.default_rng(seed)
    normals = [v / np.linalg.norm(v) for v in rng.standard_normal((n, D))]
    bases = [v.reshape(D, 1) for v in normals]
    blocks = []
    for b in normals:
        pts = rng.standard_normal((per, D))
        pts -= np.outer(pts @ b, b)
        blocks.append(pts + sigma * rng.standard_normal((per, 1)) * b)
    X = np.vstack(blocks)
    residuals = np.column_stack([np.abs(X @ B[:, 0]) for B in bases])
    return X, bases, np.argmin(residuals, axis=1)


def _rotated(B, degrees, seed=1):
    """B with its first column turned by `degrees` away from span(B)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(B.shape[0])
    v -= B @ (B.T @ v)
    v /= np.linalg.norm(v)
    out = B.copy()
    theta = np.radians(degrees)
    out[:, 0] = np.cos(theta) * B[:, 0] + np.sin(theta) * v
    return out


def _dims(bases):
    return [B.shape[0] - B.shape[1] for B in bases]


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_segmentation_check_accepts_the_truth(sigma):
    X, bases, labels = _arrangement(sigma)
    assert checks.check_segmentation(X, labels, bases, _dims(bases), bases, sigma) == []


def test_segmentation_check_rejects_shuffled_labels():
    X, bases, labels = _arrangement(0.01)
    shuffled = np.random.default_rng(2).permutation(labels)
    problems = checks.check_segmentation(X, shuffled, bases, _dims(bases), bases, 0.01)
    assert any("nearest subspace" in p for p in problems)


def test_segmentation_check_rejects_rotated_basis_on_exact_data():
    X, bases, labels = _arrangement(0.0)
    est = [_rotated(bases[0], 3.0)] + bases[1:]
    problems = checks.check_segmentation(X, labels, est, _dims(est), bases, 0.0)
    assert any("complement angle" in p for p in problems)


def test_segmentation_check_rejects_rotated_basis_on_noisy_data():
    X, bases, labels = _arrangement(0.01)
    est = [_rotated(bases[0], 3.0)] + bases[1:]
    problems = checks.check_segmentation(X, labels, est, _dims(est), bases, 0.01)
    assert any("nearest subspace" in p for p in problems)


def test_segmentation_check_rejects_wrong_dims():
    X, bases, labels = _arrangement(0.0)
    problems = checks.check_segmentation(X, labels, bases, [4, 4, 4, 3], bases, 0.0)
    assert any("dims" in p for p in problems)


def test_discover_check_reads_both_report_formats():
    recursive = "discovery report\n  subspaces: 3\n  dims: [2, 1, 3]\n  kappa: 1e-06\n"
    equal = "equal-dimension discovery\n  d: 2\n  n: 3\n"
    assert checks.check_discover_text(recursive, (1, 2, 3)) == []
    assert checks.check_discover_text(equal, (2, 2, 2)) == []


def test_discover_check_rejects_wrong_dims():
    assert checks.check_discover_text("  dims: [2, 2, 3]\n", (1, 2, 3))
    assert checks.check_discover_text("  d: 1\n  n: 3\n", (2, 2, 2))
    assert checks.check_discover_text("no dims here\n", (2, 2, 2))


def test_exit_check_rejects_nonzero_codes():
    assert checks.check_exit(0) == []
    for code in (1, 2, 3, 4):
        assert checks.check_exit(code)


def test_outlier_check_wants_mostly_injected_points():
    labels = np.zeros(10, dtype=int)
    labels[[7, 8, 9]] = -1
    assert checks.check_outlier_flags(labels, [7, 8, 9], range(7, 10)) == []
    labels[[1, 2, 3, 4]] = -1
    assert checks.check_outlier_flags(labels, [1, 2, 3, 4, 7, 8, 9], range(7, 10))


def test_outlier_check_rejects_labels_that_disagree_with_the_flags():
    labels = np.zeros(10, dtype=int)
    labels[9] = -1
    assert checks.check_outlier_flags(labels, [8, 9], range(7, 10))


def test_epipole_check_rejects_a_turned_epipole():
    true = [np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0])]
    assert checks.check_epipoles([-true[1], true[0]], true, 0.5) == []
    turned = _rotated(true[0].reshape(3, 1), 5.0)[:, 0]
    assert checks.check_epipoles([turned, true[1]], true, 0.5)


def test_motion_labels_must_name_the_nearest_epipole():
    rng = np.random.default_rng(3)
    epipoles = [np.array([[0.6], [0.0], [0.8]]), np.array([[0.0], [1.0], [0.0]])]
    corr, labels = [], []
    for label, e in enumerate(epipoles):
        for _ in range(20):
            x1 = np.append(rng.uniform(-0.5, 0.5, 2), 1.0)
            x2 = x1 + rng.uniform(0.1, 0.3) * e[:, 0]  # moves along the epipole
            x2 /= x2[2]
            corr.append([x1[0], x1[1], x2[0], x2[1]])
            labels.append(label)
    lines = checks.epipolar_lines(np.array(corr))
    labels = np.array(labels)
    assert checks.nearest_label_problems(lines, epipoles, labels) == []
    assert checks.nearest_label_problems(lines, epipoles, 1 - labels)


def _row(algorithm, sigma, error, status="ok"):
    return SimpleNamespace(
        kind="trial", algorithm=algorithm, sigma=sigma, error_degrees=error, status=status
    )


def test_sweep_check_rejects_failed_rows_and_large_gpca_errors():
    roster, grid = ("gpca", "ksub"), (0.0,)
    assert checks.check_sweep_rows([_row("gpca", 0.0, 0.0), _row("ksub", 0.0, 30.0)], roster, grid) == []
    assert checks.check_sweep_rows([_row("gpca", 0.0, 3.0), _row("ksub", 0.0, 0.0)], roster, grid)
    failed = [_row("gpca", 0.0, None, "failed: stage"), _row("ksub", 0.0, 0.0)]
    assert checks.check_sweep_rows(failed, roster, grid)
    assert checks.check_sweep_rows([_row("gpca", 0.0, 0.0)], roster, grid)


def test_sweep_check_rejects_bad_noisy_rows():
    roster, grid = ("gpca", "gpca+ksub"), (0.02,)
    good = [_row("gpca", 0.02, 25.0), _row("gpca+ksub", 0.02, 0.3)]
    assert checks.check_sweep_rows(good, roster, grid) == []
    far_off = [_row("gpca", 0.02, 60.0), _row("gpca+ksub", 0.02, 0.3)]
    assert any("exceeds" in p for p in checks.check_sweep_rows(far_off, roster, grid))
    worse = 3.0 + checks.REFINE_SLACK_DEG + 1.0
    broken_start = [_row("gpca", 0.02, 3.0), _row("gpca+ksub", 0.02, worse)]
    assert any("gpca start" in p for p in checks.check_sweep_rows(broken_start, roster, grid))


def test_schema_check_rejects_a_report_without_labels():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    report = {
        "command": "segment",
        "n": 1,
        "models": [{"dim": 2, "complement_basis": [[0.0], [0.0], [1.0]]}],
        "labels": [0, 0],
        "residuals": [0.0, 0.0],
    }
    assert checks.schema_problems(report, validator) == []
    del report["labels"]
    assert checks.schema_problems(report, validator)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["pass", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1]]
    assert tracer.self_times() == {"pass": 6.0, "a": 3.0, "b": 1.0}
    assert tracer.calls() == {"pass": 1, "a": 1, "b": 1}
