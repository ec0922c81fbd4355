"""Command-line surface: flows, exit codes, schema, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gpca
from gpca.cli import main
from gpca.metrics import matched_accuracy
from gpca.motion import synthetic_translations, write_tracks
from gpca.polynomial import from_text

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/gpca/schemas/report.schema.json").read_text()
)

LINE_PLANE_SPEC = {
    "ambient_dim": 3,
    "dims": [1, 2],
    "points_per_subspace": 120,
    "noise_sigma": 0.0,
    "seed": 7,
    "bases": [[[0.0], [0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]],
}


@pytest.fixture()
def dataset(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(LINE_PLANE_SPEC))
    out = tmp_path / "demo"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out.with_suffix(".csv")


class TestGenerate:
    def test_writes_csv_and_sidecar(self, dataset):
        assert dataset.exists()
        sidecar = json.loads(dataset.with_suffix(".json").read_text())
        assert len(sidecar["labels"]) == 240

    def test_identical_files_for_same_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(LINE_PLANE_SPEC))
        main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_schema_error_exit_code(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"ambient_dim": 3, "dims": []}))
        assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 2

    def test_row_count_matches_protocol(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"ambient_dim": 3, "dims": [2, 2, 2, 2], "points_per_subspace": 200, "seed": 1}
            )
        )
        out = tmp_path / "four"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = out.with_suffix(".csv").read_text().strip().splitlines()
        assert len(rows) == 800


class TestSegment:
    def test_report_dims_and_schema(self, dataset, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["segment", "--data", str(dataset), "--n", "2", "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, SCHEMA)
        assert sorted(report["dims"]) == [1, 2]
        truth = json.loads(dataset.with_suffix(".json").read_text())["labels"]
        assert matched_accuracy(truth, report["labels"]) == 1.0

    def test_vanishing_basis_round_trips(self, dataset, tmp_path):
        report_path = tmp_path / "report.json"
        main(["segment", "--data", str(dataset), "--n", "2", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        polys = [from_text(text) for text in report["vanishing_basis"]]
        assert len(polys) == 2
        assert all(p.degree == 2 and p.dim == 3 for p in polys)

    def test_missing_data_is_input_error(self, tmp_path):
        assert main(["segment", "--data", str(tmp_path / "nope.csv"), "--n", "2"]) == 2

    def test_degenerate_data_is_fit_error(self, tmp_path):
        bad = tmp_path / "zeros.csv"
        bad.write_text("\n".join("0.0,0.0,0.0" for _ in range(30)) + "\n")
        assert main(["segment", "--data", str(bad), "--n", "2"]) == 3

    def test_outlier_flag(self, dataset, tmp_path, capsys):
        X = np.loadtxt(dataset, delimiter=",")
        rng = np.random.default_rng(0)
        outliers = rng.uniform(-1, 1, size=(12, 3))
        contaminated = tmp_path / "contaminated.csv"
        with open(contaminated, "w") as fh:
            for row in np.vstack([X, outliers]):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        report_path = tmp_path / "outliers.json"
        code = main(
            [
                "segment",
                "--data",
                str(contaminated),
                "--n",
                "2",
                "--outliers",
                "percentile:0.93",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, SCHEMA)
        flagged = set(report["outliers"])
        assert flagged
        assert all(report["labels"][i] == -1 for i in flagged)
        # most flagged points are the injected ones
        injected = set(range(len(X), len(X) + 12))
        assert len(flagged & injected) >= len(flagged) // 2

    def test_bad_outlier_flag_is_input_error(self, dataset):
        assert (
            main(["segment", "--data", str(dataset), "--n", "2", "--outliers", "bogus"])
            == 2
        )

    def test_undersampled_degree_rejected(self, tmp_path):
        small = tmp_path / "small.csv"
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 3))
        pts[:, 2] = 0.0  # one plane, far too few points for degree 4
        with open(small, "w") as fh:
            for row in pts:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        argv = ["segment", "--data", str(small), "--n", "4", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert not (tmp_path / "r.json").exists()


class TestDiscover:
    def test_recursive_report(self, dataset, tmp_path, capsys):
        code = main(["discover", "--data", str(dataset), "--n-max", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "subspaces: 2" in out
        assert "dims: [1, 2]" in out or "dims: [2, 1]" in out

    def test_equal_dim_mode(self, tmp_path, capsys):
        # two coordinate lines hide inside a plane; the sweep still finds d=1
        spec = {
            "ambient_dim": 3,
            "dims": [1, 1],
            "points_per_subspace": 200,
            "seed": 3,
            "bases": [[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]]],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "lines"
        main(["generate", "--spec", str(spec_path), "--out", str(out)])
        code = main(
            ["discover", "--data", str(out.with_suffix(".csv")), "--n-max", "4", "--equal-dim"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "discovery report\n" in text
        assert "subspaces: 2" in text and "dims: [1, 1]" in text

    def test_discovery_failure_exit_code(self, tmp_path):
        rng = np.random.default_rng(1)
        full = tmp_path / "full.csv"
        with open(full, "w") as fh:
            for row in rng.standard_normal((300, 3)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        assert main(["discover", "--data", str(full), "--n-max", "2"]) == 4

    def test_report_text_deterministic(self, dataset, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["discover", "--data", str(dataset), "--n-max", "3", "--out", str(a)])
        main(["discover", "--data", str(dataset), "--n-max", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExperiment:
    def test_small_sweep_csv(self, tmp_path):
        config = {
            "algorithms": ["gpca", "ksub", "em", "gpca+ksub", "gpca+ksub+em"],
            "noise_grid": [0.0, 0.02],
            "trials": 2,
            "n": 2,
            "points_per_subspace": 80,
            "seed": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "results.csv"
        assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["kind", "algorithm", "sigma", "trial"]
        trial_rows = [ln for ln in lines[1:] if ln.startswith("trial,")]
        mean_rows = [ln for ln in lines[1:] if ln.startswith("mean,")]
        assert len(trial_rows) == 20  # 5 algorithms x 2 sigmas x 2 trials
        assert mean_rows
        chained = [ln for ln in trial_rows if ",gpca+ksub+em," in ln]
        assert chained and all(ln.endswith(",ok") for ln in chained)

    def test_deterministic_except_wall_time(self, tmp_path):
        config = {
            "algorithms": ["gpca"],
            "noise_grid": [0.01],
            "trials": 2,
            "n": 2,
            "points_per_subspace": 60,
            "seed": 9,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["experiment", "--config", str(config_path), "--out", str(a)])
        main(["experiment", "--config", str(config_path), "--out", str(b)])

        def strip_wall_time(path):
            rows = []
            for line in path.read_text().splitlines():
                parts = line.split(",")
                rows.append(",".join(parts[:7] + parts[8:]))
            return rows

        assert strip_wall_time(a) == strip_wall_time(b)

    def test_unknown_algorithm_is_input_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"algorithms": ["pfa"], "noise_grid": [0], "trials": 1, "n": 2})
        )
        assert main(["experiment", "--config", str(config_path)]) == 2


class TestMotion:
    def test_epipolar_flow(self, tmp_path):
        corr, epipoles, labels = synthetic_translations(2, 46, 0.0, seed=21)
        corr_path = tmp_path / "corr.csv"
        with open(corr_path, "w") as fh:
            for row in corr:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        report_path = tmp_path / "motion.json"
        code = main(
            [
                "motion",
                "--mode",
                "epipolar",
                "--input",
                str(corr_path),
                "--n",
                "2",
                "--focal",
                "500",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["dims"] == [2, 2]
        assert len(report["epipoles"]) == 2
        assert matched_accuracy(labels, report["labels"]) == 1.0

    def test_epipolar_auto_count(self, tmp_path):
        corr, _, _ = synthetic_translations(2, 46, 0.0, seed=22)
        corr_path = tmp_path / "corr.csv"
        with open(corr_path, "w") as fh:
            for row in corr:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        report_path = tmp_path / "auto.json"
        code = main(
            [
                "motion",
                "--mode",
                "epipolar",
                "--input",
                str(corr_path),
                "--n",
                "auto",
                "--focal",
                "500",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["n"] == 2

    def test_stationary_rows_reported_excluded(self, tmp_path):
        corr, _, _ = synthetic_translations(2, 20, 0.0, seed=23)
        frozen = np.vstack([corr, [[5.0, 6.0, 5.0, 6.0]]])
        corr_path = tmp_path / "corr.csv"
        with open(corr_path, "w") as fh:
            for row in frozen:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        report_path = tmp_path / "excl.json"
        main(
            [
                "motion",
                "--mode",
                "epipolar",
                "--input",
                str(corr_path),
                "--n",
                "2",
                "--focal",
                "500",
                "--out",
                str(report_path),
            ]
        )
        report = json.loads(report_path.read_text())
        assert report["excluded"] == [40]
        assert report["labels"][40] == -1

    def test_affine_track_file(self, tmp_path):
        from test_motion import affine_scene

        tracks, labels = affine_scene(2, 30, 8, seed=24)
        track_path = tmp_path / "tracks.txt"
        write_tracks(track_path, tracks)
        report_path = tmp_path / "affine.json"
        code = main(
            [
                "motion",
                "--mode",
                "affine",
                "--input",
                str(track_path),
                "--n",
                "2",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, SCHEMA)
        assert matched_accuracy(labels, report["labels"]) == 1.0

    def test_affine_auto_count(self, tmp_path):
        from test_motion import affine_scene

        tracks, labels = affine_scene(3, 30, 8, seed=26)
        track_path = tmp_path / "tracks.txt"
        write_tracks(track_path, tracks)
        report_path = tmp_path / "auto.json"
        argv = ["motion", "--mode", "affine", "--input", str(track_path), "--n", "auto"]
        assert main(argv + ["--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 3
        assert matched_accuracy(labels, report["labels"]) == 1.0

    def test_w_matrix_import(self, tmp_path):
        from test_motion import affine_scene
        from gpca.motion import trajectory_matrix

        tracks, labels = affine_scene(2, 20, 6, seed=25)
        W = trajectory_matrix(tracks)
        w_path = tmp_path / "w.txt"
        np.savetxt(w_path, W)
        report_path = tmp_path / "w.json"
        code = main(
            [
                "motion",
                "--mode",
                "affine",
                "--input",
                str(w_path),
                "--format",
                "w-matrix",
                "--n",
                "2",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert matched_accuracy(labels, report["labels"]) == 1.0

    def test_format_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,4\noops\n")
        assert main(["motion", "--mode", "epipolar", "--input", str(bad), "--n", "2"]) == 2


def _write_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _input_files(folder):
    """Valid and non-finite point, correspondence and track files."""
    from test_motion import affine_scene

    X = np.random.default_rng(0).standard_normal((40, 3))
    corr, _, _ = synthetic_translations(2, 20, 0.0, seed=0)
    tracks, _ = affine_scene(2, 10, 4, seed=1)
    files = {"good": X, "nan": X.copy(), "inf": X.copy(), "column": X[:, :1]}
    files.update(corr=corr, nan_corr=corr.copy(), still=np.tile([1.0, 2.0, 1.0, 2.0], (9, 1)))
    files.update(point=X[:1], one_corr=corr[:1])
    files["nan"][3, 1] = np.nan
    files["inf"][5, 0] = -np.inf
    files["nan_corr"][4, 2] = np.nan
    paths = {}
    for name, rows in files.items():
        paths[name] = str(folder / f"{name}.csv")
        _write_rows(paths[name], rows)
    paths["few_tracks"] = str(folder / "few_tracks.txt")
    write_tracks(paths["few_tracks"], tracks[:4])
    for frames in (1, 2):
        paths[f"frames_{frames}"] = str(folder / f"frames_{frames}.txt")
        write_tracks(paths[f"frames_{frames}"], tracks[:, :frames])
    tracks[2, 1, 0] = np.nan
    paths["nan_tracks"] = str(folder / "nan_tracks.txt")
    write_tracks(paths["nan_tracks"], tracks)
    base = {"algorithms": ["gpca"], "noise_grid": [0.0], "trials": 1, "n": 1}
    configs = {
        "full_dim": {"dims": [3], "ambient_dim": 3},
        "line_space": {"ambient_dim": 1},
        "no_points": {"points_per_subspace": 0},
        "config_typo": {"seeed": 3},
        "config_kappa": {"kappa": 1e-6},
        "config_seed": {"seed": -1},
    }
    spec = {"ambient_dim": 2, "dims": [1, 1], "points_per_subspace": 5}
    specs = {
        "spec_typo": {"seeed": 3},
        "spec_bases": {"bases": [[1, 0], [0, 1]]},
        "spec_text_bases": {"bases": "x"},
        "spec_seed": {"seed": -1},
        "spec_crowded": {"dims": [1] * 50},
    }
    for name, fields in configs.items():
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({**base, **fields}))
    for name, fields in specs.items():
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({**spec, **fields}))
    paths["out"] = str(folder / "generated")
    return paths


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["segment", "--data", "{nan}", "--n", "2"],
            ["segment", "--data", "{inf}", "--n", "2"],
            ["discover", "--data", "{nan}", "--n-max", "3"],
            ["discover", "--data", "{inf}", "--n-max", "3", "--equal-dim"],
            ["motion", "--mode", "affine", "--input", "{nan_tracks}"],
            ["motion", "--mode", "epipolar", "--input", "{nan_corr}"],
            ["segment", "--data", "{column}", "--n", "2"],
            ["segment", "--data", "{good}", "--n", "0"],
            ["segment", "--data", "{good}", "--n", "-1"],
            ["discover", "--data", "{good}", "--n-max", "0"],
            ["generate", "--spec", "{spec_typo}", "--out", "{out}"],
            ["segment", "--data", "{good}", "--n", "2", "--outliers", "chi2:1.5"],
            ["motion", "--mode", "epipolar", "--input", "{corr}", "--n", "abc"],
            ["motion", "--mode", "epipolar", "--input", "{corr}", "--focal", "0"],
            ["experiment", "--config", "{config_typo}"],
            ["motion", "--mode", "epipolar", "--input", "{still}"],
            ["motion", "--mode", "affine", "--input", "{few_tracks}"],
            ["experiment", "--config", "{full_dim}"],
            ["experiment", "--config", "{line_space}"],
            ["experiment", "--config", "{no_points}"],
            ["segment", "--data", "{point}", "--n", "2"],
            ["motion", "--mode", "epipolar", "--input", "{one_corr}", "--n", "2"],
            ["motion", "--mode", "affine", "--input", "{frames_1}"],
            ["motion", "--mode", "affine", "--input", "{frames_2}"],
            ["experiment", "--config", "{config_kappa}"],
            ["experiment", "--config", "{config_seed}"],
            ["generate", "--spec", "{spec_bases}", "--out", "{out}"],
            ["generate", "--spec", "{spec_text_bases}", "--out", "{out}"],
            ["generate", "--spec", "{spec_seed}", "--out", "{out}"],
            ["generate", "--spec", "{spec_crowded}", "--out", "{out}"],
        ],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        paths = _input_files(tmp_path)
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert "error:" in capsys.readouterr().err


@st.composite
def _cli_calls(draw):
    """A small point CSV, maybe low-rank, and segment or discover flags, with at most one fault."""
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, cols))
    X = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    fault = draw(st.sampled_from([None, None, "nan", "inf", "zero", "count", "level"]))
    if fault in ("nan", "inf", "zero"):
        hit = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))
        X[hit] = {"nan": np.nan, "inf": -np.inf, "zero": 0.0}[fault]
    count = str(draw(st.sampled_from([0, -1]) if fault == "count" else st.integers(1, 4)))
    if draw(st.booleans()):
        argv = ["segment", "--n", count]
        good, bad = [None, "percentile:0.9", "chi2:0.999"], ["chi2:1.5", "percentile:0", "chi2:x"]
        level = draw(st.sampled_from(bad if fault == "level" else good))
        argv += [] if level is None else ["--outliers", level]
    else:
        argv = ["discover", "--n-max", count] + draw(st.sampled_from([[], ["--equal-dim"]]))
    return X, argv


@st.composite
def _motion_calls(draw):
    """A small correspondence CSV, maybe with stationary or NaN rows, and motion flags."""
    rows = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        motions = draw(st.integers(1, 3))
        noise = draw(st.sampled_from([0.0, 0.5]))
        corr = synthetic_translations(motions, -(-rows // motions), noise, seed % 2**16)[0][:rows]
    else:
        corr = np.random.default_rng(seed).uniform(0.0, 500.0, size=(rows, 4))
    hit = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    if draw(st.booleans()):
        corr[hit, 2:] = corr[hit, :2]
    else:
        corr[hit, draw(st.integers(0, 3))] = np.nan
    count = draw(st.sampled_from(["auto", "1", "2", "3", "4"]))
    focal = draw(st.sampled_from([None, "1", "500", "1e4"]))
    argv = ["motion", "--mode", "epipolar", "--n", count, "--n-max", "3"]
    return corr, argv + ([] if focal is None else ["--focal", focal])


@st.composite
def _experiment_configs(draw):
    """A small sweep config, some with dims, counts or sizes no arrangement allows."""
    from gpca.experiment import ALGORITHMS

    ambient = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    config = {
        "algorithms": draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=2)),
        "noise_grid": draw(st.lists(st.sampled_from([0.0, 0.01, 0.05]), min_size=1, max_size=2)),
        "trials": 1,
        "n": n,
        "ambient_dim": ambient,
        "points_per_subspace": draw(st.integers(0, 30)),
        "seed": draw(st.integers(0, 1000)),
    }
    if draw(st.booleans()):
        config["dims"] = draw(st.lists(st.integers(0, ambient), min_size=n, max_size=n))
    return config


class TestExitCodeContract:
    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(call=_cli_calls())
    def test_every_call_exits_0_2_3_or_4(self, call):
        X, argv = call
        with tempfile.TemporaryDirectory() as folder:
            data, out = Path(folder) / "points.csv", Path(folder) / "out"
            _write_rows(data, X)
            with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv + ["--data", str(data), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0 and argv[0] == "segment":
                jsonschema.validate(json.loads(out.read_text()), SCHEMA)
            elif code == 0:
                assert out.read_text().startswith("discovery report")


    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(call=_motion_calls())
    def test_every_motion_call_exits_0_2_3_or_4(self, call):
        corr, argv = call
        with tempfile.TemporaryDirectory() as folder:
            data, out = Path(folder) / "corr.csv", Path(folder) / "out"
            _write_rows(data, corr)
            with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv + ["--input", str(data), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                jsonschema.validate(json.loads(out.read_text()), SCHEMA)

    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=_experiment_configs())
    def test_every_experiment_call_exits_0_2_3_or_4(self, config):
        with tempfile.TemporaryDirectory() as folder:
            path, out = Path(folder) / "config.json", Path(folder) / "rows.csv"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["experiment", "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert out.read_text().startswith("kind,algorithm,sigma,trial")


class TestImport:
    def test_import_loads_no_scipy(self):
        # scipy is imported where it is used; loading it at import time
        # would cost more than the rest of gpca together
        code = (
            "import sys; import gpca, gpca.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(gpca.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert result.stdout.strip() == "[]"
