"""Epipolar-line and affine-trajectory reductions to subspace segmentation."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from util import vector_angle

from gpca.errors import InputError
from gpca.metrics import matched_accuracy
from gpca.motion import (
    convert_w_matrix,
    epipolar_lines,
    project_trajectories,
    read_correspondences,
    read_tracks,
    synthetic_translations,
    trajectory_matrix,
    write_tracks,
)
from gpca.segmentation import segment

FOCAL = 500.0


def affine_scene(n_motions, tracks_per, frames, seed):
    rng = np.random.default_rng(seed)
    tracks, labels = [], []
    for motion in range(n_motions):
        cameras = [rng.standard_normal((2, 4)) for _ in range(frames)]
        points = rng.standard_normal((tracks_per, 3))
        for p in points:
            homogeneous = np.append(p, 1.0)
            tracks.append(np.vstack([A @ homogeneous for A in cameras]))
            labels.append(motion)
    return np.array(tracks), np.array(labels)


def calibrated_epipoles(pixel_epipoles):
    cal = np.column_stack(
        [pixel_epipoles[:, 0], pixel_epipoles[:, 1], FOCAL * pixel_epipoles[:, 2]]
    )
    return cal / np.linalg.norm(cal, axis=1, keepdims=True)


def epipole_errors_deg(true_eps, models):
    estimates = [m.complement_basis[:, 0] for m in models]
    angles = np.array(
        [[np.degrees(vector_angle(e, b)) for b in estimates] for e in true_eps]
    )
    rows, cols = linear_sum_assignment(angles)
    return angles[rows, cols]


class TestEpipolarLines:
    def test_stationary_point_excluded(self):
        corr = np.array([[10.0, 20.0, 10.0, 20.0], [5.0, 5.0, 9.0, 2.0]])
        data = epipolar_lines(corr)
        assert data.excluded_indices.tolist() == [0]
        assert data.lines.shape == (1, 3)

    def test_lines_are_unit_norm(self):
        corr, _, _ = synthetic_translations(2, 20, 0.0, seed=0)
        data = epipolar_lines(corr)
        assert np.allclose(np.linalg.norm(data.lines, axis=1), 1.0)

    def test_epipolar_constraint_noiseless(self):
        corr, epipoles, labels = synthetic_translations(2, 46, 0.0, seed=1)
        data = epipolar_lines(corr / FOCAL)
        cal = calibrated_epipoles(epipoles)
        for motion in range(2):
            mask = labels[data.kept] == motion
            agreement = np.abs(data.lines[mask] @ cal[motion])
            assert agreement.max() <= 1e-10

    def test_frame_swap_flips_lines_but_not_segmentation(self):
        corr, _, labels = synthetic_translations(2, 46, 0.0, seed=2)
        swapped = corr[:, [2, 3, 0, 1]]
        a = epipolar_lines(corr / FOCAL)
        b = epipolar_lines(swapped / FOCAL)
        assert np.allclose(a.lines, -b.lines)
        seg_a = segment(a.lines, 2)
        seg_b = segment(b.lines, 2)
        assert matched_accuracy(seg_a.labels, seg_b.labels) == 1.0

    def test_two_translations_segment_perfectly(self):
        corr, epipoles, labels = synthetic_translations(2, 46, 0.0, seed=3)
        data = epipolar_lines(corr / FOCAL)
        seg = segment(data.lines, 2)
        assert seg.dims == (2, 2)
        assert matched_accuracy(labels[data.kept], seg.labels) == 1.0
        errors = epipole_errors_deg(calibrated_epipoles(epipoles), seg.models)
        assert errors.max() < 1e-6

    def test_noisy_translations_once_misfit_find_both_epipoles(self):
        # 0.5 px noise; a sequential pick once put the second epipole 49 deg off
        corr, epipoles, _ = synthetic_translations(2, 100, 0.5, 2502996818, FOCAL)
        seg = segment(epipolar_lines(corr / FOCAL).lines, 2)
        assert epipole_errors_deg(calibrated_epipoles(epipoles), seg.models).max() < 3.0


class TestTrajectoryMatrix:
    def test_single_motion_rank_at_most_four(self):
        tracks, _ = affine_scene(1, 30, 8, seed=4)
        sv = np.linalg.svd(trajectory_matrix(tracks), compute_uv=False)
        assert (sv > 1e-10 * sv[0]).sum() <= 4

    def test_single_frame_shape(self):
        tracks = np.random.default_rng(5).standard_normal((7, 1, 2))
        assert trajectory_matrix(tracks).shape == (2, 7)

    def test_two_motions_rank_window(self):
        tracks, _ = affine_scene(2, 30, 8, seed=6)
        sv = np.linalg.svd(trajectory_matrix(tracks), compute_uv=False)
        numerical_rank = (sv > 1e-10 * sv[0]).sum()
        assert 5 <= numerical_rank <= 8

    def test_ragged_tracks_rejected(self):
        good = np.zeros((5, 2))
        bad = np.zeros((4, 2))
        with pytest.raises(InputError):
            trajectory_matrix([good, good, bad])

    def test_row_interleaving(self):
        tracks = np.arange(12.0).reshape(2, 3, 2)  # 2 tracks, 3 frames
        W = trajectory_matrix(tracks)
        assert np.allclose(W[:, 0], [0, 1, 2, 3, 4, 5])
        assert np.allclose(W[0], [0.0, 6.0])  # frame-0 x coordinates


class TestProjectTrajectories:
    def test_single_motion_fills_at_most_four_dims(self):
        tracks, _ = affine_scene(1, 30, 8, seed=7)
        pts = project_trajectories(trajectory_matrix(tracks))
        sv = np.linalg.svd(pts.T, compute_uv=False)
        assert (sv > 1e-9 * sv[0]).sum() <= 4

    def test_two_motions_segment_perfectly(self):
        tracks, labels = affine_scene(2, 30, 8, seed=8)
        pts = project_trajectories(trajectory_matrix(tracks))
        seg = segment(pts, 2)
        assert matched_accuracy(labels, seg.labels) == 1.0

    def test_rank_invariance_across_generic_projections(self):
        # labels agree between the canonical projection and a random generic one
        tracks, labels = affine_scene(2, 30, 8, seed=9)
        W = trajectory_matrix(tracks)
        pts = project_trajectories(W)
        rng = np.random.default_rng(10)
        mix, _ = np.linalg.qr(rng.standard_normal((W.shape[0], 5)))
        alt = W.T @ mix
        seg_a = segment(pts, 2)
        seg_b = segment(alt, 2)
        assert matched_accuracy(seg_a.labels, seg_b.labels) == 1.0

    def test_needs_enough_tracks(self):
        with pytest.raises(ValueError):
            project_trajectories(np.zeros((6, 4)))

    @pytest.mark.parametrize("frames", [1, 2])
    def test_needs_three_frames(self, frames):
        tracks, _ = affine_scene(2, 10, frames, seed=1)
        with pytest.raises(ValueError):
            project_trajectories(trajectory_matrix(tracks))


class TestFileFormats:
    def test_track_file_round_trip(self, tmp_path):
        tracks, _ = affine_scene(2, 5, 3, seed=11)
        path = tmp_path / "tracks.txt"
        write_tracks(path, tracks)
        back = read_tracks(path)
        assert np.array_equal(back, tracks)

    def test_track_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 2 3 4\n")
        with pytest.raises(InputError) as err:
            read_tracks(path)
        assert "3 tracks" in str(err.value)

    def test_correspondence_csv_round_trip(self, tmp_path):
        corr, _, _ = synthetic_translations(2, 10, 0.0, seed=12)
        path = tmp_path / "corr.csv"
        with open(path, "w") as fh:
            for row in corr:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        back = read_correspondences(path)
        assert np.array_equal(back, corr)

    def test_correspondence_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4\n5,6,7\n")
        with pytest.raises(InputError) as err:
            read_correspondences(path)
        assert ":2:" in str(err.value)

    def test_w_matrix_converter(self, tmp_path):
        tracks, _ = affine_scene(1, 6, 4, seed=13)
        W = trajectory_matrix(tracks)
        path = tmp_path / "w.txt"
        np.savetxt(path, W)
        back = convert_w_matrix(path)
        assert back.shape == (6, 4, 2)
        assert np.allclose(back, tracks)

    def test_epipolar_lines_validates_columns(self):
        with pytest.raises(ValueError):
            epipolar_lines(np.zeros((3, 5)))
