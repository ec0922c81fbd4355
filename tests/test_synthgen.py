"""Synthetic arrangement generation and the angle-error metric."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from util import vector_angle

from gpca._linalg import max_principal_angle
from gpca.segmentation import SubspaceModel
from gpca.synthgen import (
    ArrangementSpec,
    angle_error,
    generate,
    generate_from_bases,
    load_dataset,
    save_dataset,
)


class TestSpecValidation:
    def test_empty_dims(self):
        with pytest.raises(ValueError):
            ArrangementSpec(3, (), 10)

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            ArrangementSpec(3, (3,), 10)
        with pytest.raises(ValueError):
            ArrangementSpec(3, (0,), 10)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            ArrangementSpec(3, (2,), 10, noise_sigma=-0.1)


class TestGenerate:
    def test_deterministic_bit_for_bit(self):
        spec = ArrangementSpec(3, (2, 1), 50, 0.01, seed=42)
        X1, m1, l1 = generate(spec)
        X2, m2, l2 = generate(spec)
        assert np.array_equal(X1, X2)
        assert np.array_equal(l1, l2)
        for a, b in zip(m1, m2):
            assert np.array_equal(a.complement_basis, b.complement_basis)

    def test_points_lie_on_subspaces_when_noiseless(self):
        X, models, labels = generate(ArrangementSpec(4, (2, 3), 60, 0.0, seed=1))
        for index, model in enumerate(models):
            residuals = model.residuals(X[labels == index])
            assert residuals.max() <= 1e-12

    def test_noise_is_along_complement_directions(self):
        spec = ArrangementSpec(3, (2,), 500, 0.05, seed=2)
        X, models, labels = generate(spec)
        clean, _, _ = generate(ArrangementSpec(3, (2,), 500, 0.0, seed=2))
        displacement = X - clean
        span = np.linalg.svd(models[0].complement_basis, full_matrices=True)[0][:, 1:]
        in_plane = displacement @ span
        assert np.abs(in_plane).max() <= 1e-12

    def test_points_within_unit_ball(self):
        X, _, _ = generate(ArrangementSpec(5, (3,), 200, 0.0, seed=3))
        assert np.linalg.norm(X, axis=1).max() <= 1.0 + 1e-12

    def test_pairwise_separation_enforced(self):
        from gpca._linalg import max_principal_angle, orthonormal_completion

        X, models, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 10, 0.0, seed=4))
        spans = [orthonormal_completion(m.complement_basis) for m in models]
        for i in range(4):
            for j in range(i + 1, 4):
                assert max_principal_angle(spans[i], spans[j]) >= np.deg2rad(10.0) - 1e-9

    def test_explicit_bases_are_respected(self):
        line = np.array([[1.0], [1.0], [0.0]])
        X, models, labels = generate_from_bases([line], 30, 0.0, seed=5)
        direction = line.ravel() / np.linalg.norm(line)
        residual = X - np.outer(X @ direction, direction)
        assert np.abs(residual).max() <= 1e-12
        assert models[0].dim == 1


class TestAngleError:
    @staticmethod
    def plane_model(normal):
        normal = np.asarray(normal, dtype=float)
        normal = normal / np.linalg.norm(normal)
        return SubspaceModel(
            complement_basis=normal[:, None], dim=2, representative=np.zeros(3)
        )

    def test_identical_models_zero(self):
        m = self.plane_model([0.0, 0.0, 1.0])
        assert angle_error([m], [m]) == 0.0

    def test_orthogonal_normals_ninety(self):
        a = self.plane_model([1.0, 0.0, 0.0])
        b = self.plane_model([0.0, 1.0, 0.0])
        assert angle_error([a], [b]) == pytest.approx(90.0)

    def test_one_degree(self):
        a = self.plane_model([1.0, 0.0, 0.0])
        b = self.plane_model([np.cos(np.deg2rad(1.0)), np.sin(np.deg2rad(1.0)), 0.0])
        assert angle_error([a], [b]) == pytest.approx(1.0, rel=1e-9)

    def test_sign_flip_is_free(self):
        a = self.plane_model([0.0, 1.0, 0.0])
        b = self.plane_model([0.0, -1.0, 0.0])
        assert angle_error([a], [b]) == pytest.approx(0.0, abs=1e-12)

    def test_matching_minimizes_total_angle(self):
        a1 = self.plane_model([1.0, 0.0, 0.0])
        a2 = self.plane_model([0.0, 1.0, 0.0])
        assert angle_error([a1, a2], [a2, a1]) == pytest.approx(0.0, abs=1e-12)

    def test_count_mismatch(self):
        a = self.plane_model([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            angle_error([a], [a, a])

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_normals_match_per_pair_angles(self, seed):
        # hyperplane normals of either sign, scaled, and mixed with wider
        # complements: every pair scores as vector_angle or max_principal_angle
        rng = np.random.default_rng(seed)
        D, n = 4, 6
        widths = [1, 1, 2, 1, 3, 1] if seed % 2 else [1] * n
        true = [np.linalg.qr(rng.standard_normal((D, c)))[0] for c in widths]
        est = [B + 1e-3 * rng.standard_normal(B.shape) for B in true[::-1]]
        est = [np.linalg.qr(B)[0] * rng.choice([-1.0, 1.0]) for B in est]
        est = [B * rng.uniform(0.5, 3.0) if B.shape[1] == 1 else B for B in est]
        angle = np.array(
            [
                [
                    vector_angle(t[:, 0], e[:, 0])
                    if t.shape[1] == e.shape[1] == 1
                    else max_principal_angle(t, e)
                    for e in est
                ]
                for t in true
            ]
        )
        rows, cols = linear_sum_assignment(angle)
        reference = np.degrees(angle[rows, cols].mean())
        assert angle_error(true, est) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_zero_normal_rejected(self):
        a = self.plane_model([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero vector"):
            angle_error([a], [np.zeros((3, 1))])

    def test_general_dims_use_principal_angles(self):
        line_a = SubspaceModel(
            complement_basis=np.eye(3)[:, 1:], dim=1, representative=np.zeros(3)
        )
        theta = np.deg2rad(5.0)
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        line_b = SubspaceModel(
            complement_basis=rot @ np.eye(3)[:, 1:], dim=1, representative=np.zeros(3)
        )
        assert angle_error([line_a], [line_b]) == pytest.approx(5.0, rel=1e-9)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        spec = ArrangementSpec(3, (1, 2), 40, 0.0, seed=6)
        X, models, labels = generate(spec)
        csv_path, json_path = save_dataset(tmp_path / "demo", X, models, labels, spec)
        back, sidecar = load_dataset(csv_path)
        assert np.array_equal(back, X)
        assert sidecar["labels"] == labels.tolist()
        assert sidecar["spec"]["seed"] == 6
        assert len(sidecar["models"]) == 2

    def test_byte_identical_rewrites(self, tmp_path):
        spec = ArrangementSpec(3, (2,), 25, 0.0, seed=7)
        X, models, labels = generate(spec)
        p1 = save_dataset(tmp_path / "a", X, models, labels, spec)
        p2 = save_dataset(tmp_path / "b", X, models, labels, spec)
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()

    def test_missing_file_is_input_error(self, tmp_path):
        from gpca.errors import InputError

        with pytest.raises(InputError):
            load_dataset(tmp_path / "nope.csv")
