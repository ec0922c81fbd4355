"""The descending-degree segmentation loop and its building blocks."""

import collections
import sys

import numpy as np
import pytest
from util import (
    brute_force_distance,
    intro_quadratic_basis,
    line_and_plane,
    product_basis,
)

from gpca._linalg import left_svd, max_principal_angle, orthonormal_completion, vector_angle
from gpca.errors import FitError, StageError
from gpca.fitting import embed, fit_vanishing
from gpca.metrics import matched_accuracy
from gpca.polynomial import PolynomialBasis, lift_matrix
from gpca.segmentation import (
    SubspaceModel,
    _peel,
    _values_and_gradients,
    algebraic_distance2,
    assign,
    model_at_point,
    peel,
    reject_outliers,
    segment,
    select_point,
)
from gpca.synthgen import ArrangementSpec, angle_error, generate, generate_from_bases
from gpca.synthgen import _random_subspace_bases
from gpca.veronese import monomial_count


LINE_MODEL = SubspaceModel(
    complement_basis=np.eye(3)[:, :2], dim=1, representative=np.array([0.0, 0.0, 1.0])
)
PLANE_MODEL = SubspaceModel(
    complement_basis=np.eye(3)[:, 2:], dim=2, representative=np.array([1.0, 1.0, 0.0])
)


class TestSubspaceModel:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            SubspaceModel(
                complement_basis=np.array([[1.0], [1.0], [0.0]]),
                dim=2,
                representative=np.zeros(3),
            )

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            SubspaceModel(
                complement_basis=np.zeros((3, 0)), dim=3, representative=np.zeros(3)
            )

    def test_residuals(self):
        X = np.array([[0.0, 0.0, 2.0], [3.0, 4.0, 0.0]])
        assert np.allclose(LINE_MODEL.residuals(X), [0.0, 5.0])


class TestAlgebraicDistance:
    def test_on_arrangement_points_are_zero(self):
        P = intro_quadratic_basis()
        assert algebraic_distance2(P, np.array([1.0, 1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_origin_gets_infinite_sentinel(self):
        P = intro_quadratic_basis()
        assert algebraic_distance2(P, np.zeros(3)) == np.inf

    def test_first_order_distance_law(self):
        # displaced points: degree * sqrt(distance2) tracks the exact distance
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(60):
            r = np.random.default_rng(1000 + trial)
            D = int(r.integers(3, 6))
            n_sub = int(r.integers(1, 4))
            dims = [int(r.integers(1, D)) for _ in range(n_sub)]
            try:
                spans = _random_subspace_bases(r, D, dims)
            except ValueError:
                continue
            basis = product_basis(spans)
            base = None
            for _ in range(60):
                cand = spans[0] @ r.standard_normal(spans[0].shape[1])
                norm = np.linalg.norm(cand)
                if norm < 1e-6:
                    continue
                cand = cand / norm
                if n_sub == 1 or brute_force_distance(cand, spans[1:]) > 0.3:
                    base = cand
                    break
            if base is None:
                continue
            comp = orthonormal_completion(spans[0])
            direction = comp @ r.standard_normal(comp.shape[1])
            direction /= np.linalg.norm(direction)
            eps = 1e-3 * r.uniform(0.1, 1.0)
            x = base + eps * direction
            exact = brute_force_distance(x, spans)
            estimate = n_sub * np.sqrt(algebraic_distance2(basis, x))
            assert estimate == pytest.approx(exact, rel=0.01)
            checked += 1
        assert checked >= 40

    def test_batch_matches_single(self):
        P = intro_quadratic_basis()
        X = np.random.default_rng(1).standard_normal((6, 3))
        batch = algebraic_distance2(P, X)
        for j in range(6):
            assert batch[j] == pytest.approx(algebraic_distance2(P, X[j]), rel=1e-12)

    def test_euler_values_match_evaluate(self):
        # x . grad p(x) = n p(x): the values read off the gradients agree with
        # the degree-n lift to rounding, for one point and for a batch
        rng = np.random.default_rng(4)
        bases = [
            PolynomialBasis(degree, dim, rng.standard_normal((2, monomial_count(degree, dim))))
            for degree, dim in [(1, 3), (2, 3), (3, 4), (4, 5)]
        ]
        X, _, _ = generate(ArrangementSpec(5, (1, 2, 3), 60, 0.01, seed=4))
        bases.append(fit_vanishing(embed(X, 3))[0])
        for P in bases:
            points = rng.standard_normal((7, P.dim))
            for x in (points, points[0]):
                values, grads = _values_and_gradients(P, x)
                expected = np.atleast_2d(P.evaluate(x))
                assert values.shape == expected.shape
                assert grads.shape == expected.shape[:1] + (P.dim, len(P))
                scale = np.linalg.norm(P.coefficients) * np.linalg.norm(x) ** P.degree
                assert np.abs(values - expected).max() <= 1e-13 * scale

    def test_exact_points_are_zero_at_any_scale(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 50, 0.0, seed=7))
        P = fit_vanishing(embed(X, 2))[0]
        for scale in (1e-6, 1.0, 1e6):
            assert np.all(algebraic_distance2(P, X * scale) == 0.0)


class TestSelectPoint:
    def test_noiseless_picks_deterministically(self):
        X, _, _ = line_and_plane(points_per=80)
        P = fit_vanishing(embed(X, 2))[0]
        first = select_point(P, X / np.linalg.norm(X, axis=1, keepdims=True))
        again = select_point(P, X / np.linalg.norm(X, axis=1, keepdims=True))
        assert first == again
        assert algebraic_distance2(P, X[first] / np.linalg.norm(X[first])) < 1e-16

    def test_after_plane_found_picks_line_point(self):
        X, _, labels = line_and_plane(points_per=80)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        P = fit_vanishing(embed(X, 2))[0]
        idx = select_point(P, Xn, (PLANE_MODEL,))
        assert labels[idx] == 0  # the line

    def test_all_degenerate_raises(self):
        P = intro_quadratic_basis()
        with pytest.raises(FitError):
            select_point(P, np.zeros((4, 3)))


class TestModelAtPoint:
    def test_line_point(self):
        model = model_at_point(intro_quadratic_basis(), np.array([0.0, 0.0, 1.0]))
        assert model.dim == 1
        assert max_principal_angle(model.complement_basis, np.eye(3)[:, :2]) < 1e-12

    def test_plane_point(self):
        model = model_at_point(intro_quadratic_basis(), np.array([1.0, 1.0, 0.0]))
        assert model.dim == 2
        assert abs(model.complement_basis[2, 0]) == pytest.approx(1.0)

    def test_single_hyperplane_gradient_is_normal(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        X = (orthonormal_completion(b[:, None]) @ rng.standard_normal((3, 60))).T
        P = fit_vanishing(embed(X, 1))[0]
        y = X[0] / np.linalg.norm(X[0])
        model = model_at_point(P, y)
        assert model.dim == 3
        assert vector_angle(model.complement_basis[:, 0], b) < 1e-8

    def test_gradientless_point_rejected(self):
        with pytest.raises(FitError):
            model_at_point(intro_quadratic_basis(), np.zeros(3))


class TestPeel:
    def test_intro_peel_leaves_line_polynomials(self):
        X, _, _ = line_and_plane(points_per=100)
        em = embed(X, 2)
        P = fit_vanishing(em)[0]
        lower = peel(P, PLANE_MODEL, em)
        assert lower.degree == 1
        coeffs = lower.coefficients
        # spans {x1, x2}: no x3 content
        assert np.abs(coeffs[:, 2]).max() <= 1e-9

    def test_two_planes_peel_to_remaining_normal(self):
        X, models, _ = generate(ArrangementSpec(3, (2, 2), 120, 0.0, seed=3))
        em = embed(X, 2)
        P = fit_vanishing(em)[0]
        lower = peel(P, models[0], em)
        assert len(lower) == 1
        normal = lower.coefficients[0]
        assert vector_angle(normal, models[1].complement_basis[:, 0]) < 1e-8

    def test_peel_is_the_second_stage_of_segment(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2, 2), 150, 0.01, seed=6))
        seg = segment(X, 3)
        em = embed(X, 3)
        lower = peel(fit_vanishing(em)[0], seg.models[0], em)
        model = model_at_point(lower, em.points[seg.stages[1].picked_index])
        assert model.dim == seg.models[1].dim
        assert np.array_equal(model.complement_basis, seg.models[1].complement_basis)

    def test_one_svd_per_peel(self, monkeypatch):
        X, models, _ = generate(ArrangementSpec(3, (2, 2, 2), 150, 0.01, seed=5))
        em = embed(X, 3)
        P = fit_vanishing(em)[0]
        M, M3 = monomial_count(2, 3), monomial_count(3, 3)
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, np.shape(args[0])))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "qr", spy("qr", np.linalg.qr))
        lower = peel(P, models[0], em)
        assert len(lower) == 1
        # the peel stacks the compressed M_3 x M_3 factor of the embedded
        # matrix, never its N columns: one SVD of the (6, 10) stack, too
        # narrow for a QR, and the (1, 6) independence check of the new basis
        assert [name for name, _ in calls].count("qr") == 0
        assert [shape for name, shape in calls if name == "svd"] == [(M, M3), (1, M)]

    def test_peel_stack_is_the_lift_matrix_stack(self, monkeypatch):
        # complement ranks 4, 3 and 2: the stack has one block per complement
        # direction, in the order of the complement basis
        X, models, _ = generate(ArrangementSpec(5, (1, 2, 3), 60, 0.0, seed=2))
        em = embed(X, 3)
        compressed = em.left_vectors * em.singular_values
        stacks = []

        def spy(matrix):
            stacks.append(matrix)
            return left_svd(matrix)

        monkeypatch.setattr("gpca.segmentation.left_svd", spy)
        for model in models:
            _peel(em.left_vectors, em.singular_values, 3, model)
            B = model.complement_basis
            expected = np.hstack([lift_matrix(b, 3) @ compressed for b in B.T])
            assert stacks[-1].shape == expected.shape
            scale = np.abs(expected).max()
            assert np.allclose(stacks[-1], expected, rtol=0.0, atol=1e-13 * scale)
        assert [model.complement_basis.shape[1] for model in models] == [4, 3, 2]

    def test_mismatched_basis_or_model_rejected(self):
        X, models, _ = generate(ArrangementSpec(3, (2, 2, 2), 60, 0.0, seed=5))
        em2, em3 = embed(X, 2), embed(X, 3)
        P2, P3 = fit_vanishing(em2)[0], fit_vanishing(em3)[0]
        with pytest.raises(ValueError):
            peel(P2, models[0], em3)
        with pytest.raises(ValueError):
            peel(P3, models[0], em2)
        P3_in_4 = PolynomialBasis(3, 4, np.eye(monomial_count(3, 4))[:1])
        with pytest.raises(ValueError):
            peel(P3_in_4, models[0], em3)
        model_in_4 = SubspaceModel(np.eye(4)[:, 3:], 3, np.ones(4))
        with pytest.raises(ValueError):
            peel(P3, model_in_4, em3)

    def test_peel_consistency_on_remaining_points(self):
        X, models, labels = generate(ArrangementSpec(3, (2, 2, 2), 150, 0.0, seed=5))
        em = embed(X, 3)
        P = fit_vanishing(em)[0]
        lower = peel(P, models[0], em)
        remaining = em.points[labels != 0]
        values = np.abs(lower.evaluate(remaining))
        assert values.max() <= 1e-8


class TestAssign:
    def test_intro_labels_exact(self):
        X, _, labels = line_and_plane(points_per=90)
        est, residuals = assign(X, (LINE_MODEL, PLANE_MODEL))
        assert np.array_equal(est, labels)
        assert residuals.max() <= 1e-12

    def test_tie_goes_to_lowest_index(self):
        est, _ = assign(np.zeros((1, 3)), (LINE_MODEL, PLANE_MODEL))
        assert est[0] == 0

    def test_noisy_two_planes_accuracy(self):
        hits = []
        for seed in range(25):
            X, models, labels = generate(
                ArrangementSpec(3, (2, 2), 100, 0.01, seed=600 + seed)
            )
            est, _ = assign(X, models)
            hits.append(matched_accuracy(labels, est))
        assert np.mean(hits) >= 0.95


class TestSegment:
    def test_intro_configuration_exact(self):
        X, models, labels = line_and_plane(points_per=120)
        seg = segment(X, 2)
        assert sorted(seg.dims) == [1, 2]
        assert matched_accuracy(labels, seg.labels) == 1.0
        assert angle_error(models, seg.models) < 1e-9

    def test_single_subspace_degenerates_to_pca(self):
        X, models, _ = generate(ArrangementSpec(4, (2,), 100, 0.0, seed=6))
        seg = segment(X, 1)
        assert seg.dims == (2,)
        assert max_principal_angle(
            seg.models[0].complement_basis, models[0].complement_basis
        ) < 1e-9

    def test_four_random_planes_noiseless(self):
        X, models, labels = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.0, seed=7))
        seg = segment(X, 4)
        assert angle_error(models, seg.models) < 1e-6
        assert matched_accuracy(labels, seg.labels) == 1.0

    def test_rotation_equivariance(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 1), 100, 0.0, seed=8))
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        seg = segment(X, 2)
        seg_rot = segment(X @ Q.T, 2)
        assert matched_accuracy(seg.labels, seg_rot.labels) == 1.0
        angles = []
        for m in seg.models:
            rotated = Q @ m.complement_basis
            best = min(
                max_principal_angle(rotated, other.complement_basis)
                for other in seg_rot.models
            )
            angles.append(best)
        assert max(angles) <= 1e-7

    def test_stage_diagnostics_recorded(self):
        X, _, _ = line_and_plane(points_per=100)
        seg = segment(X, 2)
        assert [s.degree for s in seg.stages] == [2, 1]
        assert seg.stages[0].nullity == 2

    def test_top_basis_is_the_fitted_vanishing_basis(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2, 1), 100, 0.01, seed=13))
        seg = segment(X, 3)
        fitted = fit_vanishing(embed(X, 3))[0]
        assert np.array_equal(seg.vanishing_basis.coefficients, fitted.coefficients)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            segment(np.random.default_rng(0).standard_normal((10, 3)), 0)

    def test_stage_errors_carry_degree(self):
        with pytest.raises(StageError):
            segment(np.zeros((30, 3)), 2)

    def test_coefficient_optimality_single_polynomial(self):
        # fitted coefficients minimize the algebraic objective over unit vectors
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 150, 0.02, seed=10))
        em = embed(X, 2)
        basis = fit_vanishing(em)[0]
        c = basis.coefficients[0]
        best = np.linalg.norm(c @ em.matrix)
        assert best == pytest.approx(em.singular_values[-1], rel=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(50):
            other = rng.standard_normal(6)
            other /= np.linalg.norm(other)
            assert np.linalg.norm(other @ em.matrix) >= best - 1e-12

    @pytest.mark.parametrize(
        "dim,dims", [(3, (2, 2, 2)), (4, (3, 3, 3)), (5, (1, 2, 3)), (4, (2, 2)), (5, (4, 4, 4, 4))]
    )
    def test_exact_data_stages_do_not_depend_on_point_scale(self, dim, dims):
        # segment works on the unit-norm points, and at sigma = 0 every
        # first-order distance is rounding: the picks must not follow it
        for seed in range(6):
            X, _, _ = generate(ArrangementSpec(dim, dims, 60, 0.0, seed=seed))
            s = np.random.default_rng(seed).uniform(0.5, 2.0, size=(X.shape[0], 1))
            plain, scaled = segment(X, len(dims)), segment(X * s, len(dims))
            assert plain.stages == scaled.stages
            assert np.array_equal(plain.labels, scaled.labels)


class TestSegmentWork:
    """One segment call lifts, factors and differentiates no more than it needs."""

    def test_one_svd_one_lift_per_degree_one_gradient_batch_per_stage(self, monkeypatch):
        import gpca
        from gpca import polynomial, veronese

        X, _, _ = generate(ArrangementSpec(5, (4, 4, 4, 4), 60, 0.01, seed=12))
        N, M = X.shape[0], monomial_count(4, 5)
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)

            return wrapped

        # Wrap each function wherever a gpca module holds a reference to it.
        holders = [gpca, np.linalg] + [
            module for modname, module in sys.modules.items() if modname.startswith("gpca.")
        ]
        for name, owner, attr in [
            ("lift", veronese, "veronese_lift"),
            ("svd", np.linalg, "svd"),
            ("qr", np.linalg, "qr"),
            ("gradients", polynomial, "basis_gradients"),
        ]:
            original = getattr(owner, attr)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, key, spy(name, original))

        seg = segment(X, 4)
        assert len(seg.stages) == 4

        embedded_qrs = [a for name, a in calls if name == "qr" and np.shape(a[0]) == (N, M)]
        assert len(embedded_qrs) == 1
        assert not [a for name, a in calls if name == "svd" and np.shape(a[0]) == (M, N)]
        batch_lifts = collections.Counter(
            a[1] for name, a in calls if name == "lift" and np.shape(a[0]) == (N, 5)
        )
        assert set(batch_lifts) == {0, 1, 2, 3, 4}
        assert max(batch_lifts.values()) == 1
        batch_gradients = [
            a for name, a in calls if name == "gradients" and np.ndim(a[1]) == 2
        ]
        assert len(batch_gradients) == 4


class TestRejectOutliers:
    @staticmethod
    def contaminated(seed, fraction=0.05, n_points=100):
        X, models, labels = generate(
            ArrangementSpec(3, (2, 2), n_points, 0.0, seed=seed)
        )
        rng = np.random.default_rng(seed + 1)
        n_out = int(fraction * X.shape[0])
        direction = rng.standard_normal((n_out, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        outliers = direction * rng.uniform(0.3, 1.0, size=(n_out, 1))
        data = np.vstack([X, outliers])
        is_outlier = np.zeros(data.shape[0], dtype=bool)
        is_outlier[X.shape[0] :] = True
        return data, is_outlier

    def test_percentile_removes_most_outliers(self):
        # rejection plus one refit round, the documented caller loop
        removed, total = 0, 0
        for seed in range(40):
            data, is_outlier = self.contaminated(800 + seed)
            active = np.ones(data.shape[0], dtype=bool)
            for _ in range(2):
                basis = fit_vanishing(embed(data[active], 2, warn=False))[0]
                keep = reject_outliers(data[active], basis, "percentile", 0.9)
                idx = np.flatnonzero(active)
                active[idx[~keep]] = False
            removed += int((~active & is_outlier).sum())
            total += int(is_outlier.sum())
        assert removed / total >= 0.9

    def test_chi2_false_rejections_are_rare(self):
        # Calibration check of the chi-square statistic itself, driven by the
        # exact ideal basis; dof = per-point codimension (1 for planes in R^3).
        from gpca._linalg import vector_angle

        false_rejections, total = 0, 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            while True:
                n1 = rng.standard_normal(3)
                n1 /= np.linalg.norm(n1)
                n2 = rng.standard_normal(3)
                n2 /= np.linalg.norm(n2)
                if np.degrees(vector_angle(n1, n2)) >= 40.0:
                    break
            bases = [orthonormal_completion(n1[:, None]), orthonormal_completion(n2[:, None])]
            X, _, _ = generate_from_bases(bases, 200, 0.02, seed=900 + seed)
            ideal = product_basis(bases)
            keep = reject_outliers(X, ideal, "chi2", 0.999, dof=1)
            false_rejections += int((~keep).sum())
            total += X.shape[0]
        assert false_rejections / total <= 0.01

    def test_noiseless_data_keeps_everything(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 80, 0.0, seed=12))
        basis = fit_vanishing(embed(X, 2))[0]
        for mode, level in [("percentile", 0.5), ("percentile", 0.99), ("chi2", 0.9)]:
            assert reject_outliers(X, basis, mode, level).all()

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_noiseless_data_keeps_everything_at_any_scale(self, scale):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 100, 0.0, seed=3))
        X = X * scale
        basis = fit_vanishing(embed(X, 2))[0]
        for mode, level in [("percentile", 0.9), ("chi2", 0.999)]:
            assert reject_outliers(X, basis, mode, level).all()

    def test_bad_mode_rejected(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 50, 0.0, seed=13))
        basis = fit_vanishing(embed(X, 2))[0]
        with pytest.raises(ValueError):
            reject_outliers(X, basis, "mad", 0.9)
