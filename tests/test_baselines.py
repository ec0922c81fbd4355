"""K-subspaces and EM: fixpoints, monotonicity, and warm-start behavior."""

import numpy as np
import pytest

from gpca import baselines, segmentation
from gpca.baselines import em_mixture_pca, k_subspaces
from gpca.errors import FitError
from gpca.metrics import confusion_matrix, matched_accuracy
from gpca.segmentation import SubspaceModel, assign, segment
from gpca.synthgen import ArrangementSpec, angle_error, generate


FOUR_PLANES = ArrangementSpec(3, (2, 2, 2, 2), 200, 0.02, seed=0)


class TestKSubspaces:
    def test_truth_init_noiseless_fixpoint(self):
        X, models, labels = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.0, seed=1))
        seg, iterations = k_subspaces(X, [2] * 4, init_models=models)
        assert iterations == 1
        assert matched_accuracy(labels, seg.labels) == 1.0
        history = []
        k_subspaces(X, [2] * 4, init_models=models, objective_history=history)
        assert history[-1] == pytest.approx(0.0, abs=1e-20)

    def test_objective_monotone_nonincreasing(self):
        for seed in range(12):
            X, _, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 150, 0.02, seed=seed))
            history = []
            k_subspaces(X, [2] * 4, seed=seed, objective_history=history)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9 * max(history[0], 1.0))

    def test_warm_start_cuts_iterations(self):
        rand_iters, warm_iters = [], []
        for seed in range(12):
            X, _, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.02, seed=100 + seed))
            warm = segment(X, 4)
            _, a = k_subspaces(X, [2] * 4, seed=seed)
            _, b = k_subspaces(X, [2] * 4, init_models=warm.models)
            rand_iters.append(a)
            warm_iters.append(b)
        assert np.mean(warm_iters) < np.mean(rand_iters)

    def test_random_init_hits_local_minima_noiseless(self):
        stuck = 0
        for seed in range(30):
            X, models, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.0, seed=300 + seed))
            seg, _ = k_subspaces(X, [2] * 4, seed=seed)
            if angle_error(models, seg.models) > 1e-6:
                stuck += 1
        assert stuck >= 1

    def test_empty_cluster_reseeded(self):
        # two identical initial models leave one cluster empty after assignment
        X, models, _ = generate(ArrangementSpec(3, (2, 2), 100, 0.0, seed=2))
        twin = (models[0], models[0])
        seg, _ = k_subspaces(X, [2, 2], init_models=twin)
        assert len(set(seg.labels.tolist())) == 2

    def test_dims_validation(self):
        X, models, _ = generate(ArrangementSpec(3, (2, 2), 10, 0.0, seed=0))
        with pytest.raises(ValueError):
            k_subspaces(X, [2, 2, 2], init_models=models)
        with pytest.raises(ValueError):
            em_mixture_pca(X, [2], init_models=models)
        with pytest.raises(ValueError):
            em_mixture_pca(X, [])
        for bad in ([0, 2], [2, 3], [4, 2]):
            for fit in (k_subspaces, em_mixture_pca):
                with pytest.raises(ValueError):
                    fit(X, bad)

    def test_reseed_beyond_the_data_span_is_a_fit_error(self):
        # two points span two directions; an emptied 3-dim cluster cannot be re-seeded
        X, _, _ = generate(ArrangementSpec(4, (3, 3), 1, 0.0, seed=4))
        with pytest.raises(FitError):
            k_subspaces(X, [3, 3], seed=4)


class TestEmMixturePca:
    def test_truth_init_noiseless_one_hot(self):
        # a truth init includes the noise model: tiny variance on exact data
        X, models, labels = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.0, seed=3))
        seg, resp, iterations = em_mixture_pca(X, [2] * 4, 1e-8, init_models=models)
        assert matched_accuracy(labels, seg.labels) == 1.0
        assert np.allclose(resp.max(axis=1), 1.0, atol=1e-8)
        assert iterations <= 5

    def test_log_likelihood_monotone_nondecreasing(self):
        for seed in range(12):
            X, _, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 150, 0.02, seed=seed))
            history = []
            em_mixture_pca(X, [2] * 4, 1e-2, seed=seed, likelihood_history=history)
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-7 * max(abs(history[-1]), 1.0))

    def test_warm_start_cuts_iterations(self):
        rand_iters, warm_iters = [], []
        for seed in range(12):
            X, _, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.02, seed=200 + seed))
            warm = segment(X, 4)
            _, _, a = em_mixture_pca(X, [2] * 4, 1e-2, seed=seed)
            _, _, b = em_mixture_pca(X, [2] * 4, 1e-2, init_models=warm.models)
            rand_iters.append(a)
            warm_iters.append(b)
        assert np.mean(warm_iters) < np.mean(rand_iters)

    def test_random_init_can_fail_noiseless(self):
        stuck = 0
        for seed in range(20):
            X, models, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 200, 0.0, seed=400 + seed))
            seg, _, _ = em_mixture_pca(X, [2] * 4, 1e-2, seed=seed)
            if angle_error(models, seg.models) > 1e-6:
                stuck += 1
        assert stuck >= 1

    def test_emptied_component_reseeded(self, monkeypatch):
        # points on the plane x3 = 0 away from the plane x1 = 0: the e1 component
        # gets no responsibility at a tiny variance and is re-seeded
        rng = np.random.default_rng(0)
        x1 = rng.uniform(0.1, 1.0, 100) * rng.choice([-1.0, 1.0], 100)
        X = np.column_stack([x1, rng.uniform(-1.0, 1.0, 100), np.zeros(100)])
        e = np.eye(3)
        init = [SubspaceModel(e[:, [k]], 2, np.zeros(3)) for k in (2, 0)]
        reseeds = []
        reseed = baselines._reseed_basis

        def counted_reseed(*args):
            reseeds.append(args)
            return reseed(*args)

        monkeypatch.setattr(baselines, "_reseed_basis", counted_reseed)
        seg, _, _ = em_mixture_pca(X, [2, 2], 1e-8, init_models=init)
        assert reseeds
        assert np.isfinite(seg.residuals).all()
        for model in seg.models:
            B = model.complement_basis
            assert B.shape == (3, 1)
            assert np.allclose(B.T @ B, np.eye(1), atol=1e-12)

    def test_variance_floor_and_validation(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 60, 0.0, seed=4))
        for bad in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError):
                em_mixture_pca(X, [2, 2], noise_variance=bad)
        # exact-fit data drives variances to the floor without blowing up
        seg, _, _ = em_mixture_pca(X, [2, 2], 1e-3, seed=5)
        assert np.isfinite(seg.residuals).all()


class TestMixedDims:
    @pytest.mark.parametrize("seed", range(10))
    def test_truth_init_noiseless_fixpoint(self, seed):
        # bases of widths 3, 2 and 1 share one residual product
        X, models, labels = generate(ArrangementSpec(4, (1, 2, 3), 200, 0.0, seed=seed))
        seg, iterations = k_subspaces(X, [1, 2, 3], init_models=models)
        assert iterations == 1
        em_seg, _, em_iterations = em_mixture_pca(X, [1, 2, 3], 1e-8, init_models=models)
        assert em_iterations <= 5
        for fitted in (seg, em_seg):
            assert matched_accuracy(labels, fitted.labels) == 1.0
            assert angle_error(models, fitted.models) < 1e-10

    def test_batched_complements_match_per_cluster_eigh(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 4))
        W = rng.uniform(size=(3, 50))
        dims = (1, 2, 3)
        stack = segmentation._refit(W, segmentation._outer_products(X), dims)
        assert stack.shape == (3, 4, 3)
        for w, d, padded in zip(W, dims, stack):
            _, eigvecs = np.linalg.eigh((X * w[:, None]).T @ X)
            reference = eigvecs[:, : 4 - d]
            B = padded[:, : 4 - d]
            assert B.shape == reference.shape
            assert np.allclose(np.abs(np.sum(B * reference, axis=0)), 1.0, atol=1e-10)
            assert not padded[:, 4 - d :].any()

    def test_residuals_match_per_basis_norms(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 4))
        bases = [np.linalg.qr(rng.standard_normal((4, c)))[0] for c in (1, 3, 2)]
        reference = np.stack([np.linalg.norm(X @ B, axis=1) ** 2 for B in bases])
        stack = baselines._stack(bases)
        assert stack.shape == (3, 4, 3)
        assert np.allclose(baselines._residual2(X, stack), reference, rtol=1e-12)

    @pytest.mark.parametrize("fit", ["k_subspaces", "em_mixture_pca"])
    def test_reseed_below_the_largest_codimension(self, fit, monkeypatch):
        # dims (1, 3) in R^4 with the points on the line of e1, away from the
        # hyperplane x1 = 0: that hyperplane's cluster, of codimension 1 below
        # c_max = 3, empties and is re-seeded into its zero-padded slot
        rng = np.random.default_rng(0)
        X = np.zeros((100, 4))
        X[:, 0] = rng.uniform(0.1, 1.0, 100) * rng.choice([-1.0, 1.0], 100)
        e = np.eye(4)
        init = [
            SubspaceModel(e[:, [1, 2, 3]], 1, np.zeros(4)),
            SubspaceModel(e[:, [0]], 3, np.zeros(4)),
        ]
        stacks = []
        residual2 = baselines._residual2

        def spy(X, stack):
            stacks.append(stack.copy())
            return residual2(X, stack)

        reseeds = []
        reseed = baselines._reseed_basis

        def counted_reseed(*args):
            reseeds.append(args[2])
            return reseed(*args)

        monkeypatch.setattr(baselines, "_residual2", spy)
        monkeypatch.setattr(baselines, "_reseed_basis", counted_reseed)
        if fit == "k_subspaces":
            seg, _ = k_subspaces(X, [1, 3], init_models=init)
        else:
            seg, _, _ = em_mixture_pca(X, [1, 3], 1e-8, init_models=init)
        assert 3 in reseeds
        for model, d in zip(seg.models, (1, 3)):
            B = model.complement_basis
            assert B.shape == (4, 4 - d)
            assert np.allclose(B.T @ B, np.eye(4 - d), atol=1e-12)
        for stack in stacks[1:]:
            bases = [stack[0, :, :3], stack[1, :, :1]]
            assert not stack[1, :, 1:].any()
            reference = np.stack([np.linalg.norm(X @ B, axis=1) ** 2 for B in bases])
            assert np.allclose(residual2(X, stack), reference, rtol=1e-12)


class TestResult:
    @pytest.mark.parametrize("fit", [k_subspaces, em_mixture_pca])
    def test_labels_and_residuals_are_those_of_assign(self, fit):
        dims = [1, 2, 3]
        X, _, _ = generate(ArrangementSpec(4, dims, 100, 0.01, seed=5))
        seg = fit(X, dims, seed=2)[0]
        labels, residuals = assign(X, seg.models)
        assert np.array_equal(seg.labels, labels)
        assert np.array_equal(seg.residuals, residuals)
        # each model is shown by its best-fit point among those labeled with it
        for k, model in enumerate(seg.models):
            members = np.flatnonzero(labels == k)
            best = X[members[np.argmin(residuals[members])]]
            assert np.array_equal(model.representative, best)


def _fit_bytes(result):
    """The bytes of a fit's labels, residuals, models and remaining outputs."""
    seg, *rest = result
    arrays = [seg.labels, seg.residuals, *rest]
    for model in seg.models:
        arrays += [model.complement_basis, model.representative, model.dim]
    return [np.asarray(a).tobytes() for a in arrays]


class TestWarmStart:
    def test_warm_start_ignores_the_seed(self):
        # the sweep's per-cell prefix cache reuses one warm-started run across seeds
        X, _, _ = generate(FOUR_PLANES)
        warm = segment(X, 4).models
        for fit in (k_subspaces, em_mixture_pca):
            a, b = (fit(X, [2] * 4, seed=seed, init_models=warm) for seed in (1, 2))
            assert _fit_bytes(a) == _fit_bytes(b)


class TestLabelPermutationInvariance:
    def test_metrics_after_matching(self):
        X, _, labels = generate(ArrangementSpec(3, (2, 2), 100, 0.0, seed=6))
        permuted = 1 - labels
        assert matched_accuracy(labels, permuted) == 1.0

    def test_confusion_matrix_skips_outlier_marks(self):
        rng = np.random.default_rng(7)
        true = rng.integers(-1, 4, 300)
        est = rng.integers(-1, 4, 300)
        reference = np.zeros((4, 4), dtype=int)
        for t, e in zip(true, est):
            if t >= 0 and e >= 0:
                reference[t, e] += 1
        assert np.array_equal(confusion_matrix(true, est), reference)
        assert np.array_equal(confusion_matrix(true, est, size=6)[:4, :4], reference)
