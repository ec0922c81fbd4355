"""Acceptance gate: the end-to-end exit criteria plus the property suites.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to watch) and
asserts at its stated tolerance. Runtime bounds are asserted where the
criteria state them.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from util import (
    brute_force_distance,
    intro_quadratic_basis,
    line_and_plane,
    lines_plus_plane,
    product_basis,
    two_coordinate_lines,
)

from gpca._linalg import max_principal_angle, orthonormal_completion, vector_angle
from gpca.baselines import IterativeConfig, em_mixture_pca, k_subspaces
from gpca.discovery import discover_equal_dim, project, recursive_segment
from gpca.errors import DiscoveryError
from gpca.experiment import ExperimentConfig, run_experiment
from gpca.fitting import embed, fit_vanishing, select_rank
from gpca.metrics import matched_accuracy
from gpca.motion import epipolar_lines, synthetic_translations
from gpca.polynomial import (
    HomogeneousPolynomial,
    PolynomialBasis,
    basis_gradients,
    divide_by_linear,
    multiply_by_linear,
)
from gpca.segmentation import algebraic_distance2, segment
from gpca.synthgen import ArrangementSpec, generate
from gpca.synthgen import _random_subspace_bases
from gpca.veronese import monomial_count, veronese_lift

FOCAL = 500.0


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def sweep_mean(rows, algorithm, sigma, column):
    """One column of the sweep's "mean" row for an algorithm at a noise level."""
    (row,) = [r for r in rows if (r.kind, r.algorithm, r.sigma) == ("mean", algorithm, sigma)]
    return getattr(row, column)


class TestCriterion1IntroductoryExample:
    def test_line_and_plane_golden(self):
        start = time.perf_counter()
        X, true_models, labels = line_and_plane(points_per=120)  # 240 points
        em = embed(X, 2)
        basis, decision = fit_vanishing(em)
        seg = segment(X, 2)
        elapsed = time.perf_counter() - start

        fitted_span, _ = np.linalg.qr(basis.coefficients.T)
        known_span, _ = np.linalg.qr(intro_quadratic_basis().coefficients.T)
        span_angle = max_principal_angle(fitted_span, known_span)

        by_dim = {m.dim: m for m in seg.models}
        line_angle = max_principal_angle(
            by_dim[1].complement_basis, np.eye(3)[:, :2]
        )
        plane_angle = max_principal_angle(
            by_dim[2].complement_basis, np.eye(3)[:, 2:]
        )
        accuracy = matched_accuracy(labels, seg.labels)

        report(
            "criterion 1: introductory line-plane example",
            decision.nullity == 2
            and span_angle <= 1e-8
            and sorted(seg.dims) == [1, 2]
            and line_angle <= 1e-9
            and plane_angle <= 1e-9
            and accuracy == 1.0
            and elapsed < 1.0,
            f"span angle {span_angle:.1e}, complement angles {line_angle:.1e}/"
            f"{plane_angle:.1e}, accuracy {accuracy:.3f}, {elapsed:.2f}s",
        )


class TestCriterion2MixedDimensionRanks:
    def test_rank_progression_and_recursion(self):
        start = time.perf_counter()
        X, _, labels = lines_plus_plane(points_per=200)

        ranks = {}
        for degree in (1, 2, 3):
            em = embed(X, degree, warn=False)
            decision = select_rank(
                em.singular_values,
                total=monomial_count(degree, 3),
                allow_full_rank=True,
            )
            ranks[degree] = decision.effective_rank

        seg, rep = recursive_segment(X, 4)
        elapsed = time.perf_counter() - start
        report(
            "criterion 2: mixed-dimension rank table and recursive split",
            ranks == {1: 3, 2: 5, 3: 6}
            and rep.n == 3
            and sorted(rep.d) == [1, 1, 2]
            and matched_accuracy(labels, seg.labels) == 1.0
            and elapsed < 5.0,
            f"ranks {ranks}, leaves {sorted(rep.d)}, {elapsed:.2f}s",
        )


class TestCriterion3EqualDimensionDiscovery:
    def test_two_coordinate_lines(self):
        start = time.perf_counter()
        X, _, _ = two_coordinate_lines(points_per=200)
        found = discover_equal_dim(X, 4)
        elapsed = time.perf_counter() - start
        report(
            "criterion 3: two coordinate lines discovered as (d=1, n=2)",
            (found.n, found.d) == (2, (1, 1)) and elapsed < 5.0,
            f"n = {found.n}, dims = {found.d}, {elapsed:.2f}s",
        )


class TestCriterion4NoiseSweep:
    def test_desk_scale_sweep(self):
        start = time.perf_counter()
        noise_grid = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)

        sweep = run_experiment(
            ExperimentConfig(
                algorithms=("gpca",), noise_grid=noise_grid, trials=100, n=4, seed=40
            )
        )
        exact = sweep_mean(sweep, "gpca", 0.0, "error_degrees")

        warm = run_experiment(
            ExperimentConfig(
                algorithms=("ksub", "gpca+ksub"),
                noise_grid=(0.03,),
                trials=100,
                n=4,
                seed=41,
            )
        )
        cold_err = sweep_mean(warm, "ksub", 0.03, "error_degrees")
        warm_err = sweep_mean(warm, "gpca+ksub", 0.03, "error_degrees")

        local = run_experiment(
            ExperimentConfig(
                algorithms=("ksub", "em"), noise_grid=(0.0,), trials=100, n=4, seed=42
            )
        )
        ksub_stuck = np.mean(
            [
                r.error_degrees > 1e-6
                for r in local
                if r.kind == "trial" and r.algorithm == "ksub"
            ]
        )
        em_stuck = np.mean(
            [
                r.error_degrees > 1e-6
                for r in local
                if r.kind == "trial" and r.algorithm == "em"
            ]
        )
        elapsed = time.perf_counter() - start
        report(
            "criterion 4: noise sweep exactness, warm-start gain, local minima",
            exact < 1e-6
            and warm_err <= 0.7 * cold_err
            and ksub_stuck >= 0.01
            and em_stuck >= 0.01
            and elapsed < 600.0,
            f"exact {exact:.1e} deg, warm/cold {warm_err:.2f}/{cold_err:.2f}, "
            f"stuck fractions {ksub_stuck:.2f}/{em_stuck:.2f}, {elapsed:.0f}s",
        )


class TestCriterion5IterationCounts:
    def test_warm_start_iteration_direction(self):
        rows = run_experiment(
            ExperimentConfig(
                algorithms=("ksub", "gpca+ksub", "em", "gpca+em"),
                noise_grid=(0.02,),
                trials=500,
                n=4,
                seed=50,
            )
        )
        ksub = sweep_mean(rows, "ksub", 0.02, "iterations")
        warm_ksub = sweep_mean(rows, "gpca+ksub", 0.02, "iterations")
        em = sweep_mean(rows, "em", 0.02, "iterations")
        warm_em = sweep_mean(rows, "gpca+em", 0.02, "iterations")
        report(
            "criterion 5: warm starts cut iteration counts",
            warm_ksub < ksub and warm_em < em,
            f"ksub {ksub:.1f} -> {warm_ksub:.1f}, em {em:.1f} -> {warm_em:.1f}",
        )


class TestCriterion6TranslationalMotion:
    @staticmethod
    def run_trial(seed, pixel_noise):
        corr, pixel_epipoles, labels = synthetic_translations(
            2, 46, pixel_noise, seed=seed, focal=FOCAL
        )
        data = epipolar_lines(corr / FOCAL)
        seg = segment(data.lines, 2)
        calibrated = np.column_stack(
            [
                pixel_epipoles[:, 0],
                pixel_epipoles[:, 1],
                FOCAL * pixel_epipoles[:, 2],
            ]
        )
        calibrated /= np.linalg.norm(calibrated, axis=1, keepdims=True)
        estimates = [m.complement_basis[:, 0] for m in seg.models]
        angles = np.array(
            [
                [np.degrees(vector_angle(e, b)) for b in estimates]
                for e in calibrated
            ]
        )
        rows, cols = linear_sum_assignment(angles)
        error = float(angles[rows, cols].mean())
        accuracy = matched_accuracy(labels[data.kept], seg.labels)
        return error, accuracy

    def test_two_translations(self):
        start = time.perf_counter()
        noiseless_error, noiseless_acc = self.run_trial(seed=7, pixel_noise=0.0)
        errors, accuracies = [], []
        for seed in range(200):
            error, accuracy = self.run_trial(seed=1000 + seed, pixel_noise=1.0)
            errors.append(error)
            accuracies.append(accuracy)
        elapsed = time.perf_counter() - start
        report(
            "criterion 6: two-view translational motion segmentation",
            noiseless_acc == 1.0
            and noiseless_error < 1e-6
            and np.mean(errors) <= 3.0
            and np.mean(accuracies) >= 0.90
            and elapsed < 120.0,
            f"noiseless {noiseless_error:.1e} deg / {noiseless_acc:.0%}; "
            f"1px mean {np.mean(errors):.2f} deg / {np.mean(accuracies):.1%}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion7DistanceOracle:
    def test_first_order_distance_matches_brute_force(self):
        start = time.perf_counter()
        master = np.random.default_rng(7)
        worst = 0.0
        pairs = 0
        while pairs < 1000:
            rng = np.random.default_rng(int(master.integers(1 << 62)))
            ambient = int(rng.integers(3, 6))
            count = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, ambient)) for _ in range(count)]
            try:
                spans = _random_subspace_bases(rng, ambient, dims)
            except ValueError:
                continue
            basis = product_basis(spans)
            base = None
            for _ in range(80):
                cand = spans[0] @ rng.standard_normal(spans[0].shape[1])
                norm = np.linalg.norm(cand)
                if norm < 1e-6:
                    continue
                cand = cand / norm
                if count == 1 or brute_force_distance(cand, spans[1:]) > 0.3:
                    base = cand
                    break
            if base is None:
                continue
            complement = orthonormal_completion(spans[0])
            direction = complement @ rng.standard_normal(complement.shape[1])
            direction /= np.linalg.norm(direction)
            displacement = 1e-3 * rng.uniform(0.1, 1.0)
            x = base + displacement * direction
            exact = brute_force_distance(x, spans)
            if exact < 1e-7:
                continue
            estimate = count * np.sqrt(algebraic_distance2(basis, x))
            worst = max(worst, abs(estimate - exact) / exact)
            pairs += 1
        elapsed = time.perf_counter() - start
        report(
            "criterion 7: first-order distance law over 1000 pairs",
            worst <= 0.01 and elapsed < 60.0,
            f"worst relative error {worst:.2e}, {elapsed:.0f}s",
        )


class TestPropertySuites:
    def test_veronese_homogeneity_and_euler(self):
        rng = np.random.default_rng(0)
        ok = True
        for degree, dim in [(2, 3), (3, 4), (4, 2), (5, 3)]:
            x = rng.standard_normal(dim)
            lam = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            lhs = veronese_lift(lam * x, degree)
            rhs = lam**degree * veronese_lift(x, degree)
            ok &= bool(np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13))
            P = PolynomialBasis(
                degree, dim, rng.standard_normal((2, monomial_count(degree, dim)))
            )
            total = x @ basis_gradients(P, x)
            ok &= bool(np.allclose(total, degree * P.evaluate(x), rtol=1e-10))
        report("property: lift homogeneity and Euler identity", ok)

    def test_derivative_operators_match_finite_differences(self):
        rng = np.random.default_rng(1)
        step = 1e-6
        worst = 0.0
        for degree, dim in [(2, 3), (3, 3), (4, 2)]:
            x = rng.uniform(-1, 1, size=dim)
            P = PolynomialBasis(
                degree, dim, rng.standard_normal((2, monomial_count(degree, dim)))
            )
            grads = basis_gradients(P, x)
            for axis in range(dim):
                delta = np.zeros(dim)
                delta[axis] = step
                numeric = (P.evaluate(x + delta) - P.evaluate(x - delta)) / (2 * step)
                analytic = grads[axis]
                worst = max(
                    worst,
                    np.linalg.norm(numeric - analytic)
                    / max(np.linalg.norm(numeric), 1.0),
                )
        report(
            "property: basis gradients vs central differences",
            worst <= 1e-6,
            f"worst {worst:.1e}",
        )

    def test_lift_divide_round_trip(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for degree, dim in [(2, 3), (3, 4), (4, 2)]:
            c = rng.standard_normal(monomial_count(degree - 1, dim))
            b = rng.standard_normal(dim)
            low = HomogeneousPolynomial(degree - 1, dim, c)
            back, residual = divide_by_linear(multiply_by_linear(low, b), b)
            worst = max(worst, residual, float(np.abs(back.coefficients - c).max()))
        report("property: lift/divide round trip", worst <= 1e-10, f"worst {worst:.1e}")

    def test_complement_recovery_from_gradients(self):
        worst = 0.0
        for seed, dims in [(3, (1, 2)), (4, (2, 2)), (5, (1, 1))]:
            X, models, labels = generate(
                ArrangementSpec(3, dims, 150, 0.0, seed=seed)
            )
            em = embed(X, len(dims))
            basis = fit_vanishing(em)[0]
            from gpca.segmentation import model_at_point

            for index, true_model in enumerate(models):
                y = em.points[labels == index][0]
                fitted = model_at_point(basis, y)
                worst = max(
                    worst,
                    max_principal_angle(
                        fitted.complement_basis, true_model.complement_basis
                    ),
                )
        report(
            "property: complement recovery by differentiation",
            worst <= 1e-7,
            f"worst angle {worst:.1e} rad",
        )

    def test_rotation_equivariance_of_segment(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 1), 120, 0.0, seed=6))
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        seg = segment(X, 2)
        rotated = segment(X @ Q.T, 2)
        label_match = matched_accuracy(seg.labels, rotated.labels)
        worst = 0.0
        for model in seg.models:
            image = Q @ model.complement_basis
            worst = max(
                worst,
                min(
                    max_principal_angle(image, other.complement_basis)
                    for other in rotated.models
                ),
            )
        report(
            "property: rotation equivariance",
            label_match == 1.0 and worst <= 1e-7,
            f"label match {label_match:.3f}, worst angle {worst:.1e}",
        )

    def test_objective_monotonicity(self):
        ksub_ok = True
        em_ok = True
        for seed in range(8):
            X, _, _ = generate(ArrangementSpec(3, (2, 2, 2, 2), 150, 0.02, seed=seed))
            history = []
            k_subspaces(X, 4, [2] * 4, IterativeConfig(seed=seed), history)
            ksub_ok &= bool(np.all(np.diff(history) <= 1e-9 * max(history[0], 1.0)))
            history = []
            em_mixture_pca(X, 4, [2] * 4, 1e-2, IterativeConfig(seed=seed), history)
            em_ok &= bool(
                np.all(np.diff(history) >= -1e-7 * max(abs(history[-1]), 1.0))
            )
        report(
            "property: alternation objective monotonicity",
            ksub_ok and em_ok,
            f"k-subspaces {ksub_ok}, em {em_ok}",
        )

    def test_projection_preservation(self):
        X, _, _ = generate(ArrangementSpec(6, (1, 1, 1), 150, 0.0, seed=13))
        hits = 0
        trials = 40
        for seed in range(trials):
            _, projected = project(X, 2, kind="random", seed=seed)
            try:
                found = discover_equal_dim(projected, 4)
            except DiscoveryError:
                continue
            hits += (found.n, found.d) == (3, (1, 1, 1))
        report(
            "property: segmentation-preserving projections",
            hits / trials >= 0.95,
            f"{hits}/{trials} seeds preserved (d, n)",
        )

    def test_determinism_of_seeded_runs(self):
        spec = ArrangementSpec(3, (2, 2), 60, 0.01, seed=9)
        same_data = all(
            np.array_equal(a, b)
            for a, b in zip(generate(spec)[:1], generate(spec)[:1])
        )
        config = ExperimentConfig(
            algorithms=("gpca", "ksub"),
            noise_grid=(0.01,),
            trials=2,
            n=2,
            points_per_subspace=60,
            seed=3,
        )

        def strip(rows):
            return [
                (r.kind, r.algorithm, r.sigma, r.trial, r.error_degrees, r.iterations)
                for r in rows
            ]

        same_rows = strip(run_experiment(config)) == strip(run_experiment(config))
        X, _, _ = lines_plus_plane(points_per=100, seed=10)
        same_report = (
            recursive_segment(X, 4)[1].to_text() == recursive_segment(X, 4)[1].to_text()
        )
        report(
            "property: determinism of seeded runs",
            same_data and same_rows and same_report,
            f"data {same_data}, experiment rows {same_rows}, report {same_report}",
        )
