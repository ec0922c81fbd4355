"""Embedded data matrices, rank selection, and vanishing-polynomial fits."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from util import (
    intro_quadratic_basis,
    line_and_plane,
    lines_plus_plane,
    product_basis,
    product_of_linear_forms,
)

from gpca._linalg import max_principal_angle
from gpca.errors import DegenerateDataError
from gpca.fitting import (
    KAPPA,
    SampleSufficiencyWarning,
    _rank_criterion,
    embed,
    fit_vanishing,
    hilbert_nullity,
    select_rank,
)
from gpca.synthgen import generate, ArrangementSpec
from gpca.veronese import monomial_count, veronese_lift
from gpca import baselines, discovery, segmentation


def coefficient_span_angle(basis_a, basis_b):
    """Largest principal angle between two coefficient-vector spans."""

    def orth(basis):
        mat = basis.coefficients.T
        q, _ = np.linalg.qr(mat)
        return q

    return max_principal_angle(orth(basis_a), orth(basis_b))


class TestEmbed:
    def test_two_clean_planes_have_null_direction(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 10, 0.0, seed=0))
        em = embed(X, 2)
        assert em.singular_values[-1] <= 1e-10 * em.singular_values[0]

    def test_intro_configuration_nullity_two(self):
        X, _, _ = line_and_plane(points_per=100)
        em = embed(X, 2)
        _, decision = fit_vanishing(em)
        assert decision.nullity == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            embed(np.zeros((0, 3)), 2)

    def test_sample_sufficiency_warning(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        with pytest.warns(SampleSufficiencyWarning):
            embed(X, 4)  # 4 samples against M_4(3) = 15

    def test_columns_are_lifts_of_normalized_points(self):
        X = np.random.default_rng(1).standard_normal((6, 3)) * 5.0
        em = embed(X, 2)
        for j in range(6):
            assert np.allclose(veronese_lift(em.points, 2).T[:, j], veronese_lift(em.points[j], 2))
            assert np.linalg.norm(em.points[j]) == pytest.approx(1.0)


class TestSelectRank:
    def test_numerically_zero_tail(self):
        decision = select_rank(np.array([1.0, 1e-12]))
        assert (decision.effective_rank, decision.nullity) == (1, 1)

    def test_two_small_values(self):
        decision = select_rank(np.array([5.0, 4.0, 3.0, 2.0, 1e-9, 1e-10]))
        assert (decision.effective_rank, decision.nullity) == (4, 2)

    def test_mixed_dims_config_rank_five_of_six(self):
        X, _, _ = lines_plus_plane(points_per=150)
        em = embed(X, 2)
        assert em.singular_values.size == 6
        decision = select_rank(em.singular_values)
        assert (decision.effective_rank, decision.nullity) == (5, 1)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            select_rank(np.zeros(4))

    def test_full_rank_needs_flag(self):
        sv = np.array([3.0, 2.0, 1.0])
        capped = select_rank(sv)
        assert capped.effective_rank <= 2
        free = select_rank(sv, nullities=range(3))
        assert (free.effective_rank, free.nullity) == (3, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_rank(np.array([1.0, 2.0]))  # ascending


def reference_criterion_rank(sv, kappa, total, min_rank, max_rank):
    """The scalar criterion as written before the batched core, exact-zero cap included."""
    nonzero = int(np.count_nonzero(sv > 0.0))
    max_rank = min(max_rank, max(nonzero, min_rank))
    padded = np.zeros(total + 1)
    padded[: sv.size] = sv
    energy = np.cumsum(padded[:total] ** 2)
    candidates = np.arange(min_rank, max_rank + 1)
    values = padded[candidates] ** 2 / energy[candidates - 1] + kappa * candidates
    return int(candidates[int(np.argmin(values))]), values


def reference_keep_mask(sv, kappa):
    """The per-row criterion as written before the batched core."""
    n, k = sv.shape
    energy = np.cumsum(sv**2, axis=1)
    trailing = np.concatenate([sv[:, 1:] ** 2, np.zeros((n, 1))], axis=1)
    safe_energy = np.where(energy > 0.0, energy, 1.0)
    crit = trailing / safe_energy + np.atleast_1d(kappa)[:, None] * np.arange(1, k + 1)
    ranks = np.argmin(crit, axis=1) + 1
    return np.arange(k) < ranks[:, None]


def random_spectrum(rng, size):
    """Descending spectrum with gaps, near-zero tails and exact zeros."""
    sv = np.sort(10.0 ** rng.uniform(-14, 1, size))[::-1]
    zeros = int(rng.integers(0, size))
    if zeros:
        sv[size - zeros :] = 0.0
    return sv


class TestRankCriterionOracle:
    """The one criterion core reproduces both earlier criterion copies exactly."""

    def test_scalar_matches_reference_on_every_window(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            size = int(rng.integers(1, 9))
            total = size + int(rng.integers(0, 4))
            sv = random_spectrum(rng, size)
            if not sv.any():
                continue
            kappa = float(10.0 ** rng.uniform(-9, -2))
            padded = np.zeros((1, total))
            padded[0, :size] = sv
            _, values = _rank_criterion(padded, kappa, total)
            for lo in range(1, total + 1):
                for hi in range(lo, total + 1):
                    rank, ref_values = reference_criterion_rank(sv, kappa, total, lo, hi)
                    window = values[0, lo - 1 : hi]
                    assert lo + int(np.argmin(window)) == rank
                    assert np.array_equal(window[: ref_values.size], ref_values)
            for lowest_nullity in (0, 1):
                hi = total - lowest_nullity
                if hi < 1:
                    continue
                decision = select_rank(padded[0], nullities=range(lowest_nullity, total))
                assert decision.effective_rank == reference_criterion_rank(sv, KAPPA, total, 1, hi)[0]
            # an allowed-nullity set picks the criterion's argmin over its ranks
            allowed = rng.choice(total, size=int(rng.integers(1, total + 1)), replace=False)
            decision = select_rank(padded[0], nullities=allowed)
            ranks = np.sort(total - allowed)
            trailing = np.append(sv, np.zeros(total + 1 - size))[ranks] ** 2
            energy = np.cumsum(np.append(sv, np.zeros(total - size)) ** 2)[ranks - 1]
            assert decision.effective_rank == ranks[np.argmin(trailing / energy + KAPPA * ranks)]

    def test_batched_matches_reference_keep_mask(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            sv = np.stack([random_spectrum(rng, k) for _ in range(n)])
            sv[rng.random(n) < 0.1] = 0.0  # gradientless points
            kappa = 10.0 ** rng.uniform(-9, 1, n)
            ranks, _ = _rank_criterion(sv, kappa, k)
            keep = np.arange(k) < ranks[:, None]
            assert np.array_equal(keep, reference_keep_mask(sv, kappa))


class TestVanishingBasis:
    def test_intro_spans_known_quadratics(self):
        X, _, _ = line_and_plane(points_per=150)
        basis = fit_vanishing(embed(X, 2))[0]
        assert len(basis) == 2
        angle = coefficient_span_angle(basis, intro_quadratic_basis())
        assert angle <= 1e-8

    def test_single_hyperplane_degree_one(self):
        rng = np.random.default_rng(3)
        span = np.column_stack([np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        X = (span @ rng.standard_normal((2, 80))).T
        basis = fit_vanishing(embed(X, 1))[0]
        assert len(basis) == 1
        coeffs = basis.coefficients[0]
        assert abs(coeffs[2]) / np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-10)

    def test_two_random_planes_product_polynomial(self):
        X, models, _ = generate(ArrangementSpec(3, (2, 2), 120, 0.0, seed=4))
        basis = fit_vanishing(embed(X, 2))[0]
        assert len(basis) == 1
        product = product_of_linear_forms(
            [m.complement_basis[:, 0] for m in models]
        )
        fitted = basis.coefficients[0]
        target = product.coefficients / np.linalg.norm(product.coefficients)
        cos = abs(fitted @ target) / np.linalg.norm(fitted)
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_on_noiseless_samples(self):
        X, _, _ = lines_plus_plane(points_per=120, seed=5)
        em = embed(X, 3)
        basis = fit_vanishing(em)[0]
        values = np.abs(basis.evaluate(em.points))
        scales = np.linalg.norm(veronese_lift(em.points, 3).T, axis=0)
        assert np.all(values.max(axis=1) <= 1e-8 * np.maximum(scales, 1e-30))

    def test_span_containment_of_products(self):
        # every product of one normal per subspace lies in the fitted span
        from gpca._linalg import orthonormal_completion

        X, models, _ = generate(ArrangementSpec(4, (2, 3), 200, 0.0, seed=6))
        basis = fit_vanishing(embed(X, 2))[0]
        products = product_basis(
            [orthonormal_completion(m.complement_basis) for m in models]
        )
        fitted_span, _ = np.linalg.qr(basis.coefficients.T)
        prod_span, _ = np.linalg.qr(products.coefficients.T)
        # containment: projecting the product span onto the fitted span is lossless
        residual = prod_span - fitted_span @ (fitted_span.T @ prod_span)
        assert np.linalg.norm(residual, ord=2) <= 1e-8

    def test_scale_equivariance(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2), 100, 0.0, seed=7))
        b1 = fit_vanishing(embed(X, 2))[0]
        b2 = fit_vanishing(embed(257.0 * X, 2))[0]
        assert coefficient_span_angle(b1, b2) <= 1e-9

    def test_monotone_nullity(self):
        spec_small = ArrangementSpec(3, (2, 2), 30, 0.0, seed=8)
        spec_large = ArrangementSpec(3, (2, 2), 90, 0.0, seed=8)
        _, d_small = fit_vanishing(embed(generate(spec_small)[0], 3, warn=False))
        _, d_large = fit_vanishing(embed(generate(spec_large)[0], 3, warn=False))
        assert d_large.nullity <= d_small.nullity


class TestHilbertNullity:
    @pytest.mark.parametrize("D, n", [(2, 3), (3, 1), (3, 4), (5, 2), (6, 4)])
    def test_generic_hyperplanes_leave_their_product(self, D, n):
        assert hilbert_nullity((D - 1,) * n, D, n) == 1

    @pytest.mark.parametrize("D", range(2, 7))
    def test_equals_the_sum_over_all_subsets(self, D):
        grid = (c for n in range(1, 6) for c in combinations_with_replacement(range(1, D), n))
        for dims in grid:
            subsets = [s for size in range(len(dims) + 1) for s in combinations(dims, size)]
            meets = [(len(s), sum(s) - (len(s) - 1) * D) for s in subsets]
            for degree in range(1, 7):
                full = sum((-1) ** size * monomial_count(degree, m) for size, m in meets if m > 0)
                assert hilbert_nullity(dims, D, degree) == full

    def test_line_plane_and_solid_in_r5(self):
        assert hilbert_nullity((1, 2, 3), 5, 3) == 20
        assert hilbert_nullity((1, 2, 3), 5, 4) == 49

    @pytest.mark.parametrize(
        "D, dims, seed", [(3, (1, 1, 2), 0), (4, (2, 2), 1), (5, (1, 2, 3), 1), (5, (2, 2, 2), 2)]
    )
    def test_equals_observed_probe_nullities_on_exact_data(self, D, dims, seed):
        from gpca.discovery import _probe

        X, _, _ = generate(ArrangementSpec(D, dims, 100, 0.0, seed=seed))
        for degree in range(len(dims), 5):
            observed = _probe(X, degree).nullity
            assert observed == hilbert_nullity(dims, D, degree)


class TestNonFinitePoints:
    """One NaN or inf among the points is refused before any factorization."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda X: segmentation.segment(X, 2),
            lambda X: embed(X, 2),
            lambda X: discovery.recursive_segment(X, 2),
            lambda X: discovery.count_hyperplanes(X, 2),
            lambda X: baselines.k_subspaces(X, [2, 2]),
            lambda X: baselines.em_mixture_pca(X, [2, 2]),
        ],
        ids=["segment", "embed", "recursive_segment", "count_hyperplanes", "k_subspaces", "em"],
    )
    def test_raises_value_error(self, call, bad, monkeypatch):
        X = generate(ArrangementSpec(3, (2, 2), 100, 0.01, seed=0))[0]
        X[17, 1] = bad

        def no_factorization(*args, **kwargs):
            raise AssertionError("factored non-finite points")

        for name in ("svd", "qr", "eigh"):
            monkeypatch.setattr(np.linalg, name, no_factorization)
        for holder in ("_linalg", "fitting", "discovery"):
            monkeypatch.setattr(f"gpca.{holder}.triangular_factor", no_factorization)
        with pytest.raises(ValueError, match="finite"):
            call(X)
