"""Embedded data matrices, rank selection, and vanishing-polynomial fits."""

import numpy as np
import pytest
from util import intro_quadratic_basis, line_and_plane, lines_plus_plane, product_basis

from gpca._linalg import max_principal_angle
from gpca.errors import DegenerateDataError
from gpca.fitting import (
    KAPPA,
    SampleSufficiencyWarning,
    _rank_criterion,
    embed,
    fit_vanishing,
    select_rank,
)
from gpca.polynomial import product_of_linear_forms
from gpca.synthgen import generate, ArrangementSpec
from gpca.veronese import veronese_lift


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
            assert np.allclose(em.matrix[:, j], veronese_lift(em.points[j], 2))
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
        decision = select_rank(em.singular_values, total=6)
        assert (decision.effective_rank, decision.nullity) == (5, 1)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            select_rank(np.zeros(4))

    def test_full_rank_needs_flag(self):
        sv = np.array([3.0, 2.0, 1.0])
        capped = select_rank(sv)
        assert capped.effective_rank <= 2
        free = select_rank(sv, allow_full_rank=True)
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
            for allow_full_rank in (False, True):
                hi = total if allow_full_rank else total - 1
                if hi < 1:
                    continue
                decision = select_rank(sv, total=total, allow_full_rank=allow_full_rank)
                assert decision.effective_rank == reference_criterion_rank(sv, KAPPA, total, 1, hi)[0]

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
        scales = np.linalg.norm(em.matrix, axis=0)
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
