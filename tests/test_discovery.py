"""Rank-probe discovery, projections, and the Hilbert-function match."""

import numpy as np
import pytest
from util import lines_plus_plane, random_projection, recorded_arrangement, two_coordinate_lines

from gpca import discovery
from gpca._linalg import max_principal_angle, unit_rows
from gpca.discovery import (
    DiscoveryReport,
    _probe,
    count_hyperplanes,
    discover_equal_dim,
    project,
    recursive_segment,
)
from gpca.errors import DiscoveryError
from gpca.fitting import embed, hilbert_nullity, select_rank
from gpca.metrics import matched_accuracy
from gpca.motion import epipolar_lines, synthetic_translations
from gpca.synthgen import ArrangementSpec, generate
from gpca.veronese import veronese_lift


class TestProject:
    def test_pca_projection_is_row_orthonormal(self):
        X, _, _ = generate(ArrangementSpec(5, (1, 1), 100, 0.0, seed=0))
        proj, Xp = project(X, 2)
        assert proj.shape == (2, 5)
        assert np.allclose(proj @ proj.T, np.eye(2), atol=1e-12)
        assert Xp.shape == (200, 2)

    def test_two_lines_project_to_two_lines(self):
        X, _, _ = generate(ArrangementSpec(3, (1, 1), 150, 0.0, seed=1))
        _, Xp = project(X, 2)
        report = discover_equal_dim(Xp, 4)
        assert (report.n, report.d) == (2, (1, 1))

    def test_full_dimensional_pca_preserves_labels(self):
        from gpca.segmentation import segment

        X, _, labels = generate(ArrangementSpec(3, (2, 2), 120, 0.0, seed=2))
        _, Xp = project(X, 3)
        seg_orig = segment(X, 2)
        seg_proj = segment(Xp, 2)
        assert matched_accuracy(seg_orig.labels, seg_proj.labels) == 1.0

    def test_projection_preserves_per_subspace_rank(self):
        X, models, labels = generate(ArrangementSpec(6, (2, 2), 150, 0.0, seed=3))
        _, Xp = project(X, 3)
        for cluster in range(2):
            member = Xp[labels == cluster]
            sv = np.linalg.svd(member.T, compute_uv=False)
            assert (sv > 1e-9 * sv[0]).sum() == 2

    def test_pca_map_keeps_its_rows_with_fewer_points_than_dims(self):
        X = np.random.default_rng(5).standard_normal((2, 5))
        proj, Xp = project(X, 3)
        assert proj.shape == (3, 5)
        assert np.allclose(proj @ proj.T, np.eye(3), atol=1e-12)
        assert Xp.shape == (2, 3)
        # the completion rows are orthogonal to the points
        assert np.allclose(Xp[:, 2], 0.0, atol=1e-12)

    def test_fortran_ordered_points_are_left_unchanged(self):
        # the triangular factor consumes its argument, so project factors a copy
        X, _, _ = generate(ArrangementSpec(4, (2, 3), 50, 0.01, seed=4))
        X = np.asfortranarray(X)
        before = X.copy()
        project(X, 3)
        assert np.array_equal(X, before)

    def test_upward_projection_rejected(self):
        X = np.zeros((10, 3))
        with pytest.raises(ValueError):
            project(X, 4)


def reference_probe_nullity(points, degree):
    """A probe's nullity by the residual rule: the best null direction of the lift must vanish.

    The direction is the trailing left singular vector of the embedded matrix
    A from numpy's SVD; it counts when max_j |v . a_j| / ||a_j|| <= 1e-6.
    """
    lift = veronese_lift(unit_rows(points), degree).T
    direction = np.linalg.svd(lift)[0][:, -1]
    residual = np.max(np.abs(direction @ lift) / np.linalg.norm(lift, axis=0))
    count = lift.shape[0]
    nullity = select_rank(embed(points, degree).singular_values, nullities=range(count)).nullity
    return nullity if residual <= 1e-6 else 0


class TestProbeRule:
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("spec", [(5, (1, 2, 3)), (5, (2, 2, 2)), (4, (3, 3, 3)), (3, (2, 2))])
    def test_spectrum_rule_agrees_with_the_residual_rule(self, monkeypatch, spec, sigma):
        # the smallest singular value against the spectrum's norm is ||A^T v|| / ||A||_F
        # for the best null direction v; on these inputs it decides as the
        # per-column residuals of v do, probe by probe
        calls = []

        def recording(points, degree):
            probe = _probe(points, degree)
            calls.append((points, degree, probe.nullity))
            return probe

        monkeypatch.setattr(discovery, "_probe", recording)
        for seed in range(3):
            X, _, _ = generate(ArrangementSpec(*spec, 100, sigma, seed=seed))
            try:
                recursive_segment(X, 4)
            except DiscoveryError:
                pass
        assert calls
        for points, degree, nullity in calls:
            assert nullity == reference_probe_nullity(points, degree)


class TestCountHyperplanes:
    def test_three_planes(self):
        X, _, _ = generate(ArrangementSpec(3, (2, 2, 2), 200, 0.0, seed=5))
        assert count_hyperplanes(X, 5) == 3

    def test_single_plane(self):
        X, _, _ = generate(ArrangementSpec(3, (2,), 200, 0.0, seed=6))
        assert count_hyperplanes(X, 5) == 1

    def test_lines_inside_a_plane_read_as_one_hyperplane(self):
        # the ambient-space probe alone under-counts low-dimensional unions
        X, _, _ = two_coordinate_lines()
        assert count_hyperplanes(X, 4) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_epipolar_lines(self, n):
        for seed in range(6):
            corr, _, _ = synthetic_translations(n, 60, 0.0, seed)
            assert count_hyperplanes(epipolar_lines(corr / 500).lines, 4) == n

    def test_no_fit_raises(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 3))
        with pytest.raises(DiscoveryError):
            count_hyperplanes(X, 2)


class TestDiscoverEqualDim:
    def test_two_coordinate_lines(self):
        X, _, _ = two_coordinate_lines()
        report = discover_equal_dim(X, 4)
        assert isinstance(report, DiscoveryReport)
        assert (report.n, report.d) == (2, (1, 1))

    def test_one_plane(self):
        X, _, _ = generate(ArrangementSpec(3, (2,), 200, 0.0, seed=8))
        report = discover_equal_dim(X, 4)
        assert (report.n, report.d) == (1, (2,))

    def test_three_lines_in_r5(self):
        X, _, _ = generate(ArrangementSpec(5, (1, 1, 1), 200, 0.0, seed=9))
        report = discover_equal_dim(X, 5)
        assert (report.n, report.d) == (3, (1, 1, 1))

    def test_rank_table_recorded(self):
        X, _, _ = two_coordinate_lines()
        result = discover_equal_dim(X, 4)
        level = result.rank_table[-1].level
        matched = [p for p in result.rank_table if p.level == level and p.degree >= result.n]
        assert matched
        for p in matched:
            assert p.nullity == hilbert_nullity(result.d, level + 1, p.degree)

    def test_nothing_found_raises(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((300, 3))
        with pytest.raises(DiscoveryError):
            discover_equal_dim(X, 2)


class TestRecursiveSegment:
    def test_mixed_configuration_three_leaves(self):
        X, _, labels = lines_plus_plane()
        seg, report = recursive_segment(X, 4)
        assert report.n == 3
        assert sorted(report.d) == [1, 1, 2]
        assert matched_accuracy(labels, seg.labels) == 1.0

    def test_never_the_two_plane_reading(self):
        for seed in range(5):
            X, _, _ = lines_plus_plane(seed=50 + seed)
            _, report = recursive_segment(X, 4)
            assert sorted(report.d) == [1, 1, 2]

    def test_rank_probe_progression(self):
        X, _, _ = lines_plus_plane()
        _, report = recursive_segment(X, 4)
        root = {(p.level, p.degree): p for p in report.rank_table}
        assert root[(2, 1)].rank == 3 and root[(2, 1)].nullity == 0
        assert root[(2, 2)].rank == 5 and root[(2, 2)].nullity == 1

    def test_single_subspace_single_leaf(self):
        X, _, _ = generate(ArrangementSpec(3, (2,), 150, 0.0, seed=11))
        seg, report = recursive_segment(X, 4)
        assert report.n == 1 and report.d == (2,)
        assert report.tree.children == ()
        assert report.tree.leaf_dim == 2 and report.tree.n_points == X.shape[0]

    def test_leaf_union_partitions_points(self):
        X, _, _ = lines_plus_plane(seed=60)
        seg, report = recursive_segment(X, 4)
        assert seg.labels.min() >= 0
        counts = np.bincount(seg.labels, minlength=report.n)
        assert counts.sum() == X.shape[0]
        assert np.all(counts > 0)

    def test_report_reproducible_bit_for_bit(self):
        X, _, _ = lines_plus_plane(seed=61)
        _, r1 = recursive_segment(X, 4)
        _, r2 = recursive_segment(X, 4)
        assert r1 == r2
        assert r1.to_text() == r2.to_text()

    def test_leaf_models_live_in_original_space(self):
        X, models, labels = lines_plus_plane(seed=62)
        seg, report = recursive_segment(X, 4)
        by_dim_true = {1: [], 2: []}
        for m in models:
            by_dim_true[m.dim].append(m.complement_basis)
        for est in seg.models:
            best = min(
                max_principal_angle(est.complement_basis, true)
                for true in by_dim_true[est.dim]
            )
            assert best <= 1e-7

    def test_fixed_mixed_input_is_not_over_split(self):
        # one seeded input on which the earlier recursive splitter reported dims (1, 2, 3, 3)
        X, _, labels = generate(ArrangementSpec(5, (1, 2, 3), 100, 0.0, seed=1))
        seg, report = recursive_segment(X, 4)
        assert sorted(report.d) == [1, 2, 3]
        assert matched_accuracy(labels, seg.labels) == 1.0
        assert (report.tree.split_degree, report.tree.split_level) == (3, 4)
        assert sorted(leaf.leaf_dim for leaf in report.tree.children) == [1, 2, 3]

    def test_ambiguous_match_names_the_candidates(self):
        # 24 points allow degrees 1 and 2 only; at degree 2 two 3-dim subspaces
        # of R^5 leave the same 4 quadrics as a line and a 4-dim subspace
        X, _, _ = generate(ArrangementSpec(5, (3, 3), 12, 0.0, seed=0))
        with pytest.raises(DiscoveryError, match=r"\[1, 4\] and of dims \[3, 3\]"):
            recursive_segment(X, 4)

    def test_structureless_input_raises(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DiscoveryError):
            recursive_segment(rng.standard_normal((200, 3)), 3)

    def test_projection_preservation_across_seeds(self):
        # random projections to d_max + 1 preserve (n, d) for most seeds
        X, _, _ = generate(ArrangementSpec(6, (1, 1, 1), 150, 0.0, seed=13))
        hits = 0
        trials = 40
        for seed in range(trials):
            Xp = random_projection(X, 2, seed)
            try:
                report = discover_equal_dim(Xp, 4)
            except DiscoveryError:
                continue
            hits += (report.n, report.d) == (3, (1, 1, 1))
        assert hits / trials >= 0.95


# Exact arrangements for the (n, dims) grid below. The misses are inputs with
# a real singular value near 1e-3 of the largest, which the rank criterion
# (fitting.KAPPA = 1e-6) reads as zero, so a probe's nullity is one too large;
# two more run on their recorded bases (`test_exact_recorded_inputs_...`).
_GRID_SPECS = [
    (3, (1, 1, 2)),
    (5, (2, 2, 2)),
    (5, (1, 2, 3)),
    (4, (1, 2, 3)),
    (5, (1, 1, 1)),
    (6, (2, 3, 4)),
    (4, (3, 3, 3)),
    (3, (2, 2, 2, 2)),
]
_GRID_MISSES = {((5, (1, 2, 3)), 29)}


@pytest.mark.parametrize(
    "spec, seed",
    [
        pytest.param(
            spec,
            seed,
            id=f"{spec[0]}-{'.'.join(map(str, spec[1]))}-seed{seed}",
            marks=[pytest.mark.xfail(strict=True, reason="nullity read one too large")]
            if (spec, seed) in _GRID_MISSES
            else [],
        )
        for spec in _GRID_SPECS
        for seed in range(60)
    ],
)
def test_exact_grid_gives_n_and_dims(spec, seed):
    D, dims = spec
    X, _, labels = generate(ArrangementSpec(D, dims, 100, 0.0, seed=seed))
    seg, report = recursive_segment(X, 4)
    assert sorted(report.d) == sorted(dims)
    assert matched_accuracy(labels, seg.labels) == 1.0


@pytest.mark.xfail(strict=True, reason="nullity read one too large")
@pytest.mark.parametrize(
    "spec, seed", [((3, (1, 1, 2)), 53), ((4, (1, 2, 3)), 38)], ids=["3-1.1.2-seed53", "4-1.2.3-seed38"]
)
def test_exact_recorded_inputs_give_n_and_dims(spec, seed):
    # grid misses whose subspaces the generator now draws anew
    D, dims = spec
    X, _, labels = recorded_arrangement(D, dims, 100, seed)
    seg, report = recursive_segment(X, 4)
    assert sorted(report.d) == sorted(dims)
    assert matched_accuracy(labels, seg.labels) == 1.0
