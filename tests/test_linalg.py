"""Dense helpers: the principal directions of `project`, the triangular
factor and its null vectors, against numpy's SVD."""

import numpy as np
import pytest

from gpca._linalg import max_principal_angle, null_vectors, triangular_factor
from gpca.discovery import project
from gpca.fitting import embed, select_rank
from gpca.synthgen import ArrangementSpec, generate


def low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def left_svd(A):
    """Left singular vectors and singular values of a (D, N) A, from `project`.

    The rows of the (D, D) map of the points Aᵀ are the vectors, and the
    norms of the projected points are the D singular values.
    """
    matrix, projected = project(A.T, A.shape[0])
    return matrix.T, np.linalg.norm(projected, axis=0)


class TestLeftSvd:
    """`project`'s rows are the left singular vectors of Xᵀ, from one triangular factor."""

    @pytest.mark.parametrize(
        "shape",
        [(12, 300), (30, 60), (30, 59), (40, 40), (60, 30), (1, 5), (5, 1)],
        ids=["wide", "wide-even", "wide-odd", "square", "tall", "one-row", "one-column"],
    )
    def test_matches_economy_svd(self, shape):
        A = np.random.default_rng(sum(shape)).standard_normal(shape)
        left, sv = left_svd(A)
        ref_left, ref_sv, _ = np.linalg.svd(A, full_matrices=False)
        k = min(shape)
        assert left.shape == (shape[0], shape[0]) and sv.shape == (shape[0],)
        assert np.all(np.abs(sv[:k] - ref_sv) <= 1e-13 * ref_sv[0])
        assert np.allclose(left.T @ left, np.eye(shape[0]), atol=1e-13)
        # each left vector is the reference one up to sign
        signs = np.sign(np.sum(left[:, :k] * ref_left, axis=0))
        assert np.allclose(left[:, :k] * signs, ref_left, atol=1e-10)
        # past the point span, the rows complete it
        assert np.abs(left[:, k:].T @ A).max(initial=0.0) <= 1e-12 * ref_sv[0]

    @pytest.mark.parametrize("shape, rank", [((20, 400), 7), ((20, 30), 7), ((30, 20), 7)])
    def test_separates_the_null_space(self, shape, rank):
        A = low_rank(*shape, rank, seed=rank + shape[1])
        left, sv = left_svd(A)
        ref_left, ref_sv, _ = np.linalg.svd(A, full_matrices=False)
        assert np.all(np.abs(sv[: min(shape)] - ref_sv) <= 1e-13 * ref_sv[0])
        assert np.all(sv[rank:] <= 1e-13 * sv[0])
        assert max_principal_angle(left[:, :rank], ref_left[:, :rank]) <= 1e-10
        # the reference's null directions lie in the span of the rows past the rank
        null, ref_null = left[:, rank:], ref_left[:, rank:]
        assert np.linalg.norm(ref_null - null @ (null.T @ ref_null), 2) <= 1e-10
        assert np.abs(null.T @ A).max() <= 1e-12 * sv[0]

    @pytest.mark.parametrize("shape", [(6, 30), (6, 8), (8, 6)])
    def test_all_zero_input(self, shape):
        left, sv = left_svd(np.zeros(shape))
        assert left.shape == (shape[0], shape[0]) and sv.shape == (shape[0],)
        assert np.all(sv == 0.0)
        assert np.allclose(left.T @ left, np.eye(shape[0]), atol=1e-14)


SHAPES = [(12, 300), (40, 40), (30, 12), (1, 5), (5, 1), (70, 800), (100, 90), (80, 50)]
SHAPE_IDS = [
    "wide",
    "square",
    "tall",
    "one-row",
    "one-column",
    "wide-blocked",
    "near-square-blocked",
    "tall-blocked",
]


class TestTriangularFactor:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_gram_and_spectrum_match(self, shape):
        A = np.random.default_rng(sum(shape)).standard_normal(shape)
        R = triangular_factor(A.copy())
        M, N = shape
        assert R.shape == (M, M)
        assert np.array_equal(R, np.triu(R))
        gram = A @ A.T
        assert np.abs(R.T @ R - gram).max() <= 1e-13 * np.abs(gram).max()
        sv = np.linalg.svd(R, compute_uv=False)
        ref_sv = np.linalg.svd(A, compute_uv=False)
        assert np.all(np.abs(sv[: min(M, N)] - ref_sv) <= 1e-13 * ref_sv[0])
        assert np.all(sv[min(M, N) :] <= 1e-13 * ref_sv[0])

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_equals_numpy_qr(self, shape, layout):
        # numpy's QR makes the same Householder reflectors, so R agrees entry
        # by entry, signs included, and the zero padding is exact
        A = np.random.default_rng(sum(shape)).standard_normal(shape)
        if layout == "F":
            A = np.asfortranarray(A)
        elif layout == "strided":
            A = np.repeat(A, 2, axis=1)[:, ::2]
        M, N = shape
        ref = np.zeros((M, M))
        ref[: min(M, N)] = np.linalg.qr(A.T, mode="r")
        # the factor consumes a C-ordered A, so the reference comes first
        R = triangular_factor(A)
        assert np.abs(R - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(R[min(M, N) :] == 0.0)

    @pytest.mark.parametrize("shape", [(6, 30), (6, 6), (8, 6)])
    def test_all_zero_input(self, shape):
        R = triangular_factor(np.zeros(shape))
        assert R.shape == (shape[0], shape[0]) and np.all(R == 0.0)


def planted_gap(rows, cols, trailing, seed):
    """A (rows, cols) matrix with singular values 1..0.1, then `trailing` ones below 1e-3."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    sv = np.concatenate(
        [np.geomspace(1.0, 0.1, rows - trailing), np.geomspace(1e-3, 1e-5, trailing)]
    )
    return (U * sv) @ V.T


class TestNullVectors:
    @pytest.mark.parametrize("rows, cols, m", [(30, 200, 3), (56, 400, 1), (20, 60, 8)])
    def test_span_matches_the_trailing_left_vectors(self, rows, cols, m):
        A = planted_gap(rows, cols, m, seed=rows + m)
        U, sv, _ = np.linalg.svd(A)
        got = null_vectors(triangular_factor(A), m)
        assert got.shape == (rows, m)
        assert np.allclose(got.T @ got, np.eye(m), atol=1e-14)
        assert max_principal_angle(got, U[:, -m:]) <= 1e-12
        # ascending order: each column is one trailing vector, up to sign
        signs = np.sign(np.sum(got * U[:, ::-1][:, :m], axis=0))
        assert np.allclose(got * signs, U[:, ::-1][:, :m], atol=1e-10)

    @pytest.mark.parametrize(
        "spec, degree",
        [
            (ArrangementSpec(5, (1, 1, 1), 30, 0.0, seed=0), 3),
            (ArrangementSpec(5, (1, 2, 3), 60, 0.0, seed=2), 3),
        ],
        ids=["three-lines-R5", "mixed-R5"],
    )
    def test_exactly_singular_factor(self, spec, degree):
        X, _, _ = generate(spec)
        em = embed(X, degree)
        nullity = select_rank(em.singular_values).nullity
        if spec.dims == (1, 1, 1):
            # rank 3 of 35: each line lifts to one direction
            assert nullity == 32
        got = null_vectors(em.factor, nullity)
        residuals = np.linalg.norm(em.factor @ got, axis=0)
        assert residuals.max() <= 1e-14 * em.singular_values[0]

    def test_padded_factor_of_fewer_columns(self):
        A = np.random.default_rng(3).standard_normal((30, 12))
        U, sv, _ = np.linalg.svd(A)
        got = null_vectors(triangular_factor(A.copy()), 18)
        assert np.abs(A.T @ got).max() <= 1e-14 * sv[0]
        assert max_principal_angle(got, U[:, 12:]) <= 1e-12

    def test_two_calls_give_the_same_bytes(self):
        R = triangular_factor(planted_gap(30, 200, 3, seed=5))
        assert null_vectors(R, 3).tobytes() == null_vectors(R, 3).tobytes()
