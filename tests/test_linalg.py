"""Dense helpers: the left-factor SVD against numpy's economy SVD."""

import numpy as np
import pytest

from gpca._linalg import left_svd, max_principal_angle


def low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestLeftSvd:
    @pytest.mark.parametrize(
        "shape",
        [(12, 300), (30, 60), (30, 59), (40, 40), (60, 30), (1, 5), (5, 1)],
        ids=["wide", "at-ratio", "below-ratio", "square", "tall", "one-row", "one-column"],
    )
    def test_matches_economy_svd(self, shape):
        A = np.random.default_rng(sum(shape)).standard_normal(shape)
        left, sv = left_svd(A)
        ref_left, ref_sv, _ = np.linalg.svd(A, full_matrices=False)
        assert left.shape == ref_left.shape and sv.shape == ref_sv.shape
        assert np.all(np.abs(sv - ref_sv) <= 1e-13 * ref_sv[0])
        assert np.allclose(left.T @ left, np.eye(left.shape[1]), atol=1e-13)
        # each left vector is the reference one up to sign
        signs = np.sign(np.sum(left * ref_left, axis=0))
        assert np.allclose(left * signs, ref_left, atol=1e-10)

    @pytest.mark.parametrize("shape, rank", [((20, 400), 7), ((20, 30), 7), ((30, 20), 7)])
    def test_separates_the_null_space(self, shape, rank):
        A = low_rank(*shape, rank, seed=rank + shape[1])
        left, sv = left_svd(A)
        ref_left, ref_sv, _ = np.linalg.svd(A, full_matrices=False)
        assert np.all(np.abs(sv - ref_sv) <= 1e-13 * ref_sv[0])
        assert np.all(sv[rank:] <= 1e-13 * sv[0])
        assert max_principal_angle(left[:, :rank], ref_left[:, :rank]) <= 1e-10
        if left.shape[1] > rank:
            null, ref_null = left[:, rank:], ref_left[:, rank:]
            assert max_principal_angle(null, ref_null) <= 1e-10
            assert np.abs(null.T @ A).max() <= 1e-12 * sv[0]

    @pytest.mark.parametrize("shape", [(6, 30), (6, 8), (8, 6)])
    def test_all_zero_input(self, shape):
        left, sv = left_svd(np.zeros(shape))
        k = min(shape)
        assert left.shape == (shape[0], k) and sv.shape == (k,)
        assert np.all(sv == 0.0)
        assert np.allclose(left.T @ left, np.eye(k), atol=1e-14)
