import numpy as np
import pytest

from shrinkda.observations import ObservationSpec
from shrinkda.solvers import (GRAM_ROW_BLOCK, TRIANGULAR_BLOCK, ObservationSpaceSystem,
                             cholesky_solve, ensrf_transform, entkf_factors, ismf_solve,
                             weighted_gram)

from helpers import ismf_loop, ismf_z


class TestIsmfSolve:
    def test_no_update_is_plain_inverse(self):
        gen = np.random.default_rng(60)
        var = gen.uniform(0.5, 2.0, 12)
        rhs = gen.standard_normal((12, 3))
        w = ismf_solve(ObservationSpaceSystem(var, np.zeros((12, 4)), rhs))
        np.testing.assert_array_equal(w, np.zeros((4, 3)))

    def test_rank_one_matches_sherman_morrison(self):
        gen = np.random.default_rng(61)
        n = 9
        var = gen.uniform(0.5, 2.0, n)
        v = gen.standard_normal((n, 1))
        d = gen.standard_normal(n)
        z = ismf_z(ObservationSpaceSystem(var, v, d))
        # classical rank-one update formula
        gd = d / var
        gv = v[:, 0] / var
        expected = gd - gv * (v[:, 0] @ gd) / (1.0 + v[:, 0] @ gv)
        np.testing.assert_allclose(z[:, 0], expected, rtol=0, atol=1e-12)

    def test_matches_dense_solve(self):
        gen = np.random.default_rng(62)
        n, m = 30, 6
        var = gen.uniform(0.5, 2.0, n)
        pi = gen.standard_normal((n, m))
        rhs = gen.standard_normal((n, 4))
        z = ismf_z(ObservationSpaceSystem(var, pi, rhs))
        expected = np.linalg.solve(np.diag(var) + pi @ pi.T, rhs)
        assert np.linalg.norm(z - expected) / np.linalg.norm(expected) < 1e-10

    # ids are nobs-m-r-graded_gamma
    @pytest.mark.parametrize("nstate, p, m, r, graded_gamma", [
        (961, 0.7, 440, 40, False),  # qg-33 enkf-fs: nobs 673, nens + K = 440, 40 members
        (2000, 0.75, 15, 3, True),   # tall, nobs 1500 >> m, Gamma graded over two decades
        (400, 0.7, 60, 5, False),    # nobs 280, one partial row block
        (700, 1.0, 40, 40, False),   # p = 1 and K = 0: every row observed, m = nens
    ], ids=["673-440-40-False", "1500-15-3-True", "280-60-5-False", "700-40-40-False"])
    def test_matches_ismf_loop_and_dense_solve(self, nstate, p, m, r, graded_gamma):
        gen = np.random.default_rng(70)
        nobs = ObservationSpec.from_fraction(nstate, p, 1.0).nobs
        if graded_gamma:
            var = 10.0 ** gen.uniform(-1.0, 1.0, nobs)
        else:
            var = gen.uniform(0.5, 2.0, nobs)
        pi = 0.3 * gen.standard_normal((nobs, m))
        rhs = gen.standard_normal((nobs, r))
        system = ObservationSpaceSystem(var, pi, rhs)
        w = ismf_solve(system)
        z = (rhs - pi @ w) / var[:, None]
        loop = ismf_loop(system)
        dense = np.linalg.solve(np.diag(var) + pi @ pi.T, rhs)
        # float64 solves of a system with condition number below 1e3
        assert np.abs(z - loop).max() <= 1e-12 * np.abs(loop).max()
        assert np.abs(z - dense).max() <= 1e-12 * np.abs(dense).max()
        # W = Pi.T Z by the push-through identity, to the rounding of the product
        assert np.abs(w - pi.T @ dense).max() <= 1e-12 * (np.abs(pi).T @ np.abs(dense)).max()

    def test_row_counts_must_agree(self):
        var = np.ones(3)
        with pytest.raises(ValueError, match="row count of Pi and rhs"):
            ObservationSpaceSystem(var, np.ones((5, 2)), np.ones(3))
        with pytest.raises(ValueError, match="row count of Pi and rhs"):
            ObservationSpaceSystem(var, np.ones((3, 2)), np.ones(4))

    def test_indefinite_gamma_raises(self):
        # an indefinite Gamma would make the capacitance matrix
        # I + Pi.T Gamma^{-1} Pi indefinite even though Gamma + Pi Pi.T stays
        # invertible; the system is refused before any solve, with no fallback
        gamma = np.diag([1.0, -1.0])
        pi = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert abs(np.linalg.det(gamma + pi @ pi.T)) > 0.5
        with pytest.raises(ValueError, match="diagonal entries must be positive"):
            ObservationSpaceSystem(np.diagonal(gamma), pi, np.array([1.0, 2.0]))


class TestWeightedGram:
    def test_matches_dense_and_is_exactly_symmetric(self):
        # two full row blocks and one partial
        gen = np.random.default_rng(71)
        nrows = 2 * GRAM_ROW_BLOCK + 77
        a = gen.standard_normal((nrows, 30))
        weights = 10.0 ** gen.uniform(-1.0, 1.0, nrows)
        rhs = gen.standard_normal((nrows, 4))
        gram, cross = weighted_gram(a, np.sqrt(weights), rhs)
        np.testing.assert_array_equal(gram, gram.T)
        dense_gram = a.T @ (weights[:, None] * a)
        dense_cross = a.T @ (weights[:, None] * rhs)
        assert np.abs(gram - dense_gram).max() <= 1e-12 * np.abs(dense_gram).max()
        assert np.abs(cross - dense_cross).max() <= 1e-12 * np.abs(dense_cross).max()


class TestCholeskySolve:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 440])
    def test_matches_dense_solve(self, n):
        # one block, one full and one partial block, and seven blocks
        gen = np.random.default_rng(100 + n)
        a = gen.standard_normal((n, n + 5))
        matrix = a @ a.T / n + np.eye(n)
        rhs = gen.standard_normal((n, 7))
        x, lower = cholesky_solve(matrix, rhs, "not positive definite")
        expected = np.linalg.solve(matrix, rhs)
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(np.tril(lower) - lower).max() == 0.0
        vector, _ = cholesky_solve(matrix, rhs[:, 0], "not positive definite")
        assert vector.shape == (n,)
        assert np.abs(vector - expected[:, 0]).max() <= 1e-12 * np.abs(expected).max()
        if n <= TRIANGULAR_BLOCK:
            # a single block is one np.linalg.solve per factor, bit for bit
            np.testing.assert_array_equal(
                x, np.linalg.solve(lower.T, np.linalg.solve(lower, rhs)))

    @pytest.mark.parametrize("n", [2, 70])
    def test_not_positive_definite_raises_callers_message(self, n):
        matrix = np.eye(n)
        matrix[-1, -1] = -1.0
        with pytest.raises(ValueError, match="^capacitance says no$"):
            cholesky_solve(matrix, np.ones(n), "capacitance says no")


def ensrf_contraction(v, r_var):
    """C^{-1/2} from the eigenpairs of the capacitance C = I + V.T R^{-1} V."""
    eigval, eigvec = ensrf_transform(v, r_var)
    return (eigvec / np.sqrt(eigval)) @ eigvec.T


class TestEnsrfTransform:
    def test_zero_v_is_identity(self):
        # C = I: unit eigenvalues, and the contraction is the identity
        eigval, _ = ensrf_transform(np.zeros((5, 3)), np.ones(5))
        np.testing.assert_array_equal(eigval, np.ones(3))
        np.testing.assert_allclose(ensrf_contraction(np.zeros((5, 3)), np.ones(5)), np.eye(3),
                                   atol=1e-14)

    def test_scalar_case(self):
        # one member with V = 1 and R = 1 / s - 1: V.T (R + V V.T)^{-1} V = s,
        # C = 1 + 1 / R = 1 / (1 - s) and the contraction is sqrt(1 - s)
        s = 0.64
        r = np.array([1.0 / s - 1.0])
        eigval, _ = ensrf_transform(np.array([[1.0]]), r)
        np.testing.assert_allclose(eigval, [1.0 / (1.0 - s)], rtol=1e-14)
        np.testing.assert_allclose(ensrf_contraction(np.array([[1.0]]), r),
                                   [[np.sqrt(1 - s)]], rtol=1e-14)

    def test_reconstruction(self):
        # the dense observation-space square root is the oracle
        gen = np.random.default_rng(65)
        nobs, nens = 30, 6
        v = gen.standard_normal((nobs, nens))
        r = np.diag(gen.uniform(0.5, 1.5, nobs))
        t = ensrf_contraction(v, np.diagonal(r))
        target = np.eye(nens) - v.T @ np.linalg.solve(r + v @ v.T, v)
        assert np.abs(t @ t.T - target).max() < 1e-9


def transform_and_weights(v, d, r_var):
    """The kernel's transform (I + V.T R^{-1} V)^{-1/2} and mean weights at
    zeta = 1: the ETKF for V = H S, S = U / sqrt(nens - 1)."""
    lam, vec, proj = entkf_factors(v, d, r_var)
    return (vec / np.sqrt(1.0 + lam)) @ vec.T, vec @ (proj / (1.0 + lam))


class TestEntkfFactors:
    def test_zero_v(self):
        transform, weights = transform_and_weights(np.zeros((6, 4)), np.ones(6), np.ones(6))
        np.testing.assert_allclose(transform, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(weights, np.zeros(4), atol=1e-14)

    def test_transform_matches_inverse_sqrt(self):
        gen = np.random.default_rng(67)
        nobs, nens = 25, 5
        v = gen.standard_normal((nobs, nens))
        r_var = gen.uniform(0.5, 1.5, nobs)
        transform, _ = transform_and_weights(v, np.zeros(nobs), r_var)
        m = np.eye(nens) + v.T @ np.diag(1.0 / r_var) @ v
        eigval, eigvec = np.linalg.eigh(m)
        expected = (eigvec / np.sqrt(eigval)) @ eigvec.T
        np.testing.assert_allclose(transform, expected, atol=1e-10)

    def test_mean_weights_match_gain(self):
        gen = np.random.default_rng(68)
        nobs, nens = 20, 6
        v = gen.standard_normal((nobs, nens))
        r_var = gen.uniform(0.5, 1.5, nobs)
        d = gen.standard_normal(nobs)
        _, weights = transform_and_weights(v, d, r_var)
        expected = v.T @ np.linalg.solve(np.diag(r_var) + v @ v.T, d)
        np.testing.assert_allclose(weights, expected, atol=1e-10)

    def test_underdetermined_shape(self):
        # fewer observations than members still yields an exact transform
        gen = np.random.default_rng(69)
        v = gen.standard_normal((3, 7))
        r_var = np.full(3, 0.8)
        transform, _ = transform_and_weights(v, np.zeros(3), r_var)
        m = np.eye(7) + v.T @ np.diag(1.0 / r_var) @ v
        np.testing.assert_allclose(transform @ transform, np.linalg.inv(m), atol=1e-9)
