import numpy as np
import pytest

from shrinkda.ensemble import (DENSE_ORACLE_CAP, DeviationMatrix, Ensemble,
                               dense_sample_covariance, deviations, ensemble_mean)
from shrinkda.filters import FILTER_KEYS, run_filter
from shrinkda.observations import ObservationSpec
from shrinkda.sampling import RngStream

from helpers import random_ensemble


class TestEnsembleType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            Ensemble(np.zeros((3, 0)))

    def test_rejects_non_finite(self):
        m = np.ones((3, 2))
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Ensemble(m)

    def test_members_are_columns_and_immutable(self):
        ens = Ensemble(np.column_stack([[1.0, 2.0], [3.0, 4.0]]))
        assert ens.nstate == 2 and ens.nens == 2
        np.testing.assert_array_equal(ens.member(1), [3.0, 4.0])
        with pytest.raises(ValueError):
            ens.matrix[0, 0] = 9.0


class TestEnsembleMean:
    def test_identical_members(self):
        v = np.array([2.0, -1.0, 0.5])
        ens = Ensemble(np.column_stack([v, v, v]))
        np.testing.assert_array_equal(ensemble_mean(ens), v)

    def test_hand_arithmetic(self):
        ens = Ensemble(np.column_stack([[1.0, 3.0], [3.0, 5.0]]))
        np.testing.assert_array_equal(ensemble_mean(ens), [2.0, 4.0])

    def test_matches_summation_oracle(self):
        gen = np.random.default_rng(10)
        ens = random_ensemble(gen, 10, 6)
        # brute-force per-component summation
        expected = np.zeros(10)
        for i in range(ens.nens):
            expected += ens.member(i)
        expected /= ens.nens
        np.testing.assert_allclose(ensemble_mean(ens), expected, rtol=0, atol=1e-13)

    def test_single_member_allowed(self):
        ens = Ensemble(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(ensemble_mean(ens), [1.0, 2.0])


class TestDeviations:
    def test_identical_members_zero(self):
        v = np.array([1.0, 2.0])
        ens = Ensemble(np.column_stack([v, v, v]))
        np.testing.assert_array_equal(deviations(ens).columns, np.zeros((2, 3)))

    def test_two_member_analytic(self):
        ens = Ensemble(np.column_stack([[0.0], [2.0]]))
        np.testing.assert_allclose(deviations(ens).columns, [[-1.0, 1.0]], atol=1e-15)

    def test_covariance_factorization(self):
        gen = np.random.default_rng(11)
        ens = random_ensemble(gen, 20, 7)
        s = deviations(ens).columns
        # dense sample-covariance oracle computed member by member
        mean = ensemble_mean(ens)
        oracle = np.zeros((20, 20))
        for i in range(ens.nens):
            d = ens.member(i) - mean
            oracle += np.outer(d, d)
        oracle /= ens.nens - 1
        err = np.linalg.norm(s @ s.T - oracle) / np.linalg.norm(oracle)
        assert err < 1e-12

    def test_single_member_rejected(self):
        ens = Ensemble(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="degenerate ensemble"):
            deviations(ens)

    def test_large_offset_accepted_nonzero_sum_rejected(self):
        # x - mean rounds in proportion to |x|, not to the spread: at an
        # offset of 1e5 the column sums reach about 1e-9. Every filter
        # takes its anomalies about the mean at that offset
        gen = np.random.default_rng(17)
        ens = Ensemble(1e5 + gen.standard_normal((961, 40)))
        deviations(ens)
        obs = ObservationSpec.from_fraction(ens.nstate, 0.5, 1.0)
        y = obs.project(1e5 + gen.standard_normal(ens.nstate))
        for key in FILTER_KEYS:
            res = run_filter(key, ens, y, obs, RngStream(3), synthetic_members=40)
            assert np.all(np.isfinite(res.analysis.matrix))
        shifted = ens.matrix - ensemble_mean(ens)[:, None] + 1e-3
        with pytest.raises(ValueError, match="deviation columns must sum to zero"):
            DeviationMatrix(shifted, 1e5)


class TestDenseSampleCovariance:
    def test_identical_members_zero(self):
        v = np.arange(4.0)
        ens = Ensemble(np.column_stack([v, v, v]))
        np.testing.assert_array_equal(dense_sample_covariance(ens), np.zeros((4, 4)))

    def test_one_dimensional_variance(self):
        ens = Ensemble(np.column_stack([[0.0], [2.0]]))
        np.testing.assert_allclose(dense_sample_covariance(ens), [[2.0]])

    def test_size_cap(self):
        gen = np.random.default_rng(16)
        ens = random_ensemble(gen, DENSE_ORACLE_CAP + 1, 4)
        with pytest.raises(ValueError, match="oracle size exceeded"):
            dense_sample_covariance(ens)
