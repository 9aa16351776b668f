import numpy as np
import pytest

from shrinkda.ensemble import Ensemble, dense_sample_covariance, deviations, ensemble_mean
from shrinkda.shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters

from helpers import random_ensemble


def dense_rblw_oracle(cov):
    """Shrinkage intensity evaluated on the explicit sample covariance."""
    nstate = cov.shape[0]
    t1 = np.trace(cov)
    t2 = np.trace(cov @ cov)
    return t1 / nstate, (lambda nens: min(
        ((nens - 2) / nstate * t2 + t1**2) / ((nens + 2) * (t2 - t1**2 / nstate)), 1.0))


class TestSingularValues:
    def test_rank_one_norm(self):
        # deviation columns +-[3, 4]/sqrt(2) carry all variance along [3, 4];
        # the single nonzero singular value is the norm 5
        d = np.array([3.0, 4.0]) / np.sqrt(2.0)
        ens = Ensemble(np.column_stack([d, -d]))
        svals = deviation_singular_values(deviations(ens))
        np.testing.assert_allclose(svals[0], 5.0, rtol=1e-14)
        np.testing.assert_allclose(svals[1], 0.0, atol=1e-14)
        assert svals.shape[0] == ens.nens

    def test_zero_matrix_rejected(self):
        v = np.ones(3)
        ens = Ensemble(np.column_stack([v, v, v]))
        with pytest.raises(ValueError, match="zero deviations"):
            deviation_singular_values(deviations(ens))

    def test_rank_bound(self):
        gen = np.random.default_rng(21)
        ens = random_ensemble(gen, 30, 8)
        svals = deviation_singular_values(deviations(ens))
        assert np.sum(svals > 1e-12 * svals[0]) <= ens.nens - 1


class TestRblwParameters:
    def test_clamp_branch(self):
        # near-isotropic spectrum with nstate small relative to nens^2
        # pushes the ratio above one
        svals = np.concatenate([np.full(39, 2.0), [0.0]])
        mu, gamma = rblw_parameters(svals, nstate=50, nens=40)
        assert gamma == 1.0

    def test_matches_dense_oracle(self):
        gen = np.random.default_rng(22)
        ens = random_ensemble(gen, 100, 40)
        svals = deviation_singular_values(deviations(ens))
        mu, gamma = rblw_parameters(svals, ens.nstate, ens.nens)
        mu_o, gamma_fn = dense_rblw_oracle(dense_sample_covariance(ens))
        assert abs(mu - mu_o) / mu_o < 1e-10
        assert abs(gamma - gamma_fn(ens.nens)) / gamma_fn(ens.nens) < 1e-10

    def test_scaling_homogeneity(self):
        gen = np.random.default_rng(23)
        ens = random_ensemble(gen, 60, 10)
        mean = ensemble_mean(ens)
        scaled = Ensemble(mean[:, None] + 3.0 * (ens.matrix - mean[:, None]))
        s1 = deviation_singular_values(deviations(ens))
        s2 = deviation_singular_values(deviations(scaled))
        mu1, g1 = rblw_parameters(s1, 60, 10)
        mu2, g2 = rblw_parameters(s2, 60, 10)
        np.testing.assert_allclose(mu2, 9.0 * mu1, rtol=1e-12)
        np.testing.assert_allclose(g2, g1, rtol=1e-12)

    def test_too_few_members(self):
        with pytest.raises(ValueError, match="too few members"):
            rblw_parameters([1.0], nstate=10, nens=2)

    def test_zero_singular_values(self):
        with pytest.raises(ValueError, match="zero deviations"):
            rblw_parameters([0.0, 0.0], nstate=10, nens=4)


class TestShrinkageCovarianceType:
    def test_invariants_enforced(self):
        gen = np.random.default_rng(25)
        devs = deviations(random_ensemble(gen, 8, 4))
        with pytest.raises(ValueError, match="gamma"):
            ShrinkageCovariance(mu=1.0, gamma=1.5, deviations=devs)

    @pytest.mark.parametrize("mu", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_mu_must_be_finite_and_nonnegative(self, mu):
        # nan passes a plain mu < 0 test, and would surface only later, in
        # the filters, as non-finite synthetic members
        gen = np.random.default_rng(26)
        devs = deviations(random_ensemble(gen, 8, 4))
        with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
            ShrinkageCovariance(mu=mu, gamma=0.5, deviations=devs)
