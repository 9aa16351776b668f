import numpy as np
import pytest

from shrinkda.ensemble import (DeviationMatrix, Ensemble, dense_sample_covariance, deviations,
                               ensemble_mean)
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


def svd_gamma_oracle(ens):
    """(mu, gamma) from the SVD of the deviations, with every singular value
    in the power sums: the spectrum the Gram path replaces."""
    nstate, nens = ens.nstate, ens.nens
    svals = np.linalg.svd(deviations(ens).columns, compute_uv=False)
    t1, t2 = np.sum(svals**2), np.sum(svals**4)
    gamma = ((nens - 2) / nstate * t2 + t1**2) / ((nens + 2) * (t2 - t1**2 / nstate))
    return t1 / nstate, min(gamma, 1.0)


def low_rank_ensemble(gen, nstate, nens, rank):
    """Members about a random mean that span only ``rank`` directions."""
    base = gen.standard_normal(nstate)
    return Ensemble(base[:, None] + gen.standard_normal((nstate, rank))
                    @ gen.standard_normal((rank, nens)))


class TestGramSpectrum:
    @pytest.mark.parametrize("nstate,nens", [(30, 8), (961, 40), (3969, 40), (40, 20),
                                             (5, 12), (3, 40)])
    def test_null_values_read_exactly_zero(self, nstate, nens):
        # the columns sum to zero, so at most nens - 1 (and at most nstate)
        # singular values are nonzero; rounding leaves the Gram's null
        # eigenvalues near eps * lambda_max, whose roots would read about
        # 1e-8 of the largest singular value without the floor
        gen = np.random.default_rng(nstate + nens)
        for _ in range(5):
            svals = deviation_singular_values(deviations(random_ensemble(gen, nstate, nens)))
            rank = min(nstate, nens - 1)
            assert svals.shape == (nens,)
            assert np.all(np.diff(svals) <= 0.0)
            assert np.all(svals[:rank] > 0.0)
            assert np.all(svals[rank:] == 0.0)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_gram_out_of_range_refused(self, scale):
        with np.errstate(over="ignore"):  # the column norms of the zero-sum check
            devs = DeviationMatrix(scale * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
        with pytest.raises(ValueError, match="overflow or underflow their Gram matrix"):
            deviation_singular_values(devs)


class TestRblwParameters:
    def test_clamp_branch(self):
        # near-isotropic spectrum with nstate small relative to nens^2
        # pushes the ratio above one
        svals = np.concatenate([np.full(39, 2.0), [0.0]])
        mu, gamma = rblw_parameters(svals, nstate=50, nens=40)
        assert gamma == 1.0

    def test_matches_dense_oracle(self):
        # random and rank-deficient ensembles, nens > nstate among them: the
        # Gram spectrum's (mu, gamma) against the explicit covariance and
        # against the SVD of the deviations
        gen = np.random.default_rng(22)
        for nstate, nens, rank in [(100, 40, None), (400, 40, None), (12, 30, None),
                                   (100, 40, 5), (400, 40, 12), (8, 20, 3)]:
            for _ in range(5):
                ens = (random_ensemble(gen, nstate, nens) if rank is None
                       else low_rank_ensemble(gen, nstate, nens, rank))
                svals = deviation_singular_values(deviations(ens))
                if rank is not None:
                    assert np.count_nonzero(svals) == rank
                mu, gamma = rblw_parameters(svals, nstate, nens)
                # only the spectrum's own zeros are skipped, wherever they sit
                padded = np.insert(svals, [0, svals.size // 2, svals.size], 0.0)
                assert rblw_parameters(padded, nstate, nens) == (mu, gamma)
                mu_d, gamma_fn = dense_rblw_oracle(dense_sample_covariance(ens))
                assert abs(mu - mu_d) / mu_d < 1e-10
                assert abs(gamma - gamma_fn(nens)) / gamma_fn(nens) < 1e-10
                mu_s, gamma_s = svd_gamma_oracle(ens)
                assert abs(mu - mu_s) <= 1e-12 * mu_s
                assert abs(gamma - gamma_s) <= 1e-12 * gamma_s

    def test_scaling_homogeneity(self):
        # the Gram squares the deviations and RBLW's power sums take fourth
        # powers of the singular values: at 1e+-100 those would overflow or
        # underflow unless the sums run on values divided by the largest
        gen = np.random.default_rng(23)
        ens = random_ensemble(gen, 60, 10)
        centred = ens.matrix - ensemble_mean(ens)[:, None]
        s1 = deviation_singular_values(deviations(Ensemble(centred)))
        mu1, g1 = rblw_parameters(s1, 60, 10)
        for scale in (3.0, 1e-100, 1e100):
            s2 = deviation_singular_values(deviations(Ensemble(scale * centred)))
            np.testing.assert_allclose(s2, scale * s1, rtol=1e-12)
            mu2, g2 = rblw_parameters(s2, 60, 10)
            np.testing.assert_allclose(mu2, scale**2 * mu1, rtol=1e-12)
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
