import numpy as np
import pytest
from scipy.linalg import sqrtm

from shrinkda import filters, sampling, validation
from shrinkda.ensemble import (DeviationMatrix, Ensemble, dense_sample_covariance, deviations,
                               ensemble_mean)
from shrinkda.filters import (FILTER_KEYS, enkf_analysis, enkf_du_analysis, enkf_fs_analysis,
                              enkf_n_analysis, enkf_n_cost, enkf_n_gradient,
                              enkf_rs_analysis, enkf_rs_system, ensrf_analysis,
                              entkf_analysis, estimate_shrinkage, run_filter)
from shrinkda.harness import make_initial_ensemble, propagate_matrix
from shrinkda.models import get_model
from shrinkda.observations import ObservationSpec
from shrinkda.sampling import (RngStream, draw_synthetic_members, extend_ensemble,
                               perturb_observations)
from shrinkda.shrinkage import ShrinkageCovariance
from shrinkda.validation import fs_replayed_members

from helpers import (dense_rs_analysis, enkf_fs_explicit, enkf_n_hessian, enkf_rs_explicit,
                     random_ensemble, rs_replayed_members, selection_matrix)


def instance(gen, nstate=10, nens=6, p=0.7, obs_std=0.1):
    ens = random_ensemble(gen, nstate, nens)
    obs = ObservationSpec.from_fraction(nstate, p, obs_std)
    truth = gen.standard_normal(nstate)
    y = obs.project(truth) + obs_std * gen.standard_normal(obs.nobs)
    return ens, obs, y


def dual_search_case(case):
    """Ensemble, observation spec and observations of a dual-search test."""
    if case == "random-15x6":
        return instance(np.random.default_rng(83), nstate=15, nens=6)
    if case == "random-qg-33":
        return instance(np.random.default_rng(88), nstate=961, nens=40, obs_std=0.01)
    # a 10-step Lorenz-96 forecast of a 20-member ensemble
    obs_std = {"l96-40-obs-1": 1.0, "l96-40-obs-1e-5": 1e-5}[case]
    model = get_model("l96-40")
    x0 = model.initial_state()
    ens = make_initial_ensemble(x0, 0.05, 20, RngStream(5))
    matrix = propagate_matrix(model, ens.matrix, 10, workers=1)
    truth = propagate_matrix(model, x0, 10, workers=1)
    obs = ObservationSpec.from_fraction(40, 0.7, obs_std)
    y = obs.project(truth) + obs_std * np.random.default_rng(89).standard_normal(obs.nobs)
    return Ensemble(matrix), obs, y


def dual_f(zeta, lam, proj, nens):
    """zeta (1 + 1/nens + |p|^2) - nens for p = proj / (lam + zeta): twice
    zeta times the derivative of the dual cost."""
    return zeta * (1 + 1 / nens + np.sum((proj / (lam + zeta))**2)) - nens


def kalman_gain(ens, obs):
    p = dense_sample_covariance(ens)
    h = selection_matrix(obs, ens.nstate)
    r = np.diag(obs.variances)
    return p @ h.T @ np.linalg.inv(r + h @ p @ h.T)


class TestEnkf:
    def test_huge_variances_vanishing_gain(self):
        # R = 1e6 I bounds the gain K = P H.T (R + H P H.T)^{-1} by
        # |P H.T| / 1e6, so the increment K D for innovations D at the
        # observation-noise scale is at most |P H.T| |D| / 1e6
        gen = np.random.default_rng(71)
        nstate = 12
        ens = random_ensemble(gen, nstate, 5)
        obs = ObservationSpec(nstate=nstate, indices=np.arange(8),
                              variances=np.full(8, 1e6))
        d = 1e3 * gen.standard_normal((8, 5))
        res = enkf_analysis(ens, np.zeros(8), obs, innovations=d)
        increment = res.analysis.matrix - ens.matrix
        p_ht = dense_sample_covariance(ens) @ selection_matrix(obs, nstate).T
        bound = np.linalg.norm(p_ht, 2) * np.linalg.norm(d, 2) / 1e6
        assert np.linalg.norm(increment, 2) <= bound < 1e-2 * np.linalg.norm(ens.matrix, 2)
        np.testing.assert_allclose(increment, kalman_gain(ens, obs) @ d, rtol=1e-9)

    def test_matches_dense_gain_per_member(self):
        gen = np.random.default_rng(72)
        ens, obs, y = instance(gen, nstate=8, nens=4, p=5 / 8)
        rng = RngStream(17)
        res = enkf_analysis(ens, y, obs, rng)
        perturbed = perturb_observations(y, obs, ens.nens, rng.child(filters._OBS_STREAM))
        d = perturbed - obs.project(ens.matrix)
        oracle = ens.matrix + kalman_gain(ens, obs) @ d
        assert np.abs(res.analysis.matrix - oracle).max() < 1e-9


class TestEnsrf:
    def test_covariance_matches_kalman_oracle(self):
        gen = np.random.default_rng(74)
        ens, obs, y = instance(gen, nstate=10, nens=6)
        res = ensrf_analysis(ens, y, obs)
        h = selection_matrix(obs, 10)
        p = dense_sample_covariance(ens)
        target = (np.eye(10) - kalman_gain(ens, obs) @ h) @ p
        got = dense_sample_covariance(res.analysis)
        assert np.abs(got - target).max() < 1e-8

    def test_equals_entkf(self):
        gen = np.random.default_rng(75)
        ens, obs, y = instance(gen, nstate=20, nens=7)
        a = ensrf_analysis(ens, y, obs)
        b = entkf_analysis(ens, y, obs)
        assert np.abs(ensemble_mean(a.analysis) - ensemble_mean(b.analysis)).max() < 1e-8
        pa = dense_sample_covariance(a.analysis)
        pb = dense_sample_covariance(b.analysis)
        assert np.abs(pa - pb).max() < 1e-8

    def test_deterministic(self):
        gen = np.random.default_rng(76)
        ens, obs, y = instance(gen)
        a = ensrf_analysis(ens, y, obs).analysis.matrix
        b = ensrf_analysis(ens, y, obs).analysis.matrix
        np.testing.assert_array_equal(a, b)


class TestEntkf:
    def test_covariance_matches_kalman_oracle(self):
        gen = np.random.default_rng(78)
        ens, obs, y = instance(gen, nstate=9, nens=5)
        res = entkf_analysis(ens, y, obs)
        h = selection_matrix(obs, 9)
        p = dense_sample_covariance(ens)
        target = (np.eye(9) - kalman_gain(ens, obs) @ h) @ p
        assert np.abs(dense_sample_covariance(res.analysis) - target).max() < 1e-8

    def test_matches_hunt_formulas_with_fewer_observations_than_members(self):
        # Hunt, Kostelich & Szunyogh (2007), eqs. 21-24, in dense form
        gen = np.random.default_rng(84)
        ens, obs, y = instance(gen, nstate=12, nens=8, p=0.25)
        assert obs.nobs < ens.nens
        k = ens.nens
        mean = ensemble_mean(ens)
        u = ens.matrix - mean[:, None]
        yb = selection_matrix(obs, 12) @ u
        rinv = np.diag(1.0 / obs.variances)
        pa = np.linalg.inv((k - 1) * np.eye(k) + yb.T @ rinv @ yb)
        wbar = pa @ yb.T @ rinv @ (y - obs.project(mean))
        w = np.real(sqrtm((k - 1) * pa))
        expected = mean[:, None] + u @ (wbar[:, None] + w)
        got = entkf_analysis(ens, y, obs).analysis
        np.testing.assert_allclose(ensemble_mean(got), mean + u @ wbar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.matrix, expected, rtol=0, atol=1e-12)


class TestEnkfN:
    def test_cost_at_zero_weights(self):
        gen = np.random.default_rng(79)
        ens, obs, y = instance(gen)
        u = (ens.matrix - ensemble_mean(ens)[:, None])
        q = obs.project(u)
        d0 = y - obs.project(ensemble_mean(ens))
        rinv = 1.0 / obs.variances
        got = enkf_n_cost(np.zeros(ens.nens), q, d0, rinv, ens.nens)
        expected = 0.5 * d0 @ (rinv * d0) + 0.5 * ens.nens * np.log(1 + 1 / ens.nens)
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(80)
        ens, obs, y = instance(gen, nstate=12, nens=5)
        u = (ens.matrix - ensemble_mean(ens)[:, None])
        q = obs.project(u)
        d0 = y - obs.project(ensemble_mean(ens))
        rinv = 1.0 / obs.variances
        args = (q, d0, rinv, ens.nens)
        h = 1e-6
        for _ in range(10):
            w = gen.standard_normal(ens.nens)
            grad = enkf_n_gradient(w, *args)
            fd = np.empty_like(w)
            for j in range(w.shape[0]):
                e = np.zeros_like(w)
                e[j] = h
                fd[j] = (enkf_n_cost(w + e, *args) - enkf_n_cost(w - e, *args)) / (2 * h)
            assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(grad).max())

    def test_mean_preserved_and_diagnostics(self):
        gen = np.random.default_rng(81)
        ens, obs, y = instance(gen)
        res = enkf_n_analysis(ens, y, obs)
        assert res.analysis.nens == ens.nens
        assert "cost_primal" in res.diagnostics
        assert res.diagnostics["gradient_norm"] <= 1e-8

    @pytest.mark.parametrize("nstate, nens, p", [(40, 20, 0.7), (12, 8, 0.25)])
    def test_matches_dense_primal_hessian(self, nstate, nens, p):
        # the mean is a stationary point of the primal cost, and the members
        # come from the dense inverse primal Hessian there
        gen = np.random.default_rng(118)
        ens, obs, y = instance(gen, nstate=nstate, nens=nens, p=p)
        mean_b = ensemble_mean(ens)
        u = ens.matrix - mean_b[:, None]
        q = obs.project(u)
        d0 = y - obs.project(mean_b)
        rinv = 1.0 / obs.variances
        got = enkf_n_analysis(ens, y, obs).analysis
        mean_a = ensemble_mean(got)
        w = np.linalg.lstsq(u, mean_a - mean_b, rcond=None)[0]
        np.testing.assert_allclose(mean_a, mean_b + u @ w, rtol=0, atol=1e-10)
        grad = enkf_n_gradient(w, q, d0, rinv, nens)
        assert np.linalg.norm(grad) < 1e-10 * max(1.0, np.linalg.norm(q.T @ (rinv * d0)))
        inv_sqrt = np.real(sqrtm(np.linalg.inv(enkf_n_hessian(w, q, rinv, nens))))
        expected = mean_a[:, None] + u @ (np.sqrt(nens - 1.0) * inv_sqrt)
        np.testing.assert_allclose(got.matrix, expected, rtol=0, atol=1e-10)

    def test_non_convergence_reports_iterate(self, monkeypatch):
        gen = np.random.default_rng(117)
        ens, obs, y = instance(gen)
        monkeypatch.setattr(filters, "ENKF_N_GRAD_TOL", 0.0)
        with pytest.raises(RuntimeError, match="gradient norm"):
            enkf_n_analysis(ens, y, obs)


class TestEnkfDu:
    def test_upper_bound_admissible(self):
        gen = np.random.default_rng(82)
        ens, obs, y = instance(gen)
        res = enkf_du_analysis(ens, y, obs)
        nens = ens.nens
        upper = nens / (1 + 1 / nens)
        assert 0.0 < res.diagnostics["dual_zeta"] <= upper + 1e-12
        assert np.isfinite(res.diagnostics["cost_dual"])

    @pytest.mark.parametrize("case", ["random-15x6", "l96-40-obs-1", "l96-40-obs-1e-5",
                                      "random-qg-33"])
    def test_zeta_matches_grid_search(self, case):
        ens, obs, y = dual_search_case(case)
        res = enkf_du_analysis(ens, y, obs)
        # independent grid oracle from dense solves: the dual cost's
        # derivative is f / (2 z), f(z) = z (1 + 1/nens + |w|^2) - nens with
        # (z I + G.T G) w = G.T dw, and the minimum is the one grid cell
        # where f rises through 0. The float64 cost cancels |dw|^2 down to
        # its minimum, so at obs_std 1e-5 its grid argmin is rounding noise.
        u = (ens.matrix - ensemble_mean(ens)[:, None])
        q = obs.project(u)
        d0 = y - obs.project(ensemble_mean(ens))
        g = q / np.sqrt(obs.variances)[:, None]
        dw = d0 / np.sqrt(obs.variances)
        nens = ens.nens
        eps_n = 1 + 1 / nens

        gtg, gtd = g.T @ g, g.T @ dw

        def weights(z):
            return np.linalg.solve(z * np.eye(nens) + gtg, gtd)

        def dual(z):
            quad = dw @ dw - gtd @ weights(z)
            return 0.5 * quad + 0.5 * z * eps_n + 0.5 * nens * np.log(nens / z) - 0.5 * nens

        zs = np.linspace(1e-8, nens / eps_n, 10_000)
        f = np.array([z * (eps_n + np.sum(weights(z)**2)) - nens for z in zs])
        (rise,) = np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0)) + 1
        cell = zs[1] - zs[0]
        assert abs(res.diagnostics["dual_zeta"] - zs[rise]) <= cell
        # Newton converges in 3-5 steps on these cases
        assert res.diagnostics["solver_iterations"] <= 10
        # both costs cancel |dw|^2 down to the minimum, so each rounds at eps |dw|^2
        costs = np.array([dual(z) for z in zs])
        assert abs(res.diagnostics["cost_dual"] - costs.min()) < 1e-6 + 1e-14 * (dw @ dw)

    def test_floor_returned_when_f_nonnegative_there(self):
        # an innovation far outside the spread: f >= 0 on the whole bracket
        lam, proj, nens = np.array([0.5, 2.0, 3.0]), np.array([1e6, -2e6, 3e6]), 4
        floor = filters.ENKF_DU_ZETA_MIN
        assert dual_f(floor, lam, proj, nens) >= 0.0
        zeta, cost, steps = filters.minimize_scalar(lam, proj, np.ones(3), np.ones(3), nens)
        assert abs(zeta - floor) <= 2 * filters.ENKF_DU_STEP_RTOL * floor
        assert np.isfinite(cost) and steps < filters.ENKF_DU_MAX_STEPS

    def test_interior_root_past_a_falling_top_and_a_rounding_floor(self):
        # f falls towards the upper end (zeta > lam[1]), so Newton cannot
        # start there, and proj = 1e-3 on the null direction makes
        # f(floor) > 0; f still goes from - to + near 3.8e-4, the minimum
        lam, proj, nens = np.array([0.0, 0.35]), np.array([1e-3, 40.0]), 5
        top = nens / (1 + 1 / nens)
        assert dual_f(filters.ENKF_DU_ZETA_MIN, lam, proj, nens) > 0.0
        assert dual_f(1e-4, lam, proj, nens) < 0.0 < dual_f(top, lam, proj, nens)
        assert dual_f(0.99 * top, lam, proj, nens) > dual_f(top, lam, proj, nens)
        zeta, _, _ = filters.minimize_scalar(lam, proj, np.ones(2), np.ones(2), nens)
        assert 1e-4 < zeta < 1e-3
        assert abs(dual_f(zeta, lam, proj, nens)) < 1e-12 * nens
        assert dual_f(0.9 * zeta, lam, proj, nens) < 0.0 < dual_f(1.1 * zeta, lam, proj, nens)

    def test_non_finite_projection_raises(self):
        lam, proj = np.array([0.5, 2.0]), np.array([1.0, np.nan])
        with pytest.raises(RuntimeError, match="dual search"):
            filters.minimize_scalar(lam, proj, np.ones(2), np.ones(2), 3)

    def test_step_cap_raises(self, monkeypatch):
        ens, obs, y = instance(np.random.default_rng(85))
        assert enkf_du_analysis(ens, y, obs).diagnostics["solver_iterations"] > 1
        monkeypatch.setattr(filters, "ENKF_DU_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="dual search: no root of f after 1 steps"):
            enkf_du_analysis(ens, y, obs)

    def test_duality_gap(self):
        gen = np.random.default_rng(84)
        for _ in range(5):
            ens, obs, y = instance(gen, nstate=14, nens=5)
            primal = enkf_n_analysis(ens, y, obs)
            dual = enkf_du_analysis(ens, y, obs)
            gap = abs(primal.diagnostics["cost_primal"] - dual.diagnostics["cost_dual"])
            assert gap < 1e-4


class TestEnkfFs:
    def test_reduces_to_enkf_without_shrinkage(self):
        # k = 0 with phi forced to 0 and delta to 1 is the classic update
        gen = np.random.default_rng(86)
        ens, obs, y = instance(gen, nstate=9, nens=4)
        rng = RngStream(55)
        plain = enkf_analysis(ens, y, obs, rng)
        forced = ShrinkageCovariance(mu=1.0, gamma=0.0, deviations=deviations(ens))
        res = enkf_fs_analysis(ens, y, obs, 0, rng, shrinkage=forced)
        assert np.abs(res.analysis.matrix - plain.analysis.matrix).max() < 1e-10

    def test_matches_dense_full_space_oracle(self):
        gen = np.random.default_rng(87)
        nstate, nens, k = 12, 4, 6
        ens = random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, 0.75, 0.1)
        y = gen.standard_normal(obs.nobs)
        rng = RngStream(7)
        res = enkf_fs_analysis(ens, y, obs, k, rng)
        # rebuild every ingredient independently from the same streams
        cov = estimate_shrinkage(ens)
        perturbed = perturb_observations(y, obs, nens, rng.child(filters._OBS_STREAM))
        d = perturbed - obs.project(ens.matrix)
        # the observed-row draw, and the unobserved rows that make the
        # explicit draw's update the step's (E1_u = G M W_s^+)
        synthetic = ensemble_mean(ens)[:, None] + fs_replayed_members(ens, obs, cov, d, k, rng)
        ext = extend_ensemble(ens, synthetic)
        sdev = ext.scaled_deviations()
        bhat = cov.phi * np.eye(nstate) + cov.delta * (sdev @ sdev.T)
        h = selection_matrix(obs, nstate)
        r = np.diag(obs.variances)
        oracle = ens.matrix + bhat @ h.T @ np.linalg.solve(r + h @ bhat @ h.T, d)
        assert np.abs(res.analysis.matrix - oracle).max() < 1e-9

    def test_distribution_matches_explicit_draw(self):
        # FS draws only the observed rows of the synthetic members and the
        # unobserved rows' term from its own normal block; the explicit-draw
        # reference draws every row. With D fixed, the analyses' means, second
        # moments and member cross-moments (raw moments of the increments
        # A - X_b over all 60 entries and their 1830 pairs) agree over 3000
        # draws a side. A Welch t of 5.5 has a normal tail of 3.8e-8, so the
        # 1890 statistics exceed it by chance with probability below 1e-4
        # (union bound), whatever the stream; a square root 10% too large
        # reads about 7 here, and one that ignores the cross-member terms 19.
        gen = np.random.default_rng(98)
        nstate, nens, k, draws = 12, 5, 30, 3000
        ens = random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, 0.5, 0.1)
        y = gen.standard_normal(obs.nobs)
        d = 0.3 * gen.standard_normal((obs.nobs, nens))
        explicit = np.array([enkf_fs_explicit(ens, y, obs, k, RngStream(seed), innovations=d)
                             for seed in range(draws)])
        fs = np.array([enkf_fs_analysis(ens, y, obs, k, RngStream(draws + seed),
                                        innovations=d).analysis.matrix
                       for seed in range(draws)])
        upper = np.triu_indices(nstate * nens)

        def statistics(analyses):
            inc = (analyses - ens.matrix).reshape(draws, -1)
            return np.hstack([inc, (inc[:, :, None] * inc[:, None, :])[:, upper[0], upper[1]]])

        a, b = statistics(explicit), statistics(fs)
        t = (a.mean(0) - b.mean(0)) / np.sqrt((a.var(0, ddof=1) + b.var(0, ddof=1)) / draws)
        assert t.size == 60 + 1830
        assert np.abs(t).max() < 5.5

    @pytest.mark.parametrize("p, k", [(1.0, 6), (0.5, 0)])
    def test_nothing_extra_drawn_when_every_row_observed_or_k_zero(self, monkeypatch, p, k):
        # with no unobserved row, or no synthetic member, the step draws the
        # normals of the explicit draw and no others, and updates as it does
        gen = np.random.default_rng(99)
        ens = random_ensemble(gen, 12, 4)
        obs = ObservationSpec.from_fraction(12, p, 0.1)
        y = gen.standard_normal(obs.nobs)
        counted = []

        def counting(gen, size):
            counted.append(size)
            return gen.standard_normal(size)

        monkeypatch.setattr(sampling, "standard_normal", counting)
        fs = enkf_fs_analysis(ens, y, obs, k, RngStream(8)).analysis.matrix
        fs_normals, counted[:] = sum(counted), []
        explicit = enkf_fs_explicit(ens, y, obs, k, RngStream(8))
        assert fs_normals == sum(counted) == k * (12 + 4) + 4 * obs.nobs
        assert np.abs(fs - explicit).max() <= 1e-12 * np.abs(explicit).max()

    def test_zero_innovation_and_full_span_checks(self):
        # the property-suite checks at FS's edges, as they stand: zero
        # innovations leave the members bit for bit (tolerance 0, with
        # unobserved rows and synthetic members), and at k = 0 FS is the
        # Kalman update with prior phi I + delta S S.T
        gen = np.random.default_rng(95)
        ens, obs, y = validation._filter_instance(gen)
        for check in (validation._zero_innovation_check(ens, obs, y),
                      validation._rs_fs_span_check(gen)):
            assert check.passed, check.detail

    def test_requires_three_members(self):
        gen = np.random.default_rng(89)
        ens, obs, y = instance(gen, nens=2)
        with pytest.raises(ValueError, match="too few members"):
            enkf_fs_analysis(ens, y, obs, 2, RngStream(1))


class TestEnkfRs:
    def test_matches_dense_normal_equations(self):
        # the step draws only what its system and update read of the
        # synthetic members; the replay builds members whose explicit
        # update, from the dense normal equations, is the step's
        gen = np.random.default_rng(91)
        nstate, nens, k = 12, 4, 6
        ens = random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, 0.75, 0.1)
        y = gen.standard_normal(obs.nobs)
        rng = RngStream(21)
        res = enkf_rs_analysis(ens, y, obs, k, rng)
        cov = estimate_shrinkage(ens)
        perturbed = perturb_observations(y, obs, nens, rng.child(filters._OBS_STREAM))
        d = perturbed - obs.project(ens.matrix)
        synthetic = rs_replayed_members(ens, obs, cov, d, k, rng)
        oracle, _ = dense_rs_analysis(ens, obs, cov, d, synthetic)
        assert np.abs(res.analysis.matrix - oracle).max() < 1e-8

    # shapes (nstate, p, nens, k) that reach each branch of the tall step:
    # a Bartlett root (observed nu 19 >= k 8) beside an explicit one
    # (unobserved nu 4), explicit roots only, a group with nu = 0 (7 observed
    # rows, rank 7), and two observed variances (three groups)
    @pytest.mark.parametrize("nstate, p, nens, k, two_variances", [
        (30, 0.8, 3, 8, False), (20, 0.5, 4, 12, False), (14, 0.5, 4, 6, False),
        (16, 0.75, 3, 10, True)], ids=["bartlett", "explicit-root", "nu-zero", "two-variances"])
    def test_distribution_matches_explicit_draw(self, nstate, p, nens, k, two_variances):
        # the explicit-draw reference draws every row of every synthetic
        # member; the step draws their exact sufficient statistics group by
        # group. With D fixed, the analyses' means, second moments and
        # member cross-moments (raw moments of the increments A - X_b over
        # all entries and their pairs) agree over 3000 draws a side, by the
        # Welch t bound of TestEnkfFs::test_distribution_matches_explicit_draw
        # (5.5, below 1e-4 by chance for up to 4185 statistics). The step
        # without its frame term reads far beyond it.
        gen = np.random.default_rng(101)
        draws = 3000
        ens = random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, p, 0.1)
        if two_variances:
            obs = ObservationSpec(nstate, obs.indices, np.where(np.arange(obs.nobs) % 2, 0.01, 0.04))
        y = gen.standard_normal(obs.nobs)
        d = 0.3 * gen.standard_normal((obs.nobs, nens))
        explicit = np.array([enkf_rs_explicit(ens, y, obs, k, RngStream(seed), innovations=d)
                             for seed in range(draws)])
        rs = np.array([enkf_rs_analysis(ens, y, obs, k, RngStream(draws + seed),
                                        innovations=d).analysis.matrix
                       for seed in range(draws)])
        upper = np.triu_indices(nstate * nens)

        def statistics(analyses):
            inc = (analyses - ens.matrix).reshape(draws, -1)
            return np.hstack([inc, (inc[:, :, None] * inc[:, None, :])[:, upper[0], upper[1]]])

        a, b = statistics(explicit), statistics(rs)
        t = (a.mean(0) - b.mean(0)) / np.sqrt((a.var(0, ddof=1) + b.var(0, ddof=1)) / draws)
        assert np.abs(t).max() < 5.5

    # wide shapes (nstate, nens, k, p), nens + k - 1 > nstate: partly and
    # fully observed with draws, and a real span that alone is wide at k = 0
    @pytest.mark.parametrize("nstate, nens, k, p", [
        (12, 5, 20, 0.75), (10, 6, 8, 1.0), (6, 9, 0, 0.5)],
        ids=["partly-observed", "fully-observed", "real-span"])
    def test_full_span_is_fs_at_k_zero(self, nstate, nens, k, p):
        # the extended anomalies span the state, so RS is the Kalman update
        # with prior Bhat whatever it would draw: FS's step at k = 0 from the
        # same stream, to rounding (RS inverts the information form by
        # Woodbury, FS the observation-space system), with its diagnostics
        gen = np.random.default_rng(102)
        ens, obs, y = instance(gen, nstate=nstate, nens=nens, p=p)
        for seed in (3, 4):
            rs = enkf_rs_analysis(ens, y, obs, k, RngStream(seed))
            fs = enkf_fs_analysis(ens, y, obs, 0, RngStream(seed))
            increment = np.abs(fs.analysis.matrix - ens.matrix).max()
            assert np.abs(rs.analysis.matrix - fs.analysis.matrix).max() <= 1e-13 * increment
            assert rs.diagnostics == fs.diagnostics

    def test_projection_identity_two_ways(self):
        for nstate in (12, 1100):
            self._check_projection_identity(nstate)

    @staticmethod
    def _check_projection_identity(nstate):
        gen = np.random.default_rng(92)
        nens, k = 4, 6
        ens = random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, 0.75, 0.1)
        d = gen.standard_normal((obs.nobs, nens))
        cov = estimate_shrinkage(ens)
        synthetic = ensemble_mean(ens)[:, None] + draw_synthetic_members(cov, k, RngStream(4))
        ext = extend_ensemble(ens, synthetic)
        h = selection_matrix(obs, nstate)
        data_term = h.T @ np.diag(1.0 / obs.variances) @ h
        # the tall basis with the estimate, the same basis with gamma = 1
        # (delta = 0, Bhat = mu I), and U = I, each in state coordinates:
        # one row per state row. RS at full span has U = I but inverts its
        # W without forming it; here the system's Woodbury algebra must
        # give Bhat^{-1} itself
        unshrunk = ShrinkageCovariance(mu=cov.mu, gamma=1.0, deviations=cov.deviations)
        for case, u in ((cov, ext.anomalies()), (unshrunk, ext.anomalies()),
                        (cov, np.eye(nstate))):
            scale = np.sqrt(h.T @ (1.0 / obs.variances) + 1.0 / case.phi)
            w_fast, rhs = enkf_rs_system(case, scale[:, None] * u, case.deviations.columns.T @ u,
                                         h.T @ (d / obs.variances[:, None]) / scale[:, None])
            np.testing.assert_array_equal(w_fast, w_fast.T)
            # Q.T R^{-1} D with the dense Q = H U, to rounding: the step
            # sums it from weighted rows of U and data divided by the weights
            rhs_dense = (h @ u).T @ (d / obs.variances[:, None])
            assert np.abs(rhs - rhs_dense).max() <= 1e-13 * np.abs(rhs_dense).max()
            # dense evaluation of the projected weighted covariance
            s = case.deviations.columns
            bhat = case.phi * np.eye(nstate) + case.delta * (s @ s.T)
            w_dense = u.T @ (np.linalg.inv(bhat) + data_term) @ u
            assert np.abs(w_fast - w_dense).max() < 1e-8 * max(1.0, np.abs(w_dense).max())
        # with U = I the shrinkage part is the Woodbury inverse of Bhat itself
        inverse = w_fast - data_term
        np.testing.assert_allclose(inverse, np.linalg.solve(bhat, np.eye(nstate)),
                                   rtol=0, atol=1e-10 * np.abs(inverse).max())
        np.testing.assert_allclose(bhat @ inverse, np.eye(nstate), rtol=0, atol=1e-9)

    def test_condition_estimate_reported(self):
        gen = np.random.default_rng(94)
        ens, obs, y = instance(gen, nens=4)
        res = enkf_rs_analysis(ens, y, obs, 3, RngStream(5))
        assert res.diagnostics["condition_estimate"] >= 1.0
        # tall (nens + k - 1 <= nstate): the basis is the extended anomalies
        # without the first real one, here with the replayed synthetic
        # members, and the Cholesky pivot ratio bounds the condition number
        # of its weight matrix from below
        cov = estimate_shrinkage(ens)
        rng = RngStream(5)
        d = perturb_observations(y, obs, ens.nens, rng.child(filters._OBS_STREAM)) - obs.project(ens.matrix)
        synthetic = rs_replayed_members(ens, obs, cov, d, 3, rng)
        basis = np.hstack([ens.matrix - ensemble_mean(ens)[:, None], synthetic])[:, 1:]
        ht = selection_matrix(obs, ens.nstate).T
        scale = np.sqrt(ht @ (1.0 / obs.variances) + 1.0 / cov.phi)
        w_ens, _ = enkf_rs_system(cov, scale[:, None] * basis, cov.deviations.columns.T @ basis,
                                  np.zeros((ens.nstate, ens.nens)))
        assert res.diagnostics["condition_estimate"] <= np.linalg.cond(w_ens)

    def test_zero_basis_rank_deficient_error(self):
        # identical members with a forced shrinkage leave an all-zero basis
        v = np.arange(6.0)
        ens = Ensemble(np.column_stack([v, v, v, v]))
        obs = ObservationSpec.from_fraction(6, 0.5, 0.1)
        forced = ShrinkageCovariance(mu=1.0, gamma=1.0, deviations=deviations(ens))
        with pytest.raises(ValueError, match="rank-deficient ensemble space"):
            enkf_rs_analysis(ens, obs.project(v), obs, 0, RngStream(2),
                             shrinkage=forced)

    def test_zero_phi_rejected(self):
        # gamma = 0 leaves Bhat = S S.T singular, so Bhat^{-1} does not exist
        gen = np.random.default_rng(95)
        ens, obs, y = instance(gen, nens=4)
        forced = ShrinkageCovariance(mu=1.0, gamma=0.0, deviations=deviations(ens))
        with pytest.raises(ValueError, match="invalid shrinkage parameters"):
            enkf_rs_analysis(ens, y, obs, 2, RngStream(3), shrinkage=forced)


@pytest.mark.parametrize("p", [0.7], ids=["fs-observed-rows"])
def test_synthetic_members_drawn_centred_into_a_column_major_buffer(p):
    # the full-space prologue writes the observed rows of the real anomalies
    # sqrt(nens - 1) S from the estimate's deviations S, then draws the
    # synthetic deviations straight into the column-major buffer of
    # extended anomalies, bit for bit the draw into a column-major array of
    # their own. k = 130 makes three chunks
    gen = np.random.default_rng(100)
    nstate, nens, k = 200, 10, 130
    ens = Ensemble(50.0 + random_ensemble(gen, nstate, nens).matrix)
    obs = ObservationSpec.from_fraction(nstate, p, 0.1)
    y = obs.project(ens.matrix[:, 0])
    rng = RngStream(12)
    cov, _, extended, _ = filters._shrinkage_prologue(ens, y, obs, k, rng, None, None)
    s = cov.deviations.columns[obs.indices]
    assert extended.flags.f_contiguous and extended.shape == (s.shape[0], nens + k)
    np.testing.assert_array_equal(extended[:, :nens], np.sqrt(nens - 1) * s)
    synthetic = extended[:, nens:]
    np.testing.assert_array_equal(
        synthetic, draw_synthetic_members(cov, k, rng.child(filters._SYNTH_STREAM),
                                          rows=obs.indices,
                                          out=np.empty(synthetic.shape, order="F")))


@pytest.mark.parametrize("step", [enkf_fs_analysis, enkf_rs_analysis])
def test_non_finite_synthetic_members_refused(step):
    # deviations near the float range overflow S @ eps2, and FS's draw checks
    # each chunk as it is written, before the chunk enters a product. With
    # the huge deviations on the unobserved rows alone, FS draws finite
    # observed rows, and the overflow is in the S term of its unobserved
    # rows, which it checks the same way before the update. RS overflows in
    # the synthetic columns of its compressed rows, sqrt(delta) (B.T S) E2,
    # and checks them before they enter its system
    gen = np.random.default_rng(97)
    ens, obs, y = instance(gen, nens=4)
    huge = np.tile([1.5e308, -1.5e308, 1.5e308, -1.5e308], (ens.nstate, 1))
    huge_unobserved = huge.copy()
    huge_unobserved[obs.indices] = deviations(ens).columns[obs.indices]
    rs = step is enkf_rs_analysis
    for columns, raised_in in ((huge, "_rs_compressed_rows" if rs else "draw_synthetic_members"),
                               (huge_unobserved, "_rs_compressed_rows" if rs else "enkf_fs_analysis")):
        with np.errstate(over="ignore", invalid="ignore"):
            forced = ShrinkageCovariance(mu=1.0, gamma=0.5, deviations=DeviationMatrix(columns))
            with pytest.raises(ValueError, match="synthetic members contain non-finite entries") as exc:
                step(ens, y, obs, 3, RngStream(4), shrinkage=forced)
        assert exc.traceback[-1].name == raised_in


@pytest.mark.parametrize("step", [enkf_fs_analysis, enkf_rs_analysis])
def test_shrinkage_filters_require_a_stream(step):
    # injected innovations skip observation perturbation, but the synthetic
    # draws still need a stream; there is no default seed
    gen = np.random.default_rng(96)
    ens, obs, y = instance(gen, nens=5)
    with pytest.raises(ValueError, match="random stream is required"):
        step(ens, y, obs, 4, None, innovations=np.zeros((obs.nobs, ens.nens)))


@pytest.mark.parametrize("k", [-1, -10])
@pytest.mark.parametrize("step", [enkf_fs_analysis, enkf_rs_analysis])
def test_negative_k_refused(step, k):
    # refused before the extended-anomaly buffer is sized from nens + k,
    # which would otherwise fail in numpy without naming k
    gen = np.random.default_rng(98)
    ens, obs, y = instance(gen, nstate=20, nens=5, p=0.5)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        step(ens, y, obs, k, RngStream(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("key", FILTER_KEYS)
def test_non_finite_observations_refused(key, bad):
    # refused with the inputs, before a later layer fails on them under
    # its own name
    gen = np.random.default_rng(103)
    ens, obs, y = instance(gen, nstate=20, nens=5, p=0.5)
    y[1] = bad
    with pytest.raises(ValueError, match="observation vector contains non-finite entries"):
        run_filter(key, ens, y, obs, RngStream(4), synthetic_members=4)


class TestRegistryAndInvariants:
    def test_unknown_key(self):
        gen = np.random.default_rng(97)
        ens, obs, y = instance(gen)
        with pytest.raises(ValueError, match="unknown filter key"):
            run_filter("enkf-xyz", ens, y, obs)
