"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line with the measured
quantities so a full run documents the evidence. The twin-experiment
criteria run the real qg-33 benchmark and take a few minutes.
"""

import time

import numpy as np
import pytest

from shrinkda import filters, validation
from shrinkda.ensemble import dense_sample_covariance, deviations, ensemble_mean
from shrinkda.filters import (enkf_du_analysis, enkf_fs_analysis, enkf_n_analysis,
                              enkf_rs_analysis, ensrf_analysis, entkf_analysis,
                              estimate_shrinkage)
from shrinkda.harness import ExperimentConfig, compare_filters, configs_for_filters
from shrinkda.models import QgGrid, arakawa_jacobian, laplacian, pad, poisson_solve, rk4_step
from shrinkda.observations import ObservationSpec
from shrinkda.sampling import (RngStream, draw_synthetic_members, extend_ensemble,
                               perturb_observations)
from shrinkda.shrinkage import (ShrinkageCovariance, deviation_singular_values,
                                rblw_parameters)
from shrinkda.solvers import ObservationSpaceSystem

from helpers import (dense_rs_analysis, ismf_z, random_ensemble, rs_replayed_members,
                     selection_matrix)


def report(name, detail):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_shrinkage_oracle_equivalence():
    started = time.perf_counter()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        nens = int(gen.integers(3, 41))
        nstate = int(gen.integers(nens + 1, 301))
        ens = random_ensemble(gen, nstate, nens)
        svals = deviation_singular_values(deviations(ens))
        mu, gamma = rblw_parameters(svals, nstate, nens)
        cov = dense_sample_covariance(ens)
        t1 = np.trace(cov)
        t2 = np.trace(cov @ cov)
        mu_oracle = t1 / nstate
        gamma_oracle = min(((nens - 2) / nstate * t2 + t1**2)
                           / ((nens + 2) * (t2 - t1**2 / nstate)), 1.0)
        worst = max(worst, abs(mu - mu_oracle) / mu_oracle,
                    abs(gamma - gamma_oracle) / gamma_oracle)
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    assert elapsed < 10.0
    report("1 shrinkage-oracle equivalence",
           f"worst relative error {worst:.2e} over 50 ensembles in {elapsed:.1f}s")


def test_criterion_2_sampling_identity():
    started = time.perf_counter()
    gen = np.random.default_rng(1002)
    nstate, nens, k = 20, 5, 200_000
    devs = deviations(random_ensemble(gen, nstate, nens))
    cov = ShrinkageCovariance(mu=1.0, gamma=0.3, deviations=devs)
    draws = draw_synthetic_members(cov, k, RngStream(42))
    s = devs.columns
    dense = cov.phi * np.eye(nstate) + cov.delta * (s @ s.T)
    frob = np.linalg.norm(np.cov(draws) - dense) / np.linalg.norm(dense)
    elapsed = time.perf_counter() - started
    assert frob < 0.03
    assert elapsed < 30.0
    report("2 sampling identity",
           f"relative Frobenius error {frob:.4f} over {k} draws in {elapsed:.1f}s")


def test_criterion_3_solver_equivalence():
    started = time.perf_counter()
    gen = np.random.default_rng(1003)
    worst_diff = 0.0
    worst_resid = 0.0
    for case in range(100):
        nobs = 2000 if case < 3 else int(np.exp(gen.uniform(np.log(30), np.log(1200))))
        m = 100 if case < 3 else int(gen.integers(1, 101))
        var = gen.uniform(0.5, 2.0, nobs)
        gamma = np.diag(var)
        pi = gen.standard_normal((nobs, m))
        rhs = gen.standard_normal((nobs, 3))
        z = ismf_z(ObservationSpaceSystem(var, pi, rhs))
        dense = np.linalg.solve(gamma + pi @ pi.T, rhs)
        worst_diff = max(worst_diff,
                         np.linalg.norm(z - dense) / np.linalg.norm(dense))
        worst_resid = max(worst_resid,
                          np.linalg.norm((gamma + pi @ pi.T) @ z - rhs)
                          / np.linalg.norm(rhs))
    elapsed = time.perf_counter() - started
    assert worst_diff < 1e-10
    assert worst_resid < 1e-10
    assert elapsed < 60.0
    report("3 solver equivalence",
           f"worst relative difference {worst_diff:.2e}, residual {worst_resid:.2e}, "
           f"100 systems in {elapsed:.1f}s")


def test_criterion_4_filter_cross_checks():
    gen = np.random.default_rng(1004)

    # square-root pair agrees in mean and covariance
    ens = random_ensemble(gen, 20, 7)
    obs = ObservationSpec.from_fraction(20, 0.7, 0.1)
    y = gen.standard_normal(obs.nobs)
    a = ensrf_analysis(ens, y, obs).analysis
    b = entkf_analysis(ens, y, obs).analysis
    mean_gap = np.abs(ensemble_mean(a) - ensemble_mean(b)).max()
    cov_gap = np.abs(dense_sample_covariance(a) - dense_sample_covariance(b)).max()
    assert mean_gap < 1e-8 and cov_gap < 1e-8

    # full-space filter against the dense extended-covariance oracle
    nstate, nens, k = 12, 4, 6
    ens = random_ensemble(gen, nstate, nens)
    obs = ObservationSpec.from_fraction(nstate, 0.75, 0.1)
    y = gen.standard_normal(obs.nobs)
    rng = RngStream(77)
    fs = enkf_fs_analysis(ens, y, obs, k, rng).analysis.matrix
    cov = estimate_shrinkage(ens)
    d = perturb_observations(y, obs, nens, rng.child(filters._OBS_STREAM)) - obs.project(ens.matrix)
    # FS draws only the observed rows; its unobserved rows are those of the
    # explicit draw with the implied block E1_u = G M W_s^+
    fs_syn = validation.fs_replayed_members(ens, obs, cov, d, k, rng)
    sdev = extend_ensemble(ens, ensemble_mean(ens)[:, None] + fs_syn).scaled_deviations()
    bhat = cov.phi * np.eye(nstate) + cov.delta * (sdev @ sdev.T)
    h = selection_matrix(obs, nstate)
    r = np.diag(obs.variances)
    fs_oracle = ens.matrix + bhat @ h.T @ np.linalg.solve(r + h @ bhat @ h.T, d)
    fs_gap = np.abs(fs - fs_oracle).max()
    assert fs_gap < 1e-9

    # reduced-space filter against the dense normal equations; RS draws only
    # what its system and update read of the synthetic members, and the
    # replay builds members whose explicit update is the step's
    rs = enkf_rs_analysis(ens, y, obs, k, rng).analysis.matrix
    rs_oracle, _ = dense_rs_analysis(ens, obs, cov, d, rs_replayed_members(ens, obs, cov, d, k, rng))
    rs_gap = np.abs(rs - rs_oracle).max()
    assert rs_gap < 1e-8

    # strong duality between the primal and dual inflation-free filters
    worst_gap = 0.0
    for _ in range(5):
        ens = random_ensemble(gen, 14, 5)
        obs = ObservationSpec.from_fraction(14, 0.7, 0.1)
        y = gen.standard_normal(obs.nobs)
        primal = enkf_n_analysis(ens, y, obs).diagnostics["cost_primal"]
        dual = enkf_du_analysis(ens, y, obs).diagnostics["cost_dual"]
        worst_gap = max(worst_gap, abs(primal - dual))
    assert worst_gap < 1e-4
    report("4 filter cross-checks",
           f"ensrf/entkf gaps {mean_gap:.2e}/{cov_gap:.2e}, fs oracle {fs_gap:.2e}, "
           f"rs oracle {rs_gap:.2e}, duality gap {worst_gap:.2e}")


def test_criterion_5_model_physics():
    gen = np.random.default_rng(1005)
    grid = QgGrid(17)
    psi = np.zeros((17, 17))
    omega = np.zeros((17, 17))
    psi[1:-1, 1:-1] = gen.standard_normal((15, 15))
    omega[1:-1, 1:-1] = gen.standard_normal((15, 15))
    jac = arakawa_jacobian(pad(psi), pad(omega), grid)
    scale = np.abs(jac).max() * grid.nstate
    full_psi = gen.standard_normal((17, 17))
    full_omega = gen.standard_normal((17, 17))
    full_jac = arakawa_jacobian(pad(full_psi), pad(full_omega), grid)
    full_scale = np.abs(full_jac).max() * grid.nstate
    sums = (abs(jac.sum()) / scale,
            abs((full_psi * full_jac).sum()) / full_scale,
            abs((full_omega * full_jac).sum()) / full_scale)
    assert max(sums) < 1e-10

    x = grid.x[:, None]
    ygrid = grid.x[None, :]
    psi_exact = np.sin(np.pi * x) * np.sin(np.pi * ygrid)
    recovered = poisson_solve(laplacian(pad(psi_exact), grid), grid)
    poisson_gap = np.abs(recovered - psi_exact).max()
    assert poisson_gap < 1e-10

    def err(dt):
        state = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            state = rk4_step(lambda s: -s, state, dt)
        return abs(state[0] - np.exp(-1.0))

    ratio = err(0.1) / err(0.05)
    assert 14.0 <= ratio <= 18.0
    report("5 model physics",
           f"conservation sums {max(sums):.2e}, poisson inverse {poisson_gap:.2e}, "
           f"rk4 ratio {ratio:.2f}")


@pytest.fixture(scope="module")
def table_trend_rows():
    base = ExperimentConfig(model="qg-33", filter="enkf", nens=40, p=0.7,
                            sigma_b=0.05, n_cycles=100, rng_seed=2027,
                            synthetic_ratio=10.0)
    keys = ["enkf", "ensrf", "entkf", "enkf-n", "enkf-du", "enkf-fs", "enkf-rs"]
    started = time.perf_counter()
    rows = compare_filters(configs_for_filters(base, keys))
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_6_table_trends(table_trend_rows):
    rows, elapsed = table_trend_rows
    values = {name: value for name, value, _ in rows}
    ratio = values["enkf-fs"] / values["enkf"]
    sq_gap = abs(values["ensrf"] - values["entkf"])
    lines = "  ".join(f"{name}={value:.4f}" for name, value, _ in rows)
    assert ratio <= 0.75, f"FS/EnKF ratio {ratio:.3f} exceeds 0.75 ({lines})"
    assert values["enkf-rs"] <= values["enkf"], lines
    assert sq_gap <= 1e-6, f"EnSRF vs EnTKF gap {sq_gap:.2e}"
    report("6 table trends",
           f"{lines}; FS/EnKF {ratio:.3f}, square-root gap {sq_gap:.2e}, "
           f"runtime {elapsed:.0f}s (target 600s)")


def test_criterion_7_synthetic_member_effect():
    started = time.perf_counter()
    with_synthetics = []
    without = []
    for seed in (101, 202, 303):
        for ratio, bucket in ((0.0, without), (10.0, with_synthetics)):
            cfg = ExperimentConfig(model="qg-33", filter="enkf-rs", nens=10,
                                   p=0.7, sigma_b=0.05, n_cycles=100,
                                   rng_seed=seed, synthetic_ratio=ratio)
            rows = compare_filters([cfg])
            bucket.append(rows[0][1])
    elapsed = time.perf_counter() - started
    mean_with = float(np.mean(with_synthetics))
    mean_without = float(np.mean(without))
    assert mean_with < mean_without, (with_synthetics, without)
    report("7 synthetic-member effect",
           f"RS mean RMSE C=10: {mean_with:.4f} < C=0: {mean_without:.4f} "
           f"over 3 seeds, runtime {elapsed:.0f}s (target 600s)")


def test_criterion_8_property_suite_green():
    results = validation.run_all()
    failures = [r for r in results if not r.passed]
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"  {status} {res.name} - {res.detail}")
    assert not failures, [f.name for f in failures]
    report("8 property suite", f"{len(results)}/{len(results)} checks green")
