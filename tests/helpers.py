"""Shared construction helpers for the test suite."""

import numpy as np

from shrinkda import filters
from shrinkda.ensemble import Ensemble, ensemble_mean
from shrinkda.filters import enkf_rs_system, estimate_shrinkage
from shrinkda.sampling import (draw_synthetic_members, extend_ensemble, normal_block,
                               perturb_observations)
from shrinkda.solvers import ObservationSpaceSystem, cholesky_solve, ismf_solve
from shrinkda.validation import (orthonormal_complement, replayed_complements, replayed_roots,
                                 replayed_synthetic)


def random_ensemble(gen, nstate, nens, spread=1.0):
    base = gen.standard_normal(nstate)
    return Ensemble(base[:, None] + spread * gen.standard_normal((nstate, nens)))


def selection_matrix(obs, nstate):
    """Dense observation operator H for oracle computations."""
    h = np.zeros((obs.nobs, nstate))
    h[np.arange(obs.nobs), obs.indices] = 1.0
    return h


def enkf_n_hessian(w, q, rinv, nens):
    """Dense Hessian of the primal finite-size cost ``filters.enkf_n_cost``
    at ensemble-space weights w."""
    a = 1.0 + 1.0 / nens + w @ w
    return (q.T * rinv) @ q + nens * (a * np.eye(w.shape[0]) - 2.0 * np.outer(w, w)) / a**2


def ismf_loop(sys):
    """The paper's iterative Sherman-Morrison formula, one column at a time.

    Solves the ``ObservationSpaceSystem`` (Gamma + Pi @ Pi.T) @ Z = rhs
    from Z = Gamma^{-1} rhs and U = Gamma^{-1} Pi by folding in each column
    of Pi as a rank-one update; the paper-faithful reference for
    ``ismf_solve``.
    """
    z = sys.rhs / sys.gamma_diagonal[:, None]
    u = sys.pi / sys.gamma_diagonal[:, None]
    m = sys.pi.shape[1]
    for k in range(m):
        v_k = sys.pi[:, k]
        h = u[:, k] / (1.0 + v_k @ u[:, k])
        z -= np.outer(h, v_k @ z)
        # columns up to k are never read again
        if k + 1 < m:
            u[:, k + 1:] -= np.outer(h, v_k @ u[:, k + 1:])
    return z


def ismf_z(sys):
    """Z = Gamma^{-1} (rhs - Pi @ W) from the W = Pi.T @ Z of ``ismf_solve``
    (Woodbury): the solution of the ``ObservationSpaceSystem`` itself."""
    return (sys.rhs - sys.pi @ ismf_solve(sys)) / sys.gamma_diagonal[:, None]


def enkf_fs_explicit(bg, y, obs, k, rng, *, shrinkage=None, innovations=None):
    """The full-space step with every row of the synthetic members drawn:
    the reference for ``filters.enkf_fs_analysis``, which draws only their
    observed rows and builds the unobserved rows in closed form.

    Same substreams for the perturbed observations and the draws, and the
    same arguments; returns the analysis matrix. The two analyses have one
    distribution. Their bits differ unless every row is observed or k = 0,
    where the two steps draw the same normals.
    """
    cov, d = _shrinkage_innovations(bg, y, obs, rng, shrinkage, innovations)
    draws = draw_synthetic_members(cov, k, rng.child(filters._SYNTH_STREAM))
    synthetic = ensemble_mean(bg)[:, None] + draws
    basis = np.sqrt(cov.delta) * extend_ensemble(bg, synthetic).scaled_deviations()
    system = ObservationSpaceSystem(obs.variances + cov.phi, obs.project(basis), d)
    w = ismf_solve(system)
    z = (system.rhs - system.pi @ w) / system.gamma_diagonal[:, None]
    return bg.matrix + basis @ w + cov.phi * (selection_matrix(obs, bg.nstate).T @ z)


def _shrinkage_innovations(bg, y, obs, rng, shrinkage, innovations):
    cov = shrinkage if shrinkage is not None else estimate_shrinkage(bg)
    if innovations is None:
        perturbed = perturb_observations(y, obs, bg.nens, rng.child(filters._OBS_STREAM))
        return cov, perturbed - obs.project(bg.matrix)
    return cov, np.asarray(innovations, dtype=float)


def increment_moment_t(background, first, second):
    """Welch t statistics between two stacks of analyses, (draws, nstate,
    nens) each with the same draw count, of the raw moments of their
    increments A - X_b: every entry, and the product of every pair of
    entries, the squares included. The pair moments and their variances
    come from Grams of the increments and of their squares, so the draws'
    products are never stacked."""
    def moments(analyses):
        inc = (analyses - background).reshape(analyses.shape[0], -1)
        n, upper = inc.shape[0], np.triu_indices(inc.shape[1])
        sq = inc**2
        mean = np.concatenate([inc.mean(0), (inc.T @ inc / n)[upper]])
        raw2 = np.concatenate([sq.mean(0), (sq.T @ sq / n)[upper]])
        return mean, (raw2 - mean**2) * n / (n - 1), n

    (mean_a, var_a, n), (mean_b, var_b, _) = moments(first), moments(second)
    return (mean_a - mean_b) / np.sqrt((var_a + var_b) / n)


def enkf_rs_explicit(bg, y, obs, k, rng, *, shrinkage=None, innovations=None):
    """The tall reduced-space step with every row of the synthetic members
    drawn: the reference for ``filters.enkf_rs_analysis``, which draws only
    what its weight matrix, data and update read of them.

    The basis U is the extended anomalies without the first real one, in
    state coordinates; same substreams for the perturbed observations and
    the draws, and the same arguments. Returns the analysis matrix, which
    has the distribution of the step's, not its bits.
    """
    cov, d = _shrinkage_innovations(bg, y, obs, rng, shrinkage, innovations)
    draws = draw_synthetic_members(cov, k, rng.child(filters._SYNTH_STREAM))
    basis = extend_ensemble(bg, ensemble_mean(bg)[:, None] + draws).anomalies()[:, 1:]
    ht = selection_matrix(obs, bg.nstate).T
    scale = np.sqrt(ht @ (1.0 / obs.variances) + 1.0 / cov.phi)
    w_ens, rhs = enkf_rs_system(cov, scale[:, None] * basis, cov.deviations.columns.T @ basis,
                                ht @ (d / obs.variances[:, None]) / scale[:, None])
    lam, _ = cholesky_solve(w_ens, rhs, "weight matrix is not positive definite")
    return bg.matrix + basis @ lam


def dense_rs_analysis(bg, obs, cov, d, synthetic):
    """X^b + U lambda from the dense normal equations
    (U.T Bhat^{-1} U + Q.T R^{-1} Q) lambda = Q.T R^{-1} D, for U the
    anomalies of the real members and the synthetic deviations about the
    real mean, Q = H U, and Bhat = phi I + delta S S.T; lambda is the
    minimum-norm solution, as U has a null direction. Also returns
    lambda."""
    u = np.hstack([bg.matrix - ensemble_mean(bg)[:, None], synthetic])
    s = cov.deviations.columns
    bhat = cov.phi * np.eye(bg.nstate) + cov.delta * (s @ s.T)
    q = obs.project(u)
    w = u.T @ np.linalg.solve(bhat, u) + q.T @ (q / obs.variances[:, None])
    lam = np.linalg.pinv(w) @ (q.T @ (d / obs.variances[:, None]))
    return bg.matrix + u @ lam, lam


def rs_replayed_members(bg, obs, cov, d, k, rng):
    """Synthetic deviations (nstate, k) whose dense reduced-space update
    (:func:`dense_rs_analysis`) equals the tall
    ``filters.enkf_rs_analysis(bg, ..., k, rng, shrinkage=cov,
    innovations=d)``.

    The step draws, on each row group g with basis B, the coordinates Z of
    the synthetic block E1 in B and a root R of the Gram of the rest, and
    replaces sqrt(phi) E_perp lambda_s in its update by its frame term for
    A = sqrt(phi) R lambda_s. This replays those draws from the same
    substreams as E1_g = B Z + C R, with C from
    ``validation.replayed_complements``, so that C A is the frame term.
    lambda depends on E1 only through Z and R.T R, so it comes from a first
    replay with any orthonormal C off B.
    """
    groups = filters._row_groups(obs, cov.deviations.columns, d, k, unobserved=True)
    normals = normal_block(rng.child(filters._SYNTH_STREAM),
                           sum(g.basis.shape[1] for g in groups) + bg.nens, k)
    roots = replayed_roots(rng, groups, k)
    first = replayed_synthetic(cov, groups, normals, roots,
                               [orthonormal_complement(g.basis, g.roots) for g in groups],
                               bg.nstate)
    lam_s = dense_rs_analysis(bg, obs, cov, d, first)[1][bg.nens:]
    return replayed_synthetic(cov, groups, normals, roots,
                              replayed_complements(rng, groups, roots, np.sqrt(cov.phi) * lam_s),
                              bg.nstate)


def poisson_solve_dense(omega, grid):
    """Dense solve of the 5-point Dirichlet Poisson system, the oracle for
    ``models.poisson_solve``."""
    n = grid.n
    eye = np.eye(n)
    t = (np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1.0), -1)
         - 2.0 * eye) / grid.dx**2
    operator = np.kron(t, eye) + np.kron(eye, t)
    flat = omega.reshape(grid.nstate, -1)
    return np.linalg.solve(operator, flat).reshape(omega.shape)
