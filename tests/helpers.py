"""Shared construction helpers for the test suite."""

import numpy as np

from shrinkda import filters
from shrinkda.ensemble import Ensemble, ensemble_mean
from shrinkda.filters import estimate_shrinkage
from shrinkda.sampling import draw_synthetic_members, extend_ensemble, perturb_observations
from shrinkda.solvers import ObservationSpaceSystem, ismf_solve


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
    cov = shrinkage if shrinkage is not None else estimate_shrinkage(bg)
    if innovations is None:
        perturbed = perturb_observations(y, obs, bg.nens, rng.child(filters._OBS_STREAM))
        d = perturbed - obs.project(bg.matrix)
    else:
        d = np.asarray(innovations, dtype=float)
    draws = draw_synthetic_members(cov, k, rng.child(filters._SYNTH_STREAM))
    synthetic = ensemble_mean(bg)[:, None] + draws
    basis = np.sqrt(cov.delta) * extend_ensemble(bg, synthetic).scaled_deviations()
    system = ObservationSpaceSystem(obs.variances + cov.phi, obs.project(basis), d)
    w = ismf_solve(system)
    z = (system.rhs - system.pi @ w) / system.gamma_diagonal[:, None]
    return bg.matrix + basis @ w + cov.phi * obs.scatter(z)


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
