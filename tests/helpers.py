"""Shared construction helpers for the test suite."""

import numpy as np

from shrinkda import filters
from shrinkda.ensemble import Ensemble, ensemble_mean
from shrinkda.filters import enkf_rs_system, estimate_shrinkage
from shrinkda.sampling import (draw_synthetic_members, extend_ensemble, haar_frame,
                               normal_block, perturb_observations, wishart_root)
from shrinkda.solvers import ObservationSpaceSystem, cholesky_solve, ismf_solve


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


def orthonormal_complement(frame, ncols):
    """ncols orthonormal columns orthogonal to the orthonormal columns of
    ``frame``: eigenvectors of the projector I - frame frame.T for its
    eigenvalue 1."""
    _, vec = np.linalg.eigh(np.eye(frame.shape[0]) - frame @ frame.T)
    return vec[:, vec.shape[1] - ncols:]


def rs_replayed_members(bg, obs, cov, d, k, rng):
    """Synthetic deviations (nstate, k) whose dense reduced-space update
    (:func:`dense_rs_analysis`) equals the tall
    ``filters.enkf_rs_analysis(bg, ..., k, rng, shrinkage=cov,
    innovations=d)``.

    The step draws, on each row group g with basis B, the coordinates Z of
    the synthetic block E1 in B and a root R of the Gram of the rest, and
    replaces sqrt(phi) E_perp lambda_s in its update by F diag(sqrt(ev))
    V.T, with (ev, V) the top eigenpairs of A.T A for A = sqrt(phi) R
    lambda_s and F a frame off B. This replays those draws from the same
    substreams and returns sqrt(phi) E1 + sqrt(delta) S E2 for
    E1_g = B Z + C R, with C = F U_r.T + G W.T orthonormal: U_r = A V / sqrt(ev)
    over the positive ev, W spans the complement of U_r, and G is a frame
    off [B, F]. Then C A = F diag(sqrt(ev)) V.T. lambda depends on E1 only
    through Z and R.T R, so it comes from a first replay with any
    orthonormal C off B.
    """
    nens = bg.nens
    s = cov.deviations.columns
    groups = filters._rs_row_groups(obs, s, d, cov.phi, k)
    ranks = sum(g.basis.shape[1] for g in groups)
    normals = normal_block(rng.child(filters._SYNTH_STREAM), ranks + nens, k)
    roots = [wishart_root(rng.child(filters._RS_ROOT_STREAM, i), g.nu, k)
             if g.roots else np.zeros((0, k)) for i, g in enumerate(groups)]

    def members(complements):
        e1, z_row = np.empty((bg.nstate, k)), 0
        for g, comp, root in zip(groups, complements, roots):
            b = g.basis.shape[1]
            e1[g.rows] = g.basis @ normals[z_row:z_row + b] + comp @ root
            z_row += b
        return np.sqrt(cov.phi) * e1 + np.sqrt(cov.delta) * (s @ normals[ranks:])

    first = members([orthonormal_complement(g.basis, g.roots) for g in groups])
    lam_s = dense_rs_analysis(bg, obs, cov, d, first)[1][nens:]
    complements = []
    for i, (g, root) in enumerate(zip(groups, roots)):
        if not g.roots:
            complements.append(np.zeros((g.rows.size, 0)))
            continue
        a = np.sqrt(cov.phi) * root @ lam_s
        ev, vec = np.linalg.eigh(a.T @ a)
        r = min(g.roots, nens)
        frame = haar_frame(rng.child(filters._RS_FRAME_STREAM, i), g.basis, r)
        positive = ev[-r:] > 1e-12 * max(ev[-1], 1e-300)
        frame, ev, vec = frame[:, positive], ev[-r:][positive], vec[:, -r:][:, positive]
        u_r = a @ vec / np.sqrt(ev)
        rest = g.roots - u_r.shape[1]
        w = orthonormal_complement(u_r, rest)
        others = orthonormal_complement(np.hstack([g.basis, frame]), rest)
        complements.append(frame @ u_r.T + others @ w.T)
    return members(complements)


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
