"""Analysis steps for the seven ensemble filters.

Stochastic EnKF, the square-root pair (EnSRF / ETKF), the
inflation-free primal/dual pair, and the two shrinkage-based filters that
assimilate with an extended ensemble: full-space (observation-space
weighted covariance) and reduced-space (ensemble-space weighted
covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import Ensemble, anomalies, deviations, ensemble_mean
from .observations import ObservationSpec
# extend_ensemble is not called; perfbench/twinbench.py wraps filters.extend_ensemble by name
from .sampling import (RngStream, draw_synthetic_members, extend_ensemble,  # noqa: F401
                       perturb_observations)
from .shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters
from .solvers import (ObservationSpaceSystem, cholesky_factor, cholesky_solve, ensrf_transform,
                      GRAM_ROW_BLOCK, entkf_factors, ismf_solve, triangular_solve)

FILTER_KEYS = ("enkf", "ensrf", "entkf", "enkf-n", "enkf-du", "enkf-fs", "enkf-rs")

# Substream purposes used by the stochastic filters, so that two filters
# fed the same stream draw the same perturbed observations.
_OBS_STREAM = 1
_SYNTH_STREAM = 2

# Abort threshold of the finite-size step's primal gradient, relative to
# its norm at w = 0.
ENKF_N_GRAD_TOL = 1e-8
# Bracket floor, step cap and relative step tolerance of the dual step's
# scalar search.
ENKF_DU_ZETA_MIN = 1e-8
ENKF_DU_MAX_STEPS = 100
ENKF_DU_STEP_RTOL = 1e-12


@dataclass(frozen=True)
class AnalysisResult:
    """Analysis ensemble plus per-step diagnostics.

    The analysis always has the same member count as the background; the
    synthetic members used internally by the shrinkage filters never
    appear in the output.
    """

    analysis: Ensemble
    diagnostics: dict = field(default_factory=dict)


def _check_inputs(bg: Ensemble, y: np.ndarray, obs: ObservationSpec) -> np.ndarray:
    if bg.nens < 2:
        raise ValueError("degenerate ensemble")
    if obs.nstate != bg.nstate:
        raise ValueError("observation spec does not match the state dimension")
    y = np.asarray(y, dtype=float)
    if y.shape != (obs.nobs,):
        raise ValueError("observation vector length must equal nobs")
    return y


def _require_stream(rng: RngStream | None, purpose: str) -> RngStream:
    if rng is None:
        raise ValueError(f"a random stream is required to {purpose}")
    return rng


def _innovation_matrix(bg, y, obs, rng):
    """Per-member innovations y_i^s - H x_i with perturbed observations."""
    rng = _require_stream(rng, "perturb observations")
    perturbed = perturb_observations(y, obs, bg.nens, rng.child(_OBS_STREAM))
    return perturbed - obs.project(bg.matrix)


def enkf_analysis(bg: Ensemble, y, obs: ObservationSpec,
                  rng: RngStream | None = None, *,
                  innovations: np.ndarray | None = None) -> AnalysisResult:
    """Stochastic EnKF step: each member assimilates its own perturbed data.

    The observation-space system (R + V V.T) Z = D is solved through its
    ensemble-space capacitance matrix; ``innovations`` may inject a fixed D
    for testing.
    """
    y = _check_inputs(bg, y, obs)
    s = deviations(bg).columns
    v = obs.project(s)
    d = _innovation_matrix(bg, y, obs, rng) if innovations is None else np.asarray(innovations, dtype=float)
    z = ismf_solve(ObservationSpaceSystem(obs.variances, v, d))
    analysis = bg.matrix + s @ (v.T @ z)
    return AnalysisResult(Ensemble(analysis))


def ensrf_analysis(bg: Ensemble, y, obs: ObservationSpec) -> AnalysisResult:
    """Deterministic square-root step.

    The mean moves by the standard gain; the anomalies are contracted by
    the symmetric square root of I - V.T (R + V V.T)^{-1} V.
    """
    y = _check_inputs(bg, y, obs)
    mean = ensemble_mean(bg)
    s = deviations(bg).columns
    u = anomalies(bg).columns
    v = obs.project(s)
    innovation = y - obs.project(mean)
    rhs = np.column_stack([innovation, v])
    z = ismf_solve(ObservationSpaceSystem(obs.variances, v, rhs))
    mean_a = mean + s @ (v.T @ z[:, 0])
    transform = ensrf_transform(v, z[:, 1:], obs.variances)
    analysis = mean_a[:, None] + u @ transform
    return AnalysisResult(Ensemble(analysis))


def _ensemble_space_prologue(bg, y, obs):
    """Mean, anomalies U, observed anomalies Q = H U, innovation
    d0 = y - H mean and the eigen kernel :func:`entkf_factors` (lam, vec,
    proj) of the deterministic ensemble-space filters."""
    y = _check_inputs(bg, y, obs)
    mean = ensemble_mean(bg)
    u = anomalies(bg).columns
    q, d0 = obs.project(u), y - obs.project(mean)
    return (mean, u, q, d0, *entkf_factors(q, d0, obs.variances))


def _transform_analysis(mean, u, w, eigval, eigvec) -> Ensemble:
    """Members mean + U w + U sqrt(nens - 1) M^{-1/2}, for the SPD weight
    matrix M = eigvec diag(eigval) eigvec.T."""
    transform = (eigvec * np.sqrt((u.shape[1] - 1.0) / eigval)) @ eigvec.T
    mean_a = mean + u @ w
    return Ensemble(mean_a[:, None] + u @ transform)


def entkf_analysis(bg: Ensemble, y, obs: ObservationSpec) -> AnalysisResult:
    """Ensemble transform Kalman filter step (Hunt et al., 2007).

    The dual step of :func:`enkf_du_analysis` with zeta fixed at nens - 1:
    the weight matrix is (nens - 1) I + Q.T R^{-1} Q for Q = H U, taken
    from the eigen kernel :func:`entkf_factors`. Equivalent to
    :func:`ensrf_analysis`, which gets there by an observation-space solve.
    """
    mean, u, _, _, lam, vec, proj = _ensemble_space_prologue(bg, y, obs)
    eigval = lam + (bg.nens - 1.0)
    analysis = _transform_analysis(mean, u, vec @ (proj / eigval), eigval, vec)
    return AnalysisResult(analysis)


def enkf_n_cost(w, q, d0, rinv, nens):
    """Primal finite-size cost at ensemble-space weights w."""
    res = d0 - q @ w
    return 0.5 * res @ (rinv * res) + 0.5 * nens * np.log(1.0 + 1.0 / nens + w @ w)


def enkf_n_gradient(w, q, d0, rinv, nens):
    res = d0 - q @ w
    return -q.T @ (rinv * res) + nens * w / (1.0 + 1.0 / nens + w @ w)


def minimize_scalar(lam, proj, d0, r_variances, nens):
    """Minimize the dual finite-size cost over zeta in the bracket
    [``ENKF_DU_ZETA_MIN``, nens / (1 + 1/nens)], on the eigenpairs of
    :func:`entkf_factors`. Returns zeta, the dual cost there and the number
    of Newton or bisection steps. The name is the benchmark's wrap point.

    The cost's derivative is f / (2 zeta), f(zeta) = zeta (1 + 1/nens +
    |p|^2) - nens with p = proj / (lam + zeta), and f >= 0 at the upper end,
    so a root where f goes from - to + is a local minimum. Newton steps on f
    start at the upper end and shrink the sign bracket [lo, hi]; a step that
    would leave it is a bisection instead. lo starts at the floor as if f < 0
    there: when f >= 0 at every point tried, hi closes in on the floor, a
    minimum at the bracket's end, and the search returns it to the step
    tolerance. f is not evaluated at the floor, because rounding leaves the
    null direction of G.T G a tiny proj whose proj^2 / zeta can make
    f(floor) > 0 while f < 0 inside. Raises ``RuntimeError`` when f is not
    finite, as a nan or inf in proj makes it, or after ``ENKF_DU_MAX_STEPS``
    steps.
    """
    eps_n = 1.0 + 1.0 / nens

    def f_and_slope(zeta):
        p = proj / (lam + zeta)
        a = eps_n + float(p @ p)
        f = zeta * a - nens
        if not math.isfinite(f):
            raise RuntimeError(f"dual search: f({zeta:.3e}) is not finite; "
                               "check the eigenvalues and projected innovation")
        return f, a - 2.0 * zeta * float(np.sum(p**2 / (lam + zeta)))

    def result(zeta, steps):
        dw = d0 * np.sqrt(1.0 / r_variances)
        quad = float(dw @ dw) - float(np.sum(proj**2 / (zeta + lam)))
        cost = 0.5 * quad + 0.5 * zeta * eps_n + 0.5 * nens * math.log(nens / zeta) - 0.5 * nens
        return zeta, cost, steps

    lo, hi = ENKF_DU_ZETA_MIN, nens / eps_n
    zeta = hi
    for steps in range(1, ENKF_DU_MAX_STEPS + 1):
        f, slope = f_and_slope(zeta)
        if f == 0.0:
            return result(zeta, steps)
        if f < 0.0:
            lo = zeta
        else:
            hi = zeta
        if slope > 0.0 and lo < zeta - f / slope < hi:
            new = zeta - f / slope
        else:
            new = 0.5 * (lo + hi)
        step, zeta = new - zeta, new
        if abs(step) <= ENKF_DU_STEP_RTOL * zeta:
            return result(zeta, steps)
    raise RuntimeError(f"dual search: no root of f after {ENKF_DU_MAX_STEPS} steps, "
                       f"sign bracket ({lo:.3e}, {hi:.3e})")


# Not called: the traced benchmark still wraps filters.minimize by name
# until its wrap point goes (ROADMAP item 2).
def minimize(*_args, **_kwargs):
    raise NotImplementedError("shrinkda.filters.minimize is a placeholder")


def enkf_n_analysis(bg: Ensemble, y, obs: ObservationSpec) -> AnalysisResult:
    """Finite-size (primal, inflation-free) step.

    The primal cost's minimizer is the dual step's weights w = vec p, with
    p = proj / (lam + zeta), at the dual optimum zeta (Bocquet, 2011) that
    :func:`minimize_scalar` finds. The members come from the inverse primal
    Hessian at w, in the kernel's eigenbasis diag(lam + zeta) -
    (2 zeta^2 / nens) p p.T. Raises ``RuntimeError`` when the primal
    gradient at w exceeds ``ENKF_N_GRAD_TOL`` times max(1, |proj|), where
    |proj| = |Q.T R^{-1} d0| is its norm at w = 0.
    """
    mean, u, q, d0, lam, vec, proj = _ensemble_space_prologue(bg, y, obs)
    nens = bg.nens
    zeta, _, steps = minimize_scalar(lam, proj, d0, obs.variances, nens)
    p = proj / (lam + zeta)
    w = vec @ p
    args = (q, d0, 1.0 / obs.variances, nens)
    grad_norm = float(np.linalg.norm(enkf_n_gradient(w, *args)))
    if grad_norm > ENKF_N_GRAD_TOL * max(1.0, float(np.linalg.norm(proj))):
        raise RuntimeError(
            f"finite-size optimizer did not converge: gradient norm {grad_norm:.3e}, "
            f"last iterate norm {np.linalg.norm(w):.3e}")
    eigval, eigvec = np.linalg.eigh(np.diag(lam + zeta) - (2.0 * zeta**2 / nens) * np.outer(p, p))
    if eigval[0] <= 0.0:
        raise ValueError("weight matrix is not positive definite")
    analysis = _transform_analysis(mean, u, w, eigval, vec @ eigvec)
    return AnalysisResult(analysis, {"cost_primal": float(enkf_n_cost(w, *args)),
                                     "gradient_norm": grad_norm,
                                     "solver_iterations": float(steps)})


def enkf_du_analysis(bg: Ensemble, y, obs: ObservationSpec) -> AnalysisResult:
    """Dual (one-dimensional) counterpart of the finite-size step.

    zeta minimizes the dual cost by the search :func:`minimize_scalar`, which
    :func:`enkf_n_analysis` also runs; the mean and ensemble follow from the
    weight matrix Q.T R^{-1} Q + zeta I. Fixing zeta at nens - 1 gives :func:`entkf_analysis`.
    """
    mean, u, _, d0, lam, vec, proj = _ensemble_space_prologue(bg, y, obs)
    zeta, cost, steps = minimize_scalar(lam, proj, d0, obs.variances, bg.nens)

    # lam >= 0 and zeta >= ENKF_DU_ZETA_MIN > 0, so the weight matrix is SPD
    eigval = lam + zeta
    analysis = _transform_analysis(mean, u, vec @ (proj / eigval), eigval, vec)
    return AnalysisResult(analysis, {"dual_zeta": zeta, "cost_dual": cost,
                                     "solver_iterations": float(steps)})


def estimate_shrinkage(bg: Ensemble) -> ShrinkageCovariance:
    """RBLW estimate phi * I + delta * S @ S.T from the scaled deviations S.

    Kept here, not in ``shrinkage``, because per-layer timers wrap the SVD
    and RBLW steps where this module looks them up.
    """
    devs = deviations(bg)
    svals = deviation_singular_values(devs)
    mu, gamma = rblw_parameters(svals, bg.nstate, bg.nens)
    return ShrinkageCovariance(mu=mu, gamma=gamma, deviations=devs)


def _shrinkage_diagnostics(cov: ShrinkageCovariance) -> dict:
    return {"mu": cov.mu, "gamma": cov.gamma, "phi": cov.phi, "delta": cov.delta}


def _shrinkage_prologue(bg, y, obs, k, rng, shrinkage, innovations):
    """Shrinkage estimate, innovations D and the extended anomalies of FS and
    RS: one (nstate, nens + k) buffer holding the real anomalies about the
    real mean, then the k synthetic members drawn straight into their
    columns and centred there in place. It is the one extended-ensemble
    array of the analysis; FS scales it in place."""
    y = _check_inputs(bg, y, obs)
    rng = _require_stream(rng, "draw synthetic members")
    if shrinkage is None and bg.nens < 3:
        raise ValueError("too few members for RBLW")
    cov = shrinkage if shrinkage is not None else estimate_shrinkage(bg)
    d = _innovation_matrix(bg, y, obs, rng) if innovations is None else np.asarray(innovations, dtype=float)
    k, mean = int(k), ensemble_mean(bg)
    extended = np.empty((bg.nstate, bg.nens + k))
    np.subtract(bg.matrix, mean[:, None], out=extended[:, :bg.nens])
    synthetic = draw_synthetic_members(mean, cov, k, rng.child(_SYNTH_STREAM),
                                       out=extended[:, bg.nens:])
    if not np.all(np.isfinite(synthetic)):
        raise ValueError("synthetic members contain non-finite entries")
    synthetic -= mean[:, None]
    return cov, d, extended


def enkf_fs_analysis(bg: Ensemble, y, obs: ObservationSpec, k: int,
                     rng: RngStream | None = None, *,
                     shrinkage: ShrinkageCovariance | None = None,
                     innovations: np.ndarray | None = None) -> AnalysisResult:
    """Full-space shrinkage step with an extended ensemble.

    The background covariance estimate phi*I + delta*S@S.T comes from the
    real members only; k synthetic draws widen the deviation basis, the
    observation-space system (Gamma + Pi Pi.T) Z = D with Gamma = R + phi*I
    on the observed rows is solved through its (nens + k)-square capacitance
    matrix, and only the real members are updated. ``shrinkage`` and
    ``innovations`` are testing hooks that bypass estimation and observation
    perturbation; the synthetic draws always need ``rng``.
    """
    cov, d, basis = _shrinkage_prologue(bg, y, obs, k, rng, shrinkage, innovations)
    # the scaled deviations sqrt(delta) * anomalies / sqrt(nk - 1), in place
    basis /= np.sqrt(basis.shape[1] - 1)
    basis *= np.sqrt(cov.delta)
    pi = obs.project(basis)
    z = ismf_solve(ObservationSpaceSystem(obs.variances + cov.phi, pi, d))
    analysis = bg.matrix + basis @ (pi.T @ z) + cov.phi * obs.scatter(z)
    return AnalysisResult(Ensemble(analysis), _shrinkage_diagnostics(cov))


def enkf_rs_system(cov: ShrinkageCovariance, u_ext: np.ndarray, obs: ObservationSpec):
    """Ensemble-space weighted covariance and projected data operator.

    Returns (w_ens, q_ext) with w_ens = U.T (Bhat^{-1} + H.T R^{-1} H) U
    and q_ext = H U, for the basis U = ``u_ext``. By the Woodbury identity
    w_ens = U.T diag(d) U - Y.T Y / phi, with d = 1/phi + H.T R^{-1} 1 and
    Y = L^{-1} S.T U for L L.T = (phi/delta) I + S.T S (size nens). The
    first term is the Gram G.T G of G = U sqrt(d), summed over
    ``GRAM_ROW_BLOCK``-row blocks G_b as symmetric rank-k products
    G_b.T G_b, so G is never formed whole and w_ens is exactly symmetric;
    delta = 0 drops the second.
    """
    if cov.phi <= 0.0:
        raise ValueError("invalid shrinkage parameters")
    sqrt_weights = obs.scatter(1.0 / obs.variances)
    sqrt_weights += 1.0 / cov.phi
    np.sqrt(sqrt_weights, out=sqrt_weights)
    w_ens = np.zeros((u_ext.shape[1], u_ext.shape[1]))
    for start in range(0, u_ext.shape[0], GRAM_ROW_BLOCK):
        rows = slice(start, start + GRAM_ROW_BLOCK)
        block = u_ext[rows] * sqrt_weights[rows, None]
        w_ens += block.T @ block
    if cov.delta > 0.0:
        s = cov.deviations.columns
        inner = (cov.phi / cov.delta) * np.eye(s.shape[1]) + s.T @ s
        lower = cholesky_factor(inner, "shrunk covariance is not positive definite")
        y = triangular_solve(lower, s.T @ u_ext, lower=True)
        w_ens -= (y.T @ y) / cov.phi
    return w_ens, obs.project(u_ext)


def enkf_rs_analysis(bg: Ensemble, y, obs: ObservationSpec, k: int,
                     rng: RngStream | None = None, *,
                     shrinkage: ShrinkageCovariance | None = None,
                     innovations: np.ndarray | None = None) -> AnalysisResult:
    """Reduced-space shrinkage step: assimilate in the extended ensemble span.

    Per-member weights lambda solve W lambda = Q.T R^{-1} D, with (W, Q) from
    :func:`enkf_rs_system`, by one Cholesky solve W = L L.T; the analysis is
    X^b + U @ lambda. The shape picks the basis U. Tall (nens + k - 1 <=
    nstate): the extended anomalies without the first real one, the same
    span since the real ones sum to zero, so W is SPD. Wide: they span the
    state, so U = I, the Kalman update with prior Bhat whatever the draws
    are, and none are drawn. A failed factorization raises ``ValueError``;
    ``condition_estimate`` is (max diag L / min diag L)^2 <= cond(W).
    """
    wide = bg.nens + int(k) - 1 > bg.nstate
    cov, d, extended = _shrinkage_prologue(bg, y, obs, 0 if wide else k, rng,
                                           shrinkage, innovations)
    basis = np.eye(bg.nstate) if wide else extended[:, 1:]
    w_ens, q = enkf_rs_system(cov, basis, obs)
    lam, lower = cholesky_solve(w_ens, q.T @ (d / obs.variances[:, None]),
                                "rank-deficient ensemble space: weight matrix is not "
                                "positive definite")
    analysis = bg.matrix + basis @ lam
    pivots = np.diagonal(lower)
    diag = _shrinkage_diagnostics(cov)
    diag["condition_estimate"] = float((pivots.max() / pivots.min()) ** 2)
    return AnalysisResult(Ensemble(analysis), diag)


def run_filter(key: str, bg: Ensemble, y, obs: ObservationSpec,
               rng: RngStream | None = None, synthetic_members: int = 0) -> AnalysisResult:
    """Dispatch one analysis step by filter key.

    ``synthetic_members`` only affects the shrinkage filters; deterministic
    filters ignore ``rng``.
    """
    if key == "enkf":
        return enkf_analysis(bg, y, obs, rng)
    if key == "ensrf":
        return ensrf_analysis(bg, y, obs)
    if key == "entkf":
        return entkf_analysis(bg, y, obs)
    if key == "enkf-n":
        return enkf_n_analysis(bg, y, obs)
    if key == "enkf-du":
        return enkf_du_analysis(bg, y, obs)
    if key == "enkf-fs":
        return enkf_fs_analysis(bg, y, obs, synthetic_members, rng)
    if key == "enkf-rs":
        return enkf_rs_analysis(bg, y, obs, synthetic_members, rng)
    raise ValueError(f"unknown filter key {key!r}; choose from {', '.join(FILTER_KEYS)}")
