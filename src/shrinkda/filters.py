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

from .ensemble import Ensemble, deviations, ensemble_mean
from .observations import ObservationSpec
# extend_ensemble is not called; perfbench/twinbench.py wraps filters.extend_ensemble by name
from .sampling import (NON_FINITE_SYNTHETIC, RngStream, draw_synthetic_members,  # noqa: F401
                       extend_ensemble, member_normals, perturb_observations)
from .shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters
from .solvers import (ObservationSpaceSystem, cholesky_factor, cholesky_solve, ensrf_transform,
                      entkf_factors, ismf_solve, triangular_solve, weighted_gram)

FILTER_KEYS = ("enkf", "ensrf", "entkf", "enkf-n", "enkf-du", "enkf-fs", "enkf-rs")

# Substream purposes used by the stochastic filters, so that two filters
# fed the same stream draw the same perturbed observations.
_OBS_STREAM = 1
_SYNTH_STREAM = 2
# The normals behind the full-space step's unobserved rows.
_UNOBSERVED_STREAM = 3

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
    w = ismf_solve(ObservationSpaceSystem(obs.variances, v, d))
    analysis = bg.matrix + s @ w
    return AnalysisResult(Ensemble(analysis))


def ensrf_analysis(bg: Ensemble, y, obs: ObservationSpec) -> AnalysisResult:
    """Deterministic square-root step: mean + S W + U C^{-1/2}.

    W = V.T Z for the observation-space system (R + V V.T) Z = d, V = H S,
    from :func:`ismf_solve`; C^{-1/2}, the symmetric square root of
    I - V.T (R + V V.T)^{-1} V, comes from the eigenpairs of the
    capacitance C = I + V.T R^{-1} V (:func:`ensrf_transform`). S is U
    scaled by 1 / sqrt(nens - 1), so :func:`_transform_analysis` on S
    builds the members.
    """
    y = _check_inputs(bg, y, obs)
    mean = ensemble_mean(bg)
    s = deviations(bg).columns
    v = obs.project(s)
    w = ismf_solve(ObservationSpaceSystem(obs.variances, v, y - obs.project(mean)))
    eigval, eigvec = ensrf_transform(v, obs.variances)
    return AnalysisResult(_transform_analysis(mean, s, w[:, 0], eigval, eigvec))


def _ensemble_space_prologue(bg, y, obs):
    """Mean, anomalies U, observed anomalies Q = H U, innovation
    d0 = y - H mean and the eigen kernel :func:`entkf_factors` (lam, vec,
    proj) of the deterministic ensemble-space filters."""
    y = _check_inputs(bg, y, obs)
    mean = ensemble_mean(bg)
    u = bg.matrix - mean[:, None]
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
    :func:`ensrf_analysis`, whose mean comes from an observation-space solve.
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

    Kept here, not in ``shrinkage``, because per-layer timers wrap the
    spectrum (:func:`deviation_singular_values`, from the nens-square Gram
    S.T @ S) and RBLW steps where this module looks them up.
    """
    devs = deviations(bg)
    svals = deviation_singular_values(devs)
    mu, gamma = rblw_parameters(svals, bg.nstate, bg.nens)
    return ShrinkageCovariance(mu=mu, gamma=gamma, deviations=devs)


def _shrinkage_diagnostics(cov: ShrinkageCovariance) -> dict:
    return {"mu": cov.mu, "gamma": cov.gamma, "phi": cov.phi, "delta": cov.delta}


def _shrinkage_prologue(bg, y, obs, k, rng, shrinkage, innovations, rows=None):
    """Shrinkage estimate, innovations D and the extended anomalies of FS
    and RS: one column-major (nrows, nens + k) buffer holding the real
    anomalies sqrt(nens - 1) S, from the estimate's deviations S, then the
    k synthetic deviations drawn straight into their columns. It is the one
    extended-ensemble array of the analysis; FS scales it in place.

    RS holds every row (``rows`` None). FS passes its observed rows: each
    synthetic member then draws eps1 on those rows only, and the members'
    eps2 come back as an (nens, k) array (else None), from which FS builds
    the unobserved rows of its update in closed form."""
    y = _check_inputs(bg, y, obs)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = _require_stream(rng, "draw synthetic members")
    cov = shrinkage if shrinkage is not None else estimate_shrinkage(bg)
    d = _innovation_matrix(bg, y, obs, rng) if innovations is None else np.asarray(innovations, dtype=float)
    real = cov.deviations.columns[slice(None) if rows is None else rows]
    extended = np.empty((real.shape[0], bg.nens + k), order="F")
    np.multiply(real, np.sqrt(bg.nens - 1), out=extended[:, :bg.nens])
    eps2 = None if rows is None else np.empty((bg.nens, k))
    draw_synthetic_members(cov, k, rng.child(_SYNTH_STREAM), out=extended[:, bg.nens:],
                           rows=rows, eps2=eps2)
    return cov, d, extended, eps2


def _psd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix, by ``eigh``; the
    negative eigenvalues that rounding can leave are clipped to 0."""
    lam, vec = np.linalg.eigh(gram)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


def enkf_fs_analysis(bg: Ensemble, y, obs: ObservationSpec, k: int,
                     rng: RngStream | None = None, *,
                     shrinkage: ShrinkageCovariance | None = None,
                     innovations: np.ndarray | None = None) -> AnalysisResult:
    """Full-space shrinkage step with an extended ensemble.

    The background covariance estimate phi*I + delta*S@S.T comes from the
    real members only; k synthetic draws widen the deviation basis
    c [U | sqrt(phi) E1 + sqrt(delta) S E2], c = sqrt(delta / (nens + k - 1)),
    with U = sqrt(nens - 1) S the real anomalies and E1, E2 the synthetic
    members' normals. For the observation-space system (Gamma + Pi Pi.T) Z
    = D with Gamma = R + phi*I, :func:`ismf_solve` returns W = Pi.T Z
    through its (nens + k)-square capacitance matrix; Pi, the observed rows
    of the basis, is the only part of it that is formed, and the synthetic
    members draw only their observed rows of E1. Only the real members are
    updated, by basis @ W + phi * H.T Z.

    On the observed rows that is Pi W + phi Z = (R Pi W + phi D) / Gamma,
    as Z = Gamma^{-1} (D - Pi W), so Z is never formed. On the unobserved rows
    (subscript u) it is c [S_u (sqrt(nens - 1) W_r + sqrt(delta) E2 W_s) +
    sqrt(phi) E1_u W_s] for W = [W_r; W_s] split at the real members, so
    S_u enters one product and the unobserved rows of U are never formed. E1_u
    is independent of everything that sets W, so given W the rows of
    E1_u W_s are i.i.d. N(0, W_s.T W_s), and the step draws them as
    G sqrt(W_s.T W_s): G is one (nunobs, nens) normal block from its own
    substream, and the square root is :func:`_psd_sqrt`. The analysis
    has the distribution of the step with E1 drawn in full, not its bits.
    A non-finite unobserved-row term is refused like a non-finite draw.
    ``shrinkage`` and ``innovations`` are testing hooks that bypass
    estimation and observation perturbation; the synthetic draws always
    need ``rng``.
    """
    cov, d, pi, eps2 = _shrinkage_prologue(bg, y, obs, k, rng, shrinkage, innovations,
                                           rows=obs.indices)
    nens, scale = bg.nens, np.sqrt(cov.delta / (pi.shape[1] - 1))
    pi *= scale
    gamma = obs.variances + cov.phi
    w = ismf_solve(ObservationSpaceSystem(gamma, pi, d))
    analysis = np.array(bg.matrix)
    analysis[obs.indices] += (obs.variances[:, None] * (pi @ w) + cov.phi * d) / gamma[:, None]
    unobserved = np.setdiff1d(np.arange(bg.nstate), obs.indices, assume_unique=True)
    w_real, w_syn = w[:nens], w[nens:]
    # at k = 0, eps2 @ w_syn is an (nens, nens) zero block
    term = cov.deviations.columns[unobserved] @ (np.sqrt(nens - 1) * w_real
                                                 + np.sqrt(cov.delta) * (eps2 @ w_syn))
    if k:
        gram = w_syn.T @ w_syn
        if not (np.all(np.isfinite(term)) and np.all(np.isfinite(gram))):
            raise ValueError(NON_FINITE_SYNTHETIC)
        normals = member_normals(rng.child(_UNOBSERVED_STREAM), nens, unobserved.size)
        term += np.sqrt(cov.phi) * (normals @ _psd_sqrt(gram))
    term *= scale
    analysis[unobserved] += term
    return AnalysisResult(Ensemble(analysis), _shrinkage_diagnostics(cov))


def enkf_rs_system(cov: ShrinkageCovariance, u_ext: np.ndarray, obs: ObservationSpec,
                   d: np.ndarray):
    """Ensemble-space weighted covariance and projected data.

    Returns (w_ens, rhs) with w_ens = U.T (Bhat^{-1} + H.T R^{-1} H) U
    and rhs = Q.T R^{-1} D for Q = H U, the basis U = ``u_ext`` and the
    innovations D = ``d``. By the Woodbury identity
    w_ens = U.T diag(a) U - Y.T Y, with a = 1/phi + H.T R^{-1} 1 and
    Y = L^{-1} S.T U / sqrt(phi) for L L.T = (phi/delta) I + S.T S (size
    nens). Both terms are symmetric rank-k products, so w_ens is exactly
    symmetric; the first is the blocked Gram of :func:`weighted_gram` with
    weights a, and delta = 0 drops the second. Scaling the (nens, m) Y,
    not Y.T Y, spares an m-square temporary (m = nens + k - 1): 1.4 MiB
    of qg33-compare's peak RSS. Given the
    right-hand side H.T R^{-1} D / a, zero on the unobserved rows, the same
    loop returns U.T H.T R^{-1} D = rhs, so Q is never formed.
    """
    if cov.phi <= 0.0:
        raise ValueError("invalid shrinkage parameters")
    weights = obs.scatter(1.0 / obs.variances)
    weights += 1.0 / cov.phi
    w_ens, rhs = weighted_gram(u_ext, np.sqrt(weights),
                               obs.scatter(d / (obs.variances * weights[obs.indices])[:, None]))
    if cov.delta > 0.0:
        s = cov.deviations.columns
        inner = (cov.phi / cov.delta) * np.eye(s.shape[1]) + s.T @ s
        lower = cholesky_factor(inner, "shrunk covariance is not positive definite")
        y = triangular_solve(lower, s.T @ u_ext, lower=True) / np.sqrt(cov.phi)
        w_ens -= y.T @ y
    return w_ens, rhs


def enkf_rs_analysis(bg: Ensemble, y, obs: ObservationSpec, k: int,
                     rng: RngStream | None = None, *,
                     shrinkage: ShrinkageCovariance | None = None,
                     innovations: np.ndarray | None = None) -> AnalysisResult:
    """Reduced-space shrinkage step: assimilate in the extended ensemble span.

    Per-member weights lambda solve W lambda = Q.T R^{-1} D, both sides from
    :func:`enkf_rs_system`, by one Cholesky solve W = L L.T; the analysis is
    X^b + U @ lambda. The shape picks the basis U. Tall (nens + k - 1 <=
    nstate): the extended anomalies without the first real one, the same
    span since the real ones sum to zero, so W is SPD. Wide: they span the
    state, so U = I, the Kalman update with prior Bhat whatever the draws
    are, and none are drawn. A failed factorization raises ``ValueError``;
    ``condition_estimate`` is (max diag L / min diag L)^2 <= cond(W).
    """
    wide = bg.nens + int(k) - 1 > bg.nstate
    cov, d, extended, _ = _shrinkage_prologue(bg, y, obs, 0 if wide else k, rng,
                                              shrinkage, innovations)
    basis = np.eye(bg.nstate) if wide else extended[:, 1:]
    w_ens, rhs = enkf_rs_system(cov, basis, obs, d)
    lam, lower = cholesky_solve(w_ens, rhs,
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
