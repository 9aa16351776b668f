"""Analysis steps for the seven ensemble filters.

Stochastic EnKF, the square-root pair (EnSRF / ETKF), the
inflation-free primal/dual pair, and the two shrinkage-based filters that
assimilate with an extended ensemble: full-space (observation-space
weighted covariance) and reduced-space (ensemble-space weighted
covariance). Neither forms a row of its synthetic members. Both split
the observed rows into groups of one observation variance and draw, group
by group, only the statistics of the synthetic block that their systems
and updates read: its coordinates in a basis of the group's deviations
and data, a root of the Gram of the rest and a Haar frame. RS does the
same on the unobserved rows, and FS takes them in closed form. FS draws
one root bidiagonal, which makes its share of the capacitance
tridiagonal, and solves its system on the smaller side. Where the
extended ensemble spans the state, RS is the Kalman update with the
shrunk prior whatever the draws are: it draws nothing and inverts its
weight matrix by Woodbury in ensemble space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import DeviationMatrix, Ensemble, deviations, ensemble_mean
from .observations import ObservationSpec
# extend_ensemble is not called; perfbench/twinbench.py wraps filters.extend_ensemble by name
from .sampling import (NON_FINITE_SYNTHETIC, RngStream, draw_synthetic_members,  # noqa: F401
                       bidiagonal_root, extend_ensemble, group_basis, haar_frame,
                       member_normals, normal_block, perturb_observations, wishart_root)
from .shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters
from .solvers import (ObservationSpaceSystem, bidiagonal_solve, cholesky_factor, cholesky_solve,
                      ensrf_transform, entkf_factors, ismf_solve, triangular_solve,
                      tridiagonal_cholesky)

FILTER_KEYS = ("enkf", "ensrf", "entkf", "enkf-n", "enkf-du", "enkf-fs", "enkf-rs")

# Substream purposes used by the stochastic filters, so that two filters
# fed the same stream draw the same perturbed observations.
_OBS_STREAM = 1
_SYNTH_STREAM = 2
# The normals behind the full-space step's unobserved rows.
_UNOBSERVED_STREAM = 3
# The shrinkage steps' draws for row group g: the root of the Gram of the
# synthetic block off the group's basis, child(_ROOT_STREAM, g), and the
# frame of its update term, child(_FRAME_STREAM, g).
_ROOT_STREAM = 4
_FRAME_STREAM = 5

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
    if not np.all(np.isfinite(y)):
        raise ValueError("observation vector contains non-finite entries")
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


def _shrinkage_inputs(bg, y, obs, k, rng, shrinkage, innovations):
    """k, checked nonnegative, the stream the synthetic draws need, the
    shrinkage estimate and the innovations D of FS and RS."""
    y = _check_inputs(bg, y, obs)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = _require_stream(rng, "draw synthetic members")
    cov = shrinkage if shrinkage is not None else estimate_shrinkage(bg)
    d = _innovation_matrix(bg, y, obs, rng) if innovations is None else np.asarray(innovations, dtype=float)
    return k, rng, cov, d


def _psd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix, by ``eigh``; the
    negative eigenvalues that rounding can leave are clipped to 0."""
    lam, vec = np.linalg.eigh(gram)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


@dataclass(frozen=True)
class _RowGroup:
    """State rows of one observation variance (inf on the unobserved rows),
    an orthonormal basis B of the span of their rows of S and of D /
    variance, the coordinates of both in B (data None on the unobserved
    rows), and ``roots``, the row count of the root of the synthetic
    block's Gram off B in the compressed rows."""

    rows: np.ndarray
    variance: float
    basis: np.ndarray
    s: np.ndarray
    data: np.ndarray | None
    roots: int

    @property
    def nu(self) -> int:
        """Dimension of the complement of the basis in the group's rows."""
        return self.rows.size - self.basis.shape[1]


def _row_groups(obs: ObservationSpec, s: np.ndarray, d: np.ndarray, k: int, *,
                unobserved: bool) -> list:
    """Row groups of the compressed shrinkage steps: the unobserved rows
    when ``unobserved`` (RS), then the observed rows of each distinct
    variance r. The basis is :func:`group_basis` of S_g, or of
    [S_g | D_g / r] for observed rows; the root has min(nu, k) rows."""
    parts = []
    if unobserved:
        rows = np.setdiff1d(np.arange(obs.nstate), obs.indices, assume_unique=True)
        if rows.size:
            parts.append((rows, np.inf, None))
    variances, which = np.unique(obs.variances, return_inverse=True)
    for i, variance in enumerate(variances):
        parts.append((obs.indices[which == i], variance, d[which == i] / variance))
    groups = []
    for rows, variance, data in parts:
        s_g = s[rows]
        basis = group_basis(s_g if data is None else np.hstack([s_g, data]))
        groups.append(_RowGroup(rows, variance, basis, basis.T @ s_g,
                                None if data is None else basis.T @ data,
                                min(rows.size - basis.shape[1], k)))
    return groups


def _frame_term(rng: RngStream, basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The law of E_perp A' given A = R A', for E_perp a Haar rotation in the
    complement of the orthonormal ``basis`` applied to a matrix of Gram
    R.T R: F diag(sqrt(ev)) V.T, with (ev, V) the top r eigenpairs of
    A.T A and F a :func:`haar_frame` of r columns off the basis on ``rng``.
    r = min(a.shape) bounds the rank of A, so no eigenpair beyond it is
    read: more would take the square roots of rounding-level eigenvalues.
    """
    ev, vec = np.linalg.eigh(a.T @ a)
    r = min(a.shape)
    frame = haar_frame(rng, basis, r)
    return frame @ (np.sqrt(np.clip(ev[-r:], 0.0, None))[:, None] * vec[:, -r:].T)


def _banded_group(groups: list) -> int | None:
    """Index of the group with the most root rows, the first on a tie;
    None when no group has a root. FS draws this group's root as
    :func:`bidiagonal_root`."""
    roots = [g.roots for g in groups]
    return roots.index(max(roots)) if roots and max(roots) else None


def _fs_compressed_rows(nens: int, k: int, rng: RngStream, cov: ShrinkageCovariance,
                        groups: list, banded: int | None):
    """FS's compressed system: its dense rows P, their diagonal Gamma_c,
    the right-hand side, the synthetic members' E2 and the band (None
    without one): the two diagonals of the banded group's root rows
    c sqrt(phi) R and their Gamma_c.

    On group g, with basis B and E1_g = B Z + E_perp, the observed rows
    Pi_g give the capacitance and right-hand side that the rows
    P_g = c [sqrt(nens - 1) B.T S_g | sqrt(phi) Z + sqrt(delta) (B.T S_g) E2]
    and (0 | c sqrt(phi) R) give, with R.T R = E_perp.T E_perp, Wishart_k(nu,
    I) and independent of Z, Gamma_c = r_g + phi on both, and B.T D_g on the
    first, 0 on the second. The coordinates sqrt(phi) Z + sqrt(delta)
    (B.T S) E2 are one :func:`draw_synthetic_members` from
    phi I + delta (B.T S)(B.T S).T, straight into their rows. The rows hold
    every P_g, then the root R of every group but the banded one, from
    :func:`wishart_root` on substream (``_ROOT_STREAM``, g). The step reads
    its synthetic columns only through products that one rotation of all k
    columns leaves unchanged, and rotating them keeps Z and E2 standard
    normal, so the banded group's R is the bidiagonal of
    :func:`bidiagonal_root` on its substream, kept as its two diagonals,
    not as rows.
    """
    coords = np.vstack([g.s for g in groups])
    ranks = coords.shape[0]
    pi = np.zeros((ranks + sum(g.roots for i, g in enumerate(groups) if i != banded), nens + k),
                  order="F")
    np.multiply(coords, np.sqrt(nens - 1), out=pi[:ranks, :nens])
    projected = ShrinkageCovariance(cov.mu, cov.gamma,
                                    DeviationMatrix(coords, cov.deviations.offset))
    eps2 = np.empty((nens, k))
    draw_synthetic_members(projected, k, rng.child(_SYNTH_STREAM), out=pi[:ranks, nens:],
                           eps2=eps2)
    gamma = np.empty(pi.shape[0])
    rhs = np.zeros((pi.shape[0], nens))
    z_row, root = 0, ranks
    for i, g in enumerate(groups):
        b = g.basis.shape[1]
        gamma[z_row:z_row + b] = g.variance + cov.phi
        rhs[z_row:z_row + b] = g.data * g.variance
        z_row += b
        if g.roots and i != banded:
            gamma[root:root + g.roots] = g.variance + cov.phi
            np.multiply(wishart_root(rng.child(_ROOT_STREAM, i), g.nu, k), np.sqrt(cov.phi),
                        out=pi[root:root + g.roots, nens:])
            root += g.roots
    scale = np.sqrt(cov.delta / (nens + k - 1))
    pi *= scale
    if banded is None:
        return pi, gamma, rhs, eps2, None
    g = groups[banded]
    diag, upper = bidiagonal_root(rng.child(_ROOT_STREAM, banded), g.nu, k)
    band = (diag * np.sqrt(cov.phi) * scale, upper * np.sqrt(cov.phi) * scale,
            g.variance + cov.phi)
    return pi, gamma, rhs, eps2, band


def _fs_weights(pi: np.ndarray, gamma: np.ndarray, rhs: np.ndarray, nens: int, band):
    """W = Pi.T Z for FS's compressed system, and P W for its dense rows P.

    Without a band, :func:`ismf_solve` on P. With one, the capacitance is
    D + P.T Gamma^{-1} P, D = diag(I, I + B.T B / gamma_b) for the band's
    rows B = c sqrt(phi) R and their gamma_b = r_g + phi. D is
    tridiagonal with every eigenvalue at least 1; its lower bidiagonal
    Cholesky factor L comes from :func:`tridiagonal_cholesky`. Then
    W = L^{-T} W', with W' = :func:`ismf_solve` of the system whose rows
    are P L^{-T}, its synthetic columns whitened by one substitution, and
    P W = (P L^{-T}) W'.
    """
    if band is not None:
        diag, upper, variance = band
        k = pi.shape[1] - nens
        tri = np.ones(k)
        tri[:diag.size] += diag**2 / variance
        tri[1:upper.size + 1] += upper**2 / variance
        off = np.zeros(k - 1)
        off[:upper.size] = diag[:upper.size] * upper / variance
        lower, sub = tridiagonal_cholesky(tri, off)
        del tri, off
        # column-major, so the synthetic columns are the rows of a C-ordered view
        bidiagonal_solve(lower, sub, pi[:, nens:].T, transpose=False)
    w = ismf_solve(ObservationSpaceSystem(gamma, pi, rhs))
    pi_w = pi @ w
    if band is not None:
        bidiagonal_solve(lower, sub, w[nens:], transpose=True)
    return w, pi_w


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
    = D with Gamma = R + phi*I and Pi the observed rows of the basis, the
    step needs W = Pi.T Z. Pi is never formed: on each group of observed
    rows of one variance the step draws the exact joint law of what the
    capacitance, the right-hand side and the update read of E1
    (:func:`_fs_compressed_rows`), at most 2 nens - 1 + k rows a group
    whatever its size, and the root of the group with the most root rows
    as two diagonals. :func:`_fs_weights` takes W from :func:`ismf_solve`
    on the dense rows, whitened by the bidiagonal factor of that root's
    tridiagonal share of the capacitance, so no (nens + k)-square matrix
    is formed when the dense rows are fewer than nens + k. Only the real
    members are updated, by basis @ W + phi * H.T Z.

    On the observed rows that is Pi W + phi Z = (R Pi W + phi D) / Gamma,
    as Z = Gamma^{-1} (D - Pi W), so Z is never formed. On group g,
    Pi_g W = B (P_g W) + c sqrt(phi) E_perp W_s, W_s the synthetic rows of
    W, and the last term is drawn by :func:`_frame_term` on substream
    (``_FRAME_STREAM``, g), for A = c sqrt(phi) R W_s; the banded group's
    A comes from the two diagonals. On the unobserved rows (subscript u) it is
    c [S_u (sqrt(nens - 1) W_r + sqrt(delta) E2 W_s) + sqrt(phi) E1_u W_s]
    for W = [W_r; W_s] split at the real members, so S_u enters one product
    and the unobserved rows of U are never formed. E1_u is independent of
    everything that sets W, so given W the rows of E1_u W_s are i.i.d.
    N(0, W_s.T W_s), and the step draws them as G sqrt(W_s.T W_s): G is one
    (nunobs, nens) normal block from its own substream, and the square root
    is :func:`_psd_sqrt`. The analysis has the distribution of the step
    with E1 drawn in full, not its bits. A non-finite unobserved-row term
    is refused like a non-finite draw. ``shrinkage`` and ``innovations``
    are testing hooks that bypass estimation and observation perturbation;
    the synthetic draws always need ``rng``.
    """
    k, rng, cov, d = _shrinkage_inputs(bg, y, obs, k, rng, shrinkage, innovations)
    nens = bg.nens
    groups = _row_groups(obs, cov.deviations.columns, d, k, unobserved=False)
    banded = _banded_group(groups)
    pi, gamma, rhs, eps2, band = _fs_compressed_rows(nens, k, rng, cov, groups, banded)
    w, pi_w = _fs_weights(pi, gamma, rhs, nens, band)
    analysis = np.array(bg.matrix)
    analysis[obs.indices] += (cov.phi / (obs.variances + cov.phi))[:, None] * d
    z_row, root = 0, sum(g.basis.shape[1] for g in groups)
    for i, g in enumerate(groups):
        b = g.basis.shape[1]
        update = g.basis @ pi_w[z_row:z_row + b]
        z_row += b
        if i == banded:
            diag, upper, _ = band
            a = diag[:, None] * w[nens:nens + diag.size]
            a[:upper.size] += upper[:, None] * w[nens + 1:nens + 1 + upper.size]
        elif g.roots:
            a = pi_w[root:root + g.roots]
            root += g.roots
        if g.roots:
            update += _frame_term(rng.child(_FRAME_STREAM, i), g.basis, a)
        update *= g.variance / (g.variance + cov.phi)
        analysis[g.rows] += update
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
    term *= np.sqrt(cov.delta / (nens + k - 1))
    analysis[unobserved] += term
    return AnalysisResult(Ensemble(analysis), _shrinkage_diagnostics(cov))


def enkf_rs_system(cov: ShrinkageCovariance, rows: np.ndarray, s_u: np.ndarray,
                   data: np.ndarray):
    """Ensemble-space weighted covariance and projected data.

    Returns (w_ens, rhs) with w_ens = U.T (Bhat^{-1} + H.T R^{-1} H) U and
    rhs = U.T H.T R^{-1} D for a basis U given by weighted rows in
    row-group coordinates: U = sum_g Q_g u_g, where each Q_g has
    orthonormal columns on a group of state rows of equal weight
    a_g = 1/phi + (H.T R^{-1} 1)_g. ``rows`` stacks sqrt(a_g) u_g,
    ``data`` stacks Q_g.T H.T R^{-1} D / sqrt(a_g), which must lie in the
    span of the Q_g, and ``s_u`` is S.T U. By the Woodbury identity
    w_ens = rows.T rows - Y.T Y, with Y = L^{-1} S.T U / sqrt(phi) for
    L L.T = (phi/delta) I + S.T S (size nens), and rhs = rows.T data.
    Both terms of w_ens are symmetric rank-k products (BLAS SYRK), so w_ens
    is exactly symmetric, and delta = 0 drops the second. Scaling the
    (nens, m) Y, not Y.T Y, spares an m-square temporary (m = nens + k - 1):
    1.4 MiB of qg33-compare's peak RSS.
    """
    w_ens = rows.T @ rows
    rhs = rows.T @ data
    if cov.delta > 0.0:
        y = _woodbury_rows(cov, s_u)
        w_ens -= y.T @ y
    return w_ens, rhs


def _woodbury_rows(cov: ShrinkageCovariance, s_u: np.ndarray) -> np.ndarray:
    """Y = L^{-1} S.T U / sqrt(phi) for L L.T = (phi/delta) I + S.T S, given
    ``s_u`` = S.T U, so that U.T Bhat^{-1} U = U.T U / phi - Y.T Y
    (delta > 0)."""
    s = cov.deviations.columns
    inner = (cov.phi / cov.delta) * np.eye(s.shape[1]) + s.T @ s
    lower = cholesky_factor(inner, "shrunk covariance is not positive definite")
    return triangular_solve(lower, s_u, lower=True) / np.sqrt(cov.phi)


def _rs_weight_root(phi: float, group: _RowGroup) -> float:
    """sqrt(a_g) for the group's reduced-space weight a_g = 1/phi + 1/r."""
    return np.sqrt(1.0 / phi + 1.0 / group.variance)


def _rs_compressed_rows(nens: int, k: int, rng: RngStream, cov: ShrinkageCovariance,
                        groups: list):
    """The weighted rows of the tall basis U in row-group coordinates, with
    the ``s_u`` and ``data`` of :func:`enkf_rs_system`.

    On group g, with basis B and the synthetic block E1 split as
    E1_g = B Z + E_perp, u_g = [[sqrt(nens - 1) B.T S_g[:, 1:],
    sqrt(phi) Z + sqrt(delta) (B.T S_g) E2], [0, sqrt(phi) R]], where
    R.T R is the Gram E_perp.T E_perp. Z is standard normal, the Gram is
    Wishart_k(nu, I) and independent of Z, and these are all of E1_g that
    the weight matrix and the data read, so they are drawn instead of E1.
    The rows hold sqrt(a_g) u_g, group after group, so W needs one plain
    Gram of them and no weighted copy. Z of every group and E2 are the rows
    of one :func:`normal_block`, of (sum of ranks + nens) rows and k
    columns; R comes from :func:`wishart_root` on substream
    (``_ROOT_STREAM``, g). A non-finite synthetic column is refused like a
    non-finite draw.
    """
    nb = nens - 1
    ranks = sum(g.basis.shape[1] for g in groups)
    normals = normal_block(rng.child(_SYNTH_STREAM), ranks + nens, k)
    eps2 = normals[ranks:]
    nrows = ranks + sum(g.roots for g in groups)
    rows = np.empty((nrows, nb + k))
    data = np.zeros((nrows, nens))
    s_u = np.zeros((nens, nb + k))
    z_row = start = 0
    for i, g in enumerate(groups):
        b, scale = g.basis.shape[1], _rs_weight_root(cov.phi, g)
        top = rows[start:start + b]
        np.multiply(g.s[:, 1:], np.sqrt(nens - 1), out=top[:, :nb])
        synthetic = np.matmul(g.s, eps2, out=top[:, nb:])
        synthetic *= np.sqrt(cov.delta)
        synthetic += np.sqrt(cov.phi) * normals[z_row:z_row + b]
        z_row += b
        s_u += g.s.T @ top
        top *= scale
        if g.data is not None:
            data[start:start + b] = g.data / scale
        root = rows[start + b:start + b + g.roots]
        root[:, :nb] = 0.0
        if g.roots:
            np.multiply(wishart_root(rng.child(_ROOT_STREAM, i), g.nu, k),
                        np.sqrt(cov.phi) * scale, out=root[:, nb:])
        start += b + g.roots
    if k and not (np.isfinite(rows[:, nb:].min()) and np.isfinite(rows[:, nb:].max())):
        raise ValueError(NON_FINITE_SYNTHETIC)
    return rows, s_u, data


def _rs_tall_update(bg: Ensemble, rng: RngStream, phi: float, groups: list,
                    rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """X^b + U lambda from the weighted compressed ``rows``.

    On group g, U_g lambda = B (u_g[:b] lambda) + sqrt(phi) E_perp lambda_s,
    lambda_s the synthetic rows of lambda. Given the draws behind lambda,
    E_perp is a Haar rotation in the complement of B applied to a matrix of
    Gram R.T R, so the last term is :func:`_frame_term` of
    A = sqrt(phi) R lambda_s, on substream (``_FRAME_STREAM``, g).
    """
    nb = bg.nens - 1
    analysis = np.array(bg.matrix)
    start = 0
    for i, g in enumerate(groups):
        b, scale = g.basis.shape[1], _rs_weight_root(phi, g)
        update = g.basis @ (rows[start:start + b] @ lam / scale)
        if g.roots:
            a = rows[start + b:start + b + g.roots, nb:] @ lam[nb:] / scale
            update += _frame_term(rng.child(_FRAME_STREAM, i), g.basis, a)
        analysis[g.rows] += update
        start += b + g.roots
    return analysis


def enkf_rs_analysis(bg: Ensemble, y, obs: ObservationSpec, k: int,
                     rng: RngStream | None = None, *,
                     shrinkage: ShrinkageCovariance | None = None,
                     innovations: np.ndarray | None = None) -> AnalysisResult:
    """Reduced-space shrinkage step: assimilate in the extended ensemble span.

    Per-member weights lambda solve W lambda = U.T H.T R^{-1} D, both sides
    from :func:`enkf_rs_system`, by one Cholesky solve W = L L.T; the
    analysis is X^b + U @ lambda. The basis U is the extended anomalies
    [sqrt(nens - 1) S, sqrt(phi) E1 + sqrt(delta) S E2] without the first
    real one, the same span since the real ones sum to zero, so W is SPD.
    The step never forms them: on each group of rows of equal weight it
    draws the exact joint law of what W, the data and the update read of
    the synthetic block E1 (:func:`_rs_compressed_rows`,
    :func:`_rs_tall_update`). The analysis has the distribution of the step
    with E1 drawn in full, not its bits. A failed factorization raises
    ``ValueError``; ``condition_estimate`` is (max diag L / min diag L)^2
    <= cond(W).

    Once nens + k - 1 > nstate the extended anomalies span the state, and
    the step is the Kalman update with prior Bhat = phi I + delta S S.T
    whatever the draws are: :func:`enkf_fs_analysis` at k = 0, to rounding.
    Nothing is drawn and U = I, so W = diag(a) - Y.T Y, a = 1/phi +
    H.T R^{-1} 1 and Y from :func:`_woodbury_rows`. W is never formed:
    Woodbury inverts it through the nens-square I - G Y.T, G = Y diag(1/a),
    at O(nstate nens^2). The diagnostics are FS's, no ``condition_estimate``.
    """
    k, rng, cov, d = _shrinkage_inputs(bg, y, obs, k, rng, shrinkage, innovations)
    if cov.phi <= 0.0:
        raise ValueError("invalid shrinkage parameters")
    if bg.nens + k - 1 > bg.nstate:
        a = np.full(bg.nstate, 1.0 / cov.phi)
        a[obs.indices] += 1.0 / obs.variances
        lam = np.zeros(bg.matrix.shape)
        lam[obs.indices] = d / (obs.variances * a[obs.indices])[:, None]
        if cov.delta > 0.0:
            y_t = _woodbury_rows(cov, cov.deviations.columns.T)
            g = y_t / a
            v, _ = cholesky_solve(np.eye(bg.nens) - g @ y_t.T, y_t @ lam,
                                  "rank-deficient ensemble space: weight matrix is not "
                                  "positive definite")
            lam += g.T @ v
        lam += bg.matrix
        return AnalysisResult(Ensemble(lam), _shrinkage_diagnostics(cov))
    groups = _row_groups(obs, cov.deviations.columns, d, k, unobserved=True)
    rows, s_u, data = _rs_compressed_rows(bg.nens, k, rng, cov, groups)
    lam, lower = cholesky_solve(*enkf_rs_system(cov, rows, s_u, data),
                                "rank-deficient ensemble space: weight matrix is not "
                                "positive definite")
    pivots = np.diagonal(lower)
    diag = _shrinkage_diagnostics(cov)
    diag["condition_estimate"] = float((pivots.max() / pivots.min()) ** 2)
    # an m-square factor held through the update adds 0.11 (nstate, nens + k)
    # arrays to the peak of filters.shrinkage_peak_memory
    del lower, pivots
    return AnalysisResult(Ensemble(_rs_tall_update(bg, rng, cov.phi, groups, rows, lam)), diag)


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
