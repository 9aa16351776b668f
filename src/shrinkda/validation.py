"""Property suite behind ``dacli validate``.

Every module-level invariant is encoded as a small seeded check on
modest-sized instances. This module is the single home of these
properties: the unit tests do not restate them, and acceptance
criterion 8 runs :func:`run_all` under pytest, so each one is checked
on every test run and from the CLI without pytest.
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import filters, harness, models
from .ensemble import Ensemble, dense_sample_covariance, deviations
from .observations import ObservationSpec
from .sampling import (RngStream, bidiagonal_root, draw_synthetic_members, haar_frame,
                       member_normals, perturb_observations, standard_normal, wishart_root)
from .shrinkage import ShrinkageCovariance, deviation_singular_values, rblw_parameters
from .solvers import ObservationSpaceSystem, ensrf_transform, ismf_solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_ensemble(gen, nstate: int, nens: int, scale: float = 1.0) -> Ensemble:
    base = gen.standard_normal(nstate)
    return Ensemble(base[:, None] + scale * gen.standard_normal((nstate, nens)))


def _collect(checks) -> list:
    """Run check callables, converting exceptions into failed results."""
    out = []
    for check in checks:
        try:
            res = check()
        except Exception as exc:  # a property suite must report, not crash
            res = _result(check.__name__, False, f"raised {type(exc).__name__}: {exc}")
        out.extend(res if isinstance(res, list) else [res])
    return out


# ---------------------------------------------------------------------------
# ensemble statistics


def _ensemble_checks() -> list:
    gen = np.random.default_rng(91)
    results = []
    worst_sum = 0.0
    for _ in range(20):
        ens = _random_ensemble(gen, int(gen.integers(2, 60)), int(gen.integers(2, 20)))
        cols = deviations(ens).columns
        scale = max(1.0, float(np.abs(cols).max()))
        worst_sum = max(worst_sum, float(np.abs(cols.sum(axis=1)).max()) / scale)
    results.append(_result("ensemble.deviations_sum_to_zero", worst_sum < 1e-12,
                           f"worst relative column sum {worst_sum:.2e}"))

    ens = _random_ensemble(gen, 40, 7)
    cov = dense_sample_covariance(ens)
    sym = float(np.abs(cov - cov.T).max())
    eigval = np.linalg.eigvalsh(cov)
    results.append(_result("ensemble.dense_covariance_symmetric_psd",
                           sym == 0.0 and eigval[0] > -1e-10 * eigval[-1],
                           f"asymmetry {sym:.1e}, min eig {eigval[0]:.2e}"))
    tail = np.sort(eigval)[::-1][ens.nens - 1:]
    results.append(_result("ensemble.dense_covariance_rank_bound",
                           np.all(tail < 1e-10 * eigval[-1]),
                           f"largest beyond rank {tail.max():.2e}"))
    return results


# ---------------------------------------------------------------------------
# shrinkage estimation


def _shrinkage_checks() -> list:
    gen = np.random.default_rng(92)
    results = []

    worst1 = worst2 = 0.0
    for _ in range(6):
        ens = _random_ensemble(gen, int(gen.integers(20, 300)), int(gen.integers(3, 25)))
        svals = deviation_singular_values(deviations(ens))
        cov = dense_sample_covariance(ens)
        t1, t2 = float(np.trace(cov)), float(np.trace(cov @ cov))
        worst1 = max(worst1, abs(np.sum(svals**2) - t1) / t1)
        worst2 = max(worst2, abs(np.sum(svals**4) - t2) / t2)
    results.append(_result("shrinkage.trace_identities", worst1 < 1e-10 and worst2 < 1e-9,
                           f"worst relative error tr(P) {worst1:.2e}, tr(P^2) {worst2:.2e}"))

    ens = _random_ensemble(gen, 30, 8)
    _, gamma = rblw_parameters(
        deviation_singular_values(deviations(ens)), ens.nstate, ens.nens)
    q, _ = np.linalg.qr(gen.standard_normal((30, 30)))
    rotated = Ensemble(q @ ens.matrix)
    _, gamma_rot = rblw_parameters(
        deviation_singular_values(deviations(rotated)), ens.nstate, ens.nens)
    results.append(_result("shrinkage.gamma_rotation_invariant",
                           abs(gamma - gamma_rot) <= 1e-9 * max(1.0, gamma),
                           f"|gamma - rotated| = {abs(gamma - gamma_rot):.2e}"))

    cov = filters.estimate_shrinkage(ens)
    s = cov.deviations.columns
    dense = cov.phi * np.eye(ens.nstate) + cov.delta * (s @ s.T)
    smallest = float(np.linalg.eigvalsh(dense)[0])
    results.append(_result("shrinkage.shrunk_covariance_spd",
                           cov.gamma > 0.0 and smallest >= cov.phi * (1.0 - 1e-10),
                           f"min eig {smallest:.3e} vs phi {cov.phi:.3e}"))
    return results


# ---------------------------------------------------------------------------
# synthetic sampling


def _sampling_checks() -> list:
    gen = np.random.default_rng(93)
    results = []

    nstate, nens, k = 20, 5, 200_000
    ens = _random_ensemble(gen, nstate, nens)
    devs = deviations(ens)
    cov = ShrinkageCovariance(mu=1.0, gamma=0.3, deviations=devs)
    mean = gen.standard_normal(nstate)
    draws = draw_synthetic_members(cov, k, RngStream(7, 1))
    draws += mean[:, None]
    s = devs.columns
    dense = cov.phi * np.eye(nstate) + cov.delta * (s @ s.T)
    emp = np.cov(draws)
    frob = float(np.linalg.norm(emp - dense) / np.linalg.norm(dense))
    # worst sample-mean error in standard errors sqrt(diag(dense) / k)
    mean_err = float(np.max(np.abs(draws.mean(axis=1) - mean) / np.sqrt(np.diag(dense) / k)))
    results.append(_result("sampling.covariance_identity", frob < 0.03 and mean_err < 6.0,
                           f"relative Frobenius error {frob:.3f}, sample mean within "
                           f"{mean_err:.2f} standard errors over {k} draws"))

    # regenerate the two parts from the same per-member streams, part2 as one product
    part1 = np.empty((nstate, 4000))
    eps2 = np.empty((nens, 4000))
    stream = RngStream(7, 2)
    for i, g in enumerate(stream.member_generators(part1.shape[1])):
        part1[:, i] = np.sqrt(cov.phi) * standard_normal(g, nstate)
        eps2[:, i] = standard_normal(g, nens)
    part2 = np.sqrt(cov.delta) * (s @ eps2)
    summed = np.array_equal(draw_synthetic_members(cov, part1.shape[1], stream), part1 + part2)
    cross = part1 @ part2.T / (part1.shape[1] - 1)
    scale = float(np.linalg.norm(dense))
    rel = float(np.linalg.norm(cross)) / scale
    results.append(_result("sampling.parts_uncorrelated", summed and rel < 0.02,
                           f"cross-covariance at {rel:.3f} of signal scale, draws "
                           f"{'equal' if summed else 'differ from'} part1 + part2 bit-for-bit"))

    again = draw_synthetic_members(cov, 50, RngStream(7, 1)) + mean[:, None]
    results.append(_result("sampling.deterministic_streams",
                           np.array_equal(draws[:, :50], again),
                           "first 50 draws repeat bit-for-bit"))
    return results


# ---------------------------------------------------------------------------
# observation-space solvers


def _random_diagonal_system(gen, nobs: int, m: int, rhs_cols: int):
    """Gamma's diagonal, spread over two decades, with update columns and
    right-hand sides."""
    var = 10.0 ** gen.uniform(-1.0, 1.0, nobs)
    return var, gen.standard_normal((nobs, m)), gen.standard_normal((nobs, rhs_cols))


def _relative_residual(var, pi, rhs, w) -> float:
    """|(Gamma + Pi Pi.T) Z - rhs| / |rhs| with Gamma = diag(var), for the
    Z = Gamma^{-1} (rhs - Pi W) of the W that ``ismf_solve`` returns."""
    z = (rhs - pi @ w) / var[:, None]
    return float(np.linalg.norm(var[:, None] * z + pi @ (pi.T @ z) - rhs)
                 / np.linalg.norm(rhs))


def _solver_checks() -> list:
    gen = np.random.default_rng(94)
    results = []

    var, pi, rhs = _random_diagonal_system(gen, 2000, 100, 5)
    resid = _relative_residual(var, pi, rhs, ismf_solve(ObservationSpaceSystem(var, pi, rhs)))
    results.append(_result("solvers.ismf_residual", resid < 1e-8,
                           f"relative residual {resid:.2e} at nobs=2000, m=100"))

    var, pi, rhs = _random_diagonal_system(gen, 120, 12, 3)
    worst = 0.0
    for _ in range(10):
        perm = gen.permutation(pi.shape[1])
        w = ismf_solve(ObservationSpaceSystem(var, pi[:, perm], rhs))
        worst = max(worst, _relative_residual(var, pi[:, perm], rhs, w))
    results.append(_result("solvers.ismf_column_order_free", worst < 1e-8,
                           f"worst residual over 10 permutations {worst:.2e}"))

    # T = C^{-1/2} for the capacitance C = I + V.T R^{-1} V
    v = gen.standard_normal((30, 6))
    r_var = gen.uniform(0.5, 1.5, 30)
    eigval, eigvec = ensrf_transform(v, r_var)
    t = (eigvec / np.sqrt(eigval)) @ eigvec.T
    asym = float(np.abs(t - t.T).max())
    norm = float(np.linalg.norm(t, 2))
    inverse = float(np.abs(t @ (np.eye(6) + v.T @ (v / r_var[:, None])) @ t - np.eye(6)).max())
    results.append(_result("solvers.ensrf_transform_contractive",
                           asym < 1e-12 and norm <= 1.0 + 1e-10 and inverse < 1e-10,
                           f"asymmetry {asym:.1e}, spectral norm {norm:.12f}, |TCT - I| {inverse:.1e}"))
    return results


# ---------------------------------------------------------------------------
# filters


def _filter_instance(gen, nstate=12, nens=5, p=0.75, obs_std=0.1):
    ens = _random_ensemble(gen, nstate, nens)
    obs = ObservationSpec.from_fraction(nstate, p, obs_std)
    truth = gen.standard_normal(nstate)
    y = obs.project(truth) + obs_std * gen.standard_normal(obs.nobs)
    return ens, obs, y


def _filter_checks() -> list:
    gen = np.random.default_rng(95)
    ens, obs, y = _filter_instance(gen)
    results = [_zero_innovation_check(ens, obs, y)]

    # fresh streams for each call, so state kept in a stream object shows
    runs = {key: [filters.run_filter(key, ens, y, obs, RngStream(11), synthetic_members=4)
                  for _ in range(2)]
            for key in filters.FILTER_KEYS}
    unrepeated = [key for key, (a, b) in runs.items()
                  if not np.array_equal(a.analysis.matrix, b.analysis.matrix)]
    results.append(_result("filters.reproducible_under_seed", not unrepeated,
                           f"not repeated bit-for-bit: {', '.join(unrepeated)}" if unrepeated
                           else "all seven analyses repeat bit-for-bit"))

    miscounted = [key for key, (a, _) in runs.items()
                  if not isinstance(a, filters.AnalysisResult) or a.analysis.nens != ens.nens]
    results.append(_result("filters.no_synthetic_members_in_output", not miscounted,
                           f"member count differs from the background: {', '.join(miscounted)}"
                           if miscounted else "analysis member counts equal the background"))

    results.append(_fs_objective_check(gen))
    results.append(_rs_fs_span_check(gen))
    results.append(_enkf_n_stationary_check(gen))
    results.append(_shrinkage_memory_check(gen))
    return results


def _zero_innovation_check(ens, obs, y) -> CheckResult:
    """Zero innovations leave the stochastic filters' members and the
    deterministic filters' mean in place, each to its own tolerance
    (0 means bit for bit)."""
    rng = RngStream(11)
    zero_d = np.zeros((obs.nobs, ens.nens))
    mean_b = ens.matrix.mean(axis=1)

    def member_shift(res):
        return float(np.abs(res.analysis.matrix - ens.matrix).max())

    shifts = [
        ("enkf", member_shift(filters.enkf_analysis(ens, y, obs, rng, innovations=zero_d)), 0.0),
        ("enkf-fs", member_shift(filters.enkf_fs_analysis(ens, y, obs, 4, rng,
                                                          innovations=zero_d)), 0.0),
        ("enkf-rs", member_shift(filters.enkf_rs_analysis(ens, y, obs, 4, rng,
                                                          innovations=zero_d)), 1e-12),
    ]
    for key, tol in (("ensrf", 1e-13), ("entkf", 1e-13), ("enkf-n", 1e-10), ("enkf-du", 1e-10)):
        res = filters.run_filter(key, ens, obs.project(mean_b), obs, rng)
        shifts.append((key, float(np.abs(res.analysis.matrix.mean(axis=1) - mean_b).max()), tol))
    failed = [key for key, shift, tol in shifts if not (shift < tol or shift == 0.0)]
    detail = " ".join(f"{key}={shift:.1e}" for key, shift, _ in shifts)
    return _result("filters.zero_innovation_fixed_point", not failed,
                   f"moved: {', '.join(failed)}; {detail}" if failed else detail)


def orthonormal_complement(frame: np.ndarray, ncols: int) -> np.ndarray:
    """ncols orthonormal columns orthogonal to the orthonormal columns of
    ``frame``: eigenvectors of the projector I - frame frame.T for its
    eigenvalue 1."""
    _, vec = np.linalg.eigh(np.eye(frame.shape[0]) - frame @ frame.T)
    return vec[:, vec.shape[1] - ncols:]


def replayed_roots(rng: RngStream, groups: list, k: int, banded: int | None = None) -> list:
    """The roots R_g that a compressed shrinkage step on ``rng`` draws for
    its row groups (``filters._row_groups``); (0, k) for a group without.
    Group ``banded`` takes FS's :func:`bidiagonal_root`, as a dense
    (min(nu, k), k) matrix."""
    roots = []
    for i, g in enumerate(groups):
        stream = rng.child(filters._ROOT_STREAM, i)
        if not g.roots:
            roots.append(np.zeros((0, k)))
        elif i == banded:
            diag, upper = bidiagonal_root(stream, g.nu, k)
            root = np.zeros((g.roots, k))
            root[np.arange(diag.size), np.arange(diag.size)] = diag
            root[np.arange(upper.size), np.arange(1, upper.size + 1)] = upper
            roots.append(root)
        else:
            roots.append(wishart_root(stream, g.nu, k))
    return roots


def replayed_synthetic(cov, groups: list, normals: np.ndarray, roots: list,
                       complements: list, nstate: int) -> np.ndarray:
    """Synthetic deviations sqrt(phi) E1 + sqrt(delta) S E2, (nstate, k), with
    E1_g = B Z_g + C_g R_g on each group's rows and 0 on rows of no group:
    Z stacks the groups' rows of ``normals``, one per basis column, and E2
    is the rest."""
    e1, z_row = np.zeros((nstate, normals.shape[1])), 0
    for g, comp, root in zip(groups, complements, roots):
        b = g.basis.shape[1]
        e1[g.rows] = g.basis @ normals[z_row:z_row + b] + comp @ root
        z_row += b
    return np.sqrt(cov.phi) * e1 + np.sqrt(cov.delta) * (cov.deviations.columns @ normals[z_row:])


def replayed_complements(rng: RngStream, groups: list, roots: list, factor: np.ndarray) -> list:
    """Per group, an orthonormal C off the basis B, as many columns as the
    root R has rows, for which C A is the frame term
    ``filters._frame_term`` that the step on ``rng`` draws for A = R factor.

    With (ev, V) the top eigenpairs of A.T A and F the same frame off B,
    C = F U_r.T + G W.T: U_r = A V / sqrt(ev) over the positive ev, W spans
    the complement of U_r and G is a frame off [B, F]. Then
    C A = F diag(sqrt(ev)) V.T.
    """
    complements = []
    for i, (g, root) in enumerate(zip(groups, roots)):
        if not g.roots:
            complements.append(np.zeros((g.rows.size, 0)))
            continue
        a = root @ factor
        ev, vec = np.linalg.eigh(a.T @ a)
        r = min(a.shape)
        frame = haar_frame(rng.child(filters._FRAME_STREAM, i), g.basis, r)
        positive = ev[-r:] > 1e-12 * max(ev[-1], 1e-300)
        frame, ev, vec = frame[:, positive], ev[-r:][positive], vec[:, -r:][:, positive]
        u_r = a @ vec / np.sqrt(ev)
        rest = g.roots - u_r.shape[1]
        others = orthonormal_complement(np.hstack([g.basis, frame]), rest)
        complements.append(frame @ u_r.T + others @ orthonormal_complement(u_r, rest).T)
    return complements


def fs_replayed_members(ens, obs, cov, d, k, rng) -> np.ndarray:
    """Synthetic members less the real mean, (nstate, k), whose dense
    full-space update with prior Bhat = phi I + delta * (extended scaled
    deviations) equals ``filters.enkf_fs_analysis(ens, ..., k, rng,
    innovations=d)``.

    The observed rows replay the step's coordinates Z, with E2, and roots
    R as E1_g = B Z + C R, with C from :func:`replayed_complements`; the
    banded group's R is its bidiagonal root, dense. The
    step's unobserved rows hold c sqrt(phi) G M in place of c sqrt(phi)
    E1_u W_s, with G its replayed normal block and M the symmetric root of
    W_s.T W_s. The rows of M lie in the row space of W_s, so
    E1_u = G M W_s^+ gives E1_u W_s = G M. W = Pi.T (Gamma + Pi Pi.T)^{-1} D
    comes from a dense solve; it reads E1 only through Z and R.T R, so a
    first replay with any orthonormal C off B gives it.
    """
    nens = ens.nens
    groups = filters._row_groups(obs, cov.deviations.columns, d, k, unobserved=False)
    normals = member_normals(rng.child(filters._SYNTH_STREAM), k,
                             sum(g.basis.shape[1] for g in groups) + nens)
    roots = replayed_roots(rng, groups, k, filters._banded_group(groups))
    first = replayed_synthetic(cov, groups, normals, roots,
                               [orthonormal_complement(g.basis, g.roots) for g in groups],
                               ens.nstate)
    scale = np.sqrt(cov.delta / (nens + k - 1))
    pi = scale * obs.project(np.hstack([ens.matrix - ens.matrix.mean(axis=1)[:, None], first]))
    w_syn = (pi.T @ np.linalg.solve(np.diag(obs.variances + cov.phi) + pi @ pi.T, d))[nens:]
    members = replayed_synthetic(
        cov, groups, normals, roots,
        replayed_complements(rng, groups, roots, scale * np.sqrt(cov.phi) * w_syn), ens.nstate)
    lam, vec = np.linalg.eigh(w_syn.T @ w_syn)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    unobserved = np.setdiff1d(np.arange(ens.nstate), obs.indices)
    normals = member_normals(rng.child(filters._UNOBSERVED_STREAM), nens, unobserved.size)
    members[unobserved] += np.sqrt(cov.phi) * (normals @ root @ np.linalg.pinv(w_syn))
    return members


def _fs_objective_check(gen) -> CheckResult:
    ens, obs, y = _filter_instance(gen, nstate=15, nens=6, p=0.8)
    rng = RngStream(13)
    k = 9
    res = filters.enkf_fs_analysis(ens, y, obs, k, rng)

    # rebuild the filter's internal quantities from the same streams
    cov = filters.estimate_shrinkage(ens)
    perturbed = perturb_observations(y, obs, ens.nens, rng.child(filters._OBS_STREAM))
    mean_b = ens.matrix.mean(axis=1)
    d = perturbed - obs.project(ens.matrix)
    replayed = fs_replayed_members(ens, obs, cov, d, k, rng)
    sdev = np.hstack([ens.matrix - mean_b[:, None], replayed]) / np.sqrt(ens.nens + k - 1)
    bhat = cov.phi * np.eye(ens.nstate) + cov.delta * (sdev @ sdev.T)
    data = perturbed.mean(axis=1)

    def objective(x):
        dx = x - mean_b
        dy = data - obs.project(x)
        return 0.5 * dx @ np.linalg.solve(bhat, dx) + 0.5 * dy @ (dy / obs.variances)

    before = objective(mean_b)
    after = objective(res.analysis.matrix.mean(axis=1))
    return _result("filters.fs_decreases_objective",
                   after <= before + 1e-12 * abs(before),
                   f"objective {before:.6f} -> {after:.6f}")


def _rs_fs_span_check(gen) -> CheckResult:
    """Where the basis spans the state, RS is the dense Kalman update with
    prior Bhat = phi I + delta S S.T, whatever the synthetic draws are, and
    at k = 0 so is FS. The innovations are injected, so two streams differ
    only in the draws. Shapes (nstate, nens, k): a full real span and a
    square basis with draws, both nens + k - 1 = nstate and so on RS's tall
    path, and a wide basis, where RS draws nothing and inverts its weight
    matrix by Woodbury through an nens-square system."""
    rs_gap = fs_gap = 0.0
    for nstate, nens, k in ((8, 9, 0), (12, 5, 8), (12, 5, 20)):
        ens = _random_ensemble(gen, nstate, nens)
        obs = ObservationSpec.from_fraction(nstate, 0.75, 0.1)
        y = gen.standard_normal(obs.nobs)
        d = 0.1 * gen.standard_normal((obs.nobs, nens))
        cov = filters.estimate_shrinkage(ens)
        s = cov.deviations.columns
        bht = obs.project(cov.phi * np.eye(nstate) + cov.delta * (s @ s.T)).T
        kalman = ens.matrix + bht @ np.linalg.solve(obs.project(bht) + np.diag(obs.variances), d)
        scale = max(1.0, float(np.abs(kalman).max()))
        for seed in (17, 18):
            rs = filters.enkf_rs_analysis(ens, y, obs, k, RngStream(seed), innovations=d)
            rs_gap = max(rs_gap, float(np.abs(rs.analysis.matrix - kalman).max()) / scale)
            if k == 0:
                fs = filters.enkf_fs_analysis(ens, y, obs, k, RngStream(seed), innovations=d)
                fs_gap = max(fs_gap, float(np.abs(fs.analysis.matrix - kalman).max()) / scale)
    return _result("filters.rs_equals_fs_on_full_span", rs_gap < 1e-9 and fs_gap < 1e-9,
                   f"max relative gap to the Kalman update with Bhat: rs {rs_gap:.2e}, "
                   f"fs {fs_gap:.2e} (k = 0)")


def _enkf_n_stationary_check(gen) -> CheckResult:
    """The enkf-n mean is a stationary point of the primal cost: the least
    squares w of mean_a - mean_b = U w zeroes ``filters.enkf_n_gradient``,
    relative to its norm at w = 0, on Lorenz-96 and QG sized ensembles."""
    worst = 0.0
    for nstate, nens in ((40, 20), (961, 40)):
        for obs_std in (1.0, 1e-2, 1e-5):
            ens, obs, y = _filter_instance(gen, nstate, nens, 0.7, obs_std)
            mean_a = filters.enkf_n_analysis(ens, y, obs).analysis.matrix.mean(axis=1)
            mean_b = ens.matrix.mean(axis=1)
            u = ens.matrix - mean_b[:, None]
            w = np.linalg.lstsq(u, mean_a - mean_b, rcond=None)[0]
            q, d0, rinv = obs.project(u), y - obs.project(mean_b), 1.0 / obs.variances
            grad = float(np.linalg.norm(filters.enkf_n_gradient(w, q, d0, rinv, nens)))
            worst = max(worst, grad / max(1.0, float(np.linalg.norm(q.T @ (rinv * d0)))))
    return _result("filters.enkf_n_stationary", worst < 1e-10,
                   f"worst relative primal gradient {worst:.2e} at obs_std 1, 1e-2, 1e-5")


def _shrinkage_memory_check(gen) -> CheckResult:
    """FS and RS hold no whole extended ensemble: one enkf-fs and one
    enkf-rs analysis on a qg-65 shaped ensemble (nstate 3969, nens 40,
    k 400, p 0.7) each peak below 1.0 (nstate, nens + k) float64 arrays of
    tracemalloc-traced memory. Neither forms a row of its synthetic
    members. FS reads 0.80, against 1.26 when it drew the observed rows of
    every member into an (nobs, nens + k) buffer, and its peak is the basis
    of its observed group (``filters._row_groups``). Its compressed system,
    the 79 dense rows by nens + k, the banded root's two diagonals and a
    79-square matrix on the row side, peaks at 0.34 arrays; the 479 rows
    and the 440-square capacitance it held before the banded root peaked
    at 0.57, under the same 0.80. RS holds the compressed rows of
    its basis (918 by nens + k - 1, 0.23 arrays), the bases of its row
    groups and its weight matrix, and reads 0.89, against 1.64 when it drew
    every row into an (nstate, nens + k) buffer."""
    nstate, nens, k = 3969, 40, 400
    ens, obs, y = _filter_instance(gen, nstate, nens, 0.7, 0.1)
    unit = nstate * (nens + k) * 8
    bounds = {"enkf-fs": 1.0, "enkf-rs": 1.0}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    peaks = {}
    try:
        for key in bounds:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            filters.run_filter(key, ens, y, obs, RngStream(19), synthetic_members=k)
            peaks[key] = (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        if started:
            tracemalloc.stop()
    return _result("filters.shrinkage_peak_memory",
                   all(peaks[key] < bound for key, bound in bounds.items()),
                   ", ".join(f"{key} peaks at {peaks[key]:.2f} (bound {bound})"
                             for key, bound in bounds.items())
                   + " (nstate, nens + k) arrays")


# ---------------------------------------------------------------------------
# models


def _model_checks() -> list:
    gen = np.random.default_rng(96)
    results = []
    grid = models.QgGrid(17)
    n = grid.n
    # zero-flux fields: the integral identities hold only without a
    # discrete boundary flux, so taper the outermost interior ring
    psi = np.zeros((n, n))
    omega = np.zeros((n, n))
    psi[1:-1, 1:-1] = gen.standard_normal((n - 2, n - 2))
    omega[1:-1, 1:-1] = gen.standard_normal((n - 2, n - 2))
    jac = models.arakawa_jacobian(models.pad(psi), models.pad(omega), grid)
    scale = float(np.abs(jac).max())
    full_psi = gen.standard_normal((n, n))
    full_omega = gen.standard_normal((n, n))
    full_jac = models.arakawa_jacobian(models.pad(full_psi), models.pad(full_omega), grid)
    sums = (abs(jac.sum()) / scale,
            abs((full_psi * full_jac).sum()) / float(np.abs(full_jac).max()),
            abs((full_omega * full_jac).sum()) / float(np.abs(full_jac).max()))
    worst = max(s / grid.nstate for s in sums)
    results.append(_result("models.arakawa_conservation", worst < 1e-10,
                           f"worst normalized conservation sum {worst:.2e}"))

    w1 = gen.standard_normal((n, n))
    w2 = gen.standard_normal((n, n))
    lhs = models.poisson_solve(2.0 * w1 - 3.0 * w2, grid)
    rhs = 2.0 * models.poisson_solve(w1, grid) - 3.0 * models.poisson_solve(w2, grid)
    lin = float(np.abs(lhs - rhs).max() / max(1e-30, np.abs(lhs).max()))
    results.append(_result("models.poisson_linear", lin < 1e-10,
                           f"relative linearity defect {lin:.2e}"))

    model = models.get_model("qg-33")
    state = model.initial_state()
    for _ in range(1000):
        state = model.step(state)
    results.append(_result("models.qg33_stable_1000_steps",
                           np.all(np.isfinite(state)) and np.abs(state).max() > 1e-8,
                           f"final max |vorticity| {np.abs(state).max():.3f}"))

    def err(dt):
        x = np.array([1.0])
        steps = int(round(1.0 / dt))
        for _ in range(steps):
            x = models.rk4_step(lambda s: -s, x, dt)
        return abs(float(x[0]) - np.exp(-1.0))

    ratio = err(0.1) / err(0.05)
    results.append(_result("models.rk4_fourth_order", 14.0 <= ratio <= 18.0,
                           f"error ratio under halved dt {ratio:.2f}"))
    return results


# ---------------------------------------------------------------------------
# harness


def _base_config(filter_key="ensrf", model="l96-8", nens=4, cycles=3):
    return harness.ExperimentConfig(
        model=model, filter=filter_key, nens=nens, p=0.75, sigma_b=0.1,
        n_cycles=cycles, rng_seed=20_25, synthetic_ratio=2.0)


def _run_csv_rows(cfg) -> list:
    """Run CSV rows with the wall-clock column masked (it is a measurement)."""
    res = harness.run_twin_experiment(cfg)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "run.csv")
        harness.write_run_csv(res, path)
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
    return [cells[:2] + cells[3:] for cells in rows]


def _harness_checks() -> list:
    results = []
    cfg = _base_config()
    results.append(_result("harness.run_reproducible",
                           _run_csv_rows(cfg) == _run_csv_rows(cfg),
                           "identical config and seed give identical numbers"))

    model = models.get_model(cfg.model)
    obs = ObservationSpec.from_fraction(model.nstate, cfg.p, cfg.obs_std)
    t0a, ta, oa = harness.build_truth_and_observations(cfg, model, obs)
    t0b, tb, ob = harness.build_truth_and_observations(cfg, model, obs)
    shared = (np.array_equal(t0a, t0b)
              and all(np.array_equal(x, y) for x, y in zip(ta, tb))
              and all(np.array_equal(x, y) for x, y in zip(oa, ob)))
    results.append(_result("harness.shared_truth_and_observations", shared,
                           "paired comparisons reuse one realization"))

    finite = True
    detail = []
    for key in filters.FILTER_KEYS:
        res = harness.run_twin_experiment(_base_config(filter_key=key))
        finite = finite and np.isfinite(res.total_rmse)
        detail.append(f"{key}={res.total_rmse:.3f}")
    results.append(_result("harness.all_filters_finite_rmse", finite,
                           " ".join(detail)))
    return results


def run_all() -> list:
    """Execute the full property suite; returns one result per invariant."""
    return _collect([
        _ensemble_checks, _shrinkage_checks, _sampling_checks,
        _solver_checks, _filter_checks, _model_checks, _harness_checks,
    ])
