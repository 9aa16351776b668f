"""Linear solvers shared by the filters, one kernel per system shape.

``ismf_solve`` solves the observation-space system (Gamma + Pi @ Pi.T) Z =
rhs, for the diagonal Gamma every filter has, through its m x m
capacitance matrix (Woodbury) and returns W = Pi.T @ Z, the only part
of the solution the filters read. ``weighted_gram`` is the blocked
weighted Gram behind that capacitance. ``cholesky_solve`` is the one SPD
solve, and ``triangular_solve`` the blocked substitution behind it.
``entkf_factors`` is the ensemble-space eigen kernel behind the ETKF, the
dual finite-size step and, shifted by one, the EnSRF's capacitance
(``ensrf_transform``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Row block of the blocked triangular solves: a system of at most this
# many unknowns is one block, solved as a whole.
TRIANGULAR_BLOCK = 64
# Rows per block of ``weighted_gram``, which builds the capacitance matrix
# of ``ismf_solve``: a weighted copy of this many rows, 1.7 MiB at 440
# columns, is its one temporary, not a copy of the whole matrix.
# On qg-65 (2 vCPU), 1024-row blocks left a 7-filter compare's peak RSS
# at 131 MiB against 126 MiB.
GRAM_ROW_BLOCK = 512


@dataclass(frozen=True)
class ObservationSpaceSystem:
    """System (Gamma + Pi @ Pi.T) @ Z = rhs with a diagonal SPD Gamma.

    ``gamma_diagonal`` holds the nobs diagonal entries of Gamma, all
    positive, ``pi`` the (nobs, m) low-rank update columns and ``rhs`` the
    right-hand sides.
    """

    gamma_diagonal: np.ndarray
    pi: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.gamma_diagonal, dtype=float)
        pi = np.atleast_2d(np.asarray(self.pi, dtype=float))
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.ndim == 1:
            rhs = rhs[:, None]
        if diag.ndim != 1 or not diag.shape[0] == pi.shape[0] == rhs.shape[0]:
            raise ValueError("gamma_diagonal must be a vector with the row count of Pi and rhs")
        if np.any(diag <= 0.0):
            raise ValueError("diagonal entries must be positive")
        object.__setattr__(self, "gamma_diagonal", diag)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "rhs", rhs)


def weighted_gram(a: np.ndarray, sqrt_weights: np.ndarray, rhs: np.ndarray):
    """(B.T @ B, B.T @ (sqrt_weights * rhs)) for B = diag(sqrt_weights) @ a.

    Summed over ``GRAM_ROW_BLOCK``-row blocks as symmetric rank-k products
    B_b.T @ B_b (BLAS SYRK), so the Gram is exactly symmetric; each block
    of ``a`` and of ``rhs`` is weighted inside the loop, so no weighted
    copy of either is formed whole.
    """
    gram = np.zeros((a.shape[1], a.shape[1]))
    cross = np.zeros((a.shape[1], rhs.shape[1]))
    for start in range(0, a.shape[0], GRAM_ROW_BLOCK):
        rows = slice(start, start + GRAM_ROW_BLOCK)
        block = a[rows] * sqrt_weights[rows, None]
        gram += block.T @ block
        cross += block.T @ (rhs[rows] * sqrt_weights[rows, None])
    return gram, cross


def ismf_solve(sys: ObservationSpaceSystem) -> np.ndarray:
    """W = Pi.T @ Z for the solution Z of (Gamma + Pi @ Pi.T) @ Z = rhs: the
    ISMF identity applied to all columns of Pi at once.

    With the capacitance matrix C = I + Pi.T @ Gamma^{-1} @ Pi and
    T = Pi.T @ Gamma^{-1} rhs, both from :func:`weighted_gram`, W = C^{-1} T
    by the push-through identity Pi.T (Gamma + Pi Pi.T)^{-1} =
    C^{-1} Pi.T Gamma^{-1}. A caller that needs Z takes it as
    Z = Gamma^{-1} (rhs - Pi @ W) (Woodbury). C is factored once by
    Cholesky; cost is O(m^2 * nobs + m^3) in BLAS-3 beyond the diagonal
    scalings. Every eigenvalue of C is at least one, so a failed
    factorization can only come from rounding or non-finite input and
    raises ``ValueError``; there is no fallback.
    """
    capacitance, t = weighted_gram(sys.pi, np.sqrt(1.0 / sys.gamma_diagonal), sys.rhs)
    capacitance[np.diag_indices_from(capacitance)] += 1.0
    w, _ = cholesky_solve(capacitance, t,
                          "capacitance matrix I + Pi.T Gamma^{-1} Pi is not positive definite")
    return w


def cholesky_factor(matrix: np.ndarray, failure: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite ``matrix``;
    a failed factorization raises ``ValueError(failure)``."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(failure) from exc


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray, failure: str):
    """Solve matrix @ X = rhs for symmetric positive definite ``matrix``.

    Returns X and the lower Cholesky factor L. A failed factorization
    raises ``ValueError(failure)``; there is no fallback.
    """
    lower = cholesky_factor(matrix, failure)
    # numpy.linalg has no triangular solver, so L and L.T are solved by
    # blocked substitution (GEMM updates, np.linalg.solve on each diagonal
    # block) instead of a full LU of each factor: 15.5 -> 7.7 ms at
    # 439 x 439 with 40 right-hand sides. scipy.linalg's potrf/potrs link
    # scipy's own OpenBLAS, whose thread pool fought numpy's and slowed
    # every filter on qg33-compare (3 alternating pairs, 2 vCPU): setup_s
    # 0.30-0.32 -> 0.41-0.52 s, cycle_s.entkf 0.081 -> 0.088-0.099 s,
    # cycle_s.enkf-rs 0.159-0.166 -> 0.192-0.199 s
    forward = triangular_solve(lower, rhs, lower=True)
    return triangular_solve(lower.T, forward, lower=False), lower


def triangular_solve(tri: np.ndarray, rhs: np.ndarray, *, lower: bool) -> np.ndarray:
    """Solve tri @ X = rhs for a lower (or upper) triangular ``tri``.

    Forward (or back) substitution over ``TRIANGULAR_BLOCK``-row blocks:
    each block of X takes one GEMM update from the blocks already solved,
    then ``np.linalg.solve`` on its diagonal block, so a system of at most
    ``TRIANGULAR_BLOCK`` unknowns is a single ``np.linalg.solve``.
    """
    n = tri.shape[0]
    x = np.array(rhs, dtype=float)
    starts = range(0, n, TRIANGULAR_BLOCK)
    for start in starts if lower else reversed(starts):
        block = slice(start, min(start + TRIANGULAR_BLOCK, n))
        solved = slice(0, start) if lower else slice(block.stop, n)
        if solved.start < solved.stop:
            x[block] -= tri[block, solved] @ x[solved]
        x[block] = np.linalg.solve(tri[block, block], x[block])
    return x


def ensrf_transform(v: np.ndarray, r_variances: np.ndarray):
    """Eigenpairs (eigval, eigvec) of the square-root filter's capacitance
    C = I + G.T @ G, G = R^{-1/2} V for R = diag(``r_variances``): the
    eigenpairs of :func:`entkf_factors`, eigenvalues shifted by one, so
    none is below one.

    C^{-1} = I - V.T (R + V V.T)^{-1} V (Woodbury), so C^{-1/2} is the
    EnSRF's symmetric contraction (Tippett et al., 2003), here without the
    cancelling difference of an observation-space solve.
    """
    lam, vec, _ = entkf_factors(v, 0.0, r_variances)
    return 1.0 + lam, vec


def entkf_factors(q: np.ndarray, innovation: np.ndarray, r_variances: np.ndarray):
    """Ensemble-space eigen kernel shared by the deterministic filters.

    With G = R^{-1/2} Q for Q = H @ U (observed anomalies) and the whitened
    innovation R^{-1/2} d, returns (lam, vec, proj): the eigenpairs of
    G.T @ G, eigenvalues clipped at zero, and proj = vec.T @ G.T @ R^{-1/2} d.
    For any zeta > 0 the weight matrix G.T @ G + zeta I is then
    vec diag(lam + zeta) vec.T, and the mean weights are
    vec @ (proj / (lam + zeta)).
    """
    sqrt_rinv = np.sqrt(1.0 / np.asarray(r_variances, dtype=float))
    g = q * sqrt_rinv[:, None]
    dw = innovation * sqrt_rinv
    lam, vec = np.linalg.eigh(g.T @ g)
    lam = np.clip(lam, 0.0, None)
    return lam, vec, vec.T @ (g.T @ dw)
