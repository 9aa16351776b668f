"""Linear solvers shared by the filters.

The iterative Sherman-Morrison formula (ISMF) solves
(Gamma + Pi @ Pi.T) @ Z = rhs by folding in the columns of Pi one rank-one
update at a time, for the diagonal Gamma every filter has.
``ismf_solve`` applies the same identity to all columns at once, as a
Woodbury solve with an m x m capacitance matrix; ``cholesky_solve`` is
the one SPD solve, shared with the reduced-space filter, and
``triangular_solve`` the blocked substitution behind it.
``ensrf_transform`` is the eigen decomposition of the EnSRF's capacitance
matrix, whose inverse square root contracts its anomalies;
``entkf_factors`` is the ensemble-space eigen kernel behind the ETKF and
the dual finite-size step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Row block of the blocked triangular solves: a system of at most this
# many unknowns is one block, solved as a whole.
TRIANGULAR_BLOCK = 64
# Rows per block of the Gram-type products A.T diag(w) A of the shrinkage
# filters (the capacitance matrix here, the reduced-space weight matrix in
# ``filters.enkf_rs_system``): a weighted copy of this many rows of A,
# 1.7 MiB at 440 columns, is their one temporary, not a copy of all of A.
# On qg-65 (2 vCPU), 1024-row blocks left a 7-filter compare's peak RSS
# at 131 MiB against 126 MiB, and made the reduced-space Gram (3969 rows)
# about 2.5 ms faster per analysis, within 0.2 ms of one whole product.
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


def ismf_solve(sys: ObservationSpaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve (Gamma + Pi @ Pi.T) @ Z = rhs with the ISMF identity applied to
    all columns of Pi at once; returns (Z, W) with W = Pi.T @ Z.

    With the capacitance matrix C = I + Pi.T @ Gamma^{-1} @ Pi and
    T = Pi.T @ Gamma^{-1} rhs, W = C^{-1} T and
    Z = Gamma^{-1} rhs - Gamma^{-1} @ Pi @ W (Woodbury); W equals Pi.T @ Z
    by the push-through identity, so a caller needs no second product with
    Pi. Pi is read only through ``GRAM_ROW_BLOCK``-row blocks: one pass
    sums C, as the symmetric rank-k products B.T @ B of the blocks
    B = Gamma^{-1/2} Pi_b, and T; a second applies the correction. No
    weighted (nobs, m) copy of Pi is formed. C is
    factored once by Cholesky; cost is O(m^2 * nobs + m^3) in BLAS-3
    beyond the diagonal scalings. Every eigenvalue of C is at least one,
    so a failed factorization can only come from rounding or non-finite
    input and raises ``ValueError``; there is no fallback.
    """
    diag = sys.gamma_diagonal[:, None]
    scale = np.sqrt(1.0 / diag)
    m = sys.pi.shape[1]
    capacitance = np.zeros((m, m))
    t = np.zeros((m, sys.rhs.shape[1]))
    blocks = [slice(start, start + GRAM_ROW_BLOCK) for start in range(0, diag.shape[0], GRAM_ROW_BLOCK)]
    for block in blocks:
        b = sys.pi[block] * scale[block]
        capacitance += b.T @ b
        t += b.T @ (sys.rhs[block] * scale[block])
    capacitance[np.diag_indices_from(capacitance)] += 1.0
    w, _ = cholesky_solve(capacitance, t,
                          "capacitance matrix I + Pi.T Gamma^{-1} Pi is not positive definite")
    z = sys.rhs / diag
    for block in blocks:
        z[block] -= (sys.pi[block] @ w) / diag[block]
    return z, w


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
    C = I + G.T @ G, G = R^{-1/2} V for R = diag(``r_variances``).

    C^{-1} = I - V.T (R + V V.T)^{-1} V (Woodbury), so C^{-1/2} is the
    EnSRF's symmetric contraction (Tippett et al., 2003), here without the
    cancelling difference of an observation-space solve. Eigenvalues that
    rounding leaves below one, the least any eigenvalue of C can be, are
    clipped to one.
    """
    g = v * np.sqrt(1.0 / np.asarray(r_variances, dtype=float))[:, None]
    eigval, eigvec = np.linalg.eigh(g.T @ g)
    return np.clip(1.0 + eigval, 1.0, None), eigvec


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
