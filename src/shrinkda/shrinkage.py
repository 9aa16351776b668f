"""Rao-Blackwell Ledoit-Wolf (RBLW) shrinkage of ensemble covariances.

The RBLW coefficients are evaluated matrix-free from the singular values
of the deviation matrix, so the sample covariance is never formed. The
plain Ledoit-Wolf and OAS estimators are not carried: no filter uses
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import DeviationMatrix

# Singular values below this fraction of the largest are treated as zero
# rank; tiny values must not pollute the fourth-power sums.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class ShrinkageCovariance:
    """Implicit covariance estimate phi * I + delta * S @ S.T.

    Holds the mean variance mu, the shrinkage intensity gamma and the
    deviations S; phi = mu * gamma and delta = 1 - gamma follow from them.
    The matrix itself is never formed. Built by
    :func:`shrinkda.filters.estimate_shrinkage`.
    """

    mu: float
    gamma: float
    deviations: DeviationMatrix

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        # a nan or inf mu passes a plain mu < 0 test and would surface only
        # later, as non-finite synthetic members
        if not (np.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError("mu must be finite and nonnegative")

    @property
    def phi(self) -> float:
        return self.mu * self.gamma

    @property
    def delta(self) -> float:
        return 1.0 - self.gamma

    @property
    def nstate(self) -> int:
        return self.deviations.nstate


def deviation_singular_values(devs: DeviationMatrix) -> np.ndarray:
    """Nonincreasing singular values of the deviation matrix, padded to nens.

    Their squares are the nonzero eigenvalues of S @ S.T; at most nens - 1
    of them exceed the rank tolerance because the columns sum to zero.
    """
    cols = devs.columns
    if not np.any(cols):
        raise ValueError("zero deviations")
    svals = np.linalg.svd(cols, compute_uv=False)
    if svals.shape[0] < devs.nens:
        svals = np.concatenate([svals, np.zeros(devs.nens - svals.shape[0])])
    return svals


def rblw_parameters(sing_vals, nstate: int, nens: int):
    """RBLW shrinkage coefficients from deviation singular values.

    Returns ``(mu, gamma)`` where mu is the mean sample variance
    tr(P)/nstate and gamma the min-clamped RBLW shrinkage intensity. Only
    the traces tr(P) and tr(P^2) enter, and both reduce to power sums of
    the singular values. P = S @ S.T is normalised by 1/(nens - 1) and the
    numerator carries (nens - 2)/nstate * tr(P^2); Chen et al. (2010,
    eq. 17) normalise by 1/n and write (n - 2)/n with n the sample count.
    """
    if nens < 3:
        raise ValueError("too few members for RBLW")
    svals = np.asarray(sing_vals, dtype=float)
    if svals.size == 0 or not np.any(svals > 0.0):
        raise ValueError("zero deviations")
    kept = svals[svals > RANK_TOL * svals.max()]
    trace_p = float(np.sum(kept**2))
    trace_p2 = float(np.sum(kept**4))
    mu = trace_p / nstate
    numer = (nens - 2) / nstate * trace_p2 + trace_p**2
    denom = (nens + 2) * (trace_p2 - trace_p**2 / nstate)
    gamma = 1.0 if denom <= 0.0 else min(numer / denom, 1.0)
    return mu, gamma

