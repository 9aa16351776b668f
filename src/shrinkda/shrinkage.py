"""Rao-Blackwell Ledoit-Wolf (RBLW) shrinkage of ensemble covariances.

RBLW reads only tr(P) and tr(P^2) of the sample covariance P = S @ S.T,
and both are power sums of the nonzero eigenvalues of P, which are those
of the nens-square Gram S.T @ S. The coefficients are evaluated from the
Gram's spectrum, so neither the (nstate, nstate) covariance nor an SVD
of the (nstate, nens) deviations is formed. The plain Ledoit-Wolf and
OAS estimators are not carried: no filter uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import DeviationMatrix


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


def deviation_singular_values(devs: DeviationMatrix) -> np.ndarray:
    """Nonincreasing singular values of the deviation matrix, nens of them.

    They are the square roots of the eigenvalues of the nens-square Gram
    S.T @ S. Rounding leaves the Gram's null directions (at least one,
    the ones vector, because the columns sum to zero) eigenvalues of
    order eps * lambda_max, whose roots would read about 1e-8 of the
    largest singular value, so eigenvalues at most nens * eps *
    lambda_max read as 0. A Gram that overflows, or underflows to zero
    whole, raises ``ValueError``: deviations of about 1e154 and more or
    1e-162 and less.
    """
    cols = devs.columns
    if not np.any(cols):
        raise ValueError("zero deviations")
    with np.errstate(over="ignore"):
        gram = cols.T @ cols
    if not (np.all(np.isfinite(gram)) and np.trace(gram) > 0.0):
        raise ValueError("deviations overflow or underflow their Gram matrix")
    lam = np.linalg.eigvalsh(gram)[::-1]
    lam[lam <= devs.nens * np.finfo(float).eps * lam[0]] = 0.0
    return np.sqrt(lam)


def rblw_parameters(sing_vals, nstate: int, nens: int):
    """RBLW shrinkage coefficients from deviation singular values.

    Returns ``(mu, gamma)`` where mu is the mean sample variance
    tr(P)/nstate and gamma the min-clamped RBLW shrinkage intensity. Only
    the traces tr(P) and tr(P^2) enter, and both reduce to power sums of
    the singular values. The sums are taken over the singular values
    divided by the largest, so the fourth powers neither underflow nor
    overflow; gamma, a ratio of degree-4 terms, does not change. P = S @ S.T
    is normalised by 1/(nens - 1) and the numerator carries
    (nens - 2)/nstate * tr(P^2); Chen et al. (2010, eq. 17) normalise by
    1/n and write (n - 2)/n with n the sample count.

    :func:`deviation_singular_values` decides which singular values are
    zero; the sums skip exactly those, so inserting zeros anywhere leaves
    (mu, gamma) unchanged to the bit.
    """
    if nens < 3:
        raise ValueError("too few members for RBLW")
    svals = np.asarray(sing_vals, dtype=float)
    kept = svals[svals > 0.0]
    if kept.size == 0:
        raise ValueError("zero deviations")
    top = kept.max()
    kept /= top
    trace_p = float(np.sum(kept**2))
    trace_p2 = float(np.sum(kept**4))
    mu = trace_p * top**2 / nstate
    numer = (nens - 2) / nstate * trace_p2 + trace_p**2
    denom = (nens + 2) * (trace_p2 - trace_p**2 / nstate)
    gamma = 1.0 if denom <= 0.0 else min(numer / denom, 1.0)
    return mu, gamma
