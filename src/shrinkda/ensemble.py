"""Ensemble container and the empirical statistics every filter consumes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# dense_sample_covariance is a test/diagnostic oracle; refuse to build
# giant matrices by accident.
DENSE_ORACLE_CAP = 500


@dataclass(frozen=True)
class Ensemble:
    """Collection of state vectors stored as an (nstate, nens) matrix.

    Each column holds one member, contiguous in memory so that filter
    operations stream over members. The matrix is copied and frozen on
    construction; instances are safe to share between threads.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, order="F")
        if m.ndim != 2:
            raise ValueError("ensemble matrix must be 2-D (nstate, nens)")
        if m.shape[1] == 0:
            raise ValueError("empty ensemble")
        if m.shape[0] == 0:
            raise ValueError("ensemble members must have at least one component")
        if not np.all(np.isfinite(m)):
            raise ValueError("ensemble contains non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def nstate(self) -> int:
        return self.matrix.shape[0]

    @property
    def nens(self) -> int:
        return self.matrix.shape[1]

    def member(self, i: int) -> np.ndarray:
        return self.matrix[:, i]


@dataclass(frozen=True)
class DeviationMatrix:
    """Member deviations about the ensemble mean, one column per member.

    Columns sum to zero by construction. :func:`deviations` applies the
    1/sqrt(nens - 1) factor, so ``columns @ columns.T`` is the sample
    covariance. ``offset`` is the largest |entry| of the mean the
    deviations were taken about: x - mean leaves rounding in proportion
    to it, so it widens the zero-sum tolerance.
    """

    columns: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        c = np.array(self.columns, dtype=float)
        if c.ndim != 2:
            raise ValueError("deviation matrix must be 2-D")
        scale = max(1.0, self.offset, float(np.max(np.linalg.norm(c, axis=0), initial=0.0)))
        if np.max(np.abs(c.sum(axis=1)), initial=0.0) > 1e-12 * scale * c.shape[1]:
            raise ValueError("deviation columns must sum to zero")
        c.flags.writeable = False
        object.__setattr__(self, "columns", c)

    @property
    def nens(self) -> int:
        return self.columns.shape[1]


def ensemble_mean(ens: Ensemble) -> np.ndarray:
    """Component-wise arithmetic mean of the members."""
    return ens.matrix.mean(axis=1)


def deviations(ens: Ensemble) -> DeviationMatrix:
    """Scaled deviations: column i = (x_i - mean) / sqrt(nens - 1)."""
    if ens.nens < 2:
        raise ValueError("degenerate ensemble")
    mean = ensemble_mean(ens)
    cols = (ens.matrix - mean[:, None]) / np.sqrt(ens.nens - 1)
    return DeviationMatrix(cols, float(np.abs(mean).max()))


def dense_sample_covariance(ens: Ensemble) -> np.ndarray:
    """Explicit (nstate, nstate) sample covariance, for oracles and tests only.

    Equals S @ S.T with S the scaled deviations; symmetric positive
    semidefinite with rank at most nens - 1.
    """
    if ens.nstate > DENSE_ORACLE_CAP:
        raise ValueError("oracle size exceeded")
    s = deviations(ens).columns
    cov = s @ s.T
    return 0.5 * (cov + cov.T)
