"""Observation operator as index selection with diagonal error covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ObservationSpec:
    """Observed state components and their error variances.

    ``indices`` is the strictly increasing list of observed components,
    which defines the observation operator H as row selection (so
    H @ H.T = I). ``variances`` holds the diagonal of R in squared units.
    """

    nstate: int
    indices: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=int)
        var = np.array(self.variances, dtype=float)
        if idx.ndim != 1 or var.ndim != 1 or idx.shape != var.shape:
            raise ValueError("indices and variances must be matching 1-D arrays")
        if idx.size == 0:
            raise ValueError("at least one observed component required")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.nstate:
            raise ValueError("indices must lie in [0, nstate)")
        # a nan variance passes a plain <= 0 test
        if not np.all(np.isfinite(var) & (var > 0.0)):
            raise ValueError("observation variances must be finite and positive")
        idx.flags.writeable = False
        var.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "variances", var)

    @classmethod
    def from_fraction(cls, nstate: int, p: float, obs_std: float) -> "ObservationSpec":
        """Observe a fraction p of components on an even stride.

        nobs = round(p * nstate); index i observes component
        floor(i * nstate / nobs), a deterministic layout.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("observed fraction p must lie in (0, 1]")
        nobs = max(1, int(round(p * nstate)))
        idx = np.floor(np.arange(nobs) * nstate / nobs).astype(int)
        try:
            variance = obs_std**2
        except OverflowError:
            raise ValueError(f"obs_std {obs_std!r} squares past the float range") from None
        return cls(nstate=nstate, indices=idx, variances=np.full(nobs, variance))

    @property
    def nobs(self) -> int:
        return self.indices.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Apply H: select the observed rows of a vector or matrix."""
        return np.asarray(x, dtype=float)[self.indices]
