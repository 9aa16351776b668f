"""Forward models for twin experiments: Lorenz-96 and a quasi-geostrophic
vorticity model on the unit square.

The QG state is the flattened interior vorticity field; the stream
function is recovered each evaluation by an exact fast Poisson solve
(sine-basis GEMM diagonalization of the 5-point Laplacian with
homogeneous Dirichlet boundaries, one GEMM per member and factor so that
a member's bits do not depend on the batch width, which keeps the
threaded forecast equal to the serial one). Advection uses the energy- and
enstrophy-conserving Arakawa discretization. All tendencies accept either
a single state vector or an (nstate, members) batch.

The stencils ``arakawa_jacobian``, ``laplacian`` and ``x_derivative`` take
fields that already sit inside their zero Dirichlet ring and return the
interior; ``pad`` adds that ring to an (n, n[, members]) field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# Lorenz-96


def lorenz96_tendency(x: np.ndarray, forcing: float) -> np.ndarray:
    """Cyclic tendency dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 4:
        raise ValueError("Lorenz-96 needs at least 4 variables")
    return (np.roll(x, -1, axis=0) - np.roll(x, 2, axis=0)) * np.roll(x, 1, axis=0) - x + forcing


# ---------------------------------------------------------------------------
# Quasi-geostrophic model


@dataclass(frozen=True)
class QgGrid:
    """Interior grid of the unit-square domain; boundary nodes carry zeros.

    ``n`` counts interior points along each axis and ``dx`` = 1/(n+1) is
    the spacing of both. The state is the row-major flattening of the
    (n, n) interior vorticity field, x along the first axis and y along
    the second.
    """

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid needs at least 3 interior points per direction")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def nstate(self) -> int:
        return self.n * self.n

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates, the same along both axes."""
        return self.dx * np.arange(1, self.n + 1)

    def to_grid(self, state: np.ndarray) -> np.ndarray:
        """Reshape flat state(s) to (n, n[, members])."""
        state = np.asarray(state, dtype=float)
        if state.shape[0] != self.nstate:
            raise ValueError("state length does not match the grid")
        return state.reshape((self.n, self.n) + state.shape[1:])

    def to_state(self, field: np.ndarray) -> np.ndarray:
        return field.reshape((self.nstate,) + field.shape[2:])


@dataclass(frozen=True)
class QgParams:
    """Model coefficients, all in nondimensional units.

    Defaults keep the 1000-step integration at dt = 1.27 finite on all
    shipped grid sizes (advective stability bounds r; the explicit
    viscosity must satisfy 8 * viscosity * dt / dx^2 < 2.8 on the finest
    grid) while leaving the flow visibly evolving between analyses.
    """

    r: float = 0.01
    beta: float = 2.0
    viscosity: float = 1e-5
    drag: float = 1e-3
    wind: float = 0.01
    dt: float = 1.27

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


def pad(field: np.ndarray) -> np.ndarray:
    """Copy of a field inside a zero Dirichlet ghost ring on its first two axes."""
    out = np.zeros((field.shape[0] + 2, field.shape[1] + 2) + field.shape[2:])
    out[1:-1, 1:-1] = field
    return out


def laplacian(f: np.ndarray, grid: QgGrid, scale: float = 1.0) -> np.ndarray:
    """scale * 5-point Laplacian of a padded field, on the interior."""
    c = scale / grid.dx**2
    out = f[2:, 1:-1] + f[:-2, 1:-1]
    out *= c
    tmp = f[1:-1, 2:] + f[1:-1, :-2]
    tmp *= c
    out += tmp
    np.multiply(f[1:-1, 1:-1], 4.0 * c, out=tmp)
    out -= tmp
    return out


def x_derivative(f: np.ndarray, grid: QgGrid, scale: float = 1.0) -> np.ndarray:
    """scale * central x difference of a padded field, on the interior."""
    out = f[2:, 1:-1] - f[:-2, 1:-1]
    out *= scale / (2.0 * grid.dx)
    return out


def arakawa_jacobian(p: np.ndarray, w: np.ndarray, grid: QgGrid,
                     scale: float = 1.0) -> np.ndarray:
    """scale * Arakawa J(psi, omega) of padded fields, on the interior.

    J = psi_x omega_y - psi_y omega_x as the average of the three canonical
    second-order forms, which conserves the domain integrals of J, psi * J
    and omega * J. The centred differences px, py of psi and wx, wy of
    omega are formed once over the padded range. 12 dx^2 J is
    J1 + J2 + J3 with J1 = px wy - py wx; the eight terms of J2 + J3 pair
    into differences of two fluxes, Q = psi wy - omega py taken one row
    apart and R = omega px - psi wx taken one column apart.
    """
    if p.shape != w.shape:
        raise ValueError("fields must share a shape")
    px = p[2:] - p[:-2]
    wx = w[2:] - w[:-2]
    py = p[:, 2:] - p[:, :-2]
    wy = w[:, 2:] - w[:, :-2]
    out = px[:, 1:-1] * wy[1:-1]
    out -= np.multiply(py[1:-1], wx[:, 1:-1])
    q = wy
    q *= p[:, 1:-1]
    py *= w[:, 1:-1]
    q -= py
    out += q[2:]
    out -= q[:-2]
    r = px
    r *= w[1:-1]
    wx *= p[1:-1]
    r -= wx
    out += r[:, 2:]
    out -= r[:, :-2]
    out *= scale / (12.0 * grid.dx * grid.dx)
    return out


@lru_cache(maxsize=16)
def _sine_basis(grid: QgGrid):
    """Orthonormal DST-I matrix Q and the Dirichlet eigenvalues Lam.

    Q = sqrt(2/(n+1)) sin(pi j k/(n+1)) is symmetric and its own inverse;
    it diagonalizes the 1-D 3-point operator along either axis, and Lam
    holds the (n, n) eigenvalues of the 5-point operator in that basis.
    """
    n = grid.n
    k = np.arange(1, n + 1)
    # reduce j*k modulo the period 2(n+1) to keep the sine argument small
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))
    eig = (2.0 * np.cos(np.pi * k / (n + 1)) - 2.0) / grid.dx**2
    lam = eig[:, None] + eig[None, :]
    for a in (q, lam):
        a.flags.writeable = False
    return q, lam


@lru_cache(maxsize=16)
def _wind_profile(grid: QgGrid) -> np.ndarray:
    """sin(2 pi y) on the interior nodes of the y (second) axis."""
    profile = np.sin(2.0 * np.pi * grid.x)
    profile.flags.writeable = False
    return profile


def poisson_solve(omega: np.ndarray, grid: QgGrid) -> np.ndarray:
    """Solve Lap(psi) = omega exactly for the discrete 5-point operator.

    Fast diagonalization in the orthonormal sine basis,
    psi = Q ((Q omega Q) / Lam) Q, as four GEMMs per member; psi
    vanishes on the boundary. An (n, n, m) batch is solved as a stack of
    m contiguous (n, n) fields, one GEMM per member and factor, so each
    member's bits do not depend on the batch width (a single GEMM over
    the whole batch would block differently at each width).
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega contains non-finite entries")
    q, lam = _sine_basis(grid)
    # (m, n, n) stack of contiguous fields: a view of an F-ordered
    # (nstate, m) ensemble, a copy of any other layout
    stack = np.ascontiguousarray(np.moveaxis(omega, 2, 0) if omega.ndim == 3 else omega)
    coeff = q @ stack @ q
    coeff /= lam
    psi = q @ coeff @ q
    return np.moveaxis(psi, 0, 2) if omega.ndim == 3 else psi


def qg_tendency(omega: np.ndarray, grid: QgGrid, params: QgParams) -> np.ndarray:
    """Vorticity tendency of the wind-driven single-layer model.

    omega_t = -r * J(psi, omega) - beta * psi_x
              + viscosity * Lap(Lap(psi)) - drag * Lap(psi)
              + wind * sin(2 pi y),
    with psi from the exact Poisson solve of Lap(psi) = omega: the
    stream-function flow advects vorticity and the biharmonic term
    diffuses it.

    The Poisson solve is exact for the same 5-point operator, so Lap(psi)
    is omega itself and Lap(Lap(psi)) is Lap(omega). psi and omega are
    each padded once and shared by every stencil.
    """
    field = grid.to_grid(omega)
    p = pad(poisson_solve(field, grid))
    w = pad(field)
    out = arakawa_jacobian(p, w, grid, -params.r)
    out -= x_derivative(p, grid, params.beta)
    out += laplacian(w, grid, params.viscosity)
    out -= params.drag * field
    forcing = params.wind * _wind_profile(grid)
    out += forcing[:, None] if field.ndim == 3 else forcing
    return grid.to_state(out)


def qg_initial_vorticity(grid: QgGrid) -> np.ndarray:
    """Initial interior vorticity sin(4xy)cos(2xy) + sin(2xy) + cos(4xy), flattened."""
    xy = grid.x[:, None] * grid.x[None, :]
    field = np.sin(4.0 * xy) * np.cos(2.0 * xy) + np.sin(2.0 * xy) + np.cos(4.0 * xy)
    return grid.to_state(field)


# ---------------------------------------------------------------------------
# Time stepping and the uniform model interface


def rk4_step(tendency: Callable[[np.ndarray], np.ndarray],
             state: np.ndarray, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step.

    Non-finite stage values raise "model blow-up" instead of propagating
    overflow into the next tendency evaluation.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def stage(x):
        with np.errstate(over="ignore", invalid="ignore"):
            k = tendency(x)
        if not np.all(np.isfinite(k)):
            raise RuntimeError("model blow-up")
        return k

    k1 = stage(state)
    k2 = stage(state + 0.5 * dt * k1)
    k3 = stage(state + 0.5 * dt * k2)
    k4 = stage(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("model blow-up")
    return out


@dataclass(frozen=True)
class ModelDefinition:
    """Uniform forward-model interface used by the experiment harness.

    ``params`` holds the resolved coefficients of a QG model and is None
    for Lorenz-96.
    """

    nstate: int
    dt: float
    tendency: Callable[[np.ndarray], np.ndarray]
    initial_state: Callable[[], np.ndarray]
    params: QgParams | None = None

    def step(self, state: np.ndarray) -> np.ndarray:
        """Advance one model time step."""
        return rk4_step(self.tendency, state, self.dt)


# RK4 steps that carry the Lorenz-96 initial state onto the attractor
L96_SPINUP_STEPS = 500


def lorenz96_model(n: int = 40, forcing: float = 8.0, dt: float = 0.05) -> ModelDefinition:
    """Lorenz-96 with cyclic geometry; the initial state is spun up onto
    the attractor from a deterministic perturbation of the fixed point."""

    def tendency(x):
        return lorenz96_tendency(x, forcing)

    def initial_state():
        x = np.full(n, forcing)
        x += 0.01 * forcing * np.cos(2.0 * np.pi * np.arange(n) / n)
        for _ in range(L96_SPINUP_STEPS):
            x = rk4_step(tendency, x, dt)
        return x

    return ModelDefinition(nstate=n, dt=dt, tendency=tendency, initial_state=initial_state)


def qg_model(n: int, params: QgParams | None = None) -> ModelDefinition:
    """Quasi-geostrophic model on an (n, n) interior grid."""
    grid = QgGrid(n)
    params = params if params is not None else QgParams()

    def tendency(state):
        return qg_tendency(state, grid, params)

    def initial_state():
        return qg_initial_vorticity(grid)

    return ModelDefinition(nstate=grid.nstate, dt=params.dt, tendency=tendency,
                           initial_state=initial_state, params=params)


_QG_SIZES = {"qg-33": 31, "qg-65": 63, "qg-129": 127}


def _read_overrides(key: str, overrides: dict | None, accepted) -> dict:
    """``overrides`` as floats. A key the model does not read, a value
    that is not a number, a nan or inf value, or a ``model_dt`` <= 0
    raises ``ValueError`` naming the key: each would surface only later,
    as a bare float() error, as a blow-up cycles on or as the model's own
    "dt must be positive"."""
    overrides = dict(overrides or {})
    unread = sorted(set(overrides) - set(accepted))
    if unread:
        raise ValueError(f"model {key!r} does not read override key(s) {', '.join(unread)}; "
                         f"it reads {', '.join(sorted(accepted))}")
    values = {}
    for name, value in overrides.items():
        try:
            values[name] = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"model override {name} must be a number, not {value!r}") from None
    for name, value in values.items():
        if not math.isfinite(value) or (name == "model_dt" and value <= 0.0):
            rule = "finite and positive" if name == "model_dt" else "finite"
            raise ValueError(f"model override {name} must be {rule}, not {value!r}")
    return values


def get_model(key: str, overrides: dict | None = None) -> ModelDefinition:
    """Resolve a CLI model key (``l96-<n>``, ``qg-33``, ``qg-65``, ``qg-129``).

    n is in decimal digits and at least 4, so that the neighbours i - 2,
    i - 1 and i + 1 are distinct; any other key raises ``ValueError``.

    ``overrides`` may adjust coefficients: ``model_dt`` sets the time step,
    ``l96_forcing`` the Lorenz-96 forcing and ``qg_<name>`` the QgParams
    field ``name``. A key the resolved model does not read, a value that
    is not a finite number, or a ``model_dt`` that is not positive raises
    ``ValueError``.
    """
    if re.fullmatch(r"l96-[0-9]+", key) and int(key[4:]) >= 4:
        values = _read_overrides(key, overrides, ("l96_forcing", "model_dt"))
        return lorenz96_model(n=int(key[4:]), forcing=values.get("l96_forcing", 8.0),
                              dt=values.get("model_dt", 0.05))
    if key in _QG_SIZES:
        names = {("model_dt" if f.name == "dt" else f"qg_{f.name}"): f.name
                 for f in fields(QgParams)}
        values = _read_overrides(key, overrides, names)
        params = replace(QgParams(), **{names[k]: v for k, v in values.items()})
        return qg_model(_QG_SIZES[key], params=params)
    raise ValueError(f"unknown model key {key!r}; choose l96-<n> with n >= 4, "
                     f"{', '.join(_QG_SIZES)}")
