import math
import re

import numpy as np
import pytest

from shrinkda.models import (ModelDefinition, QgGrid, QgParams, arakawa_jacobian,
                             get_model, laplacian, lorenz96_tendency, pad, poisson_solve,
                             qg_initial_vorticity, qg_tendency, rk4_step)

from helpers import poisson_solve_dense


def loop_laplacian(field, grid):
    """Non-vectorized 5-point Laplacian oracle with zero boundaries."""
    n = grid.n
    pad = np.zeros((n + 2, n + 2))
    pad[1:-1, 1:-1] = field
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[i - 1, j - 1] = ((pad[i + 1, j] + pad[i - 1, j] - 2 * pad[i, j]) / grid.dx**2
                                 + (pad[i, j + 1] + pad[i, j - 1] - 2 * pad[i, j]) / grid.dx**2)
    return out


def loop_arakawa(psi, omega, grid):
    """Non-vectorized Arakawa oracle: average of the three canonical forms."""
    n = grid.n
    p = np.zeros((n + 2, n + 2))
    w = np.zeros((n + 2, n + 2))
    p[1:-1, 1:-1] = psi
    w[1:-1, 1:-1] = omega
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            j1 = ((p[i + 1, j] - p[i - 1, j]) * (w[i, j + 1] - w[i, j - 1])
                  - (p[i, j + 1] - p[i, j - 1]) * (w[i + 1, j] - w[i - 1, j]))
            j2 = (p[i + 1, j] * (w[i + 1, j + 1] - w[i + 1, j - 1])
                  - p[i - 1, j] * (w[i - 1, j + 1] - w[i - 1, j - 1])
                  - p[i, j + 1] * (w[i + 1, j + 1] - w[i - 1, j + 1])
                  + p[i, j - 1] * (w[i + 1, j - 1] - w[i - 1, j - 1]))
            j3 = (w[i, j + 1] * (p[i + 1, j + 1] - p[i - 1, j + 1])
                  - w[i, j - 1] * (p[i + 1, j - 1] - p[i - 1, j - 1])
                  - w[i + 1, j] * (p[i + 1, j + 1] - p[i + 1, j - 1])
                  + w[i - 1, j] * (p[i - 1, j + 1] - p[i - 1, j - 1]))
            out[i - 1, j - 1] = (j1 + j2 + j3) / (12.0 * grid.dx**2)
    return out


def loop_tendency(field, grid, params):
    """QG tendency from the dense Poisson solve and the loop stencils,
    with Lap(psi) and Lap(Lap(psi)) taken from psi itself."""
    psi = poisson_solve_dense(field, grid)
    lap_psi = loop_laplacian(psi, grid)
    bilap_psi = loop_laplacian(lap_psi, grid)
    pad = np.zeros((grid.n + 2, grid.n + 2))
    pad[1:-1, 1:-1] = psi
    psi_x = (pad[2:, 1:-1] - pad[:-2, 1:-1]) / (2 * grid.dx)
    forcing = params.wind * np.sin(2 * np.pi * grid.x)[None, :]
    return (-params.r * loop_arakawa(psi, field, grid)
            - params.beta * psi_x
            + params.viscosity * bilap_psi
            - params.drag * lap_psi
            + forcing)


class TestLorenz96:
    def test_fixed_point(self):
        x = np.full(7, 8.0)
        np.testing.assert_allclose(lorenz96_tendency(x, 8.0), np.zeros(7), atol=1e-14)

    def test_hand_value(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # component 0: (x1 - x2) * x3 - x0 + F = (2 - 3) * 4 - 1 = -5
        out = lorenz96_tendency(x, 0.0)
        np.testing.assert_allclose(out[0], -5.0, rtol=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 4"):
            lorenz96_tendency(np.ones(3), 8.0)

    def test_step_halving_consistency(self):
        # chaotic growth puts the dt = 0.01 global error near 4e-5 over one
        # time unit; refinement must shrink it at fourth order
        x0 = np.full(8, 8.0)
        x0[0] += 0.01

        def integrate(dt, t_end=1.0):
            x = x0.copy()
            for _ in range(int(round(t_end / dt))):
                x = rk4_step(lambda s: lorenz96_tendency(s, 8.0), x, dt)
            return x

        reference = integrate(0.0025)
        err_coarse = np.abs(integrate(0.01) - reference).max()
        err_half = np.abs(integrate(0.005) - reference).max()
        assert err_coarse < 2e-4
        assert 10.0 < err_coarse / err_half < 25.0

    def test_batch_matches_loop(self):
        gen = np.random.default_rng(100)
        states = gen.standard_normal((6, 3))
        batch = lorenz96_tendency(states, 8.0)
        for i in range(3):
            np.testing.assert_allclose(batch[:, i], lorenz96_tendency(states[:, i], 8.0))


class TestArakawaJacobian:
    def test_self_jacobian_vanishes(self):
        gen = np.random.default_rng(101)
        grid = QgGrid(9)
        psi = gen.standard_normal((9, 9))
        assert np.abs(arakawa_jacobian(pad(psi), pad(psi), grid)).max() < 1e-13

    def test_constant_omega_sums_to_zero(self):
        gen = np.random.default_rng(102)
        grid = QgGrid(11)
        psi = gen.standard_normal((11, 11))
        jac = arakawa_jacobian(pad(psi), pad(np.ones((11, 11))), grid)
        assert abs(jac.sum()) < 1e-12 * np.abs(psi).max() / grid.dx

    def test_manufactured_linear_fields(self):
        # psi = x, omega = y gives J = 1 away from the zero boundary
        grid = QgGrid(31)
        x = grid.x[:, None] * np.ones((1, 31))
        y = np.ones((31, 1)) * grid.x[None, :]
        jac = arakawa_jacobian(pad(x), pad(y), grid)
        interior = jac[4:-4, 4:-4]
        assert np.abs(interior - 1.0).max() < 10 * grid.dx**2

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(103)
        grid = QgGrid(8)
        psi = gen.standard_normal((8, 8))
        omega = gen.standard_normal((8, 8))
        np.testing.assert_allclose(arakawa_jacobian(pad(psi), pad(omega), grid),
                                   loop_arakawa(psi, omega, grid), atol=1e-12)

    def test_shape_mismatch(self):
        grid = QgGrid(5)
        with pytest.raises(ValueError, match="share a shape"):
            arakawa_jacobian(pad(np.zeros((5, 5))), pad(np.zeros((5, 4))), grid)


class TestPoissonSolve:
    def test_zero_rhs(self):
        grid = QgGrid(8)
        np.testing.assert_array_equal(poisson_solve(np.zeros((8, 8)), grid),
                                      np.zeros((8, 8)))

    def test_exact_inverse_of_discrete_operator(self):
        grid = QgGrid(15)
        x = grid.x[:, None]
        y = grid.x[None, :]
        psi_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        omega = laplacian(pad(psi_exact), grid)
        psi = poisson_solve(omega, grid)
        assert np.abs(psi - psi_exact).max() < 1e-10

    def test_residual_bound(self):
        # Lap(poisson_solve(omega)) = omega is the identity qg_tendency uses
        # in place of Lap(psi); checked on a single field and a qg-33 batch
        gen = np.random.default_rng(105)
        for grid, omega in ((QgGrid(16), gen.standard_normal((16, 16))),
                            (QgGrid(31), gen.standard_normal((31, 31, 40)))):
            psi = poisson_solve(omega, grid)
            assert np.abs(laplacian(pad(psi), grid) - omega).max() < 1e-10 * np.abs(omega).max()

    def test_second_order_convergence(self):
        # analytic pair psi = sin(pi x) sin(pi y), omega = -2 pi^2 psi
        errs = []
        for n in (15, 31, 63):
            grid = QgGrid(n)
            x = grid.x[:, None]
            y = grid.x[None, :]
            psi_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            omega = -2.0 * np.pi**2 * psi_exact
            psi = poisson_solve(omega, grid)
            errs.append(np.abs(psi - psi_exact).max())
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(1.8 < r < 2.2 for r in rates)

    def test_matches_dense_fallback(self):
        # a single field and a qg-33 batch of 40 members
        gen = np.random.default_rng(107)
        for grid, omega in ((QgGrid(10), gen.standard_normal((10, 10))),
                            (QgGrid(31), gen.standard_normal((31, 31, 40)))):
            np.testing.assert_allclose(poisson_solve(omega, grid),
                                       poisson_solve_dense(omega, grid), atol=1e-12)

    def test_batch_matches_members(self):
        # each member's bits must not depend on the batch it rides in or on
        # the batch layout; the threaded forecast relies on this
        gen = np.random.default_rng(110)
        grid = QgGrid(31)
        ensemble = np.asfortranarray(gen.standard_normal((grid.nstate, 40)))
        singles = np.stack([poisson_solve(grid.to_grid(ensemble[:, k]), grid)
                            for k in range(40)], axis=2)
        for batch in (grid.to_grid(ensemble), np.ascontiguousarray(grid.to_grid(ensemble))):
            np.testing.assert_array_equal(poisson_solve(batch, grid), singles)


class TestQgTendency:
    def test_rest_state_no_forcing(self):
        grid = QgGrid(9)
        params = QgParams(wind=0.0)
        out = qg_tendency(np.zeros(grid.nstate), grid, params)
        np.testing.assert_array_equal(out, np.zeros(grid.nstate))

    def test_rest_state_pure_forcing(self):
        grid = QgGrid(9)
        params = QgParams(wind=1.0)
        out = grid.to_grid(qg_tendency(np.zeros(grid.nstate), grid, params))
        expected = np.sin(2.0 * np.pi * grid.x)[None, :] * np.ones((9, 1))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_matches_loop_oracle(self):
        # a single state and a 40-member batch, which runs the stencils and
        # the DST at the qg-33 ensemble width
        gen = np.random.default_rng(108)
        grid = QgGrid(31)
        params = QgParams()
        for omega in (gen.standard_normal(grid.nstate),
                      gen.standard_normal((grid.nstate, 40))):
            got = qg_tendency(omega, grid, params).reshape(grid.nstate, -1)
            for k, column in enumerate(omega.reshape(grid.nstate, -1).T):
                oracle = loop_tendency(grid.to_grid(column), grid, params)
                assert np.abs(grid.to_grid(got[:, k]) - oracle).max() < 1e-10

    def test_batch_matches_single(self):
        gen = np.random.default_rng(109)
        grid = QgGrid(7)
        params = QgParams()
        states = gen.standard_normal((grid.nstate, 3))
        batch = qg_tendency(states, grid, params)
        for i in range(3):
            np.testing.assert_allclose(batch[:, i],
                                       qg_tendency(states[:, i], grid, params),
                                       atol=1e-13)


class TestRk4:
    def test_zero_tendency(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(rk4_step(lambda s: np.zeros_like(s), x, 0.5), x)

    def test_exponential_oracle(self):
        out = rk4_step(lambda s: s, np.array([1.0]), 0.1)[0]
        # hand-computed RK4 value for x' = x over one 0.1 step
        np.testing.assert_allclose(out, 1.1051708333333332, rtol=1e-13)
        assert abs(out - math.exp(0.1)) < 1e-7

    def test_blow_up_detection(self):
        with pytest.raises(RuntimeError, match="model blow-up"):
            rk4_step(lambda s: s * 1e200, np.array([1e200]), 1.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            rk4_step(lambda s: s, np.array([1.0]), 0.0)


class TestInitialVorticity:
    def test_matches_scalar_formula(self):
        grid = QgGrid(12)
        field = grid.to_grid(qg_initial_vorticity(grid))
        for i in (0, 4, 8):
            for j in (0, 5, 10):
                t = grid.x[i] * grid.x[j]
                expected = math.sin(4 * t) * math.cos(2 * t) + math.sin(2 * t) + math.cos(4 * t)
                np.testing.assert_allclose(field[i, j], expected, rtol=1e-14)

    def test_boundary_limit_value(self):
        # as x*y -> 0 the formula approaches sin0*cos0 + sin0 + cos0 = 1
        grid = QgGrid(31)
        corner = grid.to_grid(qg_initial_vorticity(grid))[0, 0]
        assert abs(corner - 1.0) < 10 * grid.x[0]**2

    def test_symmetric_under_axis_swap(self):
        grid = QgGrid(13)
        field = grid.to_grid(qg_initial_vorticity(grid))
        np.testing.assert_allclose(field, field.T, atol=1e-15)


class TestModelRegistry:
    @pytest.mark.parametrize("key,nstate", [("l96-40", 40), ("qg-33", 961),
                                            ("qg-65", 3969), ("qg-129", 16129)])
    def test_dimensions(self, key, nstate):
        model = get_model(key)
        assert model.nstate == nstate
        assert isinstance(model, ModelDefinition)

    # and Lorenz-96 keys whose n is not a decimal integer of at least 4
    @pytest.mark.parametrize("key", ["qg-17", "l96-x", "l96-40.5", "l96--5", "l96-4_0", "l96-3"])
    def test_unknown_key(self, key):
        with pytest.raises(ValueError, match=f"unknown model key '{re.escape(key)}'"):
            get_model(key)

    def test_overrides_apply(self):
        model = get_model("qg-33", {"qg_drag": 0.5, "model_dt": 2.0})
        assert model.params.drag == 0.5
        assert model.dt == 2.0

    @pytest.mark.parametrize("key,overrides", [("qg-33", {"qg_viscocity": 1}),
                                               ("qg-33", {"l96_forcing": 9.0}),
                                               ("l96-40", {"qg_drag": 0.5}),
                                               ("qg-33", {"qg_jacobian_sign": 1.0})],
                             ids=["misspelled", "l96-key-on-qg", "qg-key-on-l96",
                                  "sign-key-on-qg"])
    def test_unread_override_rejected(self, key, overrides):
        # a misspelled or foreign key would otherwise be dropped silently
        (name,) = overrides
        with pytest.raises(ValueError,
                           match=rf"model '{key}' does not read override key\(s\) {name};"):
            get_model(key, overrides)

    @pytest.mark.parametrize("key,name,value", [("qg-33", "model_dt", "nan"),
                                                ("qg-33", "qg_viscosity", "inf"),
                                                ("qg-33", "qg_r", "nan"),
                                                ("l96-40", "l96_forcing", "nan"),
                                                ("l96-40", "model_dt", "-inf"),
                                                ("l96-40", "model_dt", "0"),
                                                ("l96-40", "model_dt", "-0.05"),
                                                ("qg-33", "model_dt", "0"),
                                                ("qg-33", "model_dt", "-0.05")])
    def test_non_finite_override_rejected(self, key, name, value):
        # a nan or inf coefficient would surface only cycles later, as a
        # model blow-up or non-finite vorticity that does not name the key;
        # a zero or negative time step as "dt must be positive"
        with pytest.raises(ValueError, match=f"model override {name} must be finite"):
            get_model(key, {name: value})

    @pytest.mark.parametrize("key,name,value", [("qg-33", "qg_r", "abc"),
                                                ("l96-40", "l96_forcing", None)])
    def test_non_numeric_override_rejected(self, key, name, value):
        # a bare float() error would not name the key
        with pytest.raises(ValueError, match=re.escape(
                f"model override {name} must be a number, not {value!r}")):
            get_model(key, {name: value})
