import numpy as np
import pytest

from hypoflow import (
    GridSpec,
    PositivityError,
    SpectralResolutionWarning,
    State,
    build_grid,
    integrate_mu,
    load_state,
    project_pi,
    save_state,
)
from hypoflow import phase_space
from hypoflow.phase_space import (
    grad_v_field,
    grad_x_field,
    grad_x_spatial,
    hermite_tail_fraction,
)

import oracles


class TestGridSpec:
    def test_rejects_odd_nx(self):
        with pytest.raises(ValueError):
            GridSpec(nx=33)

    def test_rejects_small_nx(self):
        with pytest.raises(ValueError):
            GridSpec(nx=6)

    def test_rejects_small_nv(self):
        with pytest.raises(ValueError):
            GridSpec(nv=3)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            GridSpec(dim=3)


class TestQuadrature:
    def test_weights_normalized(self, grid_small):
        assert abs(grid_small.v_weights.sum() - 1.0) < 1e-12

    def test_second_moment(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        assert abs((grid_small.v_weights * v**2).sum() - 1.0) < 1e-10

    def test_fourth_moment_vs_independent_rule(self):
        # nv = 4 is the smallest legal rule; degree 4 is still exact there
        grid = build_grid(GridSpec(dim=1, nx=8, nv=4))
        v_o, w_o = oracles.gauss_hermite_golub_welsch(4)
        v = grid.v_nodes[:, 0]
        mine = (grid.v_weights * v**4).sum()
        theirs = (w_o * v_o**4).sum()
        assert abs(mine - theirs) < 1e-8
        assert abs(mine - 3.0) < 1e-8

    def test_nodes_match_independent_rule(self, grid_small):
        v_o, w_o = oracles.gauss_hermite_golub_welsch(16)
        assert np.allclose(np.sort(grid_small.v_nodes[:, 0]), np.sort(v_o), atol=1e-10)
        assert np.allclose(grid_small.v_weights, w_o, atol=1e-12)

    def test_exactness_high_degree(self, grid_small):
        # degree 2 nv - 1 polynomial times a resolved harmonic
        v = grid_small.v_nodes[:, 0]
        x = grid_small.x_nodes[:, 0]
        fld = np.outer(1.0 + np.cos(2 * np.pi * x), v**6)
        # E[v^6] = 15 for the unit Gaussian
        assert abs(integrate_mu(fld, grid_small) - 15.0) < 1e-9 * 15


class TestIntegrateMu:
    def test_constant(self, grid_small):
        fld = np.ones((grid_small.nx_total, grid_small.nv_total))
        assert integrate_mu(fld, grid_small) == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_mode(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        fld = np.cos(2 * np.pi * x)[:, None] * np.ones(grid_small.nv_total)
        assert abs(integrate_mu(fld, grid_small)) < 1e-12

    def test_product_factorization(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        fld = np.outer(1.0 + 0.5 * np.cos(2 * np.pi * x), v**2)
        assert abs(integrate_mu(fld, grid_small) - 1.0) < 1e-10

    def test_rejects_nan(self, grid_small):
        fld = np.ones((grid_small.nx_total, grid_small.nv_total))
        fld[0, 0] = np.nan
        with pytest.raises(ValueError):
            integrate_mu(fld, grid_small)


class TestProjection:
    def test_preserves_constants(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        assert np.allclose(project_pi(h, grid_small), 1.0, atol=1e-14)

    def test_identity_on_spatial_fields(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * x)
        h = np.repeat(rho[:, None], grid_small.nv_total, axis=1)
        assert np.allclose(project_pi(h, grid_small), rho, atol=1e-14)

    def test_kills_odd_moments(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + np.outer(np.cos(2 * np.pi * x), v)
        assert np.abs(project_pi(h, grid_small) - 1.0).max() < 1e-12

    def test_idempotent(self, grid_small):
        # exact up to one rounding of the weight dot product
        rng = np.random.default_rng(0)
        h = 1.0 + 0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total))
        once = project_pi(h, grid_small)
        constant_in_v = np.repeat(once[:, None], grid_small.nv_total, axis=1)
        twice = project_pi(constant_in_v, grid_small)
        assert np.abs(once - twice).max() < 5e-16

    def test_commutes_with_grad_x(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + 0.3 * np.outer(np.sin(2 * np.pi * x), 1.0 + 0.5 * v)
        left = project_pi(grad_x_field(h, grid_small)[0], grid_small)
        right = grad_x_spatial(project_pi(h, grid_small), grid_small)[0]
        assert np.abs(left - right).max() < 1e-10


class TestGradients:
    def test_grad_x_exact_mode(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = np.sin(2 * np.pi * x)[:, None] * np.ones(grid_small.nv_total)
        gx = grad_x_field(h, grid_small)[0]
        assert np.abs(gx - 2 * np.pi * np.cos(2 * np.pi * x)[:, None]).max() < 1e-10

    def test_grad_v_linear(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = np.ones(grid_small.nx_total)[:, None] * v[None, :]
        gv = grad_v_field(h, grid_small)[0]
        assert np.abs(gv - 1.0).max() < 1e-10

    def test_grad_v_quadratic(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = np.ones(grid_small.nx_total)[:, None] * (v**2)[None, :]
        gv = grad_v_field(h, grid_small)[0]
        assert np.abs(gv - 2.0 * v[None, :]).max() < 1e-9

    def test_grads_match_finite_differences(self, grid_small):
        # smooth phase-space field; centered differences on the analytic form
        def f(x, v):
            return np.exp(0.2 * np.cos(2 * np.pi * x)[:, None]
                          + 0.1 * np.outer(np.sin(2 * np.pi * x), v)
                          - 0.05 * (v**2)[None, :])

        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = f(x, v)
        gx = grad_x_field(h, grid_small)[0]
        gv = grad_v_field(h, grid_small)[0]
        eps = 1e-5
        fd_x = (f(x + eps, v) - f(x - eps, v)) / (2 * eps)
        fd_v = (f(x, v + eps) - f(x, v - eps)) / (2 * eps)
        assert np.abs(gx - fd_x).max() < 1e-7
        # velocity derivatives of a non-polynomial field match in the
        # quadrature-weighted norm; pointwise accuracy fades at the
        # measure-negligible outer abscissae
        werr = np.sqrt((((gv - fd_v) ** 2) @ grid_small.v_weights).max())
        assert werr < 1e-7

    def test_tail_warning_fires(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        rough = np.ones(grid_small.nx_total)[:, None] * np.sign(v)[None, :]
        with pytest.warns(SpectralResolutionWarning):
            grad_v_field(rough, grid_small)

    def test_tail_fraction_zero_for_resolved(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + np.ones(grid_small.nx_total)[:, None] * v[None, :]
        assert hermite_tail_fraction(h, grid_small) < 1e-13


class TestState:
    def test_validate_positive_unit_mass(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        State(grid_small, h).validate()

    def test_rejects_negative(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        h[3, 4] = -0.1
        with pytest.raises(PositivityError):
            State(grid_small, h).validate()

    def test_rejects_bad_mass(self, grid_small):
        h = np.full((grid_small.nx_total, grid_small.nv_total), 1.1)
        with pytest.raises(ValueError):
            State(grid_small, h).validate()

    def test_snapshot_roundtrip(self, grid_small, tmp_path):
        rng = np.random.default_rng(7)
        h = np.exp(0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total)))
        h /= integrate_mu(h, grid_small)
        state = State(grid_small, h, time=1.25)
        path = tmp_path / "snap.txt"
        save_state(state, path)
        back = load_state(path)
        assert back.time == state.time
        assert back.grid.spec == grid_small.spec
        assert np.array_equal(back.h, state.h)

    def test_snapshot_bytes_one_value_per_line(self, grid_2d, tmp_path):
        rng = np.random.default_rng(11)
        h = np.exp(0.1 * rng.standard_normal((grid_2d.nx_total, grid_2d.nv_total)))
        h[0, 0], h[1, 2], h[-1, -1] = -0.25, 3.0e-300, 0.0
        path = tmp_path / "snap.txt"
        save_state(State(grid_2d, h, time=0.3), path)
        values = "".join(f"{v:.17e}\n" for v in h.ravel())
        assert path.read_text() == (
            "hypoflow-state 1\ndim=2 nx=16 nv=8 period=1.0 time=0.3\n" + values)

    def test_failed_write_keeps_previous_snapshot(self, grid_small, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "snap.txt"
        save_state(State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total))),
                   path)
        before = path.read_bytes()

        class FailingFile:
            # lets the header and a few values through, then fails
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 5:
                    raise OSError("no space left on device")
                return self.f.write(text)

        monkeypatch.setattr(phase_space, "open",
                            lambda p, mode="r": FailingFile(open(p, mode)), raising=False)
        rng = np.random.default_rng(3)
        h = np.exp(0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total)))
        with pytest.raises(OSError):
            save_state(State(grid_small, h / integrate_mu(h, grid_small), time=2.0), path)
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["snap.txt"]


class TestTwoDimensional:
    def test_quadrature(self, grid_2d):
        h = np.ones((grid_2d.nx_total, grid_2d.nv_total))
        assert integrate_mu(h, grid_2d) == pytest.approx(1.0, abs=1e-13)
        v2 = (grid_2d.v_nodes**2).sum(axis=1)
        assert abs(integrate_mu(np.tile(v2, (grid_2d.nx_total, 1)), grid_2d) - 2.0) < 1e-10

    def test_gradients(self, grid_2d):
        x = grid_2d.x_nodes
        v = grid_2d.v_nodes
        h = 1.0 + 0.3 * np.outer(np.sin(2 * np.pi * x[:, 1]), v[:, 0])
        gx = grad_x_field(h, grid_2d)
        gv = grad_v_field(h, grid_2d)
        expect_x1 = 0.3 * 2 * np.pi * np.outer(np.cos(2 * np.pi * x[:, 1]), v[:, 0])
        assert np.abs(gx[0]).max() < 1e-10
        assert np.abs(gx[1] - expect_x1).max() < 1e-9
        expect_v0 = 0.3 * np.outer(np.sin(2 * np.pi * x[:, 1]), np.ones(grid_2d.nv_total))
        assert np.abs(gv[0] - expect_v0).max() < 1e-9
        assert np.abs(gv[1]).max() < 1e-9

    def test_projection(self, grid_2d):
        v = grid_2d.v_nodes
        h = 1.0 + np.tile(v[:, 0] * v[:, 1], (grid_2d.nx_total, 1))
        assert np.abs(project_pi(h, grid_2d) - 1.0).max() < 1e-12
