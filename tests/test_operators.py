import numpy as np
import pytest

from hypoflow import (
    BGK,
    FokkerPlanck,
    GridSpec,
    State,
    Transport,
    build_grid,
    integrate_mu,
    project_pi,
    random_band_limited,
    transport_flow,
    transport_generator,
)
from hypoflow.functionals import BOLTZMANN, entropy
from hypoflow.initial import equilibrium, velocity_perturbation
from hypoflow.operators import fokker_planck_propagator
from hypoflow.phase_space import PositivityError, floor_immaterial, hermite_coefficients

import oracles


def band_limited_state(grid, a=0.3, b=0.2):
    x = grid.x_nodes[:, 0]
    v = grid.v_nodes[:, 0]
    h = 1.0 + a * np.outer(np.cos(2 * np.pi * x), 1.0 + b * v * np.exp(-v * v / 8.0))
    return State(grid, h)


class TestTransport:
    def test_zero_time_is_identity(self, grid_small):
        s = band_limited_state(grid_small)
        assert transport_flow(s, 0.0) is s

    def test_group_property(self, grid_small):
        s = band_limited_state(grid_small)
        fwd_back = transport_flow(transport_flow(s, 0.37), -0.37)
        assert np.abs(fwd_back.h - s.h).max() < 1e-12

    def test_composition(self, grid_small):
        s = band_limited_state(grid_small)
        one = transport_flow(s, 0.3)
        two = transport_flow(transport_flow(s, 0.2), 0.1)
        assert np.abs(one.h - two.h).max() < 1e-11

    def test_entropy_invariant(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = 1.0 + 0.5 * np.sin(2 * np.pi * x)[:, None] * np.ones(grid_small.nv_total)
        s = State(grid_small, h)
        h_before = entropy(s, BOLTZMANN)
        h_after = entropy(transport_flow(s, 0.21), BOLTZMANN)
        assert abs(h_after - h_before) < 1e-10

    def test_mass_preserved(self, grid_small):
        s = band_limited_state(grid_small)
        assert abs(integrate_mu(transport_flow(s, 0.8).h, grid_small) - 1.0) < 1e-12

    def test_exact_shift_per_velocity(self, grid_small):
        # mode-1 data shifts to a computable phase at every node
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        t = 0.13
        s = State(grid_small, 1.0 + 0.4 * np.cos(2 * np.pi * x)[:, None] * np.ones(v.size))
        out = transport_flow(s, t)
        expect = 1.0 + 0.4 * np.cos(2 * np.pi * (x[:, None] - v[None, :] * t))
        assert np.abs(out.h - expect).max() < 1e-12


class TestBGK:
    def test_zero_time_identity(self, grid_small):
        s = band_limited_state(grid_small)
        assert BGK(1.0).flow(s, 0.0) is s

    def test_requires_positive_rate(self, grid_small):
        with pytest.raises(ValueError):
            BGK(-1.0).flow(band_limited_state(grid_small), 0.1)

    def test_requires_forward_time(self, grid_small):
        with pytest.raises(ValueError):
            BGK(1.0).flow(band_limited_state(grid_small), -0.1)

    def test_contraction_to_average(self, grid_small):
        s = band_limited_state(grid_small)
        pih = project_pi(s.h, grid_small)
        lam, T = 0.7, 5.0
        out = BGK(lam).flow(s, T)
        gap0 = np.abs(s.h - pih[:, None]).max()
        gapT = np.abs(out.h - pih[:, None]).max()
        assert gapT <= np.exp(-lam * T) * gap0 + 1e-12

    def test_average_invariant(self, grid_small):
        s = band_limited_state(grid_small)
        out = BGK(2.0).flow(s, 0.4)
        assert np.abs(project_pi(out.h, grid_small) - project_pi(s.h, grid_small)).max() < 1e-13

    def test_closed_form_velocity_only(self, grid_small):
        s = velocity_perturbation(grid_small, 0.3)
        out = BGK(1.0).flow(s, 0.7)
        expect = 1.0 + np.exp(-0.7) * (s.h - 1.0)
        assert np.abs(out.h - expect).max() < 1e-12

    def test_positivity(self, grid_small):
        s = band_limited_state(grid_small, a=0.6)
        out = BGK(1.0).flow(s, 0.3)
        assert out.h.min() >= s.h.min() - 1e-12


class TestFokkerPlanck:
    def test_equilibrium_fixed(self, grid_small, grid_accept):
        s = equilibrium(grid_small)
        out = FokkerPlanck().flow(s, 1.3)
        assert np.abs(out.h - 1.0).max() < 1e-12
        # an x-profile constant in v stays fixed in nodal values over many
        # short steps, even at the acceptance grid's far-tail nodes (weight
        # 4e-23), where the propagator applied to the whole column would
        # move it by 1e-6 per step
        x = grid_accept.x_nodes[:, 0]
        c = 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * x)
        s = State(grid_accept, np.repeat(c[:, None], grid_accept.nv_total, axis=1))
        out = s
        for _ in range(50):
            out = FokkerPlanck().flow(out, 0.01)
        assert np.abs(out.h - s.h).max() < 1e-13

    def test_first_mode_decay(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        a, t = 0.3, 0.9
        s = State(grid_small, 1.0 + a * np.tile(v, (grid_small.nx_total, 1)))
        out = FokkerPlanck().flow(s, t)
        expect = 1.0 + a * np.exp(-t) * v[None, :]
        assert np.abs(out.h - expect).max() < 1e-10

    def test_second_mode_decay(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        a, t = 0.2, 0.9
        s = State(grid_small, 1.0 + a * np.tile(v * v - 1.0, (grid_small.nx_total, 1)))
        out = FokkerPlanck().flow(s, t)
        expect = 1.0 + a * np.exp(-2.0 * t) * (v * v - 1.0)[None, :]
        assert np.abs(out.h - expect).max() < 1e-10

    def test_semigroup(self, grid_small):
        s = band_limited_state(grid_small)
        one = FokkerPlanck().flow(s, 0.5)
        two = FokkerPlanck().flow(FokkerPlanck().flow(s, 0.2), 0.3)
        assert np.abs(one.h - two.h).max() < 1e-11

    def test_mass_preserved(self, grid_small):
        s = band_limited_state(grid_small)
        out = FokkerPlanck().flow(s, 0.7)
        assert abs(integrate_mu(out.h, grid_small) - 1.0) < 1e-12

    def test_requires_forward_time(self, grid_small):
        with pytest.raises(ValueError):
            FokkerPlanck().flow(band_limited_state(grid_small), -0.1)

    def test_measurable_positivity_loss_raises(self, grid_small):
        # a state that is mostly negative is irreparable
        h = np.full((grid_small.nx_total, grid_small.nv_total), -0.5)
        h[:, :2] = 10.0
        s = State(grid_small, h / integrate_mu(h, grid_small), time=0.0)
        with pytest.raises(PositivityError):
            FokkerPlanck().flow(s, 0.1)


def coefficient_decay(h, grid, t):
    """The Ornstein-Uhlenbeck flow in coefficient space: each orthonormal
    Hermite coefficient decays by exp(-|n| t), |n| its total degree."""
    degree = np.indices(grid.v_shape()).reshape(grid.dim, -1).sum(axis=0)
    return oracles.hermite_series(hermite_coefficients(h, grid) * np.exp(-degree * t), grid)


@pytest.mark.parametrize("dim,nv", [(1, 32), (2, 16)])
def test_propagator_matches_coefficient_decay(dim, nv):
    # compared in the sqrt-weight frame: far-tail nodal values carry
    # round-off times 1/sqrt(w)
    grid = build_grid(GridSpec(dim=dim, nx=8, nv=nv))
    sqrt_w = np.sqrt(grid.v_weights)
    for seed in range(3):
        h = random_band_limited(grid, seed=seed, amplitude=0.5).h
        for t in (0.01, 0.7):
            want = coefficient_decay(h, grid, t)
            # the bare matrix, contracted with each velocity axis in turn
            prop = fokker_planck_propagator(grid, t)
            tens = h.reshape(-1, *grid.v_shape())
            for axis in range(dim):
                tens = np.moveaxis(np.tensordot(tens, prop, axes=([axis + 1], [1])), -1, axis + 1)
            flowed = FokkerPlanck().flow(State(grid, h), t).h
            for got in (tens.reshape(h.shape), flowed):
                assert (np.abs(got - want) * sqrt_w).max() < 1e-13


@pytest.mark.parametrize("dim,nv", [(1, 32), (2, 16)])
def test_ou_generator_scales_coefficients_by_minus_degree(dim, nv):
    # the t-derivative at 0 of coefficient_decay, in the sqrt-weight frame
    grid = build_grid(GridSpec(dim=dim, nx=8, nv=nv))
    sqrt_w = np.sqrt(grid.v_weights)
    degree = np.indices(grid.v_shape()).reshape(grid.dim, -1).sum(axis=0)
    for seed in range(3):
        h = random_band_limited(grid, seed=seed, amplitude=0.5).h
        want = oracles.hermite_series(-degree * hermite_coefficients(h, grid), grid)
        got = FokkerPlanck().velocity_generator(grid)(h)
        assert (np.abs(got - want) * sqrt_w).max() < 1e-12 * np.abs(want * sqrt_w).max()


class TestGenerators:
    def test_transport_is_minus_v_dx(self, grid_small):
        # h = 1 + a cos(2 pi x) f(v) gives G h = 2 pi a v sin(2 pi x) f(v)
        a, b = 0.3, 0.2
        x, v = grid_small.x_nodes[:, 0], grid_small.v_nodes[:, 0]
        f = 1.0 + b * v * np.exp(-v * v / 8.0)
        want = 2.0 * np.pi * a * np.outer(np.sin(2.0 * np.pi * x), v * f)
        got = transport_generator(band_limited_state(grid_small, a, b).h, grid_small)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("collision", [BGK(1.3), FokkerPlanck()], ids=["bgk", "fp"])
    @pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
    def test_collision_generator_is_the_flow_derivative(self, request, grid_name, collision):
        # matrices as actions on the nodal identity; the Richardson
        # difference (4 F(t/2) - 3 I - F(t)) / t misses the derivative by
        # G^3 t^2 / 12, under 1e-8 of the largest entry of G at t = 1e-5
        # (the diffusion generator's spectral radius is 14 or 15 here)
        grid = request.getfixturevalue(grid_name)
        eye = np.eye(grid.nv_total)
        gen = collision.velocity_generator(grid)(eye)
        t = 1e-5
        flow = [collision.velocity_flow(grid, dt)(eye) for dt in (t / 2.0, t)]
        diff = (4.0 * flow[0] - 3.0 * eye - flow[1]) / t
        assert np.abs(diff - gen).max() < 1e-7 * np.abs(gen).max()

    def test_generators_fix_equilibrium(self, grid_small):
        h = equilibrium(grid_small).h
        assert np.abs(transport_generator(h, grid_small)).max() == 0.0
        for collision in (BGK(0.8), FokkerPlanck()):
            assert np.abs(collision.velocity_generator(grid_small)(h)).max() < 1e-12


class TestGeneratorObjects:
    def test_bgk_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BGK(rate=0.0)

    def test_flow_dispatch(self, grid_small):
        s = band_limited_state(grid_small)
        assert np.array_equal(Transport().flow(s, 0.2).h, transport_flow(s, 0.2).h)
        # a collision's flow is its velocity_flow on h, floored for diffusion
        relaxed = BGK(1.0).velocity_flow(grid_small, 0.2)(s.h)
        assert BGK(1.0).flow(s, 0.2).h.tobytes() == relaxed.tobytes()
        diffused = floor_immaterial(FokkerPlanck().velocity_flow(grid_small, 0.2)(s.h), grid_small)
        assert FokkerPlanck().flow(s, 0.2).h.tobytes() == diffused.tobytes()

    def test_equilibrium_fixed_by_all(self, grid_small):
        s = equilibrium(grid_small)
        for gen in (Transport(), BGK(0.8), FokkerPlanck()):
            assert np.abs(gen.flow(s, 0.6).h - 1.0).max() < 1e-12


class TestTwoDimensionalFlows:
    def test_transport_group(self, grid_2d):
        x = grid_2d.x_nodes
        v = grid_2d.v_nodes
        h = 1.0 + 0.3 * np.outer(np.cos(2 * np.pi * x[:, 0]), 1.0 + 0.1 * v[:, 1])
        s = State(grid_2d, h)
        back = transport_flow(transport_flow(s, 0.23), -0.23)
        assert np.abs(back.h - s.h).max() < 1e-12

    def test_transport_axis_pairing(self, grid_2d):
        # each spatial axis must shift by its own velocity component
        x = grid_2d.x_nodes
        v = grid_2d.v_nodes
        t = 0.17
        mod = (1.0 + 0.2 * np.tanh(0.3 * v[:, 0]))[None, :]
        h = 1.0 + 0.3 * np.cos(2 * np.pi * x[:, 1])[:, None] * mod
        out = transport_flow(State(grid_2d, h), t)
        shifted = np.cos(2 * np.pi * (x[:, 1][:, None] - v[:, 1][None, :] * t))
        assert np.abs(out.h - (1.0 + 0.3 * shifted * mod)).max() < 1e-12

    def test_fp_tensor_decay(self, grid_2d):
        v = grid_2d.v_nodes
        a, t = 0.02, 0.4  # amplitude keeps h positive at the corner nodes
        s = State(grid_2d, 1.0 + a * np.tile(v[:, 0] * v[:, 1], (grid_2d.nx_total, 1)))
        out = FokkerPlanck().flow(s, t)
        expect = 1.0 + a * np.exp(-2.0 * t) * (v[:, 0] * v[:, 1])[None, :]
        assert np.abs(out.h - expect).max() < 1e-10


@pytest.mark.parametrize("generator", [Transport(), BGK(1.3), FokkerPlanck()],
                         ids=["transport", "bgk", "fp"])
@pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
def test_flow_of_a_stack_flows_each_member_alone(request, grid_name, generator):
    # bit for bit: one numpy call per stack gives each member's own flow
    grid = request.getfixturevalue(grid_name)
    states = [random_band_limited(grid, seed, amplitude=0.5) for seed in range(3)]
    stacked = generator.flow(State(grid, np.stack([s.h for s in states]), time=0.5), 0.01)
    assert stacked.time == 0.51
    for member, s in zip(stacked.h, states):
        assert np.array_equal(member, generator.flow(State(grid, s.h, time=0.5), 0.01).h)
