import itertools

import numpy as np
import pytest

from hypoflow import GridSpec, build_grid, random_band_limited

import oracles

GRIDS = {1: build_grid(GridSpec(dim=1, nx=8, nv=4)),
         2: build_grid(GridSpec(dim=2, nx=8, nv=4))}

# x_modes = v_degree = 0 leaves no term in the exponent: its sup is zero
SHAPES = list(itertools.product((1, 2), range(4), range(3), (0.25, 0.0)))


@pytest.mark.parametrize("dim,x_modes,v_degree,amplitude", SHAPES)
def test_single_seed_matches_the_per_seed_draw(dim, x_modes, v_degree, amplitude):
    grid = GRIDS[dim]
    for seed in (0, 7):
        h = random_band_limited(grid, seed, amplitude, x_modes, v_degree).h
        ref = oracles.random_band_limited_one(grid, seed, amplitude, x_modes, v_degree).h
        assert h.shape == ref.shape
        assert h.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim,x_modes,v_degree,amplitude", SHAPES)
def test_each_stack_member_is_its_seed_alone(dim, x_modes, v_degree, amplitude):
    grid = GRIDS[dim]
    seeds = range(3, 8)
    stack = random_band_limited(grid, seeds, amplitude, x_modes, v_degree).h
    assert stack.shape == (len(seeds), grid.nx_total, grid.nv_total)
    for member, seed in zip(stack, seeds):
        ref = oracles.random_band_limited_one(grid, seed, amplitude, x_modes, v_degree).h
        assert member.tobytes() == ref.tobytes()


def test_a_stack_of_one_is_the_single_draw():
    grid = GRIDS[1]
    assert random_band_limited(grid, [4]).h[0].tobytes() == random_band_limited(grid, 4).h.tobytes()


@pytest.mark.parametrize("nx", [8, 32])
def test_x_modes_stop_below_nyquist(nx):
    # harmonic nx // 2 is the Nyquist mode, which the gradients and the
    # transport phases set to zero; higher ones alias lower harmonics
    grid = build_grid(GridSpec(dim=1, nx=nx, nv=4))
    assert np.isfinite(random_band_limited(grid, 0, x_modes=nx // 2 - 1).h).all()
    for x_modes in (nx // 2, 20000):
        with pytest.raises(ValueError, match="x_modes"):
            random_band_limited(grid, 0, x_modes=x_modes)
