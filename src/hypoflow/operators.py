"""Exact one-parameter sub-flows for the three generators.

Transport is a per-velocity Fourier phase shift, relaxation toward the
velocity average is an explicit exponential mixture, and the
velocity-space Ornstein-Uhlenbeck operator decays Hermite coefficients.
None of the flows carries time-stepping error, so operator splitting is
the only discretization of the composed dynamics.

The collision flows act on v alone and so commute with the Fourier
transform in x: each collision kind builds one `velocity_flow` of a given
length over the last (velocity) axis, which flows nodal values and the
half-spectrum x-modes of `phase_space.to_modes` alike. `collision_flow`
makes it the nodal flow that the verifier differentiates, and `simulate`
steps the x-modes with it, on which transport is the diagonal table of
`transport_phases`.

Each flow acts on a state that stacks members on leading axes of h in one
numpy call, every member as it would flow alone.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .phase_space import (
    Grid,
    State,
    floor_immaterial,
    to_modes,
    to_nodes,
)

# a collision flow of one length over the last (velocity) axis of nodal
# values or of the x-modes of to_modes
VelocityFlow = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BGK:
    """Relaxation toward the local velocity average at a fixed rate."""

    # the model's name in configs, manifests and build_report
    name: ClassVar[str] = "bgk"
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"relaxation rate must be positive, got {self.rate}")

    def flow(self, state: State, t: float) -> State:
        return collision_flow(self, state, t)

    def velocity_flow(self, grid: Grid, t: float) -> VelocityFlow:
        return functools.partial(bgk_relax, grid=grid, rate=self.rate, t=t)


@dataclass(frozen=True)
class FokkerPlanck:
    """Ornstein-Uhlenbeck diffusion in velocity."""

    name: ClassVar[str] = "fokker-planck"

    def flow(self, state: State, t: float) -> State:
        return collision_flow(self, state, t)

    def velocity_flow(self, grid: Grid, t: float) -> VelocityFlow:
        return functools.partial(fokker_planck_diffuse, grid=grid,
                                 propagator=fokker_planck_propagator(grid, t))


@dataclass(frozen=True)
class Transport:
    """Free streaming along straight characteristics."""

    def flow(self, state: State, t: float) -> State:
        return transport_flow(state, t)


CollisionKind = BGK | FokkerPlanck


def collision_flow(collision: CollisionKind, state: State, t: float) -> State:
    """The collision's `velocity_flow` of time t applied to h; diffusion
    then floors the flowed h through floor_immaterial.

    Streaming chirps spatial harmonics toward ever-higher velocity
    frequencies; while a filament transits the top of the Hermite band its
    (physically correct, tiny) band-edge coefficients reconstruct to large
    negative values at the far-tail abscissae, which carry ~1e-22 of the
    measure. The floor repairs such excursions and errors when positivity
    is lost by a measurable amount.
    """
    if t == 0.0:
        return state
    h = collision.velocity_flow(state.grid, t)(state.h)
    if isinstance(collision, FokkerPlanck):
        h = floor_immaterial(h, state.grid)
    return state.replace(h, time=state.time + t)


def time_scale(generator: Transport | CollisionKind) -> float:
    """min(1, 1/rate) for a BGK generator and 1 for any other: the time
    unit that default steps are fractions of."""
    rate = generator.rate if isinstance(generator, BGK) else 1.0
    return min(1.0, 1.0 / rate)


def transport_phases(grid: Grid, t: float) -> np.ndarray:
    """exp(-i k.v t) over the half-spectrum x-modes of to_modes and the
    velocity nodes: the transport flow of time t, diagonal in (k, v)."""
    kv = sum(k * grid.v_nodes[:, axis] for axis, k in enumerate(grid.k_modes))
    return np.exp(-1j * kv * t)


def transport_flow(state: State, t: float) -> State:
    """h(x, v) <- h(x - v t, v), exact for any real t."""
    if t == 0.0:
        return state
    grid = state.grid
    modes = to_modes(state.h, grid) * transport_phases(grid, t)
    return state.replace(to_nodes(modes, grid), time=state.time + t)


def bgk_relax(values: np.ndarray, grid: Grid, rate: float, t: float) -> np.ndarray:
    """Exponential mixing toward the velocity average over the last axis.

    Relaxation acts on v alone, so the same formula flows nodal values and
    spatial Fourier modes alike.
    """
    if not rate > 0:
        raise ValueError(f"relaxation rate must be positive, got {rate}")
    if t < 0:
        raise ValueError(f"relaxation flow needs t >= 0, got {t}")
    if t == 0.0:
        return values
    decay = np.exp(-rate * t)
    return decay * values + (1.0 - decay) * (values @ grid.v_weights)[..., None]


def fokker_planck_propagator(grid: Grid, t: float) -> np.ndarray:
    """(nv, nv) nodal matrix of the Ornstein-Uhlenbeck flow of time t along
    one velocity axis.

    The flow decays orthonormal Hermite coefficient n by exp(-n t). In the
    sqrt-weight frame, where the Hermite transform O is orthogonal, that is
    O^T diag(exp(-n t)) O; this is the same matrix in nodal values.
    """
    if t < 0:
        raise ValueError(f"diffusion flow needs t >= 0, got {t}")
    ortho = grid.hermite_ortho
    sqw = ortho[0]  # phi_0 = 1, so the first row of the transform is sqrt(w)
    decay = np.exp(-np.arange(grid.spec.nv) * t)
    return (ortho.T * decay) @ ortho / sqw[:, None] * sqw[None, :]


def fokker_planck_diffuse(fld: np.ndarray, grid: Grid, propagator: np.ndarray) -> np.ndarray:
    """A step's `fokker_planck_propagator` along every velocity axis of
    nodal values or x-modes, whose last axis holds the velocity nodes.

    Along each axis it acts on the fluctuation about the velocity average,
    which the flow fixes, and adds the average back. So a v-constant column
    stays fixed up to the round-off of its average, and round-off scales
    with the fluctuation, not with h: the matrix's entries reach 1/sqrt(w)
    at the far-tail abscissae.
    """
    w = grid.hermite_ortho[0] ** 2
    for axis in range(grid.dim):
        tens = fld.reshape(-1, *grid.v_shape()).swapaxes(axis + 1, -1)
        mean = (tens @ w)[..., None]
        tens = (tens - mean) @ propagator.T
        tens += mean
        fld = tens.swapaxes(axis + 1, -1).reshape(fld.shape)
    return fld
