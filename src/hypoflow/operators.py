"""Exact one-parameter sub-flows for the three generators.

Transport is a per-velocity Fourier phase shift, relaxation toward the
velocity average is an explicit exponential mixture, and the
velocity-space Ornstein-Uhlenbeck operator decays Hermite coefficients.
None of the flows carries time-stepping error, so operator splitting is
the only discretization of the composed dynamics.

The collision flows act on v alone and so commute with the Fourier
transform in x: each collision kind also builds its flow of one step
length on the half-spectrum x-modes of `phase_space.to_modes`
(`modes_flow`), on which transport is the diagonal table of
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

# a collision flow of one step length on the x-modes of to_modes
ModesFlow = Callable[[np.ndarray], np.ndarray]


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
        return bgk_flow(state, self.rate, t)

    def modes_flow(self, grid: Grid, t: float) -> ModesFlow:
        return functools.partial(bgk_relax, grid=grid, rate=self.rate, t=t)


@dataclass(frozen=True)
class FokkerPlanck:
    """Ornstein-Uhlenbeck diffusion in velocity."""

    name: ClassVar[str] = "fokker-planck"

    def flow(self, state: State, t: float) -> State:
        return fokker_planck_flow(state, t)

    def modes_flow(self, grid: Grid, t: float) -> ModesFlow:
        # the modes are complex: a complex propagator spares matmul a cast
        # of the matrix on every step
        propagator = fokker_planck_propagator(grid, t).astype(complex)
        return functools.partial(fokker_planck_modes_flow, grid=grid, propagator=propagator)


@dataclass(frozen=True)
class Transport:
    """Free streaming along straight characteristics."""

    def flow(self, state: State, t: float) -> State:
        return transport_flow(state, t)


CollisionKind = BGK | FokkerPlanck


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


def bgk_flow(state: State, rate: float, t: float) -> State:
    """Exponential mixing toward the velocity average; positivity-preserving."""
    h = bgk_relax(state.h, state.grid, rate, t)
    if t == 0.0:
        return state
    return state.replace(h, time=state.time + t)


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


def _diffuse(fld: np.ndarray, grid: Grid, propagator: np.ndarray) -> np.ndarray:
    """`propagator` along every velocity axis of a field whose last axis
    holds the velocity nodes: nodal values or x-modes.

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


def fokker_planck_modes_flow(modes: np.ndarray, grid: Grid,
                             propagator: np.ndarray) -> np.ndarray:
    """fokker_planck_flow on spatial Fourier modes, given the step's
    `fokker_planck_propagator`.

    The flowed modes are floored in nodal values, so the positivity floor
    and its PositivityError act exactly as on a nodal state; the modes are
    transformed again only when the floor repaired a value.
    """
    modes = _diffuse(modes, grid, propagator)
    h = to_nodes(modes, grid)
    floored = floor_immaterial(h, grid)
    return modes if floored is h else to_modes(floored, grid)


def fokker_planck_flow(state: State, t: float) -> State:
    """Hermite-coefficient decay exp(-|n| t) per spatial node: the nodal
    matrix `fokker_planck_propagator` along every velocity axis.

    Streaming chirps spatial harmonics toward ever-higher velocity
    frequencies; while a filament transits the top of the Hermite band its
    (physically correct, tiny) band-edge coefficients reconstruct to large
    negative values at the far-tail abscissae, which carry ~1e-22 of the
    measure. The flow floors such excursions through floor_immaterial and
    errors when positivity is lost by a measurable amount.
    """
    if t == 0.0:
        return state
    grid = state.grid
    h = _diffuse(state.h, grid, fokker_planck_propagator(grid, t))
    return state.replace(floor_immaterial(h, grid), time=state.time + t)
