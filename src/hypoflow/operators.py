"""Exact one-parameter sub-flows for the three generators.

Transport is a per-velocity Fourier phase shift, relaxation toward the
velocity average is an explicit exponential mixture, and the
velocity-space Ornstein-Uhlenbeck operator decays Hermite coefficients.
None of the flows carries time-stepping error, so operator splitting is
the only discretization of the composed dynamics.

The collision flows act on v alone and so commute with the Fourier
transform in x: each collision kind also flows the half-spectrum x-modes
of `phase_space.to_modes` (`flow_modes`), on which transport is the
diagonal table of `transport_phases`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .phase_space import (
    Grid,
    State,
    floor_immaterial,
    hermite_coefficients,
    hermite_values,
    project_pi,
    to_modes,
    to_nodes,
)


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

    def flow_modes(self, modes: np.ndarray, grid: Grid, t: float) -> np.ndarray:
        return bgk_relax(modes, grid, self.rate, t)


@dataclass(frozen=True)
class FokkerPlanck:
    """Ornstein-Uhlenbeck diffusion in velocity."""

    name: ClassVar[str] = "fokker-planck"

    def flow(self, state: State, t: float) -> State:
        return fokker_planck_flow(state, t)

    def flow_modes(self, modes: np.ndarray, grid: Grid, t: float) -> np.ndarray:
        return fokker_planck_modes_flow(modes, grid, t)


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


def fokker_planck_modes_flow(modes: np.ndarray, grid: Grid, t: float) -> np.ndarray:
    """fokker_planck_flow on spatial Fourier modes.

    The flow goes through nodal values, so its positivity floor and its
    PositivityError act exactly as on a nodal state.
    """
    out = fokker_planck_flow(State(grid, to_nodes(modes, grid)), t)
    return to_modes(out.h, grid)


def fokker_planck_flow(state: State, t: float) -> State:
    """Hermite-coefficient decay exp(-|n| t) per spatial node.

    Streaming chirps spatial harmonics toward ever-higher velocity
    frequencies; while a filament transits the top of the Hermite band its
    (physically correct, tiny) band-edge coefficients reconstruct to large
    negative values at the far-tail abscissae, which carry ~1e-22 of the
    measure. The flow floors such excursions through floor_immaterial and
    errors when positivity is lost by a measurable amount.
    """
    if t < 0:
        raise ValueError(f"diffusion flow needs t >= 0, got {t}")
    if t == 0.0:
        return state
    grid = state.grid
    factor = np.exp(-grid.hermite_degree * t)
    # flow the fluctuation around the velocity average and reconstruct only
    # the change: the v-constant part is exactly invariant, so states at or
    # near local equilibrium never accumulate transform round-trip noise
    fluct = state.h - project_pi(state.h, grid)[:, None]
    c = hermite_coefficients(fluct, grid)
    delta = hermite_values(c * (factor - 1.0)[None, :], grid)
    h = floor_immaterial(state.h + delta, grid)
    return state.replace(h, time=state.time + t)
