"""Initial data families: named deterministic profiles and seeded random
positive fields with controlled amplitude and band limits."""

from __future__ import annotations

import numpy as np

from .phase_space import Grid, State, integrate_mu


def equilibrium(grid: Grid) -> State:
    return State(grid, np.ones((grid.nx_total, grid.nv_total)))


def _saturating_odd(v: np.ndarray) -> np.ndarray:
    """Bounded odd velocity shape, |s| <= 1, normalized to peak at one.

    The Gaussian envelope keeps the Hermite coefficients decaying
    geometrically, so the shape stays safely inside the collocation band;
    algebraically-saturating shapes hide large canceling oscillations at
    the outer nodes that the velocity-diffusion flow would expose.
    """
    return v * np.exp(-v * v / 8.0) / (2.0 * np.exp(-0.5))


def cosine(grid: Grid, amplitude: float = 0.5, v_amplitude: float = 0.0) -> State:
    """1 + a cos(2 pi x1) (1 + b s(v1)) with a bounded odd modulation.

    The cosine has zero spatial mean, so mass is exactly one for any
    modulation; positivity needs a (1 + |b|) < 1.
    """
    if amplitude * (1.0 + abs(v_amplitude)) >= 1.0:
        raise ValueError("amplitude too large for a positive profile")
    x1 = grid.x_nodes[:, 0]
    v1 = grid.v_nodes[:, 0]
    prof = 1.0 + v_amplitude * _saturating_odd(v1)
    h = 1.0 + amplitude * np.outer(np.cos(2.0 * np.pi * x1 / grid.spec.period), prof)
    return State(grid, h)


def velocity_perturbation(grid: Grid, amplitude: float = 0.3) -> State:
    """Spatially homogeneous state 1 + b s(v1); its velocity average is
    exactly one, so the relaxation flow has a closed form."""
    if abs(amplitude) >= 1.0:
        raise ValueError("amplitude must keep h positive")
    v1 = grid.v_nodes[:, 0]
    h = np.ones((grid.nx_total, 1)) * (1.0 + amplitude * _saturating_odd(v1))[None, :]
    return State(grid, h)


def random_band_limited(grid: Grid, seed: int, amplitude: float = 0.25,
                        x_modes: int = 2, v_degree: int = 2) -> State:
    """exp(band-limited field) / normalization: positive, unit mass.

    The exponent combines low spatial harmonics with low-degree Hermite
    polynomials in each velocity coordinate, scaled so its sup norm is
    close to `amplitude`; gentle enough that all spectral tails stay far
    below the functional tolerances.
    """
    if x_modes < 0:
        raise ValueError(f"x_modes must be >= 0, got {x_modes}")
    if not 0 <= v_degree <= 2:
        raise ValueError(f"v_degree must lie in 0..2, got {v_degree}")
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * np.pi / grid.spec.period
    g = np.zeros((grid.nx_total, grid.nv_total))

    # orthonormal Hermite values per velocity axis, degrees 0..v_degree
    vp = []
    for ax in range(grid.dim):
        v = grid.v_nodes[:, ax]
        cols = [np.ones_like(v), v, (v * v - 1.0) / np.sqrt(2.0)]
        vp.append(cols[: v_degree + 1])

    for ax in range(grid.dim):
        x = grid.x_nodes[:, ax]
        for m in range(1, x_modes + 1):
            for trig in (np.cos(two_pi * m * x), np.sin(two_pi * m * x)):
                for n in range(0, v_degree + 1):
                    vpart = vp[ax % grid.dim][n]
                    coef = rng.normal() / (1.0 + m + n)
                    g += coef * np.outer(trig, vpart)
    # a purely kinetic component so velocity gradients never vanish
    for n in range(1, v_degree + 1):
        g += rng.normal() / (2.0 + n) * vp[0][n][None, :]

    sup = np.abs(g).max()
    if sup > 0:
        g *= amplitude / sup
    h = np.exp(g)
    h /= integrate_mu(h, grid)
    return State(grid, h)
