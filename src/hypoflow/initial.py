"""Initial data families: named deterministic profiles and seeded random
positive fields with controlled amplitude and band limits."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .phase_space import H_MIN, Grid, State, integrate_x, project_pi

# random_band_limited's exponent g has sup norm |amplitude| and h = exp(g)/Z
# with exp(-|a|) <= Z <= exp(|a|), so h >= exp(-2|a|); up to this amplitude
# that bound stays above H_MIN and exp cannot overflow.
MAX_RANDOM_AMPLITUDE = -0.5 * np.log(H_MIN)


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
    modulation; positivity needs |a| (1 + |b|) < 1.
    """
    if abs(amplitude) * (1.0 + abs(v_amplitude)) >= 1.0:
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


def random_band_limited(grid: Grid, seed: int | Sequence[int], amplitude: float = 0.25,
                        x_modes: int = 2, v_degree: int = 2) -> State:
    """exp(band-limited field) / normalization: positive, unit mass.

    The exponent combines low spatial harmonics with low-degree Hermite
    polynomials in each velocity coordinate, scaled so its sup norm is
    close to `amplitude`; gentle enough that all spectral tails stay far
    below the functional tolerances. Harmonics reach x_modes < nx // 2,
    below the Nyquist mode.

    A sequence of seeds gives a stack with one member per seed, each bit
    for bit the state of that seed alone: its own generator draws its
    coefficients, and its sup scaling and mass are its own.
    """
    if not abs(amplitude) <= MAX_RANDOM_AMPLITUDE:
        raise ValueError(f"amplitude must satisfy |amplitude| <= {MAX_RANDOM_AMPLITUDE:.4g}, "
                         f"got {amplitude}")
    if not 0 <= x_modes < grid.spec.nx // 2:
        raise ValueError(f"x_modes must lie in 0..{grid.spec.nx // 2 - 1} "
                         f"(below nx // 2), got {x_modes}")
    if not 0 <= v_degree <= 2:
        raise ValueError(f"v_degree must lie in 0..2, got {v_degree}")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    two_pi = 2.0 * np.pi / grid.spec.period

    # orthonormal Hermite values per velocity axis, degrees 0..v_degree
    vp = []
    for ax in range(grid.dim):
        v = grid.v_nodes[:, ax]
        cols = [np.ones_like(v), v, (v * v - 1.0) / np.sqrt(2.0)]
        vp.append(cols[: v_degree + 1])

    # the (spatial, velocity) factors of each term of the exponent, in the
    # order each seed draws their coefficients, and each coefficient's
    # divisor; a term's outer product is formed once for the whole stack
    terms, divisors = [], []
    for ax in range(grid.dim):
        x = grid.x_nodes[:, ax]
        for m in range(1, x_modes + 1):
            for trig in (np.cos(two_pi * m * x), np.sin(two_pi * m * x)):
                for n in range(0, v_degree + 1):
                    terms.append((trig, vp[ax][n]))
                    divisors.append(1.0 + m + n)
    # a purely kinetic component so velocity gradients never vanish
    for n in range(1, v_degree + 1):
        terms.append((None, vp[0][n]))
        divisors.append(2.0 + n)

    coefs = np.array([np.random.default_rng(s).normal(size=len(terms))
                      for s in seeds]) / np.array(divisors)
    g = np.zeros((len(seeds), grid.nx_total, grid.nv_total))
    # work arrays reused by every term: fresh temporaries of a 2-D grid's
    # size can be paged in anew each term (18 against 5 ms a 32^2 x 16^2 draw)
    outer, term = np.empty(g.shape[1:]), np.empty_like(g)
    for c, (trig, vpart) in zip(coefs.T[:, :, None, None], terms):
        if trig is None:  # a kinetic term, constant in x
            g += c * vpart
        else:
            g += np.multiply(c, np.outer(trig, vpart, out=outer), out=term)
    sup = np.abs(g).max(axis=(1, 2))
    scale = np.ones_like(sup)
    scale[sup > 0] = amplitude / sup[sup > 0]
    g *= scale[:, None, None]
    h = np.exp(g)
    h /= integrate_x(project_pi(h, grid), grid)[:, None, None]
    return State(grid, h[0] if single else h)
