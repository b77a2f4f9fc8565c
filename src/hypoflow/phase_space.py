"""Phase-space discretization: torus x Maxwellian-weighted velocity space.

Space is the periodic lattice on [0, 1)^d with Fourier spectral
differentiation; velocity space uses Gauss-Hermite collocation for the
standard Gaussian weight, so the Maxwellian is absorbed into the quadrature
weights and the velocity average is a single weighted sum.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Densities below this are outside the bounded-below regime every weighted
# functional assumes; integrands with 1/h or h**(p-2) refuse to evaluate.
H_MIN = 1e-12

# Relative Hermite-coefficient mass in the top two modes beyond which a
# velocity derivative is considered under-resolved.
TAIL_WARN_FRACTION = 1e-6


class PositivityError(ValueError):
    """Field left the positive, bounded-below regime."""


class SpectralResolutionWarning(UserWarning):
    """Hermite coefficient tail too large for reliable differentiation."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution parameters: dim spatial axes of nx Fourier points, dim
    velocity axes of nv Gauss-Hermite nodes."""

    dim: int = 1
    nx: int = 64
    nv: int = 32
    period: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.nx % 2 != 0 or self.nx < 8:
            raise ValueError(f"nx must be even and >= 8, got {self.nx}")
        if self.nv < 4:
            raise ValueError(f"nv must be >= 4, got {self.nv}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def nx_total(self) -> int:
        return self.nx**self.dim

    @property
    def nv_total(self) -> int:
        return self.nv**self.dim


def _hermite_matrices(v: np.ndarray, w: np.ndarray):
    """Weighted-frame Hermite transform and the derivative matrix.

    Rows of the transform are sqrt(w_j) phi_n(v_j) with phi_n the
    probabilists' polynomials normalized to unit Gaussian norm. That
    matrix is exactly orthogonal, so both transform directions are
    perfectly conditioned even though the bare polynomial values reach
    1e10 at the outermost abscissae.
    """
    nv = v.size
    phi = np.zeros((nv, nv))
    phi[0] = 1.0
    if nv > 1:
        phi[1] = v
    for n in range(1, nv - 1):
        phi[n + 1] = (v * phi[n] - np.sqrt(n) * phi[n - 1]) / np.sqrt(n + 1)
    sqw = np.sqrt(w)
    ortho = phi * sqw[None, :]      # orthogonal: ortho @ ortho.T = I
    lower = np.zeros((nv, nv))
    for n in range(1, nv):
        lower[n - 1, n] = np.sqrt(n)  # d/dv in coefficient space
    # nodal-to-nodal derivative: values <- coefficients <- lowering <- values
    deriv = (ortho.T / sqw[:, None]) @ lower @ (ortho * sqw[None, :])
    return ortho, sqw, deriv


@dataclass(frozen=True)
class Grid:
    """Tensor grid with quadrature and spectral-derivative operators.

    Nodal fields are stored as (nx_total, nv_total) arrays, row-major over
    the spatial then velocity tensor axes.
    """

    spec: GridSpec
    x_axis: np.ndarray          # (nx,) lattice on [0, period)
    k_axis: np.ndarray          # (nx,) wavenumbers 2*pi*m/period, Nyquist zeroed
    v_axis: np.ndarray          # (nv,) Gauss-Hermite abscissae
    w_axis: np.ndarray          # (nv,) weights, sum 1
    x_nodes: np.ndarray         # (nx_total, dim)
    v_nodes: np.ndarray         # (nv_total, dim)
    v_weights: np.ndarray       # (nv_total,) tensor-product weights
    hermite_ortho: np.ndarray = field(repr=False, default=None)  # (nv, nv)
    sqrt_w: np.ndarray = field(repr=False, default=None)         # (nv,)
    hermite_deriv: np.ndarray = field(repr=False, default=None)  # (nv, nv)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def nx_total(self) -> int:
        return self.spec.nx_total

    @property
    def nv_total(self) -> int:
        return self.spec.nv_total

    def x_shape(self) -> tuple:
        return (self.spec.nx,) * self.dim

    def v_shape(self) -> tuple:
        return (self.spec.nv,) * self.dim


def build_grid(spec: GridSpec) -> Grid:
    """Construct the grid for a validated GridSpec."""
    nx, nv, d = spec.nx, spec.nv, spec.dim
    x = np.arange(nx) * (spec.period / nx)
    modes = np.fft.fftfreq(nx, d=1.0 / nx)
    k = 2.0 * np.pi * modes / spec.period
    k[nx // 2] = 0.0  # Nyquist dropped: keeps d/dx real and antisymmetric

    v, w = hermegauss(nv)
    w = w / w.sum()

    if d == 1:
        x_nodes = x[:, None]
        v_nodes = v[:, None]
        v_weights = w.copy()
    else:
        xg = np.meshgrid(x, x, indexing="ij")
        x_nodes = np.stack([g.ravel() for g in xg], axis=1)
        vg = np.meshgrid(v, v, indexing="ij")
        v_nodes = np.stack([g.ravel() for g in vg], axis=1)
        v_weights = np.outer(w, w).ravel()

    ortho, sqw, deriv = _hermite_matrices(v, w)
    return Grid(
        spec=spec, x_axis=x, k_axis=k, v_axis=v, w_axis=w,
        x_nodes=x_nodes, v_nodes=v_nodes, v_weights=v_weights,
        hermite_ortho=ortho, sqrt_w=sqw, hermite_deriv=deriv,
    )


@dataclass(frozen=True)
class State:
    """Density ratio h sampled on the grid at one instant.

    Valid states are strictly positive with unit mass against the
    equilibrium measure; `validate` enforces both.
    """

    grid: Grid
    h: np.ndarray   # (nx_total, nv_total)
    time: float = 0.0

    def __post_init__(self):
        expect = (self.grid.nx_total, self.grid.nv_total)
        if self.h.shape != expect:
            raise ValueError(f"h has shape {self.h.shape}, expected {expect}")

    def validate(self, mass_tol: float = 1e-10) -> None:
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h contains non-finite entries")
        hmin = float(self.h.min())
        if hmin <= 0.0:
            raise PositivityError(f"h must be positive everywhere, min = {hmin:.3e}")
        mass = integrate_mu(self.h, self.grid)
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"mass {mass!r} deviates from 1 by more than {mass_tol}")

    def replace(self, h: np.ndarray, time: float | None = None) -> "State":
        return State(self.grid, h, self.time if time is None else time)


def integrate_mu(fld: np.ndarray, grid: Grid) -> float:
    """Integral against uniform(torus) x Maxwellian of a nodal field."""
    if fld.shape != (grid.nx_total, grid.nv_total):
        raise ValueError(f"expected a ({grid.nx_total}, {grid.nv_total}) field, "
                         f"got shape {fld.shape}")
    if not np.all(np.isfinite(fld)):
        raise ValueError("field contains non-finite entries")
    return float((fld @ grid.v_weights).sum()) / grid.nx_total


def integrate_x(spatial: np.ndarray, grid: Grid) -> float:
    """Integral of a spatial field against the uniform torus measure."""
    if not np.all(np.isfinite(spatial)):
        raise ValueError("field contains non-finite entries")
    return float(spatial.sum()) / grid.nx_total


def project_pi(state_or_h, grid: Grid | None = None) -> np.ndarray:
    """Velocity average: weighted sum over v-nodes, one value per x-node."""
    if isinstance(state_or_h, State):
        h, grid = state_or_h.h, state_or_h.grid
    else:
        h = state_or_h
    return h @ grid.v_weights


def to_modes(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum real FFT over the spatial axes of a nodal field.

    Returns (nx, ..., nx // 2 + 1, columns): the last spatial axis keeps
    its nonnegative modes only, and its wavenumbers are
    grid.k_axis[:nx // 2 + 1].
    """
    return np.fft.rfftn(fld.reshape(*grid.x_shape(), -1), axes=tuple(range(grid.dim)))


def to_nodes(modes: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of to_modes: a (nx_total, columns) nodal field."""
    fld = np.fft.irfftn(modes, s=grid.x_shape(), axes=tuple(range(grid.dim)))
    return fld.reshape(grid.nx_total, -1)


def grad_x_field(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient along every spatial axis; returns (dim, nx_total, nv_total)."""
    d = grid.dim
    nx = grid.spec.nx
    out = np.empty((d, grid.nx_total, fld.shape[1]))
    if d == 1:
        fh = np.fft.fft(fld, axis=0)
        out[0] = np.fft.ifft(1j * grid.k_axis[:, None] * fh, axis=0).real
    else:
        tens = fld.reshape(nx, nx, -1)
        fh = np.fft.fftn(tens, axes=(0, 1))
        out[0] = np.fft.ifftn(1j * grid.k_axis[:, None, None] * fh, axes=(0, 1)).real.reshape(grid.nx_total, -1)
        out[1] = np.fft.ifftn(1j * grid.k_axis[None, :, None] * fh, axes=(0, 1)).real.reshape(grid.nx_total, -1)
    return out


def grad_x_spatial(spatial: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient of a purely spatial field; returns (dim, nx_total)."""
    return grad_x_field(spatial[:, None], grid)[:, :, 0]


def div_x_spatial(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a spatial vector field (dim, nx_total)."""
    out = np.zeros(grid.nx_total)
    for i in range(grid.dim):
        out += grad_x_spatial(vec[i], grid)[i]
    return out


def grad_v_field(fld: np.ndarray, grid: Grid, warn: bool = True) -> np.ndarray:
    """Hermite-recurrence gradient along every velocity axis.

    Expands each x-slice in orthonormal Hermite polynomials, lowers the
    coefficients and re-evaluates at the nodes. Emits a
    SpectralResolutionWarning when the coefficient tail carries more than
    TAIL_WARN_FRACTION of the total norm.
    """
    d = grid.dim
    nv = grid.spec.nv
    D = grid.hermite_deriv
    out = np.empty((d, fld.shape[0], grid.nv_total))
    if warn:
        tail = hermite_tail_fraction(fld, grid)
        if tail > TAIL_WARN_FRACTION:
            # order-of-magnitude message so repeated warnings deduplicate
            warnings.warn(
                f"Hermite coefficient tail fraction ~1e{int(np.ceil(np.log10(tail)))} "
                f"exceeds {TAIL_WARN_FRACTION:.0e}; increase nv",
                SpectralResolutionWarning,
                stacklevel=2,
            )
    if d == 1:
        out[0] = fld @ D.T
    else:
        tens = fld.reshape(-1, nv, nv)
        out[0] = np.einsum("ab,xbc->xac", D, tens).reshape(fld.shape[0], -1)
        out[1] = np.einsum("cb,xab->xac", D, tens).reshape(fld.shape[0], -1)
    return out


def hermite_coefficients(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Orthonormal Hermite coefficients per x-node; shape matches the field.

    Works in the sqrt-weight frame where the transform is orthogonal, so
    no precision is lost even at the far-tail abscissae.
    """
    nv = grid.spec.nv
    U = grid.hermite_ortho
    sw = grid.sqrt_w
    if grid.dim == 1:
        return (fld * sw[None, :]) @ U.T
    tens = fld.reshape(-1, nv, nv) * np.outer(sw, sw)[None, :, :]
    c = np.einsum("ab,xbc->xac", U, tens)
    c = np.einsum("cb,xab->xac", U, c)
    return c.reshape(fld.shape[0], -1)


def hermite_values(coef: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of hermite_coefficients."""
    nv = grid.spec.nv
    U = grid.hermite_ortho
    sw = grid.sqrt_w
    if grid.dim == 1:
        return (coef @ U) / sw[None, :]
    tens = coef.reshape(-1, nv, nv)
    h = np.einsum("ba,xbc->xac", U, tens)
    h = np.einsum("bc,xab->xac", U, h)
    return (h / np.outer(sw, sw)[None, :, :]).reshape(coef.shape[0], -1)


def hermite_tail_fraction(fld: np.ndarray, grid: Grid) -> float:
    """Fraction of the total coefficient norm in the top two modes per axis."""
    nv = grid.spec.nv
    c = hermite_coefficients(fld, grid)
    total = float(np.sqrt((c * c).sum()))
    if total == 0.0:
        return 0.0
    if grid.dim == 1:
        tail = c[:, nv - 2:]
        tail_norm = float(np.sqrt((tail * tail).sum()))
    else:
        tens = c.reshape(-1, nv, nv)
        mask = np.zeros((nv, nv), dtype=bool)
        mask[nv - 2:, :] = True
        mask[:, nv - 2:] = True
        tail_norm = float(np.sqrt((tens[:, mask] ** 2).sum()))
    return tail_norm / total


def require_bounded_below(fld: np.ndarray, what: str = "h") -> None:
    """Guard for integrands with negative powers of the density."""
    m = float(fld.min())
    if not m >= H_MIN:
        raise PositivityError(
            f"{what} reaches {m:.3e}, below the {H_MIN:.0e} floor required "
            "for entropy/Fisher integrands"
        )


# Nodal values below the positivity floor can legitimately appear at the
# far-tail velocity abscissae (quadrature weight ~1e-22) while streaming
# filaments transit the top of the Hermite band; they are invisible to
# every weighted integral. Flooring them is exact at measure level as long
# as the repair stays below this budget; beyond it the state is treated as
# genuinely broken.
POSITIVITY_REPAIR_BUDGET = 1e-10


def floor_immaterial(h: np.ndarray, grid: Grid,
                     budget: float = POSITIVITY_REPAIR_BUDGET) -> np.ndarray:
    """Floor sub-positive nodal values when the correction has negligible
    equilibrium measure; raise PositivityError otherwise."""
    if float(h.min()) >= H_MIN:
        return h
    low = h < H_MIN
    repair = float((np.where(low, H_MIN - h, 0.0) @ grid.v_weights).sum()) / grid.nx_total
    if repair > budget:
        raise PositivityError(
            f"positivity lost by a measurable amount "
            f"({repair:.3e} in the equilibrium measure)"
        )
    return np.where(low, H_MIN, h)


# --- snapshot format -------------------------------------------------------
#
# Text snapshot, stable across versions:
#   line 1: "hypoflow-state 1"
#   line 2: "dim=<d> nx=<nx> nv=<nv> period=<per> time=<t>"
#   then nx_total * nv_total values, one per line, row-major over (x, v),
#   printed with %.17e so that reload is bit-exact.

SNAPSHOT_MAGIC = "hypoflow-state 1"


def save_state(state: State, path) -> None:
    """Write a snapshot atomically: a temporary file beside `path`, then a
    rename, so an interrupted write leaves any previous file intact."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(SNAPSHOT_MAGIC + "\n")
            s = state.grid.spec
            f.write(f"dim={s.dim} nx={s.nx} nv={s.nv} period={s.period!r} time={state.time!r}\n")
            # one write per x-row: the same text as one "%.17e" line per
            # value, without holding the whole file in memory
            row_format = "%.17e\n" * state.grid.nv_total
            for row in state.h:
                f.write(row_format % tuple(row.tolist()))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _header_value(path, header: dict, key: str, kind):
    if key not in header:
        raise ValueError(f"{path}: snapshot header has no {key!r}")
    try:
        return kind(header[key])
    except ValueError:
        raise ValueError(f"{path}: snapshot header value {key}={header[key]!r} "
                         f"is not a valid {kind.__name__}") from None


def load_state(path, grid: Grid | None = None) -> State:
    """Read a snapshot; when a grid is given, the header must describe it."""
    with open(path) as f:
        magic = f.readline().strip()
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a hypoflow state snapshot: {magic!r}")
        header = {}
        for tok in f.readline().split():
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"{path}: snapshot header entry {tok!r} is not key=value")
            header[key] = val
        spec = GridSpec(dim=_header_value(path, header, "dim", int),
                        nx=_header_value(path, header, "nx", int),
                        nv=_header_value(path, header, "nv", int),
                        period=_header_value(path, header, "period", float))
        if grid is None:
            grid = build_grid(spec)
        elif grid.spec != spec:
            raise ValueError(f"{path}: snapshot header {spec} disagrees with "
                             f"the expected grid {grid.spec}")
        vals = np.loadtxt(f)
    expect = grid.nx_total * grid.nv_total
    if vals.size != expect:
        raise ValueError(f"{path}: {vals.size} values, expected {expect}")
    h = vals.reshape(grid.nx_total, grid.nv_total)
    return State(grid, h, time=_header_value(path, header, "time", float))
