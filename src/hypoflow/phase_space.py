"""Phase-space discretization: torus x Maxwellian-weighted velocity space.

Space is the periodic lattice on [0, 1)^d with Fourier spectral
differentiation; velocity space uses Gauss-Hermite collocation for the
standard Gaussian weight, so the Maxwellian is absorbed into the quadrature
weights and the velocity average is a single weighted sum.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Densities below this are outside the bounded-below regime every weighted
# functional assumes; integrands with 1/h or h**(p-2) refuse to evaluate.
H_MIN = 1e-12

# A valid state's mass against the equilibrium measure is 1 to within this.
MASS_TOL = 1e-10


class PositivityError(ValueError):
    """Field left the positive, bounded-below regime."""


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
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")

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
    the spatial then velocity tensor axes. Every table is built for any
    dim, so each operator below is written once.

    A field may also carry leading stack axes, (..., nx_total, nv_total),
    one member per index: the transforms, gradients and reductions below
    act on every member in one numpy call, and a reduction returns a
    Python float for a single field and an array of one value per member
    for a stack.
    """

    spec: GridSpec
    x_axis: np.ndarray          # (nx,) lattice on [0, period)
    # per spatial axis, the wavenumbers 2*pi*m/period of to_modes (Nyquist
    # zeroed), shaped to broadcast over its output
    k_modes: tuple
    x_nodes: np.ndarray         # (nx_total, dim)
    v_nodes: np.ndarray         # (nv_total, dim)
    v_weights: np.ndarray       # (nv_total,) tensor-product weights
    hermite_ortho: np.ndarray = field(repr=False, default=None)  # (nv, nv)
    sqrt_w: np.ndarray = field(repr=False, default=None)         # (nv_total,)
    hermite_deriv: np.ndarray = field(repr=False, default=None)  # (nv, nv)
    # the coefficients of Hermite degree >= nv - 2 along any axis
    hermite_tail: np.ndarray = field(repr=False, default=None)    # (nv_total,)

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


def _tensor_nodes(axis: np.ndarray, d: int) -> np.ndarray:
    """(n**d, d) row-major tensor lattice of a 1-D node set."""
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)


def _tensor_product(axis: np.ndarray, d: int) -> np.ndarray:
    """(n**d,) row-major products of a 1-D factor, one per tensor node."""
    out = axis
    for _ in range(d - 1):
        out = np.multiply.outer(out, axis)
    return out.ravel()


def build_grid(spec: GridSpec) -> Grid:
    """Construct the grid for a validated GridSpec; a ValueError names an
    nv whose Gauss-Hermite rule or Hermite transform is not finite."""
    nx, nv, d = spec.nx, spec.nv, spec.dim
    x = np.arange(nx) * (spec.period / nx)
    modes = np.fft.fftfreq(nx, d=1.0 / nx)
    k = 2.0 * np.pi * modes / spec.period
    k[nx // 2] = 0.0  # Nyquist dropped: keeps d/dx real and antisymmetric
    # to_modes keeps the nonnegative half of the last axis only
    per_axis = [k] * (d - 1) + [k[: nx // 2 + 1]]
    k_modes = tuple(ka.reshape((-1,) + (1,) * (d - axis)) for axis, ka in enumerate(per_axis))

    # numpy's rule overflows or underflows for large nv (weights NaN or 0
    # from nv = 371 with numpy 2.4); such a grid is refused, not warned about
    with np.errstate(all="ignore"):
        v, w = hermegauss(nv)
        if not (np.isfinite(v).all() and np.isfinite(w).all() and (w > 0).all()):
            raise ValueError(f"nv = {nv}: numpy's Gauss-Hermite rule has non-finite "
                             "or non-positive weights")
        w = w / w.sum()
        ortho, sqw, deriv = _hermite_matrices(v, w)
    if not (np.isfinite(ortho).all() and np.isfinite(deriv).all()):
        raise ValueError(f"nv = {nv}: the Hermite transform has non-finite entries")
    degrees = np.indices((nv,) * d).reshape(d, -1)
    return Grid(
        spec=spec, x_axis=x, k_modes=k_modes,
        x_nodes=_tensor_nodes(x, d), v_nodes=_tensor_nodes(v, d),
        v_weights=_tensor_product(w, d),
        hermite_ortho=ortho, sqrt_w=_tensor_product(sqw, d), hermite_deriv=deriv,
        hermite_tail=(degrees >= nv - 2).any(axis=0),
    )


@dataclass(frozen=True)
class State:
    """Density ratio h sampled on the grid at one instant.

    Valid states are strictly positive with unit mass against the
    equilibrium measure; `validate` enforces both for a single state. h may
    carry leading stack axes, every member at the same time.
    """

    grid: Grid
    h: np.ndarray   # (..., nx_total, nv_total)
    time: float = 0.0

    def __post_init__(self):
        expect = (self.grid.nx_total, self.grid.nv_total)
        if self.h.shape[-2:] != expect:
            raise ValueError(f"h has shape {self.h.shape}, "
                             f"expected (..., {expect[0]}, {expect[1]})")

    def validate(self) -> None:
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h contains non-finite entries")
        hmin = float(self.h.min())
        if hmin <= 0.0:
            raise PositivityError(f"h must be positive everywhere, min = {hmin:.3e}")
        mass = integrate_mu(self.h, self.grid)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"mass {mass!r} deviates from 1 by more than {MASS_TOL}")

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


def _member_sum(values: np.ndarray, axes: int = 1):
    """Sum of each stack member over the trailing `axes` axes: a Python
    float for a single member, else an array over the stack axes.

    A member's values are summed as one flat run, exactly as numpy sums a
    single member, so each member's sum is bit for bit its own.
    """
    total = values.reshape(*values.shape[:values.ndim - axes], -1).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def integrate_x(spatial: np.ndarray, grid: Grid):
    """Integral of a spatial field (..., nx_total) against the uniform torus
    measure, per stack member."""
    if not np.all(np.isfinite(spatial)):
        raise ValueError("field contains non-finite entries")
    return _member_sum(spatial) / grid.nx_total


def project_pi(h: np.ndarray, grid: Grid) -> np.ndarray:
    """Velocity average: weighted sum over v-nodes, one value per x-node."""
    return h @ grid.v_weights


def to_modes(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum real FFT over the spatial axes of a nodal field.

    A (..., nx_total, columns) field gives (..., nx, ..., nx // 2 + 1,
    columns): the last spatial axis keeps its nonnegative modes only;
    grid.k_modes holds each axis's wavenumbers. This is rfftn written out
    (rfft over the last spatial axis, then fft over the others) without its
    per-call overhead.
    """
    modes = np.fft.rfft(fld.reshape(*fld.shape[:-2], *grid.x_shape(), -1), axis=-2)
    for axis in range(-grid.dim - 1, -2):
        modes = np.fft.fft(modes, axis=axis)
    return modes


def to_nodes(modes: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of to_modes: a (..., nx_total, columns) nodal field. Each
    column is transformed on its own, so its bits do not depend on the
    columns passed with it."""
    for axis in range(-grid.dim - 1, -2):
        modes = np.fft.ifft(modes, axis=axis)
    fld = np.fft.irfft(modes, n=grid.spec.nx, axis=-2)
    return fld.reshape(*fld.shape[:-grid.dim - 1], grid.nx_total, -1)


# The round-off of to_nodes that nodes_lower_bound allows for, relative to
# the l1 norm of a column's x-spectrum.
BOUND_MARGIN = 1e-10


def nodes_lower_bound(modes: np.ndarray, grid: Grid) -> float:
    """A lower bound on every value of to_nodes(modes, grid), read from the
    x-modes (nx, ..., nx // 2 + 1, columns) of one field alone.

    A column's nodal values are (1/nx_total) sum_k M_k e^{ik.x}, summed
    over the full spectrum. The half spectrum holds a bin strictly inside
    the last spatial axis for itself and its conjugate, and irfft keeps
    only the real part of a bin at that axis's DC or Nyquist index, which
    |Re z| <= |z| bounds. So every value of the column is at least
    (Re M_0 - sum_{k != 0} c_k |M_k|) / nx_total, with c_k = 2 inside the
    last axis and 1 at its ends; the bound is the least over the columns.

    BOUND_MARGIN times the column's l1 norm sum_k c_k |M_k| covers the
    transforms' round-off. A floating-point FFT of n points errs by at most
    about 6 log2(n) eps in the 2-norm (Higham, Accuracy and Stability of
    Numerical Algorithms, section 24.1), so one value errs by at most
    6 log2(n) eps l1 / sqrt(n), and the margin's l1 / n scale covers that
    while log2(n) sqrt(n) <= 7e4: on every grid up to 2**20 x-points. It also
    covers multiplying each mode by a unit phase, which changes |M_k| by a
    few eps and leaves M_0 as it is when the phase of k = 0 is exactly 1,
    as transport's is.

    A non-finite mode, or an l1 norm that overflows, makes the bound NaN or
    -inf, which no comparison with a positive floor passes.
    """
    spectrum = tuple(range(modes.ndim - 1))
    dc = (0,) * (modes.ndim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(modes)
        # the ends of the last spatial axis (its DC and Nyquist bins) count once
        l1 = (2.0 * size.sum(axis=spectrum)
              - size[..., ::size.shape[-2] - 1, :].sum(axis=spectrum))
        # l1 counts |M_0| once, which Re M_0 + |M_0| cancels
        column = modes[dc].real + size[dc] - (1.0 + BOUND_MARGIN) * l1
        return float(column.min()) / grid.nx_total


def grad_x_field(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient along every spatial axis; returns (dim, ..., nx_total, columns)."""
    modes = to_modes(fld, grid)
    return np.array([to_nodes(1j * k * modes, grid) for k in grid.k_modes])


def grad_x_spatial(spatial: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient of a purely spatial field (..., nx_total); returns
    (dim, ..., nx_total)."""
    return grad_x_field(spatial[..., None], grid)[..., 0]


def _along_v(fld: np.ndarray, grid: Grid, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Apply an (nv, nv) matrix along one velocity axis of a (..., nv_total) field."""
    tens = fld.reshape(-1, *grid.v_shape()).swapaxes(axis + 1, -1)
    return (tens @ matrix.T).swapaxes(axis + 1, -1).reshape(fld.shape)


def grad_v_field(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Hermite-recurrence gradient along every velocity axis.

    Expands each x-slice in orthonormal Hermite polynomials, lowers the
    coefficients and re-evaluates at the nodes; returns (dim, ...) of the
    field's shape.
    """
    return np.array([_along_v(fld, grid, grid.hermite_deriv, axis)
                     for axis in range(grid.dim)])


def hermite_coefficients(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Orthonormal Hermite coefficients per x-node; shape matches the field.

    Works in the sqrt-weight frame where the transform is orthogonal, so
    no precision is lost even at the far-tail abscissae.
    """
    c = fld * grid.sqrt_w
    for axis in range(grid.dim):
        c = _along_v(c, grid, grid.hermite_ortho, axis)
    return c


def hermite_tail_fraction(fld: np.ndarray, grid: Grid):
    """Fraction of the total coefficient norm in the top two modes per axis,
    per stack member; 0 for a zero member."""
    c = hermite_coefficients(fld, grid)
    total = np.sqrt(_member_sum(c * c, axes=2))
    tail = c[..., grid.hermite_tail]
    # summed mode by mode, each over x: the memory order numpy gives the
    # masked coefficients of a single field, so a member's sum is its own
    tail_sq = np.moveaxis(tail * tail, -1, -2)
    # a zero member has a zero tail: 0 / 1
    share = np.sqrt(_member_sum(tail_sq, axes=2)) / np.where(total == 0.0, 1.0, total)
    return float(share) if share.ndim == 0 else share


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


def floor_immaterial(h: np.ndarray, grid: Grid) -> np.ndarray:
    """Floor sub-positive nodal values when the correction has negligible
    equilibrium measure; raise PositivityError otherwise. Each stack member's
    repair is held to the budget on its own."""
    if float(h.min()) >= H_MIN:
        return h
    low = h < H_MIN
    repair = np.max((np.where(low, H_MIN - h, 0.0) @ grid.v_weights).sum(axis=-1)
                    / grid.nx_total)
    if repair > POSITIVITY_REPAIR_BUDGET:
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

# Values formatted and written at a time; bounds the formatter's
# temporaries to about 1 MB.
_WRITE_BLOCK = 8192

# --- exact "%.17e" text, vectorized -----------------------------------------
#
# "%.17e" prints the 18 significant digits D = round(|x| * 10**(17 - E)),
# E = floor(log10 |x|), as "d.ddddddddddddddddde+EE". Both are found exactly
# in float64 arithmetic. E: |x| is compared with a (hi, lo) double-double
# table of 10**k. D: Dekker's two-product forms |x| * 10**(17 - E) as
# p + err, within 1e-13 of the exact product, which is then rounded.
#
# Every line formatted here has one 24-byte layout: a positive finite value
# whose E, after rounding to 18 digits, has two digits. That covers the
# values `simulate` stores, which lie between the floor H_MIN = 1e-12 and
# about 1e9 on every run measured. Any other value (negative, zero,
# subnormal, not finite, E outside [-99, 99]) or one whose product lies
# within _TIE_GUARD of a rounding tie is printed by "%" itself, so every
# line is the bytes "%" prints.

_EXACT_MIN, _EXACT_MAX = 1e-99, 1e100
_TIE_GUARD = 1e-6
# the table holds 10**E, 10**(E + 1) and 10**(17 - E) for every E of a
# value in [_EXACT_MIN, _EXACT_MAX)
_K_MIN, _K_MAX = -100, 117
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_LOG10_2 = np.log10(2.0)


def _dekker_split(a: np.ndarray):
    """a = hi + lo with hi holding the upper 26 bits of the mantissa."""
    t = a * _DEKKER_SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table():
    """10**k = hi + lo for k in [_K_MIN, _K_MAX], each part correctly rounded
    from exact integer arithmetic, and the Dekker split of hi."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return (hi, np.array(lo), *_dekker_split(hi))


_P10_HI, _P10_LO, _P10_HI_HI, _P10_HI_LO = _pow10_table()

# the text of "d.dd" (first three digits), of three digits and of "e+EE"
_HEAD = np.array([b"%d.%02d" % divmod(i, 100) for i in range(1000)], dtype="S4")
_DIGITS3 = np.array([b"%03d" % i for i in range(1000)], dtype="S3")
_EXP2 = np.array([b"e%+03d" % e for e in range(-99, 100)], dtype="S4")
# one line as a record
_LINE = np.dtype([("head", "S4")] + [(f"g{i}", "S3") for i in range(5)]
                 + [("exp", "S4"), ("nl", "S1")])


def _at_least_pow10(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a >= 10**k exactly, from the table's hi + lo."""
    hi, lo = _P10_HI[k - _K_MIN], _P10_LO[k - _K_MIN]
    return (a > hi) | ((a == hi) & (lo <= 0))


def _decimal(a: np.ndarray):
    """(D, E, near_tie) for a in [_EXACT_MIN, _EXACT_MAX):
    a rounds to D * 10**(E - 17) with 10**17 <= D < 10**18, and near_tie
    marks where the rounding is too close to call."""
    # a in [2**b, 2**(b + 1)) puts E at floor(b log10 2) or one above
    e = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.int64) + 1
    e -= ~_at_least_pow10(a, e)
    k = 17 - e - _K_MIN
    p = a * _P10_HI[k]
    ah, al = _dekker_split(a)
    bh, bl = _P10_HI_HI[k], _P10_HI_LO[k]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * _P10_LO[k]
    floor = np.floor(err)
    err -= floor
    d = p.astype(np.int64) + floor.astype(np.int64) + (err > 0.5)
    # rounding up to 10**18 carries into the exponent
    carry = d == 10**18
    d[carry] = 10**17
    e += carry
    return d, e, np.abs(err - 0.5) < _TIE_GUARD


def _format_values(x: np.ndarray) -> bytes:
    """b"".join(b"%.17e\\n" % v for v in x) for a 1-D float64 array."""
    n = x.shape[0]
    with np.errstate(invalid="ignore"):
        exact = (x >= _EXACT_MIN) & (x < _EXACT_MAX)
    # _decimal's temporaries are freed on return, which cuts the peak memory
    # of a block by about 40%
    d, e, near_tie = _decimal(np.where(exact, x, 1.0))
    exact &= ~near_tie & (e >= -99) & (e <= 99)
    rec = np.empty(n, _LINE)
    head = d // 10**15
    rec["head"] = np.take(_HEAD, head)
    rest = d - head * 10**15
    for i in range(5):
        scale = 10 ** (12 - 3 * i)
        group = rest // scale
        rest -= group * scale
        rec[f"g{i}"] = np.take(_DIGITS3, group)
    # an exponent outside the table is spliced over below
    rec["exp"] = np.take(_EXP2, e + 99, mode="clip")
    rec["nl"] = b"\n"
    text = rec.tobytes()
    if exact.all():
        return text
    # splice in what "%" prints for the values not formatted exactly here
    pieces, start = [], 0
    for i in np.flatnonzero(~exact):
        pieces += [text[start:_LINE.itemsize * i], b"%.17e\n" % x[i]]
        start = _LINE.itemsize * (i + 1)
    pieces.append(text[start:])
    return b"".join(pieces)


def save_state(state: State, path) -> None:
    """Write a snapshot atomically: a temporary file beside `path`, then a
    rename, so an interrupted write leaves any previous file intact. Nothing
    is synced to disk; `save_trajectory` removes the old snapshots first, so
    a trajectory saved into a used directory is only as durable as one
    saved into a fresh directory."""
    tmp = f"{path}.tmp"
    s = state.grid.spec
    header = (f"{SNAPSHOT_MAGIC}\n"
              f"dim={s.dim} nx={s.nx} nv={s.nv} period={s.period!r} time={state.time!r}\n")
    values = np.asarray(state.h, dtype=np.float64).reshape(-1)
    try:
        with open(tmp, "wb") as f:
            f.write(header.encode())
            for start in range(0, values.size, _WRITE_BLOCK):
                f.write(_format_values(values[start:start + _WRITE_BLOCK]))
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
        fields = {key: _header_value(path, header, key, kind)
                  for key, kind in (("dim", int), ("nx", int), ("nv", int), ("period", float))}
        try:
            spec = GridSpec(**fields)
        except ValueError as exc:
            raise ValueError(f"{path}: snapshot header: {exc}") from None
        if grid is None:
            grid = build_grid(spec)
        elif grid.spec != spec:
            raise ValueError(f"{path}: snapshot header {spec} disagrees with "
                             f"the expected grid {grid.spec}")
        try:
            vals = np.array(f.read().split(), dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    expect = grid.nx_total * grid.nv_total
    if vals.size != expect:
        raise ValueError(f"{path}: {vals.size} values, expected {expect}")
    h = vals.reshape(grid.nx_total, grid.nv_total)
    return State(grid, h, time=_header_value(path, header, "time", float))


def open_fresh(path, mode: str = "w", **kwargs):
    """open(path, mode) on a new file: a file already at `path` is removed
    first rather than truncated in place, since ext4 writes out a file that
    was truncated and rewritten when it is closed."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    return open(path, mode, **kwargs)


# --- JSON artifacts ----------------------------------------------------------
#
# json.dump with an indent runs json's pure-Python encoder, which is slow on
# the two large artifacts, verification.json and functionals.json. Each is a
# list of rows: dicts of one key set whose every column is all scalars or all
# flat dicts. Their text is built from json's C encoder, which writes a
# container on one line with a given item separator: each column of
# _ROW_BLOCK rows is encoded in one call and split into its values, which
# fill one row template. Any other block of a list, and any other object,
# is json.dumps itself; every other artifact is a few KB (the trajectory
# manifest, the largest, takes about 60 bytes a snapshot).

_refuse = json.JSONEncoder().default  # json's TypeError for a value it cannot encode

# Rows encoded at a time; bounds the column texts held to about 200 KB.
_ROW_BLOCK = 256

# a row's fields are two levels deep, the items of a dict in a field three
_FIELD = "\n  "
_ITEM = "\n   "


def _c_encode(obj, item_separator: str) -> str:
    """obj on one line, `item_separator` between the items of every
    container, keys sorted."""
    encode = c_make_encoder(None, _refuse, encode_basestring_ascii, None, ": ",
                            item_separator, True, False, True)
    return "".join(encode(obj, 0))


def _is_flat(values) -> bool:
    """No value is a list, tuple or dict: tested once per distinct type."""
    return not any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values)))


def _column_texts(column: list) -> list | None:
    """The JSON text of each value of a column of row fields, with one C
    call; None unless the column is all scalars or all flat dicts."""
    if _is_flat(column):
        # the encoder escapes every newline inside a string
        return _c_encode(column, "\n")[1:-1].split("\n")
    if (all(issubclass(t, dict) for t in set(map(type, column)))
            and _is_flat([v for row in column for v in row.values()])):
        # a separator inside a dict is followed by a key, never by "{"
        parts = _c_encode(column, "," + _ITEM)[2:-2].split("}," + _ITEM + "{")
        return ["{" + _ITEM + part + _FIELD + "}" if part else "{}" for part in parts]
    return None


def _block_text(block: list) -> str:
    """The items of a non-empty list one level deep, as
    json.dumps(block, indent=1, sort_keys=True) writes them inside its
    brackets."""
    first = block[0]
    if (isinstance(first, dict) and first and all(isinstance(k, str) for k in first)
            and all(isinstance(row, dict) and row.keys() == first.keys() for row in block)):
        keys = sorted(first)
        columns = [_column_texts([row[k] for row in block]) for k in keys]
        if None not in columns:
            template = "{" + ",".join(_FIELD + encode_basestring_ascii(k).replace("%", "%%")
                                      + ": %s" for k in keys) + "\n }"
            return ",\n ".join(template % values for values in zip(*columns))
    return json.dumps(block, indent=1, sort_keys=True)[3:-2]


def write_json(path, obj) -> None:
    """Write `obj` in the one format of every JSON artifact: the bytes of
    json.dumps(obj, indent=1, sort_keys=True) plus a trailing newline. An
    old file at `path` is replaced, not rewritten in place."""
    with open_fresh(path) as f:
        if not (isinstance(obj, list) and obj):
            f.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
            return
        f.write("[\n ")
        for start in range(0, len(obj), _ROW_BLOCK):
            f.write((",\n " if start else "") + _block_text(obj[start:start + _ROW_BLOCK]))
        f.write("\n]\n")
