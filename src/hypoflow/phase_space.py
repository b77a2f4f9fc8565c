"""Phase-space discretization: torus x Maxwellian-weighted velocity space.

Space is the periodic lattice on [0, 1)^d with Fourier spectral
differentiation; velocity space uses Gauss-Hermite collocation for the
standard Gaussian weight, so the Maxwellian is absorbed into the quadrature
weights and the velocity average is a single weighted sum.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

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
    the spatial then velocity tensor axes. Every table is built for any
    dim, so each operator below is written once.
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
    # total Hermite degree of each velocity node's coefficient, and the
    # coefficients of degree >= nv - 2 along any axis
    hermite_degree: np.ndarray = field(repr=False, default=None)  # (nv_total,)
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
    """Construct the grid for a validated GridSpec."""
    nx, nv, d = spec.nx, spec.nv, spec.dim
    x = np.arange(nx) * (spec.period / nx)
    modes = np.fft.fftfreq(nx, d=1.0 / nx)
    k = 2.0 * np.pi * modes / spec.period
    k[nx // 2] = 0.0  # Nyquist dropped: keeps d/dx real and antisymmetric
    # to_modes keeps the nonnegative half of the last axis only
    per_axis = [k] * (d - 1) + [k[: nx // 2 + 1]]
    k_modes = tuple(ka.reshape((-1,) + (1,) * (d - axis)) for axis, ka in enumerate(per_axis))

    v, w = hermegauss(nv)
    w = w / w.sum()
    ortho, sqw, deriv = _hermite_matrices(v, w)
    degrees = np.indices((nv,) * d).reshape(d, -1)
    return Grid(
        spec=spec, x_axis=x, k_modes=k_modes,
        x_nodes=_tensor_nodes(x, d), v_nodes=_tensor_nodes(v, d),
        v_weights=_tensor_product(w, d),
        hermite_ortho=ortho, sqrt_w=_tensor_product(sqw, d), hermite_deriv=deriv,
        hermite_degree=degrees.sum(axis=0), hermite_tail=(degrees >= nv - 2).any(axis=0),
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


def integrate_x(spatial: np.ndarray, grid: Grid) -> float:
    """Integral of a spatial field against the uniform torus measure."""
    if not np.all(np.isfinite(spatial)):
        raise ValueError("field contains non-finite entries")
    return float(spatial.sum()) / grid.nx_total


def project_pi(h: np.ndarray, grid: Grid) -> np.ndarray:
    """Velocity average: weighted sum over v-nodes, one value per x-node."""
    return h @ grid.v_weights


def to_modes(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum real FFT over the spatial axes of a nodal field.

    Returns (nx, ..., nx // 2 + 1, columns): the last spatial axis keeps
    its nonnegative modes only; grid.k_modes holds each axis's
    wavenumbers. This is rfftn written out (rfft over the last spatial
    axis, then fft over the others) without its per-call overhead.
    """
    modes = np.fft.rfft(fld.reshape(*grid.x_shape(), -1), axis=grid.dim - 1)
    for axis in range(grid.dim - 1):
        modes = np.fft.fft(modes, axis=axis)
    return modes


def to_nodes(modes: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of to_modes: a (nx_total, columns) nodal field."""
    for axis in range(grid.dim - 1):
        modes = np.fft.ifft(modes, axis=axis)
    fld = np.fft.irfft(modes, n=grid.spec.nx, axis=grid.dim - 1)
    return fld.reshape(grid.nx_total, -1)


def grad_x_field(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient along every spatial axis; returns (dim, nx_total, columns)."""
    modes = to_modes(fld, grid)
    return np.array([to_nodes(1j * k * modes, grid) for k in grid.k_modes])


def grad_x_spatial(spatial: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier gradient of a purely spatial field; returns (dim, nx_total)."""
    return grad_x_field(spatial[:, None], grid)[:, :, 0]


def _along_v(fld: np.ndarray, grid: Grid, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Apply an (nv, nv) matrix along one velocity axis of a (rows, nv_total) field."""
    tens = fld.reshape(-1, *grid.v_shape()).swapaxes(axis + 1, -1)
    return (tens @ matrix.T).swapaxes(axis + 1, -1).reshape(fld.shape)


def grad_v_field(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Hermite-recurrence gradient along every velocity axis.

    Expands each x-slice in orthonormal Hermite polynomials, lowers the
    coefficients and re-evaluates at the nodes.
    """
    return np.array([_along_v(fld, grid, grid.hermite_deriv, axis)
                     for axis in range(grid.dim)])


def hermite_coefficients(fld: np.ndarray, grid: Grid) -> np.ndarray:
    """Orthonormal Hermite coefficients per x-node; shape matches the field.

    Works in the sqrt-weight frame where the transform is orthogonal, so
    no precision is lost even at the far-tail abscissae.
    """
    c = fld * grid.sqrt_w[None, :]
    for axis in range(grid.dim):
        c = _along_v(c, grid, grid.hermite_ortho, axis)
    return c


def hermite_values(coef: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of hermite_coefficients."""
    h = coef
    for axis in range(grid.dim):
        h = _along_v(h, grid, grid.hermite_ortho.T, axis)
    return h / grid.sqrt_w[None, :]


def hermite_tail_fraction(fld: np.ndarray, grid: Grid) -> float:
    """Fraction of the total coefficient norm in the top two modes per axis."""
    c = hermite_coefficients(fld, grid)
    total = float(np.sqrt((c * c).sum()))
    if total == 0.0:
        return 0.0
    tail = c[:, grid.hermite_tail]
    return float(np.sqrt((tail * tail).sum())) / total


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
    equilibrium measure; raise PositivityError otherwise."""
    if float(h.min()) >= H_MIN:
        return h
    low = h < H_MIN
    repair = float((np.where(low, H_MIN - h, 0.0) @ grid.v_weights).sum()) / grid.nx_total
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
# p + err, within 1e-13 of the exact product, which is then rounded. A value
# whose product lies within _TIE_GUARD of a rounding tie, that is not
# finite, or whose magnitude is outside [_EXACT_MIN, _EXACT_MAX] (beyond
# which the table's lo parts or Dekker's split leave the normal float64
# range) is printed by "%" itself, so every line is the bytes "%" prints.

_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
_TIE_GUARD = 1e-6
# the table holds 10**E, 10**(E + 1) and 10**(17 - E) for every such E
_K_MIN, _K_MAX = -290, 300
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
_EXP3 = np.array([b"e%c%03d" % (b"-+"[e >= 0], abs(e))
                  for e in range(-_K_MAX, _K_MAX + 1)], dtype="S5")
# one line as a record: the 24-byte line of a positive value with a
# two-digit exponent, and one with room for a sign and a third digit
_DIGIT_FIELDS = [("head", "S4")] + [(f"g{i}", "S3") for i in range(5)]
_LINE = np.dtype(_DIGIT_FIELDS + [("exp", "S4"), ("nl", "S1")])
_LONG_LINE = np.dtype([("sign", "S1")] + _DIGIT_FIELDS + [("exp", "S5"), ("nl", "S1")])


def _at_least_pow10(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a >= 10**k exactly, from the table's hi + lo."""
    hi, lo = _P10_HI[k - _K_MIN], _P10_LO[k - _K_MIN]
    return (a > hi) | ((a == hi) & (lo <= 0))


def _decimal(a: np.ndarray):
    """(D, E, near_tie) for positive normal a within [_EXACT_MIN, _EXACT_MAX]:
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
        exact = (np.abs(x) >= _EXACT_MIN) & (np.abs(x) <= _EXACT_MAX)
    # _decimal's temporaries are freed on return, which cuts the peak memory
    # of a block by about 40%
    d, e, near_tie = _decimal(np.abs(np.where(exact, x, 1.0)))
    exact &= ~near_tie
    neg = np.signbit(x)
    long_exp = (e >= 100) | (e <= -100)
    short = not (neg.any() or long_exp.any())
    rec = np.empty(n, _LINE if short else _LONG_LINE)
    head = d // 10**15
    rec["head"] = np.take(_HEAD, head)
    rest = d - head * 10**15
    for i in range(5):
        scale = 10 ** (12 - 3 * i)
        group = rest // scale
        rest -= group * scale
        rec[f"g{i}"] = np.take(_DIGITS3, group)
    rec["nl"] = b"\n"
    if short:
        rec["exp"] = np.take(_EXP2, e + 99)
        text = rec.tobytes()
    else:
        rec["sign"] = b"-"
        rec["exp"] = np.take(_EXP3, e + _K_MAX)
        keep = np.ones((n, _LONG_LINE.itemsize), dtype=bool)
        keep[:, 0] = neg
        keep[:, _LONG_LINE.fields["exp"][1] + 2] = long_exp
        text = rec.view(np.uint8).reshape(n, -1)[keep].tobytes()
    if exact.all():
        return text
    # splice in what "%" prints for the values not formatted exactly here
    ends = np.cumsum(24 + neg + long_exp)
    pieces, start = [], 0
    for i in np.flatnonzero(~exact):
        pieces += [text[start:ends[i - 1] if i else 0], b"%.17e\n" % x[i]]
        start = ends[i]
    pieces.append(text[start:])
    return b"".join(pieces)


def save_state(state: State, path) -> None:
    """Write a snapshot atomically: a temporary file beside `path`, then a
    rename, so an interrupted write leaves any previous file intact."""
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
        spec = GridSpec(dim=_header_value(path, header, "dim", int),
                        nx=_header_value(path, header, "nx", int),
                        nv=_header_value(path, header, "nv", int),
                        period=_header_value(path, header, "period", float))
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


def write_json(path, obj) -> None:
    """Write `obj` in the one format of every JSON artifact: one-space
    indent, sorted keys and a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
