"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own quadrature and
differentiation machinery: Gauss-Hermite rules come from a Golub-Welsch
eigendecomposition, phase-space integrals from dense composite quadrature
against the explicit Gaussian weight, and all derivatives are analytic.
Two kinds of code are the exceptions. The time-derivative oracles
differentiate the package's own discrete functionals, by finite
differences along its flows and by complex step through its spectral
gradients. The verification loop at the end runs the package's own
checks one state at a time, the reference of the stacked suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)


def gauss_hermite_golub_welsch(n: int):
    """Nodes/weights for the unit Gaussian weight via the Jacobi matrix.

    Independent of numpy's hermegauss: eigenvalues of the symmetric
    tridiagonal with off-diagonal sqrt(k) are the abscissae; squared first
    eigenvector components are the weights.
    """
    off = np.sqrt(np.arange(1, n))
    J = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(J)
    weights = vecs[0, :] ** 2
    return vals, weights / weights.sum()


def hermite_series(coef: np.ndarray, grid) -> np.ndarray:
    """Nodal values of a field given by its orthonormal Hermite coefficients
    per x-node (the layout of `phase_space.hermite_coefficients`).

    Sums the series at each velocity node from the normalized three-term
    recurrence, without the package's transform matrices.
    """
    nv, v = grid.spec.nv, grid.v_nodes
    basis = np.ones((1, v.shape[0]))
    for axis in range(grid.dim):
        phi = np.ones((nv, v.shape[0]))
        phi[1] = v[:, axis]
        for n in range(1, nv - 1):
            phi[n + 1] = (v[:, axis] * phi[n] - math.sqrt(n) * phi[n - 1]) / math.sqrt(n + 1)
        # coefficients are row-major over the axes' degrees
        basis = (basis[:, None, :] * phi[None, :, :]).reshape(-1, v.shape[0])
    return coef @ basis


# --- analytic test fields ----------------------------------------------------
#
# A field is 1 + sum of separable terms, or exp(sum of separable terms),
# with spatial factors cos/sin(2 pi m x) and velocity factors from a small
# polynomial family. Everything (values, gradients) evaluates analytically.

_VFUNCS = {  # (f, f', f'') of each velocity factor
    0: (lambda v: np.ones_like(v), lambda v: np.zeros_like(v), lambda v: np.zeros_like(v)),
    1: (lambda v: v, lambda v: np.ones_like(v), lambda v: np.zeros_like(v)),
    2: (lambda v: (v * v - 1.0) / np.sqrt(2.0), lambda v: 2.0 * v / np.sqrt(2.0),
        lambda v: np.full_like(v, 2.0 / np.sqrt(2.0))),
    3: (lambda v: v * np.exp(-v * v / 8.0), lambda v: (1.0 - v * v / 4.0) * np.exp(-v * v / 8.0),
        lambda v: (v**3 / 16.0 - 0.75 * v) * np.exp(-v * v / 8.0)),
}


@dataclass(frozen=True)
class FieldTerm:
    m: int          # spatial harmonic
    phase: str      # "cos" or "sin"; m = 0 means the constant factor 1
    vkind: int      # key into _VFUNCS
    coef: float


@dataclass(frozen=True)
class AnalyticField:
    """h = base + sum(terms) or exp(sum(terms)) / Z on the unit torus."""

    terms: tuple[FieldTerm, ...]
    exponential: bool = False
    norm: float = 1.0

    def _sum(self, x, v, dx: int, dv: int):
        """The exponent (or perturbation) g, differentiated dx <= 1 times in
        x and dv <= 2 times in v."""
        x = np.asarray(x)[:, None]
        v = np.asarray(v)[None, :]
        out = np.zeros((x.shape[0], v.shape[1]))
        for t in self.terms:
            w = 2.0 * np.pi * t.m
            if t.m == 0:
                if dx:
                    continue
                sx = np.ones_like(x)
            elif t.phase == "cos":
                sx = -w * np.sin(w * x) if dx else np.cos(w * x)
            else:
                sx = w * np.cos(w * x) if dx else np.sin(w * x)
            out += t.coef * sx * _VFUNCS[t.vkind][dv](v)
        return out

    def g(self, x, v):
        return self._sum(x, v, 0, 0)

    def gx(self, x, v):
        return self._sum(x, v, 1, 0)

    def gv(self, x, v):
        return self._sum(x, v, 0, 1)

    def h(self, x, v):
        if self.exponential:
            return np.exp(self.g(x, v)) / self.norm
        return 1.0 + self.g(x, v)

    def hx(self, x, v):
        if self.exponential:
            return self.h(x, v) * self.gx(x, v)
        return self.gx(x, v)

    def hv(self, x, v):
        if self.exponential:
            return self.h(x, v) * self.gv(x, v)
        return self.gv(x, v)

    def hxv(self, x, v):
        gxv = self._sum(x, v, 1, 1)
        if self.exponential:
            return self.h(x, v) * (gxv + self.gx(x, v) * self.gv(x, v))
        return gxv

    def hvv(self, x, v):
        gvv = self._sum(x, v, 0, 2)
        if self.exponential:
            return self.h(x, v) * (gvv + self.gv(x, v) ** 2)
        return gvv


def dense_nodes(nx: int = 512, nv: int = 2401, vmax: float = 12.0):
    x = np.arange(nx) / nx
    v = np.linspace(-vmax, vmax, nv)
    return x, v


def _v_quadrature(values, v):
    """Gaussian-weighted Simpson integral in v, per x-node."""
    weight = np.exp(-v * v / 2.0) / SQRT2PI
    n = v.size
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    dv = (v[-1] - v[0]) / (n - 1)
    return (values * weight[None, :]) @ w * (dv / 3.0)


def dense_integral(values: np.ndarray, x: np.ndarray, v: np.ndarray) -> float:
    """Mean over the torus x Gaussian-weighted Simpson in v."""
    # plain mean in x (periodic trapezoid), Simpson in v (odd point count)
    return float(np.mean(_v_quadrature(values, v)))


def normalize_exponential(field: AnalyticField, x, v) -> AnalyticField:
    """Fix the normalization so the dense integral of h is exactly one."""
    raw = AnalyticField(field.terms, exponential=True, norm=1.0)
    z = dense_integral(np.exp(raw.g(x, v)), x, v)
    return AnalyticField(field.terms, exponential=True, norm=z)


def oracle_entropy(field: AnalyticField, x, v, p: float) -> float:
    """Convex entropy integral; p = 1 is the log entropy, in its own closed form."""
    h = field.h(x, v)
    if p == 1.0:
        vals = h * np.log(h) - h + 1.0
    else:
        vals = (h**p - 1.0 - p * (h - 1.0)) / (p * (p - 1.0))
    return dense_integral(vals, x, v)


def oracle_fisher(field: AnalyticField, x, v, p: float):
    h = field.h(x, v)
    hx = field.hx(x, v)
    hv = field.hv(x, v)
    w = 1.0 / h if p == 1.0 else h**(p - 2.0)
    ix = dense_integral(w * hx * hx, x, v)
    iv = dense_integral(w * hv * hv, x, v)
    im = dense_integral(w * hx * hv, x, v)
    return ix, iv, im


def torus_constant_ratio(x1, period: float, p: float) -> float:
    """Entropy / Fisher of rho = 1 + 1e-4 cos(2 pi x1 / period) at the nodes
    x1 (one per spatial node), both as node means.

    The convex entropy density is summed as its power series in
    delta = rho - 1, which rounds only at the size of each term:
    sum_{k>=2} c_k delta^k with c_k = prod_{j<k}(p - j) / (k! p (p - 1)),
    and c_k = (-1)^k / (k (k - 1)) for the log entropy p = 1. Six terms
    leave a remainder of order delta^6 = 1e-24 relative to the sum. The
    Fisher density rho^(p-2) |rho'|^2 takes the analytic derivative.
    """
    amplitude, k = 1e-4, 2.0 * math.pi / period
    rho = 1.0 + amplitude * np.cos(k * x1)
    delta = rho - 1.0
    series = np.zeros_like(delta)
    for order in range(7, 1, -1):  # Horner, highest order first
        if p == 1.0:
            c = (-1.0) ** order / (order * (order - 1))
        else:
            c = math.prod(p - j for j in range(order)) / (
                math.factorial(order) * p * (p - 1.0))
        series = series * delta + c
    entropy = (series * delta * delta).mean()
    fisher = (rho ** (p - 2.0) * (amplitude * k * np.sin(k * x1)) ** 2).mean()
    return float(entropy / fisher)


def oracle_projection(field: AnalyticField, x, v):
    """Velocity average and first moment by dense v-quadrature."""
    h = field.h(x, v)
    return _v_quadrature(h, v), _v_quadrature(h * v[None, :], v)


def oracle_correction_terms(field: AnalyticField, x, v, p: float):
    h = field.h(x, v)
    hx = field.hx(x, v)
    hv = field.hv(x, v)
    pih, _ = oracle_projection(field, x, v)
    ratio = pih[:, None] / h
    fp = (p - 1.0) + (2.0 - p) * ratio - ratio**(2.0 - p)
    w = h**(p - 2.0)
    cx = dense_integral(w * hx * hx * fp, x, v)
    cv = dense_integral(w * hv * hv * fp, x, v)
    vs = dense_integral(w * hv * hv * ratio**(2.0 - p), x, v)
    return cx, cv, vs


def oracle_cross_dissipation(field: AnalyticField, x, v, p: float) -> float:
    """|(pi h)^(p-2) d_x pi h - h^(p-2) h_x|^2 (pi h)^(2-p), with pi h and its
    x-derivative by dense v-quadrature of h and h_x."""
    h = field.h(x, v)
    hx = field.hx(x, v)
    pih = _v_quadrature(h, v)[:, None]
    pihx = _v_quadrature(hx, v)[:, None]
    diff = pih**(p - 2.0) * pihx - h**(p - 2.0) * hx
    return dense_integral(diff * diff * pih**(2.0 - p), x, v)


def oracle_second_order(field: AnalyticField, x, v, p: float):
    """hess_xv, hess_vv, quartic_xv and quartic_v of a 1-D field: the squared
    d_v d_x and d_v d_v of the entropy variable h^(p-1)/(p-1), weighted
    h^(2-p), and h^(p-4) h_v^2 h_x^2 and h^(p-4) h_v^4."""
    h = field.h(x, v)
    hx = field.hx(x, v)
    hv = field.hv(x, v)
    t_xv = h**(p - 2.0) * field.hxv(x, v) + (p - 2.0) * h**(p - 3.0) * hv * hx
    t_vv = h**(p - 2.0) * field.hvv(x, v) + (p - 2.0) * h**(p - 3.0) * hv * hv
    return (dense_integral(t_xv * t_xv * h**(2.0 - p), x, v),
            dense_integral(t_vv * t_vv * h**(2.0 - p), x, v),
            dense_integral(h**(p - 4.0) * hv * hv * hx * hx, x, v),
            dense_integral(h**(p - 4.0) * hv**4, x, v))


# --- time-derivative oracles ---------------------------------------------------
#
# Two routes to the d/dt of the composite columns along a generator that
# share nothing with the product rule of `verifier.report_derivatives`: a
# semigroup finite difference along the exact flows, and the complex step
# on the columns' own formulas.

def default_probe_step(generator) -> float:
    from hypoflow.operators import time_scale
    return 1e-4 * time_scale(generator)


def semigroup_derivative(state, generator, functional, delta=None):
    """d/dt of the functional along the generator's flow at this state.

    Transport is a group, so a centered difference applies; the collision
    semigroups only run forward and use a one-sided difference with one
    Richardson extrapolation step. Both are second-order in the probe: with
    f3 the third t-derivative, the error is f3 delta^2 / 6 centered and
    -f3 delta^2 / 12 one-sided.
    """
    from hypoflow.operators import Transport

    if delta is None:
        delta = default_probe_step(generator)
    if isinstance(generator, Transport):
        up = functional(generator.flow(state, +delta))
        dn = functional(generator.flow(state, -delta))
        return (up - dn) / (2.0 * delta)
    f0 = functional(state)
    f_half = functional(generator.flow(state, 0.5 * delta))
    f_full = functional(generator.flow(state, delta))
    return (4.0 * f_half - 3.0 * f0 - f_full) / delta


def complex_step_rates(state, g, p: float, eps: float = 1e-30) -> dict:
    """d/dt of the five composite columns along the tangent g of h, by
    column name: Im F(h + i eps g) / eps, exact to round-off with no
    cancellation (Squire-Trapp, SIAM Rev. 1998).

    Each column's formula is evaluated on complex values, with no
    conjugate or modulus, so it stays holomorphic in h. The spectral
    gradients are linear and act on the real and imaginary parts apart,
    since rfft needs real input; the quadrature is written out here.
    """
    from hypoflow.phase_space import grad_v_field, grad_x_field

    grid, wv = state.grid, state.grid.v_weights
    z = state.h + 1j * eps * g

    def grad(op):
        return op(z.real, grid) + 1j * op(z.imag, grid)

    def quadrature(f):
        return (f @ wv).mean(axis=-1)

    def entropy_density(u):
        ent = np.log(u) if p == 1.0 else np.expm1((p - 1.0) * np.log(u)) / (p - 1.0)
        return (u * ent - (u - 1.0)) / p

    gx, gv = grad(grad_x_field), grad(grad_v_field)
    w = z ** (p - 2.0)
    columns = {
        "entropy": quadrature(entropy_density(z)),
        "entropy_projected": entropy_density(z @ wv).mean(axis=-1),
        "fisher_x": quadrature(w * (gx * gx).sum(axis=0)),
        "fisher_v": quadrature(w * (gv * gv).sum(axis=0)),
        "fisher_mixed": quadrature(w * (gx * gv).sum(axis=0)),
    }
    return {c: value.imag / eps for c, value in columns.items()}


# --- reference random draw ---------------------------------------------------
#
# random_band_limited as it was before a stack of seeds was drawn in one pass:
# one seed, one generator, the exponent accumulated term by term. Each member
# of a stacked draw must equal this bit for bit.

def random_band_limited_one(grid, seed, amplitude=0.25, x_modes=2, v_degree=2):
    from hypoflow.phase_space import State, integrate_mu

    rng = np.random.default_rng(seed)
    two_pi = 2.0 * np.pi / grid.spec.period
    g = np.zeros((grid.nx_total, grid.nv_total))
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
                    vpart = vp[ax][n]
                    coef = rng.normal() / (1.0 + m + n)
                    g += coef * np.outer(trig, vpart)
    for n in range(1, v_degree + 1):
        g += rng.normal() / (2.0 + n) * vp[0][n][None, :]
    sup = np.abs(g).max()
    if sup > 0:
        g *= amplitude / sup
    h = np.exp(g)
    h /= integrate_mu(h, grid)
    return State(grid, h)


# --- reference verification loop ---------------------------------------------
#
# run_suite as it was before states were stacked: one state, one report and
# one probe pass at a time. The stacked suite must give these rows bit for bit.

def run_suite_per_state(grid, collision, p, n_states: int = 100, seed0: int = 0,
                        amplitude: float = 0.25):
    from hypoflow.certificate import estimate_functional_constant
    from hypoflow.functionals import build_report
    from hypoflow.operators import BGK, Transport
    from hypoflow.verifier import (
        SPLITTERS,
        check_correction_weight,
        check_lemma_table,
        check_mixed_term,
        check_projection_inequalities,
        report_derivatives,
    )

    relaxation = isinstance(collision, BGK)
    C = estimate_functional_constant(grid, p).value if relaxation else None

    def one_state(seed):
        state = random_band_limited_one(grid, seed, amplitude=amplitude)
        rep = build_report(state, p, model=collision.name)
        rates = report_derivatives(state, rep, collision, p)
        if relaxation:
            drift = report_derivatives(state, rep, Transport(), p)
            res = check_lemma_table(rep, drift, Transport(), p)
            res += check_lemma_table(rep, rates, collision, p, SPLITTERS)
            res += check_projection_inequalities(rep, drift, rates, C=C)
            res += [check_mixed_term(rep, eta) for eta in SPLITTERS]
        else:
            res = check_lemma_table(rep, rates, collision, p)
        for r in res:
            r.params["seed"] = seed
        return res

    results = []
    for s in range(seed0, seed0 + n_states):
        results.extend(one_state(s))
    if relaxation and not p.is_log:
        results.extend(check_correction_weight())
    return results
