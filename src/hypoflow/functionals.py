"""Entropy and Fisher-information diagnostics of a state.

Two entropy families are supported: the logarithmic entropy of the
density ratio, and the power entropies (h^p - h)/(p(p-1)) for
p in (1, 2]. The log case is its own code path rather than a p -> 1
limit, which would cancel catastrophically.

All weighted gradients use the h^(p-2) convention throughout, and the
nonlinear entropy variables are differentiated by the pointwise chain
rule against the spectral gradient of h itself. That keeps the algebraic
identities between the reported quantities exact at quadrature level.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .phase_space import (
    Grid,
    State,
    div_x_spatial,
    grad_v_field,
    grad_x_field,
    grad_x_spatial,
    integrate_x,
    project_pi,
    require_bounded_below,
)


@dataclass(frozen=True)
class PIndex:
    """Entropy selector: None for the logarithmic entropy, else p in (1, 2]."""

    p: float | None = None

    def __post_init__(self):
        if self.p is not None and not (1.0 < self.p <= 2.0):
            raise ValueError(f"power entropy needs p in (1, 2], got {self.p}")

    @property
    def is_log(self) -> bool:
        return self.p is None

    def label(self) -> str:
        return "log" if self.is_log else repr(self.p)

    @staticmethod
    def parse(text: str) -> "PIndex":
        t = text.strip().lower()
        if t in ("log", "boltzmann", "none"):
            return BOLTZMANN
        return PIndex(float(t))


BOLTZMANN = PIndex(None)


def correction_weight(r, p: float):
    """p-1 + (2-p) r - r^(2-p); nonnegative for r >= 0, zero at p = 2.

    Weights the extra dissipation terms that exist only for p strictly
    between 1 and 2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("correction weight is defined for nonnegative arguments")
    out = (p - 1.0) + (2.0 - p) * r - r**(2.0 - p)
    return float(out) if out.ndim == 0 else out


@dataclass
class FunctionalReport:
    """Every diagnostic of one state at one instant; None marks a quantity
    that does not exist for the model/entropy combination."""

    time: float
    p: str
    entropy: float | None = None
    entropy_projected: float | None = None
    fisher_x: float | None = None
    fisher_v: float | None = None
    fisher_mixed: float | None = None
    fisher_x_projected: float | None = None
    fisher_x_ratio: float | None = None
    fisher_v_ratio: float | None = None
    cross_dissipation: float | None = None
    correction_x: float | None = None
    correction_v: float | None = None
    fisher_v_scaled: float | None = None
    projected_entropy_rate: float | None = None
    hess_xv: float | None = None
    hess_vv: float | None = None
    quartic_xv: float | None = None
    quartic_v: float | None = None

    @staticmethod
    def columns() -> list[str]:
        return [f.name for f in fields(FunctionalReport)]

    @staticmethod
    def diagnostics() -> list[str]:
        """The numeric columns that measure the state: all but time and p."""
        return [c for c in FunctionalReport.columns() if c not in ("time", "p")]


def entropy(state: State, p: PIndex = BOLTZMANN) -> float:
    """Relative entropy of the state against equilibrium."""
    require_bounded_below(state.h)
    return kernels.entropy(state.h, state.grid.v_weights, p.p)


def fisher_components(state: State, p: PIndex = BOLTZMANN,
                      gx: np.ndarray | None = None,
                      gv: np.ndarray | None = None):
    """Spatial, velocity and mixed Fisher components (weight h^(p-2))."""
    require_bounded_below(state.h)
    grid = state.grid
    if gx is None:
        gx = grad_x_field(state.h, grid)
    if gv is None:
        gv = grad_v_field(state.h, grid)
    e = -1.0 if p.is_log else p.p - 2.0
    return kernels.fisher(state.h, gx, gv, grid.v_weights, e)


def local_mean_velocity(state: State) -> np.ndarray:
    """First velocity moment per spatial node; shape (dim, nx_total)."""
    grid = state.grid
    wv = grid.v_weights[:, None] * grid.v_nodes
    return (state.h @ wv).T


def torus_entropy(rho: np.ndarray, grid: Grid, p: PIndex = BOLTZMANN) -> float:
    """Entropy of a positive density rho on the torus, shape (nx_total,).

    Evaluated in the pointwise-nonnegative convex arrangement, which has
    the same integral for unit-mass densities and is roundoff-safe near
    equilibrium.
    """
    return integrate_x(kernels.convex_entropy_density(rho, p.p), grid)


def torus_fisher(rho: np.ndarray, grid: Grid, p: PIndex = BOLTZMANN,
                 grad: np.ndarray | None = None) -> float:
    """Spatial Fisher information of a positive density rho on the torus,
    weighted rho^(p-2) (1/rho for the log entropy); `grad` is the spatial
    gradient of rho when the caller has it already."""
    if grad is None:
        grad = grad_x_spatial(rho, grid)
    sq = (grad**2).sum(axis=0)
    return integrate_x(sq / rho if p.is_log else rho**(p.p - 2.0) * sq, grid)


def projected_entropy(state: State, p: PIndex = BOLTZMANN,
                      pih: np.ndarray | None = None) -> float:
    """Entropy of the velocity average as a density on the torus."""
    if pih is None:
        pih = project_pi(state)
    require_bounded_below(pih, "velocity average of h")
    return torus_entropy(pih, state.grid, p)


def projected_entropy_rate(state: State, p: PIndex = BOLTZMANN,
                           pih: np.ndarray | None = None) -> float:
    """Exact time derivative of the projected entropy along the kinetic flow.

    Pairs the entropy variable of the velocity average against the
    divergence of the local mean velocity; no differencing involved.
    """
    grid = state.grid
    if pih is None:
        pih = project_pi(state)
    require_bounded_below(pih, "velocity average of h")
    div_u = div_x_spatial(local_mean_velocity(state), grid)
    if p.is_log:
        return -integrate_x(np.log(pih) * div_u, grid)
    return -integrate_x(pih**(p.p - 1.0) / (p.p - 1.0) * div_u, grid)


def projected_quantities(state: State, p: PIndex = BOLTZMANN,
                         gx: np.ndarray | None = None,
                         gv: np.ndarray | None = None) -> dict:
    """Diagnostics built from the velocity average.

    Returns entropy_projected, fisher_x_projected, the exact projected
    entropy rate, and the model-dependent relative terms: the ratio
    Fisher informations for the log entropy, the cross dissipation for
    the power case.
    """
    grid = state.grid
    require_bounded_below(state.h)
    pih = project_pi(state)
    require_bounded_below(pih, "velocity average of h")
    if gx is None:
        gx = grad_x_field(state.h, grid)
    gpi = grad_x_spatial(pih, grid)

    out = {
        "entropy_projected": projected_entropy(state, p, pih=pih),
        "projected_entropy_rate": projected_entropy_rate(state, p, pih=pih),
        "fisher_x_projected": torus_fisher(pih, grid, p, grad=gpi),
    }
    if p.is_log:
        out["fisher_x_ratio"] = kernels.pi_ratio_x(
            state.h, gx, gpi, pih, grid.v_weights)
        if gv is None:
            gv = grad_v_field(state.h, grid)
        ratio = pih[:, None] / state.h
        out["fisher_v_ratio"] = kernels.weighted_fisher(
            state.h, gv, grid.v_weights, -1.0, ratio)
    else:
        out["cross_dissipation"] = kernels.cross_dissipation(
            state.h, gx, gpi, pih, grid.v_weights, p.p)
    return out


def correction_terms(state: State, p: float,
                     gx: np.ndarray | None = None,
                     gv: np.ndarray | None = None):
    """The three p-only weighted Fisher terms (all nonnegative).

    correction_x / correction_v carry the correction weight of the local
    density ratio; fisher_v_scaled carries (pi h / h)^(2-p).
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"correction terms exist for p in (1, 2], got {p}")
    grid = state.grid
    require_bounded_below(state.h)
    pih = project_pi(state)
    require_bounded_below(pih, "velocity average of h")
    if gx is None:
        gx = grad_x_field(state.h, grid)
    if gv is None:
        gv = grad_v_field(state.h, grid)
    ratio = pih[:, None] / state.h
    fac = correction_weight(ratio, p)
    cx = kernels.weighted_fisher(state.h, gx, grid.v_weights, p - 2.0, fac)
    cv = kernels.weighted_fisher(state.h, gv, grid.v_weights, p - 2.0, fac)
    vs = kernels.weighted_fisher(state.h, gv, grid.v_weights, p - 2.0,
                                 ratio**(2.0 - p))
    return cx, cv, vs


def _hessians(state: State, gx: np.ndarray, gv: np.ndarray):
    """Second spectral derivatives: (v,x) and (v,v) blocks."""
    grid = state.grid
    d = grid.dim
    n = state.h.shape
    hess_vx = np.empty((d, d) + n)
    hess_vv = np.empty((d, d) + n)
    for j in range(d):
        hess_vx[:, j] = grad_v_field(gx[j], grid, warn=False)
        hess_vv[:, j] = grad_v_field(gv[j], grid, warn=False)
    return hess_vx, hess_vv


def fp_dissipation_terms(state: State, p: float,
                         gx: np.ndarray | None = None,
                         gv: np.ndarray | None = None):
    """Second-order dissipation functionals of the velocity diffusion model.

    The squared mixed/pure second derivatives of the entropy variable
    h^(p-1)/(p-1) are expanded by the chain rule in h, its gradients and
    spectral Hessian blocks; the two quartic gradient terms complete the
    set. All four are nonnegative.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"dissipation terms exist for p in (1, 2], got {p}")
    grid = state.grid
    require_bounded_below(state.h)
    if gx is None:
        gx = grad_x_field(state.h, grid)
    if gv is None:
        gv = grad_v_field(state.h, grid)
    hess_vx, hess_vv = _hessians(state, gx, gv)
    wv = grid.v_weights
    i_vx = kernels.hessian_norm(state.h, hess_vx, gv, gx, wv, p)
    i_vv = kernels.hessian_norm(state.h, hess_vv, gv, gv, wv, p)
    i2_xv = kernels.quartic(state.h, gv, gx, wv, p)
    i2_v = kernels.quartic(state.h, gv, gv, wv, p)
    return i_vx, i_vv, i2_xv, i2_v


def build_report(state: State, p: PIndex, model: str = "bgk") -> FunctionalReport:
    """Assemble the full diagnostic row for one snapshot.

    model is "bgk" or "fokker-planck"; it decides which projected /
    second-order entries exist.
    """
    grid = state.grid
    gx = grad_x_field(state.h, grid)
    gv = grad_v_field(state.h, grid)
    ix, iv, im = fisher_components(state, p, gx=gx, gv=gv)
    rep = FunctionalReport(
        time=state.time, p=p.label(),
        entropy=entropy(state, p),
        fisher_x=ix, fisher_v=iv, fisher_mixed=im,
    )
    if model == "bgk":
        proj = projected_quantities(state, p, gx=gx, gv=gv)
        for key, val in proj.items():
            setattr(rep, key, val)
        if not p.is_log:
            cx, cv, vs = correction_terms(state, p.p, gx=gx, gv=gv)
            rep.correction_x = cx
            rep.correction_v = cv
            rep.fisher_v_scaled = vs
    elif model == "fokker-planck":
        rep.entropy_projected = projected_entropy(state, p)
        if not p.is_log:
            i_vx, i_vv, i2_xv, i2_v = fp_dissipation_terms(state, p.p, gx=gx, gv=gv)
            rep.hess_xv = i_vx
            rep.hess_vv = i_vv
            rep.quartic_xv = i2_xv
            rep.quartic_v = i2_v
    else:
        raise ValueError(f"unknown model {model!r}")
    return rep


def write_report_csv(reports: list[FunctionalReport], path) -> None:
    """One row per snapshot; absent quantities are empty cells."""
    cols = FunctionalReport.columns()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for rep in reports:
            row = []
            for c in cols:
                val = getattr(rep, c)
                if val is None:
                    row.append("")
                elif isinstance(val, float):
                    row.append(f"{val:.17e}")
                else:
                    row.append(str(val))
            writer.writerow(row)


def write_report_json(reports: list[FunctionalReport], path) -> None:
    data = [{c: getattr(rep, c) for c in FunctionalReport.columns()}
            for rep in reports]
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def composite_value(report: FunctionalReport, a1: float, a2: float, a3: float,
                    a4: float, entropy_term: str = "entropy_projected") -> float:
    """a1 Ix + a2 Im + a3 Iv + a4 * (projected or full) entropy."""
    ent = getattr(report, entropy_term)
    return (a1 * report.fisher_x + a2 * report.fisher_mixed
            + a3 * report.fisher_v + a4 * ent)
