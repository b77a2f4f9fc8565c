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
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .operators import BGK, FokkerPlanck
from .phase_space import (
    Grid,
    State,
    grad_v_field,
    grad_x_field,
    grad_x_spatial,
    hermite_tail_fraction,
    integrate_x,
    project_pi,
    require_bounded_below,
    write_json,
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
        if t in ("log", "boltzmann"):
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
    hermite_tail: float | None = None

    @staticmethod
    def columns() -> list[str]:
        return [f.name for f in fields(FunctionalReport)]

    @staticmethod
    def diagnostics() -> list[str]:
        """The numeric columns that measure the state: all but time and p."""
        return [c for c in FunctionalReport.columns() if c not in ("time", "p")]


# The columns of the composite functional A1 Ix + A2 Im + A3 Iv + A4 H.
COMPOSITE_COLUMNS = ("entropy", "entropy_projected", "fisher_x", "fisher_v",
                     "fisher_mixed")


def entropy(state: State, p: PIndex = BOLTZMANN) -> float:
    """Relative entropy of the state against equilibrium."""
    require_bounded_below(state.h)
    return kernels.entropy(state.h, state.grid.v_weights, p.p)


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


def _composite(state: State, p: PIndex):
    """composite_report of `state`, with the pi h and the gradients it read."""
    grid, h, wv = state.grid, state.h, state.grid.v_weights
    require_bounded_below(h)
    pih = project_pi(h, grid)
    require_bounded_below(pih, "velocity average of h")
    gx = grad_x_field(h, grid)
    gv = grad_v_field(h, grid)
    ix, iv, im = kernels.fisher(h, gx, gv, wv, -1.0 if p.is_log else p.p - 2.0)
    rep = FunctionalReport(
        time=state.time, p=p.label(),
        entropy=kernels.entropy(h, wv, p.p),
        entropy_projected=torus_entropy(pih, grid, p),
        fisher_x=ix, fisher_v=iv, fisher_mixed=im,
    )
    return rep, pih, gx, gv


def composite_report(state: State, p: PIndex) -> FunctionalReport:
    """The COMPOSITE_COLUMNS of `state`, bit for bit as build_report gives
    them, every other column None: all that A1 Ix + A2 Im + A3 Iv + A4 H reads,
    with H = entropy_projected (BGK) or entropy (Fokker-Planck)."""
    return _composite(state, p)[0]


def build_report(state: State, p: PIndex, model: str = BGK.name) -> FunctionalReport:
    """Every diagnostic of one snapshot, in one pass over one set of gradients.

    model is the name of BGK or FokkerPlanck; with p it decides which columns exist
    (every other column is None):
    - both models: the COMPOSITE_COLUMNS, as composite_report computes them,
      and hermite_tail, the share of the Hermite coefficient norm of h in
      the top two modes per velocity axis;
    - bgk: fisher_x_projected and projected_entropy_rate, plus fisher_x_ratio
      and fisher_v_ratio for the log entropy, or cross_dissipation,
      correction_x, correction_v and fisher_v_scaled for p in (1, 2];
    - fokker-planck with p in (1, 2]: hess_xv, hess_vv, quartic_xv, quartic_v.
    """
    if model not in (BGK.name, FokkerPlanck.name):
        raise ValueError(f"unknown model {model!r}")
    rep, pih, gx, gv = _composite(state, p)
    grid, h, wv = state.grid, state.h, state.grid.v_weights
    rep.hermite_tail = hermite_tail_fraction(h, grid)
    if model == BGK.name:
        # one x-gradient of [pi h | u]: the gradient of pi h, and the
        # divergence of the mean velocity u from the diagonal
        g = grad_x_field(np.column_stack([pih, local_mean_velocity(state).T]), grid)
        gpi = g[:, :, 0]
        div_u = sum(g[i, :, 1 + i] for i in range(grid.dim))
        # exact d/dt of entropy_projected, no differencing: the entropy
        # variable of pi h paired with minus the divergence of u
        entropy_var = np.log(pih) if p.is_log else pih**(p.p - 1.0) / (p.p - 1.0)
        rep.projected_entropy_rate = -integrate_x(entropy_var * div_u, grid)
        rep.fisher_x_projected = torus_fisher(pih, grid, p, grad=gpi)
        if p.is_log:
            rep.fisher_x_ratio = kernels.pi_ratio_x(h, gx, gpi, pih, wv)
            rep.fisher_v_ratio = kernels.weighted_fisher(h, gv, wv, -1.0, pih[:, None] / h)
        else:
            rep.cross_dissipation = kernels.cross_dissipation(h, gx, gpi, pih, wv, p.p)
            ratio = pih[:, None] / h
            fac = correction_weight(ratio, p.p)
            rep.correction_x = kernels.weighted_fisher(h, gx, wv, p.p - 2.0, fac)
            rep.correction_v = kernels.weighted_fisher(h, gv, wv, p.p - 2.0, fac)
            rep.fisher_v_scaled = kernels.weighted_fisher(h, gv, wv, p.p - 2.0,
                                                          ratio**(2.0 - p.p))
    elif not p.is_log:
        # hess[i, j]: d/dv_i of the j-th gradient component
        hess_vx = np.stack([grad_v_field(g, grid) for g in gx], axis=1)
        hess_vv = np.stack([grad_v_field(g, grid) for g in gv], axis=1)
        rep.hess_xv = kernels.hessian_norm(h, hess_vx, gv, gx, wv, p.p)
        rep.hess_vv = kernels.hessian_norm(h, hess_vv, gv, gv, wv, p.p)
        rep.quartic_xv = kernels.quartic(h, gv, gx, wv, p.p)
        rep.quartic_v = kernels.quartic(h, gv, gv, wv, p.p)
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
    write_json(path, data)

