"""Entropy and Fisher-information diagnostics of a state.

One entropy family is supported: the power entropies (h^p - h)/(p(p-1))
for p in [1, 2], whose p = 1 member is the logarithmic entropy h log h of
the density ratio. Every p takes the same code path.

Every column reads one `ReportBasis`: the weight h^(p-2), pi h and the
spectral gradients of h, each computed once per report. The nonlinear
entropy variables are differentiated by the pointwise chain rule against
the spectral gradient of h itself. That keeps the algebraic identities
between the reported quantities exact at quadrature level.
`composite_rates` differentiates the composite columns along a tangent of
h by the product rule on the same basis, exact to round-off.

A state that stacks members on leading axes of h gets one report whose
numeric columns hold one value per member, each bit for bit the value
that member's own report holds; `FunctionalReport.member` takes one out.
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
    open_fresh,
    project_pi,
    require_bounded_below,
    write_json,
)


@dataclass(frozen=True)
class PIndex:
    """Entropy index p in [1, 2]; p = 1 is the logarithmic (Boltzmann) entropy."""

    p: float = 1.0

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"entropy index needs p in [1, 2], got {self.p}")

    @property
    def is_log(self) -> bool:
        return self.p == 1.0

    def label(self) -> str:
        return "log" if self.is_log else repr(self.p)

    @staticmethod
    def parse(text: str) -> "PIndex":
        t = text.strip().lower()
        if t in ("log", "boltzmann"):
            return BOLTZMANN
        return PIndex(float(t))


BOLTZMANN = PIndex(1.0)


def correction_weight(r, p: float):
    """p-1 + (2-p) r - r^(2-p); nonnegative for r >= 0, zero at p = 2.

    Weights the extra dissipation terms that exist only for p strictly
    between 1 and 2; it vanishes at p = 1 as well.
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

    def member(self, index) -> "FunctionalReport":
        """The report of one member of a stacked state's report, every
        numeric column a Python float."""
        return FunctionalReport(time=self.time, p=self.p, **{
            c: None if getattr(self, c) is None else float(getattr(self, c)[index])
            for c in DIAGNOSTIC_COLUMNS})


# The columns of a report, and its numeric columns that measure the state:
# all but time and p.
REPORT_COLUMNS = tuple(f.name for f in fields(FunctionalReport))
DIAGNOSTIC_COLUMNS = tuple(c for c in REPORT_COLUMNS if c not in ("time", "p"))

# The columns of the composite functional A1 Ix + A2 Im + A3 Iv + A4 H.
COMPOSITE_COLUMNS = ("entropy", "entropy_projected", "fisher_x", "fisher_v",
                     "fisher_mixed")


def entropy(state: State, p: PIndex = BOLTZMANN) -> float:
    """Relative entropy of the state against equilibrium."""
    require_bounded_below(state.h)
    return kernels.entropy(state.h, state.grid.v_weights, p.p)


def local_mean_velocity(state: State) -> np.ndarray:
    """First velocity moment per spatial node; shape (dim, ..., nx_total)."""
    grid = state.grid
    wv = grid.v_weights[:, None] * grid.v_nodes
    return np.moveaxis(state.h @ wv, -1, 0)


def torus_entropy(rho: np.ndarray, grid: Grid, p: PIndex = BOLTZMANN):
    """Entropy of a positive density rho on the torus, shape (..., nx_total).

    Evaluated in the pointwise-nonnegative convex arrangement, which has
    the same integral for unit-mass densities and is roundoff-safe near
    equilibrium.
    """
    return integrate_x(kernels.convex_entropy_density(rho, p.p), grid)


def torus_fisher(rho: np.ndarray, grid: Grid, p: PIndex = BOLTZMANN,
                 grad: np.ndarray | None = None):
    """Spatial Fisher information, weighted rho^(p-2), of a positive density
    rho on the torus; `grad` is its spatial gradient if the caller has it."""
    if grad is None:
        grad = grad_x_spatial(rho, grid)
    sq = (grad**2).sum(axis=0)
    return integrate_x(rho**(p.p - 2.0) * sq, grid)


@dataclass(frozen=True, eq=False)
class ReportBasis:
    """What every report column of a state reads, each computed once: the
    weight w = h^(p-2), pi h, and the x- and v-gradients of h."""

    state: State
    p: PIndex
    w: np.ndarray
    pih: np.ndarray
    gx: np.ndarray
    gv: np.ndarray


def report_basis(state: State, p: PIndex) -> ReportBasis:
    """The basis of the reports of `state`; a PositivityError if h or its
    velocity average is below the floor of the weighted integrands."""
    grid, h = state.grid, state.h
    require_bounded_below(h)
    pih = project_pi(h, grid)
    require_bounded_below(pih, "velocity average of h")
    return ReportBasis(state, p, w=h**(p.p - 2.0), pih=pih,
                       gx=grad_x_field(h, grid), gv=grad_v_field(h, grid))


def _composite(basis: ReportBasis) -> FunctionalReport:
    state, p = basis.state, basis.p
    wv = state.grid.v_weights
    ix, iv, im = kernels.fisher(basis.w, basis.gx, basis.gv, wv)
    return FunctionalReport(
        time=state.time, p=p.label(),
        entropy=kernels.entropy(state.h, wv, p.p),
        entropy_projected=torus_entropy(basis.pih, state.grid, p),
        fisher_x=ix, fisher_v=iv, fisher_mixed=im,
    )


def composite_report(state: State, p: PIndex) -> FunctionalReport:
    """The COMPOSITE_COLUMNS of `state`, bit for bit as build_report gives
    them, every other column None: all that A1 Ix + A2 Im + A3 Iv + A4 H reads,
    with H = entropy_projected (BGK) or entropy (Fokker-Planck)."""
    return _composite(report_basis(state, p))


def composite_rates(basis: ReportBasis, g: np.ndarray, grad_x_g: np.ndarray) -> dict:
    """d/dt of the COMPOSITE_COLUMNS, by column name, along a tangent g of
    the basis's h whose x-gradient is given: the product rule on the basis,
    exact to round-off.

    The entropy rate is the quadrature of E(h) g, and the projected one the
    x-integral of E(pi h) pi g, E the entropy variable. With B the form of
    `kernels.fisher_form` and w' = (p-2) w / h, the three Fisher rates are
    B(w' g; grad h, grad h) + B(w; grad h, grad g) + B(w; grad g, grad h).
    """
    state, p = basis.state, basis.p
    grid, h, wv = state.grid, state.h, state.grid.v_weights
    # each term is reduced before the next one's fields are built
    rates = dict(
        entropy=kernels.entropy_rate(h, g, wv, p.p),
        entropy_projected=integrate_x(
            kernels.entropy_variable(basis.pih, p.p) * project_pi(g, grid), grid))
    own = kernels.fisher((p.p - 2.0) * basis.w / h * g, basis.gx, basis.gv, wv)
    grad_v_g = grad_v_field(g, grid)
    hg = kernels.fisher_form(basis.w, basis.gx, basis.gv, grad_x_g, grad_v_g, wv)
    gh = kernels.fisher_form(basis.w, grad_x_g, grad_v_g, basis.gx, basis.gv, wv)
    rates["fisher_x"], rates["fisher_v"], rates["fisher_mixed"] = (
        a + b + c for a, b, c in zip(own, hg, gh))
    return rates


def build_report(state: State, p: PIndex, model: str = BGK.name,
                 basis: ReportBasis | None = None) -> FunctionalReport:
    """Every diagnostic of one snapshot, or of each member of a stacked
    state, in one pass over one set of gradients: `basis`, which is
    report_basis(state, p) if the caller has it.

    model is the name of BGK or FokkerPlanck; with p it decides which columns exist
    (every other column is None):
    - both models: the COMPOSITE_COLUMNS, as composite_report computes them,
      and hermite_tail, the share of the Hermite coefficient norm of h in
      the top two modes per velocity axis;
    - bgk: fisher_x_projected, projected_entropy_rate, cross_dissipation,
      correction_x, correction_v and fisher_v_scaled; at p = 1 the correction
      weight vanishes and the other two are fisher_x_ratio and fisher_v_ratio;
    - fokker-planck: hess_xv, hess_vv, quartic_xv, quartic_v; at p = 1
      hess_vv is Villani's Gamma_2 term, the integral of h |d_v d_v log h|^2.
    """
    if model not in (BGK.name, FokkerPlanck.name):
        raise ValueError(f"unknown model {model!r}")
    if basis is None:
        basis = report_basis(state, p)
    rep = _composite(basis)
    w, pih, gx, gv = basis.w, basis.pih, basis.gx, basis.gv
    grid, h, wv = state.grid, state.h, state.grid.v_weights
    rep.hermite_tail = hermite_tail_fraction(h, grid)
    if model == BGK.name:
        # one x-gradient of [pi h | u]: the gradient of pi h, and the
        # divergence of the mean velocity u from the diagonal
        u = np.moveaxis(local_mean_velocity(state), 0, -1)
        g = grad_x_field(np.concatenate([pih[..., None], u], axis=-1), grid)
        gpi = g[..., 0]
        div_u = sum(g[i, ..., 1 + i] for i in range(grid.dim))
        # exact d/dt of entropy_projected, no differencing: the entropy
        # variable of pi h paired with minus the divergence of u
        rep.projected_entropy_rate = -integrate_x(kernels.entropy_variable(pih, p.p) * div_u, grid)
        rep.fisher_x_projected = torus_fisher(pih, grid, p, grad=gpi)
        ratio = pih[..., None] / h
        cross = kernels.cross_dissipation(w, gx, gpi, pih, wv, p.p)
        scaled = kernels.weighted_fisher(w * ratio**(2.0 - p.p), gv, wv)
        if p.is_log:
            rep.fisher_x_ratio, rep.fisher_v_ratio = cross, scaled
        else:
            rep.cross_dissipation, rep.fisher_v_scaled = cross, scaled
            wc = w * correction_weight(ratio, p.p)
            rep.correction_x = kernels.weighted_fisher(wc, gx, wv)
            rep.correction_v = kernels.weighted_fisher(wc, gv, wv)
    else:
        # hess[i, j]: d/dv_i of the j-th gradient component
        rep.hess_xv = kernels.hessian_norm(w, h, grad_v_field(gx, grid), gv, gx, wv, p.p)
        rep.hess_vv = kernels.hessian_norm(w, h, grad_v_field(gv, grid), gv, gv, wv, p.p)
        rep.quartic_xv = kernels.quartic(w, h, gv, gx, wv)
        rep.quartic_v = kernels.quartic(w, h, gv, gv, wv)
    return rep


def write_report_csv(reports: list[FunctionalReport], path) -> None:
    """One row per snapshot; absent quantities are empty cells."""
    with open_fresh(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            row = []
            for c in REPORT_COLUMNS:
                val = getattr(rep, c)
                if val is None:
                    row.append("")
                elif isinstance(val, float):
                    row.append(f"{val:.17e}")
                else:
                    row.append(str(val))
            writer.writerow(row)


def write_report_json(reports: list[FunctionalReport], path) -> None:
    data = [{c: getattr(rep, c) for c in REPORT_COLUMNS}
            for rep in reports]
    write_json(path, data)

