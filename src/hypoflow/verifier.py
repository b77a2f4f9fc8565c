"""Numerical verification of the dissipation identities and inequalities.

Each check compares the time derivative of a functional along one
generator against the closed-form combination of diagnostics the theory
predicts. The derivatives are exact, with no flow and no differencing:
the generator's tangent g = G h enters the product rule on the gradients
that the state's report already read (`functionals.composite_rates`).
`run_suite` stacks its states, so one set of gradients serves a stack's
report and its rates along both generators. Equality checks report a
residual, inequality checks a slack; both carry the tolerance they were
judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import functionals as fns
from .certificate import estimate_functional_constant
from .functionals import FunctionalReport, PIndex, ReportBasis, build_report, report_basis
from .initial import random_band_limited
from .integrator import Trajectory
from .operators import BGK, CollisionKind, Transport, transport_generator
from .phase_space import Grid, State, grad_x_field, write_json

Generator = Transport | CollisionKind

DEFAULT_ABS_TOL = 1e-6
DEFAULT_REL_TOL = 1e-4
# run_suite's Young splitters: each relaxation inequality row and each
# mixed-term row appears once per splitter
SPLITTERS = (0.1, 1.0, 10.0)
# check_correction_weight: the r grid, the entropy indices, and the
# tolerance of a pointwise closed form
CORRECTION_R_GRID = np.linspace(0.0, 10.0, 2001)
CORRECTION_P_GRID = (1.1, 1.5, 1.9, 2.0)
CORRECTION_ABS_TOL = 1e-12
# fit_decay treats a functional at or below this as at equilibrium
DECAY_FLOOR = 1e-14
# run_suite stacks as many states as fit in this many nodal values (at
# least one): 8 at 64x32, one at 16^2 x 8^2 and at 32^2 x 16^2. Each numpy
# call then does a stack's arithmetic for one call's overhead; the bound
# keeps the stack's temporaries, and so the suite's memory, small. Stacks of
# 16 at 64x32 ran no faster and peaked higher.
STACK_VALUES = 2**14


@dataclass
class LemmaCheckResult:
    check_id: str
    kind: str                   # "equality" or "inequality"
    lhs: float
    rhs: float
    residual_or_slack: float
    tolerance: float
    passed: bool
    description: str = ""
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id, "kind": self.kind,
            "lhs": self.lhs, "rhs": self.rhs,
            "residual_or_slack": self.residual_or_slack,
            "tolerance": self.tolerance, "passed": self.passed,
            "description": self.description, "params": self.params,
        }


@dataclass
class DecayFit:
    functional: str
    t_start: float
    t_end: float
    rate: float
    prefactor: float
    r_squared: float
    window_shortened: bool = False

    def to_dict(self) -> dict:
        return {
            "functional": self.functional,
            "window": [self.t_start, self.t_end],
            "rate": self.rate, "prefactor": self.prefactor,
            "r_squared": self.r_squared,
            "window_shortened": self.window_shortened,
        }


@dataclass(frozen=True)
class CorruptedBGK(BGK):
    """Test hook: its `flow_rate`, which its `velocity_flow` (stepped by
    `flow` and `simulate`) and its `velocity_generator` (differentiated by
    `report_derivatives`) both read, is rate * (1 + skew), not its .rate.

    Predictions still use .rate, so with any nonzero skew every equality
    row of the derivative table must fail; used to prove the verifier can
    detect a broken operator. `[verify] corruption` sets the skew.
    """

    skew: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.skew > -1.0:
            raise ValueError(f"skew must exceed -1, got {self.skew}")

    @property
    def flow_rate(self) -> float:
        return self.rate * (1.0 + self.skew)


def _equality(check_id, lhs, rhs, abs_tol, rel_tol, desc="", params=None):
    resid = lhs - rhs
    tol = max(abs_tol, rel_tol * max(abs(lhs), abs(rhs)))
    return LemmaCheckResult(
        check_id=check_id, kind="equality", lhs=lhs, rhs=rhs,
        residual_or_slack=resid, tolerance=tol, passed=bool(abs(resid) <= tol),
        description=desc, params=params or {},
    )


def _inequality(check_id, lhs, rhs, abs_tol, desc="", params=None):
    # checks lhs <= rhs: slack = rhs - lhs
    slack = rhs - lhs
    return LemmaCheckResult(
        check_id=check_id, kind="inequality", lhs=lhs, rhs=rhs,
        residual_or_slack=slack, tolerance=abs_tol,
        passed=bool(slack >= -abs_tol), description=desc, params=params or {},
    )


def report_derivatives(state: State, rep: FunctionalReport,
                       generator: Generator, p: PIndex) -> FunctionalReport:
    """d/dt of the COMPOSITE_COLUMNS along the generator's flow at `state`,
    whose report is `rep`: a report with `rep`'s time and entropy label that
    holds those five rates, every other column None. The rates are exact:
    the product rule on the gradients of h along the tangent G h, with no
    flow. A stacked state gets one rate per member in each column."""
    return _rates(report_basis(state, p), rep, generator)


def _rates(basis: ReportBasis, rep: FunctionalReport,
           generator: Generator) -> FunctionalReport:
    """report_derivatives from the basis of `rep`. Only transport pays an
    x-transform: a collision generator acts on v alone, so it commutes
    with the x-gradient."""
    grid, h = basis.state.grid, basis.state.h
    if isinstance(generator, Transport):
        g = transport_generator(h, grid, grad_x=basis.gx)
        grad_x_g = grad_x_field(g, grid)
    else:
        along_v = generator.velocity_generator(grid)
        g, grad_x_g = along_v(h), along_v(basis.gx)
    return FunctionalReport(time=rep.time, p=rep.p,
                            **fns.composite_rates(basis, g, grad_x_g))


def check_lemma_table(rep: FunctionalReport, rates: FunctionalReport,
                      generator: Generator, p: PIndex,
                      splitters: tuple = (1.0,),
                      abs_tol: float = DEFAULT_ABS_TOL,
                      rel_tol: float = DEFAULT_REL_TOL) -> list[LemmaCheckResult]:
    """Derivative table of the Fisher components along one generator, read
    from the report `rep` and its derivatives `rates` along the generator
    (see `report_derivatives`). Covers the transport and velocity-diffusion
    rows, the same for every p, and the relaxation rows (log and power
    variants). Equality rows appear once, relaxation inequality rows once
    per Young splitter.
    """
    meta = {"time": rep.time, "p": p.label()}
    if isinstance(generator, Transport):
        return [
            _equality("transport.fisher_x_invariant", rates.fisher_x, 0.0,
                      abs_tol, rel_tol,
                      "spatial Fisher information is constant under free streaming", meta),
            _equality("transport.fisher_v_rate", rates.fisher_v, -2.0 * rep.fisher_mixed,
                      abs_tol, rel_tol, "velocity Fisher information drifts at minus twice the mixed term", meta),
            _equality("transport.fisher_mixed_rate", rates.fisher_mixed, -rep.fisher_x,
                      abs_tol, rel_tol, "mixed term drifts at minus the spatial Fisher information", meta),
        ]

    if isinstance(generator, BGK):
        lam = generator.rate
        meta = dict(meta, lam=lam)
        if p.is_log:
            v_rate = -lam * (rep.fisher_v + rep.fisher_v_ratio)
            x_bound = (-lam * rep.fisher_x_ratio
                       - lam * (rep.fisher_x - rep.fisher_x_projected))

            def mixed_bound(eps):
                return (lam * eps * rep.fisher_v_ratio + lam / eps * rep.fisher_x_ratio
                        - lam * rep.fisher_mixed)
            split_keys = ("eps",)
            desc = ("velocity Fisher decays by itself plus its average-ratio variant",
                    "spatial Fisher decays by the relative term plus the projection gap",
                    "mixed term bounded by the split relative terms minus itself")
        else:
            v_rate = -lam * (rep.correction_v + rep.fisher_v_scaled + rep.fisher_v)
            x_bound = -lam * rep.cross_dissipation - lam * rep.correction_x

            def mixed_bound(eps):
                return (0.5 * lam * eps * rep.fisher_v_scaled
                        + lam / eps * rep.cross_dissipation
                        + 0.5 * lam / eps * rep.correction_x
                        + 0.5 * lam * eps * rep.correction_v
                        - lam * rep.fisher_mixed)
            split_keys = ("eps1", "eps2")
            desc = ("velocity Fisher decays by itself plus both weighted variants",
                    "spatial Fisher decays by the cross dissipation and weighted term",
                    "mixed term bounded by the split dissipation terms minus itself")
        out = [_equality("relaxation.fisher_v_rate", rates.fisher_v, v_rate,
                         abs_tol, rel_tol, desc[0], meta)]
        for eps in splitters:
            out.append(_inequality("relaxation.fisher_x_bound", rates.fisher_x,
                                   x_bound, abs_tol, desc[1], meta))
            out.append(_inequality("relaxation.fisher_mixed_bound", rates.fisher_mixed,
                                   mixed_bound(eps), abs_tol, desc[2],
                                   dict(meta, **dict.fromkeys(split_keys, eps))))
        return out

    # velocity diffusion rows
    return [
        _equality("diffusion.fisher_x_rate", rates.fisher_x,
                  -2.0 * rep.hess_xv - (2.0 - p.p) * (p.p - 1.0) * rep.quartic_xv,
                  abs_tol, rel_tol,
                  "spatial Fisher dissipates through the mixed second derivative", meta),
        _inequality("diffusion.fisher_mixed_bound", rates.fisher_mixed,
                    rep.hess_vv + rep.hess_xv
                    + 0.5 * (2.0 - p.p) * (p.p - 1.0) * (rep.quartic_v + rep.quartic_xv)
                    + 0.5 * rep.fisher_x + 0.5 * rep.fisher_v,
                    abs_tol,
                    "mixed term bounded by second-derivative and split Fisher terms", meta),
        _equality("diffusion.fisher_v_rate", rates.fisher_v,
                  -2.0 * rep.hess_vv - (2.0 - p.p) * (p.p - 1.0) * rep.quartic_v
                  - 2.0 * rep.fisher_v,
                  abs_tol, rel_tol,
                  "velocity Fisher dissipates through second derivatives and twice "
                  "itself, the commutator contribution", meta),
    ]


def check_projection_inequalities(rep: FunctionalReport, transport: FunctionalReport,
                                  collision: FunctionalReport,
                                  C: float | None = None) -> list[LemmaCheckResult]:
    """Projection (Jensen) inequality, the functional inequality with an
    estimated constant, and the exact projected-entropy rate identity.

    `transport` and `collision` are the derivatives of the report `rep`
    along the two halves of the dynamics; the rate identity is checked
    against their sum, the derivative along the full flow.
    """
    meta = {"time": rep.time, "p": rep.p}
    out = [
        _inequality(
            "jensen.projected_fisher", rep.fisher_x_projected, rep.fisher_x,
            DEFAULT_ABS_TOL,
            "projecting onto the velocity average cannot increase spatial Fisher",
            meta),
        _inequality(
            "jensen.projected_entropy", rep.entropy_projected, rep.entropy,
            DEFAULT_ABS_TOL,
            "the velocity average carries no more entropy than the state", meta),
    ]
    if C is not None:
        out.append(_inequality(
            "functional_inequality.projected_entropy",
            rep.entropy_projected, C * rep.fisher_x,
            DEFAULT_ABS_TOL,
            "projected entropy is dominated by C times spatial Fisher",
            dict(meta, C=C)))

    # rate identity: transport carries the whole derivative, relaxation none
    out.append(_equality(
        "projected_entropy_rate.formula",
        transport.entropy_projected + collision.entropy_projected,
        rep.projected_entropy_rate,
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
        "the projected entropy rate equals the divergence pairing", meta))
    return out


def check_mixed_term(rep: FunctionalReport, eta: float) -> LemmaCheckResult:
    """The compensated mixed-term bound: minus the mixed Fisher term is
    controlled by split Fisher terms, the projection gap, and the exact
    projected-entropy rate (no differencing on the right-hand side).

    The bound is generator-independent: the collision part leaves the
    velocity average untouched, so the rate formula covers the full flow.
    `rep` must be a relaxation-model report.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    lhs = -rep.fisher_mixed
    rhs = (0.5 * eta * rep.fisher_v
           + 0.5 / eta * (rep.fisher_x - rep.fisher_x_projected)
           - rep.projected_entropy_rate)
    return _inequality(
        "mixed_term.bound", lhs, rhs, DEFAULT_ABS_TOL,
        "the mixed term is compensated by the projected entropy rate",
        {"time": rep.time, "p": rep.p, "eta": eta})


def check_correction_weight() -> list[LemmaCheckResult]:
    """Pointwise nonnegativity of the correction weight, and its vanishing
    at p = 2."""
    out = []
    for p in CORRECTION_P_GRID:
        vals = fns.correction_weight(CORRECTION_R_GRID, p)
        out.append(_inequality(
            f"correction_weight.nonneg[p={p}]", -float(vals.min()), 0.0,
            CORRECTION_ABS_TOL, "the correction weight is nonnegative on the r grid",
            {"p": p}))
    v2 = fns.correction_weight(CORRECTION_R_GRID, 2.0)
    out.append(_equality(
        "correction_weight.vanishes_at_two", float(np.abs(v2).max()), 0.0,
        CORRECTION_ABS_TOL, 0.0, "the correction weight vanishes identically at p = 2",
        {"p": 2.0}))
    return out


def fit_decay(trajectory: Trajectory,
              functional: Callable[[State], float],
              window: tuple[float, float],
              name: str = "functional") -> DecayFit:
    """Least-squares exponential fit of a positive functional over a window.

    Values at or below DECAY_FLOOR (equilibrium reached) shrink the window
    and set a flag rather than poisoning the logarithm.
    """
    ts, vals = [], []
    shortened = False
    for t, state in trajectory.window(*window):
        v = functional(state)
        if v <= DECAY_FLOOR:
            shortened = True
            break
        ts.append(t)
        vals.append(v)
    if len(ts) < 2:
        raise ValueError("decay window contains fewer than two usable snapshots")
    ts = np.asarray(ts)
    logs = np.log(np.asarray(vals))
    slope, intercept = np.polyfit(ts, logs, 1)
    pred = slope * ts + intercept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        functional=name, t_start=float(ts[0]), t_end=float(ts[-1]),
        rate=float(-slope), prefactor=float(np.exp(intercept)),
        r_squared=r2, window_shortened=shortened,
    )


def run_suite(grid: Grid, collision: CollisionKind, p: PIndex,
              n_states: int = 100, seed0: int = 0,
              amplitude: float = 0.25) -> list[LemmaCheckResult]:
    """Full verification sweep over seeded random states, with rates along
    the generator of `collision`: BGK (with the transport, projection and
    mixed-term rows), FokkerPlanck, or the test hook CorruptedBGK, whose
    skewed generator must break equality rows. The relaxation functional
    inequality row reads the ratio constant of
    `estimate_functional_constant`.

    The states of seeds seed0, seed0 + 1, ... are drawn and verified in
    stacks of STACK_VALUES nodal values: one random_band_limited draw, one
    report_basis, and from it one build_report and the rates along each
    generator, serve a stack. The rows come seed by seed, each bit for bit
    what that state alone would give.
    """
    relaxation = isinstance(collision, BGK)
    C = estimate_functional_constant(grid, p).value if relaxation else None
    stack = max(1, STACK_VALUES // (grid.nx_total * grid.nv_total))
    seeds = range(seed0, seed0 + n_states)

    results: list[LemmaCheckResult] = []
    for start in range(0, n_states, stack):
        members = seeds[start:start + stack]
        state = random_band_limited(grid, members, amplitude=amplitude)
        basis = report_basis(state, p)
        reps = build_report(state, p, model=collision.name, basis=basis)
        rates = _rates(basis, reps, collision)
        if relaxation:
            drifts = _rates(basis, reps, Transport())
        for i, seed in enumerate(members):
            rep, rate = reps.member(i), rates.member(i)
            if relaxation:
                drift = drifts.member(i)
                res = check_lemma_table(rep, drift, Transport(), p)
                res += check_lemma_table(rep, rate, collision, p, SPLITTERS)
                res += check_projection_inequalities(rep, drift, rate, C=C)
                res += [check_mixed_term(rep, eta) for eta in SPLITTERS]
            else:
                res = check_lemma_table(rep, rate, collision, p)
            for r in res:
                r.params["seed"] = seed
            results.extend(res)
    if relaxation and not p.is_log:
        results.extend(check_correction_weight())
    return results


def summarize(results: list[LemmaCheckResult]) -> str:
    """Human-readable table, one row per check, worst instance per id."""
    worst: dict[str, LemmaCheckResult] = {}
    counts: dict[str, int] = {}
    fails: dict[str, int] = {}

    def badness(r):
        return abs(r.residual_or_slack) if r.kind == "equality" else -r.residual_or_slack

    for r in results:
        counts[r.check_id] = counts.get(r.check_id, 0) + 1
        fails[r.check_id] = fails.get(r.check_id, 0) + (0 if r.passed else 1)
        cur = worst.get(r.check_id)
        if cur is None or badness(r) > badness(cur):
            worst[r.check_id] = r
    lines = [f"{'check':48s} {'kind':10s} {'n':>5s} {'fail':>5s} "
             f"{'worst resid/slack':>18s} {'tol':>9s}"]
    for cid in sorted(worst):
        r = worst[cid]
        lines.append(
            f"{cid:48s} {r.kind:10s} {counts[cid]:5d} {fails[cid]:5d} "
            f"{r.residual_or_slack:18.3e} {r.tolerance:9.1e}")
    total = len(results)
    failed = sum(0 if r.passed else 1 for r in results)
    lines.append(f"total checks: {total}, failed: {failed}")
    return "\n".join(lines)


def save_results(results: list[LemmaCheckResult], path) -> None:
    write_json(path, [r.to_dict() for r in results])
