"""Decay-rate certificates: coefficient recipes, feasibility audits and
rate optimization for the Lyapunov functionals, and `certify`, which picks
the recipe and the constant for a model.

Each certificate builds A1 Ix + A2 Im + A3 Iv + A4 H with every constraint
recorded explicitly. For relaxation H is the entropy of pi h and C the
coercivity constant of the spatial inequality (spatial Fisher information
dominates C times the projected entropy); for velocity diffusion H is the
full entropy and C the phase-space ratio constant (entropy at most C times
full Fisher information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import FunctionalReport, PIndex, torus_entropy, torus_fisher
from .operators import BGK, CollisionKind
from .phase_space import Grid, write_json


@dataclass
class FeasibilityReport:
    """Constraint id -> (left-hand slack, satisfied); slack >= 0 passes."""

    entries: dict[str, tuple[float, bool]] = field(default_factory=dict)
    binding: str | None = None
    identities: set[str] = field(default_factory=set)

    def add(self, name: str, slack: float, identity: bool = False) -> None:
        self.entries[name] = (slack, bool(slack >= 0.0))
        if identity:
            # holds with exact equality by construction; recorded for the
            # audit but never reported as the binding constraint
            self.identities.add(name)

    def finalize(self) -> "FeasibilityReport":
        candidates = [k for k in self.entries if k not in self.identities]
        if candidates:
            self.binding = min(candidates, key=lambda k: self.entries[k][0])
        return self

    @property
    def feasible(self) -> bool:
        return all(ok for _, ok in self.entries.values())

    def to_dict(self) -> dict:
        return {
            "binding": self.binding,
            "feasible": self.feasible,
            "constraints": {
                k: {"slack": v, "satisfied": ok}
                for k, (v, ok) in sorted(self.entries.items())
            },
        }


@dataclass
class CertificateParams:
    """Full audit of one certificate: coefficients, splitters, rate,
    statement-level prefactors, and the constraint evaluations."""

    model: str                      # bgk-log | bgk-power | fokker-planck-power
    lam: float | None = None
    p: float | None = None
    A1: float = 0.0
    A2: float = 0.0
    A3: float = 1.0
    A4: float = 0.0
    eps: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    eta: float | None = None
    C: float = math.inf
    alpha: float = 0.5
    rate: float = 0.0
    prefactor_alpha: float = 0.0
    prefactor_beta: float = 0.0
    prefactor_gamma: float | None = None
    feasibility: FeasibilityReport = field(default_factory=FeasibilityReport)

    @property
    def feasible(self) -> bool:
        return self.feasibility.feasible

    def to_dict(self) -> dict:
        out = {
            "model": self.model, "lambda": self.lam, "p": self.p,
            "A1": self.A1, "A2": self.A2, "A3": self.A3, "A4": self.A4,
            "eps": self.eps, "eps1": self.eps1, "eps2": self.eps2,
            "eta": self.eta, "C": self.C, "alpha": self.alpha,
            "rate": self.rate,
            "prefactor_alpha": self.prefactor_alpha,
            "prefactor_beta": self.prefactor_beta,
            "prefactor_gamma": self.prefactor_gamma,
            "feasibility": self.feasibility.to_dict(),
        }
        return out

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def functional(self, report: FunctionalReport) -> float:
        """A1 Ix + A2 Im + A3 Iv + A4 H of `report`; H is the projected entropy
        for the relaxation certificates, the full entropy for diffusion."""
        ent = report.entropy_projected if self.model.startswith(BGK.name) else report.entropy
        return (self.A1 * report.fisher_x + self.A2 * report.fisher_mixed
                + self.A3 * report.fisher_v + self.A4 * ent)


def phase_space_ratio(spatial_ratio: float) -> float:
    """The phase-space entropy/Fisher ratio constant (entropy at most this
    times the full Fisher information) for a given spatial ratio constant:
    the larger of the two, since the Gaussian direction contributes 1/2 to
    the product measure."""
    return max(spatial_ratio, 0.5)


def paper_constants_bgk(lam: float, C: float = math.inf, eta: float = 1.0 / 3.0,
                        p: float | None = None) -> CertificateParams:
    """Relaxation certificate for the log entropy (p None) or the power
    entropy with p in (1, 2]; one recipe serves both, and in the power
    case only the functional constant changes with p.

    Coefficients: A2 = lam A3, A1 = (lam + 2/lam) A3 / eta, entropy weight
    A4 = (lam^2 + 2) A3, alpha = 1/2. The log certificate splits with
    eps = 1/lam and certifies the rate lam^2 eta / (4 (lam^2 + 2)); the
    power certificate splits with eps1 = eps2 = 2/lam and certifies twice
    that rate. The rate holds when every recorded constraint does.
    """
    if not lam > 0:
        raise ValueError(f"relaxation rate must be positive, got {lam}")
    if p is not None and not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    A3 = 1.0
    A2 = lam * A3
    gain = 1.0 if p is None else 2.0
    try:
        A1 = (lam + 2.0 / lam) * A3 / eta
        A4 = (lam * A2 + 2.0 * A3)          # = (lam^2 + 2) A3
        rate = gain * lam**2 * eta / (4.0 * (lam**2 + 2.0))
        alpha_pref = 4.0 * (lam**2 + 2.0) / (eta * lam)
        finite = all(map(math.isfinite, (A1, A4, rate, alpha_pref)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValueError(f"lambda = {lam!r} gives non-finite certificate coefficients "
                         f"or rate at eta = {eta!r}")

    fz = FeasibilityReport()
    # trivially-true member of the proof's list, kept in non-reduced form
    pi_x_gap = lam * A1 - (lam * A2 + 2.0 * A3) / (2.0 * eta)
    eps = eps1 = eps2 = None
    if p is None:
        eps = 1.0 / lam
        # coefficient of the relative spatial Fisher term must stay nonnegative
        fz.add("pi_xx_coefficient", lam * A1 - lam * A2 / eps)
        fz.add("pi_x_gap_coefficient", pi_x_gap)
        fz.add("v_pi_coefficient", lam * (A3 - eps * A2), identity=True)
    else:
        eps1 = eps2 = 2.0 / lam
        fz.add("cross_dissipation_coefficient", lam * (A1 - A2 / (2.0 * eps1)))
        fz.add("pi_x_gap_coefficient", pi_x_gap)
        fz.add("correction_x_coefficient", lam * (A1 - A2 / (2.0 * eps2)))
        fz.add("v_pi_coefficient", lam * (A3 - 0.5 * eps1 * A2), identity=True)
        fz.add("vf_coefficient", lam * (A3 - 0.5 * eps2 * A2), identity=True)
    # velocity coefficient must retain half of the bare relaxation rate
    fz.add("velocity_margin", (lam - 0.5 * eta * (lam**2 + 2.0)) - 0.5 * lam)
    # sufficient conditions for (1/2) A3 I <= J <= 2 A1 I via Young
    fz.add("norm_equivalence_lower", (A1 - 0.5 * A3) * 0.5 * A3 - 0.25 * A2**2)
    fz.add("norm_equivalence_upper", min(A1 - 0.5 * A2, 2.0 * A1 - A3 - 0.5 * A2))
    # the Fisher decay term must dominate the projected-entropy decay term
    # (infinite slack for C = inf)
    fz.add("rate_domination", C * lam / (2.0 * (lam**2 + 2.0)) * gain - rate)

    beta = 2.0 * (lam**2 + 2.0)
    gamma = None
    if p is None and math.isfinite(C):
        # entropy is dominated by Fisher information with the phase-space
        # ratio constant
        ratio = phase_space_ratio(1.0 / C)
        gamma = ratio * (alpha_pref + 2.0 * beta * ratio)

    return CertificateParams(
        model="bgk-log" if p is None else "bgk-power", lam=lam, p=p,
        A1=A1, A2=A2, A3=A3, A4=A4, eps=eps, eps1=eps1, eps2=eps2,
        eta=eta, C=C, alpha=0.5, rate=rate,
        prefactor_alpha=alpha_pref, prefactor_beta=beta,
        prefactor_gamma=gamma, feasibility=fz.finalize(),
    )


def paper_constants_fp(C: float, p: float = 1.5) -> CertificateParams:
    """Velocity-diffusion certificate: no free parameter.

    A1 = A2 = A3 = 1, eps = 4, entropy weight 27/4; certified rate
    k = min(1/12, 4/(216 C)) where C is the phase-space entropy/Fisher
    ratio constant. The statement prefactors give
    I + (27/2) H <= exp(-k t) (3 I0 + (27/2) H0).
    """
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if p is None or not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    A1 = A2 = A3 = 1.0
    eps = 4.0 * A3
    A4 = 27.0 / 4.0
    rate = min(1.0 / 12.0, 4.0 / (216.0 * C))

    fz = FeasibilityReport()
    fz.add("hess_xv_coefficient", 2.0 * A1 - A2)
    fz.add("quartic_xv_coefficient", A1 - 0.5 * A2)
    fz.add("hess_vv_coefficient", 2.0 * A3 - A2)
    fz.add("quartic_v_coefficient", A3 - 0.5 * A2)
    fz.add("x_margin", 0.5 * A2 - A3 / eps)
    fz.add("entropy_coefficient", A4 - (0.5 * A2 + A3 * eps + 2.0 * A3))
    fz.finalize()

    return CertificateParams(
        model="fokker-planck-power", p=p, A1=A1, A2=A2, A3=A3, A4=A4,
        eps=eps, C=C, alpha=1.0, rate=rate,
        prefactor_alpha=3.0, prefactor_beta=27.0 / 2.0,
        feasibility=fz,
    )


def optimize_rate(lam: float, C: float = math.inf,
                  p: float | None = None) -> CertificateParams:
    """The relaxation certificate of `paper_constants_bgk` with the splitter
    eta that maximizes the certified rate.

    The rate is linear in eta and every constraint is an upper bound on
    eta, so the optimum sits on the feasibility boundary; it is located
    by bisection on the feasibility predicate, which stays correct if the
    constraint list changes shape.
    """
    def make(eta):
        return paper_constants_bgk(lam, C=C, eta=eta, p=p)

    lo = 1e-12
    if not make(lo).feasible:
        raise RuntimeError(
            "no feasible splitter found near zero; the constraint system "
            "is broken for these parameters")
    hi = lo
    while make(hi).feasible:
        hi *= 2.0
        if hi > 1e12:
            break
    # invariant: lo feasible, hi infeasible (or astronomically large)
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if make(mid).feasible:
            lo = mid
        else:
            hi = mid
    return make(lo)


# margin of the reported constant over the evaluated ratio
SAFETY = 1.1


@dataclass
class ConstantEstimate:
    """The spatial entropy/Fisher ratio constant for one entropy index."""

    value: float
    raw_ratio: float
    p: str
    # nothing is searched, so always 0; kept because the benchmark's trace
    # (perfbench/spans.py) reads it
    iterations: int = 0

    @property
    def coercivity(self) -> float:
        """Constant in the inverse orientation used by the relaxation
        certificates (spatial Fisher >= coercivity * projected entropy)."""
        return 1.0 / self.value


def estimate_functional_constant(grid: Grid,
                                 p: PIndex = PIndex(None)) -> ConstantEstimate:
    """The spatial entropy/Fisher ratio constant, times SAFETY.

    On the torus the sharp constant of entropy(rho) <= C fisher(rho) is
    reached by the lowest harmonic at vanishing amplitude: Emery-Yukich for
    the log entropy on the circle, Latala-Oleszkiewicz ("Between Sobolev
    and Poincare") for the p-entropies. It is 1/(8 pi^2) times period^2
    for every p. `raw_ratio` is entropy/fisher of
    rho = 1 + 1e-4 cos(2 pi x1 / period), measured on the grid with the
    package's own quadrature; `value` is raw_ratio * SAFETY.
    """
    x = grid.x_nodes[:, 0]
    rho = np.ones(grid.nx_total) + 1e-4 * np.cos(2.0 * np.pi / grid.spec.period * x)
    ratio = torus_entropy(rho, grid, p) / torus_fisher(rho, grid, p)
    return ConstantEstimate(value=ratio * SAFETY, raw_ratio=ratio, p=p.label())


def certify(grid: Grid, collision: CollisionKind, p: PIndex,
            C: float | None = None, eta: float | None = None) -> CertificateParams:
    """The certificate of `collision` for the entropy `p`.

    Relaxation (BGK) takes `paper_constants_bgk` with the splitter `eta`,
    or `optimize_rate` without one; velocity diffusion takes
    `paper_constants_fp` and has no splitter, so an `eta` is a ValueError.
    C defaults to the torus constant of `estimate_functional_constant` in
    the orientation the recipe reads: its coercivity for relaxation, its
    `phase_space_ratio` for diffusion.
    """
    relaxation = isinstance(collision, BGK)
    if eta is not None and not relaxation:
        raise ValueError("eta is the relaxation model's Young splitter; "
                         "the velocity-diffusion certificate has none")
    if C is None:
        est = estimate_functional_constant(grid, p)
        C = est.coercivity if relaxation else phase_space_ratio(est.value)
    if not relaxation:
        return paper_constants_fp(C=C, p=p.p)
    if eta is None:
        return optimize_rate(collision.rate, C=C, p=p.p)
    return paper_constants_bgk(collision.rate, C=C, eta=eta, p=p.p)
