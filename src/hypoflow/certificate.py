"""Decay-rate certificates: coefficient recipes, feasibility audits and
rate optimization for the Lyapunov functionals.

The relaxation certificates build the weighted Fisher combination
J = A1 Ix + A2 Im + A3 Iv plus an entropy term, with every inequality the
construction must satisfy recorded explicitly. C is the coercivity
constant of the spatial functional inequality (spatial Fisher information
dominates C times the projected entropy); the velocity-diffusion
certificate instead consumes the phase-space ratio constant (entropy at
most C times full Fisher information).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .functionals import PIndex
from .phase_space import Grid, grad_x_spatial, integrate_x


@dataclass
class FeasibilityReport:
    """Constraint id -> (left-hand slack, satisfied); slack >= 0 passes."""

    entries: dict[str, tuple[float, bool]] = field(default_factory=dict)
    binding: str | None = None
    identities: set[str] = field(default_factory=set)

    def add(self, name: str, slack: float, tol: float = 0.0,
            identity: bool = False) -> None:
        self.entries[name] = (slack, bool(slack >= -tol))
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
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True, default=str)
            f.write("\n")


def paper_constants_bgk(lam: float, C: float = math.inf,
                        eta: float = 1.0 / 3.0) -> CertificateParams:
    """Log-entropy relaxation certificate.

    Coefficients: A2 = lam A3, eps = 1/lam, A1 = (lam + 2/lam) A3 / eta,
    entropy weight A4 = (lam^2 + 2) A3, alpha = 1/2; certified rate
    lam^2 eta / (4 (lam^2 + 2)) when every recorded constraint holds.
    """
    if not lam > 0:
        raise ValueError(f"relaxation rate must be positive, got {lam}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    A3 = 1.0
    A2 = lam * A3
    A1 = (lam + 2.0 / lam) * A3 / eta
    A4 = (lam * A2 + 2.0 * A3)          # = (lam^2 + 2) A3
    eps = 1.0 / lam
    rate = lam**2 * eta / (4.0 * (lam**2 + 2.0))

    fz = FeasibilityReport()
    # coefficient of the relative spatial Fisher term must stay nonnegative
    fz.add("pi_xx_coefficient", lam * A1 - lam * A2 / eps)
    # trivially-true member of the proof's list, kept in non-reduced form
    fz.add("pi_x_gap_coefficient", lam * A1 - (lam * A2 + 2.0 * A3) / (2.0 * eta))
    fz.add("v_pi_coefficient", lam * (A3 - eps * A2), identity=True)
    # velocity coefficient must retain half of the bare relaxation rate
    fz.add("velocity_margin", (lam - 0.5 * eta * (lam**2 + 2.0)) - 0.5 * lam)
    # sufficient conditions for (1/2) A3 I <= J <= 2 A1 I via Young
    fz.add("norm_equivalence_lower", (A1 - 0.5 * A3) * 0.5 * A3 - 0.25 * A2**2)
    fz.add("norm_equivalence_upper", min(A1 - 0.5 * A2, 2.0 * A1 - A3 - 0.5 * A2))
    # the Fisher decay term must dominate the projected-entropy decay term
    if math.isfinite(C):
        fz.add("rate_domination",
               C * lam / (2.0 * (lam**2 + 2.0)) - rate)
    else:
        fz.add("rate_domination", math.inf)

    beta = 2.0 * (lam**2 + 2.0)
    alpha_pref = 4.0 * (lam**2 + 2.0) / (eta * lam)
    gamma = None
    if math.isfinite(C):
        # entropy is dominated by Fisher information with the phase-space
        # ratio constant; 1/2 is the Gaussian-direction value
        ratio = max(1.0 / C, 0.5)
        gamma = ratio * (alpha_pref + 2.0 * beta * ratio)

    return CertificateParams(
        model="bgk-log", lam=lam, A1=A1, A2=A2, A3=A3, A4=A4,
        eps=eps, eta=eta, C=C, alpha=0.5, rate=rate,
        prefactor_alpha=alpha_pref, prefactor_beta=beta,
        prefactor_gamma=gamma, feasibility=fz.finalize(),
    )


def paper_constants_bgk_p(lam: float, p: float, C: float = math.inf,
                          eta: float = 1.0 / 3.0) -> CertificateParams:
    """Power-entropy relaxation certificate; the recipe is p-uniform and
    only the functional constant changes with p.

    Coefficients: A2 = lam A3, eps1 = eps2 = 2/lam,
    A1 = (lam + 2/lam) A3 / eta; rate lam^2 eta / (2 (lam^2 + 2)).
    """
    if not lam > 0:
        raise ValueError(f"relaxation rate must be positive, got {lam}")
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    A3 = 1.0
    A2 = lam * A3
    A1 = (lam + 2.0 / lam) * A3 / eta
    A4 = lam * A2 + 2.0 * A3
    eps1 = eps2 = 2.0 / lam
    rate = lam**2 * eta / (2.0 * (lam**2 + 2.0))

    fz = FeasibilityReport()
    fz.add("cross_dissipation_coefficient", lam * (A1 - A2 / (2.0 * eps1)))
    fz.add("pi_x_gap_coefficient", lam * A1 - (lam * A2 + 2.0 * A3) / (2.0 * eta))
    fz.add("correction_x_coefficient", lam * (A1 - A2 / (2.0 * eps2)))
    fz.add("v_pi_coefficient", lam * (A3 - 0.5 * eps1 * A2), identity=True)
    fz.add("vf_coefficient", lam * (A3 - 0.5 * eps2 * A2), identity=True)
    fz.add("velocity_margin", (lam - 0.5 * eta * (lam**2 + 2.0)) - 0.5 * lam)
    fz.add("norm_equivalence_lower", (A1 - 0.5 * A3) * 0.5 * A3 - 0.25 * A2**2)
    fz.add("norm_equivalence_upper", min(A1 - 0.5 * A2, 2.0 * A1 - A3 - 0.5 * A2))
    if math.isfinite(C):
        fz.add("rate_domination", C * lam / (lam**2 + 2.0) - rate)
    else:
        fz.add("rate_domination", math.inf)

    beta = 2.0 * (lam**2 + 2.0)
    alpha_pref = 4.0 * (lam**2 + 2.0) / (eta * lam)

    return CertificateParams(
        model="bgk-power", lam=lam, p=p, A1=A1, A2=A2, A3=A3, A4=A4,
        eps1=eps1, eps2=eps2, eta=eta, C=C, alpha=0.5, rate=rate,
        prefactor_alpha=alpha_pref, prefactor_beta=beta,
        feasibility=fz.finalize(),
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
    if not (1.0 < p <= 2.0):
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


def optimize_rate(model: str, lam: float | None = None, p: float | None = None,
                  C: float = math.inf, rel_tol: float = 1e-12) -> CertificateParams:
    """Maximize the certified rate over the free splitter.

    The rate is linear in eta and every constraint is an upper bound on
    eta, so the optimum sits on the feasibility boundary; it is located
    by bisection on the feasibility predicate, which stays correct if the
    constraint list changes shape.
    """
    if model == "fokker-planck-power":
        return paper_constants_fp(C=C, p=p if p is not None else 1.5)
    if model == "bgk-log":
        def make(eta):
            return paper_constants_bgk(lam, C=C, eta=eta)
    elif model == "bgk-power":
        def make(eta):
            return paper_constants_bgk_p(lam, p, C=C, eta=eta)
    else:
        raise ValueError(f"unknown certificate model {model!r}")

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
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if make(mid).feasible:
            lo = mid
        else:
            hi = mid
    return make(lo)


@dataclass
class ConstantEstimate:
    """Outcome of the functional-constant search."""

    value: float
    raw_ratio: float
    converged: bool
    iterations: int
    p: str

    @property
    def coercivity(self) -> float:
        """Constant in the inverse orientation used by the relaxation
        certificates (spatial Fisher >= coercivity * projected entropy)."""
        return 1.0 / self.value


def _spatial_entropy(rho: np.ndarray, p: PIndex, grid: Grid) -> float:
    return integrate_x(kernels.convex_entropy_density(rho, p.p), grid)


def _spatial_fisher(rho: np.ndarray, p: PIndex, grid: Grid) -> float:
    g = grad_x_spatial(rho, grid)
    w = 1.0 / rho if p.is_log else rho**(p.p - 2.0)
    return integrate_x(w * (g * g).sum(axis=0), grid)


def _trial_density(grid: Grid, coefs: np.ndarray, modes: int) -> np.ndarray:
    two_pi = 2.0 * np.pi / grid.spec.period
    rho = np.ones(grid.nx_total)
    idx = 0
    for ax in range(grid.dim):
        x = grid.x_nodes[:, ax]
        for m in range(1, modes + 1):
            rho = rho + coefs[idx] * np.cos(two_pi * m * x)
            rho = rho + coefs[idx + 1] * np.sin(two_pi * m * x)
            idx += 2
    return rho


def estimate_functional_constant(grid: Grid, p: PIndex = PIndex(None),
                                 modes: int = 3, n_starts: int = 4,
                                 max_iter: int = 150, seed: int = 0,
                                 safety: float = 1.1,
                                 rho_floor: float = 0.05) -> ConstantEstimate:
    """Numerically estimate the spatial entropy/Fisher ratio constant.

    Maximizes entropy(rho) / fisher(rho) over positive band-limited trial
    densities on the torus by projected gradient ascent on the Fourier
    coefficients, from several deterministic starts. The returned value is
    the best ratio found times a safety factor; `converged` is False when
    the last start was still improving at the iteration cap.

    For the unit torus the perturbative optimum is 1/(8 pi^2), attained by
    the lowest harmonic at vanishing amplitude.
    """
    rng = np.random.default_rng(seed)
    n_coef = 2 * modes * grid.dim

    def ratio_of(coefs: np.ndarray) -> float:
        rho = _trial_density(grid, coefs, modes)
        if rho.min() < rho_floor:
            return -math.inf
        fisher = _spatial_fisher(rho, p, grid)
        if fisher <= 0.0:
            return -math.inf
        ent = _spatial_entropy(rho, p, grid)
        # unit-mean trials make the entropy the relative one up to O(coef^2)
        # in the log case; normalize the mass explicitly instead
        return ent / fisher

    def normalized(coefs: np.ndarray) -> np.ndarray:
        rho = _trial_density(grid, coefs, modes)
        m = float(rho.min())
        if m < rho_floor:
            # shrink toward the uniform density until safely positive
            scale = (1.0 - rho_floor) / max(1.0 - m, 1e-30)
            return coefs * scale
        return coefs

    best = -math.inf
    best_converged = True
    total_iters = 0
    fd = 1e-7
    for _ in range(n_starts):
        coefs = normalized(rng.normal(scale=0.15, size=n_coef))
        cur = ratio_of(coefs)
        step = 0.05
        converged = False
        stalled = 0
        for _ in range(max_iter):
            total_iters += 1
            grad = np.zeros(n_coef)
            for i in range(n_coef):
                probe = coefs.copy()
                probe[i] += fd
                up = ratio_of(probe)
                probe[i] -= 2.0 * fd
                dn = ratio_of(probe)
                if math.isfinite(up) and math.isfinite(dn):
                    grad[i] = (up - dn) / (2.0 * fd)
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                converged = True
                break
            trial = normalized(coefs + step * grad / gnorm)
            val = ratio_of(trial)
            if val > cur:
                gain = val - cur
                coefs, cur = trial, val
                step = min(step * 1.3, 0.2)
                stalled = stalled + 1 if gain < 1e-7 * max(abs(cur), 1e-30) else 0
            else:
                step *= 0.5
                stalled += 1
            if step < 1e-10 or stalled >= 8:
                converged = True
                break
        best = max(best, cur)
        best_converged = best_converged and converged

    # the vanishing-amplitude limit of the lowest harmonic is a known
    # analytic candidate; never report less than it
    tiny = np.zeros(n_coef)
    tiny[0] = 1e-4
    best = max(best, ratio_of(tiny))

    return ConstantEstimate(
        value=best * safety, raw_ratio=best,
        converged=best_converged, iterations=total_iters, p=p.label(),
    )
