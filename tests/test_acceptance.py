"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Runs on the (nx=64, nv=32) production grid."""

import time

import numpy as np
import pytest

from hypoflow import (
    BGK,
    BOLTZMANN,
    FokkerPlanck,
    PIndex,
    Schedule,
    build_grid,
    build_report,
    certify,
    entropy,
    fit_decay,
    integrate_mu,
    paper_constants_bgk,
    paper_constants_fp,
    random_band_limited,
    run_suite,
    simulate,
    GridSpec,
    Transport,
)
from hypoflow.initial import cosine, velocity_perturbation
from hypoflow.phase_space import H_MIN
from hypoflow.verifier import DEFAULT_ABS_TOL


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return build_grid(GridSpec(dim=1, nx=64, nv=32))


def _certificate_run(grid, collision, p, t_end=20.0, dt=0.01, stride=10):
    h0 = cosine(grid, amplitude=0.5, v_amplitude=0.2)
    sched = Schedule(dt=dt, t_end=t_end, collision=collision,
                     snapshot_every=stride)
    traj = simulate(h0, sched)
    reports = [(t, build_report(s, p, model=collision.name)) for t, s in traj.snapshots]
    return traj, reports


def test_criterion_01_constant_reproduction():
    t0 = time.monotonic()
    ok, detail = True, []
    eta = 0.1
    for lam in (0.5, 1.0, 2.0):
        c = paper_constants_bgk(lam, C=1e9, eta=eta)
        checks = (
            abs(c.A2 / c.A3 - lam),
            abs(c.eps - 1.0 / lam),
            abs(c.A1 * eta / c.A3 - (lam + 2.0 / lam)),
            abs(c.rate - lam**2 * eta / (4.0 * (lam**2 + 2.0))),
        )
        if max(checks) > 1e-14:
            ok = False
            detail.append(f"lam={lam}: worst dev {max(checks):.2e}")
    for C in (1.0, 2.0 / 9.0, 3.0):
        c = paper_constants_fp(C=C)
        if abs(c.A4 - 27.0 / 4.0) > 1e-14:
            ok = False
            detail.append(f"fp A4 off at C={C}")
        if abs(c.rate - min(1.0 / 12.0, 4.0 / (216.0 * C))) > 1e-14:
            ok = False
            detail.append(f"fp rate off at C={C}")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        ok = False
        detail.append(f"took {elapsed:.2f}s")
    report("01 (constant reproduction)", ok, "; ".join(detail) or f"{elapsed:.3f}s")


def test_criterion_02_lemma_suite_boltzmann(grid):
    t0 = time.monotonic()
    results = run_suite(grid, BGK(1.0), BOLTZMANN, n_states=100)
    failed = [r for r in results if not r.passed]
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 300.0
    detail = (f"{len(results)} checks, {len(failed)} failed, {elapsed:.1f}s")
    report("02 (log-entropy dissipation suite)", ok, detail)


def test_criterion_03_lemma_suite_power(grid):
    failed = []
    total = 0
    for p in (PIndex(1.5), PIndex(2.0)):
        results = run_suite(grid, BGK(1.0), p, n_states=100)
        total += len(results)
        failed += [r for r in results if not r.passed]
    # the correction weight vanishes identically at p = 2
    for seed in range(5):
        s = random_band_limited(grid, seed)
        rep = build_report(s, PIndex(2.0))
        cx, cv = rep.correction_x, rep.correction_v
        if abs(cx) > 1e-12 or abs(cv) > 1e-12:
            failed.append(("p2 correction nonzero", cx, cv))
        total += 1
    ok = not failed
    report("03 (power-entropy dissipation suite)", ok,
           f"{total} checks, {len(failed)} failed")


def test_criterion_04_transport_polynomial(grid):
    # the transport table integrates exactly: Ix constant,
    # Im(t) = Im0 - t Ix0, Iv(t) = Iv0 - 2t Im0 + t^2 Ix0
    times = np.linspace(0.0, 0.5, 11)
    tr = Transport()
    worst_const, worst_lin, worst_quad = 0.0, 0.0, 0.0
    worst_m, worst_v = 0.0, 0.0
    for seed in range(5):
        s = random_band_limited(grid, seed, x_modes=1)
        rep0 = build_report(s, BOLTZMANN, model="bgk")
        ix0, im0, iv0 = rep0.fisher_x, rep0.fisher_mixed, rep0.fisher_v
        ix, im, iv = [], [], []
        for t in times:
            rep = build_report(tr.flow(s, float(t)), BOLTZMANN, model="bgk")
            ix.append(rep.fisher_x)
            im.append(rep.fisher_mixed)
            iv.append(rep.fisher_v)
        ix, im, iv = np.array(ix), np.array(im), np.array(iv)
        worst_const = max(worst_const, np.abs(ix - ix0).max())
        worst_m = max(worst_m, np.abs(im - (im0 - times * ix0)).max())
        worst_v = max(worst_v, np.abs(iv - (iv0 - 2.0 * times * im0
                                            + times**2 * ix0)).max())
        slope = np.polyfit(times, im, 1)[0]
        worst_lin = max(worst_lin, abs(slope + ix0))
        quad = np.polyfit(times, iv, 2)[0]
        worst_quad = max(worst_quad, abs(quad - ix0))
    ok = (worst_const < 1e-8 and worst_lin < 1e-5 and worst_quad < 1e-5
          and worst_m < DEFAULT_ABS_TOL and worst_v < DEFAULT_ABS_TOL)
    report("04 (transport polynomial law)", ok,
           f"const {worst_const:.1e}, linear {worst_lin:.1e}, quad {worst_quad:.1e}, "
           f"Im(t) {worst_m:.1e}, Iv(t) {worst_v:.1e}")


def test_criterion_05_closed_form_relaxation(grid):
    lam = 1.0
    s0 = velocity_perturbation(grid, 0.3)
    sched = Schedule(dt=0.01, t_end=5.0, collision=BGK(lam), snapshot_every=10)
    traj = simulate(s0, sched)
    sup = 0.0
    for t, s in traj.snapshots:
        expect = 1.0 + np.exp(-lam * t) * (s0.h - 1.0)
        sup = max(sup, float(np.abs(s.h - expect).max()))
    fit = fit_decay(
        traj, lambda s: build_report(s, BOLTZMANN, model="bgk").fisher_v,
        window=(1.0, 4.0), name="fisher_v")
    ok = sup < 1e-10 and abs(fit.rate - 2.0 * lam) <= 0.05 * 2.0 * lam
    report("05 (spatially homogeneous closed form)", ok,
           f"sup err {sup:.1e}, fitted rate {fit.rate:.4f}")


def test_criterion_06_relaxation_log_certificate(grid):
    t0 = time.monotonic()
    cert = certify(grid, BGK(1.0), BOLTZMANN)
    traj, reports = _certificate_run(grid, BGK(1.0), BOLTZMANN)

    vals = np.array([cert.functional(rep) for _, rep in reports])
    times = np.array([t for t, _ in reports])
    rel_steps = np.diff(vals) / vals[:-1]
    monotone = bool((rel_steps <= 1e-8).all())

    mask = (times >= 1.0) & (times <= 10.0)
    slope, _ = np.polyfit(times[mask], np.log(vals[mask]), 1)
    rate_ok = -slope >= cert.rate * 0.9

    rep0 = reports[0][1]
    i0 = rep0.fisher_x + rep0.fisher_v
    hpi0 = rep0.entropy_projected
    conclusion = True
    for t, rep in reports:
        lhs = rep.fisher_x + rep.fisher_v + cert.prefactor_beta * rep.entropy_projected
        rhs = np.exp(-cert.rate * t) * (cert.prefactor_alpha * i0
                                        + 2.0 * cert.prefactor_beta * hpi0)
        if lhs > rhs:
            conclusion = False
    elapsed = time.monotonic() - t0
    ok = monotone and rate_ok and conclusion and elapsed < 600.0
    report("06 (relaxation log-entropy certificate)", ok,
           f"monotone={monotone}, fitted {-slope:.3f} >= {cert.rate * 0.9:.4f}, "
           f"conclusion={conclusion}, {elapsed:.0f}s")


def test_criterion_07_relaxation_power_certificate(grid):
    p = PIndex(1.5)
    cert = certify(grid, BGK(1.0), p)
    traj, reports = _certificate_run(grid, BGK(1.0), p)

    vals = np.array([cert.functional(rep) for _, rep in reports])
    times = np.array([t for t, _ in reports])
    monotone = bool((np.diff(vals) <= 1e-8 * vals[:-1]).all())

    mask = (times >= 1.0) & (times <= 10.0)
    slope, _ = np.polyfit(times[mask], np.log(vals[mask]), 1)
    rate_ok = -slope >= cert.rate * 0.9

    rep0 = reports[0][1]
    i0 = rep0.fisher_x + rep0.fisher_v
    hpi0 = rep0.entropy_projected
    conclusion = True
    for t, rep in reports:
        lhs = rep.fisher_x + rep.fisher_v + cert.prefactor_beta * rep.entropy_projected
        rhs = np.exp(-cert.rate * t) * (cert.prefactor_alpha * i0
                                        + cert.prefactor_beta * hpi0)
        if lhs > rhs:
            conclusion = False
    ok = monotone and rate_ok and conclusion
    report("07 (relaxation power-entropy certificate)", ok,
           f"monotone={monotone}, fitted {-slope:.3f} >= {cert.rate * 0.9:.4f}, "
           f"conclusion={conclusion}")


def test_criterion_08_diffusion_certificate(grid):
    p = PIndex(1.5)
    cert = certify(grid, FokkerPlanck(), p)
    traj, reports = _certificate_run(grid, FokkerPlanck(), p)

    rep0 = reports[0][1]
    i0 = rep0.fisher_x + rep0.fisher_v
    h0 = rep0.entropy
    conclusion = True
    times, vals = [], []
    for t, rep in reports:
        lhs = (rep.fisher_x + rep.fisher_v) + cert.prefactor_beta * rep.entropy
        rhs = np.exp(-cert.rate * t) * (cert.prefactor_alpha * i0
                                        + cert.prefactor_beta * h0)
        if lhs > rhs:
            conclusion = False
        times.append(t)
        vals.append(lhs)
    times = np.array(times)
    vals = np.array(vals)
    # the spatial-harmonic data relaxes at the enhanced-dissipation rate,
    # so the live window for the fit closes early
    mask = (times >= 0.1) & (times <= 1.0) & (vals > 1e-13)
    slope, _ = np.polyfit(times[mask], np.log(vals[mask]), 1)
    rate_ok = -slope >= cert.rate * 0.9
    ok = conclusion and rate_ok
    report("08 (velocity-diffusion certificate)", ok,
           f"k={cert.rate:.4f}, conclusion={conclusion}, fitted {-slope:.2f}")


def _diffusion_conclusion(period, p):
    """The velocity-diffusion certificate run on a 64x32 torus of this
    period: the worst ratio of I + beta H to exp(-k t) (alpha I0 + beta H0)
    over its snapshots, and how many snapshots hold a value at the
    positivity floor H_MIN."""
    grid = build_grid(GridSpec(dim=1, nx=64, nv=32, period=period))
    cert = certify(grid, FokkerPlanck(), p)
    traj, reports = _certificate_run(grid, FokkerPlanck(), p)
    rep0 = reports[0][1]
    start = (cert.prefactor_alpha * (rep0.fisher_x + rep0.fisher_v)
             + cert.prefactor_beta * rep0.entropy)
    worst = max((rep.fisher_x + rep.fisher_v + cert.prefactor_beta * rep.entropy)
                / (np.exp(-cert.rate * t) * start) for t, rep in reports)
    floored = sum(bool((s.h <= H_MIN).any()) for s in traj.states)
    return worst, floored


@pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)], ids=["log", "1.5"])
def test_criterion_08b_diffusion_conclusion_unfloored(p):
    # on the period-2 pi torus the cosine data never reaches the floor, and
    # the conclusion holds at p = 1, Villani's case, as at p = 1.5
    worst, floored = _diffusion_conclusion(2.0 * np.pi, p)
    report(f"08b (velocity-diffusion conclusion, period 2 pi, p = {p.label()})",
           floored == 0 and worst <= 1.0,
           f"worst lhs/rhs {worst:.3f}, {floored} floored snapshots")


@pytest.mark.xfail(strict=True, reason="on floored snapshots the p = 1 Fisher weight 1/h "
                                       "is 1e12 at H_MIN, and I climbs far above the "
                                       "conclusion's bound (ROADMAP item 12)")
def test_criterion_08b_log_conclusion_floored():
    # on the unit torus the same data reaches the floor, which p = 1.5
    # rides out (criterion 08) and p = 1 does not
    worst, floored = _diffusion_conclusion(1.0, BOLTZMANN)
    assert floored > 0
    report("08b (velocity-diffusion conclusion, unit torus, p = log)", worst <= 1.0,
           f"worst lhs/rhs {worst:.3f}, {floored} floored snapshots")


def test_criterion_09_quadratic_consistency(grid):
    worst = 0.0
    for seed in range(20):
        s = random_band_limited(grid, seed)
        h2 = entropy(s, PIndex(2.0))
        direct = 0.5 * integrate_mu((s.h - 1.0) ** 2, grid)
        worst = max(worst, abs(h2 - direct))
    ok = worst < 1e-10
    report("09 (quadratic-entropy consistency)", ok, f"worst gap {worst:.1e}")


def test_criterion_10_determinism(tmp_path):
    from hypoflow.cli import main
    cfg_text = """\
[grid]
dim = 1
nx = 64
nv = 32

[model]
kind = bgk
lambda = 1.0
p = boltzmann

[initial]
family = cosine
amplitude = 0.5
v_amplitude = 0.2

[schedule]
dt = 0.01
t_end = 20.0
snapshot_every = 10
"""
    cfg = tmp_path / "c6.ini"
    cfg.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["simulate", str(cfg), "--output-dir", str(out1), "--seed", "0"])
    rc2 = main(["simulate", str(cfg), "--output-dir", str(out2), "--seed", "0"])
    same = (out1 / "functionals.csv").read_bytes() == \
        (out2 / "functionals.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    report("10 (determinism)", ok, "byte-identical CSV" if same else "CSV differs")
