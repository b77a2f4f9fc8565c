import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoflow import (
    BGK,
    BOLTZMANN,
    FokkerPlanck,
    PIndex,
    build_report,
    certify,
    estimate_functional_constant,
    optimize_rate,
    paper_constants_bgk,
    paper_constants_fp,
    torus_entropy,
    torus_fisher,
)
from hypoflow.certificate import phase_space_ratio
from hypoflow.initial import random_band_limited


def _trial_density(grid, coefs, modes):
    """1 + sum of cos/sin harmonics 1..modes along each x axis; `coefs`
    holds (cos, sin) pairs, axis-major then mode-major."""
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


class TestRelaxationLogRecipe:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_coefficient_identities(self, lam):
        eta = 0.1
        c = paper_constants_bgk(lam, C=1e9, eta=eta)
        assert abs(c.A2 / c.A3 - lam) < 1e-14
        assert abs(c.eps - 1.0 / lam) < 1e-14
        assert abs(c.A1 * eta / c.A3 - (lam + 2.0 / lam)) < 1e-14
        assert abs(c.rate - lam**2 * eta / (4.0 * (lam**2 + 2.0))) < 1e-14
        assert abs(c.A4 - (lam**2 + 2.0) * c.A3) < 1e-14
        assert c.alpha == 0.5

    def test_known_binding_point(self):
        c = paper_constants_bgk(1.0, C=1e9, eta=1.0 / 3.0)
        assert c.feasible
        assert c.feasibility.binding == "velocity_margin"
        # the velocity constraint holds with equality at eta = 1/3
        slack, ok = c.feasibility.entries["velocity_margin"]
        assert ok and abs(slack) < 1e-14
        assert c.rate == pytest.approx(1.0 / 36.0, abs=1e-15)

    def test_infeasible_large_eta(self):
        c = paper_constants_bgk(1.0, C=1e9, eta=10.0)
        assert not c.feasible
        assert c.feasibility.binding == "velocity_margin"

    def test_equivalence_requirement(self):
        c = paper_constants_bgk(1.3, C=1e9, eta=0.05)
        assert c.A1 * c.A3 - c.A2**2 / 4.0 >= 0.0

    def test_prefactors(self):
        lam, eta = 1.0, 1.0 / 3.0
        c = paper_constants_bgk(lam, C=1e9, eta=eta)
        assert c.prefactor_alpha == pytest.approx(4.0 * 3.0 / (eta * lam), rel=1e-14)
        assert c.prefactor_beta == pytest.approx(2.0 * 3.0, rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            paper_constants_bgk(-1.0)
        with pytest.raises(ValueError):
            paper_constants_bgk(1.0, eta=0.0)
        # finite, but 2 / lam, lam**2 or eta * lam leaves the float range
        for lam, p in ((1e-320, None), (1e308, None), (1e308, 1.5)):
            with pytest.raises(ValueError, match="lambda"):
                paper_constants_bgk(lam, p=p)
            with pytest.raises(ValueError, match="lambda"):
                optimize_rate(lam, p=p)

    @given(lam=st.floats(0.1, 5.0), eta=st.floats(1e-4, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_feasibility_monotone_in_eta(self, lam, eta):
        # shrinking the splitter can never break a feasible certificate
        c = paper_constants_bgk(lam, C=1e9, eta=eta)
        if c.feasible:
            smaller = paper_constants_bgk(lam, C=1e9, eta=eta / 2.0)
            assert smaller.feasible


class TestRelaxationPowerRecipe:
    def test_p_uniform_shape(self):
        a = paper_constants_bgk(1.0, C=1e9, eta=0.2, p=1.5)
        b = paper_constants_bgk(1.0, C=1e9, eta=0.2, p=2.0)
        for name in ("A1", "A2", "A3", "A4", "eps1", "eps2", "rate"):
            assert getattr(a, name) == getattr(b, name)

    def test_rate_display(self):
        c = paper_constants_bgk(1.0, C=1e9, eta=0.25, p=1.5)
        assert c.rate == pytest.approx(0.25 / 6.0, abs=1e-15)

    def test_rate_linear_in_eta(self):
        r1 = paper_constants_bgk(1.0, C=1e9, eta=0.1, p=1.5).rate
        r2 = paper_constants_bgk(1.0, C=1e9, eta=0.05, p=1.5).rate
        assert r1 == pytest.approx(2.0 * r2, rel=1e-13)

    def test_splitters(self):
        c = paper_constants_bgk(2.0, C=1e9, eta=0.1, p=1.5)
        assert c.eps1 == c.eps2 == 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            paper_constants_bgk(1.0, p=1.0)
        with pytest.raises(ValueError):
            paper_constants_bgk(1.0, p=2.2)

    @pytest.mark.parametrize("lam,eta,C", [(0.5, 0.05, 0.0139), (1.0, 1.0 / 3.0, 1e9),
                                           (2.0, 0.4, np.inf)])
    def test_shares_the_log_recipe(self, lam, eta, C):
        # one recipe: the power certificate keeps every coefficient and
        # prefactor of the log one and certifies exactly twice its rate
        log = paper_constants_bgk(lam, C=C, eta=eta)
        power = paper_constants_bgk(lam, C=C, eta=eta, p=1.5)
        for name in ("A1", "A2", "A3", "A4", "prefactor_alpha", "prefactor_beta"):
            assert getattr(power, name) == getattr(log, name), name
        assert power.rate == 2.0 * log.rate
        assert (log.model, power.model) == ("bgk-log", "bgk-power")


class TestDiffusionRecipe:
    def test_fixed_coefficients(self):
        c = paper_constants_fp(C=1.0)
        assert (c.A1, c.A2, c.A3) == (1.0, 1.0, 1.0)
        assert c.eps == 4.0
        assert c.A4 == pytest.approx(27.0 / 4.0, abs=0.0)
        assert c.feasible

    def test_rate_crossover(self):
        assert paper_constants_fp(C=1.0).rate == pytest.approx(1.0 / 54.0, abs=1e-16)
        assert paper_constants_fp(C=2.0 / 9.0).rate == pytest.approx(1.0 / 12.0, abs=1e-16)
        assert paper_constants_fp(C=0.1).rate == pytest.approx(1.0 / 12.0, abs=1e-16)

    def test_statement_prefactors(self):
        c = paper_constants_fp(C=0.5)
        assert c.prefactor_alpha == 3.0
        assert c.prefactor_beta == pytest.approx(27.0 / 2.0)


class TestOptimizer:
    def test_recovers_known_optimum(self):
        c = optimize_rate(1.0, C=1e9)
        assert c.eta == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert c.rate == pytest.approx(1.0 / 36.0, rel=1e-9)
        assert c.feasibility.binding == "velocity_margin"

    def test_small_constant_binds_rate_domination(self):
        C = 0.01
        c = optimize_rate(1.0, C=C)
        assert c.feasibility.binding == "rate_domination"
        assert c.rate == pytest.approx(C * 1.0 / (2.0 * 3.0), rel=1e-9)

    def test_power_case(self):
        c = optimize_rate(1.0, C=1e9, p=1.5)
        assert c.eta == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert c.rate == pytest.approx(1.0 / 18.0, rel=1e-9)

    @given(lam=st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_optimum_feasible_and_boundary(self, lam):
        c = optimize_rate(lam, C=1e9)
        assert c.feasible
        assert not paper_constants_bgk(lam, C=1e9, eta=c.eta * 1.01).feasible


class TestCertificateSerialization:
    def test_json_includes_constraints(self, tmp_path):
        import json
        c = paper_constants_bgk(1.0, C=50.0, eta=0.3)
        path = tmp_path / "cert.json"
        c.save_json(path)
        data = json.loads(path.read_text())
        assert data["model"] == "bgk-log"
        assert "velocity_margin" in data["feasibility"]["constraints"]
        assert data["feasibility"]["constraints"]["velocity_margin"]["satisfied"]


class TestCertify:
    @pytest.mark.parametrize("collision,p", [
        (BGK(1.0), BOLTZMANN), (BGK(1.0), PIndex(1.5)), (FokkerPlanck(), PIndex(1.5)),
    ], ids=["bgk-log", "bgk-1.5", "fp-1.5"])
    def test_default_is_the_recipe_with_the_oriented_constant(self, grid_small,
                                                              collision, p):
        # the oracle spells out the orientation certify picks: relaxation
        # reads the coercivity 1/value, diffusion the phase-space ratio
        value = estimate_functional_constant(grid_small, p).value
        if isinstance(collision, BGK):
            expect = optimize_rate(collision.rate, C=1.0 / value, p=p.p)
        else:
            expect = paper_constants_fp(C=max(value, 0.5), p=p.p)
        assert certify(grid_small, collision, p).to_dict() == expect.to_dict()

    def test_overrides_reach_the_recipe(self, grid_small):
        cert = certify(grid_small, BGK(2.0), PIndex(1.5), C=50.0, eta=0.1)
        expect = paper_constants_bgk(2.0, C=50.0, eta=0.1, p=1.5)
        assert cert.to_dict() == expect.to_dict()
        cert = certify(grid_small, FokkerPlanck(), PIndex(1.5), C=1.0)
        assert cert.to_dict() == paper_constants_fp(C=1.0, p=1.5).to_dict()

    def test_eta_with_fokker_planck_raises(self, grid_small):
        with pytest.raises(ValueError, match="splitter"):
            certify(grid_small, FokkerPlanck(), PIndex(1.5), eta=0.5)

    def test_fokker_planck_needs_a_power_entropy(self, grid_small):
        with pytest.raises(ValueError, match="p must lie"):
            certify(grid_small, FokkerPlanck(), BOLTZMANN)

    @pytest.mark.parametrize("collision,entropy_column", [
        (BGK(1.0), "entropy_projected"), (FokkerPlanck(), "entropy"),
    ], ids=["bgk", "fokker-planck"])
    def test_functional_reads_the_model_entropy(self, grid_small, collision,
                                                entropy_column):
        p = PIndex(1.5)
        cert = certify(grid_small, collision, p)
        rep = build_report(random_band_limited(grid_small, 3), p, model=collision.name)
        fisher = (cert.A1 * rep.fisher_x + cert.A2 * rep.fisher_mixed
                  + cert.A3 * rep.fisher_v)
        value = {c: fisher + cert.A4 * getattr(rep, c)
                 for c in ("entropy", "entropy_projected")}
        # off local equilibrium the two entropies give different functionals
        assert value["entropy"] > (1.0 + 1e-6) * value["entropy_projected"]
        assert cert.functional(rep) == pytest.approx(value[entropy_column], rel=1e-14)


class TestConstantEstimator:
    def test_perturbative_value(self, grid_small):
        est = estimate_functional_constant(grid_small, PIndex(2.0))
        expect = 1.0 / (8.0 * np.pi**2)
        assert est.raw_ratio == pytest.approx(expect, rel=1e-6)
        assert est.value == pytest.approx(1.1 * expect, rel=1e-3)
        assert est.coercivity == pytest.approx(1.0 / est.value, rel=1e-14)

    def test_holdout_bound(self, grid_small, grid_2d):
        # the lowest harmonic at vanishing amplitude is the sharp case: no
        # amplitude, phase or axis, with or without higher modes mixed in,
        # gives a larger entropy/fisher ratio
        for grid in (grid_small, grid_2d):
            for p in (BOLTZMANN, PIndex(1.1), PIndex(1.5), PIndex(1.9), PIndex(2.0)):
                bound = estimate_functional_constant(grid, p).raw_ratio * (1.0 + 1e-6)
                rng = np.random.default_rng(99)
                for amp in np.geomspace(1e-3, 0.9, 20):
                    for admix in (0.0, 0.1):
                        coefs = np.zeros(6 * grid.dim)
                        ax = rng.integers(grid.dim)
                        phase = rng.uniform(0.0, 2.0 * np.pi)
                        coefs[6 * ax] = amp * np.cos(phase)
                        coefs[6 * ax + 1] = -amp * np.sin(phase)
                        # modes 2-3 on every axis, at most
                        # admix * min(amp, 1 - amp) in sup norm, so rho > 0
                        for a in range(grid.dim):
                            coefs[6 * a + 2: 6 * a + 6] = rng.uniform(-1.0, 1.0, 4) * (
                                admix * min(amp, 1.0 - amp) / (4.0 * grid.dim))
                        rho = _trial_density(grid, coefs, 3)
                        ratio = (torus_entropy(rho, grid, p)
                                 / torus_fisher(rho, grid, p))
                        assert ratio <= bound, (grid.dim, p.label(), amp, admix)

    def test_monotone_in_p(self, grid_small):
        # constants over the p grid never increase with p beyond round-off
        # (all coincide with the perturbative optimum, which is
        # p-independent on the unit torus)
        values = [estimate_functional_constant(grid_small, PIndex(p)).value
                  for p in (1.1, 1.5, 1.9, 2.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-6)

    def test_deterministic(self, grid_small):
        a = estimate_functional_constant(grid_small, PIndex(1.5))
        b = estimate_functional_constant(grid_small, PIndex(1.5))
        assert a.value == b.value


class TestCertificateChainOnStates:
    """The certified bound's chain of inequalities, term by term, on
    actual random states."""

    def test_weighted_combination_equivalent_to_fisher(self, grid_accept=None):
        from hypoflow import GridSpec, build_grid, build_report, random_band_limited
        grid = build_grid(GridSpec(dim=1, nx=64, nv=32))
        cert = optimize_rate(1.0, C=1e9)
        for seed in range(20):
            s = random_band_limited(grid, seed)
            rep = build_report(s, BOLTZMANN, model="bgk")
            fisher = rep.fisher_x + rep.fisher_v
            j = (cert.A1 * rep.fisher_x + cert.A2 * rep.fisher_mixed
                 + cert.A3 * rep.fisher_v)
            assert 0.5 * cert.A3 * fisher <= j * (1 + 1e-12)
            assert j <= 2.0 * cert.A1 * fisher * (1 + 1e-12)

    def test_phase_space_entropy_fisher_bound(self):
        # the full-measure constant is the larger of the torus estimate and
        # the Gaussian-direction value one half
        from hypoflow import GridSpec, build_grid, build_report, random_band_limited
        grid = build_grid(GridSpec(dim=1, nx=64, nv=32))
        for p in (BOLTZMANN, PIndex(1.5)):
            est = estimate_functional_constant(grid, p)
            C_full = phase_space_ratio(est.value)
            for seed in range(20):
                rep = build_report(random_band_limited(grid, seed), p)
                assert rep.entropy <= C_full * (rep.fisher_x + rep.fisher_v) * (1 + 1e-9)
