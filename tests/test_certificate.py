import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoflow import (
    BOLTZMANN,
    PIndex,
    estimate_functional_constant,
    optimize_rate,
    paper_constants_bgk,
    paper_constants_bgk_p,
    paper_constants_fp,
)
from hypoflow.certificate import _spatial_entropy, _spatial_fisher, _trial_density


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
        a = paper_constants_bgk_p(1.0, 1.5, C=1e9, eta=0.2)
        b = paper_constants_bgk_p(1.0, 2.0, C=1e9, eta=0.2)
        for name in ("A1", "A2", "A3", "A4", "eps1", "eps2", "rate"):
            assert getattr(a, name) == getattr(b, name)

    def test_rate_display(self):
        c = paper_constants_bgk_p(1.0, 1.5, C=1e9, eta=0.25)
        assert c.rate == pytest.approx(0.25 / 6.0, abs=1e-15)

    def test_rate_linear_in_eta(self):
        r1 = paper_constants_bgk_p(1.0, 1.5, C=1e9, eta=0.1).rate
        r2 = paper_constants_bgk_p(1.0, 1.5, C=1e9, eta=0.05).rate
        assert r1 == pytest.approx(2.0 * r2, rel=1e-13)

    def test_splitters(self):
        c = paper_constants_bgk_p(2.0, 1.5, C=1e9, eta=0.1)
        assert c.eps1 == c.eps2 == 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            paper_constants_bgk_p(1.0, 1.0)
        with pytest.raises(ValueError):
            paper_constants_bgk_p(1.0, 2.2)


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
        c = optimize_rate("bgk-log", lam=1.0, C=1e9)
        assert c.eta == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert c.rate == pytest.approx(1.0 / 36.0, rel=1e-9)
        assert c.feasibility.binding == "velocity_margin"

    def test_small_constant_binds_rate_domination(self):
        C = 0.01
        c = optimize_rate("bgk-log", lam=1.0, C=C)
        assert c.feasibility.binding == "rate_domination"
        assert c.rate == pytest.approx(C * 1.0 / (2.0 * 3.0), rel=1e-9)

    def test_power_case(self):
        c = optimize_rate("bgk-power", lam=1.0, p=1.5, C=1e9)
        assert c.eta == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert c.rate == pytest.approx(1.0 / 18.0, rel=1e-9)

    def test_diffusion_has_no_free_parameter(self):
        direct = paper_constants_fp(C=0.7, p=1.5)
        opt = optimize_rate("fokker-planck-power", p=1.5, C=0.7)
        assert opt.rate == direct.rate
        assert opt.to_dict() == direct.to_dict()

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            optimize_rate("nope", lam=1.0)

    @given(lam=st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_optimum_feasible_and_boundary(self, lam):
        c = optimize_rate("bgk-log", lam=lam, C=1e9)
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


class TestConstantEstimator:
    def test_perturbative_value(self, grid_small):
        est = estimate_functional_constant(grid_small, PIndex(2.0))
        expect = 1.0 / (8.0 * np.pi**2)
        assert est.raw_ratio == pytest.approx(expect, rel=1e-4)
        assert est.value == pytest.approx(1.1 * expect, rel=1e-3)
        assert est.coercivity == pytest.approx(1.0 / est.value, rel=1e-14)

    def test_holdout_bound(self, grid_small):
        # fresh random trials never exceed the reported constant
        for p in (BOLTZMANN, PIndex(1.5)):
            est = estimate_functional_constant(grid_small, p)
            rng = np.random.default_rng(99)
            for _ in range(50):
                coefs = rng.normal(scale=0.1, size=6)
                rho = _trial_density(grid_small, coefs, 3)
                if rho.min() < 0.05:
                    continue
                ratio = (_spatial_entropy(rho, p, grid_small)
                         / _spatial_fisher(rho, p, grid_small))
                assert ratio <= est.value

    def test_monotone_in_p(self, grid_small):
        # estimated constants over the p grid never increase with p beyond
        # the resolution of the search (all coincide with the perturbative
        # optimum, which is p-independent on the unit torus)
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
        from hypoflow.functionals import composite_value
        grid = build_grid(GridSpec(dim=1, nx=64, nv=32))
        cert = optimize_rate("bgk-log", lam=1.0, C=1e9)
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
            C_full = max(est.value, 0.5)
            for seed in range(20):
                s = random_band_limited(grid, seed)
                rep_model = "bgk"
                from hypoflow import entropy, fisher_components
                h = entropy(s, p)
                ix, iv, _ = fisher_components(s, p)
                assert h <= C_full * (ix + iv) * (1 + 1e-9)
