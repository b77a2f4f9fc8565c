import numpy as np
import pytest

from hypoflow import (
    BGK,
    BOLTZMANN,
    FokkerPlanck,
    PIndex,
    Schedule,
    Transport,
    build_grid,
    GridSpec,
    check_lemma_table,
    check_mixed_term,
    check_projection_inequalities,
    estimate_functional_constant,
    fit_decay,
    random_band_limited,
    report_derivatives,
    run_suite,
    simulate,
    transport_generator,
)
from hypoflow import operators, verifier
from hypoflow.functionals import COMPOSITE_COLUMNS, build_report, composite_report, entropy
from hypoflow.initial import cosine, equilibrium, velocity_perturbation
from hypoflow.verifier import CorruptedBGK, check_correction_weight, save_results, summarize

import oracles
from oracles import default_probe_step, semigroup_derivative


def lemma_rows(state, generator, p, **kw):
    # the transport rows read columns that every model's report has
    rep = build_report(state, p, model=getattr(generator, "name", BGK.name))
    rates = report_derivatives(state, rep, generator, p)
    return check_lemma_table(rep, rates, generator, p, **kw)


def projection_rows(state, p, C=None):
    rep = build_report(state, p)
    return check_projection_inequalities(
        rep, report_derivatives(state, rep, Transport(), p),
        report_derivatives(state, rep, BGK(1.0), p), C=C)


class TestSemigroupDerivative:
    def test_transport_keeps_fisher_x(self, grid_accept):
        s = random_band_limited(grid_accept, 0)
        d = semigroup_derivative(
            s, Transport(),
            lambda st: build_report(st, BOLTZMANN, model="bgk").fisher_x)
        assert abs(d) < 1e-6

    def test_transport_drifts_fisher_v(self, grid_accept):
        s = random_band_limited(grid_accept, 1)
        rep = build_report(s, BOLTZMANN, model="bgk")
        d = semigroup_derivative(
            s, Transport(),
            lambda st: build_report(st, BOLTZMANN, model="bgk").fisher_v)
        assert d == pytest.approx(-2.0 * rep.fisher_mixed, rel=1e-6, abs=1e-8)

    def test_relaxation_entropy_rate_vanishes_at_local_equilibrium(self, grid_accept):
        x = grid_accept.x_nodes[:, 0]
        h = (1.0 + 0.4 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_accept.nv_total)
        from hypoflow import State
        s = State(grid_accept, h)
        d = semigroup_derivative(s, BGK(1.0), lambda st: entropy(st, BOLTZMANN))
        assert abs(d) < 1e-8

    def test_ou_entropy_dissipates_velocity_fisher(self, grid_accept):
        # the power entropy dissipates exactly the velocity Fisher part
        p = PIndex(1.5)
        s = random_band_limited(grid_accept, 2)
        d = semigroup_derivative(s, FokkerPlanck(), lambda st: entropy(st, p))
        iv = build_report(s, p, model="fokker-planck").fisher_v
        assert d == pytest.approx(-iv, rel=1e-5, abs=1e-8)


# each generator at the entropy indices its table is stated for
RATE_CASES = ([(Transport(), p) for p in (1.0, 1.5, 2.0)]
              + [(BGK(lam), p) for lam in (0.5, 2.0) for p in (1.0, 1.5, 2.0)]
              + [(FokkerPlanck(), p) for p in (1.5, 2.0)])
RATE_IDS = [f"{getattr(g, 'name', 'transport')}{getattr(g, 'rate', '')}-{p}"
            for g, p in RATE_CASES]
RATE_GRIDS = [GridSpec(dim=1, nx=64, nv=32), GridSpec(dim=2, nx=16, nv=8)]


def stack_and_rates(spec, generator, p):
    """A 3-member stack of random states, its report and its rates."""
    s = random_band_limited(build_grid(spec), [0, 1, 2])
    rep = build_report(s, p, model=getattr(generator, "name", BGK.name))
    return s, rep, report_derivatives(s, rep, generator, p)


def column_scales(rep):
    """The size each rate column is judged against: H for the entropies,
    Ix + Iv for the Fisher terms."""
    fisher = rep.fisher_x + rep.fisher_v
    return {c: rep.entropy if c.startswith("entropy") else fisher for c in COMPOSITE_COLUMNS}


class TestReportDerivatives:
    @pytest.mark.parametrize("generator,p", RATE_CASES, ids=RATE_IDS)
    @pytest.mark.parametrize("spec", RATE_GRIDS, ids=["64x32", "16^2x8^2"])
    def test_rates_match_complex_step(self, spec, generator, p):
        s, rep, rates = stack_and_rates(spec, generator, PIndex(p))
        if isinstance(generator, Transport):
            g = transport_generator(s.h, s.grid)
        else:
            g = generator.velocity_generator(s.grid)(s.h)
        want = oracles.complex_step_rates(s, g, p)
        for c, scale in column_scales(rep).items():
            err = np.abs(getattr(rates, c) - want[c])
            assert np.all(err <= 1e-12 * scale), (c, err / scale)

    @pytest.mark.parametrize("generator,p", RATE_CASES, ids=RATE_IDS)
    @pytest.mark.parametrize("spec", RATE_GRIDS, ids=["64x32", "16^2x8^2"])
    def test_rates_within_differenced_error(self, spec, generator, p):
        # the flows, not the generators, are differenced. At probe delta the
        # difference is second order: its error, c delta^2, is 4/3 of its
        # change when delta halves, so twice that change bounds it. A column
        # computed to 1e-13 of its scale adds at most 8e-13 scale / delta.
        s, rep, rates = stack_and_rates(spec, generator, PIndex(p))

        def columns(st):
            at = composite_report(st, PIndex(p))
            return np.array([getattr(at, c) for c in COMPOSITE_COLUMNS])

        delta = default_probe_step(generator)
        coarse = semigroup_derivative(s, generator, columns, delta)
        fine = semigroup_derivative(s, generator, columns, delta / 2.0)
        for i, (c, scale) in enumerate(column_scales(rep).items()):
            bound = 2.0 * np.abs(coarse[i] - fine[i]) + 8e-13 * scale / delta
            assert np.all(np.abs(getattr(rates, c) - coarse[i]) <= bound), c


class TestLemmaTables:
    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)])
    def test_transport_rows(self, grid_accept, p):
        s = random_band_limited(grid_accept, 3)
        for r in lemma_rows(s, Transport(), p):
            assert r.passed, (r.check_id, r.residual_or_slack)

    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5), PIndex(2.0)])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_relaxation_rows(self, grid_accept, p, lam):
        s = random_band_limited(grid_accept, 4)
        for r in lemma_rows(s, BGK(lam), p):
            assert r.passed, (r.check_id, r.residual_or_slack)

    @pytest.mark.parametrize("p", [PIndex(1.5), PIndex(2.0), BOLTZMANN])
    def test_diffusion_rows(self, grid_accept, p):
        s = random_band_limited(grid_accept, 5)
        for r in lemma_rows(s, FokkerPlanck(), p):
            assert r.passed, (r.check_id, r.residual_or_slack)

    def test_equilibrium_rows_trivial(self, grid_accept):
        s = equilibrium(grid_accept)
        for r in lemma_rows(s, BGK(1.0), BOLTZMANN):
            assert r.passed
            assert abs(r.lhs) < 1e-9 and abs(r.rhs) < 1e-9

    def test_residual_shrinks_with_probe(self, grid_accept):
        # relaxation velocity-Fisher row: the flow's derivative has real
        # curvature there, so the Richardson residual scales like the
        # probe squared
        s = random_band_limited(grid_accept, 6)
        rep = build_report(s, BOLTZMANN, model="bgk")
        expect = -1.0 * (rep.fisher_v + rep.fisher_v_ratio)
        func = lambda st: build_report(st, BOLTZMANN, model="bgk").fisher_v
        res = []
        for delta in (4e-2, 2e-2):
            d = semigroup_derivative(s, BGK(1.0), func, delta=delta)
            res.append(abs(d - expect))
        assert res[1] < res[0]
        assert res[0] / max(res[1], 1e-18) == pytest.approx(4.0, rel=0.5)

    def test_residual_shrinks_with_resolution(self):
        coarse = build_grid(GridSpec(dim=1, nx=32, nv=16))
        fine = build_grid(GridSpec(dim=1, nx=64, nv=32))
        worst = {}
        for tag, grid in (("coarse", coarse), ("fine", fine)):
            s = random_band_limited(grid, 7, amplitude=0.3)
            rows = lemma_rows(s, BGK(1.0), PIndex(1.5))
            worst[tag] = max(abs(r.residual_or_slack) for r in rows
                             if r.kind == "equality")
        assert worst["fine"] <= worst["coarse"] * 2.0


class TestProjectionChecks:
    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)])
    def test_pass_on_random_states(self, grid_accept, p):
        C = estimate_functional_constant(grid_accept, p).value
        for seed in range(5):
            s = random_band_limited(grid_accept, seed)
            for r in projection_rows(s, p, C=C):
                assert r.passed, (r.check_id, r.residual_or_slack)


class TestMixedTerm:
    def test_equilibrium_trivial(self, grid_accept):
        r = check_mixed_term(build_report(equilibrium(grid_accept), BOLTZMANN), eta=1.0)
        assert r.passed and abs(r.lhs) < 1e-12

    def test_local_equilibrium(self, grid_accept):
        x = grid_accept.x_nodes[:, 0]
        from hypoflow import State
        h = (1.0 + 0.4 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_accept.nv_total)
        r = check_mixed_term(build_report(State(grid_accept, h), BOLTZMANN), eta=0.5)
        assert r.passed
        assert r.lhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)])
    @pytest.mark.parametrize("eta", [0.1, 1.0, 10.0])
    def test_sweep(self, grid_accept, p, eta):
        for seed in range(10):
            r = check_mixed_term(build_report(random_band_limited(grid_accept, seed), p), eta)
            assert r.passed, r.residual_or_slack

    def test_rejects_bad_eta(self, grid_accept):
        with pytest.raises(ValueError):
            check_mixed_term(build_report(equilibrium(grid_accept), BOLTZMANN), eta=0.0)


class TestDecayFit:
    def test_velocity_relaxation_rate(self, grid_accept):
        lam = 1.0
        s = velocity_perturbation(grid_accept, 0.3)
        sched = Schedule(dt=0.01, t_end=5.0, collision=BGK(lam), snapshot_every=10)
        traj = simulate(s, sched)
        fit = fit_decay(
            traj, lambda st: build_report(st, BOLTZMANN, model="bgk").fisher_v,
            window=(1.0, 4.0), name="fisher_v")
        assert fit.rate == pytest.approx(2.0 * lam, rel=0.05)
        assert fit.r_squared > 0.999

    def test_equilibrium_flags_window(self, grid_accept):
        s = equilibrium(grid_accept)
        sched = Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0), snapshot_every=1)
        traj = simulate(s, sched)
        with pytest.raises(ValueError):
            fit_decay(traj, lambda st: entropy(st, BOLTZMANN), window=(0.0, 1.0))

    def test_too_narrow_window(self, grid_accept):
        s = cosine(grid_accept, 0.3)
        traj = simulate(s, Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0)))
        with pytest.raises(ValueError):
            fit_decay(traj, lambda st: entropy(st, BOLTZMANN), window=(0.85, 0.86))


class TestSuite:
    def test_small_sweep_all_pass(self, grid_accept):
        results = run_suite(grid_accept, BGK(1.0), BOLTZMANN, n_states=3)
        assert results and all(r.passed for r in results)

    def test_row_count_contract(self, grid_accept):
        n_states = 2
        results = run_suite(grid_accept, BGK(1.0), BOLTZMANN, n_states=n_states)
        # per state: 3 transport + (3 + 2 + 2) relaxation + 4 projection
        # + 3 mixed-term etas
        assert len(results) == n_states * 17

    @pytest.mark.parametrize("collision,p", [
        (BGK(1.0), BOLTZMANN), (BGK(1.0), PIndex(1.5)), (FokkerPlanck(), PIndex(1.5)),
    ], ids=["bgk-log", "bgk-1.5", "fp-1.5"])
    def test_one_report_per_stack_and_no_flow(self, grid_accept, monkeypatch,
                                              collision, p):
        # one full report of each stack, and exact rates that flow nothing.
        # One state more than a stack makes two stacks.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_report(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the verifier flowed a state")

        monkeypatch.setattr(verifier, "build_report", counting)
        monkeypatch.setattr(operators, "transport_flow", refuse)
        monkeypatch.setattr(operators, "collision_flow", refuse)
        stack = verifier.STACK_VALUES // (grid_accept.nx_total * grid_accept.nv_total)
        assert stack == 8
        results = run_suite(grid_accept, collision, p, n_states=stack + 1)
        assert results and all(r.passed for r in results)
        assert len(calls) == 2

    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5), PIndex(2.0)])
    def test_exact_rows_hold_to_round_off(self, grid_accept, p):
        # finite differences left 3.6e-9, 2.2e-10, 6.9e-12 and 2.2e-5 in
        # these rows
        results = run_suite(grid_accept, BGK(1.0), p, n_states=100)
        for check_id in ("relaxation.fisher_v_rate", "transport.fisher_v_rate",
                         "transport.fisher_mixed_rate", "projected_entropy_rate.formula"):
            rows = [r for r in results if r.check_id == check_id]
            assert len(rows) == 100
            worst = max(abs(r.residual_or_slack) / max(abs(r.lhs), abs(r.rhs)) for r in rows)
            assert worst <= 1e-11, (check_id, worst)

    @pytest.mark.parametrize("collision,p", [
        (BGK(1.0), BOLTZMANN), (BGK(1.0), PIndex(1.5)),
        (FokkerPlanck(), PIndex(1.5)), (CorruptedBGK(rate=1.0, skew=0.02), BOLTZMANN),
    ], ids=["bgk-log", "bgk-1.5", "fp-1.5", "corrupted"])
    @pytest.mark.parametrize("spec", [GridSpec(dim=1, nx=64, nv=32),
                                      GridSpec(dim=2, nx=8, nv=8)], ids=["1d", "2d"])
    def test_stacked_suite_equals_per_state_loop(self, spec, collision, p):
        # one state more than a stack, so that the last stack is partial;
        # every row, floats included, is bit for bit the per-state loop's
        grid = build_grid(spec)
        stack = verifier.STACK_VALUES // (grid.nx_total * grid.nv_total)
        assert stack > 1
        n_states = stack + 1
        stacked = run_suite(grid, collision, p, n_states=n_states, seed0=5)
        reference = oracles.run_suite_per_state(grid, collision, p, n_states=n_states, seed0=5)
        assert len(stacked) == len(reference) > 0
        for got, want in zip(stacked, reference):
            got, want = got.to_dict(), want.to_dict()
            assert got == want
            for key in ("lhs", "rhs", "residual_or_slack", "tolerance"):
                assert type(got[key]) is float
                assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()

    def test_corruption_hook_breaks_equalities(self, grid_accept):
        results = run_suite(grid_accept, CorruptedBGK(rate=1.0, skew=0.02), BOLTZMANN,
                            n_states=1)
        failed_eq = [r for r in results if r.kind == "equality" and not r.passed]
        assert failed_eq

    def test_corruption_hook_skews_simulate(self):
        # flow and simulate both step with velocity_flow, which reads the
        # hook's one override
        state = cosine(build_grid(GridSpec(dim=1, nx=16, nv=8)), amplitude=0.3)

        def final(collision):
            return simulate(state, Schedule(dt=0.01, t_end=0.1, collision=collision)).final().h

        corrupted = final(CorruptedBGK(rate=1.0, skew=0.5))
        assert corrupted.tobytes() == final(BGK(1.0 * (1.0 + 0.5))).tobytes()
        assert not np.array_equal(corrupted, final(BGK(1.0)))
        flowed = CorruptedBGK(rate=1.0, skew=0.5).flow(state, 0.1).h
        assert flowed.tobytes() == BGK(1.5).flow(state, 0.1).h.tobytes()
        # the verifier's rates read the same skewed rate
        p = PIndex(1.5)
        rep = build_report(state, p)
        skewed = report_derivatives(state, rep, CorruptedBGK(rate=1.0, skew=0.5), p)
        want = report_derivatives(state, rep, BGK(1.5), p)
        for c in COMPOSITE_COLUMNS:
            assert np.float64(getattr(skewed, c)).tobytes() == np.float64(getattr(want, c)).tobytes(), c

    def test_diffusion_sweep(self, grid_accept):
        results = run_suite(grid_accept, FokkerPlanck(), PIndex(1.5), n_states=3)
        assert all(r.passed for r in results)
        assert len(results) == 3 * 3

    def test_correction_weight_checks(self):
        rows = check_correction_weight()
        assert all(r.passed for r in rows)

    def test_report_output(self, grid_accept, tmp_path):
        results = run_suite(grid_accept, BGK(1.0), BOLTZMANN, n_states=1)
        save_results(results, tmp_path / "res.json")
        import json
        data = json.loads((tmp_path / "res.json").read_text())
        assert len(data) == len(results)
        table = summarize(results)
        assert "total checks" in table


class TestTwoDimensionalChecks:
    def test_lemma_rows_2d(self, grid_2d):
        s = random_band_limited(grid_2d, 0, amplitude=0.2)
        for r in lemma_rows(s, BGK(1.0), BOLTZMANN,
                                   abs_tol=1e-5, rel_tol=1e-3):
            assert r.passed, (r.check_id, r.residual_or_slack)

    def test_mixed_term_2d(self, grid_2d):
        s = random_band_limited(grid_2d, 1, amplitude=0.2)
        assert check_mixed_term(build_report(s, BOLTZMANN), eta=1.0).passed


class TestTrajectoryChecks:
    def test_mixed_term_holds_along_trajectory(self, grid_accept):
        # the compensated bound, with the exact rate formula on the right,
        # holds at every stored snapshot of a relaxation run
        h0 = cosine(grid_accept, 0.5, 0.2)
        sched = Schedule(dt=0.01, t_end=5.0, collision=BGK(1.0),
                         snapshot_every=25)
        traj = simulate(h0, sched)
        for eta in (0.1, 1.0, 10.0):
            for _, state in traj.snapshots:
                r = check_mixed_term(build_report(state, BOLTZMANN), eta)
                assert r.passed, (r.params, r.residual_or_slack)
