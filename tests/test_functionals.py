import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoflow import (
    BOLTZMANN,
    GridSpec,
    PIndex,
    State,
    build_grid,
    build_report,
    correction_weight,
    entropy,
    random_band_limited,
)
from hypoflow.functionals import (
    COMPOSITE_COLUMNS,
    DIAGNOSTIC_COLUMNS,
    REPORT_COLUMNS,
    composite_report,
    local_mean_velocity,
    write_report_csv,
    write_report_json,
)
from hypoflow.phase_space import PositivityError, grad_v_field, grad_x_field

import oracles

# analytic field shared between the implementation path (sampled at nodes)
# and the dense-quadrature oracle path
FIELD = oracles.AnalyticField(terms=(
    oracles.FieldTerm(1, "cos", 0, 0.21),
    oracles.FieldTerm(1, "sin", 1, 0.14),
    oracles.FieldTerm(2, "cos", 2, 0.08),
    oracles.FieldTerm(0, "cos", 1, 0.11),
    oracles.FieldTerm(1, "cos", 3, 0.09),
))


@pytest.fixture(scope="module")
def dense_xy():
    return oracles.dense_nodes()


@pytest.fixture(scope="module")
def field_exp(dense_xy):
    x, v = dense_xy
    return oracles.normalize_exponential(FIELD, x, v)


@pytest.fixture(scope="module")
def state_exp(grid_accept, field_exp):
    x = grid_accept.x_nodes[:, 0]
    v = grid_accept.v_nodes[:, 0]
    return State(grid_accept, field_exp.h(x, v))


class TestPIndex:
    def test_rejects_out_of_range(self):
        # p = 1 is the log entropy; below it and above 2 nothing is defined
        assert PIndex(1.0) == BOLTZMANN
        with pytest.raises(ValueError):
            PIndex(0.999)
        with pytest.raises(ValueError):
            PIndex(2.5)

    def test_parse(self):
        for text in ("boltzmann", "log", "1", "1.0"):
            assert PIndex.parse(text) == BOLTZMANN and PIndex.parse(text).is_log
        assert PIndex.parse("1.5").p == 1.5
        assert not PIndex(1.0 + 1e-10).is_log


class TestEntropy:
    def test_zero_at_equilibrium(self, grid_small):
        s = State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total)))
        assert entropy(s, BOLTZMANN) == 0.0
        assert entropy(s, PIndex(1.5)) == 0.0

    def test_quadratic_identity_frozen(self, grid_small):
        # p = 2 entropy of 1 + 0.3 cos equals (1/2) * mean of (h-1)^2 = 0.0225
        x = grid_small.x_nodes[:, 0]
        h = (1 + 0.3 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_small.nv_total)
        s = State(grid_small, h)
        assert entropy(s, PIndex(2.0)) == pytest.approx(0.0225, abs=1e-10)

    def test_log_entropy_vs_oracle_frozen(self, grid_small):
        # frozen from the dense-quadrature oracle for 1 + 0.3 cos(2 pi x)
        x = grid_small.x_nodes[:, 0]
        h = (1 + 0.3 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_small.nv_total)
        s = State(grid_small, h)
        assert entropy(s, BOLTZMANN) == pytest.approx(0.022761056224587472, abs=1e-12)

    def test_rejects_tiny_density(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        h[0, 0] = 1e-13
        with pytest.raises(PositivityError):
            entropy(State(grid_small, h), BOLTZMANN)

    def test_exponential_field_vs_oracle(self, state_exp, field_exp, dense_xy):
        x, v = dense_xy
        for p in (1.0, 1.5, 2.0):
            mine = entropy(state_exp, PIndex(p))
            want = oracles.oracle_entropy(field_exp, x, v, p)
            assert mine == pytest.approx(want, rel=1e-8, abs=1e-10)


def fisher(rep):
    return rep.fisher_x, rep.fisher_v, rep.fisher_mixed


class TestFisher:
    def test_zero_at_equilibrium(self, grid_small):
        s = State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total)))
        for val in fisher(build_report(s, BOLTZMANN)):
            assert abs(val) < 1e-25

    def test_spatial_field_has_no_velocity_part(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = (1 + 0.4 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_small.nv_total)
        rep = build_report(State(grid_small, h), BOLTZMANN)
        assert rep.fisher_v == pytest.approx(0.0, abs=1e-25)
        assert rep.fisher_mixed == pytest.approx(0.0, abs=1e-15)

    def test_frozen_spatial_value(self, grid_accept):
        # independent dense quadrature gives 4 pi^2 (1 - sqrt(0.91))
        x = grid_accept.x_nodes[:, 0]
        h = (1 + 0.3 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_accept.nv_total)
        rep = build_report(State(grid_accept, h), BOLTZMANN)
        assert rep.fisher_x == pytest.approx(1.8184074416520146, abs=1e-8)

    def test_exponential_field_vs_oracle(self, state_exp, field_exp, dense_xy):
        x, v = dense_xy
        for p in (1.0, 1.5):
            mine = fisher(build_report(state_exp, PIndex(p)))
            want = oracles.oracle_fisher(field_exp, x, v, p)
            for a, b in zip(mine, want):
                assert a == pytest.approx(b, rel=1e-7, abs=1e-9)


class TestProjectedQuantities:
    def test_equilibrium_all_zero(self, grid_small):
        s = State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total)))
        rep = build_report(s, BOLTZMANN)
        assert rep.entropy_projected == 0.0
        assert rep.projected_entropy_rate == pytest.approx(0.0, abs=1e-15)
        assert rep.fisher_x_ratio == pytest.approx(0.0, abs=1e-20)
        assert np.abs(local_mean_velocity(s)).max() < 1e-14

    def test_spatial_field_ratio_vanishes(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = (1 + 0.4 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_small.nv_total)
        rep = build_report(State(grid_small, h), BOLTZMANN)
        assert rep.fisher_x_ratio == pytest.approx(0.0, abs=1e-18)
        assert rep.fisher_x_projected == pytest.approx(rep.fisher_x, rel=1e-12)

    def test_mean_velocity_of_odd_mode(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        a = 0.2
        h = 1.0 + a * np.outer(np.cos(2 * np.pi * x), v)
        u = local_mean_velocity(State(grid_small, h))
        assert np.abs(u[0] - a * np.cos(2 * np.pi * x)).max() < 1e-10

    def test_oracle_projection(self, state_exp, field_exp, dense_xy, grid_accept):
        x, v = dense_xy
        pih_o, u_o = oracles.oracle_projection(field_exp, x, v)
        from hypoflow import project_pi
        pih = project_pi(state_exp.h, grid_accept)
        xg = grid_accept.x_nodes[:, 0]
        idx = (xg * x.size).astype(int) // 1
        # compare at shared spatial points (the dense grid contains the
        # coarse one: 512 = 8 * 64)
        stride = x.size // xg.size
        assert np.abs(pih - pih_o[::stride]).max() < 1e-8
        u = local_mean_velocity(state_exp)[0]
        assert np.abs(u - u_o[::stride]).max() < 1e-8


def corrections(rep):
    return rep.correction_x, rep.correction_v, rep.fisher_v_scaled


class TestCorrectionTerms:
    def test_zero_at_equilibrium(self, grid_small):
        s = State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total)))
        for val in corrections(build_report(s, PIndex(1.5))):
            assert abs(val) < 1e-25

    def test_vanish_at_p_two(self, state_exp):
        cx, cv, vs = corrections(build_report(state_exp, PIndex(2.0)))
        assert abs(cx) < 1e-12
        assert abs(cv) < 1e-12
        assert vs > 0.0

    def test_vs_oracle(self, state_exp, field_exp, dense_xy):
        x, v = dense_xy
        mine = corrections(build_report(state_exp, PIndex(1.5)))
        want = oracles.oracle_correction_terms(field_exp, x, v, 1.5)
        for a, b in zip(mine, want):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_cross_dissipation_vs_oracle(self, state_exp, field_exp, dense_xy, p):
        # at p = 1 the column is fisher_x_ratio
        rep = build_report(state_exp, PIndex(p))
        mine = rep.fisher_x_ratio if p == 1.0 else rep.cross_dissipation
        want = oracles.oracle_cross_dissipation(field_exp, *dense_xy, p)
        assert mine == pytest.approx(want, rel=1e-10)

    def test_nonnegative_on_random_states(self, grid_small):
        for seed in range(20):
            s = random_band_limited(grid_small, seed)
            cx, cv, vs = corrections(build_report(s, PIndex(1.5)))
            assert cx >= -1e-14 and cv >= -1e-14 and vs >= 0.0


class TestCorrectionWeight:
    def test_known_values(self):
        assert correction_weight(1.0, 1.5) == pytest.approx(0.0, abs=1e-15)
        assert correction_weight(4.0, 1.5) == pytest.approx(0.5, abs=1e-15)
        assert correction_weight(3.7, 2.0) == pytest.approx(0.0, abs=1e-15)

    @given(r=st.floats(0.0, 50.0), p=st.floats(1.001, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, r, p):
        assert correction_weight(r, p) >= -1e-12

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            correction_weight(-0.5, 1.5)


def second_order(state):
    rep = build_report(state, PIndex(1.5), model="fokker-planck")
    return rep.hess_xv, rep.hess_vv, rep.quartic_xv, rep.quartic_v


class TestSecondOrderTerms:
    def test_equilibrium_zero(self, grid_small):
        s = State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total)))
        for val in second_order(s):
            assert abs(val) < 1e-25

    def test_spatial_field_kills_velocity_terms(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = (1 + 0.4 * np.cos(2 * np.pi * x))[:, None] * np.ones(grid_small.nv_total)
        i_vx, i_vv, i2_xv, i2_v = second_order(State(grid_small, h))
        assert i_vv == pytest.approx(0.0, abs=1e-18)
        assert i2_v == pytest.approx(0.0, abs=1e-18)
        assert i2_xv == pytest.approx(0.0, abs=1e-18)
        assert i_vx > 0.0

    def test_chain_rule_expansion_pointwise(self, grid_accept):
        # the quadratic expansion of the squared second derivative of the
        # entropy variable holds pointwise against a spectral evaluation
        # of the composite field
        p = 1.5
        s = random_band_limited(grid_accept, seed=5, amplitude=0.2)
        grid = grid_accept
        gx = grad_x_field(s.h, grid)
        gv = grad_v_field(s.h, grid)
        entropy_var = s.h**(p - 1.0) / (p - 1.0)
        gx_e = grad_x_field(entropy_var, grid)
        hess_spectral = grad_v_field(gx_e[0], grid)[0]
        expansion = (s.h**(p - 2.0) * grad_v_field(gx[0], grid)[0]
                     + (p - 2.0) * s.h**(p - 3.0) * gv[0] * gx[0])
        lhs = hess_spectral**2 * s.h**(2.0 - p)
        rhs = expansion**2 * s.h**(2.0 - p)
        # pointwise on the measure-bearing nodes; the outermost abscissae
        # carry ~1e-22 of the measure and the composite's spectral
        # derivative is meaningless there
        inner = np.abs(grid.v_nodes[:, 0]) < 6.0
        assert np.abs(lhs[:, inner] - rhs[:, inner]).max() < 1e-9
        assert (np.abs(lhs - rhs) * grid.v_weights[None, :]).max() < 1e-12

    @pytest.mark.parametrize("nv", [32, pytest.param(64, marks=pytest.mark.xfail(
        strict=True, reason="the v-second-order columns blow up in the far velocity "
                            "tail at nv = 64 (ROADMAP item 12)"))])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_vs_oracle(self, field_exp, dense_xy, nv, p):
        grid = build_grid(GridSpec(dim=1, nx=64, nv=nv))
        s = State(grid, field_exp.h(grid.x_nodes[:, 0], grid.v_nodes[:, 0]))
        rep = build_report(s, PIndex(p), model="fokker-planck")
        mine = rep.hess_xv, rep.hess_vv, rep.quartic_xv, rep.quartic_v
        want = oracles.oracle_second_order(field_exp, *dense_xy, p)
        for col, a, b in zip(("hess_xv", "hess_vv", "quartic_xv", "quartic_v"), mine, want):
            assert a == pytest.approx(b, rel=1e-5), (col, a, b)

    def test_quartic_signs(self, grid_small):
        for seed in range(10):
            s = random_band_limited(grid_small, seed)
            vals = second_order(s)
            assert all(v >= -1e-16 for v in vals)


class TestReportInvariants:
    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5), PIndex(2.0)])
    def test_sign_and_ordering_invariants(self, grid_accept, p):
        # runs the documented sign/ordering constraints over seeded states
        for seed in range(100):
            s = random_band_limited(grid_accept, seed)
            rep = build_report(s, p, model="bgk")
            assert rep.entropy >= 0.0
            assert rep.fisher_x >= 0.0 and rep.fisher_v >= 0.0
            assert rep.entropy_projected >= 0.0
            assert rep.fisher_x_projected >= 0.0
            assert rep.fisher_mixed**2 <= rep.fisher_x * rep.fisher_v * (1 + 1e-10) + 1e-14
            assert rep.fisher_x_projected <= rep.fisher_x * (1 + 1e-10) + 1e-12
            assert rep.entropy_projected <= rep.entropy * (1 + 1e-10) + 1e-12
            if p.is_log:
                assert rep.fisher_x_ratio >= 0.0
                assert rep.fisher_v_ratio >= 0.0
            else:
                assert rep.cross_dissipation >= 0.0
                assert rep.correction_x >= -1e-14
                assert rep.correction_v >= -1e-14
                assert rep.fisher_v_scaled >= 0.0

    def test_pi_ratio_identity(self, grid_accept):
        # pushing the velocity integral through the relative term recovers
        # the projection gap
        for seed in range(10):
            s = random_band_limited(grid_accept, seed)
            rep = build_report(s, BOLTZMANN, model="bgk")
            h = s.h
            pih = h @ grid_accept.v_weights
            gx = grad_x_field(h, grid_accept)
            gpi = grad_x_field(pih[:, None], grid_accept)[:, :, 0]
            num = np.zeros_like(h)
            for i in range(1):
                num += (gpi[i][:, None] - (pih[:, None] / h) * gx[i]) ** 2
            lhs = float(((h * num / pih[:, None] ** 2)
                         @ grid_accept.v_weights).mean())
            gap = rep.fisher_x - rep.fisher_x_projected
            assert lhs == pytest.approx(gap, rel=1e-8, abs=1e-10)

    def test_p_to_one_continuity(self, grid_accept):
        # the log entropy is the p = 1 member of the power family: every
        # shared column of p = 1 + gap is within 10 gap of its log value
        s = random_band_limited(grid_accept, seed=3)
        log = build_report(s, BOLTZMANN)
        pairs = [(c, c) for c in ("entropy", "entropy_projected", "fisher_x", "fisher_v",
                                  "fisher_mixed", "fisher_x_projected",
                                  "projected_entropy_rate")]
        pairs += [("cross_dissipation", "fisher_x_ratio"),
                  ("fisher_v_scaled", "fisher_v_ratio")]
        for gap in (1e-6, 1e-8, 1e-10):
            near = build_report(s, PIndex(1.0 + gap))
            for power_col, log_col in pairs:
                a, b = getattr(near, power_col), getattr(log, log_col)
                assert abs(a - b) <= 10.0 * gap * abs(b), (gap, power_col, a, b)
            # the correction terms carry a weight that vanishes at p = 1
            for c, scale in (("correction_x", log.fisher_x), ("correction_v", log.fisher_v)):
                assert abs(getattr(near, c)) <= 10.0 * gap * scale, (gap, c, getattr(near, c))
                assert getattr(log, c) is None


class TestFokkerPlanckReport:
    def test_model_selects_entries(self, grid_small):
        s = random_band_limited(grid_small, 0)
        rep = build_report(s, PIndex(1.5), model="fokker-planck")
        assert rep.hess_xv is not None and rep.hess_xv >= 0.0
        assert rep.cross_dissipation is None
        assert rep.fisher_x_ratio is None
        rep2 = build_report(s, BOLTZMANN, model="bgk")
        assert rep2.hess_xv is None
        assert rep2.fisher_x_ratio is not None

    def test_unknown_model_rejected(self, grid_small):
        with pytest.raises(ValueError):
            build_report(random_band_limited(grid_small, 0), BOLTZMANN, model="nope")

    def test_p_to_one_continuity(self, grid_accept):
        # the log entropy is the p = 1 member of the family the diffusion
        # columns are written for: at p = 1 hess_vv is Villani's Gamma_2
        # term, the integral of h |d_v d_v log h|^2
        s = random_band_limited(grid_accept, 3, amplitude=0.5)
        log = build_report(s, BOLTZMANN, model="fokker-planck")
        near = build_report(s, PIndex(1.0 + 1e-8), model="fokker-planck")
        for c in ("entropy", "fisher_x", "fisher_v", "fisher_mixed",
                  "hess_xv", "hess_vv", "quartic_xv", "quartic_v"):
            a, b = getattr(near, c), getattr(log, c)
            assert b > 0.0 and abs(a - b) <= 1e-6 * b, (c, a, b)


class TestCompositeReport:
    @pytest.mark.parametrize("model", ["bgk", "fokker-planck"])
    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)], ids=["log", "1.5"])
    @pytest.mark.parametrize("grid_name", ["grid_accept", "grid_2d"])
    def test_columns_equal_full_report(self, request, grid_name, p, model):
        s = random_band_limited(request.getfixturevalue(grid_name), 5, amplitude=2.0)
        full = build_report(s, p, model=model)
        rep = composite_report(s, p)
        assert (rep.time, rep.p) == (full.time, full.p)
        for c in DIAGNOSTIC_COLUMNS:
            if c in COMPOSITE_COLUMNS:
                assert getattr(rep, c) == getattr(full, c), c
            else:
                assert getattr(rep, c) is None, c


class TestStackedReport:
    @pytest.mark.parametrize("model", ["bgk", "fokker-planck"])
    @pytest.mark.parametrize("p", [BOLTZMANN, PIndex(1.5)], ids=["log", "1.5"])
    @pytest.mark.parametrize("grid_name", ["grid_accept", "grid_2d"])
    def test_members_equal_single_reports(self, request, grid_name, p, model):
        grid = request.getfixturevalue(grid_name)
        states = [random_band_limited(grid, seed, amplitude=0.5) for seed in range(3)]
        stack = State(grid, np.stack([s.h for s in states]))
        for build in (lambda s: build_report(s, p, model=model),
                      lambda s: composite_report(s, p)):
            stacked = build(stack)
            for i, s in enumerate(states):
                got, want = stacked.member(i), build(s)
                assert (got.time, got.p) == (want.time, want.p)
                for c in DIAGNOSTIC_COLUMNS:
                    g, w = getattr(got, c), getattr(want, c)
                    assert type(g) is type(w) and type(w) in (float, type(None)), c
                    if w is not None:
                        # bit for bit, not merely equal
                        assert np.float64(g).tobytes() == np.float64(w).tobytes(), c

    def test_stack_axes_of_any_shape(self, grid_small):
        states = [random_band_limited(grid_small, seed) for seed in range(4)]
        stack = State(grid_small, np.stack([s.h for s in states]).reshape(
            2, 2, grid_small.nx_total, grid_small.nv_total))
        rep = build_report(stack, PIndex(1.5))
        assert rep.entropy.shape == (2, 2)
        for i, s in enumerate(states):
            assert rep.member(divmod(i, 2)) == build_report(s, PIndex(1.5))


class TestReportSerialization:
    def test_csv_roundtrip_columns(self, grid_small, tmp_path):
        s = random_band_limited(grid_small, 0)
        reps = [build_report(s, BOLTZMANN, model="bgk"),
                build_report(s, PIndex(1.5), model="bgk")]
        path = tmp_path / "reports.csv"
        write_report_csv(reps, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 3
        # log row leaves the power-only columns empty
        d = dict(zip(rows[0], rows[1]))
        assert d["cross_dissipation"] == ""
        assert float(d["entropy"]) > 0
        # power row fills them
        d2 = dict(zip(rows[0], rows[2]))
        assert d2["cross_dissipation"] != ""

    def test_json_output(self, grid_small, tmp_path):
        import json
        s = random_band_limited(grid_small, 0)
        path = tmp_path / "reports.json"
        write_report_json([build_report(s, BOLTZMANN, model="bgk")], path)
        data = json.loads(path.read_text())
        assert data[0]["p"] == "log"
        assert data[0]["hess_xv"] is None


def test_projected_entropy_rate_matches_divergence_form(grid_accept):
    # cross-check the pairing against an independently assembled divergence
    s = random_band_limited(grid_accept, seed=11)
    rate = build_report(s, BOLTZMANN).projected_entropy_rate
    pih = s.h @ grid_accept.v_weights
    u = local_mean_velocity(s)[0]
    du = grad_x_field(u[:, None], grid_accept)[0][:, 0]
    expect = -float(np.mean(np.log(pih) * du))
    assert rate == pytest.approx(expect, rel=1e-12, abs=1e-14)
