import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss, hermeval

from hypoflow import (
    BGK,
    BOLTZMANN,
    GridSpec,
    PIndex,
    PositivityError,
    State,
    Transport,
    build_grid,
    build_report,
    integrate_mu,
    load_state,
    project_pi,
    random_band_limited,
    run_suite,
    save_state,
)
from hypoflow import functionals, phase_space, verifier
from hypoflow.phase_space import (
    grad_v_field,
    grad_x_field,
    grad_x_spatial,
    hermite_coefficients,
    hermite_tail_fraction,
)

import oracles


class TestGridSpec:
    def test_rejects_odd_nx(self):
        with pytest.raises(ValueError):
            GridSpec(nx=33)

    def test_rejects_small_nx(self):
        with pytest.raises(ValueError):
            GridSpec(nx=6)

    def test_rejects_small_nv(self):
        with pytest.raises(ValueError):
            GridSpec(nv=3)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            GridSpec(dim=3)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_period(self, period):
        with pytest.raises(ValueError, match="period"):
            GridSpec(period=period)

    @pytest.mark.parametrize("nv", [400, 800])
    def test_nv_beyond_the_quadrature_is_refused(self, nv):
        # numpy's hermegauss returns a zero or NaN weight from nv = 371 on (numpy
        # 2.4); the refusal names nv and warns of nothing (warnings are errors)
        with pytest.raises(ValueError, match=f"nv = {nv}:"):
            build_grid(GridSpec(nx=8, nv=nv))

    def test_non_finite_hermite_transform_is_refused(self, monkeypatch):
        # finite, positive weights at abscissae so large that the Hermite
        # polynomials overflow
        v, w = hermegauss(16)
        monkeypatch.setattr(phase_space, "hermegauss", lambda nv: (v * 1e200, w))
        with pytest.raises(ValueError, match="nv = 16: the Hermite transform"):
            build_grid(GridSpec(nx=8, nv=16))


class TestQuadrature:
    def test_weights_normalized(self, grid_small):
        assert abs(grid_small.v_weights.sum() - 1.0) < 1e-12

    def test_second_moment(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        assert abs((grid_small.v_weights * v**2).sum() - 1.0) < 1e-10

    def test_fourth_moment_vs_independent_rule(self):
        # nv = 4 is the smallest legal rule; degree 4 is still exact there
        grid = build_grid(GridSpec(dim=1, nx=8, nv=4))
        v_o, w_o = oracles.gauss_hermite_golub_welsch(4)
        v = grid.v_nodes[:, 0]
        mine = (grid.v_weights * v**4).sum()
        theirs = (w_o * v_o**4).sum()
        assert abs(mine - theirs) < 1e-8
        assert abs(mine - 3.0) < 1e-8

    def test_nodes_match_independent_rule(self, grid_small):
        v_o, w_o = oracles.gauss_hermite_golub_welsch(16)
        assert np.allclose(np.sort(grid_small.v_nodes[:, 0]), np.sort(v_o), atol=1e-10)
        assert np.allclose(grid_small.v_weights, w_o, atol=1e-12)

    def test_exactness_high_degree(self, grid_small):
        # degree 2 nv - 1 polynomial times a resolved harmonic
        v = grid_small.v_nodes[:, 0]
        x = grid_small.x_nodes[:, 0]
        fld = np.outer(1.0 + np.cos(2 * np.pi * x), v**6)
        # E[v^6] = 15 for the unit Gaussian
        assert abs(integrate_mu(fld, grid_small) - 15.0) < 1e-9 * 15


class TestIntegrateMu:
    def test_constant(self, grid_small):
        fld = np.ones((grid_small.nx_total, grid_small.nv_total))
        assert integrate_mu(fld, grid_small) == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_mode(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        fld = np.cos(2 * np.pi * x)[:, None] * np.ones(grid_small.nv_total)
        assert abs(integrate_mu(fld, grid_small)) < 1e-12

    def test_product_factorization(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        fld = np.outer(1.0 + 0.5 * np.cos(2 * np.pi * x), v**2)
        assert abs(integrate_mu(fld, grid_small) - 1.0) < 1e-10

    def test_rejects_nan(self, grid_small):
        fld = np.ones((grid_small.nx_total, grid_small.nv_total))
        fld[0, 0] = np.nan
        with pytest.raises(ValueError):
            integrate_mu(fld, grid_small)


class TestProjection:
    def test_preserves_constants(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        assert np.allclose(project_pi(h, grid_small), 1.0, atol=1e-14)

    def test_identity_on_spatial_fields(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * x)
        h = np.repeat(rho[:, None], grid_small.nv_total, axis=1)
        assert np.allclose(project_pi(h, grid_small), rho, atol=1e-14)

    def test_kills_odd_moments(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + np.outer(np.cos(2 * np.pi * x), v)
        assert np.abs(project_pi(h, grid_small) - 1.0).max() < 1e-12

    def test_idempotent(self, grid_small):
        # exact up to one rounding of the weight dot product
        rng = np.random.default_rng(0)
        h = 1.0 + 0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total))
        once = project_pi(h, grid_small)
        constant_in_v = np.repeat(once[:, None], grid_small.nv_total, axis=1)
        twice = project_pi(constant_in_v, grid_small)
        assert np.abs(once - twice).max() < 5e-16

    def test_commutes_with_grad_x(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + 0.3 * np.outer(np.sin(2 * np.pi * x), 1.0 + 0.5 * v)
        left = project_pi(grad_x_field(h, grid_small)[0], grid_small)
        right = grad_x_spatial(project_pi(h, grid_small), grid_small)[0]
        assert np.abs(left - right).max() < 1e-10


class TestGradients:
    def test_grad_x_exact_mode(self, grid_small):
        x = grid_small.x_nodes[:, 0]
        h = np.sin(2 * np.pi * x)[:, None] * np.ones(grid_small.nv_total)
        gx = grad_x_field(h, grid_small)[0]
        assert np.abs(gx - 2 * np.pi * np.cos(2 * np.pi * x)[:, None]).max() < 1e-10

    def test_grad_v_linear(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = np.ones(grid_small.nx_total)[:, None] * v[None, :]
        gv = grad_v_field(h, grid_small)[0]
        assert np.abs(gv - 1.0).max() < 1e-10

    def test_grad_v_quadratic(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = np.ones(grid_small.nx_total)[:, None] * (v**2)[None, :]
        gv = grad_v_field(h, grid_small)[0]
        assert np.abs(gv - 2.0 * v[None, :]).max() < 1e-9

    def test_grads_match_finite_differences(self, grid_small):
        # smooth phase-space field; centered differences on the analytic form
        def f(x, v):
            return np.exp(0.2 * np.cos(2 * np.pi * x)[:, None]
                          + 0.1 * np.outer(np.sin(2 * np.pi * x), v)
                          - 0.05 * (v**2)[None, :])

        x = grid_small.x_nodes[:, 0]
        v = grid_small.v_nodes[:, 0]
        h = f(x, v)
        gx = grad_x_field(h, grid_small)[0]
        gv = grad_v_field(h, grid_small)[0]
        eps = 1e-5
        fd_x = (f(x + eps, v) - f(x - eps, v)) / (2 * eps)
        fd_v = (f(x, v + eps) - f(x, v - eps)) / (2 * eps)
        assert np.abs(gx - fd_x).max() < 1e-7
        # velocity derivatives of a non-polynomial field match in the
        # quadrature-weighted norm; pointwise accuracy fades at the
        # measure-negligible outer abscissae
        werr = np.sqrt((((gv - fd_v) ** 2) @ grid_small.v_weights).max())
        assert werr < 1e-7

    def test_tail_column(self, grid_small):
        # every report records the tail fraction of its state, bit for bit:
        # large for a velocity step and for a wide spatial band that
        # transport has dephased into velocity oscillations, round-off for
        # a linear profile
        v = grid_small.v_nodes[:, 0]
        ones = np.ones(grid_small.nx_total)[:, None]
        states = {
            "rough": State(grid_small, ones * (1.0 + 0.5 * np.sign(v))[None, :]),
            "dephased": Transport().flow(random_band_limited(grid_small, 9, x_modes=2), 0.5),
            "smooth": State(grid_small, ones * (1.0 + 0.1 * v)[None, :]),
        }
        for p, model in ((BOLTZMANN, "bgk"), (PIndex(1.5), "bgk"),
                         (PIndex(1.5), "fokker-planck")):
            tails = {}
            for name, state in states.items():
                tails[name] = build_report(state, p, model=model).hermite_tail
                assert tails[name] == hermite_tail_fraction(state.h, grid_small), (p, model)
            assert tails["rough"] > 1e-6 and tails["dephased"] > 1e-6, (p, model, tails)
            assert tails["smooth"] < 1e-13, (p, model, tails)

    @pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
    def test_tail_fraction_sums_as_the_plain_formula(self, request, grid_name):
        # per member, bit for bit the plain numpy formula on that member
        # alone, whose masked sum runs in numpy's own memory order; rough
        # fields make the order of summation show in the last bits
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(4)
        h = np.exp(3.0 * rng.standard_normal((32, grid.nx_total, grid.nv_total)))
        fractions = hermite_tail_fraction(h, grid)
        for member, got in zip(h, fractions):
            c = hermite_coefficients(member, grid)
            tail = c[:, grid.hermite_tail]
            want = float(np.sqrt((tail * tail).sum())) / float(np.sqrt((c * c).sum()))
            assert hermite_tail_fraction(member, grid) == want == got

    def test_tail_fraction_zero_for_resolved(self, grid_small):
        v = grid_small.v_nodes[:, 0]
        h = 1.0 + np.ones(grid_small.nx_total)[:, None] * v[None, :]
        assert hermite_tail_fraction(h, grid_small) < 1e-13


class TestState:
    def test_validate_positive_unit_mass(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        State(grid_small, h).validate()

    def test_rejects_negative(self, grid_small):
        h = np.ones((grid_small.nx_total, grid_small.nv_total))
        h[3, 4] = -0.1
        with pytest.raises(PositivityError):
            State(grid_small, h).validate()

    def test_rejects_bad_mass(self, grid_small):
        h = np.full((grid_small.nx_total, grid_small.nv_total), 1.1)
        with pytest.raises(ValueError):
            State(grid_small, h).validate()

    def test_snapshot_roundtrip(self, grid_small, tmp_path):
        rng = np.random.default_rng(7)
        h = np.exp(0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total)))
        h /= integrate_mu(h, grid_small)
        state = State(grid_small, h, time=1.25)
        path = tmp_path / "snap.txt"
        save_state(state, path)
        back = load_state(path)
        assert back.time == state.time
        assert back.grid.spec == grid_small.spec
        assert np.array_equal(back.h, state.h)

    def test_snapshot_bytes_one_value_per_line(self, grid_2d, tmp_path):
        rng = np.random.default_rng(11)
        h = np.exp(0.1 * rng.standard_normal((grid_2d.nx_total, grid_2d.nv_total)))
        h[0, 0], h[1, 2], h[-1, -1] = -0.25, 3.0e-300, 0.0
        path = tmp_path / "snap.txt"
        save_state(State(grid_2d, h, time=0.3), path)
        values = "".join(f"{v:.17e}\n" for v in h.ravel())
        assert path.read_text() == (
            "hypoflow-state 1\ndim=2 nx=16 nv=8 period=1.0 time=0.3\n" + values)

    def test_failed_write_keeps_previous_snapshot(self, grid_small, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "snap.txt"
        save_state(State(grid_small, np.ones((grid_small.nx_total, grid_small.nv_total))),
                   path)
        before = path.read_bytes()

        class FailingFile:
            # lets the header through, then fails on the first block of values
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("no space left on device")
                return self.f.write(text)

        monkeypatch.setattr(phase_space, "open",
                            lambda p, mode="r": FailingFile(open(p, mode)), raising=False)
        rng = np.random.default_rng(3)
        h = np.exp(0.1 * rng.standard_normal((grid_small.nx_total, grid_small.nv_total)))
        with pytest.raises(OSError):
            save_state(State(grid_small, h / integrate_mu(h, grid_small), time=2.0), path)
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["snap.txt"]


class TestFloorImmaterial:
    def _dent(self, grid, share):
        """A unit field with one sub-floor node whose repair is `share` of
        the budget."""
        h = np.ones((grid.nx_total, grid.nv_total))
        j = grid.nv_total // 2
        repair = share * phase_space.POSITIVITY_REPAIR_BUDGET
        h[0, j] = phase_space.H_MIN - repair * grid.nx_total / grid.v_weights[j]
        return h

    def test_budget_is_per_member(self, grid_small):
        # each member repairs 0.6 of the budget, together 1.2 of it
        h = np.stack([self._dent(grid_small, 0.6)] * 2)
        out = phase_space.floor_immaterial(h, grid_small)
        assert out.min() == phase_space.H_MIN
        # one state with both repairs is over budget
        both = self._dent(grid_small, 0.6)
        both[1] = both[0]
        with pytest.raises(PositivityError):
            phase_space.floor_immaterial(both, grid_small)

    def test_one_member_over_budget_raises(self, grid_small):
        h = np.stack([self._dent(grid_small, 0.6), self._dent(grid_small, 1.5),
                      np.ones((grid_small.nx_total, grid_small.nv_total))])
        with pytest.raises(PositivityError):
            phase_space.floor_immaterial(h, grid_small)


BOUND_GRIDS = [GridSpec(dim=1, nx=16, nv=4), GridSpec(dim=2, nx=8, nv=4)]


@pytest.mark.parametrize("spec", BOUND_GRIDS, ids=["1d", "2d"])
class TestNodesLowerBound:
    """nodes_lower_bound against the values to_nodes computes."""

    def _check(self, modes, grid, tight=False):
        bound = phase_space.nodes_lower_bound(modes, grid)
        least = phase_space.to_nodes(modes, grid).min()
        assert bound <= least
        if tight:
            assert bound >= least - 1e-9
        return bound

    def _field(self, grid, profile):
        """A nodal field whose every velocity column is `profile` of the
        x-node index tuples."""
        idx = np.indices(grid.x_shape()).reshape(grid.dim, -1)
        col = np.linspace(0.5, 1.5, grid.nv_total)
        return np.outer(profile(idx), col) + 1.0

    def test_square_wave(self, spec):
        grid = build_grid(spec)
        nx = spec.nx
        for profile in (lambda i: 0.95 * np.sign(nx / 2 - 0.5 - i[-1]),
                        lambda i: 0.95 * np.sign(nx / 2 - 0.5 - i[0]),
                        lambda i: 0.9 * np.sign((nx / 2 - 0.5 - i[0]) * (nx / 2 - 0.5 - i[-1]))):
            self._check(phase_space.to_modes(self._field(grid, profile), grid), grid)

    def test_single_modes_are_tight(self, spec):
        # one cosine or Nyquist mode reaches 1 - a at a node, and the bound
        # is that value up to its margin
        grid = build_grid(spec)
        nx = spec.nx
        for axis in range(spec.dim):
            for profile in (lambda i: -0.4 * (-1.0) ** i[axis],
                            lambda i: 0.4 * np.cos(2 * np.pi * i[axis] / nx),
                            lambda i: 0.4 * np.cos(2 * np.pi * 3 * i[axis] / nx)):
                h = self._field(grid, profile)
                self._check(phase_space.to_modes(h, grid), grid, tight=True)

    def test_imaginary_dc_and_nyquist_bins(self, spec):
        # irfft drops the imaginary part of these bins, which the field's
        # own transform leaves 0
        grid = build_grid(spec)
        h = self._field(grid, lambda i: 0.3 * np.cos(2 * np.pi * i[0] / spec.nx))
        modes = phase_space.to_modes(h, grid)
        rng = np.random.default_rng(0)
        for edge in (0, -1):
            shape = modes[..., edge, :].shape
            modes[..., edge, :] += 1j * rng.normal(scale=spec.nx, size=shape)
        self._check(modes, grid)

    def test_random_complex_modes(self, spec):
        grid = build_grid(spec)
        rng = np.random.default_rng(1)
        shape = phase_space.to_modes(np.ones((grid.nx_total, grid.nv_total)), grid).shape
        for scale in (1.0, 1e-3, 1e3):
            modes = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            # a zero mode large enough that some columns clear zero
            modes[(0,) * spec.dim] += scale * rng.uniform(0, 3, grid.nv_total) * modes.size
            self._check(modes, grid)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       complex(math.inf, math.nan), complex(0, math.inf)])
    @pytest.mark.parametrize("where", ["dc", "interior", "nyquist"])
    def test_non_finite_modes_do_not_clear(self, spec, value, where):
        grid = build_grid(spec)
        modes = phase_space.to_modes(np.ones((grid.nx_total, grid.nv_total)), grid)
        index = {"dc": (0,) * spec.dim, "interior": (0,) * (spec.dim - 1) + (1,),
                 "nyquist": (1,) * (spec.dim - 1) + (-1,)}[where]
        modes[index + (1,)] = value
        assert not phase_space.nodes_lower_bound(modes, grid) >= phase_space.H_MIN

    def test_overflowing_norm_does_not_clear(self, spec):
        grid = build_grid(spec)
        modes = phase_space.to_modes(np.ones((grid.nx_total, grid.nv_total)), grid)
        modes[(0,) * spec.dim] = 1e308
        modes[(0,) * (spec.dim - 1) + (1,)] = 1e308
        assert not phase_space.nodes_lower_bound(modes, grid) >= phase_space.H_MIN


def _write_text(path, text):
    with phase_space.open_fresh(path) as f:
        f.write(text)


@pytest.mark.parametrize("write,first,second", [
    (phase_space.write_json, {"a": 1}, {"b": 2}),
    (_write_text, "old text\n", "new\n"),
], ids=["write_json", "open_fresh"])
def test_rewrite_replaces_the_file(tmp_path, write, first, second):
    # a rewrite removes the old file rather than truncating it in place: a
    # hard link keeps the old inode and its content
    path, keep = tmp_path / "out", tmp_path / "first"
    write(path, first)
    os.link(path, keep)
    before = keep.read_bytes()
    write(path, second)
    assert keep.read_bytes() == before
    assert path.stat().st_ino != keep.stat().st_ino
    want = tmp_path / "want"
    write(want, second)
    assert path.read_bytes() == want.read_bytes()


# Every value kind JSON has, with the floats and string characters that
# the encoders treat specially
_JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]))
_JSON_TEXT = st.text(st.one_of(st.sampled_from('%}{"\\\n\r\t\x00\x1f\x7f,: \u00e9\u20ac\U0001f600'),
                               st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _JSON_FLOATS, _JSON_TEXT)
_FLAT_DICTS = st.dictionaries(_JSON_TEXT, _JSON_SCALARS, max_size=3)


def _json_containers(children):
    # rows: dicts that share one key set, each key's column drawn from
    # scalars, flat dicts (an empty one included) or any value
    kinds = (_JSON_SCALARS, _FLAT_DICTS, children)
    columns = st.lists(st.tuples(_JSON_TEXT, st.integers(0, len(kinds) - 1)),
                       min_size=1, max_size=4, unique_by=lambda column: column[0])
    rows = columns.flatmap(lambda cols: st.lists(
        st.fixed_dictionaries({key: kinds[kind] for key, kind in cols}), min_size=1, max_size=5))
    return st.one_of(st.lists(children, max_size=4), st.tuples(children, children),
                     st.dictionaries(_JSON_TEXT, children, max_size=4), _FLAT_DICTS, rows)


_JSON_VALUES = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=40)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_write_json_is_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "out.json"
    phase_space.write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


def test_write_json_rows_in_blocks(tmp_path, monkeypatch):
    # a top-level row list is written _ROW_BLOCK rows at a time, each block
    # from one C call per column of scalars or of flat dicts
    rows = [{"b": i, "a": {"x": -0.5 * i} if i % 3 else {}, "c": f"%s{i}"} for i in range(10)]
    monkeypatch.setattr(phase_space, "_ROW_BLOCK", 4)
    encoded = []

    def column_texts(column, encode=phase_space._column_texts):
        encoded.append(len(column))
        return encode(column)

    monkeypatch.setattr(phase_space, "_column_texts", column_texts)
    phase_space.write_json(tmp_path / "rows.json", rows)
    assert ((tmp_path / "rows.json").read_text()
            == json.dumps(rows, indent=1, sort_keys=True) + "\n")
    assert encoded == [4] * 3 + [4] * 3 + [2] * 3


def test_write_json_block_of_other_items(tmp_path, monkeypatch):
    # a block that is not rows of one key set, or holds a nested column, is
    # json.dumps text between blocks that are
    rows = [{"a": i, "b": {"x": i}} for i in range(12)]
    rows[5] = {"a": 5, "b": {"x": [5]}}
    rows[9] = 9
    monkeypatch.setattr(phase_space, "_ROW_BLOCK", 4)
    phase_space.write_json(tmp_path / "rows.json", rows)
    assert ((tmp_path / "rows.json").read_text()
            == json.dumps(rows, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("obj", [
    {1: [1]},
    [{"a": {1: 0.5, 2: None}, "b": 1}, {"a": {}, "b": 2}, {"a": {3: "x"}, "b": 3}],
    [{1: "a"}, {1: "b"}],
], ids=["int-key-dict-of-list", "int-key-flat-dict-column", "int-key-rows"])
def test_write_json_non_str_keys(tmp_path, obj):
    phase_space.write_json(tmp_path / "out.json", obj)
    assert ((tmp_path / "out.json").read_text()
            == json.dumps(obj, indent=1, sort_keys=True) + "\n")


def test_verification_and_report_rows_need_no_json_dumps(tmp_path, monkeypatch, grid_small):
    # verification.json and functionals.json, the two large artifacts, are
    # written by the C path alone
    results = run_suite(grid_small, BGK(1.0), PIndex(1.5), n_states=1)
    reports = [build_report(random_band_limited(grid_small, seed), PIndex(1.5))
               for seed in range(6)]
    want = {
        "verification.json": [r.to_dict() for r in results],
        "functionals.json": [{c: getattr(rep, c) for c in functionals.REPORT_COLUMNS}
                             for rep in reports],
    }
    want = {name: (json.dumps(rows, indent=1, sort_keys=True) + "\n").encode()
            for name, rows in want.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(phase_space, "_ROW_BLOCK", 4)
    verifier.save_results(results, tmp_path / "verification.json")
    functionals.write_report_json(reports, tmp_path / "functionals.json")
    for name, text in want.items():
        assert (tmp_path / name).read_bytes() == text, name


def _percent(values) -> bytes:
    return b"".join(b"%.17e\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


# signed zeros, subnormals, the extreme normals, three-digit exponents, the
# edges of the range formatted without "%", non-finite values, 1e153 (the
# double just below 10**153, whose 18 digits round up to a power of ten) and
# exact ties between two 18-digit decimals
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-100, -1e100, 1e-280, 1e280,
    np.nextafter(1e-280, 0.0), np.nextafter(1e280, math.inf), math.inf, -math.inf, math.nan,
    1e153, 1e23, 1e22, 1.0, -1.0, 10.0, 0.1, 123.456, 518556607.5224609375,
    -518556607.5224609375, 2.0**-10, 2.0**60,
    # the bounds of the two-digit exponents the formatter prints itself
    1e-99, np.nextafter(1e-99, 0.0), np.nextafter(1e100, 0.0), 1e100,
    # the positivity floor, and its negative
    1e-12, -1e-12,
    # 1e153 above is the one double whose 18 digits carry into the next
    # exponent ("1.00000000000000000e+153"); no double in [1e-99, 1e100) does
]


class TestExactFormatter:
    """phase_space._format_values against "%.17e\\n" % v, value by value."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, values):
        assert phase_space._format_values(np.array(values)) == _percent(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(5).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert phase_space._format_values(values) == _percent(values)

    def test_edge_values(self):
        assert phase_space._format_values(np.array(EDGE_VALUES)) == _percent(EDGE_VALUES)
        for v in EDGE_VALUES:
            assert phase_space._format_values(np.array([v])) == _percent([v]), v
        assert 1e153 < 10**153
        assert phase_space._format_values(np.array([1e153])) == b"1.00000000000000000e+153\n"
        # 5.18556607522460937|5 exactly: a tie, printed rounded half to even
        assert (phase_space._format_values(np.array([518556607.5224609375]))
                == b"5.18556607522460938e+08\n")

    def test_block_size_does_not_change_the_file(self, grid_2d, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        h = np.exp(0.1 * rng.standard_normal((grid_2d.nx_total, grid_2d.nv_total)))
        h[5, 7], h[200, 3] = -2.5e-120, math.nan
        save_state(State(grid_2d, h, time=0.5), tmp_path / "one.txt")
        monkeypatch.setattr(phase_space, "_WRITE_BLOCK", 1000)
        save_state(State(grid_2d, h, time=0.5), tmp_path / "blocks.txt")
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "blocks.txt").read_bytes()
        assert (tmp_path / "one.txt").read_bytes().endswith(_percent(h.ravel()))


class TestTwoDimensional:
    def test_quadrature(self, grid_2d):
        h = np.ones((grid_2d.nx_total, grid_2d.nv_total))
        assert integrate_mu(h, grid_2d) == pytest.approx(1.0, abs=1e-13)
        v2 = (grid_2d.v_nodes**2).sum(axis=1)
        assert abs(integrate_mu(np.tile(v2, (grid_2d.nx_total, 1)), grid_2d) - 2.0) < 1e-10

    def test_gradients(self, grid_2d):
        x = grid_2d.x_nodes
        v = grid_2d.v_nodes
        h = 1.0 + 0.3 * np.outer(np.sin(2 * np.pi * x[:, 1]), v[:, 0])
        gx = grad_x_field(h, grid_2d)
        gv = grad_v_field(h, grid_2d)
        expect_x1 = 0.3 * 2 * np.pi * np.outer(np.cos(2 * np.pi * x[:, 1]), v[:, 0])
        assert np.abs(gx[0]).max() < 1e-10
        assert np.abs(gx[1] - expect_x1).max() < 1e-9
        expect_v0 = 0.3 * np.outer(np.sin(2 * np.pi * x[:, 1]), np.ones(grid_2d.nv_total))
        assert np.abs(gv[0] - expect_v0).max() < 1e-9
        assert np.abs(gv[1]).max() < 1e-9

    def test_projection(self, grid_2d):
        v = grid_2d.v_nodes
        h = 1.0 + np.tile(v[:, 0] * v[:, 1], (grid_2d.nx_total, 1))
        assert np.abs(project_pi(h, grid_2d) - 1.0).max() < 1e-12


def phi(n, v):
    """Probabilists' Hermite polynomial of degree n, unit Gaussian norm."""
    return hermeval(v, [0.0] * n + [1.0]) / math.sqrt(math.factorial(n))


class TestTwoDimensionalOracles:
    """Fields that differ along the two axes, so an axis swap fails."""

    def test_grad_x_both_axes(self, grid_2d):
        x0, x1 = grid_2d.x_nodes.T
        v0, v1 = grid_2d.v_nodes.T
        vel = 1.0 + 0.2 * v0 + 0.1 * v1**2
        h = 1.0 + 0.3 * np.outer(np.sin(2 * np.pi * x0) * np.cos(4 * np.pi * x1), vel)
        gx = grad_x_field(h, grid_2d)
        expect0 = 0.6 * np.pi * np.outer(np.cos(2 * np.pi * x0) * np.cos(4 * np.pi * x1), vel)
        expect1 = -1.2 * np.pi * np.outer(np.sin(2 * np.pi * x0) * np.sin(4 * np.pi * x1), vel)
        assert np.abs(gx[0] - expect0).max() < 1e-11
        assert np.abs(gx[1] - expect1).max() < 1e-11

    def test_grad_v_both_axes(self, grid_2d):
        x0, x1 = grid_2d.x_nodes.T
        v0, v1 = grid_2d.v_nodes.T
        # degree <= 3 < nv per axis, so collocation differentiates exactly
        space = 1.0 + 0.5 * np.cos(2 * np.pi * x0) + 0.25 * np.sin(2 * np.pi * x1)
        h = np.outer(space, 1.0 + 0.2 * v0 + 0.1 * v1**2 + 0.05 * v0 * v1**3)
        gv = grad_v_field(h, grid_2d)
        expect0 = np.outer(space, 0.2 + 0.05 * v1**3)
        expect1 = np.outer(space, 0.2 * v1 + 0.15 * v0 * v1**2)
        assert np.abs(gv[0] - expect0).max() < 1e-10
        assert np.abs(gv[1] - expect1).max() < 1e-10

    def test_coefficients_values_round_trip(self, grid_2d):
        nv = grid_2d.spec.nv
        v0, v1 = grid_2d.v_nodes.T
        x0 = grid_2d.x_nodes[:, 0]
        # one orthonormal Hermite function, degree 1 along v0 and 2 along v1
        amp = 1.0 + 0.5 * np.cos(2 * np.pi * x0)
        fld = np.outer(amp, phi(1, v0) * phi(2, v1))
        expect = np.zeros((grid_2d.nx_total, grid_2d.nv_total))
        expect[:, 1 * nv + 2] = amp
        c = hermite_coefficients(fld, grid_2d)
        assert np.abs(c - expect).max() < 1e-12
        assert np.abs(oracles.hermite_series(expect, grid_2d) - fld).max() < 1e-12
        rng = np.random.default_rng(0)
        rough = rng.standard_normal((grid_2d.nx_total, grid_2d.nv_total))
        back = oracles.hermite_series(hermite_coefficients(rough, grid_2d), grid_2d)
        assert np.abs(back - rough).max() < 1e-10

    def test_separable_coefficients_are_outer_products(self, grid_2d):
        grid_1d = build_grid(GridSpec(dim=1, nx=8, nv=grid_2d.spec.nv))
        v = grid_1d.v_nodes[:, 0]
        a, b = np.exp(0.3 * v), 1.0 / (1.0 + 0.1 * v**2)
        ca = hermite_coefficients(a[None, :], grid_1d)[0]
        cb = hermite_coefficients(b[None, :], grid_1d)[0]
        v0, v1 = grid_2d.v_nodes.T
        sep = np.exp(0.3 * v0) / (1.0 + 0.1 * v1**2)
        c = hermite_coefficients(sep[None, :], grid_2d)[0]
        assert np.abs(c - np.outer(ca, cb).ravel()).max() < 1e-13

    def test_tail_fraction_of_second_axis_top_mode(self, grid_2d):
        nv = grid_2d.spec.nv
        v0, v1 = grid_2d.v_nodes.T
        eps = 1e-3
        ones = np.ones((grid_2d.nx_total, 1))
        top = ones * (1.0 + eps * phi(nv - 1, v1))[None, :]
        assert hermite_tail_fraction(top, grid_2d) == pytest.approx(
            eps / math.sqrt(1.0 + eps**2), rel=1e-9)
        below = ones * (1.0 + eps * phi(nv - 3, v1) * phi(nv - 3, v0))[None, :]
        assert hermite_tail_fraction(below, grid_2d) < 1e-13
