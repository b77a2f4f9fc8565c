import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest

from hypoflow import (
    BGK,
    FokkerPlanck,
    GridSpec,
    PositivityError,
    Schedule,
    SimulationError,
    State,
    build_grid,
    integrate_mu,
    load_trajectory,
    save_trajectory,
    simulate,
    transport_flow,
)
from hypoflow import integrator, operators, phase_space
from hypoflow.functionals import BOLTZMANN, entropy
from hypoflow.initial import cosine, equilibrium, random_band_limited, velocity_perturbation
from hypoflow.integrator import strang_step
from hypoflow.phase_space import floor_immaterial, save_state


def physical_strang(initial, schedule):
    """Reference run: every sub-flow on nodal values, one step at a time."""
    coll = schedule.collision
    state = initial
    snaps = [(state.time, state)]
    n_steps = int(np.ceil(schedule.t_end / schedule.dt - 1e-12))
    for step in range(1, n_steps + 1):
        target = min(initial.time + step * schedule.dt, initial.time + schedule.t_end)
        dt = target - state.time
        h = transport_flow(coll.flow(transport_flow(state, 0.5 * dt), dt), 0.5 * dt).h
        if isinstance(coll, FokkerPlanck):
            h = floor_immaterial(h, state.grid)
        state = State(state.grid, h, time=state.time + dt)
        if step % schedule.snapshot_every == 0 or step == n_steps:
            snaps.append((state.time, state))
    return snaps


def one_step(state, dt, collision):
    """The state after one splitting step of length dt, taken by simulate."""
    return simulate(state, Schedule(dt=dt, t_end=dt, collision=collision)).final()


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(dt=0.0, t_end=1.0, collision=BGK(1.0))
    with pytest.raises(ValueError):
        Schedule(dt=0.1, t_end=-1.0, collision=BGK(1.0))
    with pytest.raises(ValueError):
        Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0), snapshot_every=0)
    # the step count t_end / dt overflows
    with pytest.raises(ValueError, match="t_end / dt"):
        Schedule(dt=1e-320, t_end=10.0, collision=BGK(1.0))


def test_cosine_rejects_any_sign_of_too_large_amplitude(grid_small):
    # positivity needs |a| (1 + |b|) < 1; a = -2 would leave min h = -1
    for amplitude in (2.0, -2.0, -0.8):
        with pytest.raises(ValueError):
            cosine(grid_small, amplitude=amplitude, v_amplitude=0.3)
    assert cosine(grid_small, amplitude=-0.5, v_amplitude=0.3).h.min() > 0.0


def test_strang_requires_positive_dt(grid_small):
    with pytest.raises(ValueError):
        one_step(equilibrium(grid_small), 0.0, BGK(1.0))


def test_strang_equals_bgk_on_velocity_only_data(grid_small):
    # transport acts trivially when the field has no spatial structure
    s = velocity_perturbation(grid_small, 0.3)
    dt = 0.05
    stepped = one_step(s, dt, BGK(1.2))
    exact = BGK(1.2).flow(s, dt)
    assert np.abs(stepped.h - exact.h).max() < 1e-12
    assert stepped.time == pytest.approx(dt, abs=1e-15)


def test_strang_fixes_equilibrium(grid_small):
    s = equilibrium(grid_small)
    out = one_step(s, 0.02, BGK(1.0))
    assert np.abs(out.h - 1.0).max() < 1e-13
    out = one_step(s, 0.02, FokkerPlanck())
    assert np.abs(out.h - 1.0).max() < 1e-13


@pytest.mark.parametrize("collision", [BGK(1.0), FokkerPlanck()])
def test_strang_second_order(grid_accept, collision):
    # Richardson ratio of successive step halvings approaches 4; the
    # diffusion path needs the full velocity band for its filament transit
    h0 = cosine(grid_accept, 0.4, 0.2)
    finals = []
    for dt in (0.02, 0.01, 0.005):
        sched = Schedule(dt=dt, t_end=1.0, collision=collision,
                         snapshot_every=10**6)
        finals.append(simulate(h0, sched).final().h)
    r1 = np.abs(finals[0] - finals[1]).max()
    r2 = np.abs(finals[1] - finals[2]).max()
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_simulate_zero_time(grid_small):
    s = cosine(grid_small, 0.3)
    traj = simulate(s, Schedule(dt=0.1, t_end=0.0, collision=BGK(1.0)))
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0][0] == 0.0


def test_simulate_hits_final_time_with_short_step(grid_small):
    s = cosine(grid_small, 0.3)
    traj = simulate(s, Schedule(dt=0.03, t_end=0.1, collision=BGK(1.0)))
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("collision", [BGK(1.0), FokkerPlanck()], ids=["bgk", "fp"])
@pytest.mark.parametrize("t_end,tables", [(0.5, 1), (0.495, 2), (0.005, 1)])
def test_last_step_rebuilds_flows_only_beyond_round_off(grid_small, monkeypatch,
                                                        collision, t_end, tables):
    # at t_end = 0.5 the last step is 0.010000000000000009 long, within
    # round-off of dt, so the step's tables are reused; a truly short last
    # step gets its own
    built = []
    real = integrator.transport_phases
    monkeypatch.setattr(integrator, "transport_phases",
                        lambda grid, t: built.append(t) or real(grid, t))
    traj = simulate(cosine(grid_small, 0.3),
                    Schedule(dt=0.01, t_end=t_end, collision=collision))
    assert len(built) == tables
    assert traj.times[-1] == t_end


def test_simulate_conserves_mass(grid_small):
    s = cosine(grid_small, 0.5)
    sched = Schedule(dt=0.01, t_end=5.0, collision=BGK(1.0), snapshot_every=50)
    traj = simulate(s, sched)
    for _, state in traj.snapshots:
        assert abs(integrate_mu(state.h, grid_small) - 1.0) < 1e-9


def test_simulate_entropy_decreases(grid_small):
    s = cosine(grid_small, 0.5)
    sched = Schedule(dt=0.01, t_end=10.0, collision=BGK(1.0), snapshot_every=100)
    traj = simulate(s, sched)
    assert entropy(traj.final(), BOLTZMANN) < entropy(s, BOLTZMANN)


def test_simulate_snapshot_stride(grid_small):
    s = cosine(grid_small, 0.3)
    sched = Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0), snapshot_every=2)
    traj = simulate(s, sched)
    # initial + steps 2,4,6,8,10
    assert len(traj.snapshots) == 6
    assert np.all(np.diff(traj.times) > 0)


def test_simulate_aborts_on_bad_state(grid_small):
    h = np.ones((grid_small.nx_total, grid_small.nv_total))
    h[0, 0] = -0.2
    s = State(grid_small, h)
    with pytest.raises(Exception):
        simulate(s, Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0)))


def square_wave(nx=16, nv=8):
    # sampled half a cell off the lattice so that the wave has unit mean
    grid = build_grid(GridSpec(dim=1, nx=nx, nv=nv))
    x = grid.x_axis + 0.5 / nx
    h = np.repeat((1.0 + 0.95 * np.sign(0.5 - x))[:, None], grid.nv_total, axis=1)
    return State(grid, h)


def test_simulate_checks_positivity_between_snapshots():
    # the first transport half-step rings the jump below zero; no snapshot
    # falls before t_end, so only the per-step checks can see it
    s = square_wave()
    s.validate()
    with pytest.raises(SimulationError) as err:
        simulate(s, Schedule(dt=0.01, t_end=1.0, collision=BGK(1.0),
                             snapshot_every=10**6))
    assert err.value.step == 1
    assert "positivity" in str(err.value)
    with pytest.raises(PositivityError):
        simulate(s, Schedule(dt=0.01, t_end=1.0, collision=FokkerPlanck(),
                             snapshot_every=10**6))


class LeakyBGK(BGK):
    """Relaxation that gains a relative 1e-6 of mass on every flow."""

    def velocity_flow(self, grid, t):
        relax = super().velocity_flow(grid, t)
        return lambda values: relax(values) * (1.0 + 1e-6)


def test_simulate_checks_mass_every_step(grid_small):
    # the gain keeps h positive but exceeds the mass tolerance at once
    schedule = Schedule(dt=0.01, t_end=1.0, collision=LeakyBGK(1.0), snapshot_every=10**6)
    with pytest.raises(SimulationError) as err:
        simulate(cosine(grid_small, 0.3), schedule)
    assert err.value.step == 1
    assert "mass" in str(err.value)


def test_leaky_flow_gains_its_leak(grid_small):
    # flow steps with the one overridden velocity_flow, as simulate does
    s = cosine(grid_small, 0.3)
    mass = integrate_mu(LeakyBGK(1.0).flow(s, 0.01).h, grid_small)
    assert mass / integrate_mu(s.h, grid_small) - 1.0 == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("collision", [BGK(1.3), FokkerPlanck()], ids=["bgk", "fp"])
@pytest.mark.parametrize("dim", [1, 2])
def test_simulate_matches_physical_strang(dim, collision):
    grid = build_grid(GridSpec(dim=dim, nx=16, nv=8))
    s = random_band_limited(grid, seed=4, amplitude=0.3)
    sched = Schedule(dt=0.03, t_end=0.5, collision=collision, snapshot_every=4)
    got = simulate(s, sched).snapshots
    want = physical_strang(s, sched)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.abs(a.h - b.h).max() < 1e-12
    one = Schedule(dt=sched.dt, t_end=sched.dt, collision=collision)
    step = one_step(s, sched.dt, collision)
    assert np.abs(step.h - physical_strang(s, one)[1][1].h).max() < 1e-12
    # strang_step is that step
    assert np.array_equal(strang_step(s, sched.dt, collision).h, step.h)


def test_simulate_matches_physical_strang_through_floor_repairs(grid_accept, monkeypatch):
    # the filament transit of acceptance-grid diffusion makes the post-step
    # floor repair values, after which the carried modes must follow the
    # floored h. Far-tail nodal values carry transform round-off times
    # 1/sqrt(w) (about 1e-7 at nv=32), so h is compared in the sqrt-weight
    # frame where the Hermite transform is orthogonal.
    # A step transformed back to nodes floors twice, after the collision and
    # after the closing transport half-step, and both floors repair on some
    # step.
    repaired = []

    def floor(h, grid):
        out = floor_immaterial(h, grid)
        repaired.append(out is not h)
        return out

    monkeypatch.setattr(integrator, "floor_immaterial", floor)
    s = cosine(grid_accept, 0.4, 0.2)
    sched = Schedule(dt=0.03, t_end=1.0, collision=FokkerPlanck(), snapshot_every=4)
    got = simulate(s, sched).snapshots
    assert len(repaired) % 2 == 0
    assert any(repaired[0::2]) and any(repaired[1::2]), repaired
    want = physical_strang(s, sched)
    assert [t for t, _ in got] == [t for t, _ in want]
    sqrt_w = np.sqrt(grid_accept.v_weights)
    for (_, a), (_, b) in zip(got, want):
        assert (np.abs(a.h - b.h) * sqrt_w).max() < 1e-13


def test_closed_form_trajectory(grid_small):
    # spatially homogeneous relaxation has an explicit solution
    lam = 1.0
    s = velocity_perturbation(grid_small, 0.3)
    sched = Schedule(dt=0.01, t_end=3.0, collision=BGK(lam), snapshot_every=30)
    traj = simulate(s, sched)
    for t, state in traj.snapshots:
        expect = 1.0 + np.exp(-lam * t) * (s.h - 1.0)
        assert np.abs(state.h - expect).max() < 1e-10


def test_trajectory_roundtrip(grid_small, tmp_path):
    s = cosine(grid_small, 0.4, 0.1)
    sched = Schedule(dt=0.05, t_end=0.5, collision=BGK(2.0), snapshot_every=2)
    traj = simulate(s, sched)
    save_trajectory(traj, tmp_path / "run")
    back = load_trajectory(tmp_path / "run")
    assert len(back.snapshots) == len(traj.snapshots)
    assert back.schedule.dt == sched.dt
    assert isinstance(back.schedule.collision, BGK)
    assert back.schedule.collision.rate == 2.0
    for (t0, s0), (t1, s1) in zip(traj.snapshots, back.snapshots):
        assert t0 == pytest.approx(t1, abs=1e-15)
        assert np.array_equal(s0.h, s1.h)


def test_save_removes_stale_snapshots(grid_small, tmp_path):
    # a shorter run saved over a longer one leaves only its own snapshots,
    # and files that are not snapshots stay
    s = cosine(grid_small, 0.4, 0.1)
    run = tmp_path / "run"
    run.mkdir()
    (run / "notes.txt").write_text("kept")
    for t_end in (1.0, 0.3):
        traj = simulate(s, Schedule(dt=0.1, t_end=t_end, collision=BGK(1.0)))
        save_trajectory(traj, run)
    manifest = json.loads((run / "manifest.json").read_text())
    listed = sorted(e["file"] for e in manifest["snapshots"])
    assert len(listed) == 4
    assert sorted(p.name for p in run.glob("snapshot_*.txt")) == listed
    assert (run / "notes.txt").read_text() == "kept"
    assert len(load_trajectory(run).snapshots) == 4


def test_resave_renames_onto_no_existing_file(grid_small, tmp_path, monkeypatch):
    # a rename onto an existing file makes some file systems flush it to
    # disk, which made a simulate into a used directory up to 50x slower;
    # a shorter run saved over a longer one renames onto no file at all
    s = cosine(grid_small, 0.4, 0.1)
    run = tmp_path / "run"
    save_trajectory(simulate(s, Schedule(dt=0.1, t_end=1.0, collision=BGK(1.0))), run)
    replace = os.replace

    def checked_replace(src, dst):
        assert not os.path.lexists(dst), dst
        replace(src, dst)

    monkeypatch.setattr(os, "replace", checked_replace)
    traj = simulate(s, Schedule(dt=0.1, t_end=0.3, collision=BGK(1.0)))
    save_trajectory(traj, run)
    assert sorted(p.name for p in run.glob("snapshot_*.txt")) == [
        f"snapshot_{i:06d}.txt" for i in range(4)]
    back = load_trajectory(run)
    for s0, s1 in zip(traj.states, back.states, strict=True):
        assert np.array_equal(s0.h, s1.h)


def _writers(monkeypatch, cpus=3):
    """Report `cpus` usable CPUs (None: a platform without
    os.sched_getaffinity) and record the pid of every process forked."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


# whatever number of CPUs is usable, the snapshots are written by this one
# process, and each file holds the bytes save_state writes for its state
@pytest.mark.parametrize("cpus,t_end,n_snapshots", [
    (3, 0.3, 7), (3, 0.0, 1), (None, 0.3, 7),
], ids=["3-writers", "one-snapshot", "no-affinity"])
def test_parallel_writes_match_serial(grid_small, tmp_path, monkeypatch,
                                      cpus, t_end, n_snapshots):
    forked = _writers(monkeypatch, cpus)
    traj = simulate(cosine(grid_small, 0.4, 0.1),
                    Schedule(dt=0.05, t_end=t_end, collision=BGK(1.0)))
    assert len(traj.snapshots) == n_snapshots
    save_trajectory(traj, tmp_path / "run")
    assert forked == []
    (tmp_path / "ref").mkdir()
    for i, state in enumerate(traj.states):
        name = f"snapshot_{i:06d}.txt"
        save_state(state, tmp_path / "ref" / name)
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    assert sorted(os.listdir(tmp_path / "run")) == sorted(
        ["manifest.json"] + os.listdir(tmp_path / "ref"))
    back = load_trajectory(tmp_path / "run")
    assert back.times.tolist() == traj.times.tolist()
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s0.h, s1.h)


# a snapshot 5e-13 outside a window edge is inside its round-off tolerance,
# one 1e-11 outside is not; the loader and Trajectory.window agree on both
@pytest.mark.parametrize("outside,n_kept", [(-1e-11, 4), (0.0, 4), (5e-13, 4), (1e-11, 2)])
def test_windowed_load_matches_window(grid_small, tmp_path, outside, n_kept):
    traj = simulate(cosine(grid_small, 0.4, 0.1),
                    Schedule(dt=0.05, t_end=0.3, collision=BGK(1.0)))
    save_trajectory(traj, tmp_path / "run")
    full = load_trajectory(tmp_path / "run")
    window = (full.times[2] + outside, full.times[5] - outside)
    part = load_trajectory(tmp_path / "run", window=window)
    expect = full.window(*window)
    assert len(part.snapshots) == len(expect) == n_kept
    assert part.schedule == full.schedule
    for (t0, s0), (t1, s1) in zip(expect, part.snapshots):
        assert t0 == t1
        assert s0.time == s1.time
        assert s0.h.tobytes() == s1.h.tobytes()


def test_blocked_snapshot_raises_and_leaves_no_tmp(grid_small, tmp_path):
    traj = simulate(cosine(grid_small, 0.4, 0.1),
                    Schedule(dt=0.05, t_end=0.3, collision=BGK(1.0)))
    run = tmp_path / "run"
    # a non-empty directory in the place of snapshot 1 makes its rename fail
    (run / "snapshot_000001.txt").mkdir(parents=True)
    (run / "snapshot_000001.txt" / "keep").write_text("")
    with pytest.raises(OSError, match=r"snapshot_000001\.txt"):
        save_trajectory(traj, run)
    assert not list(run.glob("*.tmp"))
    assert (run / "snapshot_000000.txt").is_file()


def test_fp_trajectory_roundtrip(grid_small, tmp_path):
    s = cosine(grid_small, 0.3, 0.1)
    sched = Schedule(dt=0.05, t_end=0.2, collision=FokkerPlanck())
    traj = simulate(s, sched)
    save_trajectory(traj, tmp_path / "fp")
    back = load_trajectory(tmp_path / "fp")
    assert isinstance(back.schedule.collision, FokkerPlanck)


@pytest.mark.parametrize("collision", [BGK(1.0), FokkerPlanck()], ids=["bgk", "fp"])
def test_simulate_refuses_non_finite_step(collision):
    # k.v dt/2 overflows, so the phases and the state after one step are
    # NaN: a SimulationError at step 1 with no numpy warning
    s = cosine(build_grid(GridSpec(dim=1, nx=16, nv=8)), 0.3)
    with pytest.raises(SimulationError) as err:
        simulate(s, Schedule(dt=1e308, t_end=1e308, collision=collision))
    assert err.value.step == 1
    assert "non-finite" in str(err.value)


def split_grid():
    """A 2-D grid of 2^16 nodal values, with far-tail nodes of weight below
    1e-30."""
    return build_grid(GridSpec(dim=2, nx=16, nv=16))


def cpus(monkeypatch, n):
    """Make the process appear to be allowed on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def record_started_threads(monkeypatch):
    """The list of threads started from now on."""
    started = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("collision", [BGK(1.0), FokkerPlanck()], ids=["bgk", "fp"])
def test_split_steps_match_serial_bit_for_bit(collision, monkeypatch):
    # a 2-D run steps on the calling thread alone, so its bits do not
    # depend on the CPUs the process may run on
    s = random_band_limited(split_grid(), seed=3, amplitude=0.3)
    sched = Schedule(dt=0.01, t_end=0.1, collision=collision, snapshot_every=3)
    started = record_started_threads(monkeypatch)
    runs = {}
    for n in (1, 2):
        cpus(monkeypatch, n)
        before = threading.active_count()
        runs[n] = simulate(s, sched).snapshots
        assert started == [] and threading.active_count() == before
    assert len(runs[2]) == 5
    assert [t for t, _ in runs[1]] == [t for t, _ in runs[2]]
    for (_, a), (_, b) in zip(runs[1], runs[2]):
        assert a.h.tobytes() == b.h.tobytes()


def test_one_dim_simulate_starts_no_thread(grid_accept, monkeypatch):
    cpus(monkeypatch, 2)
    started = record_started_threads(monkeypatch)
    before = threading.active_count()
    simulate(cosine(grid_accept, 0.3), Schedule(dt=0.01, t_end=0.1, collision=BGK(1.0)))
    assert started == [] and threading.active_count() == before


@pytest.mark.parametrize("collision", [BGK(1.0), FokkerPlanck()], ids=["bgk", "fp"])
def test_split_steps_call_hypoflow_on_the_calling_thread(collision, monkeypatch):
    # a traced run keeps one span stack, which holds only if every public
    # function runs on the thread that called simulate
    cpus(monkeypatch, 2)
    calls = {}
    for module in (phase_space, operators, integrator):
        for name in ("to_nodes", "to_modes", "nodes_lower_bound", "integrate_mu",
                     "floor_immaterial", "bgk_relax"):
            if hasattr(module, name):
                def recorded(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls.setdefault(_name, set()).add(threading.get_ident())
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, recorded)
    s = random_band_limited(split_grid(), seed=3, amplitude=0.3)
    simulate(s, Schedule(dt=0.01, t_end=0.05, collision=collision))
    used = {"to_nodes", "to_modes", "integrate_mu",
            "bgk_relax" if isinstance(collision, BGK) else "floor_immaterial"}
    assert used <= calls.keys()
    assert all(idents == {threading.get_ident()} for idents in calls.values()), calls


def test_floored_cli_sized_diffusion_aborts_on_mass():
    # at nv = 16 the floor repairs of a 32x16 cosine(0.5) diffusion run add
    # mass past STEP_MASS_TOL; the abort does not depend on the snapshot
    # stride, which decides the steps transformed back to nodes
    grid = build_grid(GridSpec(dim=1, nx=32, nv=16))
    for every in (1, 10**6):
        with pytest.raises(SimulationError) as err:
            simulate(cosine(grid, 0.5), Schedule(dt=0.01, t_end=1.0, collision=FokkerPlanck(),
                                                  snapshot_every=every))
        assert err.value.step == 68
        assert "mass drifted" in str(err.value)


def record_repairs(monkeypatch):
    """Digests of the values floor_immaterial repaired, in call order."""
    repairs = []

    def floor(h, grid):
        out = floor_immaterial(h, grid)
        if out is not h:
            repairs.append(hashlib.sha256(out.tobytes()).hexdigest())
        return out

    monkeypatch.setattr(integrator, "floor_immaterial", floor)
    return repairs


BIT_RUNS = {
    # grid, collision, cosine amplitudes, dt, t_end, snapshot stride
    "bgk-1d": (GridSpec(dim=1, nx=64, nv=32), BGK(1.0), (0.4, 0.2), 0.01, 1.0, 10),
    "fp-1d": (GridSpec(dim=1, nx=64, nv=32), FokkerPlanck(), (0.4, 0.2), 0.01, 3.0, 10),
    "bgk-2d": (GridSpec(dim=2, nx=16, nv=8), BGK(1.3), (0.4, 0.2), 0.01, 0.5, 10),
    # the floored 2-D run of the CI workflow
    "fp-2d": (GridSpec(dim=2, nx=16, nv=16), FokkerPlanck(), (0.4, 0.0), 0.01, 1.0, 25),
    # the floored run of test_simulate_matches_physical_strang_through_floor_repairs
    "fp-accept": (GridSpec(dim=1, nx=64, nv=32), FokkerPlanck(), (0.4, 0.2), 0.03, 1.0, 4),
}


@pytest.mark.parametrize("run", sorted(BIT_RUNS))
def test_bound_changes_no_bit(run, monkeypatch):
    # every step taken on nodal values, as when the bound clears none, gives
    # the bytes and the floor repairs of the default run
    spec, collision, amplitudes, dt, t_end, every = BIT_RUNS[run]
    s = cosine(build_grid(spec), *amplitudes)
    sched = Schedule(dt=dt, t_end=t_end, collision=collision, snapshot_every=every)
    cleared = []

    def bound(modes, grid):
        value = phase_space.nodes_lower_bound(modes, grid)
        cleared.append(value >= phase_space.H_MIN)
        return value

    monkeypatch.setattr(integrator, "nodes_lower_bound", bound)
    repairs = record_repairs(monkeypatch)
    fast = simulate(s, sched).snapshots
    fast_repairs = list(repairs)
    assert any(cleared)
    monkeypatch.setattr(integrator, "nodes_lower_bound", lambda modes, grid: -math.inf)
    repairs.clear()
    slow = simulate(s, sched).snapshots
    assert repairs == fast_repairs
    assert (len(repairs) > 0) == isinstance(collision, FokkerPlanck)
    assert [t for t, _ in fast] == [t for t, _ in slow]
    for (_, a), (_, b) in zip(fast, slow):
        assert a.h.tobytes() == b.h.tobytes()
