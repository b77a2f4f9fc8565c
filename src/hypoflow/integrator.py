"""Strang composition of the exact sub-flows, with trajectory recording.

A step is transport(dt/2) . collision(dt) . transport(dt/2); since the
sub-flows themselves are exact, the splitting is the only source of time
discretization error and the scheme is second order.

Both collision operators act on v alone, so they commute with the Fourier
transform in x. `simulate` therefore carries the state as its half-spectrum
x-modes, where transport is a diagonal phase table built once per step
length, and returns to physical space once per step. The positivity and
mass checks still read the physical h after every step.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .operators import BGK, CollisionKind, FokkerPlanck, time_scale, transport_phases
from .phase_space import (
    Grid,
    GridSpec,
    State,
    build_grid,
    floor_immaterial,
    integrate_mu,
    load_state,
    save_state,
    to_modes,
    to_nodes,
    write_json,
)

TRAJECTORY_FORMAT_VERSION = 1

# A run aborts when the mass of h after a step drifts from 1 by more than
# STEP_MASS_TOL, or when min h falls below STEP_POSITIVITY_FLOOR.
STEP_MASS_TOL = 1e-9
STEP_POSITIVITY_FLOOR = -1e-8


class SimulationError(RuntimeError):
    """An invariant failed mid-run; carries the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class Schedule:
    """Time stepping plan: fixed step, final time, snapshot stride."""

    dt: float
    t_end: float
    collision: CollisionKind
    snapshot_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")


@dataclass
class Trajectory:
    snapshots: list[tuple[float, State]]
    schedule: Schedule

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    @property
    def states(self) -> list[State]:
        return [s for _, s in self.snapshots]

    def final(self) -> State:
        return self.snapshots[-1][1]

    def window(self, t0: float, t1: float) -> list[tuple[float, State]]:
        """The snapshots with t0 <= t <= t1, up to 1e-12 of round-off."""
        return [(t, s) for t, s in self.snapshots if _in_window(t, t0, t1)]


def _in_window(t: float, t0: float, t1: float) -> bool:
    return t0 - 1e-12 <= t <= t1 + 1e-12


def default_dt(collision: CollisionKind) -> float:
    """Step keeping splitting error below the functional tolerances."""
    return 0.01 * time_scale(collision)


def _strang_modes(modes: np.ndarray, grid: Grid, phases: np.ndarray, dt: float,
                  collision: CollisionKind) -> tuple[np.ndarray, np.ndarray]:
    """One symmetric splitting step on x-modes, with `phases` the transport
    table of dt/2; returns the new modes and the nodal h.

    The diffusion path floors measure-immaterial negative excursions after
    the closing transport half-step: shifting a repaired far-tail column
    can undershoot again by an equally immaterial amount. The modes are
    transformed again only when the floor repaired a value.
    """
    modes = collision.flow_modes(modes * phases, grid, dt)
    modes *= phases
    h = to_nodes(modes, grid)
    if isinstance(collision, FokkerPlanck):
        floored = floor_immaterial(h, grid)
        if floored is not h:
            h, modes = floored, to_modes(floored, grid)
    return modes, h


def strang_step(state: State, dt: float, collision: CollisionKind) -> State:
    """One symmetric splitting step of the full dynamics."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    _, h = _strang_modes(to_modes(state.h, grid), grid,
                         transport_phases(grid, 0.5 * dt), dt, collision)
    return state.replace(h, time=state.time + dt)


def simulate(initial: State, schedule: Schedule) -> Trajectory:
    """Run the schedule, recording snapshots at the requested stride.

    Aborts with SimulationError when mass conservation or positivity is
    violated after any step; the final time is always hit, shortening the
    last step if t_end is not a multiple of dt.
    """
    initial.validate()
    snaps = [(initial.time, initial)]
    if schedule.t_end == 0.0:
        return Trajectory(snaps, schedule)

    grid = initial.grid
    n_steps = int(np.ceil(schedule.t_end / schedule.dt - 1e-12))
    state = initial
    t0 = initial.time
    modes = to_modes(initial.h, grid)
    table_dt = phases = None
    for step in range(1, n_steps + 1):
        target = min(t0 + step * schedule.dt, t0 + schedule.t_end)
        # every step but the last has the nominal length, so its table is
        # built once; the last step ends exactly on t_end with its own table
        dt = schedule.dt if step < n_steps else target - state.time
        if dt != table_dt:
            table_dt, phases = dt, transport_phases(grid, 0.5 * dt)
        modes, h = _strang_modes(modes, grid, phases, dt, schedule.collision)
        state = State(grid, h, time=target)
        hmin = float(h.min())
        if hmin < STEP_POSITIVITY_FLOOR:
            raise SimulationError(
                f"positivity violated, min h = {hmin:.3e}", step)
        mass = integrate_mu(h, grid)
        if abs(mass - 1.0) > STEP_MASS_TOL:
            raise SimulationError(
                f"mass drifted to {mass!r}", step)
        if step % schedule.snapshot_every == 0 or step == n_steps:
            snaps.append((state.time, state))
    return Trajectory(snaps, schedule)


# --- persistence -------------------------------------------------------------

def _collision_to_dict(c: CollisionKind) -> dict:
    if isinstance(c, BGK):
        return {"kind": c.name, "rate": c.rate}
    return {"kind": c.name}


def _collision_from_dict(d: dict) -> CollisionKind:
    if d["kind"] == BGK.name:
        return BGK(rate=float(d["rate"]))
    if d["kind"] == FokkerPlanck.name:
        return FokkerPlanck()
    raise ValueError(f"unknown collision kind {d['kind']!r}")


def save_trajectory(traj: Trajectory, directory) -> None:
    """Manifest plus one snapshot file per stored step; a snapshot file that
    an earlier run left in `directory` and the manifest does not list is
    removed."""
    os.makedirs(directory, exist_ok=True)
    grid = traj.snapshots[0][1].grid
    manifest = {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "grid": {"dim": grid.spec.dim, "nx": grid.spec.nx,
                 "nv": grid.spec.nv, "period": grid.spec.period},
        "schedule": {"dt": traj.schedule.dt, "t_end": traj.schedule.t_end,
                     "snapshot_every": traj.schedule.snapshot_every},
        "collision": _collision_to_dict(traj.schedule.collision),
        "snapshots": [
            {"time": t, "file": f"snapshot_{i:06d}.txt"}
            for i, (t, _) in enumerate(traj.snapshots)
        ],
    }
    write_json(os.path.join(directory, "manifest.json"), manifest)
    for (_, state), entry in zip(traj.snapshots, manifest["snapshots"]):
        save_state(state, os.path.join(directory, entry["file"]))
    listed = {entry["file"] for entry in manifest["snapshots"]}
    for name in os.listdir(directory):
        if re.fullmatch(r"snapshot_\d+\.txt", name) and name not in listed:
            os.remove(os.path.join(directory, name))


def _read_manifest(directory) -> dict:
    with open(os.path.join(directory, "manifest.json")) as f:
        return json.load(f)


def _snapshot_time(directory, index: int, entry: dict) -> float:
    """The time of manifest entry `index`; a ValueError naming the manifest
    and the entry unless it is a finite number."""
    t = entry["time"]
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        raise ValueError(f"{os.path.join(directory, 'manifest.json')}: snapshots[{index}] "
                         f"has time {t!r}, expected a finite number")
    return t


def snapshot_times(directory) -> list[float]:
    """The snapshot times the manifest of a trajectory directory lists; no
    snapshot file is opened."""
    times = [_snapshot_time(directory, i, entry)
             for i, entry in enumerate(_read_manifest(directory)["snapshots"])]
    if not times:
        raise ValueError(f"{directory}: the manifest lists no snapshots")
    return times


def load_trajectory(directory, window: tuple[float, float] | None = None) -> Trajectory:
    """The trajectory saved in `directory`. With a window (t0, t1), only the
    snapshots that `Trajectory.window(t0, t1)` keeps are read, by their
    manifest time; the others are not opened. A snapshot whose header time
    differs from its manifest time is a ValueError."""
    manifest = _read_manifest(directory)
    g = manifest["grid"]
    grid = build_grid(GridSpec(dim=g["dim"], nx=g["nx"], nv=g["nv"],
                               period=g["period"]))
    schedule = Schedule(
        dt=manifest["schedule"]["dt"],
        t_end=manifest["schedule"]["t_end"],
        snapshot_every=manifest["schedule"]["snapshot_every"],
        collision=_collision_from_dict(manifest["collision"]),
    )
    snaps = []
    for i, entry in enumerate(manifest["snapshots"]):
        t = _snapshot_time(directory, i, entry)
        path = os.path.join(directory, entry["file"])
        if window is None or _in_window(t, *window):
            state = load_state(path, grid)
            if state.time != t:
                raise ValueError(f"{path}: snapshot header time={state.time!r} "
                                 f"disagrees with the manifest time {t!r}")
            snaps.append((t, state))
    return Trajectory(snaps, schedule)
