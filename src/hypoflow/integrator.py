"""Strang composition of the exact sub-flows, with trajectory recording.

A step is transport(dt/2) . collision(dt) . transport(dt/2); since the
sub-flows themselves are exact, the splitting is the only source of time
discretization error and the scheme is second order.

Both collision operators act on v alone, so they commute with the Fourier
transform in x. `simulate` therefore carries the state as its half-spectrum
x-modes, where transport is a diagonal phase table and the collision its
`velocity_flow`, both built once per step length. Every step is checked:
its mass is read from the zero x-mode, and its positivity from
`nodes_lower_bound` of the modes after the collision. A step that stores
a snapshot, or whose bound falls below H_MIN, is transformed back to nodal
values: diffusion floors them after the collision and again at the end of
the step, as `collision_flow` does on a nodal state, and the nodal h is
checked for positivity and finiteness. Any other step stays on the modes.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

from .operators import BGK, CollisionKind, FokkerPlanck, time_scale, transport_phases
from .phase_space import (
    H_MIN,
    Grid,
    GridSpec,
    State,
    build_grid,
    floor_immaterial,
    load_state,
    nodes_lower_bound,
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
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
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


def strang_step(state: State, dt: float, collision: CollisionKind) -> State:
    """One symmetric splitting step of the full dynamics: the one step of
    `simulate` over [state.time, state.time + dt]. Nothing in the package
    calls it; the benchmark's traced run reports its call count."""
    return simulate(state, Schedule(dt=dt, t_end=dt, collision=collision)).final()


def _floored(modes: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The nodal values of `modes` through floor_immaterial, and their modes:
    transformed again only when the floor repaired a value."""
    h = to_nodes(modes, grid)
    floored = floor_immaterial(h, grid)
    return (modes, h) if floored is h else (to_modes(floored, grid), floored)


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
    t0 = now = initial.time
    modes = to_modes(initial.h, grid)
    dc = (0,) * grid.dim
    diffusion = isinstance(schedule.collision, FokkerPlanck)
    table_dt = phases = collide = None
    for step in range(1, n_steps + 1):
        target = min(t0 + step * schedule.dt, t0 + schedule.t_end)
        # one set of flows serves every step within n_steps' round-off slack of dt
        dt = schedule.dt
        if step == n_steps and abs(target - now - dt) > 1e-12 * dt:
            dt = target - now
        if dt != table_dt:
            # a step so long that k.v dt/2 overflows makes NaN phases,
            # and the checks below refuse the state they give
            with np.errstate(over="ignore", invalid="ignore"):
                table_dt, phases = dt, transport_phases(grid, 0.5 * dt)
                collide = schedule.collision.velocity_flow(grid, dt)
        modes = collide(modes * phases)
        snapshot = step % schedule.snapshot_every == 0 or step == n_steps
        # the closing transport half-step multiplies each mode by a unit
        # phase and the zero mode by 1, so a bound that clears the modes
        # after the collision clears the step: no floor would repair
        nodal = snapshot or not nodes_lower_bound(modes, grid) >= H_MIN
        if nodal and diffusion:
            # the floor of collision_flow, where the nodal flow has it
            modes = _floored(modes, grid)[0]
        modes *= phases
        if nodal:
            if diffusion:
                # the closing transport half-step can shift a repaired far-tail
                # column below the floor again by an equally immaterial amount
                modes, h = _floored(modes, grid)
            else:
                h = to_nodes(modes, grid)
            hmin = float(h.min())
            if hmin < STEP_POSITIVITY_FLOOR:
                raise SimulationError(
                    f"positivity violated, min h = {hmin:.3e}", step)
            if not np.isfinite(h).all():
                raise SimulationError("h has non-finite entries", step)
        # the integral against mu of the nodal h, read from its zero x-mode
        mass = float(modes[dc].real @ grid.v_weights) / grid.nx_total
        if abs(mass - 1.0) > STEP_MASS_TOL:
            raise SimulationError(
                f"mass drifted to {mass!r}", step)
        now = target
        if snapshot:
            snaps.append((now, State(grid, h, time=now)))
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
    """Manifest plus one snapshot file per stored step. The snapshot files
    an earlier run left in `directory` are removed first, so that no
    snapshot's rename lands on an existing file, which some file systems
    flush to disk; other files stay."""
    os.makedirs(directory, exist_ok=True)
    with os.scandir(directory) as entries:
        stale = [e.path for e in entries if re.fullmatch(r"snapshot_\d+\.txt", e.name)
                 and e.is_file(follow_symlinks=False)]
    for path in stale:
        os.remove(path)
    grid = traj.snapshots[0][1].grid
    manifest = {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "grid": asdict(grid.spec),
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


# The type of every manifest field that load_trajectory reads (float: any
# number); a relaxation collision also has a numeric "rate".
_MANIFEST_FIELDS = {
    "grid": {"dim": int, "nx": int, "nv": int, "period": float},
    "schedule": {"dt": float, "t_end": float, "snapshot_every": int},
    "collision": {"kind": str},
}


def _read_manifest(directory) -> dict:
    """The manifest of a trajectory directory. A ValueError names the
    manifest and the field unless the manifest is of format
    TRAJECTORY_FORMAT_VERSION, every field load_trajectory reads has its
    type and every snapshot time is finite."""
    path = os.path.join(directory, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)

    def check(value, name, kind):
        kinds = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{path}: {name} is {value!r}, expected {kind.__name__}")
        return value

    check(manifest, "the manifest", dict)
    if check(manifest.get("format_version"), "format_version", int) != TRAJECTORY_FORMAT_VERSION:
        raise ValueError(f"{path}: format_version is {manifest['format_version']!r}, "
                         f"expected {TRAJECTORY_FORMAT_VERSION}")
    for part, fields in _MANIFEST_FIELDS.items():
        check(manifest.get(part), part, dict)
        for key, kind in fields.items():
            check(manifest[part].get(key), f"{part}.{key}", kind)
    if manifest["collision"]["kind"] == BGK.name:
        check(manifest["collision"].get("rate"), "collision.rate", float)
    for i, entry in enumerate(check(manifest.get("snapshots"), "snapshots", list)):
        check(entry, f"snapshots[{i}]", dict)
        check(entry.get("file"), f"snapshots[{i}].file", str)
        if not math.isfinite(check(entry.get("time"), f"snapshots[{i}].time", float)):
            raise ValueError(f"{path}: snapshots[{i}].time is {entry['time']!r}, "
                             "expected a finite number")
    return manifest


def snapshot_times(directory) -> list[float]:
    """The snapshot times the manifest of a trajectory directory lists; no
    snapshot file is opened."""
    times = [entry["time"] for entry in _read_manifest(directory)["snapshots"]]
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
    try:
        grid = build_grid(GridSpec(dim=g["dim"], nx=g["nx"], nv=g["nv"],
                                   period=g["period"]))
        schedule = Schedule(
            dt=manifest["schedule"]["dt"],
            t_end=manifest["schedule"]["t_end"],
            snapshot_every=manifest["schedule"]["snapshot_every"],
            collision=_collision_from_dict(manifest["collision"]),
        )
    except ValueError as exc:
        # each message names its field
        raise ValueError(f"{os.path.join(directory, 'manifest.json')}: {exc}") from None
    snaps = []
    for entry in manifest["snapshots"]:
        t = entry["time"]
        path = os.path.join(directory, entry["file"])
        if window is None or _in_window(t, *window):
            state = load_state(path, grid)
            if state.time != t:
                raise ValueError(f"{path}: snapshot header time={state.time!r} "
                                 f"disagrees with the manifest time {t!r}")
            snaps.append((t, state))
    return Trajectory(snaps, schedule)
