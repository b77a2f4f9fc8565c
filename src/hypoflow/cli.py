"""Configuration-driven command line: simulate, certify, verify, fit-decay,
estimate-constant.

Configs are INI files (key = value under sections); the only positional
arguments are the subcommand and the config path, with --output-dir,
--seed and --jobs (only 1) overrides. An unknown section, or an unknown
key in a known section, is a configuration error. Exit codes: 0 success,
1 configuration error, 2 invariant or assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import os
import sys
import warnings

from . import __version__
from .certificate import certify, estimate_functional_constant
from .functionals import (
    DIAGNOSTIC_COLUMNS,
    PIndex,
    build_report,
    composite_report,
    write_report_csv,
    write_report_json,
)
from .initial import (
    MAX_RANDOM_AMPLITUDE,
    cosine,
    equilibrium,
    random_band_limited,
    velocity_perturbation,
)
from .integrator import (
    Schedule,
    SimulationError,
    default_dt,
    load_trajectory,
    save_trajectory,
    simulate,
    snapshot_times,
)
from .operators import BGK, FokkerPlanck
from .phase_space import Grid, GridSpec, PositivityError, build_grid, open_fresh, write_json
from .verifier import CorruptedBGK, fit_decay, run_suite, save_results, summarize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2


class ConfigError(ValueError):
    pass


# The sections that are read, each with every key it is read for; any other
# section or key is rejected rather than silently ignored.
KNOWN_KEYS = {
    "grid": {"dim", "nx", "nv"},
    "model": {"kind", "lambda", "p"},
    "initial": {"family", "seed", "amplitude", "v_amplitude", "x_modes", "v_degree"},
    "schedule": {"dt", "t_end", "snapshot_every"},
    "output": {"directory"},
    "certificate": {"c", "eta"},
    "verify": {"n_states", "seed", "amplitude", "corruption"},
    "fit": {"trajectory", "functional", "t_start", "t_end"},
}


def _load_config(path) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: a value is read as written, so a "%" in it is not a
    # configparser error at the first read of its key
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cfg.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; the report is one line
        text = " ".join(str(exc).split())
        raise ConfigError(f"cannot read config file {path}: {text}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    unknown = sorted(set(cfg.sections()) - set(KNOWN_KEYS))
    if unknown:
        raise ConfigError(f"unknown section: {', '.join(f'[{s}]' for s in unknown)}")
    for section, known in KNOWN_KEYS.items():
        if cfg.has_section(section):
            unknown = sorted(set(cfg.options(section)) - known)
            if unknown:
                raise ConfigError(f"[{section}] unknown key: {', '.join(unknown)}")
    return cfg


def _config_hash(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _value(cfg, section, key, parse, default=None):
    """`key` of `section` read by `parse`, or `default` read the same way
    when the key is absent; None when both are."""
    value = cfg.get(section, key, fallback=default)
    if value is None:
        return None
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {value!r}: {exc}") from exc


def _given(cfg, section, **parsers) -> dict:
    """The keys of `section` that the config sets, each read by its parser;
    a key left out is not passed on, so the library's default applies."""
    return {key: _value(cfg, section, key, parse)
            for key, parse in parsers.items() if cfg.has_option(section, key)}


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _validated(what, build, **kwargs):
    """build(**kwargs), reporting the ValueError of a rejected value as a
    ConfigError."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _seed(cfg, section, override) -> int:
    """--seed, else the section's seed, else HYPOFLOW_SEED, else 0; a
    non-negative integer."""
    seed = override
    if seed is None:
        seed = _value(cfg, section, "seed", int, os.environ.get("HYPOFLOW_SEED", "0"))
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _random_amplitude(text) -> float:
    """An amplitude that random_band_limited accepts."""
    value = _finite_float(text)
    if not abs(value) <= MAX_RANDOM_AMPLITUDE:
        raise ValueError(f"expected |amplitude| <= {MAX_RANDOM_AMPLITUDE:.4g}")
    return value


def _grid_from_config(cfg) -> GridSpec:
    return _validated("grid section", GridSpec,
                      **_given(cfg, "grid", dim=int, nx=int, nv=int))


def _build_grid(cfg) -> Grid:
    """The grid of the [grid] section; an nv whose quadrature numpy cannot
    compute is a configuration error."""
    return _validated("grid section", build_grid, spec=_grid_from_config(cfg))


def _model_from_config(cfg):
    kind = cfg.get("model", "kind", fallback=BGK.name).strip().lower()
    p = _value(cfg, "model", "p", PIndex.parse, "boltzmann")
    if kind == BGK.name:
        lam = _value(cfg, "model", "lambda", _finite_float)
        if lam is None:
            raise ConfigError("the relaxation model needs lambda")
        return _validated("model", BGK, rate=lam), p
    if kind == FokkerPlanck.name:
        return FokkerPlanck(), p
    raise ConfigError(f"unknown model kind {kind!r}")


def _initial_from_config(cfg, grid, seed_override):
    """The initial state and its seed; the seed is None for a family that
    draws no random numbers."""
    family = cfg.get("initial", "family", fallback="cosine").strip().lower()
    seed = None
    if family == "equilibrium":
        state = equilibrium(grid)
    elif family == "cosine":
        state = _validated(
            "initial data", cosine, grid=grid,
            **_given(cfg, "initial", amplitude=_finite_float, v_amplitude=_finite_float))
    elif family == "velocity":
        state = _validated(
            "initial data", velocity_perturbation, grid=grid,
            **_given(cfg, "initial", amplitude=_finite_float))
    elif family == "random":
        seed = _seed(cfg, "initial", seed_override)
        state = _validated(
            "initial data", random_band_limited, grid=grid, seed=seed,
            **_given(cfg, "initial", amplitude=_finite_float, x_modes=int, v_degree=int))
    else:
        raise ConfigError(f"unknown initial family {family!r}")
    if float(state.h.min()) < 0.1:
        raise ConfigError(
            f"initial amplitudes must keep h >= 0.1 everywhere; "
            f"min h = {state.h.min():.3f}")
    return state, seed


def _schedule_from_config(cfg, collision) -> Schedule:
    return _validated(
        "schedule", Schedule,
        dt=_value(cfg, "schedule", "dt", _finite_float, default_dt(collision)),
        t_end=_value(cfg, "schedule", "t_end", _finite_float, 10.0),
        snapshot_every=_value(cfg, "schedule", "snapshot_every", int, 10),
        collision=collision,
    )


def _output_dir(cfg, override) -> str:
    if override:
        return override
    if cfg.has_section("output"):
        return cfg["output"].get("directory", "out")
    return "out"


def _write_manifest(outdir, command, config_path, grid_spec, seed, extra=None):
    """The record of one command's run, `<command>-manifest.json`, so that
    commands sharing an output directory keep one record each."""
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config_hash": _config_hash(config_path),
        "grid": dataclasses.asdict(grid_spec),
        "seed": seed,
    }
    if extra:
        manifest.update(extra)
    write_json(os.path.join(outdir, f"{command}-manifest.json"), manifest)


def _certificate_from_config(cfg, grid, collision, p):
    return _validated("certificate", certify, grid=grid, collision=collision, p=p,
                      **_given(cfg, "certificate", C=_finite_float, eta=_finite_float))


def _start_writer(traj, directory):
    """save_trajectory(traj, directory) in one forked child, so that the
    snapshot text is written while this process builds the reports; returns
    the child's pid and the read end of the pipe that carries its failure.
    Where os.fork does not exist the trajectory is saved here and None is
    returned."""
    if not hasattr(os, "fork"):
        save_trajectory(traj, directory)
        return None
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads (numpy's
            # BLAS pool) may deadlock the child. This child only formats text
            # and writes files; it makes no BLAS call.
            warnings.filterwarnings("ignore", message=r".*fork\(\)",
                                    category=DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            save_trajectory(traj, directory)
        except BaseException as exc:
            status = 1
            with open(write_fd, "wb") as pipe:
                pipe.write(str(exc).encode("utf-8", "backslashreplace"))
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join_writer(writer, directory) -> None:
    """Wait for the child of _start_writer; its failure is an OSError with
    the text of the child's exception."""
    if writer is None:
        return
    pid, read_fd = writer
    with open(read_fd, "rb") as pipe:
        text = pipe.read().decode("utf-8", "replace")
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise OSError(f"the snapshot writer for {directory} was killed by signal {-code}")
    if code != 0:
        raise OSError(text or f"the snapshot writer for {directory} exited with status {code}")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg)
    collision, p = _model_from_config(cfg)
    initial, seed = _initial_from_config(cfg, grid, args.seed)
    schedule = _schedule_from_config(cfg, collision)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    model = collision.name
    try:
        traj = simulate(initial, schedule)
    except (SimulationError, PositivityError) as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    traj_dir = os.path.join(outdir, "trajectory")
    writer = _start_writer(traj, traj_dir)
    try:
        reports = [build_report(state, p, model=model) for _, state in traj.snapshots]
    finally:
        _join_writer(writer, traj_dir)
    write_report_csv(reports, os.path.join(outdir, "functionals.csv"))
    write_report_json(reports, os.path.join(outdir, "functionals.json"))
    _write_manifest(outdir, "simulate", args.config, grid.spec, seed, extra={
        "model": model, "p": p.label(),
        "schedule": {"dt": schedule.dt, "t_end": schedule.t_end,
                     "snapshot_every": schedule.snapshot_every},
    })
    print(f"wrote {len(reports)} snapshots to {outdir}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg)
    collision, p = _model_from_config(cfg)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    cert = _certificate_from_config(cfg, grid, collision, p)
    path = os.path.join(outdir, "certificate.json")
    cert.save_json(path)
    # a certificate draws no random numbers, so it records no seed
    _write_manifest(outdir, "certify", args.config, grid.spec, None,
                    extra={"model": cert.model})
    print(f"model {cert.model}: rate {cert.rate:.6e} "
          f"(feasible: {cert.feasible}, binding: {cert.feasibility.binding})")
    print(f"wrote {path}")
    return EXIT_OK if cert.feasible else EXIT_ASSERTION


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg)
    collision, p = _model_from_config(cfg)
    n_states = _value(cfg, "verify", "n_states", int, 100)
    if n_states < 1:
        raise ConfigError(f"n_states must be at least 1, got {n_states}")
    skew = _value(cfg, "verify", "corruption", _finite_float)
    if skew is not None:
        if not isinstance(collision, BGK):
            raise ConfigError("[verify] corruption skews the relaxation flow; "
                              "the velocity-diffusion model has none")
        collision = _validated("[verify] corruption", CorruptedBGK,
                               rate=collision.rate, skew=skew)
    seed0 = _seed(cfg, "verify", args.seed)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    results = run_suite(grid, collision, p, n_states=n_states, seed0=seed0,
                        **_given(cfg, "verify", amplitude=_random_amplitude))
    save_results(results, os.path.join(outdir, "verification.json"))
    table = summarize(results)
    with open_fresh(os.path.join(outdir, "verification.txt")) as f:
        f.write(table + "\n")
    print(table)
    _write_manifest(outdir, "verify", args.config, grid.spec, seed0, extra={
        "model": collision.name, "p": p.label(),
        "n_states": n_states, "checks": len(results),
    })
    failed = sum(0 if r.passed else 1 for r in results)
    return EXIT_OK if failed == 0 else EXIT_ASSERTION


def cmd_fit_decay(args) -> int:
    cfg = _load_config(args.config)
    traj_dir = cfg.get("fit", "trajectory", fallback=None)
    if traj_dir is None:
        raise ConfigError("the fit section needs a trajectory directory")
    if not os.path.isdir(traj_dir):
        raise ConfigError(f"trajectory directory not found: {traj_dir}")
    collision, p = _model_from_config(cfg)
    t_lo = _value(cfg, "fit", "t_start", _finite_float)
    t_hi = _value(cfg, "fit", "t_end", _finite_float)
    try:
        # an absent bound is the first or last snapshot the manifest lists
        times = snapshot_times(traj_dir)
        t_lo = times[0] if t_lo is None else t_lo
        t_hi = times[-1] if t_hi is None else t_hi
        traj = load_trajectory(traj_dir, window=(t_lo, t_hi))
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"unreadable trajectory in {traj_dir}: {exc}") from exc
    if traj.schedule.collision != collision:
        raise ConfigError(f"the trajectory in {traj_dir} was simulated with "
                          f"{traj.schedule.collision}, but [model] gives {collision}")
    if len(traj.snapshots) < 2:
        raise ConfigError(f"the fit window [{t_lo}, {t_hi}] holds fewer than two snapshots")
    name = cfg.get("fit", "functional", fallback="entropy").strip()
    if name != "composite" and name not in DIAGNOSTIC_COLUMNS:
        raise ConfigError(f"functional {name!r} is neither composite nor one of "
                          f"{', '.join(DIAGNOSTIC_COLUMNS)}")

    model = collision.name
    grid = traj.snapshots[0][1].grid
    if name == "composite":
        cert = _certificate_from_config(cfg, grid, collision, p)

        def functional(state):
            # the composite reads only the composite columns
            return cert.functional(composite_report(state, p))
    else:
        def functional(state):
            rep = build_report(state, p, model=model)
            val = getattr(rep, name, None)
            if val is None:
                raise ConfigError(f"functional {name!r} not available for this model")
            return val

    try:
        fit = fit_decay(traj, functional, (t_lo, t_hi), name=name)
    except (ConfigError, PositivityError):
        raise
    except ValueError as exc:
        # fewer than two snapshots above the floor
        raise ConfigError(f"cannot fit {name} over [{t_lo}, {t_hi}]: {exc}") from exc
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "decay_fit.json"), fit.to_dict())
    # a fit draws no random numbers, so it records no seed
    _write_manifest(outdir, "fit-decay", args.config, grid.spec, None, extra={
        "model": model, "p": p.label(),
        "trajectory": traj_dir, "functional": name, "window": [t_lo, t_hi],
    })
    print(f"{name}: rate {fit.rate:.6e}, r^2 {fit.r_squared:.6f} "
          f"over [{fit.t_start}, {fit.t_end}]")
    return EXIT_OK


def cmd_estimate_constant(args) -> int:
    cfg = _load_config(args.config)
    grid = _build_grid(cfg)
    _, p = _model_from_config(cfg)
    est = estimate_functional_constant(grid, p)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "constant.json"), {
        "p": est.p, "ratio": est.value, "raw_ratio": est.raw_ratio,
        "coercivity": est.coercivity,
    })
    # the constant draws no random numbers, so it records no seed
    _write_manifest(outdir, "estimate-constant", args.config, grid.spec, None)
    print(f"entropy/Fisher ratio constant: {est.value:.8e}")
    print(f"coercivity orientation: {est.coercivity:.6e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypoflow",
        description="kinetic relaxation / velocity-diffusion simulator with "
                    "entropy-dissipation diagnostics and decay certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, desc in (
        ("simulate", cmd_simulate, "run a schedule and write functional reports"),
        ("certify", cmd_certify, "evaluate or optimize a decay certificate"),
        ("verify", cmd_verify, "run the dissipation-identity suite"),
        ("fit-decay", cmd_fit_decay, "fit an exponential rate to a trajectory"),
        ("estimate-constant", cmd_estimate_constant,
         "evaluate the torus entropy/Fisher constant"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to the INI configuration")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config / HYPOFLOW_SEED seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker count; only 1 is accepted")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs != 1:
            raise ConfigError(f"--jobs {args.jobs}: only 1 is accepted")
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, PositivityError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as exc:
        # inputs that cannot be read are ConfigErrors already, so an
        # OSError here came from creating or writing an output
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
