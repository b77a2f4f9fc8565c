"""Configuration-driven command line: simulate, certify, verify, fit-decay,
estimate-constant.

Configs are INI files (key = value under sections); the only positional
arguments are the subcommand and the config path, with --output-dir,
--seed and --jobs overrides. Exit codes: 0 success, 1 configuration
error, 2 invariant or assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys

from . import __version__
from .certificate import (
    estimate_functional_constant,
    optimize_rate,
    paper_constants_bgk,
    paper_constants_bgk_p,
)
from .functionals import (
    FunctionalReport,
    PIndex,
    build_report,
    composite_value,
    write_report_csv,
    write_report_json,
)
from .initial import cosine, equilibrium, random_band_limited, velocity_perturbation
from .integrator import (
    Schedule,
    SimulationError,
    default_dt,
    load_trajectory,
    save_trajectory,
    simulate,
)
from .operators import BGK, FokkerPlanck
from .phase_space import GridSpec, PositivityError, build_grid
from .verifier import fit_decay, run_suite, save_results, summarize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2


class ConfigError(ValueError):
    pass


def _load_config(path) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(path)
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
    """--seed, else the section's seed, else HYPOFLOW_SEED, else 0."""
    if override is not None:
        return override
    return _value(cfg, section, "seed", int, os.environ.get("HYPOFLOW_SEED", "0"))


def _grid_from_config(cfg) -> GridSpec:
    return _validated(
        "grid section", GridSpec,
        dim=_value(cfg, "grid", "dim", int, 1),
        nx=_value(cfg, "grid", "nx", int, 64),
        nv=_value(cfg, "grid", "nv", int, 32),
    )


def _model_from_config(cfg):
    kind = cfg.get("model", "kind", fallback="bgk").strip().lower()
    p = _value(cfg, "model", "p", PIndex.parse, "boltzmann")
    if kind == "bgk":
        lam = _value(cfg, "model", "lambda", _finite_float)
        if lam is None:
            raise ConfigError("the relaxation model needs lambda")
        return _validated("model", BGK, rate=lam), p
    if kind in ("fokker-planck", "fp"):
        if p.is_log:
            raise ConfigError(
                "the velocity-diffusion model is analyzed for power entropies; "
                "set p in (1, 2]")
        return FokkerPlanck(), p
    raise ConfigError(f"unknown model kind {kind!r}")


def _initial_from_config(cfg, grid, seed_override):
    family = cfg.get("initial", "family", fallback="cosine").strip().lower()
    seed = _seed(cfg, "initial", seed_override)
    if family == "equilibrium":
        state = equilibrium(grid)
    elif family == "cosine":
        state = _validated(
            "initial data", cosine, grid=grid,
            amplitude=_value(cfg, "initial", "amplitude", _finite_float, 0.5),
            v_amplitude=_value(cfg, "initial", "v_amplitude", _finite_float, 0.0),
        )
    elif family == "velocity":
        state = _validated(
            "initial data", velocity_perturbation, grid=grid,
            amplitude=_value(cfg, "initial", "amplitude", _finite_float, 0.3))
    elif family == "random":
        state = _validated(
            "initial data", random_band_limited, grid=grid, seed=seed,
            amplitude=_value(cfg, "initial", "amplitude", _finite_float, 0.25),
            x_modes=_value(cfg, "initial", "x_modes", int, 2),
            v_degree=_value(cfg, "initial", "v_degree", int, 2),
        )
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


def _write_manifest(outdir, config_path, grid_spec, seed, extra=None):
    manifest = {
        "artifact_version": __version__,
        "config_hash": _config_hash(config_path),
        "grid": {"dim": grid_spec.dim, "nx": grid_spec.nx, "nv": grid_spec.nv},
        "seed": seed,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def _model_name(collision) -> str:
    return "fokker-planck" if isinstance(collision, FokkerPlanck) else "bgk"


def _model_tag(collision, p: PIndex) -> str:
    if isinstance(collision, BGK):
        return "bgk-log" if p.is_log else "bgk-power"
    return "fokker-planck-power"


def _certificate_inputs(cfg, grid, collision, p):
    """Resolve the functional constant and splitter, honoring overrides."""
    C = _value(cfg, "certificate", "c", _finite_float)
    eta = _value(cfg, "certificate", "eta", _finite_float)
    if eta is not None and not isinstance(collision, BGK):
        raise ConfigError("[certificate] eta is the relaxation model's Young "
                          "splitter; the velocity-diffusion certificate has none")
    if C is None:
        est = estimate_functional_constant(grid, p)
        if isinstance(collision, BGK):
            # certificates consume the coercivity orientation of the
            # spatial inequality
            C = est.coercivity
        else:
            # phase-space ratio constant: the Gaussian direction dominates
            # the product measure at 1/2
            C = max(est.value, 0.5)
    return C, eta


def _certificate(model, collision, p, C, eta):
    if eta is None:
        return optimize_rate(model,
                             lam=collision.rate if isinstance(collision, BGK) else None,
                             p=p.p, C=C)
    if model == "bgk-log":
        return paper_constants_bgk(collision.rate, C=C, eta=eta)
    return paper_constants_bgk_p(collision.rate, p.p, C=C, eta=eta)


def _certify(cfg, grid, collision, p):
    C, eta = _certificate_inputs(cfg, grid, collision, p)
    return _validated("certificate", _certificate, model=_model_tag(collision, p),
                      collision=collision, p=p, C=C, eta=eta)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = _grid_from_config(cfg)
    grid = build_grid(spec)
    collision, p = _model_from_config(cfg)
    initial, seed = _initial_from_config(cfg, grid, args.seed)
    schedule = _schedule_from_config(cfg, collision)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    model = _model_name(collision)
    try:
        traj = simulate(initial, schedule)
    except (SimulationError, PositivityError) as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    save_trajectory(traj, os.path.join(outdir, "trajectory"))
    reports = [build_report(state, p, model=model) for _, state in traj.snapshots]
    write_report_csv(reports, os.path.join(outdir, "functionals.csv"))
    write_report_json(reports, os.path.join(outdir, "functionals.json"))
    _write_manifest(outdir, args.config, spec, seed, extra={
        "command": "simulate", "model": model, "p": p.label(),
        "schedule": {"dt": schedule.dt, "t_end": schedule.t_end,
                     "snapshot_every": schedule.snapshot_every},
    })
    print(f"wrote {len(reports)} snapshots to {outdir}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    spec = _grid_from_config(cfg)
    grid = build_grid(spec)
    collision, p = _model_from_config(cfg)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    cert = _certify(cfg, grid, collision, p)
    path = os.path.join(outdir, "certificate.json")
    cert.save_json(path)
    _write_manifest(outdir, args.config, spec, args.seed or 0, extra={
        "command": "certify", "model": cert.model,
    })
    print(f"model {cert.model}: rate {cert.rate:.6e} "
          f"(feasible: {cert.feasible}, binding: {cert.feasibility.binding})")
    print(f"wrote {path}")
    return EXIT_OK if cert.feasible else EXIT_ASSERTION


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    spec = _grid_from_config(cfg)
    grid = build_grid(spec)
    collision, p = _model_from_config(cfg)
    n_states = _value(cfg, "verify", "n_states", int, 100)
    if n_states < 1:
        raise ConfigError(f"n_states must be at least 1, got {n_states}")
    amplitude = _value(cfg, "verify", "amplitude", _finite_float, 0.25)
    corruption = _value(cfg, "verify", "corruption", _finite_float, 0.0)
    seed0 = _seed(cfg, "verify", args.seed)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    C = None
    if isinstance(collision, BGK):
        C = estimate_functional_constant(grid, p).value

    model = _model_name(collision)
    results = run_suite(
        grid, model, p,
        lam=collision.rate if isinstance(collision, BGK) else None,
        n_states=n_states, seed0=seed0, C=C,
        amplitude=amplitude, jobs=args.jobs, corruption=corruption,
    )
    save_results(results, os.path.join(outdir, "verification.json"))
    table = summarize(results)
    with open(os.path.join(outdir, "verification.txt"), "w") as f:
        f.write(table + "\n")
    print(table)
    _write_manifest(outdir, args.config, spec, seed0, extra={
        "command": "verify", "model": model, "p": p.label(),
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
    try:
        traj = load_trajectory(traj_dir)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"unreadable trajectory in {traj_dir}: {exc}") from exc
    if traj.schedule.collision != collision:
        raise ConfigError(f"the trajectory in {traj_dir} was simulated with "
                          f"{traj.schedule.collision}, but [model] gives {collision}")
    t_lo = _value(cfg, "fit", "t_start", _finite_float, traj.times[0])
    t_hi = _value(cfg, "fit", "t_end", _finite_float, traj.times[-1])
    if len(traj.window(t_lo, t_hi)) < 2:
        raise ConfigError(f"the fit window [{t_lo}, {t_hi}] holds fewer than two snapshots")
    name = cfg.get("fit", "functional", fallback="entropy").strip()
    if name != "composite" and name not in FunctionalReport.diagnostics():
        raise ConfigError(f"functional {name!r} is neither composite nor one of "
                          f"{', '.join(FunctionalReport.diagnostics())}")
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)

    model = _model_name(collision)
    if name == "composite":
        grid = traj.snapshots[0][1].grid
        cert = _certify(cfg, grid, collision, p)
        ent_term = "entropy" if model == "fokker-planck" else "entropy_projected"

        def functional(state):
            rep = build_report(state, p, model=model)
            return composite_value(rep, cert.A1, cert.A2, cert.A3, cert.A4,
                                   entropy_term=ent_term)
    else:
        def functional(state):
            rep = build_report(state, p, model=model)
            val = getattr(rep, name, None)
            if val is None:
                raise ConfigError(f"functional {name!r} not available for this model")
            return val

    fit = fit_decay(traj, functional, (t_lo, t_hi), name=name)
    path = os.path.join(outdir, "decay_fit.json")
    with open(path, "w") as f:
        json.dump(fit.to_dict(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{name}: rate {fit.rate:.6e}, r^2 {fit.r_squared:.6f} "
          f"over [{fit.t_start}, {fit.t_end}]")
    return EXIT_OK


def cmd_estimate_constant(args) -> int:
    cfg = _load_config(args.config)
    spec = _grid_from_config(cfg)
    grid = build_grid(spec)
    _, p = _model_from_config(cfg)
    est = estimate_functional_constant(grid, p)
    outdir = _output_dir(cfg, args.output_dir)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "constant.json")
    with open(path, "w") as f:
        json.dump({
            "p": est.p, "ratio": est.value, "raw_ratio": est.raw_ratio,
            "coercivity": est.coercivity,
        }, f, indent=1, sort_keys=True)
        f.write("\n")
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
                       help="concurrent workers for independent checks")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, PositivityError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
