"""hypoflow's benchmark: real command-line runs on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hypoflow is imported from its `src`, and
the run fails without printing a result if it is not there. One run is one
process. It calls `hypoflow.cli.main` in-process with `--seed N --jobs 1`
for each of the workload's commands: once untimed to warm caches, then in
passes until another pass would end after S seconds. Every command's exit
code and output files are checked; a command that exits nonzero or writes
a wrong output counts as failed.

With `--trace 0` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json, measured with tracing off:
  wall_s       mean seconds of one pass of the workload's commands. The mean,
               not the median: on a shared machine pass times jump between
               a fast and a slower state that lasts several passes, and the
               median of a run jumps with them.
  setup_s      median over SETUP_REPEATS fresh processes of the time to start
               Python, import hypoflow, parse the config and build the grid.
  peak_rss_mb  peak resident memory of the run's process.

With `--trace 1` it holds the per-layer metrics: half the time runs
untraced passes, the other half passes with every public hypoflow function
wrapped in a span timer (spans.py). Metrics come from the traced pass of
median wall time, so that its layer shares add up; `trace.overhead_s` is
the mean traced pass minus the mean untraced pass. A traced run is not
correct if a layer the workload must use records no calls, if an exact
count differs between passes, or if the layers' self times miss more than
SHARE_SLACK of the command wall time.

The lines before the last one record the environment, per-command times
and, for traced runs, each layer's share of the command wall time.
selftest.py is the benchmark's own test; make_reference.py rewrites the
default-seed reference values in reference.json.

Workloads (BENCHMARK.json says why each was chosen):
  sim2d-bgk     simulate, 2-D 32^2 x 16^2 grid, BGK, log entropy, t_end 0.5
  sim1d-fp      simulate then fit-decay, 1-D 64x32, Fokker-Planck, p = 1.5
  verify1d-bgk  certify then verify (100 states), 1-D 64x32, BGK, p = 1.5
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# command outputs; removed when the run ends
WORK = os.path.join(ROOT, ".perfbench_work")

# hypoflow's matrices are small; one BLAS thread keeps timings steady on a
# shared machine. A caller's own setting wins and is recorded.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from spans import MODULES, Tracer  # noqa: E402

DEFAULT_SEED = 0
VERIFY_STATES = 100
SETUP_REPEATS = 7
# Default-seed outputs must match reference.json to this relative
# tolerance (plus REF_ABS_TOL for values near zero).
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-15
MASS_TOL = 1e-9
# Entropy may rise between snapshots by at most this much: near equilibrium
# the integrand h^p - 1 - p(h - 1) is round-off of order 1e-16 per node, and
# reported entropies then wander by a few 1e-17.
ENTROPY_RISE_TOL = 1e-15
# Module self times of a traced pass must sum to its command wall time
# within this share; the rest is the benchmark's own call overhead.
SHARE_SLACK = 0.02

# t_end and n_states set a pass to a few seconds, so a 30-s run holds
# five passes or more.
WORKLOADS = {
    "sim2d-bgk": {
        "config": """
[grid]
dim = 2
nx = 32
nv = 16
[model]
kind = bgk
lambda = 1.0
p = boltzmann
[initial]
family = random
[schedule]
dt = 0.01
t_end = 0.5
snapshot_every = 10
""",
        "commands": ("simulate",),
        "layers": ("cli", "integrator", "operators", "phase_space", "functionals"),
    },
    "sim1d-fp": {
        "config": """
[grid]
dim = 1
nx = 64
nv = 32
[model]
kind = fokker-planck
p = 1.5
[initial]
family = random
[schedule]
dt = 0.01
t_end = 20.0
snapshot_every = 10
[fit]
trajectory = {work}/simulate/trajectory
functional = entropy
t_start = 0.1
t_end = 1.0
""",
        "commands": ("simulate", "fit-decay"),
        "layers": ("cli", "integrator", "operators", "phase_space", "functionals",
                   "verifier"),
    },
    "verify1d-bgk": {
        "config": """
[grid]
dim = 1
nx = 64
nv = 32
[model]
kind = bgk
lambda = 1.0
p = 1.5
[verify]
n_states = {verify_states}
""",
        "commands": ("certify", "verify"),
        "layers": ("cli", "certificate", "verifier", "functionals", "operators",
                   "phase_space"),
    },
}

# Counts that must be identical in every traced pass of one seed.
EXACT_COUNTS = ("integrator.strang_step.calls", "functionals.build_report.calls",
                "phase_space.floor_immaterial.repairs",
                "certificate.estimate_functional_constant.iterations",
                "phase_space.save_state.bytes")


# --- program and environment -------------------------------------------------

def import_program():
    """Import hypoflow from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hypoflow
    from hypoflow import cli
    if os.path.dirname(os.path.abspath(hypoflow.__file__)) != os.path.join(SRC, "hypoflow"):
        raise ImportError(f"hypoflow was imported from {hypoflow.__file__}, not {SRC}")
    return cli


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    from hypoflow import kernels
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "backend": kernels.BACKEND, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": git_commit(), "workload": workload, "seed": seed,
    }


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


# --- output checks -----------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_REL_TOL * abs(ref) + REF_ABS_TOL


def read_snapshot(path) -> np.ndarray:
    with open(path) as f:
        f.readline()
        f.readline()
        return np.array(f.read().split(), dtype=np.float64)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_simulate(run, outdir) -> list[str]:
    from hypoflow.phase_space import GridSpec, build_grid
    problems = []
    with open(os.path.join(outdir, "trajectory", "manifest.json")) as f:
        manifest = json.load(f)
    g = manifest["grid"]
    grid = build_grid(GridSpec(dim=g["dim"], nx=g["nx"], nv=g["nv"], period=g["period"]))
    sched = manifest["schedule"]
    n_steps = math.ceil(sched["t_end"] / sched["dt"] - 1e-12)
    expect = n_steps // sched["snapshot_every"] + 1
    if len(manifest["snapshots"]) != expect:
        problems.append(f"{len(manifest['snapshots'])} snapshots, expected {expect}")
    for entry in manifest["snapshots"]:
        h = read_snapshot(os.path.join(outdir, "trajectory", entry["file"]))
        mass = float((h.reshape(grid.nx_total, grid.nv_total) @ grid.v_weights).mean())
        if not abs(mass - 1.0) <= MASS_TOL:
            problems.append(f"mass {mass!r} at t={entry['time']}")
    rows = read_csv(os.path.join(outdir, "functionals.csv"))
    if len(rows) != expect:
        problems.append(f"{len(rows)} report rows, expected {expect}")
    ent = [float(r["entropy"]) for r in rows]
    rises = [i for i in range(1, len(ent)) if ent[i] > ent[i - 1] + ENTROPY_RISE_TOL]
    if rises:
        problems.append(f"entropy rises at rows {rises[:5]}")
    if run.seed == DEFAULT_SEED and rows:
        for col, val in run.ref["final_row"].items():
            got = rows[-1][col]
            if (val is None) != (got == "") or (val is not None and not close(float(got), val)):
                problems.append(f"final {col} = {got!r}, reference {val!r}")
    return problems


def check_fit_decay(run, outdir) -> list[str]:
    with open(os.path.join(outdir, "decay_fit.json")) as f:
        fit = json.load(f)
    problems = []
    if not (fit["rate"] > 0 and fit["r_squared"] > 0.9):
        problems.append(f"fit rate {fit['rate']}, r^2 {fit['r_squared']}")
    if run.seed == DEFAULT_SEED and not close(fit["rate"], run.ref["fit_rate"]):
        problems.append(f"fit rate {fit['rate']!r}, reference {run.ref['fit_rate']!r}")
    return problems


def check_certify(run, outdir) -> list[str]:
    with open(os.path.join(outdir, "certificate.json")) as f:
        cert = json.load(f)
    problems = []
    if not cert["feasibility"]["feasible"]:
        problems.append("certificate is infeasible")
    # the certified rate does not depend on the seed, so it is checked on every seed
    if not close(cert["rate"], run.ref["certified_rate"]):
        problems.append(f"certified rate {cert['rate']!r}, reference {run.ref['certified_rate']!r}")
    return problems


def check_verify(run, outdir) -> list[str]:
    with open(os.path.join(outdir, "verification.json")) as f:
        results = json.load(f)
    # per BGK power-entropy state: 3 transport rows, 3 + 2 + 2 relaxation rows
    # over the three splitters, 4 projection rows, 3 mixed-term rows; plus 5
    # correction-weight rows once
    expect = 17 * VERIFY_STATES + 5
    problems = []
    if len(results) != expect:
        problems.append(f"{len(results)} checks, expected {expect}")
    failed = [r["check_id"] for r in results if not r["passed"]]
    if failed:
        problems.append(f"{len(failed)} failed checks, first {failed[0]}")
    return problems


CHECKS = {"simulate": check_simulate, "fit-decay": check_fit_decay,
          "certify": check_certify, "verify": check_verify}


# --- runs ---------------------------------------------------------------------

class Run:
    """One workload in one work directory: passes, checks and failures."""

    def __init__(self, name, seed, work, cli, ref):
        self.name, self.seed, self.work, self.cli, self.ref = name, seed, work, cli, ref
        self.wl = WORKLOADS[name]
        self.config = os.path.join(work, "config.ini")
        os.makedirs(work, exist_ok=True)
        with open(self.config, "w") as f:
            f.write(self.wl["config"].format(work=work, verify_states=VERIFY_STATES))
        self.attempted = 0
        self.failed = 0

    def setup_s(self) -> float:
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.config]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            # wait() without a timeout: with one it polls in steps of up to
            # 50 ms, which would round the time to that step
            with subprocess.Popen(argv, stdout=subprocess.DEVNULL) as proc:
                rc = proc.wait()
            times.append(time.perf_counter() - t0)
            if rc != 0:
                raise subprocess.CalledProcessError(rc, argv)
        return statistics.median(times)

    def one_pass(self) -> dict[str, float]:
        """Run every command once; returns each command's wall seconds."""
        for cmd in self.wl["commands"]:
            shutil.rmtree(os.path.join(self.work, cmd), ignore_errors=True)
        times = {}
        for cmd in self.wl["commands"]:
            outdir = os.path.join(self.work, cmd)
            argv = [cmd, self.config, "--output-dir", outdir,
                    "--seed", str(self.seed), "--jobs", "1"]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(argv)
            except Exception:
                rc = "exception: " + traceback.format_exc()
            times[cmd] = time.perf_counter() - t0
            problems = [f"exit code {rc}"] if rc != 0 else []
            if not problems:
                try:
                    problems = CHECKS[cmd](self, outdir)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                print(f"{self.name} {cmd} seed {self.seed} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return times

    def passes(self, seconds: float, one) -> list[dict[str, float]]:
        """Calls `one` until another call would end after `seconds`; at least once."""
        out = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(one())
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def command_table(passes, label) -> list[str]:
    lines = [f"{label}: {len(passes)} passes; seconds: mean, median [q1, q3]"]
    columns = {cmd: [p[cmd] for p in passes] for cmd in passes[0]}
    columns["wall"] = [sum(p.values()) for p in passes]
    for cmd, vals in columns.items():
        q1, q3 = quartiles(vals)
        lines.append(f"  {cmd:10s} {statistics.mean(vals):9.4f} {statistics.median(vals):9.4f} "
                     f"[{q1:.4f}, {q3:.4f}]")
    return lines


# --- per-layer metrics ---------------------------------------------------------

def layer_values(tr, wall: float) -> dict[str, float]:
    """Every per-layer quantity of one traced pass, by metric name."""
    v = {}
    for name, span in tr.spans.items():
        v[f"{name}.s"] = span.incl
        v[f"{name}.self_s"] = span.self_s
        v[f"{name}.calls"] = span.calls
    for mod in MODULES:
        spans = [span for name, span in tr.spans.items() if name.startswith(mod + ".")]
        v[f"{mod}.self_s"] = sum(span.self_s for span in spans)
        v[f"{mod}.calls"] = sum(span.calls for span in spans)
    v["kernels.s"] = v["kernels.self_s"]  # kernels call no traced function
    v.update(tr.counts)
    calls = tr.spans["functionals.build_report"].calls
    v["functionals.build_report.distinct_ratio"] = len(tr.report_states) / calls if calls else 0.0
    states = tr.counts["verifier.run_suite.states"]
    v["verifier.reports_per_state"] = (tr.counts["verifier.run_suite.reports"] / states
                                       if states else 0.0)
    v["trace.wall_s"] = wall
    return v


def layer_problems(wl, layers: list[dict]) -> list[str]:
    problems = []
    for mod in wl["layers"]:
        if any(p[f"{mod}.calls"] == 0 for p in layers):
            problems.append(f"expected layer {mod} recorded no calls")
    for name in EXACT_COUNTS:
        seen = {p[name] for p in layers}
        if len(seen) > 1:
            problems.append(f"{name} differs between passes of one seed: {sorted(seen)}")
    for p in layers:
        unaccounted = p["trace.wall_s"] - sum(p[f"{m}.self_s"] for m in MODULES)
        if abs(unaccounted) > SHARE_SLACK * p["trace.wall_s"]:
            problems.append(f"layer self times miss {unaccounted:.4f} s of the command wall")
    return problems


def share_table(values: dict) -> list[str]:
    wall = values["trace.wall_s"]
    lines = [f"layer self seconds and share of the traced command wall "
             f"({wall:.4f} s); shares sum to 100% within {SHARE_SLACK:.0%}"]
    total = 0.0
    for mod in MODULES:
        s = values[f"{mod}.self_s"]
        total += s
        lines.append(f"  {mod:12s} {s:9.4f}  {s / wall:7.2%}")
    lines.append(f"  {'sum':12s} {total:9.4f}  {total / wall:7.2%}")
    return lines


# --- main --------------------------------------------------------------------

def pick(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def span_metric(name: str) -> bool:
    """True for `<module>.<function>.<s|self_s|calls>`."""
    parts = name.split(".")
    return len(parts) == 3 and parts[0] in MODULES and parts[2] in ("s", "self_s", "calls")


def measure_plain(run: Run, seconds: float, declared: list):
    setup = run.setup_s()
    passes = run.passes(seconds, run.one_pass)
    values = {
        "setup_s": setup,
        "wall_s": statistics.mean(sum(p.values()) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return pick(values, declared), command_table(passes, "untraced"), []


def measure_traced(run: Run, seconds: float, declared: list):
    plain = run.passes(seconds / 2, run.one_pass)
    tracer = Tracer()
    layers = []

    def traced_pass():
        tracer.reset()
        times = run.one_pass()
        layers.append(layer_values(tracer, sum(times.values())))
        return times

    tracer.install()
    try:
        traced = run.passes(seconds / 2, traced_pass)
    finally:
        tracer.uninstall()
    # one whole pass, so that its layer shares add up
    values = dict(sorted(layers, key=lambda p: p["trace.wall_s"])[(len(layers) - 1) // 2])
    values["trace.overhead_s"] = (statistics.mean(sum(p.values()) for p in traced)
                                  - statistics.mean(sum(p.values()) for p in plain))
    for m in declared:
        # a function that no longer exists made no calls
        if m["name"] not in values and span_metric(m["name"]):
            values[m["name"]] = 0
    lines = (command_table(plain, "untraced") + command_table(traced, "traced")
             + [f"tracing overhead: {values['trace.overhead_s']:.4f} s per pass (mean traced "
                "minus mean untraced wall)"]
             + share_table(values))
    return pick(values, declared), lines, layer_problems(run.wl, layers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = import_program()
        declared = declared_metrics()
    except (ImportError, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        run = Run(args.workload, args.seed, work, cli, load_reference()[args.workload])
        run.one_pass()  # warm-up, untimed
        if args.trace:
            metrics, lines, problems = measure_traced(run, args.seconds, declared["per_layer"])
        else:
            metrics, lines, problems = measure_plain(run, args.seconds, declared["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    for problem in problems:
        print(f"{args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({"correct": run.failed == 0 and not problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
