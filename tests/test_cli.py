import csv
import errno
import inspect
import json
import os
import re
import signal
import textwrap
import types
import warnings

import numpy as np
import pytest

from hypoflow import GridSpec, cli, cosine, integrator, random_band_limited, run_suite
from hypoflow.cli import main
from hypoflow.phase_space import PositivityError
from hypoflow.verifier import CorruptedBGK

BASE = """\
[grid]
dim = 1
nx = 32
nv = 16

[model]
kind = bgk
lambda = 1.0
p = boltzmann

[initial]
family = cosine
amplitude = 0.5

[schedule]
dt = 0.01
t_end = 5.0
snapshot_every = 50

[output]
directory = {out}
"""


BGK_MODEL = "kind = bgk\nlambda = 1.0\np = boltzmann"
FP_MODEL = "kind = fokker-planck\np = 1.5"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header, body


class TestSimulate:
    def test_minimal_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out))
        assert main(["simulate", cfg]) == 0
        header, body = read_csv(out / "functionals.csv")
        assert len(body) >= 2
        assert (out / "functionals.json").exists()
        assert (out / "trajectory" / "manifest.json").exists()
        manifest = json.loads((out / "simulate-manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "config_hash" in manifest

    def test_equilibrium_all_entropy_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out).replace(
            "family = cosine", "family = equilibrium"))
        assert main(["simulate", cfg]) == 0
        header, body = read_csv(out / "functionals.csv")
        i = header.index("entropy")
        assert all(abs(float(r[i])) <= 1e-12 for r in body)

    def test_entropy_strictly_decreasing(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out))
        assert main(["simulate", cfg]) == 0
        header, body = read_csv(out / "functionals.csv")
        i = header.index("entropy")
        vals = [float(r[i]) for r in body]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, BASE.format(out="PLACEHOLDER"))
        assert main(["simulate", cfg, "--output-dir", str(out1), "--seed", "3"]) == 0
        assert main(["simulate", cfg, "--output-dir", str(out2), "--seed", "3"]) == 0
        assert (out1 / "functionals.csv").read_bytes() == \
            (out2 / "functionals.csv").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.ini")]) == 1

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        # a directory exists but reads as no config at all
        assert main(["simulate", str(tmp_path)]) == 1
        assert "cannot read config file" in _one_config_error_line(capsys)

    def test_amplitude_floor_enforced(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(out=tmp_path / "o").replace(
            "amplitude = 0.5", "amplitude = 0.95"))
        assert main(["simulate", cfg]) == 1

    @pytest.mark.parametrize("family,seed", [("cosine", None), ("random", 3)])
    def test_record_seed_only_for_random_data(self, tmp_path, family, seed):
        # a cosine run draws no random numbers, so it records no seed
        out = tmp_path / "out"
        text = BASE.format(out=out).replace("family = cosine", f"family = {family}")
        text = text.replace("amplitude = 0.5", "amplitude = 0.25")
        assert main(["simulate", write_config(tmp_path, text), "--seed", "3"]) == 0
        record = json.loads((out / "simulate-manifest.json").read_text())
        trajectory = json.loads((out / "trajectory" / "manifest.json").read_text())
        assert record["seed"] == seed
        assert record["grid"] == trajectory["grid"] == {
            "dim": 1, "nx": 32, "nv": 16, "period": 1.0}

    def test_fokker_planck_log_entropy_run(self, tmp_path, capsys):
        # p = 1 is a member of the power family the diffusion model runs
        out = tmp_path / "o"
        text = BASE.format(out=out).replace("kind = bgk", "kind = fokker-planck")
        text = text.replace("nv = 16", "nv = 32").replace("t_end = 5.0", "t_end = 1.0")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 0
        assert capsys.readouterr().err == ""
        header, body = read_csv(out / "functionals.csv")
        assert body and all(row[header.index("hess_vv")] for row in body)

    def test_fokker_planck_run(self, tmp_path, capsys):
        out = tmp_path / "fp"
        text = BASE.format(out=out)
        text = text.replace("kind = bgk", "kind = fokker-planck")
        text = text.replace("p = boltzmann", "p = 1.5")
        text = text.replace("nv = 16", "nv = 32")
        text = text.replace("t_end = 5.0", "t_end = 1.0")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 0
        assert capsys.readouterr().err == ""
        header, body = read_csv(out / "functionals.csv")
        assert body
        assert header.index("hess_xv")
        # the last snapshot reaches the Hermite band edge, and its row says so
        assert header[-1] == "hermite_tail"
        assert float(body[0][-1]) < 1e-13 and float(body[-1][-1]) > 1e-6

    def test_non_finite_step_is_one_line(self, tmp_path, capsys):
        # k.v dt/2 overflows, so step 1 is NaN: one line, exit 2, no warning
        text = BASE.format(out=tmp_path / "o").replace("nx = 32", "nx = 16")
        text = text.replace("nv = 16", "nv = 8").replace("dt = 0.01", "dt = 1e308")
        cfg = write_config(tmp_path, text.replace("t_end = 5.0", "t_end = 1e308"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", cfg]) == 2
        assert caught == []
        assert capsys.readouterr().err == \
            "simulation aborted: step 1: h has non-finite entries\n"


class TestCertify:
    def test_large_constant_gives_known_rate(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[certificate]\nC = 1000000.0\n"
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["rate"] == pytest.approx(1.0 / 36.0, rel=1e-8)
        assert cert["feasibility"]["feasible"]

    def test_fp_rate(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out).replace("kind = bgk", "kind = fokker-planck")
        text = text.replace("p = boltzmann", "p = 1.5")
        text += "\n[certificate]\nC = 1.0\n"
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["rate"] == pytest.approx(1.0 / 54.0, abs=1e-15)
        assert cert["A4"] == pytest.approx(27.0 / 4.0)

    def test_manifest_records_no_seed(self, tmp_path):
        # a certificate draws no random numbers, whatever --seed says
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out) + "\n[certificate]\nC = 1000000.0\n")
        assert main(["certify", cfg, "--seed", "5"]) == 0
        manifest = json.loads((out / "certify-manifest.json").read_text())
        assert manifest["command"] == "certify"
        assert manifest["seed"] is None

    def test_missing_lambda_is_config_error(self, tmp_path):
        text = BASE.format(out=tmp_path / "o").replace("lambda = 1.0\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 1

    @pytest.mark.parametrize("p", ["boltzmann", "1.5"])
    def test_explicit_eta(self, tmp_path, p):
        out = tmp_path / "out"
        text = BASE.format(out=out).replace("p = boltzmann", f"p = {p}")
        text += "\n[certificate]\nC = 1000000.0\neta = 0.1\n"
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["eta"] == 0.1
        lam = 1.0
        if p == "boltzmann":
            assert cert["model"] == "bgk-log"
            assert cert["eps"] == 1.0 / lam
            assert cert["rate"] == pytest.approx(0.1 / 12.0, rel=1e-12)
        else:
            assert cert["model"] == "bgk-power"
            assert cert["eps1"] == cert["eps2"] == 2.0 / lam
            assert cert["rate"] == pytest.approx(0.1 / 6.0, rel=1e-12)


    def test_fp_log_entropy_config_is_valid(self, tmp_path, capsys):
        # p = 1 certifies the diffusion model at the rate of p = 1.5
        text = BASE + "\n[certificate]\nC = 1000000.0\n"
        rates = {}
        for p in ("1", "1.5"):
            out = tmp_path / p
            model = FP_MODEL.replace("1.5", p)
            cfg = write_config(tmp_path, text.format(out=out).replace(BGK_MODEL, model))
            assert main(["certify", cfg]) == 0
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["model"] == "fokker-planck-power"
            assert cert["feasibility"]["feasible"]
            rates[cert["p"]] = cert["rate"]
        assert capsys.readouterr().err == ""
        assert rates[1.0] == pytest.approx(rates[1.5], rel=1e-12)


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[verify]\nn_states = 2\n"
        cfg = write_config(tmp_path, text)
        assert main(["verify", cfg]) == 0
        results = json.loads((out / "verification.json").read_text())
        assert len(results) == 2 * 17
        assert all(r["passed"] for r in results)
        assert (out / "verification.txt").exists()

    def test_corruption_fails_with_exit_2(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[verify]\nn_states = 1\ncorruption = 0.02\n"
        cfg = write_config(tmp_path, text)
        assert main(["verify", cfg]) == 2
        results = json.loads((out / "verification.json").read_text())
        assert any(not r["passed"] for r in results if r["kind"] == "equality")

    def test_corruption_with_fokker_planck_is_config_error(self, tmp_path, capsys):
        # the hook skews the relaxation flow; on the velocity-diffusion
        # model it would be ignored and every row would pass
        out = tmp_path / "out"
        text = (BASE.format(out=out).replace(BGK_MODEL, FP_MODEL).replace("nv = 16", "nv = 8")
                + "\n[verify]\nn_states = 2\ncorruption = 0.5\n")
        cfg = write_config(tmp_path, text)
        assert main(["verify", cfg]) == 1
        line = _one_config_error_line(capsys)
        assert "[verify] corruption" in line, line
        assert not out.exists()

    def test_jobs_flag(self, tmp_path, capsys):
        # one worker is the only mode; any other count is rejected
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[verify]\nn_states = 2\n"
        cfg = write_config(tmp_path, text)
        assert main(["verify", cfg, "--jobs", "2"]) == 1
        assert "--jobs 2" in _one_config_error_line(capsys)
        assert not out.exists()
        assert main(["verify", cfg, "--jobs", "1"]) == 0


class TestFitDecay:
    def test_fit_from_saved_trajectory(self, tmp_path):
        out = tmp_path / "sim"
        text = BASE.format(out=out).replace("family = cosine", "family = velocity")
        text = text.replace("amplitude = 0.5", "amplitude = 0.3")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 0
        fit_out = tmp_path / "fit"
        fit_text = text + textwrap.dedent(f"""
            [fit]
            trajectory = {out / 'trajectory'}
            functional = fisher_v
            t_start = 1.0
            t_end = 4.0
        """)
        fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
        assert main(["fit-decay", fit_cfg, "--output-dir", str(fit_out)]) == 0
        fit = json.loads((fit_out / "decay_fit.json").read_text())
        assert fit["rate"] == pytest.approx(2.0, rel=0.05)

    def test_writes_manifest(self, tmp_path):
        out = tmp_path / "sim"
        text = BASE.format(out=out)
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        # no [grid]: the manifest takes the grid from the trajectory
        fit_text = text.replace("[grid]\ndim = 1\nnx = 32\nnv = 16\n", "")
        assert "[grid]" not in fit_text
        fit_text += f"\n[fit]\ntrajectory = {out / 'trajectory'}\nt_start = 1.0\n"
        fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
        fit_out = tmp_path / "fit"
        assert main(["fit-decay", fit_cfg, "--output-dir", str(fit_out)]) == 0
        manifest = json.loads((fit_out / "fit-decay-manifest.json").read_text())
        assert manifest["config_hash"] == cli._config_hash(fit_cfg)
        assert manifest["grid"] == {"dim": 1, "nx": 32, "nv": 16, "period": 1.0}
        assert manifest["seed"] is None
        assert {k: manifest[k] for k in ("command", "model", "p", "trajectory",
                                         "functional", "window")} == {
            "command": "fit-decay", "model": "bgk", "p": "log",
            "trajectory": str(out / "trajectory"), "functional": "entropy",
            "window": [1.0, 5.0]}

    def test_functional_at_equilibrium_is_config_error(self, tmp_path, capsys):
        # every snapshot's entropy is at the fit floor, so no snapshot is
        # usable: one line and exit 1, not a traceback
        out = tmp_path / "sim"
        text = BASE.format(out=out)
        for old, new in (("nx = 32", "nx = 16"), ("nv = 16", "nv = 8"),
                         ("family = cosine", "family = equilibrium"),
                         ("t_end = 5.0", "t_end = 0.5")):
            text = text.replace(old, new)
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        fit_text = text + f"\n[fit]\ntrajectory = {out / 'trajectory'}\nfunctional = entropy\n"
        fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
        capsys.readouterr()
        assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
        line = _one_config_error_line(capsys)
        assert "entropy" in line and "fewer than two usable snapshots" in line, line
        assert not (tmp_path / "fit").exists()

    def test_missing_trajectory_is_config_error(self, tmp_path):
        text = BASE.format(out=tmp_path / "o") + "\n[fit]\nfunctional = entropy\n"
        cfg = write_config(tmp_path, text)
        assert main(["fit-decay", cfg]) == 1

    def test_composite_functional_fit(self, tmp_path):
        out = tmp_path / "sim"
        text = BASE.format(out=out)
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 0
        fit_out = tmp_path / "fit"
        fit_text = text + textwrap.dedent(f"""
            [certificate]
            C = 1000000.0

            [fit]
            trajectory = {out / 'trajectory'}
            functional = composite
            t_start = 0.5
            t_end = 4.0
        """)
        fit_cfg = write_config(tmp_path, fit_text, name="fitc.ini")
        assert main(["fit-decay", fit_cfg, "--output-dir", str(fit_out)]) == 0
        fit = json.loads((fit_out / "decay_fit.json").read_text())
        # the certified rate is a lower bound on the observed decay
        assert fit["rate"] > 1.0 / 36.0

    def test_narrowed_window_reads_only_its_snapshots(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sim"
        text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 1.0")
        text = text.replace("snapshot_every = 50", "snapshot_every = 10")
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        traj_dir = out / "trajectory"
        fit_cfg = write_config(tmp_path, text + f"\n[fit]\ntrajectory = {traj_dir}\n"
                               "t_start = 0.3\nt_end = 0.6\n", name="fit.ini")
        opened = []

        def counting_load_state(path, grid=None):
            opened.append(os.path.basename(path))
            return load_state(path, grid)

        load_state = integrator.load_state
        monkeypatch.setattr(integrator, "load_state", counting_load_state)
        assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "part")]) == 0
        assert opened == [f"snapshot_{i:06d}.txt" for i in (3, 4, 5, 6)]

        # the same fit on the fully loaded trajectory
        load_trajectory = integrator.load_trajectory
        with monkeypatch.context() as m:
            m.setattr(cli, "load_trajectory", lambda d, window: load_trajectory(d))
            assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "full")]) == 0
        assert len(opened) == 4 + 11
        assert (tmp_path / "part" / "decay_fit.json").read_bytes() == \
            (tmp_path / "full" / "decay_fit.json").read_bytes()

        _bad_number(traj_dir / "snapshot_000005.txt")
        capsys.readouterr()
        assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "part")]) == 1
        line = _one_config_error_line(capsys)
        assert "snapshot_000005.txt" in line and "'abc'" in line, line

    def test_manifest_without_snapshots_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 0.0")
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        manifest_path = out / "trajectory" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshots"] = []
        manifest_path.write_text(json.dumps(manifest))
        fit_cfg = write_config(tmp_path, text + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n",
                               name="fit.ini")
        capsys.readouterr()
        assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
        assert "lists no snapshots" in _one_config_error_line(capsys)

    @pytest.mark.parametrize("time", ["0.0", None, True, float("inf")])
    def test_manifest_with_bad_time_is_config_error(self, tmp_path, capsys, time):
        out = tmp_path / "sim"
        text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 0.0")
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        manifest_path = out / "trajectory" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshots"][0]["time"] = time
        manifest_path.write_text(json.dumps(manifest))
        fit_cfg = write_config(tmp_path, text + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n",
                               name="fit.ini")
        capsys.readouterr()
        assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
        line = _one_config_error_line(capsys)
        assert "manifest.json" in line and "snapshots[0]" in line, line

    @pytest.mark.parametrize("damage,named", [
        (lambda m: {**m, "snapshots": [1, 2, 3]}, "snapshots[0]"),
        (lambda m: [m], "the manifest"),
        (lambda m: {**m, "grid": [1]}, "grid"),
        (lambda m: {**m, "schedule": None}, "schedule"),
        (lambda m: {**m, "collision": "bgk"}, "collision"),
        (lambda m: {**m, "schedule": {**m["schedule"], "dt": "0.01"}}, "schedule.dt"),
        (lambda m: {**m, "snapshots": [{**m["snapshots"][0], "file": 7}]}, "snapshots[0].file"),
        (lambda m: {**m, "grid": {**m["grid"], "period": float("inf")}}, "period"),
        (lambda m: {**m, "format_version": 99}, "format_version"),
        (lambda m: {k: v for k, v in m.items() if k != "format_version"}, "format_version"),
        (lambda m: {**m, "format_version": "1"}, "format_version"),
        (lambda m: {**m, "format_version": True}, "format_version"),
    ], ids=["int-snapshots", "list", "list-grid", "null-schedule", "string-collision",
            "string-dt", "int-file", "infinite-period", "version-99", "no-version",
            "string-version", "bool-version"])
    def test_manifest_with_wrong_types_is_config_error(self, tmp_path, capsys, damage, named):
        out = tmp_path / "sim"
        text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 0.0")
        assert main(["simulate", write_config(tmp_path, text)]) == 0
        manifest_path = out / "trajectory" / "manifest.json"
        manifest_path.write_text(json.dumps(damage(json.loads(manifest_path.read_text()))))
        fit_cfg = write_config(tmp_path, text + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n",
                               name="fit.ini")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
        assert not caught
        line = _one_config_error_line(capsys)
        assert "manifest.json" in line and named in line, line


def _one_config_error_line(capsys):
    """The single `configuration error:` line on stderr, or "" if there is
    not exactly one such line and no traceback."""
    err = capsys.readouterr().err
    lines = err.splitlines()
    ok = (len(lines) == 1 and lines[0].startswith("configuration error:")
          and "Traceback" not in err)
    return lines[0] if ok else ""


@pytest.mark.parametrize("command,old,new", [
    ("verify", "lambda = 1.0", "lambda = fast"),
    ("verify", "lambda = 1.0", "lambda = nan"),
    ("verify", "p = boltzmann", "p = 3"),
    # p = 1 is the log entropy, and nothing lies below it
    ("verify", "p = boltzmann", "p = 0.999"),
    ("verify", "n_states = 2", "n_states = many"),
    ("verify", "n_states = 2", "n_states = 0"),
    # a skew of -1 or below stops or reverses the relaxation flow
    ("verify", "n_states = 2", "n_states = 2\ncorruption = -1"),
    ("simulate", "nx = 32", "nx = many"),
    ("simulate", "amplitude = 0.5", "amplitude = half"),
    # |a| = 2 would leave min h = -1
    ("simulate", "amplitude = 0.5", "amplitude = -2.0"),
    ("simulate", "dt = 0.01", "dt = soon"),
    ("simulate", "t_end = 5.0", "t_end = inf"),
    ("certify", "C = 1000000.0", "C = large"),
    ("certify", "C = 1000000.0", "C = -1"),
    ("certify", "C = 1000000.0", "C = 0"),
    ("certify", "C = 1000000.0", "C = 1000000.0\neta = -0.5"),
    ("simulate", "family = cosine", "family = random\nv_degree = 3"),
    ("simulate", "family = cosine", "family = random\nx_modes = -1"),
    # harmonic nx // 2 = 16 is the Nyquist mode, which the gradients zero
    ("simulate", "family = cosine", "family = random\nx_modes = 16"),
    # two edits: the velocity-diffusion certificate has no splitter
    pytest.param("certify", (BGK_MODEL, "C = 1000000.0"),
                 (FP_MODEL, "C = 1000000.0\neta = 0.5"), id="certify-fp-eta"),
    # the model kinds are spelt only as the operators name them, and p only
    # as boltzmann, log or a number
    pytest.param("certify", BGK_MODEL, FP_MODEL.replace("fokker-planck", "fp"),
                 id="certify-kind-fp"),
    pytest.param("certify", "p = boltzmann", "p = none", id="certify-p-none"),
    # numpy's generator takes no negative seed, and exp(1000 g) overflows
    ("verify", "n_states = 2", "n_states = 2\nseed = -1"),
    ("verify", "n_states = 2", "n_states = 2\namplitude = 1000"),
    # finite, but t_end / dt overflows, or the certificate's coefficients do
    ("simulate", "dt = 0.01", "dt = 1e-320"),
    ("certify", "lambda = 1.0", "lambda = 1e-320"),
    ("certify", "lambda = 1.0", "lambda = 1e308"),
    # read as written, not as a configparser interpolation
    ("certify", "lambda = 1.0", "lambda = 1%"),
    pytest.param("certify", ("lambda = 1.0", "C = 1000000.0"),
                 ("lambda = 1e308", "C = 1000000.0\neta = 0.3"), id="certify-eta-huge-lambda"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, old, new):
    text = (BASE.format(out=tmp_path / "o") + "\n[verify]\nn_states = 2\n"
            + "\n[certificate]\nC = 1000000.0\n")
    edits = zip(old, new) if isinstance(old, tuple) else [(old, new)]
    for o, n in edits:
        assert text.count(o) == 1
        text = text.replace(o, n)
    cfg = write_config(tmp_path, text)
    assert main([command, cfg]) == 1
    assert _one_config_error_line(capsys)


@pytest.mark.parametrize("command", ["simulate", "certify", "verify", "fit-decay",
                                     "estimate-constant"])
@pytest.mark.parametrize("text", [
    b"nx = 16\n[grid]\ndim = 1\n",
    b"[grid]\nnx = 16\nnx = 16\n",
    b"[grid]\nnx = 16\n[grid]\nnv = 8\n",
    b"[grid]\nnx 16\n",
    b"[grid]\nnx = 16\xff\n",
], ids=["key-before-section", "duplicate-option", "duplicate-section", "not-key-value",
        "not-utf8"])
def test_malformed_config_is_one_config_error_line(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    assert main([command, str(cfg), "--output-dir", str(tmp_path / "o")]) == 1
    line = _one_config_error_line(capsys)
    assert line.startswith(f"configuration error: cannot read config file {cfg}: "), line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "verify", "estimate-constant"])
@pytest.mark.parametrize("nv", [400, 800])
def test_nv_beyond_the_quadrature_is_one_config_error_line(tmp_path, capsys, command, nv):
    # numpy's Gauss-Hermite rule has a zero or NaN weight from nv = 371 on (numpy 2.4)
    text = (BASE.format(out=tmp_path / "o").replace("nv = 16", f"nv = {nv}")
            + "\n[verify]\nn_states = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, write_config(tmp_path, text)]) == 1
    assert not caught
    assert f"nv = {nv}:" in _one_config_error_line(capsys)


@pytest.mark.parametrize("how", ["flag", "environment"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, how):
    # --seed and HYPOFLOW_SEED reach the same check as [verify] seed
    out = tmp_path / "o"
    cfg = write_config(tmp_path, BASE.format(out=out) + "\n[verify]\nn_states = 2\n")
    argv = ["verify", cfg]
    if how == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("HYPOFLOW_SEED", "-1")
    assert main(argv) == 1
    assert "seed must be a non-negative integer" in _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command,section,key", [
    ("simulate", "grid", "period"),
    ("simulate", "model", "rate"),
    ("simulate", "initial", "amplitud"),
    ("simulate", "schedule", "steps"),
    ("simulate", "output", "dir"),
    ("certify", "certificate", "epsilon"),
    ("verify", "verify", "states"),
    ("estimate-constant", "fit", "window"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, command, section, key):
    # a misspelt or unsupported key is never silently ignored, whichever
    # command reads the config
    out = tmp_path / "o"
    text = (BASE.format(out=out) + "\n[verify]\nn_states = 2\n"
            + "\n[certificate]\nC = 1000000.0\n\n[fit]\ntrajectory = t\n")
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    cfg = write_config(tmp_path, text)
    assert main([command, cfg]) == 1
    line = _one_config_error_line(capsys)
    assert f"[{section}]" in line and key in line, line
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "verify", "fit-decay",
                                     "estimate-constant"])
def test_unknown_section_is_config_error(tmp_path, capsys, command):
    # a misspelt section name would leave its keys unread: simulate would
    # run the default t_end = 10.0 instead of 0.05
    out = tmp_path / "o"
    cfg = write_config(tmp_path, BASE.format(out=out) + "\n[schedul]\nt_end = 0.05\n")
    assert main([command, cfg]) == 1
    line = _one_config_error_line(capsys)
    assert "[schedul]" in line, line
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "certify", "verify", "estimate-constant"])
def test_unwritable_output_is_config_error(tmp_path, capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    text = BASE.format(out=tmp_path / "o") + "\n[verify]\nn_states = 2\n"
    cfg = write_config(tmp_path, text)
    assert main([command, cfg, "--output-dir", str(blocker)]) == 1
    line = _one_config_error_line(capsys)
    assert line.startswith("configuration error: cannot write output:"), line
    assert "a-file" in line
    assert blocker.read_text() == "not a directory\n"


def _truncate(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))


def _move_period(path):
    text = path.read_text()
    assert " period=1.0 " in text
    path.write_text(text.replace(" period=1.0 ", " period=2.0 ", 1))


def _bad_number(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "abc\n"
    path.write_text("".join(lines))


def _edit_header(old, new):
    def damage(path):
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return damage


@pytest.mark.parametrize("damage,named", [
    (_truncate, None), (_move_period, None),
    (_edit_header(" nv=16 ", " "), "'nv'"), (_edit_header(" nx=32 ", " nx=abc "), "nx='abc'"),
    (_bad_number, "'abc'"), (_edit_header(" time=", " time=9"), "time=9"),
    (_edit_header(" period=1.0 ", " period=inf "), "period"),
], ids=["truncated", "mismatched-header", "missing-key", "bad-value", "bad-number", "time",
        "infinite-period"])
def test_damaged_snapshot_is_config_error(tmp_path, capsys, damage, named):
    out = tmp_path / "sim"
    text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 1.0")
    assert main(["simulate", write_config(tmp_path, text)]) == 0
    damage(out / "trajectory" / "snapshot_000001.txt")
    fit_text = text + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n"
    fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
    capsys.readouterr()
    assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
    line = _one_config_error_line(capsys)
    assert line
    if named is not None:
        assert named in line and "snapshot_000001.txt" in line, line


@pytest.mark.parametrize("sim_model,t_end,fit_model,fit_keys,named", [
    (BGK_MODEL, "1.0", BGK_MODEL, "functional = p", "'p'"),
    (BGK_MODEL, "1.0", BGK_MODEL, "t_start = 5\nt_end = 1", "fewer than two snapshots"),
    # no window keys: the window is the single snapshot's time on both sides
    (BGK_MODEL, "0.0", BGK_MODEL, "", "[0.0, 0.0] holds fewer than two snapshots"),
    (FP_MODEL, "1.0", "kind = bgk\nlambda = 3\np = boltzmann", "", "FokkerPlanck()"),
    (BGK_MODEL, "1.0", BGK_MODEL.replace("1.0", "3"), "", "BGK(rate=1.0)"),
], ids=["non-numeric-functional", "empty-window", "one-snapshot", "other-kind", "other-rate"])
def test_bad_fit_is_config_error(tmp_path, capsys, sim_model, t_end, fit_model, fit_keys, named):
    out = tmp_path / "sim"
    # nv = 32: the velocity-diffusion run needs it to keep mass
    text = BASE.format(out=out).replace("t_end = 5.0", f"t_end = {t_end}")
    text = text.replace("nv = 16", "nv = 32")
    assert main(["simulate", write_config(tmp_path, text.replace(BGK_MODEL, sim_model))]) == 0
    fit_text = (text.replace(BGK_MODEL, fit_model)
                + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n{fit_keys}\n")
    fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
    capsys.readouterr()
    assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
    line = _one_config_error_line(capsys)
    assert named in line and not re.search(r"\binf\b", line), line


def _signature_defaults(fn, names=None) -> dict:
    """The defaults of `fn`'s parameters (those in `names`, else all that
    have one)."""
    params = inspect.signature(fn).parameters
    if names is None:
        names = [n for n, prm in params.items() if prm.default is not prm.empty]
    return {n: params[n].default for n in names}


def _outputs(out) -> dict:
    """Every file under `out` by relative path; the command record without
    its config hash, which differs between two config texts."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.parent == out and path.name.endswith("-manifest.json"):
                data = json.loads(data)
                del data["config_hash"]
            files[str(path.relative_to(out))] = data
    return files


@pytest.mark.parametrize("command,family", [
    ("simulate", "cosine"), ("simulate", "random"), ("verify", "random")])
def test_omitted_keys_take_the_library_defaults(tmp_path, command, family):
    # the library signatures are the only home of these defaults: a config
    # that leaves the keys out and one that sets them to the signatures'
    # defaults give the same bytes
    given = {
        "grid": _signature_defaults(GridSpec, ("dim", "nx", "nv")),
        "initial": _signature_defaults({"cosine": cosine,
                                        "random": random_band_limited}[family]),
        "verify": {**_signature_defaults(run_suite, ("amplitude",)),
                   "corruption": _signature_defaults(CorruptedBGK)["skew"]},
    }
    runs = {}
    for name, keys in (("omitted", {}), ("set", given)):
        def lines(section):
            return "".join(f"{k} = {v!r}\n" for k, v in keys.get(section, {}).items())
        text = (f"[grid]\n{lines('grid')}\n[model]\n{BGK_MODEL}\n\n"
                f"[initial]\nfamily = {family}\n{lines('initial')}\n"
                "[schedule]\ndt = 0.01\nt_end = 0.02\nsnapshot_every = 1\n\n"
                f"[verify]\nn_states = 1\n{lines('verify')}")
        cfg = write_config(tmp_path, text, name=f"{name}.ini")
        out = tmp_path / name
        assert main([command, cfg, "--output-dir", str(out)]) == 0
        runs[name] = _outputs(out)
    assert runs["omitted"] == runs["set"]
    assert len(runs["set"]) >= 3


class TestEstimateConstant:
    def test_writes_constant(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out))
        assert main(["estimate-constant", cfg]) == 0
        data = json.loads((out / "constant.json").read_text())
        assert data["ratio"] == pytest.approx(1.1 / (8 * np.pi**2), rel=1e-3)
        assert data["coercivity"] == pytest.approx(1.0 / data["ratio"], rel=1e-12)


def test_commands_sharing_an_output_directory_keep_their_records(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE.format(out=out) + "\n[verify]\nn_states = 1\n")
    commands = ("certify", "verify", "estimate-constant")
    for command in commands:
        assert main([command, cfg]) == 0
    for command in commands:
        record = json.loads((out / f"{command}-manifest.json").read_text())
        assert record["command"] == command


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    text = BASE.format(out="X").replace("family = cosine", "family = random")
    text = text.replace("amplitude = 0.5", "amplitude = 0.25")
    cfg = write_config(tmp_path, text)
    monkeypatch.setenv("HYPOFLOW_SEED", "7")
    assert main(["simulate", cfg, "--output-dir", str(out1)]) == 0
    assert main(["simulate", cfg, "--output-dir", str(out2), "--seed", "7"]) == 0
    assert (out1 / "functionals.csv").read_bytes() == \
        (out2 / "functionals.csv").read_bytes()


@pytest.mark.parametrize("command,names", [
    ("verify", ("verification.json", "verification.txt", "verify-manifest.json")),
    ("simulate", ("functionals.csv", "functionals.json", "simulate-manifest.json",
                  "trajectory/manifest.json")),
])
def test_rerun_replaces_output_files(tmp_path, command, names):
    # a second run into the same directory writes each output as a new
    # file, not into the old one: hard links keep the first run's files
    out = tmp_path / "out"
    text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 0.5")
    cfg = write_config(tmp_path, text + "\n[verify]\nn_states = 1\n")
    assert main([command, cfg]) == 0
    first = {}
    for i, name in enumerate(names):
        os.link(out / name, tmp_path / f"first{i}")
        first[name] = (out / name).read_bytes()
    assert main([command, cfg]) == 0
    for i, name in enumerate(names):
        kept = tmp_path / f"first{i}"
        assert kept.read_bytes() == first[name], name
        assert (out / name).stat().st_ino != kept.stat().st_ino, name
        assert (out / name).read_bytes() == first[name], name


# simulate writes its snapshot files in one forked child while this process
# builds the reports; the files are those a serial save_trajectory writes


@pytest.fixture
def writer_run(tmp_path, monkeypatch):
    """A short simulate config, and a record of the trajectory simulated,
    the pid each os.fork returned here, and the pid of each save_trajectory
    call this process ran (a forked child's calls are not seen)."""
    rec = types.SimpleNamespace(trajs=[], forked=[], saved_in=[], out=tmp_path / "out")
    rec.cfg = write_config(tmp_path, BASE.format(out=rec.out).replace("t_end = 5.0",
                                                                      "t_end = 0.5"))
    simulate, save, fork = cli.simulate, cli.save_trajectory, os.fork

    def recording_simulate(*args, **kwargs):
        rec.trajs.append(simulate(*args, **kwargs))
        return rec.trajs[-1]

    def recording_save(*args, **kwargs):
        rec.saved_in.append(os.getpid())
        return save(*args, **kwargs)

    def recording_fork():
        rec.forked.append(fork())
        return rec.forked[-1]

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    monkeypatch.setattr(cli, "save_trajectory", recording_save)
    monkeypatch.setattr(os, "fork", recording_fork)
    return rec


def _files(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _serial_files(rec, tmp_path) -> dict:
    (traj,) = rec.trajs
    integrator.save_trajectory(traj, tmp_path / "serial")
    return _files(tmp_path / "serial")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_writer_matches_serial_save(tmp_path, writer_run):
    assert main(["simulate", writer_run.cfg]) == 0
    assert len(writer_run.forked) == 1 and writer_run.forked[0] > 0
    assert writer_run.saved_in == []
    _no_child_left()
    written = _files(writer_run.out / "trajectory")
    assert len(written) == 3
    assert written == _serial_files(writer_run, tmp_path)


def _failing_report(*args, **kwargs):
    raise PositivityError("report refused")


# the writer's failure is the one line the serial save printed, also when
# the reports fail too, as the save came first
@pytest.mark.parametrize("reports_fail", [False, True], ids=["reports-pass", "reports-fail"])
def test_writer_failure_is_one_config_error_line(writer_run, capsys, monkeypatch, reports_fail):
    if reports_fail:
        monkeypatch.setattr(cli, "build_report", _failing_report)
    blocker = writer_run.out / "trajectory"
    writer_run.out.mkdir()
    blocker.write_text("not a directory\n")
    assert main(["simulate", writer_run.cfg]) == 1
    exc = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(blocker))
    assert capsys.readouterr().err == f"configuration error: cannot write output: {exc}\n"
    assert len(writer_run.forked) == 1
    _no_child_left()
    assert blocker.read_text() == "not a directory\n"
    assert not (writer_run.out / "functionals.csv").exists()


def test_report_failure_leaves_the_whole_trajectory(tmp_path, writer_run, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_report", _failing_report)
    assert main(["simulate", writer_run.cfg]) == 2
    assert capsys.readouterr().err == "invariant failure: report refused\n"
    assert len(writer_run.forked) == 1
    _no_child_left()
    assert _files(writer_run.out / "trajectory") == _serial_files(writer_run, tmp_path)
    assert not (writer_run.out / "functionals.csv").exists()


def test_killed_writer_is_one_config_error_line(writer_run, capsys, monkeypatch):
    parent = os.getpid()

    def killed(traj, directory):
        assert os.getpid() != parent, "the trajectory was saved in this process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "save_trajectory", killed)
    assert main(["simulate", writer_run.cfg]) == 1
    line = _one_config_error_line(capsys)
    assert line == (f"configuration error: cannot write output: the snapshot writer for "
                    f"{writer_run.out / 'trajectory'} was killed by signal {int(signal.SIGKILL)}")
    assert len(writer_run.forked) == 1
    _no_child_left()
    assert not (writer_run.out / "functionals.csv").exists()


def test_without_fork_the_trajectory_is_saved_in_process(tmp_path, writer_run, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", writer_run.cfg]) == 0
    assert writer_run.forked == []
    assert writer_run.saved_in == [os.getpid()]
    _no_child_left()
    assert _files(writer_run.out / "trajectory") == _serial_files(writer_run, tmp_path)


# the three workload configs of perfbench/run.py
WORKLOADS = {
    "sim2d-bgk": ("[grid]\ndim = 2\nnx = 32\nnv = 16\n[model]\n" + BGK_MODEL
                  + "\n[initial]\nfamily = random\n"
                  "[schedule]\ndt = 0.01\nt_end = 0.5\nsnapshot_every = 10\n", ("simulate",)),
    "sim1d-fp": ("[grid]\ndim = 1\nnx = 64\nnv = 32\n[model]\n" + FP_MODEL
                 + "\n[initial]\nfamily = random\n"
                 "[schedule]\ndt = 0.01\nt_end = 20.0\nsnapshot_every = 10\n"
                 "[fit]\ntrajectory = {out}/trajectory\nfunctional = entropy\n"
                 "t_start = 0.1\nt_end = 1.0\n", ("simulate", "fit-decay")),
    "verify1d-bgk": ("[grid]\ndim = 1\nnx = 64\nnv = 32\n[model]\n"
                     + BGK_MODEL.replace("boltzmann", "1.5")
                     + "\n[verify]\nn_states = 100\n", ("certify", "verify")),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_json_artifacts_are_json_dumps(tmp_path, workload):
    # every JSON file holds the bytes json.dumps(..., indent=1, sort_keys=True)
    # gives for its own content
    text, commands = WORKLOADS[workload]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, text.format(out=out))
    for command in commands:
        assert main([command, cfg, "--output-dir", str(out), "--seed", "0"]) == 0
    paths = sorted(out.rglob("*.json"))
    assert len(paths) >= 2
    for path in paths:
        data = path.read_bytes()
        assert data == (json.dumps(json.loads(data), indent=1, sort_keys=True) + "\n").encode(), path
