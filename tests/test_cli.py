import csv
import json
import os
import textwrap

import numpy as np
import pytest

from hypoflow.cli import main

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
        manifest = json.loads((out / "manifest.json").read_text())
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

    def test_amplitude_floor_enforced(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(out=tmp_path / "o").replace(
            "amplitude = 0.5", "amplitude = 0.95"))
        assert main(["simulate", cfg]) == 1

    def test_fokker_planck_needs_power_entropy(self, tmp_path):
        text = BASE.format(out=tmp_path / "o").replace(
            "kind = bgk", "kind = fokker-planck")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 1

    def test_fokker_planck_run(self, tmp_path):
        out = tmp_path / "fp"
        text = BASE.format(out=out)
        text = text.replace("kind = bgk", "kind = fokker-planck")
        text = text.replace("p = boltzmann", "p = 1.5")
        text = text.replace("nv = 16", "nv = 32")
        text = text.replace("t_end = 5.0", "t_end = 1.0")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", cfg]) == 0
        header, body = read_csv(out / "functionals.csv")
        assert body
        assert header.index("hess_xv")


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

    def test_missing_lambda_is_config_error(self, tmp_path):
        text = BASE.format(out=tmp_path / "o").replace("lambda = 1.0\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 1

    def test_explicit_eta(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[certificate]\nC = 1000000.0\neta = 0.1\n"
        cfg = write_config(tmp_path, text)
        assert main(["certify", cfg]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["eta"] == 0.1
        assert cert["rate"] == pytest.approx(0.1 / 12.0, rel=1e-12)


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

    def test_jobs_flag(self, tmp_path):
        out = tmp_path / "out"
        text = BASE.format(out=out) + "\n[verify]\nn_states = 2\n"
        cfg = write_config(tmp_path, text)
        assert main(["verify", cfg, "--jobs", "2"]) == 0


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
    ("verify", "n_states = 2", "n_states = many"),
    ("verify", "n_states = 2", "n_states = 0"),
    ("simulate", "nx = 32", "nx = many"),
    ("simulate", "amplitude = 0.5", "amplitude = half"),
    ("simulate", "dt = 0.01", "dt = soon"),
    ("simulate", "t_end = 5.0", "t_end = inf"),
    ("certify", "C = 1000000.0", "C = large"),
    ("certify", "C = 1000000.0", "C = -1"),
    ("certify", "C = 1000000.0", "C = 0"),
    ("certify", "C = 1000000.0", "C = 1000000.0\neta = -0.5"),
    ("simulate", "family = cosine", "family = random\nv_degree = 3"),
    ("simulate", "family = cosine", "family = random\nx_modes = -1"),
    # two edits: the velocity-diffusion certificate has no splitter
    pytest.param("certify", (BGK_MODEL, "C = 1000000.0"),
                 (FP_MODEL, "C = 1000000.0\neta = 0.5"), id="certify-fp-eta"),
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


def _truncate(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))


def _move_period(path):
    text = path.read_text()
    assert " period=1.0 " in text
    path.write_text(text.replace(" period=1.0 ", " period=2.0 ", 1))


def _edit_header(old, new):
    def damage(path):
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return damage


@pytest.mark.parametrize("damage,named", [
    (_truncate, None), (_move_period, None),
    (_edit_header(" nv=16 ", " "), "'nv'"), (_edit_header(" nx=32 ", " nx=abc "), "nx='abc'"),
], ids=["truncated", "mismatched-header", "missing-key", "bad-value"])
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


@pytest.mark.parametrize("sim_model,fit_model,fit_keys,named", [
    (BGK_MODEL, BGK_MODEL, "functional = p", "'p'"),
    (BGK_MODEL, BGK_MODEL, "t_start = 5\nt_end = 1", "fewer than two snapshots"),
    (FP_MODEL, "kind = bgk\nlambda = 3\np = boltzmann", "", "FokkerPlanck()"),
    (BGK_MODEL, BGK_MODEL.replace("1.0", "3"), "", "BGK(rate=1.0)"),
], ids=["non-numeric-functional", "empty-window", "other-kind", "other-rate"])
def test_bad_fit_is_config_error(tmp_path, capsys, sim_model, fit_model, fit_keys, named):
    out = tmp_path / "sim"
    # nv = 32: the velocity-diffusion run needs it to keep mass
    text = BASE.format(out=out).replace("t_end = 5.0", "t_end = 1.0").replace("nv = 16", "nv = 32")
    assert main(["simulate", write_config(tmp_path, text.replace(BGK_MODEL, sim_model))]) == 0
    fit_text = (text.replace(BGK_MODEL, fit_model)
                + f"\n[fit]\ntrajectory = {out / 'trajectory'}\n{fit_keys}\n")
    fit_cfg = write_config(tmp_path, fit_text, name="fit.ini")
    capsys.readouterr()
    assert main(["fit-decay", fit_cfg, "--output-dir", str(tmp_path / "fit")]) == 1
    line = _one_config_error_line(capsys)
    assert named in line, line


class TestEstimateConstant:
    def test_writes_constant(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, BASE.format(out=out))
        assert main(["estimate-constant", cfg]) == 0
        data = json.loads((out / "constant.json").read_text())
        assert data["ratio"] == pytest.approx(1.1 / (8 * np.pi**2), rel=1e-3)
        assert data["coercivity"] == pytest.approx(1.0 / data["ratio"], rel=1e-12)


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
