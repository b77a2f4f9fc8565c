"""Rewrite reference.json from the default seed's outputs.

    python3 perfbench/make_reference.py

Runs each workload's commands once with run.py's default seed and records
what run.py compares against: the final report row of `simulate`, the
fitted rate of `fit-decay` and the certified rate of `certify`. Rerun it
only for a change to hypoflow that is meant to change these outputs.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    cli = run.import_program()
    reference = {}
    for name in run.WORKLOADS:
        work = os.path.join(run.WORK, f"reference-{name}")
        try:
            r = run.Run(name, run.DEFAULT_SEED, work, cli, ref=None)
            entry = {}
            for cmd in r.wl["commands"]:
                outdir = os.path.join(work, cmd)
                rc = cli.main([cmd, r.config, "--output-dir", outdir,
                               "--seed", str(r.seed), "--jobs", "1"])
                if rc != 0:
                    raise SystemExit(f"{name} {cmd} exited with {rc}")
                if cmd == "simulate":
                    row = run.read_csv(os.path.join(outdir, "functionals.csv"))[-1]
                    entry["final_row"] = {c: (float(v) if v != "" else None)
                                          for c, v in row.items() if c != "p"}
                elif cmd == "fit-decay":
                    with open(os.path.join(outdir, "decay_fit.json")) as f:
                        entry["fit_rate"] = json.load(f)["rate"]
                elif cmd == "certify":
                    with open(os.path.join(outdir, "certificate.json")) as f:
                        entry["certified_rate"] = json.load(f)["rate"]
            reference[name] = entry
        finally:
            shutil.rmtree(work, ignore_errors=True)
    os.rmdir(run.WORK)
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
