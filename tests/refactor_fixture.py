"""The committed proof that a refactor keeps every bit of the experiment.

fixtures/stability/ holds what the stability experiment of `verify`
produced when it was made:

- verify.txt: the lines of `shockwave-lab verify --suite all`, as
  printed, without the <suite>.runtime_s lines, which time the machine;
- diag.csv: the whole diag.csv of the T = 50 stability run;
- manifest.json: SHA-256 digests of that run's snapshots and of the
  riemann, profile and shifts CSVs of the stability config, with the
  numpy and scipy versions and the platform they were made on.

The acceptance tests check them from the runs they make.  Regenerate,
only when the arithmetic is meant to change, with

    PYTHONPATH=src python tests/refactor_fixture.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from shockwave_lab import cli, verify

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "stability"
REGENERATE = "PYTHONPATH=src python tests/refactor_fixture.py"
SNAPSHOT_FILES = ("snap_t0.csv", "snap_t5.csv", "snap_t50.csv")
COMMAND_FILES = ("riemann.csv", "profile1.csv", "profile2.csv", "shifts.csv")


def environment():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def verify_lines(results):
    """The printed lines of results that do not time the machine."""
    return [verify.format_result(r) for r in results
            if not r.name.endswith(".runtime_s")]


def write_run(result, out_dir):
    """diag.csv and the snapshots of a run, written as `simulate` writes
    them."""
    cli._write_run(str(out_dir), result.series, result.snapshots)


def write_commands(cfg, out_dir):
    """The CSVs of `riemann`, `profile` and `shifts` on cfg."""
    for command in (cli.cmd_riemann, cli.cmd_profile, cli.cmd_shifts):
        assert command(cfg, str(out_dir)) == 0


def digests(out_dir, names):
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in names}


def load():
    """(verify lines by name, diag.csv text, manifest) of the fixture."""
    lines = (FIXTURE / "verify.txt").read_text().splitlines()
    by_name = {line.split(",", 1)[0]: line for line in lines}
    manifest = json.loads((FIXTURE / "manifest.json").read_text())
    return by_name, (FIXTURE / "diag.csv").read_text(), manifest


def first_csv_difference(got, want):
    """None if the CSV texts are equal, else where they first differ:
    the row (1 is the first after the header), its t and the column."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if got_rows[:1] != want_rows[:1]:
        return f"header {got_rows[:1]} != fixture {want_rows[:1]}"
    names = want_rows[0].split(",")
    for row, (g, w) in enumerate(zip(got_rows, want_rows)):
        if g != w:
            g_vals, w_vals = g.split(","), w.split(",")
            for name, gv, wv in zip(names, g_vals, w_vals):
                if gv != wv:
                    return (f"row {row} (t = {w_vals[0]}), column {name}: "
                            f"{gv} != fixture {wv}")
            return f"row {row}: {len(g_vals)} values != fixture {len(w_vals)}"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows) - 1} rows != fixture {len(want_rows) - 1}"
    return None


def regenerate():
    results, ok = verify.run_suite("all")
    if not ok:
        sys.exit("verify --suite all fails; the fixture is not written")
    cfg = verify.stability_config()
    result = verify.run_simulation(cfg)
    FIXTURE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as out:
        write_run(result, out)
        write_commands(cfg, out)
        sha = digests(out, SNAPSHOT_FILES + COMMAND_FILES)
        (FIXTURE / "diag.csv").write_bytes((Path(out) / "diag.csv").read_bytes())
    (FIXTURE / "verify.txt").write_text("\n".join(verify_lines(results)) + "\n")
    (FIXTURE / "manifest.json").write_text(
        json.dumps({**environment(), "sha256": sha}, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
