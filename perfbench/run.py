#!/usr/bin/env python3
"""Benchmark of shockwave-lab: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload stability --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out perfbench/results/x.json

A run builds its inputs from --seed, measures operations for about
--seconds seconds, checks every operation's outputs, and prints as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from a traced
run.  --workload all runs every workload in its own process, one after
another, and prints a summary table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("stability", "records", "datum-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_THREADS = 2
SETUP_SAMPLES = 7


def hold_threads():
    """Keep BLAS/OpenMP pools at <= MAX_THREADS (1 when unset); must run
    before numpy is imported, here and in every child process."""
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        n = int(val) if val.isdigit() and int(val) > 0 else 1
        os.environ[var] = str(min(n, MAX_THREADS))


def import_package():
    """Import shockwave_lab from this checkout's src/, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "shockwave_lab", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/shockwave_lab; "
                 "run from a full checkout")
    sys.path.insert(0, SRC)
    import shockwave_lab
    if not os.path.abspath(shockwave_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported {shockwave_lab.__file__}, not the "
                 f"checkout's {SRC}")
    return shockwave_lab


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    import shockwave_lab
    return {
        "git_commit": git_commit(),
        "package_version": shockwave_lab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "SHOCKWAVE_THREADS": os.environ.get("SHOCKWAVE_THREADS"),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


# ------------------------------------------------------- calibrated time

# Wall time on a shared machine swings by a third or more over tens of
# seconds as other tenants load the cores, and a fixed kernel slows about
# as much as the package does.  So each timed sample is bracketed by two
# runs of a fixed reference kernel and multiplied by REF_NOMINAL_S / (their
# mean).  The end-to-end timings are then seconds at the speed at which the
# kernel takes REF_NOMINAL_S, about its time on an unloaded core; raw
# medians are printed and recorded beside them.
REF_NOMINAL_S = 0.06


def reference_s():
    """Wall time of fixed work of the kinds the workloads do: numpy
    arithmetic on 4000-point arrays and a pure-Python loop."""
    import numpy as np
    t0 = time.perf_counter()
    v = np.linspace(1.0, 2.0, 4000)
    u = 0.5 * v
    for _ in range(1200):
        p = v ** -2.0
        dv = np.zeros_like(v)
        dv[1:-1] = u[2:] - u[:-2]
        du = np.zeros_like(u)
        du[1:-1] = p[:-2] - p[2:]
        v = v + 1e-9 * dv
        u = u + 1e-9 * du
    acc = 0
    for i in range(480_000):
        acc += i % 7
    return time.perf_counter() - t0


def calibrated(fn):
    """(fn(), scale): scale turns a time taken while fn ran into
    calibrated seconds."""
    before = reference_s()
    out = fn()
    after = reference_s()
    return out, REF_NOMINAL_S / (0.5 * (before + after))


# ------------------------------------------------------------------ setup

def setup_probe(args):
    """Child process: import the package and build the inputs, then say so."""
    import_package()
    import workloads
    workloads.make_workload(args.workload, args.seed, args.workdir, args.smoke)
    print("ready", flush=True)


def setup_samples(args, workdir, n):
    """Time from process start to inputs ready, in n fresh interpreters;
    returns [(seconds, calibration scale)]."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir] + (["--smoke"] if args.smoke else [])

    def probe():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        return elapsed

    return [calibrated(probe) for _ in range(n)]


# ------------------------------------------------------------ measurement

def measure(work, budget, trace=False):
    """Run operations while the next one is expected to end within budget
    seconds (at least one).  With trace, every second operation is traced,
    so traced and untraced operations see the same conditions.  Returns
    [(op result, tracer or None, calibration scale)]."""
    from spans import Tracer
    ops = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(ops) >= 1 + trace and elapsed + elapsed / len(ops) > budget:
            break
        tracer = Tracer() if trace and len(ops) % 2 else None
        result, scale = calibrated(lambda: work.run_op(len(ops), tracer))
        ops.append((result, tracer, scale))
    return ops


# check outputs whose worst value over the ops is the smallest
LOWER_IS_WORSE = ("entropy_margin", "energy.min_f", "psi.consistency_order",
                  "stability.v_min", "chi_min_over_vm")


def clean_samples(ops):
    """(raw seconds, scales) of the ops that ran to the end and passed
    their checks.  A failed op is left out: its time may be that of work
    cut short, which would make the median look better."""
    clean = [(r.wall_s, scale) for r, _, scale in ops if r.failed == 0]
    return [t for t, _ in clean], [sc for _, sc in clean]


def summarize_checks(results):
    """Worst value of each check output over all ops."""
    out = {}
    for r in results:
        for name, val in r.checks.items():
            out.setdefault(name, []).append(val)
    return {name: min(vals) if name in LOWER_IS_WORSE else max(vals)
            for name, vals in out.items()}


def run_one(args):
    """One workload run; returns the result record (last line printed by main)."""
    import_package()
    import workloads
    from spans import layer_metrics

    workdir = os.path.join(WORKDIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = setup_samples(args, workdir,
                              2 if args.smoke else SETUP_SAMPLES)
        work = workloads.make_workload(args.workload, args.seed, workdir,
                                       args.smoke)
        ops = measure(work, float(args.seconds), bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [r for r, _, _ in ops]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    walls, wall_scales = clean_samples(ops)
    wall_cal = [t * sc for t, sc in zip(walls, wall_scales)]
    setup_raw = [t for t, _ in setup]
    setup_cal = [t * scale for t, scale in setup]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "op": "run" if args.workload != "datum-sweep" else
              f"batch of {work.size} cases",
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "setup_s_samples": setup_cal, "wall_s_samples": wall_cal,
        "setup_s_raw_samples": setup_raw, "wall_s_raw_samples": walls,
        "setup_s_scales": [sc for _, sc in setup], "wall_s_scales": wall_scales,
        "wall_s_failed_ops_left_out": len(ops) - len(walls),
        "checks": summarize_checks(results),
        "errors": [e for r in results for e in r.errors][:20],
        "environment": environment(),
    }
    if args.trace:
        def calibrated_median(traced):
            return median_or_none([r.wall_s * scale for r, tr, scale in ops
                                   if (tr is not None) == traced
                                   and r.failed == 0])

        # a traced op cut short by an exception has no wall time to share
        per_op = [layer_metrics(tr, r.wall_s, work.parse_s)
                  for r, tr, _ in ops if tr is not None and r.wall_s is not None]
        if not per_op:
            sys.exit("perfbench: every traced op was aborted: "
                     + "; ".join(e for r in results for e in r.errors)[:2000])
        metrics = {}
        for name, (_, unit) in per_op[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_op),
                             "unit": unit}
        traced, untraced = calibrated_median(True), calibrated_median(False)
        metrics["trace.overhead_s"] = {
            "value": None if traced is None or untraced is None
                     else traced - untraced,
            "unit": "s"}
        record["traced_ops"] = len(per_op)
        os.makedirs(WORKDIR, exist_ok=True)
        trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-s{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ops": [tr.dump() for _, tr, _ in ops if tr is not None]}, f)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_cal), "unit": "s",
                        "samples": len(setup_cal)},
            "wall_s": {"value": median_or_none(wall_cal), "unit": "s",
                       "samples": len(wall_cal)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
        }
    record["metrics"] = metrics
    return record


def median_or_none(values):
    """Median, or None (printed as null) when every op failed."""
    return statistics.median(values) if values else None


def print_human(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"  op = {rec['op']}")
    for name, m in rec["metrics"].items():
        n = f"  (median of {m['samples']})" if m.get("samples", 1) > 1 else ""
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:30s} {value} {m['unit']}{n}")
    if not rec["trace"] and rec["wall_s_raw_samples"]:
        print(f"  {'raw setup_s, wall_s':30s} "
              f"{statistics.median(rec['setup_s_raw_samples']):.6g} s, "
              f"{statistics.median(rec['wall_s_raw_samples']):.6g} s "
              f"(median calibration scale "
              f"{statistics.median(rec['wall_s_scales']):.4g})")
    if rec["wall_s_failed_ops_left_out"]:
        print(f"  {rec['wall_s_failed_ops_left_out']} failed ops left out "
              "of the wall_s samples")
    print(f"  {'failed_ratio':30s} {rec['failed_ratio']:.6g}"
          f"  ({rec['failed']} of {rec['attempted']} ops)")
    for name, val in rec["checks"].items():
        print(f"  check {name:24s} {val:.6g}")
    for err in rec["errors"]:
        print(f"  FAILED {err}")


def last_line(rec):
    return json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in rec["metrics"].items()},
    })


def run_all(args):
    """Every workload in its own process, one at a time; trace 0, then
    trace 1 as well when --trace 1 is given."""
    records = []
    for workload in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            out = os.path.join(WORKDIR, f"all-{workload}-{trace}.json")
            os.makedirs(WORKDIR, exist_ok=True)
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", out] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {workload} (trace {trace}) exited "
                         f"with {proc.returncode}")
            with open(out) as f:
                records.append(json.load(f))
            os.remove(out)
    print("\nsummary (end to end; timings are medians, n = samples)")
    print(f"  {'workload':12s} {'setup_s':>16s} {'wall_s':>16s} "
          f"{'peak_rss_mb':>12s} {'failed_ratio':>20s}")
    for rec in records:
        if rec["trace"]:
            continue
        m = rec["metrics"]
        print(f"  {rec['workload']:12s} "
              f"{m['setup_s']['value']:9.4f} (n={m['setup_s']['samples']:2d}) "
              f"{m['wall_s']['value'] or math.nan:9.4f} "
              f"(n={m['wall_s']['samples']:2d}) "
              f"{m['peak_rss_mb']['value']:12.1f} "
              f"{rec['failed_ratio']:6.3g} ({rec['failed']}/{rec['attempted']} "
              f"{'runs' if rec['workload'] != 'datum-sweep' else 'cases'})")
    if args.out:
        write_json(args.out, {"environment": records[0]["environment"],
                              "command": sys.argv, "runs": records})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
                    for r in records for k, v in r["metrics"].items()},
    }))


def write_json(path, data):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    hold_threads()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    rec = run_one(args)
    if args.out:
        write_json(args.out, rec)
    print_human(rec)
    print(last_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
