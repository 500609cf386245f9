#!/usr/bin/env python3
"""Spread of the end-to-end timings over rounds of runs, three ways.

    python3 perfbench/spread.py perfbench/results/rounds.jsonl
    python3 perfbench/spread.py --condense D out/*.json >> perfbench/results/rounds.jsonl

Reads run records, one JSON object per line or per file: the full
records that ``run.py --out`` writes, or the condensed ones kept in
``results/rounds.jsonl``.  For each round and workload it prints the
median and the quartile spread, (Q3 - Q1) / median, of ``setup_s`` and
``wall_s`` over the round's runs, each measured three ways:

- raw: the median of the raw samples;
- per-sample: each sample scaled by the reference kernel timed around
  it, which is what ``run.py`` reports;
- per-run: the raw median scaled once, by the median of all the run's
  kernel scales.

``--condense TAG`` prints the records as condensed lines of round TAG
instead.
"""

import argparse
import json
import statistics
import sys

KEEP = ("workload", "seed", "setup_s_raw_samples", "setup_s_scales",
        "wall_s_raw_samples", "wall_s_scales")


def load(paths):
    recs = []
    for path in paths:
        with open(path) as f:
            text = f.read().strip()
        try:
            recs.append(json.loads(text))
        except json.JSONDecodeError:
            recs += [json.loads(line) for line in text.splitlines() if line]
    return recs


def condense(rec, tag):
    out = {"round": tag, **{k: rec[k] for k in KEEP}}
    out["peak_rss_mb"] = rec["metrics"]["peak_rss_mb"]["value"]
    return out


def three_ways(rec, kind):
    raw = rec[f"{kind}_s_raw_samples"]
    scales = rec[f"{kind}_s_scales"]
    run_scale = statistics.median(rec["setup_s_scales"] + rec["wall_s_scales"])
    return {"raw": statistics.median(raw),
            "per-sample": statistics.median(t * s for t, s in zip(raw, scales)),
            "per-run": statistics.median(raw) * run_scale}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--condense", metavar="TAG")
    args = parser.parse_args(argv)
    recs = load(args.files)
    if args.condense:
        for rec in recs:
            print(json.dumps(condense(rec, args.condense)))
        return 0
    groups = {}
    for rec in recs:
        groups.setdefault((rec.get("round", "-"), rec["workload"]), []).append(rec)
    print(f"{'round':6s} {'workload':12s} {'n':>3s} {'metric':8s} "
          + "".join(f"{way:>22s}" for way in ("raw", "per-sample", "per-run")))
    for (tag, workload), group in groups.items():
        if len(group) < 2:
            continue
        for kind in ("setup", "wall"):
            ways = [three_ways(r, kind) for r in group]
            cells = "".join(
                f"{statistics.median(v):12.4f} ({spread(v):6.1%})"
                for v in ([w[way] for w in ways]
                          for way in ("raw", "per-sample", "per-run")))
            print(f"{tag:6s} {workload:12s} {len(group):3d} {kind + '_s':8s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
