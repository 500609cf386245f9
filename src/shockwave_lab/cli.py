"""Command-line interface: configuration-driven experiments and the
verification suites.

    shockwave-lab <riemann|profile|shifts|simulate|verify>
                  [--config PATH] [--out DIR] [--suite NAME]

Exit status 0 on success; 1 on stage errors or failed verification;
2 on usage errors.  Outputs are deterministic for a fixed config and
platform (CSV floats carry 17 significant digits).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verify as verify_mod
from .composite import TruncationError
from .config import ConfigError, TimeSpec, parse_config
from .kernels import write_csv
from .profile import build_profiles
from .solver import PositivityError, run_simulation, setup_experiment

__all__ = ["main"]


def _ensure_out(cfg, override):
    out = override or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_riemann(cfg, out_dir):
    ts = cfg.riemann.resolve(cfg.gas)
    print(f"v_m = {ts.mid.v:.6f}")
    print(f"u_m = {ts.mid.u:.6f}")
    print(f"s1 = {ts.s1:.6f}")
    print(f"s2 = {ts.s2:.6f}")
    print(f"chi1 = {ts.chi1:.6f}")
    print(f"chi2 = {ts.chi2:.6f}")
    names = ("v_minus", "u_minus", "v_m", "u_m", "v_plus", "u_plus",
             "s1", "s2", "chi1", "chi2")
    vals = (ts.left.v, ts.left.u, ts.mid.v, ts.mid.u, ts.right.v, ts.right.u,
            ts.s1, ts.s2, ts.chi1, ts.chi2)
    write_csv(os.path.join(out_dir, "riemann.csv"), names,
              [[v] for v in vals])
    return 0


def cmd_profile(cfg, out_dir):
    ts = cfg.riemann.resolve(cfg.gas)
    p1, p2 = build_profiles(cfg.gas, ts)
    for tag, prof in (("1", p1), ("2", p2)):
        xi = prof.xi_table
        V, U, Vx, Ux = prof.evaluate(xi)
        write_csv(os.path.join(out_dir, f"profile{tag}.csv"),
                  ("xi", "V", "U", "Vx", "Ux"), (xi, V, U, Vx, Ux))
        print(f"wave {tag}: s = {prof.s:.6f}, chi = {prof.chi:.6f}, "
              f"c_minus = {prof.c_minus:.6f}, c_plus = {prof.c_plus:.6f}")
    return 0


def cmd_shifts(cfg, out_dir):
    exp = setup_experiment(cfg)
    si = exp.shift_inputs
    b1, b2 = exp.composite.beta1, exp.composite.beta2
    print(f"I01 = {si.I01:.12g}")
    print(f"I02 = {si.I02:.12g}")
    print(f"beta1 = {b1:.12g}")
    print(f"beta2 = {b2:.12g}")
    write_csv(os.path.join(out_dir, "shifts.csv"),
              ("I01", "I02", "beta1", "beta2"),
              ([si.I01], [si.I02], [b1], [b2]))
    return 0


def _write_run(out_dir, series, snapshots):
    diag_path = os.path.join(out_dir, "diag.csv")
    series.to_csv(diag_path)
    for snap in snapshots:
        snap.write_csv(os.path.join(out_dir, TimeSpec.snapshot_name(snap.t)))
    return diag_path


def cmd_simulate(cfg, out_dir):
    try:
        result = run_simulation(cfg)
    except (PositivityError, TruncationError) as exc:  # keep the partial run
        if getattr(exc, "series", None) is not None:
            diag_path = _write_run(out_dir, exc.series, exc.snapshots)
            print(f"wrote partial {diag_path} ({len(exc.series)} record(s)) "
                  f"and {len(exc.snapshots)} snapshot(s), the last at the "
                  "failure", file=sys.stderr)
        raise
    diag_path = _write_run(out_dir, result.series, result.snapshots)
    last = result.series.records[-1]
    print(f"shifts: beta1 = {result.composite.beta1:.12g}, "
          f"beta2 = {result.composite.beta2:.12g}")
    print(f"final t = {last.t:g}: sup|v-V| = {last.sup_v:.6g}, "
          f"sup|u-U| = {last.sup_u:.6g}, ||W|| = {last.l2_W:.6g}")
    print(f"wrote {diag_path} and {len(result.snapshots)} snapshot(s)")
    return 0


def cmd_verify(suite):
    if suite not in verify_mod.SUITE_NAMES:
        print(f"usage error: unknown suite '{suite}'; "
              f"choose from {', '.join(verify_mod.SUITE_NAMES)}",
              file=sys.stderr)
        return 2
    results, ok = verify_mod.run_suite(suite)
    for r in results:
        print(verify_mod.format_result(r))
    return 0 if ok else 1


_CONFIG_COMMANDS = {
    "riemann": cmd_riemann,
    "profile": cmd_profile,
    "shifts": cmd_shifts,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shockwave-lab",
        description="Two-shock composite-wave laboratory for the 1-D "
                    "isentropic Navier-Stokes system")
    parser.add_argument("command", choices=(*_CONFIG_COMMANDS, "verify"))
    parser.add_argument("--config", help="experiment configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--suite", default="all",
                        help="verification suite name (verify command)")
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.suite)

    if not args.config:
        parser.error(f"command '{args.command}' requires --config")
    try:
        cfg = parse_config(args.config)
        out_dir = _ensure_out(cfg, args.out)
        return _CONFIG_COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # stage errors surface with the module label
        print(f"{args.command} error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
