"""Spans around the calls into each shockwave-lab module, taken from outside.

A traced operation installs wrappers at the places where the package
looks its functions up: the defining module for calls the benchmark
makes itself, and the importing module for calls the package makes
internally (``solver`` imports ``build_profiles``, ``compute_shift_inputs``
and ``solve_shifts`` by name, and ``run_simulation`` finds ``rk4_step``,
``semidiscrete_rhs`` and ``stable_dt`` in ``solver``'s globals).  Methods
are wrapped on their class.  Nothing is wrapped outside a traced
operation, so untraced runs execute the package unchanged.

Each span records its name, start, end and parent; a span's self time
is its duration minus the part its child spans cover.  The per-step
spans (``solver.rk4_step``, ``solver.rhs``, ``solver.stable_dt``) are only
aggregated per (name, parent), because a stability run makes hundreds
of thousands of them.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from shockwave_lab import composite, config, diagnostics, profile, solver

ROOT = "op"
HOT = frozenset({"solver.rk4_step", "solver.rhs", "solver.stable_dt"})

# (owner, attribute, span name); the owner is a module or a class
PATCHES = (
    (config.RiemannSpec, "resolve", "riemann.resolve"),
    (config.Perturbation, "__call__", "config.perturbation"),
    (profile, "build_profiles", "profile.build"),
    (solver, "build_profiles", "profile.build"),
    (composite.CompositeWave, "state_fields", "composite.state_fields"),
    (composite.CompositeWave, "fields", "composite.fields"),
    (composite, "compute_shift_inputs", "composite.shift_inputs"),
    (solver, "compute_shift_inputs", "composite.shift_inputs"),
    (composite, "solve_shifts", "composite.solve_shifts"),
    (solver, "solve_shifts", "composite.solve_shifts"),
    (composite, "interaction_norm", "composite.interaction_norm"),
    (solver, "run_simulation", "solver.run_simulation"),
    (solver, "rk4_step", "solver.rk4_step"),
    (solver, "semidiscrete_rhs", "solver.rhs"),
    (solver, "stable_dt", "solver.stable_dt"),
    (solver, "effective_velocity", "solver.effective_velocity"),
    (diagnostics, "make_record", "diagnostics.make_record"),
    (diagnostics.DiagnosticsSeries, "to_csv", "output.diag_csv"),
    (solver.Snapshot, "write_csv", "output.snapshot_csv"),
)


class Tracer:
    """Span recorder for one traced operation."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.agg = {}        # (name, parent name) -> [count, total, self]
        self.spans = []      # (id, name, start, end, parent id), not HOT
        self.counts = {}     # named counters (points, table nodes, rows, ...)
        self.steps = {"viscous": 0, "hyperbolic": 0, "clipped": 0}
        self.dts = []
        self.dt_ratio = []   # dt_h / dt_v per stable_dt call
        self._bounds = None  # (stable dt, dt_h, dt_v) of the last stable_dt
        self._stack = []     # [name, start, child cover, span id]
        self._next_id = 0

    # -- spans -------------------------------------------------------

    def enter(self, name):
        sid = None
        if name not in HOT:
            sid = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, sid])

    def exit(self):
        end = self.clock()
        name, start, cover, sid = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent is not None else "")
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - cover
        if sid is not None:
            self.spans.append((sid, name, start - self.t0, end - self.t0,
                               parent[3] if parent is not None else None))

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation ------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every call site in PATCHES and open a root span."""
        hooks = {
            "composite.fields": (None, self._points("composite.fields_points")),
            "composite.state_fields": (None, self._points("composite.state_points")),
            "profile.build": (None, self._table_nodes),
            "solver.stable_dt": (None, self._stable_dt),
            "solver.rk4_step": (self._rk4_step, None),
        }
        saved = []
        for owner, attr, name in PATCHES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self._wrap(name, original, before, after))
        self.enter(ROOT)
        try:
            yield self
        finally:
            self.exit()
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _wrap(self, name, fn, before, after):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- hooks -------------------------------------------------------

    def _points(self, counter):
        def after(args, kwargs, out):
            self.count(counter, int(args[1].size))
        return after

    def _table_nodes(self, args, kwargs, profiles):
        # node count of the gap tables; the public xi_table would copy them
        self.count("profile.table_nodes",
                   sum(p._xi_l.size + p._xi_r.size for p in profiles))

    def _stable_dt(self, args, kwargs, dt):
        """Both CFL bounds of solver.stable_dt, recomputed from its inputs."""
        gas, state, grid = args[:3]
        scheme = args[3] if len(args) > 3 else kwargs.get("scheme",
                                                          solver.SchemeConfig())
        vmin = float(state.v.min())
        lam_max = math.sqrt(gas.a * gas.gamma) * vmin ** (-0.5 * (gas.gamma + 1.0))
        dt_h = scheme.cfl_hyperbolic * grid.dx / lam_max
        dt_v = scheme.cfl_viscous * grid.dx ** 2 * vmin ** (gas.alpha + 1.0) / 2.0
        self._bounds = (dt, dt_h, dt_v)
        self.dt_ratio.append(dt_h / dt_v)

    def _rk4_step(self, args):
        """Name the bound that limited this step's dt."""
        dt = float(args[2])
        self.dts.append(dt)
        self.counts["solver.grid_n"] = int(args[1].v.size)
        if self._bounds is None:
            return
        stable, dt_h, dt_v = self._bounds
        if dt < stable * (1.0 - 1e-12):
            self.steps["clipped"] += 1
        elif dt_v <= dt_h:
            self.steps["viscous"] += 1
        else:
            self.steps["hyperbolic"] += 1
        self._bounds = None

    # -- summaries ---------------------------------------------------

    def total(self, name, parent=None):
        return sum(v[1] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name):
        return sum(v[2] for (n, _), v in self.agg.items() if n == name)

    def calls(self, name, parent=None):
        return sum(v[0] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def layer_self(self, layer):
        return sum(v[2] for (n, _), v in self.agg.items()
                   if n.split(".", 1)[0] == layer)

    def durations(self, name):
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def dump(self):
        """Plain-data form of everything recorded, for the trace file."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[n, p, c, t, s] for (n, p), (c, t, s) in self.agg.items()],
            "counts": dict(self.counts),
            "steps": dict(self.steps),
        }


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 98, 99, 99.5, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def layer_metrics(tr: Tracer, wall_s: float, parse_s: float):
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    rhs_s = tr.total("solver.rhs")
    rhs_evals = tr.calls("solver.rhs")
    records = tr.calls("diagnostics.make_record")
    rec_ms = sorted(1e3 * d for d in tr.durations("diagnostics.make_record"))
    tail = tail_percentile(len(rec_ms))
    if tail is not None:
        tail_ms = float(np.percentile(rec_ms, tail))
    else:
        tail_ms = rec_ms[-1] if rec_ms else 0.0
    root = tr.total(ROOT)
    covered = sum(v[2] for (n, _), v in tr.agg.items() if n != ROOT)
    layers = {layer: tr.layer_self(layer) for layer in
              ("config", "riemann", "profile", "composite", "solver",
               "diagnostics", "output")}
    diag_incl = tr.total("diagnostics.make_record")
    share = (lambda t: 100.0 * t / root) if root > 0 else (lambda t: 0.0)
    shift_s = (tr.self_time("composite.shift_inputs")
               + tr.self_time("composite.solve_shifts"))
    m = {
        "solver.steps": (tr.calls("solver.rk4_step"), "count"),
        "solver.rhs_evals": (rhs_evals, "count"),
        "solver.rhs_s": (rhs_s, "s"),
        "solver.rhs_us": (1e6 * rhs_s / rhs_evals if rhs_evals else 0.0, "us"),
        "solver.step_self_s": (tr.self_time("solver.rk4_step"), "s"),
        "solver.dt_s": (tr.total("solver.stable_dt"), "s"),
        "solver.dt_min": (min(tr.dts) if tr.dts else 0.0, "t_sim"),
        "solver.dt_max": (max(tr.dts) if tr.dts else 0.0, "t_sim"),
        "solver.dt_h_over_v": (statistics.median(tr.dt_ratio)
                               if tr.dt_ratio else 0.0, "ratio"),
        "solver.steps_viscous": (tr.steps["viscous"], "count"),
        "solver.steps_hyperbolic": (tr.steps["hyperbolic"], "count"),
        "solver.steps_clipped": (tr.steps["clipped"], "count"),
        "solver.grid_n": (tr.counts.get("solver.grid_n", 0), "count"),
        "solver.s": (layers["solver"], "s"),
        "solver.share": (share(layers["solver"]), "%"),
        "diagnostics.records": (records, "count"),
        "diagnostics.self_s": (layers["diagnostics"], "s"),
        "diagnostics.incl_s": (diag_incl, "s"),
        "diagnostics.share": (share(diag_incl), "%"),
        "diagnostics.record_ms_p50": (statistics.median(rec_ms)
                                      if rec_ms else 0.0, "ms"),
        "diagnostics.record_ms_tail": (tail_ms, "ms"),
        "diagnostics.record_tail_pct": (tail or 0, "%"),
        "diagnostics.fields_per_record": (
            tr.calls("composite.fields", "diagnostics.make_record") / records
            if records else 0.0, "count"),
        "composite.fields_calls": (tr.calls("composite.fields"), "count"),
        "composite.fields_points": (tr.counts.get("composite.fields_points", 0),
                                    "count"),
        "composite.fields_s": (tr.self_time("composite.fields"), "s"),
        "composite.state_calls": (tr.calls("composite.state_fields"), "count"),
        "composite.state_points": (tr.counts.get("composite.state_points", 0),
                                   "count"),
        "composite.state_s": (tr.self_time("composite.state_fields"), "s"),
        "composite.shift_calls": (tr.calls("composite.shift_inputs"), "count"),
        "composite.shift_s": (shift_s, "s"),
        "composite.wnorm_s": (tr.self_time("composite.interaction_norm"), "s"),
        "composite.s": (layers["composite"], "s"),
        "composite.share": (share(layers["composite"]), "%"),
        "profile.calls": (tr.calls("profile.build"), "count"),
        "profile.s": (layers["profile"], "s"),
        "profile.share": (share(layers["profile"]), "%"),
        "profile.table_nodes": (tr.counts.get("profile.table_nodes", 0), "count"),
        "riemann.calls": (tr.calls("riemann.resolve"), "count"),
        "riemann.s": (layers["riemann"], "s"),
        "output.s": (layers["output"], "s"),
        "output.bytes": (tr.counts.get("output.bytes", 0), "bytes"),
        "output.rows": (tr.counts.get("output.rows", 0), "count"),
        "config.parse_s": (parse_s, "s"),
        "config.perturbation_s": (tr.self_time("config.perturbation"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.coverage": (100.0 * covered / root if root > 0 else 0.0, "%"),
    }
    return m
