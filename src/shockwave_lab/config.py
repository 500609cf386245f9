"""Experiment configuration: flat key-value files with dotted sections.

One assignment per line, '#' starts a comment, e.g.

    gas.a          = 1.0
    gas.gamma      = 2.0
    gas.alpha      = 0.0
    riemann.v_minus = 2.0
    riemann.u_minus = 0.0
    riemann.v_m     = 1.0        # constructive form (or u_plus directly)
    riemann.v_plus  = 2.0
    composite.beta  = 40.0
    perturbation.1.target    = v
    perturbation.1.amplitude = 0.05
    perturbation.1.center    = 20.0
    perturbation.1.width     = 1.0
    grid.n   = 4000              # bounds auto-sized unless x_lo/x_hi given
    time.T   = 50.0
    time.snapshot_times = 0, 5, 50
    output.dir = out

`parse_config` only maps keys to values: each rule on a value lives in
the config type that holds it and runs when that type is constructed, so
a config built in code is checked exactly as a parsed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .profile import _TAIL_ZERO
from .riemann import (EndState, GasModel, _check_pressure, hugoniot_u,
                      in_ss_region, solve_intermediate)
from .solver import Grid1D, auto_grid

__all__ = [
    "ConfigError",
    "Perturbation",
    "RiemannSpec",
    "GridSpec",
    "TimeSpec",
    "ExperimentConfig",
    "parse_config",
]


class ConfigError(ValueError):
    """Named configuration error (missing/invalid keys, bad physics)."""


# Largest dx * c_max a run accepts, c_max being the fastest tail rate of the
# evolved waves.  On the unperturbed canonical run at t = 1, sup|v - V| / chi
# is 1.1e-3 at dx * c_max = 0.26, 4.3e-3 at 0.53 and 1.7e-2 at 1.06.
MAX_DX_RATE = 0.5
# Bound on T / record_dt, the records of a schedule.  A record costs ~1 ms
# on the 4000-point stability grid, so 1e5 of them take minutes, and their
# schedule alone (TimeSpec.events) ~0.14 s and 14 MB; 1e6 took 1.85 s and
# 124 MB before the first step.
MAX_RECORDS = 100_000


@dataclass(frozen=True)
class Perturbation:
    """Gaussian bump A exp(-((x - x0)/w)^2) added to v or u."""

    target: str
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.target not in ("v", "u"):
            raise ConfigError("perturbation target must be 'v' or 'u'")
        for name in ("amplitude", "center", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"perturbation {name} must be finite, "
                                  f"got {getattr(self, name)}")
        if not self.width > 0.0:
            raise ConfigError("perturbation width must be positive")

    def __call__(self, x):
        """A exp(-z*z), z = (x - x0)/w, at the points x, computed in one
        array; negating z*z and scaling the exponential in place give the
        same bits as the formula.  Where z*z >= _TAIL_ZERO the exponential
        rounds to 0 (profile's tail rule), so those points get A * 0.0,
        the formula's signed zero, without the slow path that exp takes
        for an underflowing argument."""
        z = np.empty(np.shape(x))
        np.subtract(x, self.center, out=z)
        z /= self.width
        np.multiply(z, z, out=z)
        zero = z >= _TAIL_ZERO
        np.negative(z, out=z)
        z[zero] = 0.0
        np.exp(z, out=z)
        z[zero] = 0.0
        z *= self.amplitude
        return z

    def reach(self, tol: float) -> float:
        """Distance from the centre beyond which the bump's magnitude is
        below tol, w sqrt(ln(|A| / tol)); 0 if it is nowhere above tol."""
        ratio = abs(self.amplitude) / tol
        return self.width * math.sqrt(math.log(ratio)) if ratio > 1.0 else 0.0


@dataclass(frozen=True)
class RiemannSpec:
    """Riemann data: direct (u_plus) or constructive (v_m) form."""

    v_minus: float
    u_minus: float
    v_plus: float
    u_plus: Optional[float] = None
    v_m: Optional[float] = None

    def __post_init__(self):
        if (self.u_plus is None) == (self.v_m is None):
            raise ConfigError(
                "riemann needs exactly one of u_plus (direct) or v_m (constructive)")
        if self.v_m is not None and not 0.0 < self.v_m < min(self.v_minus, self.v_plus):
            raise ConfigError("v_m must lie in (0, min(v_minus, v_plus))")

    def check(self, gas: GasModel):
        """ConfigError unless p = a*v**-gamma is a finite float64 at each
        given volume v > 0 and, in the direct form, (v_plus, u_plus) lies
        strictly inside the SS region of (v_minus, u_minus)."""
        try:
            for key in ("v_minus", "v_plus", "v_m"):
                v = getattr(self, key)
                if v is not None and v > 0.0:  # a volume <= 0 fails its own check
                    _check_pressure(gas, v, f"riemann.{key}")
            inside = self.u_plus is None or in_ss_region(
                gas, EndState(self.v_minus, self.u_minus),
                EndState(self.v_plus, self.u_plus))
        except OverflowError as exc:
            raise ConfigError(str(exc)) from None
        except ValueError as exc:
            raise ConfigError(f"riemann data: {exc}") from None
        if not inside:
            raise ConfigError("(v_plus, u_plus) is not in the SS region of "
                              "(v_minus, u_minus): no two-shock solution")

    def resolve(self, gas: GasModel):
        self.check(gas)
        left = EndState(self.v_minus, self.u_minus)
        if self.v_m is not None:
            u_m = float(hugoniot_u(gas, left, self.v_m))
            u_plus = float(hugoniot_u(gas, EndState(self.v_m, u_m), self.v_plus))
        else:
            u_plus = self.u_plus
        right = EndState(self.v_plus, u_plus)
        ts = solve_intermediate(gas, left, right)
        if self.v_m is not None and abs(ts.mid.v - self.v_m) > 1e-9 * self.v_m:
            raise ConfigError("constructive riemann data failed to round-trip")
        return ts


@dataclass(frozen=True)
class GridSpec:
    """Explicit bounds + count, or auto-sized domain with a fixed n or
    the spacing dx, at most one of them; neither means dx = 0.05."""

    x_lo: Optional[float] = None
    x_hi: Optional[float] = None
    n: Optional[int] = None
    dx: Optional[float] = None

    def __post_init__(self):
        if self.n is not None and self.dx is not None:
            raise ConfigError("grid.n and grid.dx cannot both be given: "
                              "grid.n fixes the spacing")
        if (self.x_lo is None) != (self.x_hi is None):
            raise ConfigError("grid.x_lo and grid.x_hi must be given together")
        if self.explicit and self.n is None:
            raise ConfigError("explicit grid needs grid.n")
        if self.explicit and not self.x_hi > self.x_lo:
            raise ConfigError("grid.x_hi must exceed grid.x_lo")
        if self.n is not None and self.n < 16:
            raise ConfigError("grid.n must be at least 16")
        if self.dx is not None and not self.dx > 0.0:
            raise ConfigError("grid.dx must be positive")

    @property
    def explicit(self) -> bool:
        return self.x_lo is not None and self.x_hi is not None

    def resolve(self, gas, ts, beta, t_final, c_max, family=None) -> Grid1D:
        """The grid of the waves starting on [0, beta], or of the lone wave
        of that family starting at 0 (beta = 0); ConfigError unless
        dx * c_max <= MAX_DX_RATE, so that it resolves profiles whose
        fastest tail rate is c_max, and unless an explicit grid strictly
        contains [0, beta], where the waves start."""
        if self.explicit:
            if not (self.x_lo < 0.0 and beta < self.x_hi):
                raise ConfigError(
                    f"grid.x_lo = {self.x_lo:g} and grid.x_hi = {self.x_hi:g} "
                    f"must strictly contain [0, {beta:g}], where the waves "
                    "start")
            grid = Grid1D.uniform(self.x_lo, self.x_hi, self.n)
        else:
            try:
                grid = auto_grid(gas, ts, beta, t_final, n=self.n, dx=self.dx,
                                 family=family)
            except ValueError as exc:  # grid.dx leaves too few points
                raise ConfigError(f"grid.dx: {exc}") from None
        if grid.dx * c_max > MAX_DX_RATE:
            key = "grid.dx" if self.n is None else "grid.n"
            raise ConfigError(
                f"{key}: dx = {grid.dx:.6g} does not resolve the shock "
                f"profiles: dx * c_max = {grid.dx * c_max:.6g} > {MAX_DX_RATE} "
                f"with c_max = {c_max:.6g}; the largest dx that passes is "
                f"{MAX_DX_RATE / c_max:.6g}")
        return grid


def _event_time(t):
    """t rounded to 12 decimals: record and snapshot times that agree to
    that many decimals are one event of the schedule."""
    return round(float(t), 12)


@dataclass(frozen=True)
class TimeSpec:
    """The run's schedule: its events and its snapshots' file names."""

    t_final: float
    record_dt: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ConfigError("time.T must be positive")
        if not self.record_dt > 0.0:
            raise ConfigError("time.record_dt must be positive")
        # counted, not built: events() holds at most ceil(records) + 1
        # records (records is inf where the quotient overflows)
        records = self.t_final / self.record_dt
        if not records < MAX_RECORDS:
            raise ConfigError(f"time.record_dt: T / record_dt = {records:.6g} "
                              f"records; a run takes fewer than {MAX_RECORDS}")
        files = {}  # each snapshot event needs a file of its own
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final:
                raise ConfigError("snapshot times must lie in [0, T]")
            t = _event_time(t)
            name = self.snapshot_name(t)
            if files.setdefault(name, t) != t:
                raise ConfigError(f"snapshot times {files[name]!r} and {t!r} "
                                  f"would both write {name} (6 significant "
                                  "digits)")

    @staticmethod
    def snapshot_name(t):
        """File name of the snapshot at time t (%g: 6 significant digits)."""
        return f"snap_t{t:g}.csv"

    def events(self):
        """Ascending (t, record, snapshot) events at _event_time times."""
        records = {_event_time(t) for t in
                   [*np.arange(0.0, self.t_final, self.record_dt), self.t_final]}
        snapshots = {_event_time(t) for t in self.snapshot_times}
        return [(t, t in records, t in snapshots)
                for t in sorted(records | snapshots)]


@dataclass(frozen=True)
class ExperimentConfig:
    gas: GasModel
    riemann: RiemannSpec
    beta: float
    perturbations: tuple = ()
    grid: GridSpec = GridSpec()
    time: TimeSpec = TimeSpec(1.0, 0.005)
    out_dir: str = "out"
    single_family: Optional[int] = None

    def __post_init__(self):
        self.riemann.check(self.gas)
        if self.single_family not in (None, 1, 2):
            raise ConfigError("riemann.single_family must be 1 or 2")
        if self.single_family is None and not self.beta > 0.0:
            raise ConfigError("composite.beta must be positive")


def _read_entries(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if not key or not val:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            entries[key] = val
    return entries


_REQUIRED = object()  # _pop's default for a key that must be given


def _pop(entries, key, default=_REQUIRED, kind=float):
    """entries[key] removed and read as a finite `kind`; default when the
    key is absent, ConfigError when it is absent and required."""
    if key not in entries:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return default
    val = entries.pop(key)
    try:
        num = kind(val)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"key '{key}' must be {noun}, got '{val}'") from None
    if not math.isfinite(num):
        raise ConfigError(f"key '{key}' must be finite, got '{val}'")
    return num


def _collect_perturbations(entries):
    indices = set()
    for key in list(entries):
        if key.startswith("perturbation."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ConfigError(f"malformed perturbation key '{key}'")
            indices.add(parts[1])
    perts = []
    for idx in sorted(indices, key=lambda s: (len(s), s)):
        target = entries.pop(f"perturbation.{idx}.target", None)
        if target is None:
            raise ConfigError(f"perturbation.{idx}.target is required")
        perts.append(Perturbation(
            target=target,
            amplitude=_pop(entries, f"perturbation.{idx}.amplitude"),
            center=_pop(entries, f"perturbation.{idx}.center"),
            width=_pop(entries, f"perturbation.{idx}.width")))
    return tuple(perts)


def parse_config(path) -> ExperimentConfig:
    """Read an experiment configuration file into an ExperimentConfig.

    Checks keys only: missing, duplicate, unknown and malformed ones, and
    numbers that do not parse or are not finite; the config types check
    the values when they are built."""
    entries = _read_entries(path)

    a = _pop(entries, "gas.a", 1.0)
    gamma = _pop(entries, "gas.gamma")
    alpha = _pop(entries, "gas.alpha", 0.0)
    try:
        gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rspec = RiemannSpec(
        v_minus=_pop(entries, "riemann.v_minus"),
        u_minus=_pop(entries, "riemann.u_minus", 0.0),
        v_plus=_pop(entries, "riemann.v_plus"),
        u_plus=_pop(entries, "riemann.u_plus", None),
        v_m=_pop(entries, "riemann.v_m", None),
    )
    single_family = _pop(entries, "riemann.single_family", None, int)
    beta = _pop(entries, "composite.beta",
                _REQUIRED if single_family is None else 0.0)

    perts = _collect_perturbations(entries)

    grid = GridSpec(
        x_lo=_pop(entries, "grid.x_lo", None),
        x_hi=_pop(entries, "grid.x_hi", None),
        n=_pop(entries, "grid.n", None, int),
        dx=_pop(entries, "grid.dx", None),
    )

    t_final = _pop(entries, "time.T")
    record_dt = _pop(entries, "time.record_dt", t_final / 200.0)
    snap_raw = entries.pop("time.snapshot_times", "")
    try:
        snaps = tuple(float(s) for s in snap_raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError("time.snapshot_times must be a comma list of numbers") from None
    time = TimeSpec(t_final=t_final, record_dt=record_dt, snapshot_times=snaps)

    out_dir = entries.pop("output.dir", "out")

    if entries:
        raise ConfigError("unknown config key(s): " + ", ".join(sorted(entries)))

    return ExperimentConfig(gas=gas, riemann=rspec, beta=beta,
                            perturbations=perts, grid=grid, time=time,
                            out_dir=out_dir,
                            single_family=single_family)
