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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .riemann import (EndState, GasModel, hugoniot_u, in_ss_region,
                      solve_intermediate)
from .solver import (_DEFAULT_DX, Grid1D, _event_time, _snapshot_name,
                     auto_grid)

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
        same bits as the formula."""
        z = np.array(x, dtype=np.float64)
        z -= self.center
        z /= self.width
        np.multiply(z, z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z *= self.amplitude
        return z

    @property
    def area(self) -> float:
        return self.amplitude * self.width * math.sqrt(math.pi)


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

    def _check_pressures(self, gas: GasModel):
        """ConfigError, naming the key, its value and gamma, unless
        p = a*v**-gamma is a finite float64 at each given volume v > 0."""
        for key in ("v_minus", "v_plus", "v_m"):
            v = getattr(self, key)
            if v is None or not v > 0.0:
                continue  # a volume <= 0 fails its own check
            with np.errstate(over="ignore"):
                p = gas.pressure(np.float64(v))
            if not np.isfinite(p):
                raise ConfigError(
                    f"riemann.{key} = {v!r}: the pressure a*v**-gamma "
                    f"overflows float64 at gamma = {gas.gamma:g}")

    def resolve(self, gas: GasModel):
        self._check_pressures(gas)
        left = EndState(self.v_minus, self.u_minus)
        if self.v_m is not None:
            if not 0.0 < self.v_m < min(self.v_minus, self.v_plus):
                raise ConfigError("v_m must lie in (0, min(v_minus, v_plus))")
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
    the spacing dx (parse_config takes at most one of grid.n, grid.dx)."""

    x_lo: Optional[float] = None
    x_hi: Optional[float] = None
    n: Optional[int] = None
    dx: float = _DEFAULT_DX

    def __post_init__(self):
        if (self.x_lo is None) != (self.x_hi is None):
            raise ConfigError("grid.x_lo and grid.x_hi must be given together")
        if self.explicit and self.n is None:
            raise ConfigError("explicit grid needs grid.n")
        if self.explicit and not self.x_hi > self.x_lo:
            raise ConfigError("grid.x_hi must exceed grid.x_lo")
        if self.n is not None and self.n < 16:
            raise ConfigError("grid.n must be at least 16")
        if not self.dx > 0.0:
            raise ConfigError("grid.dx must be positive")

    @property
    def explicit(self) -> bool:
        return self.x_lo is not None and self.x_hi is not None

    def resolve(self, gas, ts, beta, t_final, c_max) -> Grid1D:
        """The grid; ConfigError unless dx * c_max <= MAX_DX_RATE, so that
        it resolves profiles whose fastest tail rate is c_max."""
        if self.explicit:
            grid = Grid1D(self.x_lo, self.x_hi, self.n)
        else:
            try:
                grid = auto_grid(gas, ts, beta, t_final, n=self.n, dx=self.dx)
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


@dataclass(frozen=True)
class TimeSpec:
    t_final: float
    record_dt: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ConfigError("time.T must be positive")
        if not self.record_dt > 0.0:
            raise ConfigError("time.record_dt must be positive")
        files = {}  # each snapshot event needs a file of its own
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final:
                raise ConfigError("snapshot times must lie in [0, T]")
            t = _event_time(t)
            name = _snapshot_name(t)
            if files.setdefault(name, t) != t:
                raise ConfigError(f"snapshot times {files[name]!r} and {t!r} "
                                  f"would both write {name} (6 significant "
                                  "digits)")


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


def _pop_float(entries, key, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    val = entries.pop(key)
    try:
        num = float(val)
    except ValueError:
        raise ConfigError(f"key '{key}' must be a number, got '{val}'") from None
    if not math.isfinite(num):
        raise ConfigError(f"key '{key}' must be finite, got '{val}'")
    return num


def _pop_int(entries, key, default=None):
    if key not in entries:
        return default
    val = entries.pop(key)
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"key '{key}' must be an integer, got '{val}'") from None


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
        amp = _pop_float(entries, f"perturbation.{idx}.amplitude", required=True)
        center = _pop_float(entries, f"perturbation.{idx}.center", required=True)
        width = _pop_float(entries, f"perturbation.{idx}.width", required=True)
        perts.append(Perturbation(target=target, amplitude=amp,
                                  center=center, width=width))
    return tuple(perts)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    entries = _read_entries(path)

    a = _pop_float(entries, "gas.a", default=1.0)
    gamma = _pop_float(entries, "gas.gamma", required=True)
    alpha = _pop_float(entries, "gas.alpha", default=0.0)
    try:
        gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rspec = RiemannSpec(
        v_minus=_pop_float(entries, "riemann.v_minus", required=True),
        u_minus=_pop_float(entries, "riemann.u_minus", default=0.0),
        v_plus=_pop_float(entries, "riemann.v_plus", required=True),
        u_plus=_pop_float(entries, "riemann.u_plus"),
        v_m=_pop_float(entries, "riemann.v_m"),
    )
    single_family = _pop_int(entries, "riemann.single_family")
    rspec._check_pressures(gas)

    # fail early on impossible data (SS-region violation) in the direct form
    if rspec.u_plus is not None:
        try:
            inside = in_ss_region(gas, EndState(rspec.v_minus, rspec.u_minus),
                                  EndState(rspec.v_plus, rspec.u_plus))
        except ValueError as exc:
            raise ConfigError(f"riemann data: {exc}") from None
        if not inside:
            raise ConfigError("(v_plus, u_plus) is not in the SS region of "
                              "(v_minus, u_minus): no two-shock solution")

    beta = _pop_float(entries, "composite.beta",
                      default=0.0 if single_family is not None else None,
                      required=single_family is None)

    perts = _collect_perturbations(entries)

    n = _pop_int(entries, "grid.n")
    if n is not None and "grid.dx" in entries:
        raise ConfigError("grid.n and grid.dx cannot both be given: "
                          "grid.n fixes the spacing")
    grid = GridSpec(
        x_lo=_pop_float(entries, "grid.x_lo"),
        x_hi=_pop_float(entries, "grid.x_hi"),
        n=n,
        dx=_pop_float(entries, "grid.dx", default=_DEFAULT_DX),
    )

    t_final = _pop_float(entries, "time.T", required=True)
    record_dt = _pop_float(entries, "time.record_dt", default=t_final / 200.0)
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
