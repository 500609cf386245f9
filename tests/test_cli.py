import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shockwave_lab import GasModel, config, diagnostics, solver
from shockwave_lab.composite import (CompositeWave, TruncationError,
                                     compute_shift_inputs)
from shockwave_lab.cli import main
from shockwave_lab.config import (ConfigError, ExperimentConfig, GridSpec,
                                  Perturbation, RiemannSpec, TimeSpec,
                                  parse_config)
from shockwave_lab.verify import CANONICAL_RIEMANN, stability_config

MINIMAL = """\
# minimal two-shock experiment
gas.gamma = 2.0
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_m = 1.0          # constructive form
riemann.v_plus = 2.0
composite.beta = 40.0
time.T = 50.0
"""

SINGLE_SHOCK_RUN = """\
gas.gamma = 2.0
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_m = 1.0
riemann.v_plus = 2.0
riemann.single_family = 1
perturbation.1.target = v
perturbation.1.amplitude = 0.02
perturbation.1.center = -2.0
perturbation.1.width = 1.0
grid.dx = 0.1
time.T = 0.2
time.record_dt = 0.1
time.snapshot_times = 0.2
"""


DIRECT_EXPLICIT_GRID = """\
gas.a = 1.0
gas.gamma = 2.0
gas.alpha = 0.0
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_plus = 2.0
riemann.u_plus = -1.5      # direct form
riemann.single_family = 1
composite.beta = 40.0
perturbation.1.target = u
perturbation.1.amplitude = 0.05
perturbation.1.center = 20.0
perturbation.1.width = 1.0
grid.x_lo = -60.0
grid.x_hi = 100.0
grid.n = 4000
time.T = 50.0
time.record_dt = 0.25
time.snapshot_times = 0, 5, 50
output.dir = out
"""

MINIMAL_NUMERIC_KEYS = ("gas.gamma", "riemann.v_minus", "riemann.u_minus",
                        "riemann.v_m", "riemann.v_plus", "composite.beta",
                        "time.T")


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _with_value(text, key, value):
    """text with the value of key replaced by value, verbatim."""
    line = re.compile(rf"^{re.escape(key)} *=.*$", flags=re.MULTILINE)
    return line.sub(lambda _: f"{key} = {value}", text)


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.gas.a == 1.0 and cfg.gas.alpha == 0.0
    assert cfg.time.record_dt == pytest.approx(50.0 / 200.0)
    assert cfg.out_dir == "out"


def test_parse_gamma_invariant(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("gas.gamma = 2.0", "gas.gamma = 0.9"))
    with pytest.raises(ConfigError, match="gamma must exceed 1"):
        parse_config(path)


def test_parse_unknown_key(tmp_path):
    path = _write(tmp_path, MINIMAL + "gas.typo = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(path)


def test_parse_missing_key(tmp_path):
    path = _write(tmp_path, "gas.gamma = 2.0\n")
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config(path)


def test_parse_duplicate_key(tmp_path):
    path = _write(tmp_path, MINIMAL + "gas.gamma = 2.0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_ss_violation_detected_early(tmp_path):
    text = """\
gas.gamma = 2.0
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_plus = 2.0
riemann.u_plus = 1.0
composite.beta = 40.0
time.T = 1.0
"""
    with pytest.raises(ConfigError, match="SS region"):
        parse_config(_write(tmp_path, text))


def test_parse_on_curve_datum_is_not_in_ss_region(tmp_path):
    """u_plus is hugoniot_u at v_plus through the left state, a single
    1-shock datum: it fails at parse time, not later in the v_m scan."""
    text = """\
gas.gamma = 1.4
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_plus = 1.0
riemann.u_plus = -0.7880804897803273
composite.beta = 40.0
time.T = 1.0
"""
    with pytest.raises(ConfigError, match="SS region"):
        parse_config(_write(tmp_path, text))


OVERFLOW_PRESSURE = ("riemann.v_minus = 1e-200: the pressure a*v**-gamma "
                     "overflows float64 at gamma = 2")


@pytest.mark.parametrize("volumes, form, message", [
    ("1e-200", "riemann.v_m = 1e-201", OVERFLOW_PRESSURE),
    ("1e-200", "riemann.u_plus = -1.0", OVERFLOW_PRESSURE),
    ("1e-150", "riemann.u_plus = -1e140",
     "OverflowError: v_m lies in ("),
], ids=("constructive", "direct", "solved-v_m"))
def test_overflowing_pressure_is_named(tmp_path, capsys, volumes, form,
                                       message):
    """A given volume whose pressure a*v**-gamma overflows float64 fails
    at parse time, in either form, with a ConfigError naming the key, its
    value and gamma; RiemannSpec.resolve makes the same check.  Given
    pressures that are finite but a solved v_m whose pressure overflows
    fail in the Riemann solve, naming that regime.  No RuntimeWarning
    (the suite turns one into an error)."""
    text = f"""\
gas.gamma = 2.0
riemann.v_minus = {volumes}
riemann.u_minus = 0.0
riemann.v_plus = {volumes}
{form}
composite.beta = 40.0
time.T = 1.0
"""
    path = _write(tmp_path, text)
    assert main(["riemann", "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    if message == OVERFLOW_PRESSURE:
        assert err.startswith("config error: ")
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        spec = RiemannSpec(1e-200, 0.0, 1e-200, v_m=1e-201)
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec.resolve(GasModel(gamma=2.0))
    else:
        assert "p(v_m) = a*v_m**-gamma overflows float64 at gamma = 2" in err
        cfg = parse_config(path)
        with pytest.raises(OverflowError, match=r"p\(v_m\)"):
            cfg.riemann.resolve(cfg.gas)


CODE_BUILT_FAULTS = """\
gas.gamma = 2.0
riemann.v_minus = {v_minus}
riemann.u_minus = 0.0
riemann.v_plus = 2.0
{lines}
composite.beta = 40.0
time.T = 1.0
"""


@pytest.mark.parametrize("v_minus, lines, build", [
    (2.0, "riemann.v_m = 1.0\ngrid.n = 100\ngrid.dx = 0.01",
     lambda: GridSpec(n=100, dx=0.01)),
    (2.0, "riemann.u_plus = 1.0",
     lambda: ExperimentConfig(GasModel(), RiemannSpec(2.0, 0.0, 2.0, u_plus=1.0),
                              40.0)),
    (1e-200, "riemann.v_m = 1.0",
     lambda: ExperimentConfig(GasModel(), RiemannSpec(1e-200, 0.0, 2.0, v_m=1.0),
                              40.0)),
    (2.0, "riemann.v_m = 2.5", lambda: RiemannSpec(2.0, 0.0, 2.0, v_m=2.5)),
], ids=("grid-n-and-dx", "outside-ss", "pressure-overflow", "v_m-range"))
def test_code_built_config_is_checked_as_parsed(tmp_path, v_minus, lines,
                                                build):
    """A config built in code fails at construction with the message
    parse_config gives for the same data."""
    text = CODE_BUILT_FAULTS.format(v_minus=v_minus, lines=lines)
    with pytest.raises(ConfigError) as parsed:
        parse_config(_write(tmp_path, text))
    with pytest.raises(ConfigError) as built:
        build()
    assert str(built.value) == str(parsed.value)


PERTURBATION_KEYS = ("target", "amplitude", "center", "width")


def _draft_text(draft):
    """The config file of a draft: key -> value, None for an absent key."""
    lines = []
    for key, value in draft.items():
        if value is None or value == ():
            continue
        if key == "perturbation.1":
            lines += [f"{key}.{k} = {x}" for k, x in zip(PERTURBATION_KEYS, value)]
        elif key == "time.snapshot_times":
            lines.append(f"{key} = {', '.join(map(repr, value))}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _draft_config(d):
    """The ExperimentConfig of a draft built in code, with parse_config's
    defaults for absent keys."""
    t_final = d["time.T"]
    record_dt = d.get("time.record_dt")
    return ExperimentConfig(
        gas=GasModel(d["gas.a"], d["gas.gamma"], d["gas.alpha"]),
        riemann=RiemannSpec(d["riemann.v_minus"], d["riemann.u_minus"],
                            d["riemann.v_plus"], u_plus=d.get("riemann.u_plus"),
                            v_m=d.get("riemann.v_m")),
        beta=d.get("composite.beta") or 0.0,
        perturbations=((Perturbation(*d["perturbation.1"]),)
                       if d.get("perturbation.1") else ()),
        grid=GridSpec(d.get("grid.x_lo"), d.get("grid.x_hi"), d.get("grid.n"),
                      d.get("grid.dx")),
        time=TimeSpec(t_final, t_final / 200.0 if record_dt is None
                      else record_dt, d["time.snapshot_times"]),
        single_family=d.get("riemann.single_family"))


def _merge(*parts):
    return {key: value for part in parts for key, value in part.items()}


def _maybe(*values):
    return st.sampled_from((None, *values))


# a valid draft, then at most one fault that breaks a rule of the config
# types; a key set to None is left out of the file
DRAFTS = st.builds(
    _merge,
    st.fixed_dictionaries({
        "gas.a": st.sampled_from((1.0, 2.5)),
        "gas.gamma": st.sampled_from((1.4, 2.0, 3.0)),
        "gas.alpha": st.sampled_from((0.0, 0.5)),
        "riemann.v_minus": st.sampled_from((2.0, 1.5)),
        "riemann.u_minus": st.sampled_from((0.0, 0.3)),
        "riemann.v_plus": st.sampled_from((2.0, 3.0)),
        "riemann.single_family": _maybe(1, 2),
        "composite.beta": st.just(40.0),
        "perturbation.1": _maybe(("v", 0.05, 20.0, 1.0), ("u", 0.02, -3.0, 0.5)),
        "time.T": st.sampled_from((1.0, 50.0)),
        "time.record_dt": _maybe(0.25),
        "time.snapshot_times": st.sampled_from(((), (0.0, 1.0))),
    }),
    st.sampled_from(({"riemann.v_m": 1.0}, {"riemann.u_plus": -3.0})),
    st.sampled_from(({}, {"grid.n": 4000}, {"grid.dx": 0.1},
                     {"grid.x_lo": -60.0, "grid.x_hi": 100.0, "grid.n": 4000})),
    st.one_of(st.just({}), st.sampled_from((
        {"riemann.v_minus": 1e-200},
        {"riemann.v_plus": 1e-200},
        {"riemann.u_plus": 1.0, "riemann.v_m": None},
        {"riemann.u_plus": -3.0, "riemann.v_m": 1.0},
        {"riemann.u_plus": None, "riemann.v_m": None},
        {"riemann.u_plus": None, "riemann.v_m": 2.5},
        {"riemann.single_family": 3},
        {"composite.beta": -1.0},
        {"composite.beta": None, "riemann.single_family": None},
        {"perturbation.1": ("w", 0.05, 20.0, 1.0)},
        {"perturbation.1": ("v", 0.05, 20.0, 0.0)},
        {"grid.n": 4000, "grid.dx": 0.1},
        {"grid.x_lo": -60.0, "grid.x_hi": None},
        {"grid.x_lo": 200.0, "grid.x_hi": 100.0, "grid.n": 4000, "grid.dx": None},
        {"grid.n": 8, "grid.dx": None},
        {"grid.dx": -0.1, "grid.n": None},
        {"time.record_dt": 0.0},
        {"time.snapshot_times": (0.0, 60.0)},
    ))),
)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draft=DRAFTS)
def test_config_round_trip_code_and_file(tmp_path, draft):
    """A drafted config built in code and the same config written to a
    file and parsed either both raise ConfigError or give equal configs."""
    try:
        built = _draft_config(draft)
    except ConfigError:
        built = ConfigError
    try:
        parsed = parse_config(_write(tmp_path, _draft_text(draft)))
    except ConfigError:
        parsed = ConfigError
    assert parsed == built


def _readme_config_example():
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Configuration format", 1)[1]
    return section.split("```\n", 2)[1]


def _config_docstring_example():
    return "\n".join(re.findall(r"^    (.*)$", config.__doc__,
                                flags=re.MULTILINE)) + "\n"


@pytest.mark.parametrize("example", [_readme_config_example,
                                     _config_docstring_example],
                         ids=("README", "config-docstring"))
def test_documented_config_examples_parse(tmp_path, example):
    """The documented example configs parse, so a renamed key shows."""
    cfg = parse_config(_write(tmp_path, example()))
    assert cfg.riemann == CANONICAL_RIEMANN
    assert cfg.grid.n == 4000 and len(cfg.perturbations) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", MINIMAL_NUMERIC_KEYS)
def test_parse_rejects_non_finite_numbers(tmp_path, key, value):
    path = _write(tmp_path, _with_value(MINIMAL, key, value))
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        parse_config(path)


@pytest.mark.parametrize("key, value, match", [
    ("grid.x_lo", "200.0", "x_hi must exceed"),
    ("grid.x_hi", "-60.0", "x_hi must exceed"),
    ("grid.n", "3", "grid.n"),
    ("grid.dx", "0", "grid.dx"),
    ("grid.dx", "-1", "grid.dx"),
    ("riemann.v_minus", "-2.0", "specific volume"),
])
def test_parse_rejects_invalid_grid_and_riemann_data(tmp_path, key, value, match):
    # grid.dx spaces an auto-sized grid without grid.n, as in SINGLE_SHOCK_RUN
    base = SINGLE_SHOCK_RUN if key == "grid.dx" else DIRECT_EXPLICIT_GRID
    path = _write(tmp_path, _with_value(base, key, value))
    with pytest.raises(ConfigError, match=match):
        parse_config(path)


@pytest.mark.parametrize("base", [MINIMAL, DIRECT_EXPLICIT_GRID],
                         ids=("auto", "explicit"))
def test_parse_rejects_grid_n_with_grid_dx(tmp_path, base):
    """grid.n fixes the spacing of both explicit and auto-sized grids, so a
    grid.dx beside it would be ignored; the config is rejected instead."""
    text = base.replace("grid.n = 4000\n", "") + "grid.n = 4000\ngrid.dx = 0.05\n"
    with pytest.raises(ConfigError, match="grid.n and grid.dx"):
        parse_config(_write(tmp_path, text))


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parse_config_raises_only_config_error(tmp_path, data):
    """A valid config with one value replaced by arbitrary text or numbers
    parses or fails with ConfigError, never with another exception."""
    base = data.draw(st.sampled_from([MINIMAL, DIRECT_EXPLICIT_GRID]))
    key = data.draw(st.sampled_from(re.findall(r"^([\w.]+) *=", base,
                                               flags=re.MULTILINE)))
    value = data.draw(st.one_of(st.text(), st.floats().map(repr),
                                st.integers().map(str)))
    path = _write(tmp_path, _with_value(base, key, value))
    try:
        parse_config(path)
    except ConfigError:
        pass


def test_constructive_roundtrip(tmp_path, gas, two_shock):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    ts = cfg.riemann.resolve(cfg.gas)
    assert ts.mid.v == pytest.approx(two_shock.mid.v, rel=1e-12)
    assert ts.right.u == pytest.approx(two_shock.right.u, rel=1e-12)


def test_cmd_riemann_prints_canonical(tmp_path, capsys):
    code = main(["riemann", "--config", _write(tmp_path, MINIMAL),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, val = line.split("=")
        values[key.strip()] = float(val)
    assert values["v_m"] == pytest.approx(1.0, abs=1e-6)
    assert values["u_m"] == pytest.approx(-0.866025, abs=1e-6)
    assert values["s1"] == pytest.approx(-0.866025, abs=1e-6)
    assert values["s2"] == pytest.approx(0.866025, abs=1e-6)


def test_cmd_shifts_zero_perturbation(tmp_path, capsys):
    code = main(["shifts", "--config", _write(tmp_path, MINIMAL),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert abs(float(values["beta1 "])) <= 1e-12
    assert abs(float(values["beta2 "])) <= 1e-12


def test_zero_shifts_print_and_write_positive_zero(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["shifts", "--config", _write(tmp_path, MINIMAL),
                 "--out", str(out_dir)]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert values["beta1"] == "0" and values["beta2"] == "0"
    rows = (out_dir / "shifts.csv").read_text().splitlines()
    assert rows == ["I01,I02,beta1,beta2", "0,0,0,0"]


@pytest.mark.parametrize("text", [
    MINIMAL + "perturbation.1.target = v\nperturbation.1.amplitude = 0.05\n"
    "perturbation.1.center = 20.0\nperturbation.1.width = 1.0\ngrid.dx = 0.1\n",
    SINGLE_SHOCK_RUN], ids=["two-shock", "single-family"])
def test_setup_experiment_evaluates_composite_once(tmp_path, monkeypatch, text):
    """The initial data and the shift inputs share one evaluation of the
    unshifted composite, and the shifts match compute_shift_inputs'."""
    cfg = parse_config(_write(tmp_path, text))
    calls = {"state_fields": 0}
    original = CompositeWave.state_fields

    def counted(self, *args, **kwargs):
        calls["state_fields"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompositeWave, "state_fields", counted)
    setup = solver.setup_experiment(cfg)
    assert calls == {"state_fields": 1}
    cw0 = setup.composite.shifted(0.0, 0.0)
    assert setup.shift_inputs == compute_shift_inputs(setup.v0, setup.u0,
                                                      cw0, setup.grid)
    assert setup.shift_inputs.I01 != 0.0


def test_auto_grid_too_coarse_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "grid.dx = 100\n")
    assert main(["shifts", "--config", path,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.dx")
    assert re.search(r"gives \d+ points", err)


@pytest.mark.parametrize("line, key", [("grid.n = 16", "grid.n"),
                                       ("grid.dx = 1.0", "grid.dx")])
def test_unresolved_grid_is_config_error(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINIMAL + line + "\n")
    assert main(["shifts", "--config", path,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: dx = ")
    m = re.search(r"c_max = (\S+); the largest dx that passes is (\S+)$",
                  err.strip())
    c_max, dx_pass = float(m[1]), float(m[2])
    assert c_max == pytest.approx(2.5 / np.sqrt(3.0), rel=1e-5)
    assert dx_pass == pytest.approx(0.5 / c_max, rel=1e-5)
    path = _write(tmp_path, MINIMAL + f"grid.dx = {0.999 * dx_pass}\n")
    assert main(["shifts", "--config", path,
                 "--out", str(tmp_path / "out")]) == 0


def test_simulate_positivity_failure_keeps_partial_run(tmp_path, capsys,
                                                        monkeypatch):
    """A step that loses positivity after t = 0.1 leaves the records at
    t = 0 and 0.1 and a snapshot of the failing state on disk.  The loss
    is injected where advance bounds the next step by the post-stage
    state of the last one."""
    bound = solver.hyperbolic_dt

    def failing(gas, state, grid):
        if state.t > 0.1 + 1e-9:
            out = state.copy()
            out.v[3] = -1.0
            raise solver.PositivityError("injected", out)
        return bound(gas, state, grid)

    monkeypatch.setattr(solver, "hyperbolic_dt", failing)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", _write(tmp_path, SINGLE_SHOCK_RUN),
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "simulate error: PositivityError: injected" in err
    diag = (out_dir / "diag.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in diag[1:]] == pytest.approx(
        [0.0, 0.1])
    (snap,) = out_dir.glob("snap_t*.csv")
    assert 0.1 < float(snap.name[len("snap_t"):-len(".csv")]) < 0.2
    rows = snap.read_text().splitlines()
    assert rows[0] == "x,v,u,V,U,h,H,W"
    assert float(rows[4].split(",")[1]) == -1.0


def test_simulate_truncation_failure_keeps_partial_run(tmp_path, capsys,
                                                        monkeypatch):
    """A record that fails with TruncationError at t = 0.2 leaves the
    records at t = 0 and 0.1 and a snapshot of the state at t = 0.2."""
    make_record = diagnostics.make_record
    calls = []

    def failing(state, cw, grid):
        calls.append(state.t)
        if len(calls) == 3:
            raise TruncationError("injected")
        return make_record(state, cw, grid)

    monkeypatch.setattr(diagnostics, "make_record", failing)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", _write(tmp_path, SINGLE_SHOCK_RUN),
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "simulate error: TruncationError: injected" in err
    diag = (out_dir / "diag.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in diag[1:]] == pytest.approx(
        [0.0, 0.1])
    assert [p.name for p in out_dir.glob("snap_t*.csv")] == ["snap_t0.2.csv"]


BUMP_AT_20 = ("perturbation.1.target = v\nperturbation.1.amplitude = {}\n"
              "perturbation.1.center = 20.0\nperturbation.1.width = 1.0\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "shifts"])
@pytest.mark.parametrize("text, interval", [
    (MINIMAL + BUMP_AT_20.format(0.05)
     + "grid.x_lo = 100\ngrid.x_hi = 200\ngrid.n = 2001\n", "[0, 40]"),
    (MINIMAL + "grid.x_lo = -60\ngrid.x_hi = 30\ngrid.n = 2001\n", "[0, 40]"),
    (MINIMAL + "grid.x_lo = 0\ngrid.x_hi = 100\ngrid.n = 2001\n", "[0, 40]"),
    (SINGLE_SHOCK_RUN.replace("grid.dx = 0.1", "grid.x_lo = 0.5\n"
                              "grid.x_hi = 20\ngrid.n = 200"), "[0, 0]"),
], ids=["beyond", "cuts-wave-2", "on-wave-1", "single-wave"])
def test_explicit_grid_must_contain_the_waves(tmp_path, capsys, command,
                                              text, interval):
    """An explicit grid that does not strictly contain [0, beta], where
    the waves start, is a config error of both commands before any step;
    the window of a grid beyond the waves used to shrink to one point
    and crash in Grid1D.window."""
    out_dir = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, text),
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.x_lo = ")
    assert f"must strictly contain {interval}, where the waves start" in err
    assert not list(out_dir.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "shifts"])
def test_nonpositive_initial_data_fails_at_t0(tmp_path, capsys, command):
    """A bump that leaves some v0 <= 0 stops both commands with a
    PositivityError naming t = 0, the smallest v0 and its x, before any
    record and without a RuntimeWarning; a t = 0 row used to be written
    with p_rel_ratio = nan after a log1p warning."""
    text = (MINIMAL + BUMP_AT_20.format(-2.0)
            + "grid.x_lo = -60\ngrid.x_hi = 100\ngrid.n = 2001\n")
    out_dir = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, text),
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == (f"{command} error: PositivityError: nonpositive specific "
                   "volume at t = 0: v0 = -1 at x = 20\n")
    assert not list(out_dir.iterdir())
    with pytest.raises(solver.PositivityError) as info:
        solver.setup_experiment(parse_config(_write(tmp_path, text)))
    state = info.value.state
    assert state.t == 0.0 and state.v.min() == pytest.approx(-1.0)


def test_cmd_shifts_single_family_matches_simulate(tmp_path, capsys):
    cfg_path = _write(tmp_path, SINGLE_SHOCK_RUN)
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "sim")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "shifts: beta1 = -0.0354490770181, beta2 = 0"
    assert main(["shifts", "--config", cfg_path,
                 "--out", str(tmp_path / "shifts")]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert values["beta1"] == "-0.0354490770181"
    assert values["beta2"] == "0"


def test_cmd_simulate_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, SINGLE_SHOCK_RUN),
                 "--out", str(out_dir)])
    assert code == 0
    diag = (out_dir / "diag.csv").read_text().splitlines()
    assert diag[0] == ("t,sup_v,sup_u,l2_phi,h1_phi,h2_phi,l2_psi,h1_psi,"
                       "h2_psi,l2_Psi,l2_Psi_x,l2_W,E0,E1,min_f,"
                       "ineq_violation,v_min,v_max,p_rel_ratio")
    assert len(diag) == 4  # records at t = 0, 0.1, 0.2
    snap = (out_dir / "snap_t0.2.csv").read_text().splitlines()
    assert snap[0] == "x,v,u,V,U,h,H,W"


def test_cmd_simulate_deterministic(tmp_path):
    cfg_path = _write(tmp_path, SINGLE_SHOCK_RUN)
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert main(["simulate", "--config", cfg_path, "--out", str(out_dir)]) == 0
        outs.append((out_dir / "diag.csv").read_bytes())
    assert outs[0] == outs[1]


def test_csv_seventeen_digit_roundtrip(tmp_path):
    vals = [1.0 / 3.0, np.pi, 2.0 ** -52, 1.4433756729740645]
    for v in vals:
        assert float("%.17g" % v) == v


def test_cmd_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_cmd_verify_named_suite(capsys):
    assert main(["verify", "--suite", "shifts"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    assert any(l.startswith("shifts.zero_mass_residual,") for l in lines)
    assert all(l.endswith(",PASS") for l in lines)


def test_verify_driver_times_every_suite_in_table_order(monkeypatch, capsys):
    """run_suite runs the suites of verify._SUITES in table order and
    appends each suite's runtime line after that suite's own lines."""
    from shockwave_lab import verify
    line = verify.CriterionResult
    suites = {
        "second": (lambda: [line("second.a", 1.0, ">0", True),
                            line("second.b", 2.0, ">0", True)], 5.0),
        "first": (lambda: [line("first.a", 3.0, "<1", False)], 0.5),
    }
    monkeypatch.setattr(verify, "_SUITES", suites)
    monkeypatch.setattr(verify, "SUITE_NAMES", (*suites, "all"))

    results, ok = verify.run_suite("all")
    assert [r.name for r in results] == [
        "second.a", "second.b", "second.runtime_s",
        "first.a", "first.runtime_s"]
    assert not ok
    for r, limit in ((results[2], "<5"), (results[4], "<0.5")):
        assert r.threshold == limit and r.passed and 0.0 <= r.measured < 0.5
    results, ok = verify.run_suite("second")
    assert [r.name for r in results] == ["second.a", "second.b",
                                         "second.runtime_s"]
    assert ok
    with pytest.raises(ValueError, match="unknown suite 'riemann'"):
        verify.run_suite("riemann")

    assert main(["verify", "--suite", "second"]) == 0
    assert main(["verify", "--suite", "first"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "first.runtime_s,")
    assert main(["verify", "--suite", "riemann"]) == 2
    assert "usage error: unknown suite 'riemann'" in capsys.readouterr().err


def test_time_spec_rejects_snapshot_times_outside_the_run():
    """A snapshot time outside [0, T] is a ConfigError however the
    TimeSpec is built: run_simulation would otherwise step past T for
    t = 0.2 and write t = -1 as a t = 0 snapshot."""
    from shockwave_lab.config import TimeSpec
    for snaps in ((0.2, -1.0), (0.2,), (-1.0,), (float("nan"),)):
        with pytest.raises(ConfigError, match=r"must lie in \[0, T\]"):
            TimeSpec(0.05, 0.025, snapshot_times=snaps)
    ends = (0.0, 0.05)
    assert TimeSpec(0.05, 0.025, snapshot_times=ends).snapshot_times == ends


def test_time_spec_rejects_snapshot_times_sharing_a_file_name(tmp_path,
                                                              capsys):
    """Each snapshot writes snap_t<t:g>.csv, 6 significant digits of its
    time: two times that differ only beyond them are a ConfigError naming
    both, not two snapshots in one file.  Times equal to 12 decimals are
    one snapshot event and pass."""
    from shockwave_lab.config import TimeSpec
    text = _with_value(SINGLE_SHOCK_RUN, "time.snapshot_times",
                       "0.1000001, 0.1000002")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: snapshot times 0.1000001 and "
                          "0.1000002 would both write snap_t0.1.csv")
    assert not out.exists()
    assert TimeSpec(0.2, 0.1, snapshot_times=(0.1, 0.1 + 1e-14, 0.2))


def test_perturbation_validation():
    from shockwave_lab.config import Perturbation
    with pytest.raises(ConfigError, match="width"):
        Perturbation("v", 0.1, 0.0, -1.0)
    with pytest.raises(ConfigError, match="target"):
        Perturbation("rho", 0.1, 0.0, 1.0)


def test_perturbation_bump_is_the_gaussian_bitwise():
    """The bump built in one array is A * exp(-z * z), z = (x - x0) / w,
    bit for bit, and leaves x as it was."""
    from shockwave_lab.config import Perturbation
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(-60.0, 100.0, 5001))
    x_in = x.tobytes()
    for _ in range(20):
        amp, x0, w = rng.normal(), rng.uniform(-50.0, 90.0), rng.uniform(0.1, 5.0)
        z = (x - x0) / w
        want = amp * np.exp(-z * z)
        assert Perturbation("u", amp, x0, w)(x).tobytes() == want.tobytes()
    assert x.tobytes() == x_in


@pytest.mark.parametrize("n", (4000, 580_759))
def test_perturbation_tail_keeps_the_formulas_signed_zeros(n):
    """The bump fills its underflowing tail, z*z >= 747, without calling
    exp; on the stability grid and on a grid the size of the largest
    datum-sweep grid it is still A * exp(-z * z) bit for bit, with -0.0
    for a negative amplitude."""
    from shockwave_lab.config import Perturbation
    from shockwave_lab.solver import auto_grid
    base = stability_config()
    ts = base.riemann.resolve(base.gas)
    x = auto_grid(base.gas, ts, base.beta, base.time.t_final, n=n).x
    x0 = 20.0 if n == 4000 else float(x[n // 2])
    w = 1.0 if n == 4000 else 0.09 * (x[-1] - x[0]) / (2.0 * np.sqrt(747.0))
    for amp in (0.05, -0.05):
        z = (x - x0) / w
        want = amp * np.exp(-z * z)
        got = Perturbation("v", amp, x0, w)(x)
        assert got.tobytes() == want.tobytes()
        tail = z * z >= 747.0
        assert 0.5 < np.mean(tail) < 0.95
        assert np.all(np.signbit(got[tail]) == (amp < 0.0))


@pytest.mark.parametrize("field", ("amplitude", "center", "width"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")),
                         ids=("nan", "inf", "-inf"))
def test_perturbation_rejects_non_finite(field, value):
    """The constructor rejects what parse_config rejects: a width of inf
    would otherwise give a constant bump equal to the amplitude."""
    from shockwave_lab.config import Perturbation
    kwargs = dict(target="v", amplitude=0.1, center=0.0, width=1.0)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=f"perturbation {field} must be finite"):
        Perturbation(**kwargs)


def test_grid_validation():
    from shockwave_lab import Grid1D
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8)


def test_missing_config_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["simulate"])


def test_bad_config_returns_error(tmp_path, capsys):
    path = _write(tmp_path, "gas.gamma = 0.5\nriemann.v_minus = 2.0\n")
    assert main(["riemann", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err
