import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shockwave_lab import diagnostics, solver
from shockwave_lab.composite import (CompositeWave, TruncationError,
                                     compute_shift_inputs)
from shockwave_lab.cli import main
from shockwave_lab.config import ConfigError, parse_config

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
grid.dx = 0.05
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
    path = _write(tmp_path, _with_value(DIRECT_EXPLICIT_GRID, key, value))
    with pytest.raises(ConfigError, match=match):
        parse_config(path)


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
    t = 0 and 0.1 and a snapshot of the failing state on disk."""
    step = solver.strang_step

    def failing(gas, state, dt, grid):
        out = step(gas, state, dt, grid)
        if out.t > 0.1 + 1e-9:
            out.v[3] = -1.0
            raise solver.PositivityError("injected", out)
        return out

    monkeypatch.setattr(solver, "strang_step", failing)
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


def test_perturbation_validation():
    from shockwave_lab.config import Perturbation
    with pytest.raises(ConfigError, match="width"):
        Perturbation("v", 0.1, 0.0, -1.0)
    with pytest.raises(ConfigError, match="target"):
        Perturbation("rho", 0.1, 0.0, 1.0)


def test_grid_and_scheme_validation():
    from shockwave_lab import Grid1D, SchemeConfig
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        SchemeConfig(cfl_hyperbolic=1.5)


def test_missing_config_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["simulate"])


def test_bad_config_returns_error(tmp_path, capsys):
    path = _write(tmp_path, "gas.gamma = 0.5\nriemann.v_minus = 2.0\n")
    assert main(["riemann", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err
