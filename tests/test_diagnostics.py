import dataclasses

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from shockwave_lab import (CompositeWave, FieldState, GasModel, Grid1D,
                           advance, antiderivatives, closed_form_Psi,
                           energy_functionals, fit_exponential_rate,
                           hyperbolic_dt, integrate_profile, make_record,
                           perturbation_terms, pointwise_inequality_report,
                           setup_experiment, sobolev_norms)
from shockwave_lab.composite import TruncationError
from shockwave_lab.config import (ExperimentConfig, GridSpec, Perturbation,
                                  RiemannSpec, TimeSpec)
from shockwave_lab.diagnostics import DiagnosticsRecord, PerturbationFields
from shockwave_lab.riemann import pressure_increment
from shockwave_lab.verify import stability_config


def _grid(beta=40.0, dx=0.05, margin=27.0):
    n = int(round((beta + 2 * margin) / dx)) + 1
    return Grid1D(-margin, beta + margin, n)


def _perturbed_state(cw, grid, t=0.0, bumps=()):
    V, U = cw.state_fields(grid.x, t)
    v = V.copy()
    u = U.copy()
    for b in bumps:
        if b.target == "v":
            v += b(grid.x)
        else:
            u += b(grid.x)
    return FieldState(t, v, u)


def test_antiderivatives_zero_perturbation(composite40):
    grid = _grid()
    state = _perturbed_state(composite40, grid)
    f = antiderivatives(state, composite40, grid)
    for arr in (f.phi, f.psi, f.Psi, f.phi_x, f.psi_x, f.Psi_x):
        assert np.all(arr == 0.0)


def test_phi_total_mass(composite40):
    grid = _grid()
    bump = Perturbation("v", 0.05, 18.0, 1.2)
    state = _perturbed_state(composite40, grid, bumps=(bump,))
    f = antiderivatives(state, composite40, grid)
    assert f.phi[-1] == pytest.approx(bump.area, rel=1e-10)


def test_antiderivatives_boundary_guard(composite40):
    grid = _grid()
    state = _perturbed_state(composite40, grid)
    state.v[0] += 1e-6
    with pytest.raises(TruncationError):
        antiderivatives(state, composite40, grid)


@pytest.mark.parametrize("target", ("v", "u"))
def test_antiderivatives_boundary_guard_nan(composite40, target):
    """A nan at x_lo is not a decayed perturbation, in either field."""
    grid = _grid()
    state = _perturbed_state(composite40, grid)
    getattr(state, target)[0] = np.nan
    with pytest.raises(TruncationError):
        antiderivatives(state, composite40, grid)
    with pytest.raises(TruncationError):
        make_record(state, composite40, grid)


def test_psi_closed_form_alpha0_order(composite40):
    """Quadrature Psi vs closed form: O(dx^2) under refinement."""
    errs = []
    dxs = (0.08, 0.04, 0.02)
    for dx in dxs:
        grid = _grid(dx=dx)
        state = _perturbed_state(
            composite40, grid,
            bumps=(Perturbation("v", 0.05, 20.0, 1.0),
                   Perturbation("u", 0.05, 17.0, 1.4)))
        f = antiderivatives(state, composite40, grid)
        errs.append(np.max(np.abs(f.Psi - closed_form_Psi(state, composite40, f))))
    order = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert order >= 1.7


def test_psi_closed_form_alpha_positive(gas):
    from shockwave_lab import EndState, GasModel, hugoniot_u, solve_intermediate
    gasa = GasModel(1.0, 2.0, 0.5)
    left = EndState(2.0, 0.0)
    u_m = hugoniot_u(gasa, left, 1.0)
    u_p = hugoniot_u(gasa, EndState(1.0, u_m), 2.0)
    ts = solve_intermediate(gasa, left, EndState(2.0, u_p))
    p1 = integrate_profile(gasa, ts.left, ts.mid, ts.s1)
    p2 = integrate_profile(gasa, ts.mid, ts.right, ts.s2)
    cw = CompositeWave(p1, p2, 30.0)
    errs = []
    dxs = (0.08, 0.04)
    for dx in dxs:
        n = int(round(80.0 / dx)) + 1
        grid = Grid1D(-25.0, 55.0, n)
        state = _perturbed_state(cw, grid,
                                 bumps=(Perturbation("v", 0.05, 15.0, 1.0),))
        f = antiderivatives(state, cw, grid)
        errs.append(np.max(np.abs(f.Psi - closed_form_Psi(state, cw, f))))
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_sobolev_zero():
    n = sobolev_norms(np.zeros(100), 0.1)
    assert (n.l2, n.h1, n.h2) == (0.0, 0.0, 0.0)


def test_sobolev_sine_analytic():
    x = np.linspace(0.0, 2.0 * np.pi, 20001)
    n = sobolev_norms(np.sin(x), x[1] - x[0])
    assert n.l2 ** 2 == pytest.approx(np.pi, abs=1e-6)


def test_sobolev_nesting_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.normal(size=64)
        n = sobolev_norms(f, 0.05)
        assert n.h1 >= n.l2
        assert n.h2 >= n.h1


def test_sobolev_short_array_rejected():
    with pytest.raises(ValueError):
        sobolev_norms(np.ones(4), 0.1)


def test_perturbation_terms_zero(composite40):
    grid = _grid()
    state = _perturbed_state(composite40, grid)
    terms = perturbation_terms(state, composite40, grid)
    assert np.all(terms.F == 0.0)
    assert np.all(terms.G == 0.0)
    assert np.all(terms.p_rel == 0.0)


def test_f_positivity_floor(composite40, gas):
    grid = _grid()
    state = _perturbed_state(composite40, grid,
                             bumps=(Perturbation("v", 0.05, 20.0, 1.0),))
    terms = perturbation_terms(state, composite40, grid)
    V = composite40.state_fields(grid.x, 0.0)[0]
    assert terms.f.min() >= np.min(-gas.dpressure(V)) - 1e-14
    assert terms.f.min() > 0.0


def test_p_rel_ratio_bounded(composite40, gas):
    grid = _grid()
    state = _perturbed_state(composite40, grid,
                             bumps=(Perturbation("v", 0.05, 20.0, 1.0),))
    rec = make_record(state, composite40, grid)
    # |p(v|V)| <= C phi_x^2 with C comparable to max p''/2
    V = composite40.state_fields(grid.x, 0.0)[0]
    assert rec.p_rel_ratio <= 10.0 * np.max(gas.d2pressure(V))


def test_p_rel_ratio_at_small_amplitude(composite40, gas):
    # p(v|V) / phi_x^2 -> p''(V)/2 as phi_x -> 0; at amplitude 1e-6 the
    # mask admits |phi_x| down to 1e-12, where p(v) - p(V) - p'(V) phi_x
    # written as a plain difference has lost most of its digits
    grid = _grid()
    state = _perturbed_state(composite40, grid,
                             bumps=(Perturbation("v", 1e-6, 20.0, 1.0),))
    rec = make_record(state, composite40, grid)
    V_center = composite40.state_fields(np.array([20.0]), 0.0)[0][0]
    assert abs(rec.p_rel_ratio - 0.5 * gas.d2pressure(V_center)) <= 1e-3


def test_energy_zero(composite40):
    grid = _grid()
    state = _perturbed_state(composite40, grid)
    f = antiderivatives(state, composite40, grid)
    dpV = composite40.gas.dpressure(f.composite.V)
    assert energy_functionals(f, dpV) == (0.0, 0.0)


def _fabricated_fields(grid, phi_fn, Psi_fn, composite40):
    x = grid.x
    z = np.zeros_like(x)
    phi = phi_fn(x)
    Psi = Psi_fn(x)
    dphi = np.gradient(phi, grid.dx, edge_order=2)
    dPsi = np.gradient(Psi, grid.dx, edge_order=2)
    return PerturbationFields(x=x, composite=composite40.fields(x, 0.0),
                              phi=phi, psi=z, Psi=Psi,
                              phi_x=dphi, psi_x=z, Psi_x=dPsi)


def test_energy_pure_phi(composite40):
    grid = _grid()
    phi_fn = lambda x: 0.3 * np.exp(-((x - 20.0) / 2.0) ** 2)
    f = _fabricated_fields(grid, phi_fn, lambda x: np.zeros_like(x), composite40)
    e0, _ = energy_functionals(f, composite40.gas.dpressure(f.composite.V))
    assert e0 == pytest.approx(0.09 * 2.0 * np.sqrt(np.pi / 2.0), rel=1e-8)


def test_energy_quadrature_oracle(composite40, gas):
    grid = _grid()
    phi_fn = lambda x: 0.2 * np.exp(-((x - 18.0) / 1.5) ** 2)
    Psi_fn = lambda x: -0.1 * np.exp(-((x - 23.0) / 2.5) ** 2)
    f = _fabricated_fields(grid, phi_fn, Psi_fn, composite40)
    e0, _ = energy_functionals(f, gas.dpressure(f.composite.V))

    def integrand(x):
        V = composite40.state_fields(np.array([x]), 0.0)[0][0]
        return phi_fn(x) ** 2 - Psi_fn(x) ** 2 / gas.dpressure(V)

    expect, _ = quad(integrand, grid.x_lo, grid.x_hi, limit=200)
    assert e0 == pytest.approx(expect, rel=1e-7)


def test_fit_rate_exact():
    t = np.linspace(0.0, 5.0, 60)
    fit = fit_exponential_rate(t, np.exp(-2.0 * t))
    assert fit.rate == pytest.approx(2.0, rel=1e-12)
    assert fit.residual <= 1e-12


def test_fit_rate_noisy_synthetic():
    t = np.linspace(0.0, 10.0, 101)
    y = 5.0 * np.exp(-1.25 * t) * (1.0 + 0.01 * np.sin(t))
    fit = fit_exponential_rate(t, y)
    assert fit.rate == pytest.approx(1.25, abs=0.02)


def test_fit_rate_constant():
    t = np.linspace(0.0, 5.0, 20)
    assert fit_exponential_rate(t, np.ones_like(t)).rate == pytest.approx(0.0, abs=1e-14)


def test_fit_rate_windowing_and_errors():
    t = np.linspace(0.0, 10.0, 40)
    y = np.exp(-t)
    with pytest.raises(ValueError):
        fit_exponential_rate(t[:3], y[:3])
    with pytest.raises(ValueError):
        fit_exponential_rate(t, y - 0.5)


def test_pointwise_inequalities_canonical(composite40):
    grid = _grid()
    for t in (0.0, 5.0, 20.0):
        flds = composite40.fields(grid.x, t)
        rep = pointwise_inequality_report(composite40, flds,
                                          composite40.gas.dpressure(flds.V))
        assert rep.steepening <= 1e-12
        assert rep.f_floor <= 1e-12


def test_pointwise_inequality_single_shock(profiles):
    """Degenerate composite: the steepening bound collapses to equality."""
    p1, _ = profiles
    cw = CompositeWave(p1, None, 0.0)
    grid = Grid1D(-25.0, 25.0, 1001)
    flds = cw.fields(grid.x, 0.0)
    rep = pointwise_inequality_report(cw, flds, cw.gas.dpressure(flds.V))
    assert abs(rep.steepening) <= 1e-12
    assert rep.f_floor <= 1e-12


@pytest.mark.parametrize("family", [1, 2])
def test_steepening_check_sees_a_lone_wave_of_either_family(profiles, family):
    """A lone wave with its slope V1_x halved steepens at half the rate
    its speed implies: the check reads that violation for either family,
    its speed taken as |s| of the wave whichever family it is."""
    cw = CompositeWave(profiles[family - 1], None, 0.0)
    grid = Grid1D(-25.0, 25.0, 1001)
    flds = cw.fields(grid.x, 0.0)
    flds = dataclasses.replace(flds, V1x=0.5 * flds.V1x)
    rep = pointwise_inequality_report(cw, flds, cw.gas.dpressure(flds.V))
    assert rep.steepening > 0.4


def test_f_floor_formula(composite40, gas):
    """f + (alpha+1) U_x / (2 V^(alpha+2)) >= -max p'(v_far) pointwise."""
    grid = _grid()
    x = grid.x
    flds = composite40.fields(x, 3.0)
    f = -gas.dpressure(flds.V) - (gas.alpha + 1.0) * flds.Ux / flds.V ** (gas.alpha + 2.0)
    lhs = f + (gas.alpha + 1.0) * flds.Ux / (2.0 * flds.V ** (gas.alpha + 2.0))
    floor = -max(gas.dpressure(composite40.far_left.v),
                 gas.dpressure(composite40.far_right.v))
    assert np.min(lhs) >= floor - 1e-12


def test_record_csv_columns(composite40, tmp_path):
    from shockwave_lab.diagnostics import DIAG_CSV_COLUMNS, DiagnosticsSeries
    grid = _grid()
    state = _perturbed_state(composite40, grid,
                             bumps=(Perturbation("v", 0.02, 20.0, 1.0),))
    series = DiagnosticsSeries()
    series.append(make_record(state, composite40, grid))
    path = tmp_path / "diag.csv"
    series.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(DIAG_CSV_COLUMNS)
    assert header == ("t,sup_v,sup_u,l2_phi,h1_phi,h2_phi,l2_psi,h1_psi,"
                      "h2_psi,l2_Psi,l2_Psi_x,l2_W,E0,E1,min_f,ineq_violation,"
                      "v_min,v_max,p_rel_ratio")


def test_one_composite_evaluation_per_record(composite40, monkeypatch):
    """make_record evaluates the composite once and shares the result."""
    grid = _grid()
    state = _perturbed_state(composite40, grid,
                             bumps=(Perturbation("v", 0.02, 20.0, 1.0),))
    calls = {"fields": 0, "state_fields": 0}

    def counted(name):
        original = getattr(CompositeWave, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(CompositeWave, name, counted(name))
    make_record(state, composite40, grid)
    assert calls == {"fields": 1, "state_fields": 0}


def _record_reference(state, cw, grid):
    """The record composed as before the grid kernels: scipy's
    cumulative_trapezoid, np.gradient(edge_order=2), np.trapezoid, with f
    and p(v|V) from perturbation_terms."""
    x, dx, gas = grid.x, grid.dx, cw.gas
    flds = cw.fields(x, state.t)
    grad = lambda f: np.gradient(f, dx, edge_order=2)
    cumint = lambda f: cumulative_trapezoid(f, x, initial=0.0)
    l2sq = lambda f: np.trapezoid(f * f, dx=dx)
    rv, ru = state.v - flds.V, state.u - flds.U
    h = state.u - grad(state.v) / state.v ** (gas.alpha + 1.0)
    H_disc = flds.U - grad(flds.V) / flds.V ** (gas.alpha + 1.0)
    Psi_x = h - H_disc
    fields = PerturbationFields(
        x=x, composite=flds, phi=cumint(rv), psi=cumint(ru),
        Psi=cumint(Psi_x), phi_x=rv, psi_x=ru, Psi_x=Psi_x)
    terms = perturbation_terms(state, cw, grid)

    def norms(f):
        d2 = np.empty_like(f)
        d2[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx ** 2
        d2[0], d2[-1] = d2[1], d2[-2]
        l2 = float(l2sq(f))
        h1 = l2 + float(l2sq(grad(f)))
        h2 = h1 + float(l2sq(d2))
        return [float(np.sqrt(q)) for q in (l2, h1, h2)]

    dpV = gas.dpressure(flds.V)
    mag = np.abs(rv)
    mask = mag >= 1e-6 * mag.max()
    return DiagnosticsRecord(
        state.t, float(mag.max()), float(np.max(np.abs(ru))),
        *norms(fields.phi), *norms(fields.psi),
        float(np.sqrt(l2sq(fields.Psi))), float(np.sqrt(l2sq(Psi_x))),
        float(np.sqrt(l2sq(flds.W))),
        float(np.trapezoid(fields.phi ** 2 - fields.Psi ** 2 / dpV, x)),
        float(np.trapezoid(rv ** 2 - Psi_x ** 2 / dpV, x)),
        float(terms.f.min()),
        pointwise_inequality_report(cw, flds, dpV).max_violation,
        float(state.v.min()), float(state.v.max()),
        float(np.max(np.abs(terms.p_rel[mask]) / rv[mask] ** 2)))


_GASES = pytest.mark.parametrize("gas_model", (GasModel(1.0, 2.0, 0.0),
                                                GasModel(1.0, 1.4, 0.7),
                                                GasModel(0.5, 3.0, 2.0)),
                                  ids=("canonical", "alpha0.7", "alpha2"))


def _reference_states(gas_model, family):
    """Composite, grid and the perturbed state at t = 0 and after a few
    steps, for a datum shared by the reference comparisons."""
    beta = 20.0 if family is None else 0.0
    cfg = ExperimentConfig(
        gas=gas_model,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=beta,
        perturbations=(Perturbation("v", 0.05, 0.5 * beta, 1.0),
                       Perturbation("u", 0.05, 0.5 * beta + 0.5, 1.0)),
        grid=GridSpec(dx=0.05),
        time=TimeSpec(t_final=1.0, record_dt=0.5),
        single_family=family)
    setup = setup_experiment(cfg)
    grid, cw = setup.grid, setup.composite
    state = FieldState(0.0, setup.v0, setup.u0)
    later = advance(gas_model, state, grid,
                    4.0 * hyperbolic_dt(gas_model, state, grid))
    return cw, grid, (state, later)


@pytest.mark.parametrize("family", (None, 1, 2), ids=("two-shock", "family1",
                                                      "family2"))
@_GASES
def test_record_equals_reference(gas_model, family):
    """Every field of make_record equals the reference composition, at
    t = 0 and after a few steps."""
    cw, grid, states = _reference_states(gas_model, family)
    for st in states:
        got = dataclasses.asdict(make_record(st, cw, grid))
        want = dataclasses.asdict(_record_reference(st, cw, grid))
        assert len(got) == 19
        assert got == want


def _terms_reference(state, cw, grid):
    """F and G in their first form, with np.gradient derivatives and the
    terms ((u_x - U_x) - psi_xx) / V^(alpha+1) and
    ((v_x - V_x) - phi_xx) / V^(alpha+1), which are identically zero
    because psi_xx = u_x - U_x and phi_xx = v_x - V_x."""
    gas = cw.gas
    ap1 = gas.alpha + 1.0
    flds = cw.fields(grid.x, state.t)
    V, Vx, Ux = flds.V, flds.Vx, flds.Ux
    v_x = np.gradient(state.v, grid.dx, edge_order=2)
    u_x = np.gradient(state.u, grid.dx, edge_order=2)
    phi_x, phi_xx, psi_xx = state.v - V, v_x - Vx, u_x - Ux
    V_ap1, V_ap2 = V ** ap1, V ** (gas.alpha + 2.0)
    dpV = gas.dpressure(V)
    p_rel = pressure_increment(gas, V, phi_x) - dpV * phi_x
    inv_diff = 1.0 / state.v ** ap1 - 1.0 / V_ap1
    F = (u_x * inv_diff + ((u_x - Ux) - psi_xx) / V_ap1
         + ap1 * Ux * phi_x / V_ap2 - p_rel)
    G = (v_x * inv_diff + ((v_x - Vx) - phi_xx) / V_ap1
         + ap1 * Vx * phi_x / V_ap2)
    return F, G


@_GASES
def test_perturbation_terms_equal_reference(gas_model):
    """F and G equal their first form value for value, at t = 0 and after
    a few steps (the zero terms only ever turned a -0.0 into +0.0)."""
    cw, grid, states = _reference_states(gas_model, None)
    for st in states:
        terms = perturbation_terms(st, cw, grid)
        F, G = _terms_reference(st, cw, grid)
        assert np.array_equal(terms.F, F)
        assert np.array_equal(terms.G, G)
        assert np.any(F != 0.0) and np.any(G != 0.0)


def test_perturbation_terms_quadratic_in_amplitude():
    """F and G are quadratic in the perturbation, as the energy method
    assumes: on the canonical datum at t = 1, each halving of the
    amplitude from 0.05 divides ||F|| and ||G|| by about 4."""
    norms = []
    for k in range(4):
        amp = 0.05 / 2.0 ** k
        cfg = dataclasses.replace(
            stability_config(),
            perturbations=(Perturbation("v", amp, 20.0, 1.0),
                           Perturbation("u", amp, 20.0, 1.0)))
        setup = setup_experiment(cfg)
        gas, grid = cfg.gas, setup.grid
        state = advance(gas, FieldState(0.0, setup.v0, setup.u0), grid, 1.0)
        terms = perturbation_terms(state, setup.composite, grid)
        norms.append([np.sqrt(np.trapezoid(q * q, dx=grid.dx))
                      for q in (terms.F, terms.G)])
    ratios = np.array(norms[:-1]) / np.array(norms[1:])
    assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios
