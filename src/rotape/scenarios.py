"""Scenario orchestration: one runnable experiment per checkable claim.

Each scenario takes a RunConfig and an output directory.  It first resolves
the config against its own default document (`config.SCENARIO_DEFAULTS`),
which rejects any key the scenario does not read, and then reads every grid,
physics, time, init and norms value, and the Omega list (scenario.sweep),
from the resolved config only.  It writes the resolved config as
config.json (a document that reloads to the same run), optional
diagnostics.csv / PESP1 snapshots, and a summary.json whose "pass" field
drives the CLI exit code.  What defines an experiment and has no config key
is pinned here as a module constant: tolerances, fit windows, tracker
constants, baroclinic fractions, the epsilon pair and the seed offsets.
None of these is loosened at run time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, resolve
from .decomposition import baroclinic, p0, p_minus, p_plus, plus_projection, rotation_r, vorticity_from_velocity
from .grid import GridSpec
from .initial_data import (
    random_scalar_2d,
    random_state,
    random_vector,
    shear_barotropic,
    well_prepared_state,
)
from .io import write_diagnostics_csv, write_snapshot
from .lemmas import LemmaKind, ensemble_parameters, run_ensemble
from .limit_solver import LimitState, integrate_limit
from .norms import NormSpec, ShellPower, dz_l2_sq, norm_rst
from .pe_solver import (
    DirectState,
    RotatingState,
    SolverConfig,
    State2D,
    _norms_for_tracker,
    direct_from_rotating,
    integrate,
    rhs_direct,
    rhs_rotating,
    rotating_from_direct,
    step_2d,
)
from .spectral import COS, SpectralField, inner
from .theory import TauTracker, decay_2d_rate, local_rate, perturbation_diagnostics, threshold_2d


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")


def _setup(cfg: RunConfig, out) -> Path:
    """Create `out` and echo the resolved config there."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg.echo())
    return out


def _report_spec(cfg: RunConfig) -> NormSpec:
    return NormSpec(r=cfg.norms.r, s=cfg.norms.s, tau=cfg.norms.tau_report)


def _solver_config(cfg: RunConfig, omega: float, formulation: str = "rotating") -> SolverConfig:
    return SolverConfig(nu=cfg.nu, omega=omega, grid=cfg.grid, dt=cfg.dt, t_end=cfg.t_end,
                        formulation=formulation)


SHEAR_BAROCLINIC_SHARE = 0.3   # baroclinic L2 norm / amplitude of shear_plus_baroclinic


def _initial_state(cfg: RunConfig):
    """Build (vbar, vtilde) per the init section."""
    grid, init = cfg.grid, cfg.init
    if init.kind == "file":
        from .io import read_snapshot

        coeffs, g2, _ = read_snapshot(init.path)
        if (g2.nh, g2.nz) != (grid.nh, grid.nz):
            raise ValueError("snapshot grid does not match the configured grid")
        vbar = coeffs[..., 0].copy()
        vt = coeffs.copy()
        vt[..., 0] = 0.0
        return vbar, SpectralField(grid, vt, COS)
    rng = np.random.default_rng(init.seed)
    if init.kind == "random_analytic":
        return random_state(grid, rng, tau0=init.tau0, eta0=init.eta0, amplitude=init.amplitude)
    if init.kind == "well_prepared":
        return well_prepared_state(grid, rng, tau0=init.tau0, eta0=init.eta0,
                                   barotropic_amplitude=init.amplitude,
                                   baroclinic_sobolev_target=init.baroclinic_sobolev_target)
    if init.kind == "shear_plus_baroclinic":
        vbar = shear_barotropic(grid, amplitude=init.amplitude)
        vt = random_vector(grid, rng, init.tau0, init.eta0, baroclinic=True)
        cur = np.sqrt(np.sum(np.abs(vt.coeffs) ** 2))
        if cur > 0:
            vt = vt * (SHEAR_BAROCLINIC_SHARE * init.amplitude / cur)
        return vbar, vt
    raise ValueError(f"unknown init kind {init.kind!r}")


def _direct_array(vbar, vt) -> np.ndarray:
    v = vt.coeffs.copy()
    v[..., 0] += vbar
    return v


def _snapshot_writer(cfg: RunConfig, out: Path, grid: GridSpec, omega: float):
    """state_observer writing PESP1 snapshots every output.snapshot_every steps."""
    every = cfg.output.snapshot_every
    if not every:
        return None
    counter = {"n": -1}

    def write(state):
        counter["n"] += 1
        if counter["n"] % every == 0:
            v = direct_from_rotating(state, omega) if isinstance(state, RotatingState) else state.v
            write_snapshot(out / f"snapshot_{counter['n']:06d}.pesp1", v, grid, state.t)

    return write


# ---------------------------------------------------------------------------
# verify_projections: projection algebra + norm identities on random fields
# ---------------------------------------------------------------------------

VERIFY_SAMPLES = 100
VERIFY_TOL = 1e-12


def verify_projections(cfg: RunConfig, out) -> dict:
    cfg = resolve(cfg, "verify_projections")
    out = _setup(cfg, out)
    grid = cfg.grid
    rng = np.random.default_rng(cfg.init.seed)
    worst: dict[str, float] = {}

    def upd(name, val):
        worst[name] = max(worst.get(name, 0.0), float(val))

    t0 = time.time()
    spec = _report_spec(cfg)
    for _ in range(VERIFY_SAMPLES):
        v = random_vector(grid, rng, tau=cfg.init.tau0, eta=cfg.init.eta0)
        g2 = random_vector(grid, rng, tau=cfg.init.tau0, eta=cfg.init.eta0)
        scale = max(np.abs(v.coeffs).max(), 1e-300)
        pp, pm, pz = p_plus(v), p_minus(v), p0(v)
        upd("identity_p0_pplus_pminus", np.abs((pz + pp + pm).coeffs - v.coeffs).max() / scale)
        upd("idempotence_pplus", np.abs(p_plus(pp).coeffs - pp.coeffs).max() / scale)
        upd("idempotence_pminus", np.abs(p_minus(pm).coeffs - pm.coeffs).max() / scale)
        upd("annihilation_pplus_pminus", np.abs(p_plus(pm).coeffs).max() / scale)
        upd("annihilation_p0_pm", np.abs(p0(pp).coeffs).max() / scale)
        upd("eigenrelation_plus", np.abs(rotation_r(pp).coeffs + 1j * pp.coeffs).max() / scale)
        upd("eigenrelation_minus", np.abs(rotation_r(pm).coeffs - 1j * pm.coeffs).max() / scale)
        upd("self_adjoint_p0", abs(inner(pz, g2) - inner(v, p0(g2))))
        upd("self_adjoint_pplus", abs(inner(pp, g2) - inner(v, p_plus(g2))))
        upd("self_adjoint_pminus", abs(inner(pm, g2) - inner(v, p_minus(g2))))
        # norm identities
        tot = norm_rst(v, spec) ** 2
        split = norm_rst(pz, spec) ** 2 + norm_rst(baroclinic(v), spec) ** 2
        upd("norm_split_bar_tilde", abs(tot - split) / max(tot, 1e-300))
        vt_n = norm_rst(baroclinic(v), spec) ** 2
        upd("norm_pplus_half", abs(2 * norm_rst(pp, spec) ** 2 - vt_n) / max(vt_n, 1e-300))
        upd("norm_pminus_half", abs(2 * norm_rst(pm, spec) ** 2 - vt_n) / max(vt_n, 1e-300))
    runtime = time.time() - t0
    table = [
        {"check": k, "max_violation": v, "tol": VERIFY_TOL, "pass": v < VERIFY_TOL}
        for k, v in sorted(worst.items())
    ]
    ok = all(row["pass"] for row in table) and runtime < 5.0
    summary = {"scenario": "verify_projections", "pass": bool(ok), "runtime_s": runtime, "table": table}
    _write_json(out / "summary.json", summary)
    for row in table:
        print(f"{'PASS' if row['pass'] else 'FAIL'}  {row['check']:<28} max={row['max_violation']:.3e}")
    return summary


# ---------------------------------------------------------------------------
# formulation_equivalence: rotating vs direct trajectories + RHS-level oracle
# ---------------------------------------------------------------------------

EQUIVALENCE_RHS_TIMES = (0.0, 0.31)


def formulation_equivalence(cfg: RunConfig, out) -> dict:
    cfg = resolve(cfg, "formulation_equivalence")
    out = _setup(cfg, out)
    grid, omega = cfg.grid, cfg.omega
    vbar, vt = _initial_state(cfg)
    v0 = _direct_array(vbar, vt)

    # RHS-level agreement at two times
    rhs_err = 0.0
    scfg = _solver_config(cfg, omega)
    for t in EQUIVALENCE_RHS_TIMES:
        rs = rotating_from_direct(v0, t, omega)
        dvb, dvp, dvm = rhs_rotating(rs, t, scfg)
        ep, em = np.exp(1j * omega * t), np.exp(-1j * omega * t)
        dv = ep * (dvp + 1j * omega * rs.vplus) + em * (dvm - 1j * omega * rs.vminus)
        dv[..., 0] += dvb
        direct = rhs_direct(direct_from_rotating(rs, omega), t, scfg)
        rhs_err = max(rhs_err, float(np.abs(dv - direct).max() / max(np.abs(direct).max(), 1e-300)))

    # trajectory-level agreement
    rres = integrate(rotating_from_direct(v0, 0.0, omega), scfg, report=_report_spec(cfg),
                     state_observer=_snapshot_writer(cfg, out, grid, omega))
    dres = integrate(DirectState(0.0, v0.copy()), _solver_config(cfg, omega, "direct"),
                     report=_report_spec(cfg))
    va = direct_from_rotating(rres.state, omega)
    vb = dres.state.v
    traj_err = float(np.sqrt(np.sum(np.abs(va - vb) ** 2) / max(np.sum(np.abs(vb) ** 2), 1e-300)))
    if cfg.output.csv:
        write_diagnostics_csv(out / "diagnostics.csv", rres.rows)
    ok = traj_err < 1e-6 and rhs_err < 1e-10
    summary = {
        "scenario": "formulation_equivalence",
        "pass": bool(ok),
        "trajectory_rel_l2_diff": traj_err,
        "rhs_rel_diff": rhs_err,
        "tolerances": {"trajectory": 1e-6, "rhs": 1e-10},
        "radius_collapse_t": rres.radius_collapse_t,
        "cfl_margin_min": rres.cfl_margin_min,
        "fit_failures": rres.fit_failures,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# local_clock_vs_omega: doubling time of the tracked-radius norm vs Omega
# ---------------------------------------------------------------------------

CLOCK_BAROCLINIC_FRACTION = 0.05
CLOCK_C_R = 1e-4        # local-clock rate constant of the tau tracker
CLOCK_SPREAD_TOL = 0.2


def local_clock_vs_omega(cfg: RunConfig, out) -> dict:
    """Doubling time of the report norm, its radius tracked from norms.tau_report."""
    cfg = resolve(cfg, "local_clock_vs_omega")
    out = _setup(cfg, out)
    init = cfg.init
    rng = np.random.default_rng(init.seed + 42)
    vbar, vt = random_state(cfg.grid, rng, tau0=init.tau0, eta0=init.eta0, amplitude=init.amplitude,
                            baroclinic_fraction=CLOCK_BAROCLINIC_FRACTION)
    v0 = _direct_array(vbar, vt)
    omegas = cfg.scenario.sweep
    doubling, fallbacks = {}, {}
    for om in omegas:
        tracker = TauTracker(cfg.norms.tau_report, local_rate(CLOCK_C_R))
        res = integrate(rotating_from_direct(v0, 0.0, om), _solver_config(cfg, om),
                        report=_report_spec(cfg), tau_tracker=tracker)
        rows = res.rows
        fallbacks[om] = res.tau_fallbacks
        n0 = rows[0].norm_r0tau
        td = None
        for prev, cur in zip(rows[:-1], rows[1:]):
            if np.isfinite(cur.norm_r0tau) and cur.norm_r0tau >= 2 * n0 > prev.norm_r0tau > 0:
                frac = (np.log(2 * n0) - np.log(prev.norm_r0tau)) / (
                    np.log(cur.norm_r0tau) - np.log(prev.norm_r0tau)
                )
                td = prev.t + frac * (cur.t - prev.t)
                break
        doubling[om] = td
    vals = [v for v in doubling.values() if v is not None]
    spread = (max(vals) - min(vals)) / min(vals) if len(vals) == len(omegas) and vals else float("inf")
    ok = len(vals) == len(omegas) and spread < CLOCK_SPREAD_TOL
    summary = {
        "scenario": "local_clock_vs_omega",
        "pass": bool(ok),
        "doubling_times": {str(k): v for k, v in doubling.items()},
        "relative_spread": spread,
        "tolerance": CLOCK_SPREAD_TOL,
        "tau_fallbacks": {str(k): v for k, v in fallbacks.items()},
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# vertical_gain: fitted vertical radius vs the nu t / 2 law
# ---------------------------------------------------------------------------

GAIN_BAROCLINIC_FRACTION = 0.8
GAIN_SLOPE_FACTOR = 0.35
GAIN_WINDOW = (0.2, 1.0)


def vertical_gain(cfg: RunConfig, out) -> dict:
    cfg = resolve(cfg, "vertical_gain")
    out = _setup(cfg, out)
    init = cfg.init
    rng = np.random.default_rng(init.seed + 7)
    vbar, vt = random_state(cfg.grid, rng, tau0=init.tau0, eta0=init.eta0, amplitude=init.amplitude,
                            baroclinic_fraction=GAIN_BAROCLINIC_FRACTION)
    v0 = _direct_array(vbar, vt)
    t0 = time.time()
    res = integrate(rotating_from_direct(v0, 0.0, cfg.omega), _solver_config(cfg, cfg.omega),
                    report=_report_spec(cfg))
    runtime = time.time() - t0
    rows = res.rows
    lo, hi = GAIN_WINDOW
    margin = float("inf")
    failures = []
    for row in rows:
        if lo <= row.t <= hi:
            target = GAIN_SLOPE_FACTOR * cfg.nu * row.t
            if not np.isfinite(row.eta_fit_v):
                failures.append(row.t)
                continue
            margin = min(margin, row.eta_fit_v - target)
            if row.eta_fit_v < target:
                failures.append(row.t)
    if cfg.output.csv:
        write_diagnostics_csv(out / "diagnostics.csv", rows)
    ok = not failures and res.termination == "completed" and runtime < 120.0
    summary = {
        "scenario": "vertical_gain",
        "pass": bool(ok),
        "min_margin": margin,
        "failed_times": failures,
        "runtime_s": runtime,
        "termination": res.termination,
        "radius_collapse_t": res.radius_collapse_t,
        "cfl_margin_min": res.cfl_margin_min,
        "fit_failures": res.fit_failures,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# limit_convergence: F(T) against the limit trajectory, exponent vs 1/Omega
# ---------------------------------------------------------------------------

LIMIT_EXPONENT_WINDOW = (0.7, 1.3)


def limit_convergence(cfg: RunConfig, out) -> dict:
    """Decay of the perturbation against the limit-system trajectory with Omega.

    F is the squared perturbation functional at radius norms.tau_report; the
    rotation-rate scaling law holds for the perturbation norm sqrt(F)
    (expected exponent ~1 in 1/Omega), so the window is checked on the
    sqrt(F) fit.  Both exponents are reported.
    """
    cfg = resolve(cfg, "limit_convergence")
    out = _setup(cfg, out)
    grid, init = cfg.grid, cfg.init
    rng = np.random.default_rng(init.seed + 11)
    vbar, vt = well_prepared_state(grid, rng, tau0=init.tau0, eta0=init.eta0,
                                   barotropic_amplitude=init.amplitude,
                                   baroclinic_sobolev_target=init.baroclinic_sobolev_target)
    lst = LimitState(0.0, vorticity_from_velocity(vbar, grid), vt.coeffs.copy())
    lfin, _, _ = integrate_limit(lst, grid, cfg.nu, cfg.dt, cfg.t_end)
    vp0 = plus_projection(vt.coeffs)
    fvals = {}
    for om in cfg.scenario.sweep:
        st = RotatingState(0.0, vbar.copy(), vp0.copy())
        res = integrate(st, _solver_config(cfg, om), report=_report_spec(cfg), check_cfl=True)
        series = perturbation_diagnostics([res.state], [lfin], grid, om, r=cfg.norms.r,
                                          taus=cfg.norms.tau_report)
        fvals[om] = float(series.f[0])
    oms = np.array(sorted(fvals))
    fs = np.array([fvals[o] for o in oms])
    decreasing = bool(np.all(np.diff(fs) < 0))
    alpha_f = float(np.polyfit(np.log(1.0 / oms), np.log(fs), 1)[0])
    alpha_norm = alpha_f / 2.0
    # per-doubling halving of the perturbation norm sqrt(F)
    halving = [float(np.sqrt(fs[i] / fs[i + 1])) for i in range(len(fs) - 1)]
    lo, hi = LIMIT_EXPONENT_WINDOW
    ok = decreasing and lo <= alpha_norm <= hi
    summary = {
        "scenario": "limit_convergence",
        "pass": bool(ok),
        "f_values": {str(k): v for k, v in fvals.items()},
        "fitted_exponent_norm": alpha_norm,
        "fitted_exponent_f": alpha_f,
        "exponent_window": [lo, hi],
        "decreasing_in_omega": decreasing,
        "norm_halving_ratios_per_doubling": halving,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# lifespan_vs_omega: blow-up sentinel time grows with Omega
# ---------------------------------------------------------------------------

LIFESPAN_BAROCLINIC_FRACTION = 1.0
LIFESPAN_BLOWUP_FACTOR = 100.0


def lifespan_vs_omega(cfg: RunConfig, out) -> dict:
    """Sentinel time grows strictly with Omega for a fixed marginal baroclinic
    datum.  A run that never trips the sentinel is right-censored at t_end."""
    cfg = resolve(cfg, "lifespan_vs_omega")
    out = _setup(cfg, out)
    init = cfg.init
    rng = np.random.default_rng(init.seed + 3)
    vbar, vt = random_state(cfg.grid, rng, tau0=init.tau0, eta0=init.eta0, amplitude=init.amplitude,
                            baroclinic_fraction=LIFESPAN_BAROCLINIC_FRACTION)
    v0 = _direct_array(vbar, vt)
    tstars = {}
    censored = {}
    collapse, margins, fit_failures = {}, {}, {}
    for om in cfg.scenario.sweep:
        res = integrate(rotating_from_direct(v0, 0.0, om), _solver_config(cfg, om),
                        report=_report_spec(cfg),
                        blowup_factor=LIFESPAN_BLOWUP_FACTOR, check_cfl=False)
        fired = res.termination in ("blowup_sentinel", "nan")
        tstars[om] = res.state.t if fired else cfg.t_end
        censored[om] = not fired
        collapse[om] = res.radius_collapse_t
        margins[om] = res.cfl_margin_min
        fit_failures[om] = res.fit_failures
    oms = sorted(tstars)
    vals = [tstars[o] for o in oms]
    strict = all(b > a for a, b in zip(vals, vals[1:]))
    summary = {
        "scenario": "lifespan_vs_omega",
        "pass": bool(strict),
        "sentinel_times": {str(k): v for k, v in tstars.items()},
        "censored_at_t_end": {str(k): v for k, v in censored.items()},
        "radius_collapse_t": {str(k): v for k, v in collapse.items()},
        "cfl_margin_min": {str(k): v for k, v in margins.items()},
        "fit_failures": {str(k): v for k, v in fit_failures.items()},
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# small_data_2d: global decay below the smallness threshold
# ---------------------------------------------------------------------------

SMALL_2D_C_R = 1.0      # rate constant of the 2-D decay clock and threshold
SMALL_2D_SLACK = 1.10


def small_data_2d(cfg: RunConfig, out) -> dict:
    """Decay from a datum of analytic radius init.tau0 whose norm is
    init.amplitude times the smallness threshold.  Each recorded state's
    row and the tau tracker read one shell-power table of that state."""
    cfg = resolve(cfg, "small_data_2d")
    out = _setup(cfg, out)
    grid, init, nu, r, s = cfg.grid, cfg.init, cfg.nu, cfg.norms.r, cfg.norms.s
    rng = np.random.default_rng(init.seed + 19)
    thresh = threshold_2d(nu, init.tau0, SMALL_2D_C_R)
    u0 = random_scalar_2d(grid, rng, tau=init.tau0, eta=init.eta0)
    u0 *= (init.amplitude * thresh) / norm_rst(ShellPower.of(u0, grid), NormSpec(r=r, s=s, tau=init.tau0))

    from .io import DiagnosticsRow

    tracker = TauTracker(init.tau0, decay_2d_rate(SMALL_2D_C_R))
    st = State2D(0.0, u0.copy())
    rows = []

    def record(state, power):
        l2_sq = dz_l2_sq(power)
        # a failed tracker's NaN radius has no norm: the row records NaN and the run fails
        tau = tracker.tau
        nrt = float("nan") if np.isnan(tau) else norm_rst(power, NormSpec(r=r, s=s, tau=tau))
        rows.append(
            DiagnosticsRow(
                t=state.t, norm_r0tau=nrt,
                sobolev_norm=norm_rst(power, NormSpec(r=r, s=s)),
                tau_tracked=tau, tau_fit_h=float("nan"), eta_fit_v=float("nan"),
                energy=0.5 * l2_sq, enstrophy_bar=0.0, baroclinic_l2=float(np.sqrt(l2_sq)),
                div_residual=0.0, mean_residual=float(np.abs(state.u[..., 0]).max()),
            )
        )

    # the initial row's norm is at radius init.tau0, so it is the envelope's n0
    record(st, ShellPower.of(st.u, grid))
    n_steps = int(round(cfg.t_end / cfg.dt))
    for _ in range(n_steps):
        st = step_2d(st, grid, nu, cfg.dt)
        power = ShellPower.of(st.u, grid)
        tracker.step(cfg.dt, _norms_for_tracker(power, r))
        record(st, power)
    n0 = rows[0].norm_r0tau
    # np.max, not max: a NaN ratio must fail the run, not drop out of it
    worst = np.max([row.norm_r0tau / (SMALL_2D_SLACK * (n0 * np.exp(-nu * row.t / 2.0))) for row in rows])
    if cfg.output.csv:
        write_diagnostics_csv(out / "diagnostics.csv", rows)
    ok = worst <= 1.0 and tracker.alive
    summary = {
        "scenario": "small_data_2d",
        "pass": bool(ok),
        "threshold": thresh,
        "initial_norm": n0,
        "worst_envelope_ratio": float(worst),
        "tau_final": tracker.tau,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# lemma_ratios: Appendix-style ensemble certification
# ---------------------------------------------------------------------------

LEMMA_STABILITY_FACTOR = 1.5
LEMMA_SAMPLES = 200


def lemma_ratios(cfg: RunConfig, out) -> dict:
    """Ensembles of LEMMA_SAMPLES draws on the grids nh/4, nh/2 and nh
    (grid.nh the finest); every ratio must be finite, and the finest maximum
    must stay within LEMMA_STABILITY_FACTOR of the middle one."""
    import csv

    cfg = resolve(cfg, "lemma_ratios")
    out = _setup(cfg, out)
    nh, nz = cfg.grid.nh, cfg.grid.nz
    nhs = (nh // 4, nh // 2, nh)
    seed = cfg.init.seed + 1
    rows = []
    maxima: dict[str, dict[int, float]] = {}
    finite: dict[str, bool] = {}
    for kind in LemmaKind:
        maxima[kind.value] = {}
        finite[kind.value] = True
        r, tau, _, _ = ensemble_parameters(kind)
        for n in nhs:
            grid = GridSpec(nh=n, nz=nz, dealias_fraction=cfg.grid.dealias_fraction)
            results = run_ensemble(kind, grid, n_samples=LEMMA_SAMPLES, seed=seed)
            ratios = np.array([res.ratio for res in results])
            maxima[kind.value][n] = float(np.max(ratios))
            finite[kind.value] &= bool(np.isfinite(ratios).all())
            for res in results:
                rows.append(
                    [kind.value, r, tau, n, nz, seed, repr(res.lhs), repr(res.rhs_unit), repr(res.ratio)]
                )
    with (out / "lemma_ratios.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "r", "tau", "nh", "nz", "seed", "lhs", "rhs_unit", "ratio"])
        w.writerows(rows)
    ok = True
    table = {}
    for kind, per in maxima.items():
        stable = per[nh] <= LEMMA_STABILITY_FACTOR * per[nh // 2]
        table[kind] = {"maxima": per, "finite": finite[kind], "resolution_stable": stable}
        ok = ok and finite[kind] and stable
    summary = {"scenario": "lemma_ratios", "pass": bool(ok), "kinds": table}
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# continuous_dependence: linear response of trajectory differences
# ---------------------------------------------------------------------------

CONTINUOUS_EPSILONS = (1e-3, 1e-4)
CONTINUOUS_RATIO_WINDOW = (8.0, 12.0)


def continuous_dependence(cfg: RunConfig, out) -> dict:
    """Final-state differences, in the report norm, of two perturbations along
    a fixed L2-normalized direction drawn with the same envelope."""
    cfg = resolve(cfg, "continuous_dependence")
    out = _setup(cfg, out)
    grid, init, omega = cfg.grid, cfg.init, cfg.omega
    rng = np.random.default_rng(init.seed + 13)
    vbar, vt = random_state(grid, rng, tau0=init.tau0, eta0=init.eta0, amplitude=init.amplitude)
    v0 = _direct_array(vbar, vt)
    dbar, dvt = random_state(grid, np.random.default_rng(init.seed + 14), tau0=init.tau0, eta0=init.eta0)
    dv = _direct_array(dbar, dvt)
    dv /= np.sqrt(np.sum(np.abs(dv) ** 2))

    scfg = _solver_config(cfg, omega)
    spec = _report_spec(cfg)

    def final_state(v):
        res = integrate(rotating_from_direct(v, 0.0, omega), scfg, report=spec)
        return direct_from_rotating(res.state, omega)

    base = final_state(v0)
    diffs = {}
    for eps in CONTINUOUS_EPSILONS:
        pert = final_state(v0 + eps * dv)
        diffs[eps] = norm_rst(SpectralField(grid, pert - base, COS), spec)
    e1, e2 = CONTINUOUS_EPSILONS
    ratio = diffs[e1] / diffs[e2]
    lo, hi = CONTINUOUS_RATIO_WINDOW
    ok = lo <= ratio <= hi
    summary = {
        "scenario": "continuous_dependence",
        "pass": bool(ok),
        "differences": {str(k): float(v) for k, v in diffs.items()},
        "ratio": float(ratio),
        "expected": e1 / e2,
        "window": [lo, hi],
    }
    _write_json(out / "summary.json", summary)
    return summary


SCENARIOS = {
    "verify_projections": verify_projections,
    "formulation_equivalence": formulation_equivalence,
    "local_clock_vs_omega": local_clock_vs_omega,
    "vertical_gain": vertical_gain,
    "limit_convergence": limit_convergence,
    "lifespan_vs_omega": lifespan_vs_omega,
    "small_data_2d": small_data_2d,
    "lemma_ratios": lemma_ratios,
    "continuous_dependence": continuous_dependence,
}


def run_scenario(cfg: RunConfig, out=None) -> dict:
    """Run the scenario cfg names (the default scenario if none), in `out` or output.dir."""
    cfg = parse_config(cfg.echo())
    out = Path(out) if out is not None else Path(cfg.output.dir)
    return SCENARIOS[cfg.scenario.name](cfg, out)
