"""Scenario orchestration: one runnable experiment per checkable claim.

Each scenario takes a RunConfig and an output directory, writes a config
echo, optional diagnostics.csv / PESP1 snapshots, and a summary.json whose
"pass" field drives the CLI exit code.  Scenario-internal tolerances are
pinned here, never loosened at run time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .decomposition import baroclinic, p0, p_minus, p_plus, rotation_r
from .grid import GridSpec
from .initial_data import (
    random_scalar_2d,
    random_state,
    random_vector,
    shear_barotropic,
    well_prepared_state,
)
from .io import write_diagnostics_csv, write_snapshot
from .limit_solver import LimitState, integrate_limit, vorticity_from_velocity
from .norms import NormSpec, norm_rst
from .pe_solver import (
    DirectState,
    RotatingState,
    SolverConfig,
    State2D,
    direct_from_rotating,
    integrate,
    norm_rst_2d,
    plus_projection,
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
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg.echo())
    return out


def _initial_state(cfg: RunConfig, grid: GridSpec | None = None):
    """Build (vbar, vtilde) per the init section."""
    grid = grid or cfg.grid
    rng = np.random.default_rng(cfg.init.seed)
    if cfg.init.kind == "random_analytic":
        return random_state(grid, rng, tau0=cfg.init.tau0, eta0=cfg.init.eta0,
                            amplitude=cfg.init.amplitude)
    if cfg.init.kind == "well_prepared":
        target = cfg.init.baroclinic_sobolev_target
        if target is None:
            target = 0.25
        return well_prepared_state(grid, rng, tau0=cfg.init.tau0, eta0=cfg.init.eta0,
                                   barotropic_amplitude=cfg.init.amplitude,
                                   baroclinic_sobolev_target=target)
    if cfg.init.kind == "shear_plus_baroclinic":
        vbar = shear_barotropic(grid, amplitude=cfg.init.amplitude)
        vt = random_vector(grid, rng, cfg.init.tau0, cfg.init.eta0, baroclinic=True)
        cur = np.sqrt(np.sum(np.abs(vt.coeffs) ** 2))
        if cur > 0:
            vt = vt * (0.3 * cfg.init.amplitude / cur)
        return vbar, vt
    if cfg.init.kind == "file":
        from .io import read_snapshot

        coeffs, g2, _ = read_snapshot(cfg.init.path)
        if (g2.nh, g2.nz) != (grid.nh, grid.nz):
            raise ValueError("snapshot grid does not match the configured grid")
        vbar = coeffs[..., 0].copy()
        vt = coeffs.copy()
        vt[..., 0] = 0.0
        return vbar, SpectralField(grid, vt, COS)
    raise ValueError(f"unknown init kind {cfg.init.kind!r}")


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

def verify_projections(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    grid = GridSpec(nh=16, nz=8, dealias_fraction=cfg.grid.dealias_fraction)
    rng = np.random.default_rng(cfg.init.seed)
    tol = 1e-12
    worst: dict[str, float] = {}

    def upd(name, val):
        worst[name] = max(worst.get(name, 0.0), float(val))

    t0 = time.time()
    spec = NormSpec(r=1.5, s=0, tau=0.2)
    for _ in range(100):
        v = random_vector(grid, rng, tau=0.4, eta=0.3)
        g2 = random_vector(grid, rng, tau=0.4, eta=0.3)
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
        {"check": k, "max_violation": v, "tol": tol, "pass": v < tol} for k, v in sorted(worst.items())
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

def formulation_equivalence(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    grid = cfg.grid
    nu, omega = cfg.nu, cfg.omega
    dt, t_end = cfg.dt, cfg.t_end
    vbar, vt = _initial_state(cfg)
    v0 = _direct_array(vbar, vt)

    # RHS-level agreement at two times
    rhs_err = 0.0
    for t in (0.0, 0.31):
        scfg = SolverConfig(nu=nu, omega=omega, grid=grid, dt=dt, t_end=t_end)
        rs = rotating_from_direct(v0, t, omega)
        dvb, dvp, dvm = rhs_rotating(rs, t, scfg)
        ep, em = np.exp(1j * omega * t), np.exp(-1j * omega * t)
        dv = ep * (dvp + 1j * omega * rs.vplus) + em * (dvm - 1j * omega * rs.vminus)
        dv[..., 0] += dvb
        direct = rhs_direct(direct_from_rotating(rs, omega), t, scfg)
        rhs_err = max(rhs_err, float(np.abs(dv - direct).max() / max(np.abs(direct).max(), 1e-300)))

    # trajectory-level agreement
    rcfg = SolverConfig(nu=nu, omega=omega, grid=grid, dt=dt, t_end=t_end, formulation="rotating")
    dcfg = SolverConfig(nu=nu, omega=omega, grid=grid, dt=dt, t_end=t_end, formulation="direct")
    rows = []
    rres = integrate(rotating_from_direct(v0, 0.0, omega), rcfg,
                     report=NormSpec(r=cfg.norms.r, s=cfg.norms.s, tau=cfg.norms.tau_report),
                     observer=rows.append,
                     state_observer=_snapshot_writer(cfg, out, grid, omega))
    dres = integrate(DirectState(0.0, v0.copy()), dcfg,
                     report=NormSpec(r=cfg.norms.r, s=cfg.norms.s, tau=cfg.norms.tau_report))
    va = direct_from_rotating(rres.state, omega)
    vb = dres.state.v
    traj_err = float(np.sqrt(np.sum(np.abs(va - vb) ** 2) / max(np.sum(np.abs(vb) ** 2), 1e-300)))
    if cfg.output.csv:
        write_diagnostics_csv(out / "diagnostics.csv", rows)
    ok = traj_err < 1e-6 and rhs_err < 1e-10
    summary = {
        "scenario": "formulation_equivalence",
        "pass": bool(ok),
        "trajectory_rel_l2_diff": traj_err,
        "rhs_rel_diff": rhs_err,
        "tolerances": {"trajectory": 1e-6, "rhs": 1e-10},
        "radius_collapse_t": rres.radius_collapse_t,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# local_clock_vs_omega: doubling time of the tracked-radius norm vs Omega
# ---------------------------------------------------------------------------

LOCAL_CLOCK = {
    "nh": 24, "nz": 12, "tau0_data": 0.8, "eta0": 0.4, "amplitude": 1.2,
    "baroclinic_fraction": 0.05, "nu": 0.1, "dt": 2e-3, "t_end": 0.4,
    "tau_hat0": 0.35, "c_r": 1e-4, "r": 2.0, "spread_tol": 0.2,
}


def local_clock_vs_omega(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    p = LOCAL_CLOCK
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 42)
    vbar, vt = random_state(grid, rng, tau0=p["tau0_data"], eta0=p["eta0"],
                            amplitude=p["amplitude"], baroclinic_fraction=p["baroclinic_fraction"])
    v0 = _direct_array(vbar, vt)
    omegas = cfg.scenario.sweep or [0.0, 10.0, 100.0]
    doubling = {}
    for om in omegas:
        scfg = SolverConfig(nu=p["nu"], omega=om, grid=grid, dt=p["dt"], t_end=p["t_end"])
        tracker = TauTracker(p["tau_hat0"], local_rate(p["c_r"]))
        rows = []
        integrate(rotating_from_direct(v0, 0.0, om), scfg,
                  report=NormSpec(r=p["r"], s=0, tau=p["tau_hat0"]),
                  tau_tracker=tracker, observer=rows.append)
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
    ok = len(vals) == len(omegas) and spread < p["spread_tol"]
    summary = {
        "scenario": "local_clock_vs_omega",
        "pass": bool(ok),
        "doubling_times": {str(k): v for k, v in doubling.items()},
        "relative_spread": spread,
        "tolerance": p["spread_tol"],
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# vertical_gain: fitted vertical radius vs the nu t / 2 law
# ---------------------------------------------------------------------------

VERTICAL_GAIN = {
    "nh": 32, "nz": 32, "nu": 0.5, "tau0": 0.6, "amplitude": 1.0,
    "baroclinic_fraction": 0.8, "dt": 2e-3, "t_end": 1.0, "slope_factor": 0.35,
    "window": (0.2, 1.0), "fit_floor": 1e-14,
}


def vertical_gain(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    p = VERTICAL_GAIN
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 7)
    vbar, vt = random_state(grid, rng, tau0=p["tau0"], eta0=0.0,
                            amplitude=p["amplitude"], baroclinic_fraction=p["baroclinic_fraction"])
    v0 = _direct_array(vbar, vt)
    scfg = SolverConfig(nu=p["nu"], omega=cfg.omega, grid=grid, dt=p["dt"], t_end=p["t_end"])
    rows = []
    t0 = time.time()
    res = integrate(rotating_from_direct(v0, 0.0, cfg.omega), scfg,
                    report=NormSpec(r=cfg.norms.r, s=0, tau=cfg.norms.tau_report),
                    observer=rows.append, fit_floor=p["fit_floor"])
    runtime = time.time() - t0
    lo, hi = p["window"]
    margin = float("inf")
    failures = []
    for row in rows:
        if lo <= row.t <= hi:
            target = p["slope_factor"] * p["nu"] * row.t
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
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# limit_convergence: F(T) against the limit trajectory, exponent vs 1/Omega
# ---------------------------------------------------------------------------

LIMIT_CONVERGENCE = {
    "nh": 24, "nz": 12, "nu": 0.3, "tau0": 0.6, "eta0": 0.3,
    "barotropic_amplitude": 0.5, "baroclinic_sobolev_target": 0.12,
    "dt": 2e-3, "t_end": 0.5, "r": 2.0, "tau_f": 0.1,
    "exponent_window": (0.7, 1.3),
}


def limit_convergence(cfg: RunConfig, out) -> dict:
    """Decay of the perturbation against the limit-system trajectory with Omega.

    F is the squared perturbation functional; the rotation-rate scaling law
    holds for the perturbation norm sqrt(F) (expected exponent ~1 in 1/Omega),
    so the window is checked on the sqrt(F) fit.  Both exponents are reported.
    """
    out = _setup(cfg, out)
    p = LIMIT_CONVERGENCE
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 11)
    vbar, vt = well_prepared_state(grid, rng, tau0=p["tau0"], eta0=p["eta0"],
                                   barotropic_amplitude=p["barotropic_amplitude"],
                                   baroclinic_sobolev_target=p["baroclinic_sobolev_target"])
    omegas = cfg.scenario.sweep or [10.0, 20.0, 40.0, 80.0]
    lst = LimitState(0.0, vorticity_from_velocity(vbar, grid), vt.coeffs.copy())
    lfin, _, _ = integrate_limit(lst, grid, p["nu"], p["dt"], p["t_end"])
    vp0 = plus_projection(vt.coeffs)
    fvals = {}
    for om in omegas:
        scfg = SolverConfig(nu=p["nu"], omega=om, grid=grid, dt=p["dt"], t_end=p["t_end"])
        st = RotatingState(0.0, vbar.copy(), vp0.copy())
        res = integrate(st, scfg, report=NormSpec(r=p["r"], s=0, tau=p["tau_f"]), check_cfl=True)
        series = perturbation_diagnostics([res.state], [lfin], grid, om, r=p["r"], taus=p["tau_f"])
        fvals[om] = float(series.f[0])
    oms = np.array(sorted(fvals))
    fs = np.array([fvals[o] for o in oms])
    decreasing = bool(np.all(np.diff(fs) < 0))
    alpha_f = float(np.polyfit(np.log(1.0 / oms), np.log(fs), 1)[0])
    alpha_norm = alpha_f / 2.0
    # per-doubling halving of the perturbation norm sqrt(F)
    halving = [float(np.sqrt(fs[i] / fs[i + 1])) for i in range(len(fs) - 1)]
    lo, hi = p["exponent_window"]
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

LIFESPAN = {
    "nh": 24, "nz": 12, "nu": 0.03, "tau0": 0.5, "eta0": 0.4,
    "amplitude": 1.0, "baroclinic_fraction": 1.0, "dt": 2e-3,
    "t_end": 1.5, "blowup_factor": 100.0, "tau_ref": 0.3, "r": 2.0,
}


def lifespan_vs_omega(cfg: RunConfig, out) -> dict:
    """Sentinel time grows strictly with Omega for a fixed marginal baroclinic
    datum.  A run that never trips the sentinel is right-censored at t_end."""
    out = _setup(cfg, out)
    p = LIFESPAN
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 3)
    vbar, vt = random_state(grid, rng, tau0=p["tau0"], eta0=p["eta0"],
                            amplitude=p["amplitude"], baroclinic_fraction=p["baroclinic_fraction"])
    v0 = _direct_array(vbar, vt)
    omegas = cfg.scenario.sweep or [0.0, 20.0, 80.0]
    tstars = {}
    censored = {}
    collapse = {}
    for om in omegas:
        scfg = SolverConfig(nu=p["nu"], omega=om, grid=grid, dt=p["dt"], t_end=p["t_end"])
        res = integrate(rotating_from_direct(v0, 0.0, om), scfg,
                        report=NormSpec(r=p["r"], s=0, tau=p["tau_ref"]),
                        blowup_factor=p["blowup_factor"], check_cfl=False)
        fired = res.termination in ("blowup_sentinel", "nan")
        tstars[om] = res.state.t if fired else p["t_end"]
        censored[om] = not fired
        collapse[om] = res.radius_collapse_t
    oms = sorted(tstars)
    vals = [tstars[o] for o in oms]
    strict = all(b > a for a, b in zip(vals, vals[1:]))
    summary = {
        "scenario": "lifespan_vs_omega",
        "pass": bool(strict),
        "sentinel_times": {str(k): v for k, v in tstars.items()},
        "censored_at_t_end": {str(k): v for k, v in censored.items()},
        "radius_collapse_t": {str(k): v for k, v in collapse.items()},
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# small_data_2d: global decay below the smallness threshold
# ---------------------------------------------------------------------------

SMALL_2D = {
    "nh": 32, "nz": 16, "nu": 1.0, "tau0": 1.0, "c_r": 1.0, "fraction": 0.2,
    "dt": 2.5e-3, "t_end": 5.0, "r": 2.0, "slack": 1.10,
}


def small_data_2d(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    p = SMALL_2D
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 19)
    thresh = threshold_2d(p["nu"], p["tau0"], p["c_r"])
    u0 = random_scalar_2d(grid.nh, grid.nz, rng, tau=p["tau0"], eta=0.2,
                          hcut=grid.hcut, zcut=grid.zcut)
    spec0 = NormSpec(r=p["r"], s=0, tau=p["tau0"])
    u0 *= (p["fraction"] * thresh) / norm_rst_2d(u0, grid, spec0)
    n0 = norm_rst_2d(u0, grid, spec0)

    from .io import DiagnosticsRow

    tracker = TauTracker(p["tau0"], decay_2d_rate(p["c_r"]))
    st = State2D(0.0, u0.copy())
    rows = []
    worst = 0.0

    def record(state):
        tau = tracker.tau
        n = norm_rst_2d(state.u, grid, NormSpec(r=p["r"], s=0, tau=tau))
        envelope = n0 * np.exp(-p["nu"] * state.t / 2.0)
        ratio = n / (p["slack"] * envelope)
        rows.append(
            DiagnosticsRow(
                t=state.t, norm_r0tau=n, sobolev_norm=norm_rst_2d(state.u, grid, NormSpec(r=p["r"])),
                tau_tracked=tau, tau_fit_h=float("nan"), eta_fit_v=float("nan"),
                energy=0.5 * float(np.sum(np.abs(state.u) ** 2)), enstrophy_bar=0.0,
                baroclinic_l2=float(np.sqrt(np.sum(np.abs(state.u) ** 2))),
                div_residual=0.0, mean_residual=float(np.abs(state.u[:, 0]).max()),
            )
        )
        return ratio

    def norms_for_tracker(state):
        def norms_at(tau):
            w = np.pi * np.arange(grid.nz)[None, :]
            return (
                norm_rst_2d(state.u, grid, NormSpec(r=p["r"], s=0, tau=tau)),
                norm_rst_2d(-w * state.u, grid, NormSpec(r=p["r"], s=0, tau=tau)),
            )

        return norms_at

    worst = max(worst, record(st))
    n_steps = int(round(p["t_end"] / p["dt"]))
    for _ in range(n_steps):
        st = step_2d(st, grid, p["nu"], p["dt"])
        tracker.step(p["dt"], norms_for_tracker(st))
        worst = max(worst, record(st))
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

def lemma_ratios(cfg: RunConfig, out, n_samples: int = 200,
                 nhs=(16, 32, 64)) -> dict:
    import csv

    from .lemmas import ENSEMBLE_DEFAULTS, LemmaKind, _KIND_R, _KIND_TAU, run_ensemble

    out = _setup(cfg, out)
    nz = 8
    rows = []
    maxima: dict[str, dict[int, float]] = {}
    for kind in LemmaKind:
        maxima[kind.value] = {}
        tau = _KIND_TAU.get(kind, ENSEMBLE_DEFAULTS)["tau"]
        for nh in nhs:
            grid = GridSpec(nh=nh, nz=nz)
            results = run_ensemble(kind, grid, n_samples=n_samples, seed=cfg.init.seed + 1)
            ratios = [r.ratio for r in results]
            maxima[kind.value][nh] = max(ratios)
            for res in results:
                rows.append(
                    [kind.value, _KIND_R[kind], tau, nh, nz,
                     cfg.init.seed + 1, repr(res.lhs), repr(res.rhs_unit), repr(res.ratio)]
                )
    with (out / "lemma_ratios.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "r", "tau", "nh", "nz", "seed", "lhs", "rhs_unit", "ratio"])
        w.writerows(rows)
    ok = True
    table = {}
    for kind, per in maxima.items():
        finite = all(np.isfinite(v) for v in per.values())
        stable = per[64] <= 1.5 * per[32] if 64 in per and 32 in per else True
        table[kind] = {"maxima": per, "finite": finite, "resolution_stable": stable}
        ok = ok and finite and stable
    summary = {"scenario": "lemma_ratios", "pass": bool(ok), "kinds": table}
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# continuous_dependence: linear response of trajectory differences
# ---------------------------------------------------------------------------

CONTINUOUS = {
    "nh": 24, "nz": 12, "nu": 0.2, "tau0": 0.6, "eta0": 0.3, "amplitude": 1.0,
    "dt": 2e-3, "t_end": 0.5, "epsilons": (1e-3, 1e-4), "ratio_window": (8.0, 12.0),
}


def continuous_dependence(cfg: RunConfig, out) -> dict:
    out = _setup(cfg, out)
    p = CONTINUOUS
    grid = GridSpec(nh=p["nh"], nz=p["nz"])
    rng = np.random.default_rng(cfg.init.seed + 13)
    vbar, vt = random_state(grid, rng, tau0=p["tau0"], eta0=p["eta0"], amplitude=p["amplitude"])
    v0 = _direct_array(vbar, vt)
    # a fixed analytic perturbation direction, normalized in L2
    dbar, dvt = random_state(grid, np.random.default_rng(cfg.init.seed + 14),
                             tau0=p["tau0"], eta0=p["eta0"], amplitude=1.0)
    dv = _direct_array(dbar, dvt)
    dv /= np.sqrt(np.sum(np.abs(dv) ** 2))

    omega = cfg.omega
    scfg = SolverConfig(nu=p["nu"], omega=omega, grid=grid, dt=p["dt"], t_end=p["t_end"])

    def final_state(v):
        res = integrate(rotating_from_direct(v, 0.0, omega), scfg,
                        report=NormSpec(r=2.0, s=0, tau=0.1))
        return direct_from_rotating(res.state, omega)

    base = final_state(v0)
    diffs = {}
    spec = NormSpec(r=1.5, s=0, tau=0.1)
    for eps in p["epsilons"]:
        pert = final_state(v0 + eps * dv)
        diffs[eps] = norm_rst(SpectralField(grid, pert - base, COS), spec)
    e1, e2 = p["epsilons"]
    ratio = diffs[e1] / diffs[e2]
    lo, hi = p["ratio_window"]
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
    name = cfg.scenario.name
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    out = Path(out) if out is not None else Path(cfg.output.dir)
    return SCENARIOS[name](cfg, out)
