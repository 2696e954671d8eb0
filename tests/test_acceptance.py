"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and match the documented claims; nothing is
calibrated at run time.
"""

import csv
import math
from collections import Counter

import numpy as np
import pytest

from rotape.config import RunConfig
from rotape.grid import GridSpec
from rotape.initial_data import random_state
from rotape.norms import NormSpec
from rotape.pe_solver import (
    SolverConfig,
    direct_from_rotating,
    integrate,
    rotating_from_direct,
)
from rotape.scenarios import (
    continuous_dependence,
    formulation_equivalence,
    lemma_ratios,
    lifespan_vs_omega,
    limit_convergence,
    local_clock_vs_omega,
    small_data_2d,
    vertical_gain,
    verify_projections,
)
from rotape.theory import TauTracker, local_rate


def _report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def verify_summary(tmp_path_factory):
    return verify_projections(RunConfig(), tmp_path_factory.mktemp("verify"))


def test_criterion_01_projection_algebra(verify_summary):
    bad = [r for r in verify_summary["table"] if not r["pass"] and not r["check"].startswith("norm")]
    worst = max(r["max_violation"] for r in verify_summary["table"] if not r["check"].startswith("norm"))
    ok = not bad and verify_summary["runtime_s"] < 5.0
    _report(1, "projection algebra (Lemmas on P0/P+/P-)", ok,
            f"max violation {worst:.2e} < 1e-12, runtime {verify_summary['runtime_s']:.2f}s < 5s")


def test_criterion_02_norm_identities(verify_summary):
    rows = [r for r in verify_summary["table"] if r["check"].startswith("norm")]
    worst = max(r["max_violation"] for r in rows)
    ok = all(r["pass"] for r in rows)
    _report(2, "norm splitting and half-energy identities", ok, f"max violation {worst:.2e} < 1e-12")


def test_criterion_03_formulation_equivalence(tmp_path):
    cfg = RunConfig()
    cfg.grid = GridSpec(nh=32, nz=16)
    cfg.nu, cfg.omega, cfg.dt, cfg.t_end = 0.1, 5.0, 1e-3, 0.5
    summary = formulation_equivalence(cfg, tmp_path / "feq")
    _report(
        3, "rotating vs direct formulation", summary["pass"],
        f"trajectory rel diff {summary['trajectory_rel_l2_diff']:.2e} < 1e-6, "
        f"rhs rel diff {summary['rhs_rel_diff']:.2e} < 1e-10",
    )


def test_criterion_04_temporal_order():
    grid = GridSpec(nh=16, nz=8)
    rng = np.random.default_rng(4)
    vbar, vt = random_state(grid, rng, tau0=0.6, eta0=0.4, amplitude=0.8)
    v0 = vt.coeffs.copy()
    v0[..., 0] += vbar
    base = 4e-3

    def run(dt):
        cfg = SolverConfig(nu=0.2, omega=4.0, grid=grid, dt=dt, t_end=0.08)
        st = integrate(rotating_from_direct(v0, 0.0, cfg.omega), cfg, check_cfl=False).state
        return direct_from_rotating(st, cfg.omega)

    ref = run(base / 8)
    errs = [np.abs(run(base / f) - ref).max() for f in (1, 2, 4)]
    orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    ok = min(orders) >= 3.5
    _report(4, "RK4-IF temporal convergence order", ok, f"measured orders {orders[0]:.2f}, {orders[1]:.2f} >= 3.5")


def test_criterion_05_tau_monotone_energy():
    # resolved run, tau from the local ODE at C_r = 1: the tau-weighted energy
    # must be nonincreasing within 1e-6 relative slack per unit time.  The
    # C_r = 1 clock consumes the radius at rate 1 + ||V|| + ||dz V||, so the
    # datum is small enough for the clock to survive ~0.1 time units.
    grid = GridSpec(nh=24, nz=12)
    rng = np.random.default_rng(55)
    vbar, vt = random_state(grid, rng, tau0=0.8, eta0=0.4, amplitude=0.05)
    v0 = vt.coeffs.copy()
    v0[..., 0] += vbar
    cfg = SolverConfig(nu=0.3, omega=3.0, grid=grid, dt=5e-4, t_end=0.25)
    tau0 = 0.3
    tracker = TauTracker(tau0, local_rate(1.0))
    rows = []
    integrate(rotating_from_direct(v0, 0.0, cfg.omega), cfg,
              report=NormSpec(r=1.5, s=0, tau=tau0), tau_tracker=tracker, observer=rows.append)
    series = [(r.t, r.norm_r0tau**2) for r in rows if r.tau_tracked > 0 and np.isfinite(r.norm_r0tau)]
    assert len(series) > 100, "tau crossed too early to test monotonicity"
    worst = 0.0
    for (t0, e0), (t1, e1) in zip(series[:-1], series[1:]):
        slack = 1e-6 * (t1 - t0) * e0
        worst = max(worst, (e1 - e0) / e0 / max(t1 - t0, 1e-12))
        if e1 > e0 + slack:
            _report(5, "tau-weighted energy nonincreasing", False,
                    f"increase at t={t1:.3f}: rate {worst:.2e}")
    _report(5, "tau-weighted energy nonincreasing", True,
            f"max growth rate {worst:.2e} <= 1e-6 per unit time over {len(series)} samples")


def test_criterion_06_local_clock(tmp_path):
    summary = local_clock_vs_omega(RunConfig(), tmp_path / "clock")
    _report(6, "Omega-independent local clock", summary["pass"],
            f"doubling-time spread {summary['relative_spread']:.3f} < 0.2 across Omega {sorted(summary['doubling_times'])}")


def test_criterion_07_vertical_smoothing(tmp_path):
    summary = vertical_gain(RunConfig(), tmp_path / "vgain")
    _report(7, "vertical analyticity gain >= 0.35 nu t", summary["pass"],
            f"min margin {summary['min_margin']:.3f}, runtime {summary['runtime_s']:.0f}s < 120s")


def test_criterion_08_limit_convergence(tmp_path):
    summary = limit_convergence(RunConfig(), tmp_path / "limconv")
    halving = summary["norm_halving_ratios_per_doubling"]
    halving_ok = all(1.4 <= h <= 2.6 for h in halving)  # halves within +-30% per doubling
    _report(8, "limit-system convergence exponent", summary["pass"] and halving_ok,
            f"sqrt(F) exponent {summary['fitted_exponent_norm']:.3f} in [0.7, 1.3], "
            f"F exponent {summary['fitted_exponent_f']:.3f}, decreasing={summary['decreasing_in_omega']}, "
            f"per-doubling halving ratios {[round(h, 2) for h in halving]}")


def test_criterion_09_lifespan_prolongation(tmp_path):
    summary = lifespan_vs_omega(RunConfig(), tmp_path / "lifespan")
    _report(9, "sentinel time strictly increasing in Omega", summary["pass"],
            f"T* = {summary['sentinel_times']}")


def test_criterion_10_2d_global_decay(tmp_path):
    summary = small_data_2d(RunConfig(), tmp_path / "2d")
    _report(10, "2D small-data exponential decay", summary["pass"],
            f"worst envelope ratio {summary['worst_envelope_ratio']:.3f} <= 1 (10% slack), "
            f"tau_final {summary['tau_final']:.3f} > 0")


def test_criterion_11_euler_invariants():
    from rotape.limit_solver import LimitState, step_limit, velocity_from_vorticity
    from rotape.initial_data import random_scalar

    grid = GridSpec(nh=64, nz=2)
    rng = np.random.default_rng(21)
    w = random_scalar(grid, rng, tau=0.7, eta=0.0).coeffs[0, :, :, 0]
    w[0, 0] = 0.0
    w *= 1.0 / np.sqrt(np.sum(np.abs(w) ** 2))
    st = LimitState(0.0, w, np.zeros((2, *grid.shape), dtype=np.complex128))
    v0 = velocity_from_vorticity(w, grid)
    e0 = 0.5 * np.sum(np.abs(v0) ** 2)
    z0 = 0.5 * np.sum(np.abs(w) ** 2)
    dt, t_end = 2.5e-3, 2.0
    for _ in range(int(round(t_end / dt))):
        st = step_limit(st, grid, nu=0.1, dt=dt)
    v1 = velocity_from_vorticity(st.omega_bar, grid)
    e_drift = abs(0.5 * np.sum(np.abs(v1) ** 2) - e0) / e0 / t_end
    z_drift = abs(0.5 * np.sum(np.abs(st.omega_bar) ** 2) - z0) / z0 / t_end
    ok = e_drift < 1e-8 and z_drift < 1e-8
    _report(11, "2D Euler energy/enstrophy conservation", ok,
            f"energy drift {e_drift:.2e}, enstrophy drift {z_drift:.2e} < 1e-8 per unit time")


def test_criterion_12_lemma_ratios(tmp_path):
    from rotape.lemmas import LemmaKind, check
    from tests.test_lemmas import baroclinic_single_mode_triple, single_mode_triple

    kinds = lemma_ratios(RunConfig(), tmp_path)["kinds"]
    # the ensemble the criterion pins: 200 samples per kind and grid nh = 16, 32, 64 (nz 8), seed 1
    with (tmp_path / "lemma_ratios.csv").open() as fh:
        drawn = Counter((row["kind"], row["nh"], row["nz"], row["seed"]) for row in csv.DictReader(fh))
    assert drawn == {(kind.value, str(nh), "8", "1"): 200 for kind in LemmaKind for nh in (16, 32, 64)}
    for kind, entry in kinds.items():
        assert entry["finite"], f"{kind}: non-finite ratio"
    maxima = {kind: entry["maxima"] for kind, entry in kinds.items()}
    stable = {k: per[64] <= 1.5 * per[32] for k, per in maxima.items()}
    # dual-path agreement on <= 3-mode inputs
    dual_ok = True
    for kind in LemmaKind:
        f, g, h = (
            baroclinic_single_mode_triple()
            if kind in (LemmaKind.type2, LemmaKind.diff_type4)
            else single_mode_triple()
        )
        if kind is LemmaKind.banach_algebra:
            f, g, h = f.component(0), g.component(0), None
        re_ = check(kind, f, g, h, 2.25, 0.15, force_path="exact")
        rt_ = check(kind, f, g, h, 2.25, 0.15, force_path="transform")
        scale = max(abs(re_.lhs), abs(rt_.lhs), 1e-300)
        dual_ok = dual_ok and abs(re_.lhs - rt_.lhs) < 1e-10 * scale
    ok = all(stable.values()) and dual_ok
    worst_ratio = {k: round(per[64], 3) for k, per in maxima.items()}
    _report(12, "lemma ratios bounded and resolution-stable", ok,
            f"nh=64 maxima {worst_ratio}, 64<=1.5x32 all={all(stable.values())}, dual-path 1e-10 ok={dual_ok}")


def test_criterion_13_continuous_dependence(tmp_path):
    summary = continuous_dependence(RunConfig(), tmp_path / "cdep")
    _report(13, "continuous dependence linear response", summary["pass"],
            f"difference ratio {summary['ratio']:.2f} in [8, 12] for eps ratio 10")


def test_criterion_14_theory_evaluators():
    from rotape.theory import (
        lifespan_local,
        lifespan_local_residual,
        lifespan_main,
        lifespan_small_barotropic,
        tau_T_radius,
        tau_T_radius_residual,
    )

    res_local = max(
        abs(lifespan_local_residual(lifespan_local(m, tau0, nu, cr), m, tau0, nu, cr))
        for m, tau0, nu, cr in [(0.5, 1.0, 0.1, 1.0), (3.0, 0.4, 2.0, 0.7), (8.0, 1.5, 0.05, 2.0)]
    )
    res_radius = max(
        abs(tau_T_radius_residual(tau_T_radius(e0, nu, tau0, cr)[1], e0, nu, tau0, cr))
        for e0, nu, tau0, cr in [(1.0, 0.5, 1.0, 1.0), (4.0, 0.1, 0.3, 2.0)]
    )
    ts = [lifespan_main(om).value for om in np.logspace(7, 40, 25)]
    mono = all(b >= a for a, b in zip(ts, ts[1:]))
    t1 = lifespan_small_barotropic(1, 1e6).value
    t2 = lifespan_small_barotropic(2, 1e6).value
    t3 = lifespan_small_barotropic(3, 1e6).value
    ordering = t3 > t2 > t1 > 0
    ok = res_local < 1e-12 and res_radius < 1e-12 and mono and ordering
    _report(14, "lifespan evaluators: residuals, monotonicity, case ordering", ok,
            f"residuals {res_local:.1e}/{res_radius:.1e} < 1e-12, monotone={mono}, "
            f"ordering T3={t3:.1f} > T2={t2:.2f} > T1={t1:.2f}")


def test_criterion_15_determinism(tmp_path):
    cfg = RunConfig()
    cfg.grid = GridSpec(nh=16, nz=8)
    cfg.nu, cfg.omega, cfg.dt, cfg.t_end = 0.2, 3.0, 2e-3, 0.05
    cfg.init.seed = 9
    a = formulation_equivalence(cfg, tmp_path / "runA")
    b = formulation_equivalence(cfg, tmp_path / "runB")
    bytes_a = (tmp_path / "runA" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "runB" / "diagnostics.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _report(15, "bit-identical diagnostics.csv across repeat runs", ok,
            f"{len(bytes_a)} bytes compared equal={bytes_a == bytes_b}")
