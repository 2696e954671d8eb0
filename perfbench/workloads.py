"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop with one client: the measuring process runs
one *unit* (a fixed amount of work ending in a gate) after another.  Inputs
come only from (seed, unit index).  A unit returns a result object; `verify`
turns it into (attempted, failed, reasons) so the gate can be fed a
deliberately perturbed result (see selftest.py).

An operation is one trajectory (PE workloads) or one lemma check
(lemma_ensemble).  A raise, a non-"completed" termination, a non-finite ratio
or a missed gate counts as a failed operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rotape import initial_data, io, lemmas, limit_solver, pe_solver, spectral, theory
from rotape.grid import GridSpec, kx, ky
from rotape.norms import NormSpec

RHS_TOL = 1e-10          # criterion 3, RHS level
TRAJ_TOL = 1e-6          # criterion 3, trajectory level
INVARIANT_TOL = 1e-10    # conjugate partner V- = conj V+ and div Vbar = 0
STABILITY_FACTOR = 1.5   # criterion 12: nh=64 ratio <= 1.5 x nh=32 ratio
DUAL_TOL = 1e-10         # criterion 12: exact vs transform LHS


def _unit_rng(seed: int, unit: int) -> np.random.Generator:
    return np.random.default_rng([seed, unit])


def _unit_seed(seed: int, unit: int) -> int:
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / max(np.sum(np.abs(b) ** 2), 1e-300)))


class StepClock:
    """Observer for `pe_solver.integrate` that stamps each accepted step."""

    def __init__(self):
        self.rows = []
        self.stamps = []

    def __call__(self, row):
        self.stamps.append(time.perf_counter())
        self.rows.append(row)

    def step_ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.stamps[:-1], self.stamps[1:])]


# ---------------------------------------------------------------------------
# pe_oracle_32: rotating vs direct formulation on criterion 7's grid
# ---------------------------------------------------------------------------

@dataclass
class PeOracleResult:
    rhs_err: float
    v_rot: np.ndarray
    v_dir: np.ndarray
    terminations: list
    n_rows: int
    csv_path: Path
    snapshot_path: Path
    steps: int
    step_ms: list = field(default_factory=list)


class PeOracle:
    name = "pe_oracle_32"
    grid = GridSpec(nh=32, nz=32)
    nu, omega, dt = 0.5, 5.0, 2e-3
    n_steps = 4
    snapshot_every = 2
    operations = 2                  # trajectories per unit
    rhs_times = (0.0, 0.31)
    report = NormSpec(r=2.0, s=0, tau=0.1)

    def inputs(self, seed: int, unit: int) -> np.ndarray:
        vbar, vt = initial_data.random_state(
            self.grid, _unit_rng(seed, unit), tau0=0.6, eta0=0.0, amplitude=1.0,
            baroclinic_fraction=0.8,
        )
        v0 = vt.coeffs.copy()
        v0[..., 0] += vbar
        return v0

    def _cfg(self, formulation: str, t_end: float) -> pe_solver.SolverConfig:
        return pe_solver.SolverConfig(
            nu=self.nu, omega=self.omega, grid=self.grid, dt=self.dt, t_end=t_end,
            formulation=formulation,
        )

    def warmup(self, v0: np.ndarray):
        """One accepted step per formulation, CFL checked."""
        pe_solver.step(pe_solver.rotating_from_direct(v0, 0.0, self.omega), self._cfg("rotating", self.dt))
        pe_solver.step(pe_solver.DirectState(0.0, v0.copy()), self._cfg("direct", self.dt))

    def run(self, v0: np.ndarray, out: Path) -> PeOracleResult:
        om = self.omega
        rhs_err = 0.0
        for t in self.rhs_times:
            cfg = self._cfg("rotating", self.n_steps * self.dt)
            rs = pe_solver.rotating_from_direct(v0, t, om)
            dvb, dvp, dvm = pe_solver.rhs_rotating(rs, t, cfg)
            ep, em = np.exp(1j * om * t), np.exp(-1j * om * t)
            dv = ep * (dvp + 1j * om * rs.vplus) + em * (dvm - 1j * om * rs.vminus)
            dv[..., 0] += dvb
            direct = pe_solver.rhs_direct(pe_solver.direct_from_rotating(rs, om), t, cfg)
            rhs_err = max(rhs_err, float(np.abs(dv - direct).max() / max(np.abs(direct).max(), 1e-300)))

        t_end = self.n_steps * self.dt
        written = []

        def snapshot(state):
            if len(written) % self.snapshot_every == 0:
                path = out / f"snapshot_{len(written):06d}.pesp1"
                io.write_snapshot(path, pe_solver.direct_from_rotating(state, om), self.grid, state.t)
            written.append(state.t)

        rot_clock, dir_clock = StepClock(), StepClock()
        rres = pe_solver.integrate(
            pe_solver.rotating_from_direct(v0, 0.0, om), self._cfg("rotating", t_end),
            observer=rot_clock, report=self.report, state_observer=snapshot,
        )
        dres = pe_solver.integrate(
            pe_solver.DirectState(0.0, v0.copy()), self._cfg("direct", t_end),
            observer=dir_clock, report=self.report,
        )
        csv_path = out / "diagnostics.csv"
        io.write_diagnostics_csv(csv_path, rot_clock.rows)
        return PeOracleResult(
            rhs_err=rhs_err,
            v_rot=pe_solver.direct_from_rotating(rres.state, om),
            v_dir=dres.state.v,
            terminations=[rres.termination, dres.termination],
            n_rows=len(rot_clock.rows),
            csv_path=csv_path,
            snapshot_path=out / f"snapshot_{self.n_steps:06d}.pesp1",
            steps=2 * self.n_steps,
            step_ms=rot_clock.step_ms() + dir_clock.step_ms(),
        )

    def verify(self, res: PeOracleResult) -> tuple[int, int, list[str]]:
        reasons = []
        if any(t != "completed" for t in res.terminations):
            reasons.append(f"termination {res.terminations}")
        if not res.rhs_err < RHS_TOL:
            reasons.append(f"rhs rel diff {res.rhs_err:.3e} >= {RHS_TOL:g}")
        traj = _rel_l2(res.v_rot, res.v_dir)
        if not traj < TRAJ_TOL:
            reasons.append(f"trajectory rel diff {traj:.3e} >= {TRAJ_TOL:g}")
        rows = io.read_diagnostics_csv(res.csv_path)
        if len(rows) != res.n_rows or rows[-1].termination != "completed":
            reasons.append("diagnostics csv does not round-trip")
        coeffs, grid, t = io.read_snapshot(res.snapshot_path)
        if grid != self.grid or abs(t - self.n_steps * self.dt) > 1e-12 or not np.array_equal(coeffs, res.v_rot):
            reasons.append("last PESP1 snapshot differs from the final rotating state")
        return self.operations, (self.operations if reasons else 0), reasons


# ---------------------------------------------------------------------------
# omega_ensemble_24: limit system + rotating members at four Omega
# ---------------------------------------------------------------------------

@dataclass
class OmegaResult:
    omegas: tuple
    f_values: list
    members: list          # final RotatingState per Omega
    terminations: list
    limit_final: object
    steps: int
    step_ms: list = field(default_factory=list)


class OmegaEnsemble:
    name = "omega_ensemble_24"
    grid = GridSpec(nh=24, nz=12)
    nu, dt = 0.3, 2e-3
    n_steps = 10
    omegas = (10.0, 20.0, 40.0, 80.0)
    operations = 1 + len(omegas)    # limit trajectory + members
    tau_hat0, c_r = 0.35, 1e-4      # tracker of the local clock scenario
    r, tau_f = 2.0, 0.1             # F weights of the limit convergence scenario

    def inputs(self, seed: int, unit: int):
        return initial_data.well_prepared_state(
            self.grid, _unit_rng(seed, unit), tau0=0.6, eta0=0.3,
            barotropic_amplitude=0.5, baroclinic_sobolev_target=0.12,
        )

    def _member0(self, vbar, vt) -> pe_solver.RotatingState:
        vp0, vm0 = limit_solver.limit_to_vpm(vt.coeffs)
        return pe_solver.RotatingState(0.0, vbar.copy(), vp0, vm0)

    def _cfg(self, omega: float) -> pe_solver.SolverConfig:
        return pe_solver.SolverConfig(
            nu=self.nu, omega=omega, grid=self.grid, dt=self.dt, t_end=self.n_steps * self.dt
        )

    def warmup(self, data):
        vbar, vt = data
        lst = limit_solver.LimitState(0.0, limit_solver.vorticity_from_velocity(vbar, self.grid), vt.coeffs.copy())
        limit_solver.step_limit(lst, self.grid, self.nu, self.dt)
        pe_solver.step(self._member0(vbar, vt), self._cfg(self.omegas[0]))

    def run(self, data, out: Path) -> OmegaResult:
        vbar, vt = data
        g = self.grid
        lst = limit_solver.LimitState(0.0, limit_solver.vorticity_from_velocity(vbar, g), vt.coeffs.copy())
        lfin, _, _ = limit_solver.integrate_limit(lst, g, self.nu, self.dt, self.n_steps * self.dt)
        fvals, members, terms, step_ms = [], [], [], []
        for om in self.omegas:
            tracker = theory.TauTracker(self.tau_hat0, theory.local_rate(self.c_r))
            clock = StepClock()
            res = pe_solver.integrate(
                self._member0(vbar, vt), self._cfg(om), observer=clock,
                report=NormSpec(r=self.r, s=0, tau=self.tau_hat0), tau_tracker=tracker,
            )
            series = theory.perturbation_diagnostics([res.state], [lfin], g, om, r=self.r, taus=self.tau_f)
            fvals.append(float(series.f[0]))
            members.append(res.state)
            terms.append(res.termination)
            step_ms.extend(clock.step_ms())
        return OmegaResult(self.omegas, fvals, members, terms, lfin,
                           steps=self.n_steps * (1 + len(self.omegas)), step_ms=step_ms)

    def verify(self, res: OmegaResult) -> tuple[int, int, list[str]]:
        reasons = []
        if any(t != "completed" for t in res.terminations):
            reasons.append(f"termination {res.terminations}")
        if not (np.isfinite(res.limit_final.omega_bar).all() and np.isfinite(res.limit_final.vtilde).all()):
            reasons.append("non-finite limit state")
        f = np.asarray(res.f_values)
        if not (np.isfinite(f).all() and np.all(np.diff(f) < 0)):
            reasons.append(f"F not strictly decreasing in Omega: {f.tolist()}")
        g = self.grid
        for om, st in zip(res.omegas, res.members):
            partner = spectral.conjugate_reverse(st.vplus)
            scale = max(np.abs(st.vminus).max(), 1e-300)
            if not np.abs(st.vminus - partner).max() < INVARIANT_TOL * scale:
                reasons.append(f"Omega={om:g}: V- != conj V+")
            div = 1j * kx(g)[..., 0] * st.vbar[0] + 1j * ky(g)[..., 0] * st.vbar[1]
            gscale = max(np.abs(kx(g)[..., 0] * st.vbar).max(), 1e-300)
            if not np.abs(div).max() < INVARIANT_TOL * gscale:
                reasons.append(f"Omega={om:g}: barotropic mode not divergence-free")
        return self.operations, (self.operations if reasons else 0), reasons


# ---------------------------------------------------------------------------
# lemma_ensemble: the seven product/commutator estimates at nh = 32 and 64
# ---------------------------------------------------------------------------

# Ensemble parameters pinned here (the lemmas module defaults at the time the
# benchmark was defined), so the measured work does not drift with them.
LEMMA_R = {
    lemmas.LemmaKind.banach_algebra: 1.5,
    lemmas.LemmaKind.type1: 1.5,
    lemmas.LemmaKind.type2: 2.25,
    lemmas.LemmaKind.type3: 1.5,
    lemmas.LemmaKind.diff_type1: 2.25,
    lemmas.LemmaKind.diff_type2: 2.25,
    lemmas.LemmaKind.diff_type4: 2.25,
}
LEMMA_TAU = {lemmas.LemmaKind.banach_algebra: (0.1, 0.18)}   # (tau, tau_gen)
LEMMA_DEFAULT_TAU = (0.2, 0.45)
LEMMA_ETA_GEN = 0.3
DUAL_R, DUAL_TAU = 2.25, 0.15


def _mode_field(grid: GridSpec, entries: dict) -> spectral.SpectralField:
    a = np.zeros((2, *grid.shape), dtype=np.complex128)
    for (c, n1, n2, m), val in entries.items():
        a[c, n1, n2, m] = val
    return spectral.SpectralField(grid, a, spectral.COS)


def dual_path_triple(kind: lemmas.LemmaKind, grid: GridSpec):
    """Inputs with at most 3 active modes, so both LHS paths apply."""
    if kind in (lemmas.LemmaKind.type2, lemmas.LemmaKind.diff_type4):
        f = _mode_field(grid, {(0, 1, 0, 1): 0.8, (1, 2, 1, 1): 0.3})
        h = _mode_field(grid, {(0, 3, -1, 1): 0.7, (1, 2, 1, 3): 0.2})
    else:
        f = _mode_field(grid, {(0, 1, 0, 0): 0.8, (1, 2, 1, 0): 0.3})
        h = _mode_field(grid, {(0, 3, -1, 2): 0.7, (1, 2, 1, 2): 0.2})
    g = _mode_field(grid, {(0, 2, -1, 2): 0.5, (1, 1, 1, 2): 0.4})
    if kind is lemmas.LemmaKind.banach_algebra:
        return f.component(0), g.component(0), None
    return f, g, h


def pad_field(f: spectral.SpectralField | None, grid: GridSpec):
    """The same function on a finer horizontal grid (zero-padded coefficients)."""
    if f is None:
        return None
    n = np.rint(np.fft.fftfreq(f.grid.nh) * f.grid.nh).astype(int) % grid.nh
    out = np.zeros((f.components, *grid.shape), dtype=np.complex128)
    out[:, n[:, None], n[None, :], :] = f.coeffs
    return spectral.SpectralField(grid, out, f.basis)


@dataclass
class LemmaResult:
    ensemble: dict        # (kind, nh) -> list of ratios from run_ensemble
    paired: dict          # kind -> (ratio at nh=32, ratio at nh=64), same fields
    dual: dict            # kind -> (exact lhs, transform lhs)
    steps: int
    step_ms: list = field(default_factory=list)   # no time stepping here


class LemmaEnsemble:
    name = "lemma_ensemble"
    grids = (GridSpec(nh=32, nz=8), GridSpec(nh=64, nz=8))
    n_samples = 2
    # run_ensemble samples at both grids, plus a paired and a dual-path pair per kind
    operations = len(lemmas.LemmaKind) * (2 * n_samples + 4)

    @staticmethod
    def _params(kind):
        tau, tau_gen = LEMMA_TAU.get(kind, LEMMA_DEFAULT_TAU)
        return LEMMA_R[kind], tau, tau_gen

    def inputs(self, seed: int, unit: int) -> int:
        return _unit_seed(seed, unit)

    def warmup(self, sub_seed: int):
        kind = lemmas.LemmaKind.type1
        r, tau, tau_gen = self._params(kind)
        lemmas.run_ensemble(kind, self.grids[0], n_samples=1, seed=sub_seed, r=r, tau=tau,
                            tau_gen=tau_gen, eta_gen=LEMMA_ETA_GEN)

    def run(self, sub_seed: int, out: Path) -> LemmaResult:
        ensemble, paired, dual = {}, {}, {}
        coarse, fine = self.grids
        rng = np.random.default_rng(sub_seed)
        for kind in lemmas.LemmaKind:
            r, tau, tau_gen = self._params(kind)
            for grid in self.grids:
                res = lemmas.run_ensemble(kind, grid, n_samples=self.n_samples, seed=sub_seed,
                                          r=r, tau=tau, tau_gen=tau_gen, eta_gen=LEMMA_ETA_GEN)
                ensemble[(kind, grid.nh)] = [c.ratio for c in res]
            f, g, h = lemmas.ensemble_fields(kind, coarse, rng, tau_gen, LEMMA_ETA_GEN)
            rc = lemmas.check(kind, f, g, h, r, tau).ratio
            rf = lemmas.check(kind, pad_field(f, fine), pad_field(g, fine), pad_field(h, fine), r, tau).ratio
            paired[kind] = (rc, rf)
            f, g, h = dual_path_triple(kind, coarse)
            ex = lemmas.check(kind, f, g, h, DUAL_R, DUAL_TAU, force_path="exact")
            tr = lemmas.check(kind, f, g, h, DUAL_R, DUAL_TAU, force_path="transform")
            dual[kind] = (ex.lhs, tr.lhs)
        steps = sum(len(v) for v in ensemble.values()) + 2 * len(paired) + 2 * len(dual)
        return LemmaResult(ensemble, paired, dual, steps)

    def verify(self, res: LemmaResult) -> tuple[int, int, list[str]]:
        reasons, failed = [], 0
        for (kind, nh), ratios in res.ensemble.items():
            bad = sum(not np.isfinite(x) for x in ratios)
            if bad:
                failed += bad
                reasons.append(f"{kind.value} nh={nh}: {bad} non-finite ratio(s)")
        for kind, (rc, rf) in res.paired.items():
            if not (np.isfinite(rc) and np.isfinite(rf) and rf <= STABILITY_FACTOR * rc):
                failed += 2
                reasons.append(f"{kind.value}: nh=64 ratio {rf:.4g} vs nh=32 ratio {rc:.4g}")
        for kind, (ex, tr) in res.dual.items():
            scale = max(abs(ex), abs(tr), 1e-300)
            if not abs(ex - tr) < DUAL_TOL * scale:
                failed += 2
                reasons.append(f"{kind.value}: exact lhs {ex:.6g} vs transform lhs {tr:.6g}")
        return res.steps, failed, reasons


WORKLOADS = {w.name: w for w in (PeOracle(), OmegaEnsemble(), LemmaEnsemble())}
