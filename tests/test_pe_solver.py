"""Solver right-hand sides, stepping, and integration invariants."""

import numpy as np
import pytest

from rotape.grid import GridSpec
from rotape.initial_data import random_scalar_2d, random_state
from rotape.norms import NormSpec
from rotape.pe_solver import (
    CflError,
    DirectState,
    RotatingState,
    SolverConfig,
    State2D,
    direct_from_rotating,
    embed_2d,
    integrate,
    rhs_2d,
    rhs_direct,
    rhs_rotating,
    rotating_from_direct,
    step,
    step_2d,
    _step_nocfl,
)


GRID = GridSpec(nh=16, nz=8)


def make_state(rng, amplitude=1.0, baroclinic_fraction=0.6, grid=GRID):
    vbar, vt = random_state(grid, rng, tau0=0.4, eta0=0.3, amplitude=amplitude,
                            baroclinic_fraction=baroclinic_fraction)
    v = vt.coeffs.copy()
    v[..., 0] += vbar
    return DirectState(0.0, v)


def cfg_for(grid=GRID, nu=0.1, omega=5.0, dt=1e-3, t_end=0.1, **kw):
    return SolverConfig(nu=nu, omega=omega, grid=grid, dt=dt, t_end=t_end, **kw)


class TestRhsRotating:
    def test_zero_state_zero_tendency(self):
        cfg = cfg_for()
        st = RotatingState(
            0.0,
            np.zeros((2, GRID.nh, GRID.nh), dtype=np.complex128),
            np.zeros((2, *GRID.shape), dtype=np.complex128),
        )
        dvb, dvp, dvm = rhs_rotating(st, 0.0, cfg)
        assert np.abs(dvb).max() == 0.0
        assert np.abs(dvp).max() == 0.0
        assert np.abs(dvm).max() == 0.0

    def test_purely_barotropic_reduces_to_2d_euler(self, rng):
        from rotape.limit_solver import euler2d_rhs, velocity_from_vorticity, vorticity_from_velocity

        cfg = cfg_for()
        vbar, _ = random_state(GRID, rng, amplitude=1.0, baroclinic_fraction=0.0)
        st = RotatingState(0.0, vbar, np.zeros((2, *GRID.shape), dtype=np.complex128))
        dvb, dvp, dvm = rhs_rotating(st, 0.3, cfg)
        assert np.abs(dvp).max() == 0.0
        assert np.abs(dvm).max() == 0.0
        # cross-check against the vorticity-form Euler tendency
        omega = vorticity_from_velocity(vbar, GRID)
        domega = euler2d_rhs(omega, GRID)
        dvb_from_omega = velocity_from_vorticity(domega, GRID)
        scale = max(np.abs(dvb).max(), 1e-300)
        assert np.abs(dvb - dvb_from_omega).max() < 1e-12 * scale

    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_formulation_equivalence_oracle(self, rng, t):
        """Assembled rotating tendencies reproduce the projected direct RHS."""
        cfg = cfg_for(omega=7.0)
        ds = make_state(rng)
        rs = rotating_from_direct(ds.v, t, cfg.omega)
        rs = RotatingState(t, rs.vbar, rs.vplus, rs.vminus)
        dvb, dvp, dvm = rhs_rotating(rs, t, cfg)
        om = cfg.omega
        ep, em = np.exp(1j * om * t), np.exp(-1j * om * t)
        # d/dt V = dVbar + e^{i om t}(dV+ + i om V+) + e^{-i om t}(dV- - i om V-)
        dv = ep * (dvp + 1j * om * rs.vplus) + em * (dvm - 1j * om * rs.vminus)
        dv[..., 0] += dvb
        direct = rhs_direct(ds.v if t == 0 else direct_from_rotating(rs, om), t, cfg)
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(dv - direct).max() < 1e-10 * scale

    def test_tendencies_preserve_structure(self, rng):
        cfg = cfg_for()
        ds = make_state(rng)
        rs = rotating_from_direct(ds.v, 0.1, cfg.omega)
        rs = RotatingState(0.1, rs.vbar, rs.vplus, rs.vminus)
        dvb, dvp, dvm = rhs_rotating(rs, 0.1, cfg)
        assert np.abs(dvp[..., 0]).max() == 0.0  # baroclinic tendencies stay m=0-free
        assert np.abs(dvm[..., 0]).max() == 0.0
        from rotape.pe_solver import _div2d

        assert np.abs(_div2d(dvb, GRID)).max() < 1e-12  # Leray-projected

    def test_minus_tendency_is_conjugate_partner(self, rng):
        from rotape.spectral import conjugate_reverse

        cfg = cfg_for()
        rs = rotating_from_direct(make_state(rng).v, 0.2, cfg.omega)
        _, dvp, dvm = rhs_rotating(rs, 0.2, cfg)
        assert np.array_equal(dvm, conjugate_reverse(dvp))


class TestRealityChecks:
    def test_vminus_not_partner_rejected(self, rng):
        rs = rotating_from_direct(make_state(rng).v, 0.0, 5.0)
        RotatingState(0.0, rs.vbar, rs.vplus, rs.vminus.copy())  # the partner is accepted
        bad = rs.vminus.copy()
        bad[0, 1, 0, 1] += 1e-6 * np.abs(bad).max()
        with pytest.raises(ValueError, match="conjugate partner"):
            RotatingState(0.0, rs.vbar, rs.vplus, bad)

    def test_non_real_velocity_rejected(self, rng):
        v = make_state(rng).v
        v[0, 1, 0, 1] += 0.1j * np.abs(v).max()
        with pytest.raises(ValueError, match="conjugate symmetric"):
            rotating_from_direct(v, 0.0, 5.0)


class TestRhsDirect:
    def test_zero(self):
        cfg = cfg_for()
        out = rhs_direct(np.zeros((2, *GRID.shape), dtype=np.complex128), 0.0, cfg)
        assert np.abs(out).max() == 0.0

    def test_coriolis_term_isolation(self, rng):
        cfg = cfg_for(omega=3.0)
        ds = make_state(rng)
        out = rhs_direct(ds.v, 0.0, cfg, include_viscous=False, include_nonlinear=False)
        perp = np.concatenate([-ds.v[1:2], ds.v[0:1]], axis=0)
        expect = -cfg.omega * perp
        from rotape.pe_solver import _leray2d

        expect[..., 0] = _leray2d(expect[..., 0], GRID)
        assert np.abs(out - expect).max() < 1e-13 * max(np.abs(expect).max(), 1.0)


class TestStepping:
    def test_pure_diffusion_exact_for_if(self, rng):
        cfg = cfg_for(nu=0.3, omega=0.0, dt=0.02, t_end=0.2)
        vplus = np.zeros((2, *GRID.shape), dtype=np.complex128)
        vplus[0, 1, 0, 1] = 1.0
        # with its conjugate partner this is the real V = u(x, z) e_x, u one
        # cos(2 pi x) cos(pi z) mode, whose advection and w-transport cancel
        # against the P0 subtraction: only diffusion acts on V's coefficient
        out = RotatingState(0.0, np.zeros((2, GRID.nh, GRID.nh), dtype=np.complex128), vplus)
        for _ in range(10):
            out = _step_nocfl(out, cfg)
        expect = np.exp(-cfg.nu * np.pi**2 * 0.2)
        got = direct_from_rotating(out, cfg.omega)[0, 1, 0, 1]
        assert abs(got - expect) < 1e-13
        assert abs(got.imag) < 1e-13

    def test_zero_state_step(self):
        cfg = cfg_for()
        st = RotatingState(
            0.0,
            np.zeros((2, GRID.nh, GRID.nh), dtype=np.complex128),
            np.zeros((2, *GRID.shape), dtype=np.complex128),
        )
        out = step(st, cfg)
        assert np.abs(out.vplus).max() == 0.0
        assert np.abs(out.vbar).max() == 0.0

    def test_temporal_order_at_least_3p5(self, rng):
        grid = GridSpec(nh=16, nz=8)
        base = 4e-3
        vbar, vt = random_state(grid, rng, tau0=0.6, eta0=0.4, amplitude=0.8)
        v0 = vt.coeffs.copy()
        v0[..., 0] += vbar

        def run(dt):
            cfg = SolverConfig(nu=0.2, omega=4.0, grid=grid, dt=dt, t_end=0.08)
            st = rotating_from_direct(v0, 0.0, cfg.omega)
            for _ in range(int(round(cfg.t_end / dt))):
                st = _step_nocfl(st, cfg)
            return direct_from_rotating(st, cfg.omega)

        ref = run(base / 8)
        errs = [np.abs(run(base / f) - ref).max() for f in (1, 2, 4)]
        order01 = np.log2(errs[0] / errs[1])
        order12 = np.log2(errs[1] / errs[2])
        assert min(order01, order12) >= 3.5

    def test_cfl_rejection(self, rng):
        cfg = cfg_for(dt=0.2, omega=0.0, t_end=1.0)
        st = make_state(rng, amplitude=5.0)
        with pytest.raises(CflError) as exc:
            step(rotating_from_direct(st.v, 0.0, cfg.omega), cfg)
        assert exc.value.suggested < 0.2

    def test_omega_dt_constraint_enforced(self):
        with pytest.raises(ValueError, match="0.5"):
            cfg_for(dt=1e-2, omega=100.0)
        # allowed in the direct formulation
        cfg_for(dt=1e-2, omega=100.0, formulation="direct")

    def test_nan_tendency_names_term(self, rng):
        from rotape.pe_solver import TendencyNanError

        cfg = cfg_for()
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        st.vplus[0, 1, 0, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(TendencyNanError) as exc:
            rhs_rotating(st, 0.0, cfg)
        assert exc.value.term.startswith("plus_") or exc.value.term == "barotropic"

    def test_direct_state_public_step(self, rng):
        cfg = cfg_for(formulation="direct")
        st = DirectState(0.0, make_state(rng, amplitude=0.5).v)
        out = step(st, cfg)
        assert out.t == pytest.approx(cfg.dt)
        assert np.isfinite(out.v).all()

    def test_rk4_plain_matches_if_at_small_dt(self, rng):
        grid = GridSpec(nh=16, nz=8)
        vbar, vt = random_state(grid, rng, tau0=0.6, eta0=0.4, amplitude=0.5)
        v0 = vt.coeffs.copy()
        v0[..., 0] += vbar
        outs = {}
        for scheme in ("rk4_if", "rk4_plain"):
            cfg = SolverConfig(nu=0.2, omega=3.0, grid=grid, dt=2.5e-4, t_end=0.02, scheme=scheme)
            st = rotating_from_direct(v0, 0.0, cfg.omega)
            for _ in range(int(round(cfg.t_end / cfg.dt))):
                st = _step_nocfl(st, cfg)
            outs[scheme] = direct_from_rotating(st, cfg.omega)
        scale = np.abs(outs["rk4_if"]).max()
        assert np.abs(outs["rk4_if"] - outs["rk4_plain"]).max() < 1e-9 * scale


class TestIntegrate:
    def test_t_end_zero_returns_initial(self, rng):
        cfg = cfg_for(t_end=0.0)
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        res = integrate(st, cfg)
        assert res.termination == "completed"
        assert len(res.rows) == 1
        assert np.abs(res.state.vplus - st.vplus).max() == 0.0

    def test_invariants_along_run(self, rng):
        cfg = cfg_for(nu=0.1, omega=5.0, dt=2e-3, t_end=0.2)
        st = rotating_from_direct(make_state(rng, amplitude=0.8).v, 0.0, cfg.omega)
        res = integrate(st, cfg, report=NormSpec(r=2.0, s=0, tau=0.1))
        assert res.termination == "completed"
        rows = res.rows
        # mean preservation and barotropic incompressibility
        assert max(r.mean_residual for r in rows) < 1e-12 * cfg.t_end + 1e-13
        assert max(r.div_residual for r in rows) < 1e-11
        # plain L2 energy nonincreasing up to dealiasing error
        energies = [r.energy for r in rows]
        tol = 1e-8 * cfg.t_end * energies[0]
        assert all(b <= a + tol for a, b in zip(energies, energies[1:]))

    def test_conjugate_partner_invariant(self, rng):
        from rotape.spectral import conjugate_reverse

        cfg = cfg_for(nu=0.1, omega=8.0, dt=2e-3, t_end=0.1)
        st = rotating_from_direct(make_state(rng, amplitude=0.8).v, 0.0, cfg.omega)
        res = integrate(st, cfg)
        vm_expect = conjugate_reverse(res.state.vplus)
        scale = max(np.abs(res.state.vminus).max(), 1e-300)
        assert np.abs(res.state.vminus - vm_expect).max() < 1e-10 * scale

    def test_diagnostic_bug_propagates(self, rng, monkeypatch):
        import rotape.pe_solver as pe

        def broken(*args, **kwargs):
            raise RuntimeError("bug in the radius fit")

        monkeypatch.setattr(pe, "fit_radius", broken)
        cfg = cfg_for(t_end=2e-3, dt=1e-3)
        with pytest.raises(RuntimeError, match="bug in the radius fit"):
            integrate(rotating_from_direct(make_state(rng).v, 0.0, cfg.omega), cfg)

    def test_insufficient_decay_data_gives_nan_fit(self, rng, monkeypatch):
        import rotape.pe_solver as pe
        from rotape.norms import InsufficientDecayData

        def flat(*args, **kwargs):
            raise InsufficientDecayData("spectrum too flat")

        monkeypatch.setattr(pe, "fit_radius", flat)
        cfg = cfg_for(t_end=2e-3, dt=1e-3)
        res = integrate(rotating_from_direct(make_state(rng).v, 0.0, cfg.omega), cfg)
        assert res.termination == "completed"
        assert all(np.isnan(r.tau_fit_h) and np.isnan(r.eta_fit_v) for r in res.rows)
        assert all(np.isfinite(r.norm_r0tau) for r in res.rows)

    def test_blowup_sentinel_and_amplitude_ordering(self):
        grid = GridSpec(nh=16, nz=8)
        times = []
        for amp in (3.0, 6.0):
            rng = np.random.default_rng(5)
            vbar, vt = random_state(grid, rng, tau0=0.35, eta0=0.3, amplitude=amp,
                                    baroclinic_fraction=0.7)
            v0 = vt.coeffs.copy()
            v0[..., 0] += vbar
            cfg = SolverConfig(nu=0.02, omega=0.0, grid=grid, dt=1.5e-3, t_end=6.0)
            st = rotating_from_direct(v0, 0.0, cfg.omega)
            res = integrate(st, cfg, report=NormSpec(r=2.0, s=0, tau=0.35), blowup_factor=50.0)
            assert res.termination == "blowup_sentinel"
            times.append(res.state.t)
        assert times[1] < times[0]


class TestReduce2D:
    def test_zero(self):
        grid = GridSpec(nh=16, nz=8)
        out = rhs_2d(np.zeros((16, 8), dtype=np.complex128), grid, nu=0.5)
        assert np.abs(out).max() == 0.0

    def test_single_mode_tendency_is_pure_diffusion(self):
        # u = a cos(2 pi x) sqrt2 cos(pi z): the advective and w-transport terms
        # cancel against the P0 subtraction; hand assembly leaves nu dzz u.
        grid = GridSpec(nh=16, nz=8)
        a = 0.7
        u = np.zeros((16, 8), dtype=np.complex128)
        u[1, 1] = a / 2
        u[-1, 1] = a / 2
        out = rhs_2d(u, grid, nu=0.5)
        expect = -0.5 * np.pi**2 * u
        assert np.abs(out - expect).max() < 1e-13

    def test_3d_consistency_oracle(self, rng):
        grid = GridSpec(nh=16, nz=8)
        u = random_scalar_2d(16, 8, rng, tau=0.4, eta=0.3, hcut=grid.hcut, zcut=grid.zcut)
        du = rhs_2d(u, grid, nu=0.3)
        v3 = embed_2d(u, grid)
        cfg = SolverConfig(nu=0.3, omega=0.0, grid=grid, dt=1e-3, t_end=1.0, formulation="direct")
        dv3 = rhs_direct(v3, 0.0, cfg)
        scale = max(np.abs(du).max(), 1e-300)
        assert np.abs(dv3[0, :, 0, :] - du).max() < 1e-11 * scale
        assert np.abs(dv3[1]).max() < 1e-13  # v stays zero
        other = dv3[0].copy()
        other[:, 0, :] = 0.0
        assert np.abs(other).max() < 1e-13  # no n2 modes appear

    def test_2d_decay_small_data(self, rng):
        grid = GridSpec(nh=16, nz=8)
        u = random_scalar_2d(16, 8, rng, tau=0.5, eta=0.3, hcut=grid.hcut, zcut=grid.zcut)
        u *= 0.05 / np.sqrt(np.sum(np.abs(u) ** 2))
        st = State2D(0.0, u)
        nu = 1.0
        e0 = np.sum(np.abs(u) ** 2)
        for _ in range(100):
            st = step_2d(st, grid, nu, 5e-3)
        assert np.sum(np.abs(st.u) ** 2) < e0
