"""Solver right-hand sides, stepping, and integration invariants."""

import numpy as np
import pytest

from rotape.grid import GridSpec
from rotape.initial_data import random_scalar_2d, random_state
from rotape.norms import NormSpec, ShellPower, norm_rst
from rotape.pe_solver import (
    CFL_SAFETY,
    CflError,
    DirectState,
    RotatingState,
    SolverConfig,
    cfl_limit,
    direct_from_rotating,
    integrate,
    rhs_2d,
    rhs_direct,
    rhs_rotating,
    rotating_from_direct,
    step,
    _advance,
    _advance_2d,
    _if_rk4,
    _march,
    _pack,
    _unpack,
)
from rotape.decomposition import polarized
from rotape.grid import mpi
from rotape.spectral import COS, SpectralField, band_pack, band_unpack


GRID = GridSpec(nh=16, nz=8)


def embed_2d(u, grid):
    """The x-z 2D state as a square-grid 2-vector: u on the n2 = 0 column, v = 0."""
    v = np.zeros((2, grid.nh, grid.nh, grid.nz), dtype=np.complex128)
    v[0:1, :, 0:1, :] = u
    return v


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
        from rotape.spectral import divergence

        assert np.abs(divergence(dvb, GRID)).max() < 1e-12  # Leray-projected

    def test_minus_tendency_is_conjugate_partner(self, rng):
        from rotape.spectral import conjugate_reverse

        cfg = cfg_for()
        rs = rotating_from_direct(make_state(rng).v, 0.2, cfg.omega)
        _, dvp, dvm = rhs_rotating(rs, 0.2, cfg)
        assert np.array_equal(dvm, conjugate_reverse(dvp))
        assert np.array_equal(dvp[1], 1j * dvp[0])


class TestRealityChecks:
    def test_vminus_not_partner_rejected(self, rng):
        rs = rotating_from_direct(make_state(rng).v, 0.0, 5.0)
        RotatingState(0.0, rs.vbar, rs.vplus, rs.vminus.copy())  # the partner is accepted
        bad = rs.vminus.copy()
        bad[0, 1, 0, 1] += 1e-6 * np.abs(bad).max()
        with pytest.raises(ValueError, match="conjugate partner"):
            RotatingState(0.0, rs.vbar, rs.vplus, bad)

    def test_unpolarized_vplus_rejected(self, rng):
        rs = rotating_from_direct(make_state(rng).v, 0.3, 5.0)
        RotatingState(0.3, rs.vbar, rs.vplus)  # P+ of a velocity is accepted
        bad = rs.vplus.copy()
        bad[1, 1, 0, 1] += 1e-6 * np.abs(bad).max()
        with pytest.raises(ValueError, match="V\\+ is not P\\+ of a velocity"):
            RotatingState(0.3, rs.vbar, bad)

    def test_non_real_velocity_rejected(self, rng):
        v = make_state(rng).v
        v[0, 1, 0, 1] += 0.1j * np.abs(v).max()
        with pytest.raises(ValueError, match="conjugate symmetric"):
            rotating_from_direct(v, 0.0, 5.0)

    def test_non_real_direct_state_rejected(self, rng):
        v = make_state(rng).v
        v[0, 1, 0, 1] += 0.1j * np.abs(v).max()
        with pytest.raises(ValueError, match="v is not conjugate symmetric"):
            DirectState(0.0, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_constructs(self, rng, bad):
        """A state that went non-finite is built, so its run ends as "nan"."""
        v = make_state(rng).v
        v[0, 1, 0, 1] = bad
        with np.errstate(invalid="ignore"):
            DirectState(0.0, v)
            rotating_from_direct(v, 0.0, 5.0)


@pytest.mark.parametrize("formulation", ["direct", "rotating", "limit"])
def test_transform_budget_per_rhs(monkeypatch, rng, formulation):
    """One RHS evaluation costs two stacked inverse transforms and one forward
    (the limit transport one of each), all on the packed band.

    The rotating RHS transforms the scalar phi of V+ = phi (1, i): three cos
    and two sin components in, one out; the direct RHS the real 2-vector V;
    the limit transport RHS the real 2-vector Vt and its gradient.  Each
    inverse reads, and each forward returns, the packed stack
    (components, 2 hcut + 1, 2 hcut + 1, zcut + 1) = (.., 11, 11, 6) at (16, 8).
    """
    import rotape.limit_solver as lim
    import rotape.pe_solver as pe

    calls = {"inverse": 0, "forward": 0}
    stacks = {"inverse": [], "forward": []}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            basis = args[2] if len(args) > 2 else kwargs.get("basis", "cos")
            out = fn(*args, **kwargs)
            stacks[kind].append((basis, (args[0] if kind == "inverse" else out).shape))
            return out

        return wrapper

    for mod in (pe, lim):
        monkeypatch.setattr(mod, "values_from_coeffs", counted("inverse", mod.values_from_coeffs))
        monkeypatch.setattr(mod, "coeffs_from_values", counted("forward", mod.coeffs_from_values))
    cfg = cfg_for()
    v = make_state(rng).v
    if formulation == "direct":
        rhs_direct(v, 0.3, cfg)
    elif formulation == "rotating":
        rhs_rotating(rotating_from_direct(v, 0.3, cfg.omega), 0.3, cfg)
    else:
        v[..., 0] = 0.0
        lim.transport_rhs(band_pack(v, GRID), lim.vorticity_from_velocity(make_state(rng).v[..., 0], GRID), GRID)
    band = (11, 11, 6)
    expect = {
        "direct": {"inverse": [("cos", (6, *band)), ("sin", (3, *band))], "forward": [("cos", (2, *band))]},
        "rotating": {"inverse": [("cos", (3, *band)), ("sin", (2, *band))], "forward": [("cos", (1, *band))]},
        "limit": {"inverse": [("cos", (6, *band))], "forward": [("cos", (2, *band))]},
    }[formulation]
    assert calls == {kind: len(stack) for kind, stack in expect.items()}
    assert stacks == expect


class TestRhsDirect:
    def test_zero(self):
        cfg = cfg_for()
        out = rhs_direct(np.zeros((2, *GRID.shape), dtype=np.complex128), 0.0, cfg)
        assert np.abs(out).max() == 0.0

    def test_coriolis_term_isolation(self, rng):
        cfg = cfg_for(omega=3.0)
        ds = make_state(rng)
        out = rhs_direct(ds.v, 0.0, cfg) - rhs_direct(ds.v, 0.0, cfg_for(omega=0.0))
        perp = np.concatenate([-ds.v[1:2], ds.v[0:1]], axis=0)
        expect = -cfg.omega * perp
        from rotape.decomposition import leray

        expect[..., 0] = leray(expect[..., 0], GRID)
        assert np.abs(out - expect).max() < 1e-13 * max(np.abs(expect).max(), 1.0)


class TestStepping:
    def test_pure_diffusion_exact_for_if(self, rng):
        cfg = cfg_for(nu=0.3, omega=0.0, dt=0.02, t_end=0.2)
        v = np.zeros((2, *GRID.shape), dtype=np.complex128)
        v[0, 1, 0, 1] = v[0, -1, 0, 1] = 1.0
        # the real V = u(x, z) e_x, u one cos(2 pi x) cos(pi z) mode, whose
        # advection and w-transport cancel against the P0 subtraction: only
        # diffusion acts on V's coefficient
        out = integrate(rotating_from_direct(v, 0.0, cfg.omega), cfg, check_cfl=False).state
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
            st = integrate(rotating_from_direct(v0, 0.0, cfg.omega), cfg, check_cfl=False).state
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["nu", "omega", "dt", "t_end"])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            cfg_for(**{field: value})

    def test_negative_t_end_rejected(self):
        with pytest.raises(ValueError, match="^t_end must be >= 0"):
            cfg_for(t_end=-2e-3)

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

    @pytest.mark.parametrize("bad, term", [("vbar", "plus_barotropic"), ("phi", "plus_self")])
    def test_non_finite_input_names_its_group(self, rng, bad, term):
        """The slow path replays the step's group assembly with a check on
        each group: a non-finite Vbar first shows in the Vbar . grad phi
        group, a non-finite phi in the self-advection group."""
        from rotape.pe_solver import TendencyNanError

        cfg = cfg_for()
        st = rotating_from_direct(make_state(rng).v, 0.2, cfg.omega)
        arrs = {"vbar": st.vbar.copy(), "phi": band_pack(st.vplus[0:1], cfg.grid)}
        arrs[bad][(0, 1, 0, 1)[: arrs[bad].ndim]] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(TendencyNanError) as exc:
            rhs_rotating((arrs["vbar"], arrs["phi"]), 0.2, cfg)
        assert exc.value.term == term

    def test_direct_state_public_step(self, rng):
        cfg = cfg_for(formulation="direct")
        st = DirectState(0.0, make_state(rng, amplitude=0.5).v)
        out = step(st, cfg)
        assert out.t == pytest.approx(cfg.dt)
        assert np.isfinite(out.v).all()

    def test_state_of_the_other_formulation_rejected(self, rng):
        """The state type picks the formulation; a config naming the other is rejected."""
        v = make_state(rng, amplitude=0.5).v
        # dt |Omega| = 2 passes only the direct formulation's guard
        direct_cfg = cfg_for(omega=200.0, dt=1e-2, formulation="direct")
        with pytest.raises(ValueError, match="RotatingState.*formulation='direct'"):
            step(rotating_from_direct(v, 0.0, direct_cfg.omega), direct_cfg)
        with pytest.raises(ValueError, match="DirectState.*formulation='rotating'"):
            step(DirectState(0.0, v), cfg_for())
        with pytest.raises(ValueError, match="DirectState.*formulation='rotating'"):
            integrate(DirectState(0.0, v), cfg_for(t_end=2e-3))

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_rk4_plain_is_the_classical_rk4(self, rng, formulation):
        """The integrating-factor RK4 with unit factors is a plain RK4: bit for
        bit the classical RK4 written out here."""
        cfg = cfg_for(nu=0.2, omega=3.0, dt=1e-3, formulation=formulation)
        st = _initial(formulation, make_state(rng).v, cfg.omega)
        y, rhs = _arrays_and_rhs(st, cfg)
        expect = _classical_rk4(y, st.t, cfg.dt, rhs)
        stages = [tuple(np.empty_like(a) for a in y) for _ in range(4)]
        got = _if_rk4(y, st.t, cfg.dt, rhs, cfg.grid, 0.0, stages)  # nu = 0: every factor is 1
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    def test_rk4_plain_matches_if_at_small_dt(self, rng):
        """The integrating-factor step agrees with the classical RK4 on the full
        right-hand side N(y) - nu (m pi)^2 y at small dt."""
        grid = GridSpec(nh=16, nz=8)
        vbar, vt = random_state(grid, rng, tau0=0.6, eta0=0.4, amplitude=0.5)
        v0 = vt.coeffs.copy()
        v0[..., 0] += vbar
        cfg = SolverConfig(nu=0.2, omega=3.0, grid=grid, dt=2.5e-4, t_end=0.02)
        st = rotating_from_direct(v0, 0.0, cfg.omega)
        (vbar_p, phi_p), nl = _arrays_and_rhs(st, cfg)
        damp = cfg.nu * mpi(grid, phi_p) ** 2

        def full(a, t):
            dvb, dphi = nl(a, t)
            return dvb, dphi - damp * a[1]

        t = 0.0
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            vbar_p, phi_p = _classical_rk4((vbar_p, phi_p), t, cfg.dt, full)
            t += cfg.dt
        got = direct_from_rotating(integrate(st, cfg, check_cfl=False).state, cfg.omega)
        plain = direct_from_rotating(RotatingState(t, vbar_p, polarized(band_unpack(phi_p, grid))), cfg.omega)
        assert np.abs(got - plain).max() < 1e-9 * np.abs(got).max()


def _initial(formulation, v, omega):
    return rotating_from_direct(v, 0.0, omega) if formulation == "rotating" else DirectState(0.0, v.copy())


def _arrays_and_rhs(st, cfg):
    """The arrays the stepper advances (the 3-D one packed) and their
    non-diffusive tendency, written into the arrays `out` when given."""
    if isinstance(st, RotatingState):
        return (st.vbar, band_pack(st.vplus[0:1], cfg.grid)), lambda a, t, out=None: rhs_rotating(a, t, cfg, out=out)

    def rhs(a, t, out=None):
        return (rhs_direct(a[0], t, cfg, out=None if out is None else out[0]),)

    return (band_pack(st.v, cfg.grid),), rhs


def _classical_rk4(y, t, dt, rhs):
    """One classical RK4 step of y' = rhs(y, t), written out."""
    k1 = rhs(y, t)
    k2 = rhs(tuple(a + 0.5 * dt * k for a, k in zip(y, k1)), t + 0.5 * dt)
    k3 = rhs(tuple(a + 0.5 * dt * k for a, k in zip(y, k2)), t + 0.5 * dt)
    k4 = rhs(tuple(a + dt * k for a, k in zip(y, k3)), t + dt)
    return tuple(a + (dt / 6.0) * (p + 2.0 * (q + r) + w) for a, p, q, r, w in zip(y, k1, k2, k3, k4))


class TestStageOneCfl:
    """The CFL limit comes from stage 1 of the step, not from cfl_limit's transforms."""

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_stage_one_limit_equals_cfl_limit(self, rng, formulation):
        cfg = cfg_for(nu=0.1, omega=7.0, dt=2e-3, formulation=formulation)
        st = _initial(formulation, make_state(rng, amplitude=2.0).v, cfg.omega)
        arrs = _advance(_pack(st, cfg), st.t, cfg, check_cfl=False)[0]
        st = _unpack(arrs, st.t + cfg.dt, cfg)  # t > 0: the phase e^{i Omega t} is not 1
        for _ in range(3):
            arrs, lim = _advance(_pack(st, cfg), st.t, cfg, check_cfl=False)
            expect = cfl_limit(st, cfg)
            assert abs(lim - expect) <= 1e-14 * expect
            st = _unpack(arrs, st.t + cfg.dt, cfg)

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_limit_matches_closed_form_maxima(self, formulation):
        """At nh != nz the limit weighs max|u, v| by 1/dx = nh and max|w| by
        1/dz = nz.  u = A sin(2 pi n x) sqrt2 cos(pi z), v = 0, so
        w = -int_0^z du/dx = -(2 n A) cos(2 pi n x) sqrt2 sin(pi z): both
        maxima are taken over the collocation points x_j = j/nh,
        z_k = (k + 1/2)/nz in closed form, no transform involved."""
        cfg = cfg_for(omega=7.0, formulation=formulation)
        nh, nz = cfg.grid.nh, cfg.grid.nz
        amp, n = 0.7, 4
        v = np.zeros((2, nh, nh, nz), dtype=np.complex128)
        v[0, n, 0, 1], v[0, -n, 0, 1] = amp / 2j, -amp / 2j
        x, z = np.arange(nh) / nh, (np.arange(nz) + 0.5) / nz
        umax = amp * np.abs(np.sin(2 * np.pi * n * x)).max() * np.sqrt(2.0) * np.abs(np.cos(np.pi * z)).max()
        wmax = 2 * n * amp * np.abs(np.cos(2 * np.pi * n * x)).max() * np.sqrt(2.0) * np.abs(np.sin(np.pi * z)).max()
        expect = CFL_SAFETY / (umax * nh + wmax * nz)
        st = _initial(formulation, v, cfg.omega)
        lim = _advance(_pack(st, cfg), st.t, cfg, check_cfl=False)[1]
        for got in (cfl_limit(st, cfg), lim):
            assert abs(got - expect) <= 1e-13 * expect

    def test_cfl_limit_rejects_an_out_of_band_velocity(self, rng):
        """A mode the band transforms would drop is rejected, in any input form."""
        cfg = cfg_for()
        v = make_state(rng).v
        v[0, 7, 2, 1] = v[0, -7, -2, 1] = 1e-3  # |n1| = 7 > hcut = 5
        for state in (v, DirectState(0.0, v), rotating_from_direct(v, 0.0, cfg.omega)):
            with pytest.raises(ValueError, match="^v has 2 nonzero coefficients outside the 2/3-rule band"):
                cfl_limit(state, cfg)

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_cfl_error_fires_at_the_first_step_over_the_limit(self, monkeypatch, rng, formulation):
        # the safety factor scales the limit without touching the trajectory,
        # so it can place dt just over the limit of one chosen pre-step state
        import rotape.pe_solver as pe

        monkeypatch.setattr(pe, "CFL_SAFETY", 1.0)
        cfg = cfg_for(nu=0.1, omega=40.0, dt=2e-3, t_end=0.02, formulation=formulation)
        st0 = _initial(formulation, make_state(rng, amplitude=2.0).v, cfg.omega)
        states = []
        integrate(st0, cfg, check_cfl=False, state_observer=states.append)
        speeds = np.array([1.0 / cfl_limit(st, cfg) for st in states[:-1]])
        k = int(np.argmax(speeds))
        assert k > 0 and speeds[k] > speeds[:k].max() * (1 + 1e-6)
        monkeypatch.setattr(pe, "CFL_SAFETY", cfg.dt * speeds[k] * (1 - 1e-9))
        accepted = []
        with pytest.raises(CflError):
            integrate(st0, cfg, state_observer=accepted.append)
        assert len(accepted) == k + 1  # the initial state and k accepted steps
        with pytest.raises(CflError):
            step(accepted[-1], cfg)
        assert step(accepted[-2], cfg).t == pytest.approx(accepted[-1].t)

    def test_integrate_step_makes_only_the_rhs_transforms(self, monkeypatch, rng):
        """Four RHS calls' transforms per step; none for the CFL check, tracker or row."""
        import rotape.pe_solver as pe
        from rotape.theory import TauTracker, local_rate

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("values_from_coeffs", "coeffs_from_values", "barotropic_values", "barotropic_coeffs"):
            monkeypatch.setattr(pe, name, counted(name, getattr(pe, name)))
        cfg = cfg_for(dt=1e-3, t_end=3e-3)
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        rhs_rotating(st, 0.0, cfg)
        per_rhs = sorted(calls)
        calls.clear()
        res = integrate(st, cfg, tau_tracker=TauTracker(0.3, local_rate(1e-4)))
        assert len(res.rows) == 4
        assert sorted(calls) == sorted(per_rhs * 4 * 3)

    def test_result_records_cfl_margin_and_fit_failures(self, rng, monkeypatch):
        import rotape.pe_solver as pe
        from rotape.norms import InsufficientDecayData

        cfg = cfg_for(dt=1e-3, t_end=4e-3)
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        states = []
        res = integrate(st, cfg, state_observer=states.append)
        margin = min(cfl_limit(s, cfg) for s in states[:-1]) / cfg.dt
        assert abs(res.cfl_margin_min - margin) <= 1e-14 * margin
        assert res.fit_failures == 0
        assert integrate(st, cfg_for(t_end=0.0)).cfl_margin_min is None

        def flat(f, axis, **kwargs):
            if axis == "vertical":
                raise InsufficientDecayData("spectrum too flat")
            return 0.5

        monkeypatch.setattr(pe, "fit_radius", flat)
        res = integrate(st, cfg, check_cfl=False)
        assert res.fit_failures == len(res.rows) == 5

    def test_result_counts_the_rows_whose_nan_tau_fell_back(self, rng):
        """A failed tracker's NaN radius falls back to the report radius, and
        each such row is counted; without a tracker nothing falls back."""
        from rotape.theory import TauTracker, local_rate

        cfg = cfg_for(dt=1e-3, t_end=4e-3)
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        report = NormSpec(r=2.0, s=0, tau=0.2)
        res = integrate(st, cfg, report=report, tau_tracker=TauTracker(0.3, lambda norms: float("nan")))
        assert res.tau_fallbacks == len(res.rows) - 1 == 4
        plain = integrate(st, cfg, report=report)
        assert [r.norm_r0tau for r in res.rows[1:]] == [r.norm_r0tau for r in plain.rows[1:]]
        assert plain.tau_fallbacks == 0
        assert integrate(st, cfg, report=report, tau_tracker=TauTracker(0.3, local_rate(1e-4))).tau_fallbacks == 0


class TestIntegrate:
    def test_t_end_off_the_step_grid_rejected(self, rng):
        # dt = 3e-3 would run round(0.005 / 3e-3) = 2 steps and end at t = 0.006
        cfg = cfg_for(dt=3e-3, t_end=0.005)
        st = rotating_from_direct(make_state(rng).v, 0.0, cfg.omega)
        with pytest.raises(ValueError, match=r"t_end \(0\.005\) must be a whole number of steps of dt \(0\.003\)"):
            integrate(st, cfg)
        res = integrate(st, cfg_for(dt=3e-3, t_end=0.006))
        assert len(res.rows) == 3 and res.state.t == pytest.approx(0.006)

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
        assert np.array_equal(res.state.vplus[1], 1j * res.state.vplus[0])
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


def _march_2d(u, grid, nu, dt, n_steps):
    """u (x-z layout) after n_steps steps of the 2D reduced system, packed and
    marched as small_data_2d steps it."""
    def advance(a, t):
        return _advance_2d(a, t, grid, nu, dt)

    (b,), _, _ = _march((band_pack(u, grid, "u"),), 0.0, dt, n_steps, advance, lambda a, t: None)
    return band_unpack(b, grid)


class TestReduce2D:
    def test_zero(self):
        grid = GridSpec(nh=16, nz=8)
        out = rhs_2d(band_pack(np.zeros((1, 16, 1, 8), dtype=np.complex128), grid), grid)
        assert np.abs(out).max() == 0.0

    def test_single_mode_tendency_is_pure_diffusion(self):
        # u = a cos(2 pi x) sqrt2 cos(pi z): the advective and w-transport terms
        # cancel against the P0 subtraction, so the tendency is zero (to
        # roundoff) and the integrating factor alone evolves u, as the heat
        # equation does
        grid = GridSpec(nh=16, nz=8)
        a = 0.7
        u = np.zeros((1, 16, 1, 8), dtype=np.complex128)
        u[0, 1, 0, 1] = a / 2
        u[0, -1, 0, 1] = a / 2
        assert np.abs(rhs_2d(band_pack(u, grid), grid)).max() < 1e-13
        u10 = _march_2d(u, grid, nu=0.5, dt=0.02, n_steps=10)
        assert np.abs(u10 - np.exp(-0.5 * np.pi**2 * 0.2) * u).max() < 1e-13

    def test_3d_consistency_oracle(self, rng):
        grid = GridSpec(nh=16, nz=8)
        u = random_scalar_2d(grid, rng, tau=0.4, eta=0.3)
        du = band_unpack(rhs_2d(band_pack(u, grid), grid), grid)
        v3 = embed_2d(u, grid)
        cfg = SolverConfig(nu=0.3, omega=0.0, grid=grid, dt=1e-3, t_end=1.0, formulation="direct")
        dv3 = rhs_direct(v3, 0.0, cfg)
        scale = max(np.abs(du).max(), 1e-300)
        assert np.abs(dv3[0:1, :, 0:1, :] - du).max() < 1e-11 * scale
        assert np.abs(dv3[1]).max() < 1e-13  # v stays zero
        other = dv3[0].copy()
        other[:, 0, :] = 0.0
        assert np.abs(other).max() < 1e-13  # no n2 modes appear

    @pytest.mark.parametrize("nh, nz", [(16, 8), (24, 12), (32, 16)])
    def test_rhs_2d_is_rhs_direct_on_the_xz_column(self, rng, nh, nz):
        """rhs_2d is rhs_direct of the embedded state (v = 0, Omega = 0) to
        1e-13 of the largest tendency, on flat band noise: unit amplitude and
        a random phase on every retained baroclinic mode of the x-z column,
        then symmetrized, so the band edge carries as much as the rest.  The
        direct tendency has no v component and no n2 != 0 column."""
        from rotape.grid import dealias_mask
        from rotape.spectral import symmetrize

        grid = GridSpec(nh=nh, nz=nz)
        keep = dealias_mask(grid)[:, 0:1, :].copy()
        keep[..., 0] = False
        u = np.zeros((1, nh, 1, nz), dtype=np.complex128)
        u[0][keep] = np.exp(2j * np.pi * rng.random(int(keep.sum())))
        u = symmetrize(u)
        du = band_unpack(rhs_2d(band_pack(u, grid), grid), grid)
        cfg = SolverConfig(nu=0.3, omega=0.0, grid=grid, dt=1e-3, t_end=1.0, formulation="direct")
        dv3 = rhs_direct(embed_2d(u, grid), 0.0, cfg)
        scale = np.abs(dv3).max()
        assert scale > 0.0
        rest = dv3.copy()
        rest[0:1, :, 0:1, :] -= du
        assert np.abs(rest).max() <= 1e-13 * scale

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_norm_2d_matches_embedded_norm(self, rng, s, tau):
        """The x-z layout's table is the embedded 3-D field's, bit for bit, so
        every norm of the 2D state is that of the embedded field."""
        grid = GridSpec(nh=32, nz=16)
        u = random_scalar_2d(grid, rng, tau=1.0, eta=0.2)
        v3 = embed_2d(u, grid)
        table = ShellPower.of(u, grid)
        assert np.array_equal(table.table, ShellPower.of(v3, grid).table)
        spec = NormSpec(r=2.0, s=s, tau=tau)
        assert norm_rst(table, spec) == norm_rst(SpectralField(grid, v3, COS), spec)

    def test_2d_decay_small_data(self, rng):
        grid = GridSpec(nh=16, nz=8)
        u = random_scalar_2d(grid, rng, tau=0.5, eta=0.3)
        u *= 0.05 / np.sqrt(np.sum(np.abs(u) ** 2))
        nu = 1.0
        e0 = np.sum(np.abs(u) ** 2)
        assert np.sum(np.abs(_march_2d(u, grid, nu, 5e-3, 100)) ** 2) < e0


# --- the per-grid workspace ---------------------------------------------------

def _run(system, grid, seed, steps=4):
    """(final arrays, diagnostics rows) of a short run of one system from the state drawn with `seed`."""
    from rotape.limit_solver import LimitState, integrate_limit, vorticity_from_velocity
    from rotape.initial_data import well_prepared_state

    rng = np.random.default_rng(seed)
    if system == "limit":
        vbar, vt = well_prepared_state(grid, rng, tau0=0.4, eta0=0.3)
        st, rows, _ = integrate_limit(LimitState(0.0, vorticity_from_velocity(vbar, grid), vt.coeffs), grid, 0.1,
                                      1e-3, steps * 1e-3)
        return (st.omega_bar, st.vtilde), [vars(r) for r in rows]
    v = make_state(rng, grid=grid).v
    cfg = cfg_for(grid=grid, t_end=steps * 1e-3, formulation=system)
    res = integrate(rotating_from_direct(v, 0.0, cfg.omega) if system == "rotating" else DirectState(0.0, v), cfg,
                    report=NormSpec(r=2.0, s=0, tau=0.1))
    arrays = (res.state.vbar, res.state.vplus, res.state.vminus) if system == "rotating" else (res.state.v,)
    return arrays, [vars(r) for r in res.rows]


def _bits(run):
    arrays, rows = run
    return [a.tobytes() for a in arrays], repr(rows)


class TestWorkspace:
    """The steppers keep their fields in one workspace per grid (`_workspace`)."""

    @pytest.mark.parametrize("system", ["rotating", "direct", "limit"])
    def test_runs_do_not_depend_on_earlier_runs(self, system):
        """A run is the same bit for bit in a fresh workspace and in one that
        other runs left dirty: another state of the same system, each other
        system on the same grid, and then every byte set to NaN."""
        from rotape.spectral import _workspace

        grid = GridSpec(nh=24, nz=12)
        _workspace.cache_clear()
        first = _bits(_run(system, grid, seed=1))
        _run(system, grid, seed=2)
        for other in {"rotating", "direct", "limit"} - {system}:
            _run(other, grid, seed=3)
        assert _bits(_run(system, grid, seed=1)) == first
        _workspace(grid)._arena.fill(0xFF)
        assert _bits(_run(system, grid, seed=1)) == first

    def test_lemma_checks_do_not_depend_on_the_arena(self):
        """The lemma checks keep their stacks in the same workspace: the
        ratios of run_ensemble, and of check on one draw zero-padded from
        (32, 8) to (64, 8), are the same to the last digit in a fresh
        workspace, in one that the earlier checks left dirty, and in one
        whose every byte was set to 0xFF."""
        from rotape.lemmas import LemmaKind, check, ensemble_fields, ensemble_parameters, run_ensemble
        from rotape.spectral import SpectralField, _workspace

        coarse, fine = GridSpec(nh=32, nz=8), GridSpec(nh=64, nz=8)

        def padded(f, grid):
            if f is None or grid == f.grid:
                return f
            n = np.rint(np.fft.fftfreq(f.grid.nh) * f.grid.nh).astype(int) % grid.nh
            out = np.zeros((f.components, *grid.shape), dtype=np.complex128)
            out[:, n[:, None], n[None, :], :] = f.coeffs
            return SpectralField(grid, out, f.basis)

        def ratios():
            got = []
            for kind in LemmaKind:
                r, tau, tau_gen, eta_gen = ensemble_parameters(kind)
                fields = ensemble_fields(kind, coarse, np.random.default_rng(4), tau_gen, eta_gen)
                for grid in (coarse, fine):
                    got += [repr(c.ratio) for c in run_ensemble(kind, grid, n_samples=3, seed=4)]
                    got.append(repr(check(kind, *(padded(x, grid) for x in fields), r, tau).ratio))
            return got

        _workspace.cache_clear()
        first = ratios()
        assert ratios() == first
        for grid in (coarse, fine):
            _workspace(grid)._arena.fill(0xFF)
        assert ratios() == first
        _workspace.cache_clear()
        assert ratios() == first

    @pytest.mark.parametrize("system", ["rotating", "direct", "limit", "2d"])
    @pytest.mark.parametrize("nh, nz", [(24, 12), (32, 16)])
    def test_warmed_step_allocates_less_than_one_field(self, system, nh, nz):
        """A warmed RK4-IF step allocates, at its traced peak, less than one
        full-grid complex field (nh^2 nz 16 bytes; nh nz 16 bytes on the 2D
        system's x-z layout): its fields live in the workspace, and what it
        returns is band-sized.  numpy's ufuncs take scratch of their own, up
        to `bufsize` elements per operand whatever the grid, so the measured
        step runs with a small bufsize and the peak counts arrays: 256
        elements, and numpy's smallest, 16, for the x-z layout, whose whole
        field is about 256 elements at (24, 12)."""
        import tracemalloc

        from rotape.initial_data import well_prepared_state
        from rotape.limit_solver import LimitState, _advance as limit_advance, _pack as limit_pack
        from rotape.limit_solver import vorticity_from_velocity

        grid = GridSpec(nh=nh, nz=nz)
        rng = np.random.default_rng(7)
        field, small = nh * nh * nz * 16, 256
        if system == "limit":
            vbar, vt = well_prepared_state(grid, rng, tau0=0.4, eta0=0.3)
            arrs = limit_pack(LimitState(0.0, vorticity_from_velocity(vbar, grid), vt.coeffs), grid)

            def advance(a):
                return limit_advance(a, 0.0, grid, 0.1, 1e-3)
        elif system == "2d":
            arrs = (band_pack(random_scalar_2d(grid, rng, tau=0.4, eta=0.3), grid),)
            field, small = nh * nz * 16, 16

            def advance(a):
                return _advance_2d(a, 0.0, grid, 0.1, 1e-3)
        else:
            cfg = cfg_for(grid=grid, formulation=system)
            v = make_state(rng, grid=grid).v
            arrs = _pack(rotating_from_direct(v, 0.0, cfg.omega) if system == "rotating" else DirectState(0.0, v),
                         cfg)

            def advance(a):
                return _advance(a, 0.0, cfg, True)[0]

        arrs = advance(advance(arrs))
        tracing = tracemalloc.is_tracing()
        bufsize = np.setbufsize(small)
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            arrs = advance(arrs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < field

    @pytest.mark.parametrize("kind", ["banach_algebra", "type1", "type2", "type3", "diff_type1", "diff_type2",
                                      "diff_type4"])
    def test_warmed_lemma_ensemble_allocates_less_than_one_field(self, kind):
        """A warmed run_ensemble of two samples at (64, 8) allocates, at its
        traced peak, less than one full-layout complex 2-vector
        (2 nh^2 nz 16 bytes = 1 MiB): the inputs, transforms, inner products
        and vertical series of its checks live in the lemma layout, and the
        inner products reduce on the packed band.  Run with a small bufsize,
        as the steps are (numpy's ufunc scratch)."""
        import tracemalloc

        from rotape.lemmas import run_ensemble

        grid = GridSpec(nh=64, nz=8)
        run_ensemble(kind, grid, n_samples=2)
        tracing = tracemalloc.is_tracing()
        bufsize = np.setbufsize(256)
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_ensemble(kind, grid, n_samples=2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < 2 * grid.nh * grid.nh * grid.nz * 16

    def test_rotating_rhs_is_its_written_formula_at_every_size(self, rng):
        """At (32, 16) every physical field is 256 KiB, where numpy evaluates
        a product with a temporary operand in that temporary, which swaps the
        operands of a complex product (not bitwise commutative).  The rotating
        tendency is bit for bit its formula written with named operands."""
        from rotape.pe_solver import _fwd_baroclinic, _grad_stack, _plus_values
        from rotape.spectral import barotropic_values

        grid = GridSpec(nh=32, nz=16)
        cfg = cfg_for(grid=grid, omega=7.0)
        t = 0.3
        st = rotating_from_direct(make_state(rng, grid=grid).v, t, cfg.omega)
        phi = band_pack(st.vplus[0:1], grid)
        p, px, py, dz, intp = (a.copy() for a in _plus_values(phi, grid))
        pm, intm = np.conj(p), np.conj(intp)
        bar = barotropic_values(_grad_stack(st.vbar[..., None], grid)[..., 0], grid)
        vb, gx, gy = bar[0:2, ..., None], bar[2:4], bar[4:6]
        cplus = ((gx[0] + gy[1]) + 1j * (gy[0] - gx[1]))[..., None]
        cminus = ((gx[0] - gy[1]) - 1j * (gx[1] + gy[0]))[..., None]
        ep, em = np.exp(1j * cfg.omega * t), np.exp(-1j * cfg.omega * t)
        div_plus = px + 1j * py
        selfadv = p * div_plus
        inner = selfadv - intp * dz
        half_p = 0.5 * p
        barotropic = vb[0] * px + vb[1] * py + half_p * cplus
        cross_grad = px - 1j * py
        cross = pm * cross_grad - intm * dz
        coupling = pm * cminus
        weight = em * em * 0.5
        groups = [ep * inner, barotropic, em * cross, weight * coupling]
        expect = -_fwd_baroclinic((groups[0] + groups[1] + groups[2] + groups[3])[None], grid)
        got = rhs_rotating((st.vbar, phi), t, cfg)[1]
        assert got.tobytes() == expect.tobytes()

    def test_named_bad_term_groups_are_the_steps_at_every_size(self, rng):
        """The slow path that names a non-finite tendency group checks the
        groups that the step's assembly (`_plus_groups`) hands to its check:
        the step's four groups, prefactors included, bit for bit at (32, 16),
        where numpy would evaluate a product with a temporary operand of
        256 KiB in that temporary, with its operands swapped."""
        from rotape.pe_solver import _grad_stack, _plus_groups, _plus_values
        from rotape.spectral import barotropic_values

        grid = GridSpec(nh=32, nz=16)
        omega, t = 7.0, 0.3
        st = rotating_from_direct(make_state(rng, grid=grid).v, t, omega)
        p, px, py, dz, intp = (a.copy() for a in _plus_values(band_pack(st.vplus[0:1], grid), grid))
        pm, intm = np.conj(p), np.conj(intp)
        bar = barotropic_values(_grad_stack(st.vbar[..., None], grid)[..., 0], grid)
        vb, gx, gy = bar[0:2, ..., None], bar[2:4], bar[4:6]
        cplus = ((gx[0] + gy[1]) + 1j * (gy[0] - gx[1]))[..., None]
        cminus = ((gx[0] - gy[1]) - 1j * (gx[1] + gy[0]))[..., None]
        ep, em = np.exp(1j * omega * t), np.exp(-1j * omega * t)
        div_plus = px + 1j * py
        selfadv = p * div_plus
        inner = selfadv - intp * dz
        half_p = 0.5 * p
        barotropic = vb[0] * px + vb[1] * py + half_p * cplus
        cross_grad = px - 1j * py
        cross = pm * cross_grad - intm * dz
        coupling = pm * cminus
        weight = em * em * 0.5
        expect = {"plus_self": np.multiply(ep, inner), "plus_barotropic": barotropic,
                  "plus_cross": np.multiply(em, cross), "plus_conjugate_coupling": np.multiply(weight, coupling)}
        seen = {}
        _plus_groups(tuple(a.copy() for a in (p, px, py, dz, intp)), vb, cplus, cminus, ep, em,
                     np.empty((3, *p.shape), dtype=np.complex128),
                     check=lambda name, arr: seen.setdefault(name, arr.copy()))
        assert list(seen) == list(expect)
        for name, arr in expect.items():
            assert seen[name].tobytes() == arr.tobytes(), name


# the digests that a child process with a perturbing allocator must reproduce
_DIGESTS = """
import hashlib, tempfile
from pathlib import Path
import numpy as np
from rotape.config import RunConfig
from rotape.grid import GridSpec
from rotape.initial_data import random_state
from rotape.pe_solver import SolverConfig, integrate, rotating_from_direct
from rotape.scenarios import formulation_equivalence


def digests():
    cfg = RunConfig()  # criterion 15's run
    cfg.grid = GridSpec(nh=16, nz=8)
    cfg.nu, cfg.omega, cfg.dt, cfg.t_end = 0.2, 3.0, 2e-3, 0.05
    cfg.init.seed = 9
    with tempfile.TemporaryDirectory() as tmp:
        formulation_equivalence(cfg, Path(tmp) / "run")
        csv = (Path(tmp) / "run" / "diagnostics.csv").read_bytes()
    grid = GridSpec(nh=32, nz=16)
    vbar, vt = random_state(grid, np.random.default_rng(15), tau0=0.5, eta0=0.3, amplitude=0.8)
    v0 = vt.coeffs.copy()
    v0[..., 0] += vbar
    scfg = SolverConfig(nu=0.1, omega=5.0, grid=grid, dt=1e-3, t_end=4e-3)
    state = integrate(rotating_from_direct(v0, 0.0, 5.0), scfg).state
    return {"diagnostics.csv": hashlib.sha256(csv).hexdigest(),
            "state": hashlib.sha256(state.vbar.tobytes() + state.vplus.tobytes()).hexdigest()}
"""


@pytest.mark.parametrize("blas", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["inherited", "blas2"])
def test_outputs_do_not_depend_on_the_allocator(blas):
    """A child process whose allocator fills every block it hands out or takes
    back with a byte pattern (glibc's MALLOC_PERTURB_), and serves large
    blocks from the heap (a raised MALLOC_MMAP_THRESHOLD_), writes the same
    bytes as this process: criterion 15's diagnostics.csv and the final state
    of a rotating (32, 16) run.  A buffer read before it is written would
    differ there.  The child runs with this process's environment, in which
    importing rotape loads numpy with one BLAS thread, and with a caller's
    two, so the bytes also do not depend on the BLAS thread count."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rotape

    env = dict(os.environ, **blas, MALLOC_PERTURB_="165", MALLOC_MMAP_THRESHOLD_=str(1 << 24),
               PYTHONPATH=os.pathsep.join([str(Path(rotape.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _DIGESTS + "\nimport json\nprint(json.dumps(digests()))"],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
    here = {}
    exec(_DIGESTS, here)
    assert json.loads(child.stdout.splitlines()[-1]) == here["digests"]()
