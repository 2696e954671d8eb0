"""Limit resonant system: 2D Euler + linear transport/stretching/diffusion."""

import numpy as np
import pytest

from rotape.grid import GridSpec
from rotape.initial_data import random_scalar, random_vector
from rotape.limit_solver import (
    LimitState,
    euler2d_rhs,
    integrate_limit,
    limit_to_vpm,
    step_limit,
    transport_rhs,
    velocity_from_vorticity,
    vorticity_from_velocity,
)
from rotape.spectral import band_pack

GRID = GridSpec(nh=16, nz=8)


def random_vorticity(grid, rng, tau=0.5, amplitude=1.0):
    w = random_scalar(grid, rng, tau=tau, eta=0.0).coeffs[0, :, :, 0]
    w[0, 0] = 0.0
    cur = np.sqrt(np.sum(np.abs(w) ** 2))
    return w * (amplitude / cur)


class TestEuler2D:
    def test_zero(self):
        out = euler2d_rhs(np.zeros((16, 16), dtype=np.complex128), GRID)
        assert np.abs(out).max() == 0.0

    def test_shear_is_steady(self):
        # omega = cos(2 pi x): u = (0, u2(x)) and u . grad omega = u2 dy omega = 0
        w = np.zeros((16, 16), dtype=np.complex128)
        w[1, 0] = 0.5
        w[-1, 0] = 0.5
        out = euler2d_rhs(w, GRID)
        assert np.abs(out).max() < 1e-14

    def test_velocity_vorticity_round_trip(self, rng):
        w = random_vorticity(GRID, rng)
        v = velocity_from_vorticity(w, GRID)
        w2 = vorticity_from_velocity(v, GRID)
        assert np.abs(w2 - w).max() < 1e-12 * max(np.abs(w).max(), 1.0)

    def test_energy_enstrophy_conserved(self, rng):
        grid = GridSpec(nh=32, nz=4)
        w = random_vorticity(grid, rng, tau=0.6, amplitude=2.0)
        st = LimitState(0.0, w, np.zeros((2, *grid.shape), dtype=np.complex128))
        v0 = velocity_from_vorticity(w, grid)
        e0 = 0.5 * np.sum(np.abs(v0) ** 2)
        z0 = 0.5 * np.sum(np.abs(w) ** 2)
        for _ in range(200):
            st = step_limit(st, grid, nu=0.1, dt=5e-3)
        v1 = velocity_from_vorticity(st.omega_bar, grid)
        e1 = 0.5 * np.sum(np.abs(v1) ** 2)
        z1 = 0.5 * np.sum(np.abs(st.omega_bar) ** 2)
        assert abs(e1 - e0) < 1e-9 * e0
        assert abs(z1 - z0) < 1e-9 * z0

    def test_nonzero_mean_rejected(self):
        w = np.zeros((16, 16), dtype=np.complex128)
        w[0, 0] = 1.0
        with pytest.raises(ValueError):
            euler2d_rhs(w, GRID)


class TestTransport:
    def test_pure_heat_equation(self, rng):
        """With Vbar = 0 the transport tendency is zero, and the integrating
        factor alone evolves Vt: the heat equation's e^{-nu (m pi)^2 t}."""
        from rotape.grid import mpi

        vt = random_vector(GRID, rng, baroclinic=True)
        nu = 0.4
        zero = np.zeros((16, 16), dtype=np.complex128)
        assert not transport_rhs(band_pack(vt.coeffs, GRID), zero, GRID).any()
        st = LimitState(0.0, zero, vt.coeffs)
        for _ in range(10):
            st = step_limit(st, GRID, nu=nu, dt=0.02)
        expect = np.exp(-nu * mpi(GRID) ** 2 * 0.2) * vt.coeffs
        assert np.abs(st.vtilde - expect).max() < 1e-13
        assert not st.omega_bar.any()

    def test_zero_vtilde(self, rng):
        w = random_vorticity(GRID, rng)
        out = transport_rhs(band_pack(np.zeros((2, *GRID.shape), dtype=np.complex128), GRID), w, GRID)
        assert np.abs(out).max() == 0.0

    def test_stretching_growth_bound(self, rng):
        # with nu=0: d/dt ||Vt||^2 <= max|omega| ||Vt||^2 (stretching is the only source)
        grid = GRID
        w = random_vorticity(grid, rng, amplitude=3.0)
        vt = random_vector(grid, rng, baroclinic=True).coeffs
        st = LimitState(0.0, w, vt)
        dt = 2e-3
        prev = np.sum(np.abs(st.vtilde) ** 2)
        for _ in range(50):
            st = step_limit(st, grid, nu=1e-12, dt=dt)
            cur = np.sum(np.abs(st.vtilde) ** 2)
            womax = np.abs(np.fft.ifft2(st.omega_bar) * grid.nh**2).max()
            rate = (cur - prev) / dt
            assert rate <= womax * max(cur, prev) + 1e-7 * max(cur, prev)
            prev = cur

    def test_norm_preserving_translation(self, rng):
        # constant Vbar, omega = 0: plain advection preserves the L2 norm (nu=0)
        grid = GRID
        vt0 = random_vector(grid, rng, baroclinic=True).coeffs

        def rhs_const_advection(v):
            from rotape.grid import kx
            from rotape.spectral import COS, band_pack, band_unpack, coeffs_from_values, values_from_coeffs
            from rotape.grid import dealias_mask

            px = values_from_coeffs(band_pack(1j * kx(grid) * v, grid), grid, COS)
            out = band_unpack(coeffs_from_values(-0.7 * px, grid, COS), grid)
            return out * dealias_mask(grid)[None, ...]

        v = vt0.copy()
        dt = 2e-3
        for _ in range(100):
            k1 = rhs_const_advection(v)
            k2 = rhs_const_advection(v + 0.5 * dt * k1)
            k3 = rhs_const_advection(v + 0.5 * dt * k2)
            k4 = rhs_const_advection(v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        n0 = np.sum(np.abs(vt0) ** 2)
        n1 = np.sum(np.abs(v) ** 2)
        assert n1 <= n0 * (1 + 1e-10)
        assert n1 >= n0 * (1 - 1e-8)


class TestLimitIntegration:
    def test_zero_state_fixed_point(self):
        st = LimitState(
            0.0,
            np.zeros((16, 16), dtype=np.complex128),
            np.zeros((2, *GRID.shape), dtype=np.complex128),
        )
        out, diags, _ = integrate_limit(st, GRID, nu=0.2, dt=1e-2, t_end=0.1)
        assert np.abs(out.omega_bar).max() == 0.0
        assert np.abs(out.vtilde).max() == 0.0

    def test_t_end_off_the_step_grid_rejected(self):
        st = LimitState(
            0.0,
            np.zeros((16, 16), dtype=np.complex128),
            np.zeros((2, *GRID.shape), dtype=np.complex128),
        )
        with pytest.raises(ValueError, match=r"t_end \(0\.005\) must be a whole number of steps of dt \(0\.003\)"):
            integrate_limit(st, GRID, nu=0.2, dt=3e-3, t_end=0.005)
        out, diags, _ = integrate_limit(st, GRID, nu=0.2, dt=3e-3, t_end=0.006)
        assert len(diags) == 3 and out.t == pytest.approx(0.006)

    def test_steady_shear_stays_constant(self, rng):
        w = np.zeros((16, 16), dtype=np.complex128)
        w[1, 0] = 0.5
        w[-1, 0] = 0.5
        vt = random_vector(GRID, rng, baroclinic=True).coeffs * 0.1
        st = LimitState(0.0, w.copy(), vt)
        out, _, _ = integrate_limit(st, GRID, nu=0.2, dt=5e-3, t_end=0.5)
        assert np.abs(out.omega_bar - w).max() < 1e-12

    def test_viscous_envelope(self, rng):
        # Remark-level check: with Vbar == 0, ||Vt(t)||^2 e^{nu t} is nonincreasing
        vt = random_vector(GRID, rng, baroclinic=True).coeffs
        st = LimitState(0.0, np.zeros((16, 16), dtype=np.complex128), vt)
        nu = 0.8
        vals = []
        for i in range(40):
            vals.append(np.sum(np.abs(st.vtilde) ** 2) * np.exp(nu * st.t))
            st = step_limit(st, GRID, nu=nu, dt=5e-3)
        assert all(b <= a * (1 + 1e-10) for a, b in zip(vals, vals[1:]))

    def test_limit_to_vpm_roundtrip(self, rng):
        vt = random_vector(GRID, rng, baroclinic=True).coeffs
        vp, vm = limit_to_vpm(vt)
        assert np.abs(vp + vm - vt).max() < 1e-14
        # each carries half the energy
        assert abs(np.sum(np.abs(vp) ** 2) - 0.5 * np.sum(np.abs(vt) ** 2)) < 1e-12

    def test_gronwall_envelope_with_measured_k(self, rng):
        # ||Vt(t)||^2_{r,s,0} <= ||Vt0||^2 exp(int K ds) with K measured from
        # the run as the barotropic (r+1,0,0) norm (unit-constant surrogate)
        w = random_vorticity(GRID, rng, amplitude=2.0)
        vt = random_vector(GRID, rng, baroclinic=True).coeffs
        st = LimitState(0.0, w, vt)
        _, diags, _ = integrate_limit(st, GRID, nu=0.5, dt=4e-3, t_end=0.4)
        kint = 0.0
        n0sq = diags[0].vtilde_sobolev ** 2
        for prev, cur in zip(diags[:-1], diags[1:]):
            kint += 0.5 * (prev.vbar_sobolev + cur.vbar_sobolev) * (cur.t - prev.t)
            assert cur.vtilde_sobolev ** 2 <= n0sq * np.exp(kint) * (1 + 1e-9)

    def test_diagnostics_norms_present(self, rng):
        w = random_vorticity(GRID, rng, amplitude=1.0)
        vt = random_vector(GRID, rng, baroclinic=True).coeffs
        st = LimitState(0.0, w, vt)
        _, diags, _ = integrate_limit(st, GRID, nu=0.3, dt=5e-3, t_end=0.1)
        assert all(d.vbar_sobolev > 0 for d in diags)
        assert all(d.vtilde_sobolev > 0 for d in diags)


@pytest.mark.parametrize(
    "given, name",
    [
        ({"dt": -1e-3, "t_end": -2e-3}, "dt"),
        ({"nu": -1.0}, "nu"),
        ({"dt": 0.0}, "dt"),
        ({"nu": float("nan")}, "nu"),
        ({"t_end": float("inf")}, "t_end"),
        ({"dt": float("nan")}, "dt"),
        ({"t_end": -2e-3}, "t_end"),
    ],
    ids=["backwards", "negative_nu", "zero_dt", "nan_nu", "inf_t_end", "nan_dt", "negative_t_end"],
)
def test_limit_system_rejects_what_solver_config_rejects(rng, given, name):
    """integrate_limit and step_limit apply SolverConfig's rules to nu, dt and
    t_end (finite; nu > 0, dt > 0, t_end >= 0), and the ValueError names the
    argument, as SolverConfig's does."""
    from rotape.pe_solver import SolverConfig

    args = {"nu": 0.2, "dt": 1e-3, "t_end": 2e-3, **given}
    st = LimitState(0.0, random_vorticity(GRID, rng), random_vector(GRID, rng, baroclinic=True).coeffs)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        SolverConfig(omega=0.0, grid=GRID, **args)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        integrate_limit(st, GRID, **args)
    if name != "t_end":
        with pytest.raises(ValueError, match=f"^{name} must be"):
            step_limit(st, GRID, nu=args["nu"], dt=args["dt"])
