"""Closed-form evaluators, tau ODE tracking, and perturbation diagnostics."""

import math

import numpy as np
import pytest

from rotape.theory import (
    TheoryConstants,
    euler_growth_theta,
    lifespan_local,
    lifespan_local_residual,
    lifespan_main,
    lifespan_small_barotropic,
    tau_T_radius,
    tau_T_radius_residual,
    tau_ode_local,
    threshold_2d,
)


class TestTauOde:
    def test_zero_solution_linear_decay(self):
        times = np.linspace(0, 0.4, 41)
        taus, crossed = tau_ode_local(times, lambda t, tau: (0.0, 0.0), c_r=1.0, tau0=1.0)
        assert np.abs(taus - (1.0 - times)).max() < 1e-12
        assert crossed is None

    def test_constant_norms_closed_form(self):
        a, b, c_r, tau0 = 0.7, 0.3, 2.0, 1.5
        times = np.linspace(0, 0.3, 31)
        taus, _ = tau_ode_local(times, lambda t, tau: (a, b), c_r=c_r, tau0=tau0)
        expect = tau0 - (1.0 + c_r * (a + b)) * times
        assert np.abs(taus - expect).max() < 1e-12

    def test_crossing_detected(self):
        times = np.linspace(0, 2.0, 201)
        taus, crossed = tau_ode_local(times, lambda t, tau: (1.0, 1.0), c_r=1.0, tau0=0.5)
        # tau' = -3: crossing at 1/6
        assert crossed == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert taus[-1] == 0.0

    def test_nan_rate_stops_the_tracker_as_failed(self):
        """A NaN rate fails the tracker, which is not a crossing: it stops and
        evaluates no further norms."""
        from rotape.theory import TauTracker, local_rate

        tracker = TauTracker(0.5, local_rate(1.0))
        tracker.step(0.01, lambda tau: (0.0, 0.0))
        tracker.step(0.01, lambda tau: (float("nan"), 0.0))
        assert not tracker.alive
        assert tracker.failed_at == 0.01 and tracker.crossed_at is None
        assert math.isnan(tracker.tau)
        seen = []
        tracker.step(0.01, lambda tau: seen.append(tau) or (0.0, 0.0))
        assert seen == [] and tracker.t == 0.02

    def test_nan_rate_evaluates_no_norm_at_a_nan_radius(self):
        """A NaN first-stage rate fails the step before the second stage, whose
        NormSpec at a NaN radius would raise."""
        from rotape.theory import TauTracker, local_rate

        tracker = TauTracker(0.5, local_rate(1.0))
        seen = []
        tracker.step(0.01, lambda tau: seen.append(tau) or (float("nan"), 0.0))
        assert seen == [0.5] and tracker.failed_at == 0.0
        with pytest.raises(ValueError, match="tau0"):
            TauTracker(float("nan"), local_rate(1.0))

    def test_nonincreasing_for_nonnegative_norms(self, rng):
        times = np.linspace(0, 0.5, 64)

        def norms(t, tau):
            return (abs(math.sin(20 * t)), abs(math.cos(13 * t)))

        taus, _ = tau_ode_local(times, norms, c_r=0.7, tau0=1.0)
        assert all(b <= a + 1e-14 for a, b in zip(taus, taus[1:]))


class TestLifespanLocal:
    def test_m_zero_gives_half_tau0(self):
        assert lifespan_local(0.0, 1.2, 0.5, 1.0) == pytest.approx(0.6, abs=1e-14)

    def test_back_substitution_residual(self):
        for m, tau0, nu, cr in [(0.5, 1.0, 0.1, 1.0), (3.0, 0.4, 2.0, 0.7), (10.0, 2.0, 0.01, 3.0)]:
            t = lifespan_local(m, tau0, nu, cr)
            assert abs(lifespan_local_residual(t, m, tau0, nu, cr)) < 1e-12

    def test_monotone_decreasing_in_m_and_inv_nu(self):
        ms = np.linspace(0.0, 5.0, 21)
        ts = [lifespan_local(m, 1.0, 0.5, 1.0) for m in ms]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        nus = np.linspace(0.05, 2.0, 21)
        ts = [lifespan_local(1.0, 1.0, nu, 1.0) for nu in nus]
        assert all(b > a for a, b in zip(ts, ts[1:]))  # decreasing in 1/nu


class TestTauTRadius:
    def test_zero_data_guarded_infinite(self):
        tau_lb, t_star, eta = tau_T_radius(0.0, 0.5, 1.0, 1.0)
        assert t_star == math.inf
        assert tau_lb(3.0) == pytest.approx(1.0)
        assert eta(2.0) == pytest.approx(0.5)

    def test_self_consistency(self):
        for e0, nu, tau0, cr in [(1.0, 0.5, 1.0, 1.0), (4.0, 0.1, 0.3, 2.0)]:
            tau_lb, t_star, _ = tau_T_radius(e0, nu, tau0, cr)
            assert abs(tau_T_radius_residual(t_star, e0, nu, tau0, cr)) < 1e-12
            assert tau_lb(t_star) == pytest.approx(tau0 / 2.0, abs=1e-12)

    def test_decreasing_in_e0(self):
        ts = [tau_T_radius(e0, 0.5, 1.0, 1.0)[1] for e0 in np.linspace(0.1, 5.0, 20)]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_eta_slope(self):
        _, _, eta = tau_T_radius(1.0, 0.8, 1.0, 1.0)
        assert eta(1.0) == pytest.approx(0.4)


class TestLifespanMain:
    def test_monotone_in_omega(self):
        omegas = np.logspace(7, 40, 20)
        ts = [lifespan_main(om).value for om in omegas]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_grows_unboundedly(self):
        t40 = lifespan_main(1e40)
        t400 = lifespan_main(1e400)
        assert t400.value > t40.value > 0.0
        assert not t40.below_threshold

    def test_below_threshold_flag(self):
        res = lifespan_main(100.0)
        assert res.value == 0.0
        assert res.below_threshold

    def test_dominated_by_case3(self):
        for om in np.logspace(7, 30, 8):
            main = lifespan_main(om).value
            c3 = lifespan_small_barotropic(3, om).value
            if main > 0 and c3 > 0:
                assert c3 > main


class TestSmallBarotropic:
    def test_case_ordering_at_1e6(self):
        t1 = lifespan_small_barotropic(1, 1e6).value
        t2 = lifespan_small_barotropic(2, 1e6).value
        t3 = lifespan_small_barotropic(3, 1e6).value
        assert t3 > t2 > t1 > 0
        assert t3 == pytest.approx(1000.0)
        assert t2 == pytest.approx(math.log(1e6))
        assert t1 == pytest.approx(math.log(math.log(1e6)))

    def test_case3_sqrt_scaling(self):
        t1 = lifespan_small_barotropic(3, 2.5e5).value
        t4 = lifespan_small_barotropic(3, 1e6).value
        assert t4 / t1 == pytest.approx(2.0, rel=1e-12)

    def test_below_threshold(self):
        assert lifespan_small_barotropic(1, 0.5).below_threshold
        assert lifespan_small_barotropic(1, 0.5).value == 0.0

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError):
            lifespan_small_barotropic(4, 1e6)


class TestThreshold2D:
    def test_linear_in_nu(self):
        assert threshold_2d(2.0, 1.0, 1.0) == pytest.approx(2 * threshold_2d(1.0, 1.0, 1.0))

    def test_zero_tau0(self):
        assert threshold_2d(1.0, 0.0, 1.0) == 0.0


class TestEulerGrowth:
    def test_t_zero(self):
        assert euler_growth_theta(2.0, 1.0, 0.0) == pytest.approx(2.0 + math.e)
        assert euler_growth_theta(0.0, 1.0, 0.0) == pytest.approx(math.e)

    def test_double_exponential(self):
        m, cr = 1.5, 0.7
        assert euler_growth_theta(m, cr, 1.0) == pytest.approx((m + math.e) ** math.exp(cr))

    def test_k_growth_envelope(self):
        from rotape.theory import k_growth

        c = TheoryConstants()
        assert k_growth(0.0, c) == pytest.approx(c.c_m)
        ts = np.linspace(0.0, 2.0, 9)
        vals = k_growth(ts, c)
        assert np.all(np.diff(vals) > 0)


class TestConstants:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            TheoryConstants(c_r=0.0)

    def test_defaults(self):
        c = TheoryConstants()
        assert c.c_r == 1.0
        assert c.c_m > 1.0


class TestTauAlongRun:
    def test_tracked_tau_dominates_closed_form_bound(self):
        # along a resolved run, the ODE-tracked radius stays above the
        # closed-form lower bound evaluated with the initial norm
        from rotape.grid import GridSpec
        from rotape.initial_data import random_state
        from rotape.norms import NormSpec, norm_rst
        from rotape.pe_solver import SolverConfig, integrate, rotating_from_direct
        from rotape.spectral import COS, SpectralField
        from rotape.theory import tau_lower_bound_local

        grid = GridSpec(nh=16, nz=8)
        rng = np.random.default_rng(31)
        vbar, vt = random_state(grid, rng, tau0=0.8, eta0=0.4, amplitude=0.05)
        v0 = vt.coeffs.copy()
        v0[..., 0] += vbar
        nu, c_r, tau0 = 0.4, 1.0, 0.3
        norm0 = norm_rst(SpectralField(grid, v0, COS), NormSpec(r=1.5, s=0, tau=tau0))
        cfg = SolverConfig(nu=nu, omega=2.0, grid=grid, dt=5e-4, t_end=0.05)
        from rotape.theory import TauTracker, local_rate

        tracker = TauTracker(tau0, local_rate(c_r))
        rows = []
        integrate(rotating_from_direct(v0, 0.0, cfg.omega), cfg,
                  report=NormSpec(r=1.5, s=0, tau=tau0), tau_tracker=tracker,
                  observer=rows.append)
        for row in rows:
            if row.tau_tracked > 0:
                bound = tau_lower_bound_local(row.t, norm0, tau0, nu, c_r)
                assert row.tau_tracked >= bound - 1e-9


class TestPerturbationDiagnostics:
    def test_identical_trajectories_give_zero(self, rng):
        from rotape.grid import GridSpec
        from rotape.initial_data import random_state
        from rotape.pe_solver import RotatingState
        from rotape.theory import perturbation_diagnostics

        grid = GridSpec(nh=16, nz=8)
        vbar, vt = random_state(grid, rng)
        vperp = np.concatenate([-vt.coeffs[1:2], vt.coeffs[0:1]], axis=0)
        vp = 0.5 * (vt.coeffs + 1j * vperp)
        vm = 0.5 * (vt.coeffs - 1j * vperp)
        pe = [RotatingState(0.0, vbar, vp, vm)]
        lim = [(0.0, vbar, vt.coeffs)]
        series = perturbation_diagnostics(pe, lim, grid, omega=10.0, r=2.0, taus=0.1)
        assert series.f[0] == pytest.approx(0.0, abs=1e-20)
        assert series.g[0] == pytest.approx(0.0, abs=1e-20)
        assert series.h[0] == pytest.approx(0.0, abs=1e-20)
        assert series.k[0] > 0.0

    @staticmethod
    def _two_sided(ps, lim_vbar, lim_vt, grid, r, tau):
        """F, G, H, K with the V- perturbation and limit field evaluated on their own."""
        from rotape.norms import NormSpec, dz_l2_sq, norm_rst, seminorm_a_sq
        from rotape.spectral import SpectralField

        def barotropic_field(vbar, grid):
            """The compact (2, nh, nh) barotropic mode embedded at m = 0 of the 3-D layout."""
            out = np.zeros((2, *grid.shape), dtype=np.complex128)
            out[..., 0] = vbar
            return SpectralField(grid, out)

        vperp = np.concatenate([-lim_vt[1:2], lim_vt[0:1]], axis=0)
        lim_vp, lim_vm = 0.5 * (lim_vt + 1j * vperp), 0.5 * (lim_vt - 1j * vperp)
        phib = barotropic_field(ps.vbar - lim_vbar, grid)
        phis = (SpectralField(grid, ps.vplus - lim_vp), SpectralField(grid, ps.vminus - lim_vm))
        lims = (SpectralField(grid, lim_vp), SpectralField(grid, lim_vm))
        f = seminorm_a_sq(phib, r, tau) + sum(norm_rst(p, NormSpec(r=r, s=0, tau=tau)) ** 2 for p in phis)
        g = seminorm_a_sq(phib, r + 0.5, tau) + sum(seminorm_a_sq(p, r + 0.5, tau) for p in phis)
        h = sum(seminorm_a_sq(p, r, tau, s_order=1) + dz_l2_sq(p, s_order=1) for p in phis)
        k = norm_rst(barotropic_field(lim_vbar, grid), NormSpec(r=r + 2, s=0, tau=tau)) ** 2
        for lf in lims:
            k += norm_rst(lf, NormSpec(r=r + 2, s=0, tau=tau)) ** 2
            k += norm_rst(lf, NormSpec(r=r + 1, s=1, tau=tau)) ** 2
        return f, g, h, k

    def test_plus_terms_twice_match_two_sided(self, rng):
        from rotape.grid import GridSpec
        from rotape.initial_data import random_state, well_prepared_state
        from rotape.pe_solver import rotating_from_direct
        from rotape.theory import perturbation_diagnostics

        grid = GridSpec(nh=16, nz=8)
        vbar, vt = well_prepared_state(grid, rng, tau0=0.6, eta0=0.3, barotropic_amplitude=0.5)
        dbar, dvt = random_state(grid, rng, amplitude=0.05)
        v = vt.coeffs + dvt.coeffs
        v[..., 0] += vbar + dbar
        ps = rotating_from_direct(v, 0.2, 10.0)
        series = perturbation_diagnostics([ps], [(0.2, vbar, vt.coeffs)], grid, omega=10.0, r=2.0, taus=0.1)
        expect = self._two_sided(ps, vbar, vt.coeffs, grid, 2.0, 0.1)
        got = (series.f[0], series.g[0], series.h[0], series.k[0])
        for a, b in zip(got, expect):
            assert b > 0.0
            assert abs(a - b) <= 1e-13 * b

    def test_non_real_limit_field_rejected(self, rng):
        from rotape.grid import GridSpec
        from rotape.initial_data import random_state
        from rotape.pe_solver import RotatingState
        from rotape.theory import perturbation_diagnostics

        grid = GridSpec(nh=16, nz=8)
        vbar, vt = random_state(grid, rng)
        bad = vt.coeffs.copy()
        bad[0, 1, 0, 1] += 0.1j * np.abs(bad).max()
        pe = [RotatingState(0.0, vbar, np.zeros_like(bad))]
        with pytest.raises(ValueError, match="limit vtilde is not conjugate symmetric"):
            perturbation_diagnostics(pe, [(0.0, vbar, bad)], grid, omega=10.0, r=2.0, taus=0.1)
