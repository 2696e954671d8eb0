"""Closed-form evaluators and ODE trackers for the radius/lifespan theory.

Every non-explicit constant is a configuration input (default 1, except the
base of the double-exponential Euler envelope which must exceed 1).  The
closed forms are exposed for self-consistency and monotonicity testing; they
are never asserted quantitatively against simulation times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TheoryConstants:
    """Named generic constants; all must be positive."""

    c_r: float = 1.0          # the generic C_r of the local theory
    c_m: float = math.e       # base constant of the 2D Euler growth envelope (> 1)
    c_r_a: float = 1.0        # analytic-estimate constant of the limit system
    c_r_s: float = 1.0        # Sobolev-estimate constant of the limit system
    c_main: float = 1.0       # C_{tau0, M, r} of the long-time theorem
    c_main_nu: float = 1.0    # C_{tau0, M, r, nu} of the long-time theorem

    def __post_init__(self):
        for name in ("c_r", "c_m", "c_r_a", "c_r_s", "c_main", "c_main_nu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LifespanResult:
    value: float
    below_threshold: bool = False

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# tau ODE trackers
# ---------------------------------------------------------------------------

class TauTracker:
    """Heun (trapezoidal) integrator for a radius ODE tau' = rate(norms(tau)).

    `step(dt, norms_at)` advances one solver step; norms_at(tau) returns the
    tuple of norms the rate function consumes, evaluated at the current
    radius.  Crossing tau <= 0 freezes the tracker and records the time in
    `crossed_at`.  A NaN rate stops it as failed instead: tau becomes NaN and
    `failed_at` records the start of that step.  No norm is evaluated at a
    NaN radius: a NaN first-stage rate fails the step at once.
    """

    def __init__(self, tau0: float, rate, t0: float = 0.0):
        if not tau0 > 0:
            raise ValueError("tau0 must be positive")
        self.tau = float(tau0)
        self.t = float(t0)
        self.rate = rate
        self.crossed_at: float | None = None
        self.failed_at: float | None = None

    @property
    def alive(self) -> bool:
        return self.crossed_at is None and self.failed_at is None

    def step(self, dt: float, norms_at) -> float:
        if not self.alive:
            return self.tau
        r0 = self.rate(norms_at(self.tau))
        pred = self.tau + dt * r0
        new = pred if math.isnan(pred) else self.tau + 0.5 * dt * (r0 + self.rate(norms_at(max(pred, 0.0))))
        if math.isnan(new):
            self.failed_at = self.t
        elif new <= 0.0:
            frac = self.tau / max(self.tau - new, 1e-300)
            self.crossed_at = self.t + frac * dt
            new = 0.0
        self.t += dt
        self.tau = new
        return self.tau


def local_rate(c_r: float):
    """tau' = -1 - C_r (||V||_{r,0,tau} + ||dz V||_{r,0,tau})."""

    def rate(norms):
        n0, n1 = norms
        return -1.0 - c_r * (n0 + n1)

    return rate


def decay_2d_rate(c_r: float):
    """tau' = -C_r ||dz u||_{r,0,tau} (global 2D decay tracking)."""

    def rate(norms):
        _, n1 = norms
        return -c_r * n1

    return rate


def tau_ode_local(times, norm_fn, c_r: float, tau0: float):
    """Integrate the local tau ODE over a time grid.

    norm_fn(t, tau) -> (||V||_{r,0,tau}, ||dz V||_{r,0,tau}).  Returns
    (taus, crossing_time); taus holds 0 after a crossing.
    """
    times = np.asarray(times, dtype=float)
    tracker = TauTracker(tau0, local_rate(c_r), t0=times[0])
    taus = [tracker.tau]
    for told, tnew in zip(times[:-1], times[1:]):
        dt = tnew - told

        def norms_at(tau, _t=told):
            return norm_fn(_t, tau)

        tracker.step(dt, norms_at)
        taus.append(tracker.tau)
    return np.asarray(taus), tracker.crossed_at


# ---------------------------------------------------------------------------
# closed-form lifespans and thresholds
# ---------------------------------------------------------------------------

def lifespan_local(norm0: float, tau0: float, nu: float, c_r: float) -> float:
    """Existence-time from analytic-in-x data: the time where the radius
    lower bound tau0 - (1 + C_r M) t - (C_r/sqrt(2 nu)) M sqrt(t) reaches tau0/2."""
    if tau0 <= 0 or nu <= 0 or c_r <= 0 or norm0 < 0:
        raise ValueError("inputs must be positive (norm0 >= 0)")
    a = 1.0 + c_r * norm0
    b = c_r * norm0 / math.sqrt(2.0 * nu)
    x = (math.sqrt(b * b + 2.0 * tau0 * a) - b) / (2.0 * a)
    return x * x


def lifespan_local_residual(t: float, norm0: float, tau0: float, nu: float, c_r: float) -> float:
    """Back-substitution residual of the defining equation at T = t."""
    a = 1.0 + c_r * norm0
    b = c_r * norm0 / math.sqrt(2.0 * nu)
    return a * t + b * math.sqrt(t) - tau0 / 2.0


def tau_lower_bound_local(t, norm0: float, tau0: float, nu: float, c_r: float):
    t = np.asarray(t, dtype=float)
    return tau0 - (1.0 + c_r * norm0) * t - (c_r / np.sqrt(2.0 * nu)) * norm0 * np.sqrt(t)


def tau_T_radius(e0: float, nu: float, tau0: float, c_r: float):
    """Radius evolution of the vertical-gain theorem.

    Returns (tau_lb, T, eta_of_t): tau_lb(t) is the closed-form lower bound
    tau0 - C_r (sqrt(E0)(t + sqrt(2 t / nu)) + E0 t / nu); T solves
    tau_lb(T) = tau0/2 (guarded +inf for E0 = 0); eta_of_t(t) = nu t / 2.
    """
    if tau0 <= 0 or nu <= 0 or c_r <= 0 or e0 < 0:
        raise ValueError("inputs must be positive (e0 >= 0)")
    b = math.sqrt(e0)

    def tau_lb(t):
        t = np.asarray(t, dtype=float)
        return tau0 - c_r * (b * (t + np.sqrt(2.0 * t / nu)) + e0 * t / nu)

    def eta_of_t(t):
        return nu * np.asarray(t, dtype=float) / 2.0

    if e0 == 0.0:
        return tau_lb, math.inf, eta_of_t
    aa = b + e0 / nu
    bb = b * math.sqrt(2.0 / nu)
    cc = tau0 / (2.0 * c_r)
    x = (math.sqrt(bb * bb + 4.0 * aa * cc) - bb) / (2.0 * aa)
    return tau_lb, x * x, eta_of_t


def tau_T_radius_residual(t: float, e0: float, nu: float, tau0: float, c_r: float) -> float:
    b = math.sqrt(e0)
    return b * (t + math.sqrt(2.0 * t / nu)) + e0 * t / nu - tau0 / (2.0 * c_r)


def lifespan_main(
    omega0: float,
    tau0: float = 1.0,
    m_bound: float = 1.0,
    nu: float = 1.0,
    constants: TheoryConstants = TheoryConstants(),
) -> LifespanResult:
    """Fast-rotation lifespan, the quadruple-log law T ~ log log log log |Omega0|.

    tau0, m_bound and nu enter only through the configured constants; the
    guard returns 0 with a threshold flag whenever an inner log is
    non-positive or the final value would be negative.
    """
    c1, c2 = constants.c_main, constants.c_main_nu
    omega0 = abs(omega0)
    if omega0 <= 1.0:
        return LifespanResult(0.0, True)
    y = c2 * math.log(c2 * omega0)
    if y <= 0.0:
        return LifespanResult(0.0, True)
    y = math.log(y)
    if y <= 0.0:
        return LifespanResult(0.0, True)
    y = math.log(y)
    if y <= 0.0:
        return LifespanResult(0.0, True)
    t = math.log(y) / c1
    if t <= 0.0:
        return LifespanResult(0.0, True)
    return LifespanResult(t, False)


def lifespan_small_barotropic(
    case: int, omega0: float, constants: TheoryConstants = TheoryConstants()
) -> LifespanResult:
    """Improved lifespans under barotropic smallness: case 1 log log, case 2 log,
    case 3 sqrt."""
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2, or 3")
    c = constants.c_main_nu
    omega0 = abs(omega0)
    if omega0 <= 1.0:
        return LifespanResult(0.0, True)
    if case == 3:
        return LifespanResult(math.sqrt(omega0) / c, False)
    y = math.log(omega0)
    if case == 2:
        return LifespanResult(y / c, False)
    if y <= 0.0:
        return LifespanResult(0.0, True)
    t = math.log(y) / c
    if t <= 0.0:
        return LifespanResult(0.0, True)
    return LifespanResult(t, False)


def threshold_2d(nu: float, tau0: float, c_r: float) -> float:
    """Smallness threshold nu tau0 / C_r for global 2D decay."""
    if nu <= 0 or tau0 < 0 or c_r <= 0:
        raise ValueError("nu, c_r must be positive and tau0 nonnegative")
    return nu * tau0 / c_r


def euler_growth_theta(m_bound: float, c_r: float, t: float) -> float:
    """(M + e)^{exp(C_r t)}: the double-exponential 2D Euler Sobolev envelope."""
    return (m_bound + math.e) ** math.exp(c_r * t)


def k_growth(t, constants: TheoryConstants = TheoryConstants()):
    """K(t) = C_M^{exp(C_r t)} envelope of the limit system (qualitative only)."""
    t = np.asarray(t, dtype=float)
    return constants.c_m ** np.exp(constants.c_r * t)


# ---------------------------------------------------------------------------
# perturbation quantities F, G, H, K of the fast-rotation comparison
# ---------------------------------------------------------------------------

@dataclass
class PerturbationSeries:
    t: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray


def perturbation_diagnostics(pe_states, limit_states, grid, omega, r: float, taus) -> PerturbationSeries:
    """F, G, H, K series comparing a PE trajectory to the limit-system one.

    pe_states: RotatingState sequence; limit_states: (t, vbar2d, vtilde_coeffs)
    triples or LimitState objects at the same times; taus: radius used in the
    analytic weights (scalar or per-time array).

    For a real state and a real limit field the V- perturbation and limit
    field are the conjugate partners of the V+ ones, with equal norms, so
    each V+ term is counted twice.  A limit Vt that is not real is rejected.
    Each field's norms are read from one shell-power table; the barotropic
    ones from the compact (2, nh, nh) layout.
    """
    from .decomposition import plus_projection, velocity_from_vorticity
    from .limit_solver import LimitState
    from .norms import NormSpec, ShellPower, norm_rst, seminorm_a_sq, dz_l2_sq
    from .spectral import require_real

    taus = np.broadcast_to(np.asarray(taus, dtype=float), (len(pe_states),))
    ts, fs, gs, hs, ks = [], [], [], [], []
    for idx, (ps, ls) in enumerate(zip(pe_states, limit_states)):
        tau = float(taus[idx])
        if isinstance(ls, LimitState):
            lim_vbar = velocity_from_vorticity(ls.omega_bar, grid)
            lim_vt = ls.vtilde
            tl = ls.t
        else:
            tl, lim_vbar, lim_vt = ls
        if abs(tl - ps.t) > 1e-9:
            raise ValueError(f"misaligned trajectories: t={ps.t} vs {tl}")
        require_real(lim_vt, "limit vtilde is not conjugate symmetric")
        lim_vp = plus_projection(lim_vt)
        phib = ShellPower.of(ps.vbar - lim_vbar, grid)
        phip = ShellPower.of(ps.vplus - lim_vp, grid)
        f_val = seminorm_a_sq(phib, r, tau) + 2.0 * norm_rst(phip, NormSpec(r=r, s=0, tau=tau)) ** 2
        g_val = seminorm_a_sq(phib, r + 0.5, tau) + 2.0 * seminorm_a_sq(phip, r + 0.5, tau)
        h_val = 2.0 * (seminorm_a_sq(phip, r, tau, s_order=1) + dz_l2_sq(phip, s_order=1))
        vpf = ShellPower.of(lim_vp, grid)
        k_val = (
            norm_rst(ShellPower.of(lim_vbar, grid), NormSpec(r=r + 2, s=0, tau=tau)) ** 2
            + 2.0 * norm_rst(vpf, NormSpec(r=r + 2, s=0, tau=tau)) ** 2
            + 2.0 * norm_rst(vpf, NormSpec(r=r + 1, s=1, tau=tau)) ** 2
        )
        ts.append(ps.t)
        fs.append(f_val)
        gs.append(g_val)
        hs.append(h_val)
        ks.append(k_val)
    return PerturbationSeries(
        np.asarray(ts), np.asarray(fs), np.asarray(gs), np.asarray(hs), np.asarray(ks)
    )
