"""Time integration of the primitive equations.

Two formulations of the same dynamics, each an oracle for the other:

* direct: the horizontal velocity V(x, z, t) in the lab frame, with the
  Coriolis term Omega V^perp explicit and pressure eliminated by projection;
* rotating: the pair (Vbar, V+) where V+ = e^{-i Omega t} P+ V, so Omega
  appears only in bounded oscillatory prefactors.  P+ = (1/2)(I + i perp)
  maps every velocity to a polarized vector V+ = phi (1, i), so the scalar
  phi = V+_x is the evolved baroclinic unknown: the right-hand side
  transforms phi and its derivatives alone.  V- = e^{i Omega t} P- V is the
  conjugate partner of V+ for a real V, V-(n) = conj V+(-n), so it is never
  evolved: its physical values are the conjugates of those of V+.  States of
  a non-real V, or whose V+ is not polarized, are rejected.

Every right-hand side here is the non-diffusive tendency N of the split
u' = -nu (m pi)^2 u + N(u): the stiff vertical diffusion nu dzz acts only
through the integrating factor e^{-nu (m pi)^2 h} of the RK4 step
(`_decay_factors`), which integrates it exactly.  The state type selects the
formulation, and it must agree with SolverConfig.formulation, which sets
the dt |Omega| guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import leray, perp_vector, plus_projection, polarized, vorticity_from_velocity
from .grid import GridSpec, dealias_mask, k_h, mpi
from .norms import InsufficientDecayData, NormSpec, ShellPower, dz_l2_sq, fit_radius, norm_rst
from .spectral import COS, SIN, SpectralRangeError, band_pack, band_unpack, conjugate_reverse, divergence, integral_z
from .spectral import barotropic_coeffs, barotropic_values, coeffs_from_values, is_packed, require_band, require_real
from .spectral import values_from_coeffs


# the advective step limit is this fraction of 1 / (max|u, v| / dx + max|w| / dz)
CFL_SAFETY = 0.5


class CflError(RuntimeError):
    def __init__(self, dt: float, suggested: float):
        super().__init__(f"advective CFL violated: dt={dt:g}, suggested dt <= {suggested:g}")
        self.suggested = suggested


class TendencyNanError(FloatingPointError):
    def __init__(self, term: str):
        super().__init__(f"non-finite tendency in term {term!r}")
        self.term = term


def _require_partner(
    a: np.ndarray, b: np.ndarray, what: str, cause: str = "the velocity is not real"
):
    """Raise ValueError unless a equals b to 1e-10 relative to b (NaN passes)."""
    resid = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
    if resid > 1e-10:
        raise ValueError(f"{what} (relative mismatch {resid:.3e}): {cause}")


@dataclass
class RotatingState:
    """(Vbar, V+) in spectral space at time t; V- is the conjugate partner of V+.

    vbar is stored compactly as (2, nh, nh): the m = 0 coefficients of a
    divergence-free barotropic 2-vector.  vplus is a complex baroclinic
    2-vector (2, nh, nh, nz) with the m = 0 slice structurally zero.  It is
    P+ of a velocity, so it is polarized: V+ = phi (1, i) with phi = vplus[0],
    and vplus[1] must equal i vplus[0] to 1e-10 relative, or ValueError is
    raised.

    For a real velocity V- = conjugate_reverse(V+).  vminus is stored, filled
    with that partner when omitted; one passed in must match it to 1e-10
    relative, or ValueError is raised: a non-real state is rejected, not
    silently replaced.
    """

    t: float
    vbar: np.ndarray
    vplus: np.ndarray
    vminus: np.ndarray | None = None

    def __post_init__(self):
        _require_partner(self.vplus[1], 1j * self.vplus[0], "vplus[1] is not i vplus[0]",
                         cause="V+ is not P+ of a velocity")
        partner = conjugate_reverse(self.vplus)
        if self.vminus is None:
            self.vminus = partner
        else:
            _require_partner(self.vminus, partner, "vminus is not the conjugate partner of vplus")

    def copy(self) -> "RotatingState":
        return RotatingState(self.t, self.vbar.copy(), self.vplus.copy(), self.vminus.copy())


@dataclass
class DirectState:
    """Lab-frame velocity V at time t; a non-real (not conjugate-symmetric) V is rejected."""

    t: float
    v: np.ndarray  # (2, nh, nh, nz)

    def __post_init__(self):
        require_real(self.v, "v is not conjugate symmetric")

    def copy(self) -> "DirectState":
        return DirectState(self.t, self.v.copy())


@dataclass(frozen=True)
class SolverConfig:
    nu: float
    omega: float
    grid: GridSpec
    dt: float
    t_end: float
    formulation: str = "rotating"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.formulation not in ("rotating", "direct"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.formulation == "rotating" and self.dt * abs(self.omega) > 0.5 + 1e-12:
            raise ValueError("dt * |omega| must be <= 0.5 in the rotating formulation")


# ---------------------------------------------------------------------------
# state conversions
# ---------------------------------------------------------------------------

def rotating_from_direct(v: np.ndarray, t: float, omega: float) -> RotatingState:
    """V+ = e^{-i Omega t} (1/2)(Vt + i Vt^perp); V- is its conjugate partner.

    Raises ValueError when v is not conjugate symmetric, i.e. not real.
    """
    require_real(v, "v is not conjugate symmetric")
    vbar = v[..., 0].copy()
    vt = v.copy()
    vt[..., 0] = 0.0
    return RotatingState(t, vbar, np.exp(-1j * omega * t) * plus_projection(vt))


def direct_from_rotating(state: RotatingState, omega: float) -> np.ndarray:
    """V = Vbar + e^{i Omega t} V+ + e^{-i Omega t} V-."""
    v = np.exp(1j * omega * state.t) * state.vplus + np.exp(-1j * omega * state.t) * state.vminus
    v[..., 0] += state.vbar
    return v


# ---------------------------------------------------------------------------
# array-level building blocks
# ---------------------------------------------------------------------------

def _plus_values(phi: np.ndarray, grid: GridSpec) -> tuple:
    """Physical phi, dx phi, dy phi (cos) and dz phi, int_0^z div V+ (sin) of V+ = phi (1, i),
    phi in the packed band layout.

    Two stacked transforms of one complex scalar: div V+ = dx phi + i dy phi.
    """
    grad = _grad_stack(phi, grid)
    intc = integral_z(grad[1:2] + 1j * grad[2:3], grid)
    p, px, py = values_from_coeffs(grad, grid, COS)
    dz, intp = values_from_coeffs(np.concatenate([-mpi(grid, phi) * phi, intc], axis=0), grid, SIN)
    return p, px, py, dz, intp


def _grad_stack(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(c, dx c, dy c) stacked on the component axis, c in a 3D layout (full or packed band)."""
    k = len(c)
    kxx, kyy = k_h(grid, c)
    out = np.empty((3 * k, *c.shape[1:]), dtype=np.complex128)
    out[:k] = c
    np.multiply(1j * kxx, c, out=out[k : 2 * k])
    np.multiply(1j * kyy, c, out=out[2 * k :])
    return out


def _adv(a: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(a . grad) b in physical space; a is (2, ...), bx/by are grad components."""
    return a[0:1] * bx + a[1:2] * by


def _fwd_baroclinic(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward transform of a cos-basis tendency group, dealiased, m=0 removed.

    Zeroing m = 0 realizes the exact P0 subtraction of the baroclinic
    equations (the divergence/w integration-by-parts identity holds
    structurally for baroclinic inputs).
    """
    out = coeffs_from_values(vals, grid, COS)
    out[..., 0] = 0.0
    return out


def _guard(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise TendencyNanError(name)
    return arr


def _name_bad_term(p, px, py, dz, intp, vb3, cplus, cminus):
    """Slow path: identify which tendency group (its x-component) went non-finite."""
    pm, intm = np.conj(p), np.conj(intp)
    groups = {
        "plus_self": p * (px + 1j * py) - intp * dz,
        "plus_barotropic": vb3[0] * px + vb3[1] * py + 0.5 * p * cplus,
        "plus_cross": pm * (px - 1j * py) - intm * dz,
        "plus_conjugate_coupling": 0.5 * pm * cminus,
    }
    for name, arr in groups.items():
        _guard(name, arr)
    raise TendencyNanError("combined_baroclinic_tendency")


# ---------------------------------------------------------------------------
# rotating-frame right-hand side
# ---------------------------------------------------------------------------

def rhs_rotating(
    state: RotatingState | tuple,
    t: float,
    cfg: SolverConfig,
    *,
    cfl: bool = False,
) -> tuple:
    """Non-diffusive tendencies of the rotating-frame equations (nu dzz is
    the integrating factor's).

    For a RotatingState the result is (dVbar, dV+, dV-), with dV+ = dphi (1, i)
    polarized like V+ and dV- its conjugate partner conjugate_reverse(dV+); a
    V+ with a mode outside the 2/3-rule band raises ValueError.  The time
    steppers pass the bare (vbar, phi) arrays instead, phi = vplus[0:1] in the
    packed band layout (`band_pack`), and get (dVbar, dphi) alone, dphi
    packed.  With cfl=True the advective CFL limit of the state at time t
    (what `cfl_limit` returns) is appended to the tuple; it is read off the
    physical values this evaluation forms anyway.

    Every quadratic term is evaluated pseudo-spectrally and dealiased; the
    oscillatory prefactors e^{+-i Omega t}, e^{+-2i Omega t} are evaluated at
    the exact time t.  Pressure never appears: the barotropic tendency is
    Leray-projected.
    """
    if isinstance(state, RotatingState):
        phi = band_pack(state.vplus[0:1], cfg.grid, "vplus")
        dvb, dphi, *extra = _rhs_plus(state.vbar, phi, t, cfg, cfl)
        dvp = polarized(band_unpack(dphi, cfg.grid))
        return (dvb, dvp, conjugate_reverse(dvp), *extra)
    vbar, phi = state
    return _rhs_plus(vbar, phi, t, cfg, cfl)


def _rhs_plus(vbar, phi, t: float, cfg: SolverConfig, cfl: bool = False):
    """(dVbar, dphi) of V+ = phi (1, i), phi and dphi packed; V- enters as the
    conjugate of V+.

    Every tendency group of V+ is polarized like V+, so only x-components are
    assembled.  In physical space V- = conj(phi) (1, -i), so
    (V+ . grad) = phi (dx + i dy) and (V- . grad) = conj(phi) (dx - i dy).
    With cfl the CFL limit is appended: the lab velocity
    V = Vbar + e^{i Omega t} V+ + e^{-i Omega t} V- has the values
    u = Vbar_x + 2 Re(e^{i Omega t} phi), v = Vbar_y - 2 Im(e^{i Omega t} phi)
    and w = -2 Re(e^{i Omega t} int_0^z div V+).
    """
    g = cfg.grid
    om = cfg.omega
    p, px, py, dz, intp = _plus_values(phi, g)
    pm, intm = np.conj(p), np.conj(intp)

    # barotropic phys fields (2D, real): velocity and gradients
    bar = barotropic_values(_grad_stack(vbar[..., None], g)[..., 0], g)
    vb, gx, gy = bar[0:2], bar[2:4], bar[4:6]
    vb3 = vb[..., None]
    # x-components of (1, i).grad and (1, -i).grad of Vbar + i Vbar^perp
    cplus = ((gx[0] + gy[1]) + 1j * (gy[0] - gx[1]))[..., None]
    cminus = ((gx[0] - gy[1]) - 1j * (gx[1] + gy[0]))[..., None]

    selfadv = p * (px + 1j * py)  # (V+ . grad) V+ = phi div V+ (1, i)
    ep = np.exp(1j * om * t)
    em = np.exp(-1j * om * t)
    extra = ()
    if cfl:
        lab = np.multiply(2.0 * ep, p)  # u - i v = Vbar_x - i Vbar_y + 2 e^{i Omega t} phi
        lab.real += vb3[0]
        lab.imag -= vb3[1]
        umax = max(_abs_max(lab.real), _abs_max(lab.imag))
        np.multiply(2.0 * ep, intp, out=lab)  # -w + i (...)
        extra = (_cfl_from_maxima(umax, _abs_max(lab.real), cfg),)

    # the oscillatory prefactors are scalars at fixed t, so the four tendency
    # groups combine in physical space: one forward transform of one component
    phys = (
        ep * (selfadv - intp * dz)
        + (vb3[0] * px + vb3[1] * py + 0.5 * p * cplus)
        + em * (pm * (px - 1j * py) - intm * dz)
        + (em * em * 0.5) * (pm * cminus)
    )
    dhat = _fwd_baroclinic(phys[None], g)
    if not np.isfinite(dhat).all():
        _name_bad_term(p, px, py, dz, intp, vb3, cplus, cminus)
    dphi = -dhat

    # --- Vbar equation: self terms of V+ and V-, averaged over z, Leray-projected ---
    # the V+ source (V+ . grad) V+ + (div V+) V+ is s (1, i) with s the z-mean
    # of 2 phi div V+ e^{2 i Omega t}; the V- source is its conjugate, so
    # together they are (2 Re s, -2 Im s)
    s = (ep * ep) * (2.0 * selfadv.mean(axis=-1))
    mask2 = dealias_mask(g)[:, :, 0]
    b0 = barotropic_coeffs(_adv(vb, gx, gy) + 2.0 * np.stack([s.real, -s.imag]), g)
    dvb = -leray(b0, g)
    dvb *= mask2[None, ...]
    _guard("barotropic", dvb)

    return (dvb, dphi, *extra)


# ---------------------------------------------------------------------------
# direct (lab-frame) right-hand side
# ---------------------------------------------------------------------------

def rhs_direct(
    v: np.ndarray,
    t: float,
    cfg: SolverConfig,
    *,
    cfl: bool = False,
):
    """-V.grad V - w dz V - Omega V^perp, pressure removed by projection (nu dzz
    is the integrating factor's).

    v is the full layout (2, nh, nh, nz), whose modes outside the 2/3-rule
    band raise ValueError, or the packed band (`band_pack`) that the stepper
    passes; the tendency comes back in v's layout.  With cfl=True the result
    is (tendency, CFL limit of v), the limit read off the values of V and w
    that the nonlinear terms transform anyway.
    """
    g = cfg.grid
    full = not is_packed(v, g)
    if full:
        v = band_pack(v, g, "v")
    out = np.zeros_like(v)
    w = mpi(g, v)
    cvals = values_from_coeffs(_grad_stack(v, g), g, COS, real=True)
    svals = values_from_coeffs(
        np.concatenate([-w * v, integral_z(-divergence(v, g)[None], g)], axis=0), g, SIN, real=True
    )
    p, px, py = cvals[0:2], cvals[2:4], cvals[4:6]
    dzp, wphys = svals[0:2], svals[2:3]
    if cfl:
        lim = _cfl_from_maxima(_abs_max(p), _abs_max(wphys), cfg)
    n = -_adv(p, px, py) - wphys * dzp
    nhat = coeffs_from_values(n, g, COS)
    _guard("advection", nhat)
    out += nhat
    out -= cfg.omega * perp_vector(v)
    # pressure projection: baroclinic part untouched, barotropic part Leray-projected
    out[..., 0] = leray(out[..., 0], g)
    if full:
        out = band_unpack(out, g)
    return (out, lim) if cfl else out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _if_rk4(arrs: tuple, t: float, dt: float, nl, grid: GridSpec, nu: float, k1=None) -> tuple:
    """Classical RK4 on the integrating-factor variable; exact for pure diffusion.

    The last array of arrs is the evolved 3-D one, in the packed band layout:
    the vertical diffusion nu dzz acts on it through the factors
    e^{-nu (m pi)^2 h}, h = dt/2 and dt.  The compact barotropic arrays in
    front of it (Vbar, omega_bar) have no vertical mode and get no factor.
    k1 is the stage-1 tendency nl(arrs, t) when the caller has evaluated it.
    """
    eh, ef = _decay_factors(arrs[-1], grid, nu, dt)
    e_half = (1.0,) * (len(arrs) - 1) + (eh,)
    e_full = (1.0,) * (len(arrs) - 1) + (ef,)
    if k1 is None:
        k1 = nl(arrs, t)
    y2 = tuple(e_half[i] * (arrs[i] + 0.5 * dt * k1[i]) for i in range(len(arrs)))
    k2 = nl(y2, t + 0.5 * dt)
    y3 = tuple(e_half[i] * arrs[i] + 0.5 * dt * k2[i] for i in range(len(arrs)))
    k3 = nl(y3, t + 0.5 * dt)
    y4 = tuple(e_full[i] * arrs[i] + dt * e_half[i] * k3[i] for i in range(len(arrs)))
    k4 = nl(y4, t + dt)
    return tuple(
        e_full[i] * arrs[i]
        + (dt / 6.0) * (e_full[i] * k1[i] + 2.0 * e_half[i] * (k2[i] + k3[i]) + k4[i])
        for i in range(len(arrs))
    )


def _decay_factors(a: np.ndarray, grid: GridSpec, nu: float, dt: float) -> tuple:
    """(e^{-nu (m pi)^2 dt/2}, e^{-nu (m pi)^2 dt}) over the m axis of a: the
    only place the vertical diffusion nu dzz acts."""
    rate = -nu * mpi(grid, a) ** 2
    return np.exp(rate * (0.5 * dt)), np.exp(rate * dt)


def _lab_velocity(state, cfg: SolverConfig) -> np.ndarray:
    """Lab-frame coefficients V of a rotating or direct state."""
    return direct_from_rotating(state, cfg.omega) if isinstance(state, RotatingState) else state.v


def _abs_max(x: np.ndarray) -> float:
    """max |x| of a real array without forming |x|."""
    return max(x.max(), -x.min())


def _cfl_from_maxima(umax: float, wmax: float, cfg: SolverConfig) -> float:
    """The advective limit CFL_SAFETY / (max|u, v| / dx + max|w| / dz)."""
    dx = 1.0 / cfg.grid.nh
    dz = 1.0 / cfg.grid.nz
    return float(CFL_SAFETY / max(umax / dx + wmax / dz, 1e-12))


def cfl_limit(state, cfg: SolverConfig) -> float:
    """Largest advectively stable dt for the current state.

    state is a RotatingState, a DirectState, or the lab-frame coefficient
    array V itself; a V with a mode outside the 2/3-rule band raises
    ValueError.  The steppers do not call this: stage 1 of each step
    returns the same limit from the values it transforms anyway.
    """
    g = cfg.grid
    v = band_pack(state if isinstance(state, np.ndarray) else _lab_velocity(state, cfg), g, "v")
    umax = np.abs(values_from_coeffs(v, g, COS, real=True)).max()
    wmax = np.abs(values_from_coeffs(integral_z(-divergence(v, g)[None], g), g, SIN, real=True)).max()
    return _cfl_from_maxima(umax, wmax, cfg)


def _pack(state, cfg: SolverConfig) -> tuple:
    """The arrays a step advances, (Vbar, phi) or (V,), the 3-D one packed
    (`band_pack`).  ValueError for a state of the other formulation than
    cfg.formulation, or with a mode outside the 2/3-rule band (all of V+)."""
    if not isinstance(state, (RotatingState, DirectState)):
        raise TypeError(f"unknown state type {type(state)!r}")
    kind = "rotating" if isinstance(state, RotatingState) else "direct"
    if kind != cfg.formulation:
        raise ValueError(f"a {type(state).__name__} steps in the {kind} formulation, "
                         f"but the config sets formulation={cfg.formulation!r}")
    g = cfg.grid
    if kind == "direct":
        return (band_pack(state.v, g, "v"),)
    require_band(state.vbar[..., None], g, "vbar")
    require_band(state.vplus, g, "vplus")
    return state.vbar, band_pack(state.vplus[0:1], g, "vplus")


def _unpack(arrs: tuple, t: float, cfg: SolverConfig):
    """The state at time t of the arrays that `_pack` returns."""
    if cfg.formulation == "direct":
        return DirectState(t, band_unpack(arrs[0], cfg.grid))
    vbar, phi = arrs
    return RotatingState(t, vbar, polarized(band_unpack(phi, cfg.grid)))


def step(state, cfg: SolverConfig):
    """Advance one dt; raises CflError when the advective limit is violated,
    and ValueError for a state with modes outside the 2/3-rule band or of
    the other formulation than cfg.formulation."""
    return _unpack(_advance(_pack(state, cfg), state.t, cfg, True)[0], state.t + cfg.dt, cfg)


def _advance(arrs: tuple, t: float, cfg: SolverConfig, check_cfl: bool) -> tuple:
    """One dt of the packed arrays at time t: (new arrays, advective CFL limit
    of the old ones).  Stage 1 of the RK4 step evaluates the RHS at the old
    arrays, so it holds the physical velocity the limit needs and no
    transform is made for it; with check_cfl a dt over the limit raises
    CflError before stages 2-4 run."""
    if cfg.formulation == "rotating":
        def rhs(a, t, cfl=False):
            return rhs_rotating(a, t, cfg, cfl=cfl)
    else:
        def rhs(a, t, cfl=False):
            out = rhs_direct(a[0], t, cfg, cfl=cfl)
            return out if cfl else (out,)

    *k1, lim = rhs(arrs, t, cfl=True)
    if check_cfl and cfg.dt > lim:
        raise CflError(cfg.dt, lim)
    return _if_rk4(arrs, t, cfg.dt, rhs, cfg.grid, cfg.nu, k1=k1), lim


# ---------------------------------------------------------------------------
# integration loop with diagnostics and blow-up sentinels
# ---------------------------------------------------------------------------

@dataclass
class IntegrationResult:
    """Final state, diagnostics rows and why the run stopped.

    cfl_margin_min is the smallest (advective CFL limit) / dt over the
    pre-step states of the accepted steps (None when no step was taken);
    fit_failures counts the radius fits that raised InsufficientDecayData or
    SpectralRangeError and were recorded as NaN.  tau_fallbacks counts the
    rows whose tracked radius was NaN (a failed tau tracker), so that their
    norm_r0tau was taken at the report radius instead; it is 0 without a
    tracker.
    """

    state: object
    rows: list
    termination: str
    radius_collapse_t: float | None = None
    cfl_margin_min: float | None = None
    fit_failures: int = 0
    tau_fallbacks: int = 0


_DIAGNOSTIC_ERRORS = (InsufficientDecayData, SpectralRangeError)


def _row_from_state(
    state, v: np.ndarray, power: ShellPower, cfg: SolverConfig, report: NormSpec, tau_tracked: float
):
    """(diagnostics row, number of failed radius fits) of a state whose lab-frame
    coefficients are v and whose shell-power table is `power`."""
    from .io import DiagnosticsRow

    g = cfg.grid
    vbar = state.vbar if isinstance(state, RotatingState) else v[..., 0]
    spec_tau = NormSpec(r=report.r, s=0, tau=max(tau_tracked, 0.0) if np.isfinite(tau_tracked) else report.tau)
    try:
        nrt = norm_rst(power, spec_tau)
    except _DIAGNOSTIC_ERRORS:
        nrt = float("nan")
    sob = norm_rst(power, NormSpec(r=report.r, s=report.s, tau=0.0))
    fits, failed = [], 0
    for axis in ("horizontal", "vertical"):
        try:
            fits.append(fit_radius(power, axis))
        except _DIAGNOSTIC_ERRORS:
            fits.append(float("nan"))
            failed += 1
    omega_bar = vorticity_from_velocity(vbar, g)
    row = DiagnosticsRow(
        t=state.t,
        norm_r0tau=nrt,
        sobolev_norm=sob,
        tau_tracked=tau_tracked,
        tau_fit_h=fits[0],
        eta_fit_v=fits[1],
        energy=0.5 * dz_l2_sq(power),
        enstrophy_bar=0.5 * float(np.sum(np.abs(omega_bar) ** 2)),
        baroclinic_l2=float(np.sqrt(power.table[:, 1:].sum())),
        div_residual=float(np.abs(divergence(vbar, g)).max()),
        mean_residual=float(np.abs(v[:, 0, 0, 0]).max()),
    )
    return row, failed


def _norms_for_tracker(power: ShellPower, r: float):
    """norms_at(tau) callback on a shell-power table: (||V||_{r,0,tau}, ||dz V||_{r,0,tau})."""
    dz_power = power.dz()

    def norms_at(tau: float):
        return (
            norm_rst(power, NormSpec(r=r, s=0, tau=tau)),
            norm_rst(dz_power, NormSpec(r=r, s=0, tau=tau)),
        )

    return norms_at


def integrate(
    state0,
    cfg: SolverConfig,
    observer=None,
    *,
    report: NormSpec | None = None,
    blowup_factor: float = 1e4,
    tau_tracker=None,
    check_cfl: bool = True,
    state_observer=None,
) -> IntegrationResult:
    """Step from t=0 to t_end or until a blow-up sentinel fires.

    The sentinel fires when norm_rst at the report spec exceeds
    blowup_factor x initial, or on NaN.  The fitted-radius collapse
    (tau_fit_h < 0.05 x initial fit) is logged separately, never fatal.
    A state0 with modes outside the 2/3-rule band, or of the other
    formulation than cfg.formulation, raises ValueError.

    state0 is packed once (`_pack`) and the packed arrays go from step to
    step; each step's state is built from them for the diagnostics, the
    observers and the result.  The CFL limit of each pre-step state comes
    from stage 1 of its RK4 step, which evaluates the RHS there and so holds
    the physical velocity: with check_cfl a dt over the limit raises CflError
    before the step is accepted, and the smallest limit / dt is recorded
    either way.  After each step the lab-frame velocity is formed once and
    its shell-power table built once; the tau tracker and the diagnostics
    row (norms, fits, energy, baroclinic L2) all read that table.
    """
    report = report or NormSpec(r=2.0, s=0, tau=0.0)
    g = cfg.grid
    arrs = _pack(state0, cfg)
    state = state0.copy()
    n_steps = int(round(cfg.t_end / cfg.dt))
    tau_now = tau_tracker.tau if tau_tracker is not None else float("nan")
    v = _lab_velocity(state, cfg)
    row, fit_failures = _row_from_state(state, v, ShellPower.of(v, g), cfg, report, tau_now)
    rows = [row]
    if observer:
        observer(row)
    if state_observer:
        state_observer(state)
    initial_norm = rows[0].norm_r0tau
    initial_fit = rows[0].tau_fit_h
    collapse_t = None
    margin = None
    termination = "completed"

    for _ in range(n_steps):
        arrs, lim = _advance(arrs, state.t, cfg, check_cfl)
        state = _unpack(arrs, state.t + cfg.dt, cfg)
        if margin is None or lim / cfg.dt < margin:
            margin = lim / cfg.dt
        v = _lab_velocity(state, cfg)
        power = ShellPower.of(v, g)
        if tau_tracker is not None:
            tau_tracker.step(cfg.dt, _norms_for_tracker(power, report.r))
            tau_now = tau_tracker.tau
        row, failed = _row_from_state(state, v, power, cfg, report, tau_now)
        fit_failures += failed
        rows.append(row)
        if observer:
            observer(row)
        if state_observer:
            state_observer(state)
        # the built state, not arrs: the same verdict, but checking arrs let glibc
        # trim the heap between steps, doubling a step's page faults at (24, 12)
        coeffs = (state.vbar, state.vplus) if isinstance(state, RotatingState) else (state.v,)
        if any(not np.isfinite(a).all() for a in coeffs):
            termination = "nan"
            break
        if np.isfinite(row.norm_r0tau) and row.norm_r0tau > blowup_factor * max(initial_norm, 1e-300):
            termination = "blowup_sentinel"
            break
        if (
            collapse_t is None
            and np.isfinite(initial_fit)
            and np.isfinite(row.tau_fit_h)
            and row.tau_fit_h < 0.05 * initial_fit
        ):
            collapse_t = state.t
    rows[-1].termination = termination
    fallbacks = 0 if tau_tracker is None else sum(not np.isfinite(row.tau_tracked) for row in rows)
    return IntegrationResult(state, rows, termination, collapse_t, margin, fit_failures, fallbacks)


# ---------------------------------------------------------------------------
# 2D reduced system: y-independent, v dropped, Omega = 0
# ---------------------------------------------------------------------------

@dataclass
class State2D:
    """Baroclinic zonal velocity u(x, z): coefficients in the x-z layout
    (1, nh, 1, nz), the n2 = 0 column of the 3-D layout."""

    t: float
    u: np.ndarray

    def copy(self) -> "State2D":
        return State2D(self.t, self.u.copy())


def rhs_2d(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """du = -u dx u + (int_0^z dx u) dz u, barotropic part structurally zero
    (nu dzz u is the integrating factor's).

    u is real and in the x-z layout (1, nh, 1, nz), so it takes the real 3-D
    transforms.  The dx P0(u^2) term of the reduced equation lives entirely
    in the m = 0 slots, which the exact P0 subtraction removes; only the
    m >= 1 content of the two products survives.  u and the tendency are
    in the packed band layout (1, 2 hcut + 1, 1, zcut + 1) that the stepper
    passes (`band_pack`).
    """
    dxu = 1j * k_h(grid, u)[0] * u
    p, px = values_from_coeffs(np.concatenate([u, dxu]), grid, COS, real=True)
    sines = np.concatenate([-mpi(grid, u) * u, integral_z(dxu, grid)])
    dzp, intp = values_from_coeffs(sines, grid, SIN, real=True)
    out = coeffs_from_values((intp * dzp - p * px)[None], grid, COS)
    out[..., 0] = 0.0
    _guard("advection_2d", out)
    return out


def step_2d(state: State2D, grid: GridSpec, nu: float, dt: float) -> State2D:
    """One RK4-IF step on the packed band of u; ValueError for a state with
    modes outside the 2/3-rule band."""
    def nl(a, t):
        return (rhs_2d(a[0], grid),)

    (u,) = _if_rk4((band_pack(state.u, grid, "u"),), state.t, dt, nl, grid, nu)
    return State2D(state.t + dt, band_unpack(u, grid))
