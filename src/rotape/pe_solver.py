"""Time integration of the primitive equations.

Two formulations of the same dynamics, each an oracle for the other:

* direct: the horizontal velocity V(x, z, t) in the lab frame, with the
  Coriolis term Omega V^perp explicit and pressure eliminated by projection;
* rotating: the pair (Vbar, V+) where V+ = e^{-i Omega t} P+ V, so Omega
  appears only in bounded oscillatory prefactors.  V- = e^{i Omega t} P- V is
  the conjugate partner of V+ for a real V, V-(n) = conj V+(-n), so it is
  never evolved: its physical values are the conjugates of those of V+.
  States of a non-real V are rejected.

The stiff vertical diffusion nu dzz is integrated exactly by an
integrating-factor RK4 (scheme "rk4_if"); "rk4_plain" treats everything
explicitly and is used for cross-checks at small dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, dealias_mask, kx, ky, mpi
from .norms import InsufficientDecayData, NormSpec, fit_radius, norm_rst
from .spectral import COS, SIN, SpectralField, SpectralRangeError, conjugate_reverse
from .spectral import coeffs_from_values, values_from_coeffs


class CflError(RuntimeError):
    def __init__(self, dt: float, suggested: float):
        super().__init__(f"advective CFL violated: dt={dt:g}, suggested dt <= {suggested:g}")
        self.suggested = suggested


class TendencyNanError(FloatingPointError):
    def __init__(self, term: str):
        super().__init__(f"non-finite tendency in term {term!r}")
        self.term = term


def _require_partner(a: np.ndarray, b: np.ndarray, what: str):
    """Raise ValueError unless a equals b to 1e-10 relative to b (NaN passes)."""
    resid = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
    if resid > 1e-10:
        raise ValueError(f"{what} (relative mismatch {resid:.3e}): the velocity is not real")


@dataclass
class RotatingState:
    """(Vbar, V+) in spectral space at time t; V- is the conjugate partner of V+.

    vbar is stored compactly as (2, nh, nh): the m = 0 coefficients of a
    divergence-free barotropic 2-vector.  vplus is a complex baroclinic
    2-vector (2, nh, nh, nz) with the m = 0 slice structurally zero.

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
        partner = conjugate_reverse(self.vplus)
        if self.vminus is None:
            self.vminus = partner
        else:
            _require_partner(self.vminus, partner, "vminus is not the conjugate partner of vplus")

    def copy(self) -> "RotatingState":
        return RotatingState(self.t, self.vbar.copy(), self.vplus.copy(), self.vminus.copy())


@dataclass
class DirectState:
    t: float
    v: np.ndarray  # (2, nh, nh, nz)

    def copy(self) -> "DirectState":
        return DirectState(self.t, self.v.copy())


@dataclass(frozen=True)
class SolverConfig:
    nu: float
    omega: float
    grid: GridSpec
    dt: float
    t_end: float
    scheme: str = "rk4_if"
    formulation: str = "rotating"
    cfl_safety: float = 0.5

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("rk4_if", "rk4_plain"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.formulation not in ("rotating", "direct"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.formulation == "rotating" and self.dt * abs(self.omega) > 0.5 + 1e-12:
            raise ValueError("dt * |omega| must be <= 0.5 in the rotating formulation")


# ---------------------------------------------------------------------------
# state conversions
# ---------------------------------------------------------------------------

def rotating_from_direct(v: np.ndarray, t: float, omega: float) -> RotatingState:
    """V+ = e^{-i Omega t} (1/2)(Vt + i Vt^perp); V- is its conjugate partner.

    Raises ValueError when v is not conjugate symmetric, i.e. not real.
    """
    _require_partner(v, conjugate_reverse(v), "v is not conjugate symmetric")
    vbar = v[..., 0].copy()
    vt = v.copy()
    vt[..., 0] = 0.0
    vperp = np.concatenate([-vt[1:2], vt[0:1]], axis=0)
    return RotatingState(t, vbar, np.exp(-1j * omega * t) * 0.5 * (vt + 1j * vperp))


def direct_from_rotating(state: RotatingState, omega: float) -> np.ndarray:
    """V = Vbar + e^{i Omega t} V+ + e^{-i Omega t} V-."""
    v = np.exp(1j * omega * state.t) * state.vplus + np.exp(-1j * omega * state.t) * state.vminus
    v[..., 0] += state.vbar
    return v


def state_field(state: RotatingState, grid: GridSpec, omega: float) -> SpectralField:
    return SpectralField(grid, direct_from_rotating(state, omega), COS)


def barotropic_field(vbar: np.ndarray, grid: GridSpec) -> SpectralField:
    out = np.zeros((2, *grid.shape), dtype=np.complex128)
    out[..., 0] = vbar
    return SpectralField(grid, out, COS)


# ---------------------------------------------------------------------------
# array-level building blocks
# ---------------------------------------------------------------------------

def _leray2d(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Leray projection on a compact (2, nh, nh) barotropic array; k=0 unchanged."""
    kxx = kx(grid)[..., 0]
    kyy = ky(grid)[..., 0]
    k2 = kxx**2 + kyy**2
    inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
    kdv = kxx * a[0] + kyy * a[1]
    out = a.copy()
    out[0] -= kxx * kdv * inv
    out[1] -= kyy * kdv * inv
    return out


def _div2d(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    return 1j * kx(grid)[..., 0] * a[0] + 1j * ky(grid)[..., 0] * a[1]


class _Bundle:
    """Physical-space evaluations of one baroclinic spectral 2-vector."""

    __slots__ = ("p", "px", "py", "dzp", "intp", "divp")


def _make_bundle(vc: np.ndarray, grid: GridSpec) -> _Bundle:
    """Evaluate one baroclinic field with one stacked transform per basis."""
    ikx = 1j * kx(grid)
    iky = 1j * ky(grid)
    w = mpi(grid)
    divc = ikx * vc[0:1] + iky * vc[1:2]
    intc = np.zeros_like(divc)
    intc[..., 1:] = divc[..., 1:] / w[..., 1:]
    cvals = values_from_coeffs(np.concatenate([vc, ikx * vc, iky * vc, divc], axis=0), grid, COS)
    svals = values_from_coeffs(np.concatenate([-w * vc, intc], axis=0), grid, SIN)
    b = _Bundle()
    b.p, b.px, b.py, b.divp = cvals[0:2], cvals[2:4], cvals[4:6], cvals[6:7]
    b.dzp, b.intp = svals[0:2], svals[2:3]
    return b


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
    out *= dealias_mask(grid)[None, ...]
    out[..., 0] = 0.0
    return out


def _guard(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise TendencyNanError(name)
    return arr


def _name_bad_term(bp, pm, intm, vb3, bplus_x, bplus_y):
    """Slow path: identify which tendency group went non-finite."""
    groups = {
        "plus_self": _adv(bp.p, bp.px, bp.py) - bp.intp * bp.dzp,
        "plus_barotropic": _adv(vb3, bp.px, bp.py) + 0.5 * _adv(bp.p, bplus_x, bplus_y),
        "plus_cross": _adv(pm, bp.px, bp.py) - intm * bp.dzp,
        "plus_conjugate_coupling": 0.5 * _adv(pm, bplus_x, bplus_y),
    }
    for name, arr in groups.items():
        _guard(name, arr)
    raise TendencyNanError("combined_baroclinic_tendency")


# ---------------------------------------------------------------------------
# rotating-frame right-hand side
# ---------------------------------------------------------------------------

def rhs_rotating(
    state: RotatingState | tuple, t: float, cfg: SolverConfig, include_viscous: bool = True
) -> tuple:
    """Tendencies of the rotating-frame equations.

    For a RotatingState the result is (dVbar, dV+, dV-), with dV- the
    conjugate partner conjugate_reverse(dV+).  The time steppers pass the bare
    (vbar, vplus) arrays instead and get (dVbar, dV+) alone.

    Every quadratic term is evaluated pseudo-spectrally and dealiased; the
    oscillatory prefactors e^{+-i Omega t}, e^{+-2i Omega t} are evaluated at
    the exact time t.  Pressure never appears: the barotropic tendency is
    Leray-projected.
    """
    if isinstance(state, RotatingState):
        dvb, dvp = _rhs_plus(state.vbar, state.vplus, t, cfg, include_viscous)
        return dvb, dvp, conjugate_reverse(dvp)
    vbar, vplus = state
    return _rhs_plus(vbar, vplus, t, cfg, include_viscous)


def _rhs_plus(vbar, vplus, t: float, cfg: SolverConfig, include_viscous: bool):
    """(dVbar, dV+) from the V+ bundle alone; V- enters as the conjugate of V+."""
    g = cfg.grid
    om = cfg.omega
    bp = _make_bundle(vplus, g)
    # physical V- = conj(physical V+) for a real velocity
    pm, intm = np.conj(bp.p), np.conj(bp.intp)

    # barotropic phys fields (2D): velocity and gradients
    vb = np.fft.ifft2(vbar, axes=(-2, -1)) * g.nh**2
    gx = np.fft.ifft2(1j * kx(g)[..., 0] * vbar, axes=(-2, -1)) * g.nh**2
    gy = np.fft.ifft2(1j * ky(g)[..., 0] * vbar, axes=(-2, -1)) * g.nh**2
    vb3 = vb[..., None]
    # (Vbar + i Vbar^perp) gradients: component combos of gx, gy
    bplus_x = np.stack([gx[0] - 1j * gx[1], gx[1] + 1j * gx[0]])[..., None]
    bplus_y = np.stack([gy[0] - 1j * gy[1], gy[1] + 1j * gy[0]])[..., None]

    selfadv = _adv(bp.p, bp.px, bp.py)
    ep = np.exp(1j * om * t)
    em = np.exp(-1j * om * t)

    # the oscillatory prefactors are scalars at fixed t, so the four tendency
    # groups combine in physical space: one forward transform
    phys = (
        ep * (selfadv - bp.intp * bp.dzp)
        + _adv(vb3, bp.px, bp.py)
        + 0.5 * _adv(bp.p, bplus_x, bplus_y)
        + em * (_adv(pm, bp.px, bp.py) - intm * bp.dzp)
        + (em * em * 0.5) * _adv(pm, bplus_x, bplus_y)
    )
    dhat = _fwd_baroclinic(phys, g)
    if not np.isfinite(dhat).all():
        _name_bad_term(bp, pm, intm, vb3, bplus_x, bplus_y)
    dvp = -dhat
    if include_viscous:
        dvp -= cfg.nu * mpi(g) ** 2 * vplus

    # --- Vbar equation: self terms of V+ and V-, averaged over z, Leray-projected ---
    # the V- source is the conjugate of the V+ source s, so together they are s + conj(s)
    s = (ep * ep) * (selfadv + bp.divp * bp.p).mean(axis=-1)
    mask2 = dealias_mask(g)[:, :, 0]
    b0 = np.fft.fft2(_adv(vb, gx, gy) + s + np.conj(s), axes=(-2, -1)) / g.nh**2
    dvb = -_leray2d(b0, g)
    dvb *= mask2[None, ...]
    _guard("barotropic", dvb)

    return dvb, dvp


# ---------------------------------------------------------------------------
# direct (lab-frame) right-hand side
# ---------------------------------------------------------------------------

def rhs_direct(
    v: np.ndarray,
    t: float,
    cfg: SolverConfig,
    include_viscous: bool = True,
    include_coriolis: bool = True,
    include_nonlinear: bool = True,
) -> np.ndarray:
    """-V.grad V - w dz V + nu dzz V - Omega V^perp, pressure removed by projection."""
    g = cfg.grid
    out = np.zeros_like(v)
    if include_nonlinear:
        ikx = 1j * kx(g)
        iky = 1j * ky(g)
        w = mpi(g)
        p = values_from_coeffs(v, g, COS)
        px = values_from_coeffs(ikx * v, g, COS)
        py = values_from_coeffs(iky * v, g, COS)
        dzp = values_from_coeffs(-w * v, g, SIN)
        divc = ikx * v[0:1] + iky * v[1:2]
        wc = np.zeros_like(divc)
        wc[..., 1:] = -divc[..., 1:] / w[..., 1:]
        wphys = values_from_coeffs(wc, g, SIN)
        n = -_adv(p, px, py) - wphys * dzp
        nhat = coeffs_from_values(n, g, COS)
        nhat *= dealias_mask(g)[None, ...]
        _guard("advection", nhat)
        out += nhat
    if include_coriolis:
        out -= cfg.omega * np.concatenate([-v[1:2], v[0:1]], axis=0)
    # pressure projection: baroclinic part untouched, barotropic part Leray-projected
    out[..., 0] = _leray2d(out[..., 0], g)
    if include_viscous:
        damp = cfg.nu * mpi(g) ** 2
        out = out - damp * v
        _guard("viscous", out)
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _if_rk4(arrs: tuple, t: float, dt: float, nl, e_half: tuple, e_full: tuple) -> tuple:
    """Classical RK4 on the integrating-factor variable; exact for pure diffusion."""
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


def _plain_rk4(arrs: tuple, t: float, dt: float, rhs) -> tuple:
    k1 = rhs(arrs, t)
    y2 = tuple(arrs[i] + 0.5 * dt * k1[i] for i in range(len(arrs)))
    k2 = rhs(y2, t + 0.5 * dt)
    y3 = tuple(arrs[i] + 0.5 * dt * k2[i] for i in range(len(arrs)))
    k3 = rhs(y3, t + 0.5 * dt)
    y4 = tuple(arrs[i] + dt * k3[i] for i in range(len(arrs)))
    k4 = rhs(y4, t + dt)
    return tuple(
        arrs[i] + (dt / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(len(arrs))
    )


def _decay_factors(grid: GridSpec, nu: float, h: float) -> np.ndarray:
    return np.exp(-nu * mpi(grid) ** 2 * h)


def cfl_limit(state, cfg: SolverConfig) -> float:
    """Largest advectively stable dt for the current state."""
    g = cfg.grid
    if isinstance(state, RotatingState):
        v = direct_from_rotating(state, cfg.omega)
    else:
        v = state.v
    p = values_from_coeffs(v, g, COS).real
    umax = np.abs(p).max()
    divc = 1j * kx(g) * v[0:1] + 1j * ky(g) * v[1:2]
    wc = np.zeros_like(divc)
    wc[..., 1:] = -divc[..., 1:] / mpi(g)[..., 1:]
    wmax = np.abs(values_from_coeffs(wc, g, SIN).real).max()
    dx = 1.0 / g.nh
    dz = 1.0 / g.nz
    lim = cfg.cfl_safety / max(umax / dx + wmax / dz, 1e-12)
    return float(lim)


def step(state, cfg: SolverConfig):
    """Advance one dt; raises CflError when the advective limit is violated."""
    lim = cfl_limit(state, cfg)
    if cfg.dt > lim:
        raise CflError(cfg.dt, lim)
    return _step_nocfl(state, cfg)


def _step_nocfl(state, cfg: SolverConfig):
    g = cfg.grid
    if isinstance(state, RotatingState):
        arrs = (state.vbar, state.vplus)

        if cfg.scheme == "rk4_if":
            def nl(a, t):
                return rhs_rotating(a, t, cfg, include_viscous=False)

            eh = _decay_factors(g, cfg.nu, 0.5 * cfg.dt)
            ef = _decay_factors(g, cfg.nu, cfg.dt)
            new = _if_rk4(arrs, state.t, cfg.dt, nl, (1.0, eh), (1.0, ef))
        else:
            def rhs(a, t):
                return rhs_rotating(a, t, cfg, include_viscous=True)

            new = _plain_rk4(arrs, state.t, cfg.dt, rhs)
        return RotatingState(state.t + cfg.dt, *new)

    if isinstance(state, DirectState):
        if cfg.scheme == "rk4_if":
            def nl(a, t):
                return (rhs_direct(a[0], t, cfg, include_viscous=False),)

            eh = _decay_factors(g, cfg.nu, 0.5 * cfg.dt)
            ef = _decay_factors(g, cfg.nu, cfg.dt)
            (newv,) = _if_rk4((state.v,), state.t, cfg.dt, nl, (eh,), (ef,))
        else:
            def rhs(a, t):
                return (rhs_direct(a[0], t, cfg, include_viscous=True),)

            (newv,) = _plain_rk4((state.v,), state.t, cfg.dt, rhs)
        return DirectState(state.t + cfg.dt, newv)

    raise TypeError(f"unknown state type {type(state)!r}")


# ---------------------------------------------------------------------------
# integration loop with diagnostics and blow-up sentinels
# ---------------------------------------------------------------------------

@dataclass
class IntegrationResult:
    state: object
    rows: list
    termination: str
    radius_collapse_t: float | None = None


def _row_from_state(state, cfg: SolverConfig, report: NormSpec, tau_tracked: float, fit_floor: float):
    from .io import DiagnosticsRow

    g = cfg.grid
    if isinstance(state, RotatingState):
        v = direct_from_rotating(state, cfg.omega)
        vbar = state.vbar
    else:
        v = state.v
        vbar = v[..., 0]
    f = SpectralField(g, v, COS)
    spec_tau = NormSpec(r=report.r, s=0, tau=max(tau_tracked, 0.0) if np.isfinite(tau_tracked) else report.tau)
    try:
        nrt = norm_rst(f, spec_tau)
    except (InsufficientDecayData, SpectralRangeError):
        nrt = float("nan")
    sob = norm_rst(f, NormSpec(r=report.r, s=report.s, tau=0.0))
    try:
        tfh = fit_radius(f, "horizontal", floor=fit_floor)
    except (InsufficientDecayData, SpectralRangeError):
        tfh = float("nan")
    try:
        efv = fit_radius(f, "vertical", floor=fit_floor)
    except (InsufficientDecayData, SpectralRangeError):
        efv = float("nan")
    energy = 0.5 * float(np.sum(np.abs(v) ** 2))
    omega_bar = 1j * kx(g)[..., 0] * vbar[1] - 1j * ky(g)[..., 0] * vbar[0]
    enst = 0.5 * float(np.sum(np.abs(omega_bar) ** 2))
    vt = v.copy()
    vt[..., 0] = 0.0
    bl2 = float(np.sqrt(np.sum(np.abs(vt) ** 2)))
    divres = float(np.abs(_div2d(vbar, g)).max())
    meanres = float(np.abs(v[:, 0, 0, 0]).max())
    return DiagnosticsRow(
        t=state.t,
        norm_r0tau=nrt,
        sobolev_norm=sob,
        tau_tracked=tau_tracked,
        tau_fit_h=tfh,
        eta_fit_v=efv,
        energy=energy,
        enstrophy_bar=enst,
        baroclinic_l2=bl2,
        div_residual=divres,
        mean_residual=meanres,
    )


def _norms_for_tracker(state, cfg: SolverConfig, r: float):
    """norms_at(tau) callback: (||V||_{r,0,tau}, ||dz V||_{r,0,tau})."""
    g = cfg.grid
    v = direct_from_rotating(state, cfg.omega) if isinstance(state, RotatingState) else state.v
    f = SpectralField(g, v, COS)
    dzf = SpectralField(g, v * (-mpi(g)), SIN)

    def norms_at(tau: float):
        return (
            norm_rst(f, NormSpec(r=r, s=0, tau=tau)),
            norm_rst(dzf, NormSpec(r=r, s=0, tau=tau)),
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
    fit_floor: float = 1e-14,
    check_cfl: bool = True,
    state_observer=None,
) -> IntegrationResult:
    """Step from t=0 to t_end or until a blow-up sentinel fires.

    The sentinel fires when norm_rst at the report spec exceeds
    blowup_factor x initial, or on NaN.  The fitted-radius collapse
    (tau_fit_h < 0.05 x initial fit) is logged separately, never fatal.
    """
    report = report or NormSpec(r=2.0, s=0, tau=0.0)
    state = state0.copy()
    n_steps = int(round(cfg.t_end / cfg.dt))
    tau_now = tau_tracker.tau if tau_tracker is not None else float("nan")
    rows = [_row_from_state(state, cfg, report, tau_now, fit_floor)]
    if observer:
        observer(rows[-1])
    if state_observer:
        state_observer(state)
    initial_norm = rows[0].norm_r0tau
    initial_fit = rows[0].tau_fit_h
    collapse_t = None
    termination = "completed"

    for _ in range(n_steps):
        if check_cfl:
            lim = cfl_limit(state, cfg)
            if cfg.dt > lim:
                raise CflError(cfg.dt, lim)
        state = _step_nocfl(state, cfg)
        if tau_tracker is not None:
            tau_tracker.step(cfg.dt, _norms_for_tracker(state, cfg, report.r))
            tau_now = tau_tracker.tau
        row = _row_from_state(state, cfg, report, tau_now, fit_floor)
        rows.append(row)
        if observer:
            observer(row)
        if state_observer:
            state_observer(state)
        arrs = (state.vbar, state.vplus) if isinstance(state, RotatingState) else (state.v,)
        if any(not np.isfinite(a).all() for a in arrs):
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
    return IntegrationResult(state, rows, termination, collapse_t)


# ---------------------------------------------------------------------------
# 2D reduced system: y-independent, v dropped, Omega = 0
# ---------------------------------------------------------------------------

@dataclass
class State2D:
    """Baroclinic zonal velocity u(x, z): coefficients (nh, nz), n2 absent."""

    t: float
    u: np.ndarray

    def copy(self) -> "State2D":
        return State2D(self.t, self.u.copy())


def _kx1d(grid: GridSpec) -> np.ndarray:
    n = np.rint(np.fft.fftfreq(grid.nh) * grid.nh).astype(int)
    return (2.0 * np.pi * n)[:, None]


def _mask2d(grid: GridSpec) -> np.ndarray:
    n = np.rint(np.fft.fftfreq(grid.nh) * grid.nh).astype(int)
    m = np.arange(grid.nz)
    return (np.abs(n)[:, None] <= grid.hcut) & (m[None, :] <= grid.zcut)


def _vals2d(coeffs: np.ndarray, grid: GridSpec, basis: str) -> np.ndarray:
    import scipy.fft as sfft

    if basis == COS:
        u = coeffs.copy()
        u[..., 1:] /= np.sqrt(2.0)
        w = sfft.dct(u, type=3, axis=-1)
    else:
        u = np.zeros_like(coeffs)
        u[..., : grid.nz - 1] = coeffs[..., 1:] / np.sqrt(2.0)
        w = sfft.dst(u, type=3, axis=-1)
    return np.fft.ifft(w, axis=0) * grid.nh


def _coeffs2d(vals: np.ndarray, grid: GridSpec, basis: str) -> np.ndarray:
    import scipy.fft as sfft

    xh = np.fft.fft(vals, axis=0) / grid.nh
    if basis == COS:
        d = sfft.dct(xh, type=2, axis=-1)
        out = np.empty_like(d)
        out[..., 0] = d[..., 0] / (2 * grid.nz)
        out[..., 1:] = d[..., 1:] / (np.sqrt(2.0) * grid.nz)
        return out
    e = sfft.dst(xh, type=2, axis=-1)
    out = np.zeros_like(e)
    out[..., 1:] = e[..., : grid.nz - 1] / (np.sqrt(2.0) * grid.nz)
    return out


def rhs_2d(u: np.ndarray, grid: GridSpec, nu: float, include_viscous: bool = True) -> np.ndarray:
    """du = -u dx u + (int_0^z dx u) dz u + nu dzz u, barotropic part structurally zero.

    The dx P0(u^2) term of the reduced equation lives entirely in the m = 0
    slots, which the exact P0 subtraction removes; only the m >= 1 content of
    the two products survives.
    """
    ikx = 1j * _kx1d(grid)
    w = np.pi * np.arange(grid.nz)[None, :]
    p = _vals2d(u, grid, COS)
    px = _vals2d(ikx * u, grid, COS)
    dzp = _vals2d(-w * u, grid, SIN)
    divc = ikx * u
    intc = np.zeros_like(divc)
    intc[..., 1:] = divc[..., 1:] / w[..., 1:]
    intp = _vals2d(intc, grid, SIN)
    n = -p * px + intp * dzp
    out = _coeffs2d(n, grid, COS)
    out *= _mask2d(grid)
    out[..., 0] = 0.0
    _guard("advection_2d", out)
    if include_viscous:
        out = out - nu * w**2 * u
    return out


def step_2d(state: State2D, grid: GridSpec, nu: float, dt: float, scheme: str = "rk4_if") -> State2D:
    w = np.pi * np.arange(grid.nz)[None, :]
    if scheme == "rk4_if":
        def nl(a, t):
            return (rhs_2d(a[0], grid, nu, include_viscous=False),)

        eh = np.exp(-nu * w**2 * 0.5 * dt)
        ef = np.exp(-nu * w**2 * dt)
        (new,) = _if_rk4((state.u,), state.t, dt, nl, (eh,), (ef,))
    else:
        def rhs(a, t):
            return (rhs_2d(a[0], grid, nu, include_viscous=True),)

        (new,) = _plain_rk4((state.u,), state.t, dt, rhs)
    return State2D(state.t + dt, new)


def embed_2d(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Embed the compact 2D state into a square-grid 2-vector (v = 0)."""
    v = np.zeros((2, grid.nh, grid.nh, grid.nz), dtype=np.complex128)
    v[0, :, 0, :] = u
    return v


def norm_rst_2d(u: np.ndarray, grid: GridSpec, spec: NormSpec) -> float:
    return norm_rst(SpectralField(grid, embed_2d(u, grid), COS), spec)

