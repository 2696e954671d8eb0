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

The right-hand sides and the RK4 stages work in one `spectral.Workspace`
per grid, whose arrays are reused from call to call: the transforms' pass
buffers, the physical values and assembly fields, and the RK4 stage arrays.
The contract: the workspace is per grid and shared by the formulations and
the lemma checker, which never run at once; it is not re-entrant (no
right-hand side or step may run inside another on the same grid, or on
another thread); and nothing returned aliases it, since every tendency,
step result and state comes back in fresh arrays or in the caller's `out`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import leray, perp_vector, plus_projection, polarized, vorticity_from_velocity
from .grid import GridSpec, dealias_mask, k_h, mpi
from .io import DiagnosticsRow
from .norms import InsufficientDecayData, NormSpec, ShellPower, dz_l2_sq, fit_radius, norm_rst
from .spectral import COS, SIN, SpectralRangeError, band_gather, band_pack, band_shape, band_unpack
from .spectral import barotropic_coeffs, barotropic_values, coeffs_from_values, conjugate_reverse, divergence
from .spectral import integral_z, is_packed, require_band, require_packed, require_real, values_from_coeffs
from .spectral import _workspace


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
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be a finite number, got {self.omega!r}")
        _check_run(self.nu, self.dt, self.t_end)
        if self.formulation not in ("rotating", "direct"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.formulation == "rotating" and self.dt * abs(self.omega) > 0.5 + 1e-12:
            raise ValueError("dt * |omega| must be <= 0.5 in the rotating formulation")


def _check_run(nu: float, dt: float, t_end: float = 0.0) -> None:
    """The rules of every stepper's parameters: nu, dt and t_end finite,
    nu > 0, dt > 0 and t_end >= 0; ValueError names the argument."""
    for name, x, rule in (("nu", nu, "positive"), ("dt", dt, "positive"), ("t_end", t_end, ">= 0")):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be a finite number, got {x!r}")
        if not (x > 0 if rule == "positive" else x >= 0):
            raise ValueError(f"{name} must be {rule}, got {x!r}")


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
    return _lab_frame(state.vbar, state.vplus, state.vminus, omega, state.t)


def _lab_frame(vbar, vplus, vminus, omega: float, t: float) -> np.ndarray:
    """V = Vbar + e^{i Omega t} V+ + e^{-i Omega t} V- at time t, in the 3-D
    layout of vplus and vminus (full or packed band), vbar its m = 0 slice."""
    v = np.exp(1j * omega * t) * vplus + np.exp(-1j * omega * t) * vminus
    v[..., 0] += vbar
    return v


# ---------------------------------------------------------------------------
# the layouts of the per-grid workspace (`spectral.Workspace`)
# ---------------------------------------------------------------------------

def _rotating_layout(g: GridSpec) -> dict:
    """The rotating formulation's arrays: the band stacks of phi that it
    transforms, their complex values, three assembly fields, the barotropic
    gradient stack, its values and the two couplings to V+, and the four
    RK4 stage arrays of (Vbar, phi)."""
    nh, nz, band = g.nh, g.nz, band_shape(g)
    c, r = np.complex128, np.float64
    return {"grad": ((3, *band), c), "sines": ((2, *band), c), "cos": ((3, nh, nh, nz), c),
            "sin": ((2, nh, nh, nz), c), "asm": ((3, nh, nh, nz), c), "bgrad": ((6, nh, nh, 1), c),
            "bar": ((6, nh, nh), r), "cpm": ((2, nh, nh, 1), c), "stage_bar": ((4, 2, nh, nh), c),
            "stage_phi": ((4, 1, *band), c)}


def _direct_layout(g: GridSpec) -> dict:
    """The direct formulation's arrays: the band stacks of V that it
    transforms, one pass buffer for its three transforms, the real values,
    the forward's output, and the four RK4 stage arrays of V."""
    nh, nz, band = g.nh, g.nz, band_shape(g)
    c, r = np.complex128, np.float64
    return {"grad": ((6, *band), c), "passes": ((6, nh, nh // 2 + 1, nz), c), "cvals": ((6, nh, nh, nz), r),
            "svals": ((3, nh, nh, nz), r), "nhat": ((2, *band), c), "stage": ((4, 2, *band), c)}


# ---------------------------------------------------------------------------
# array-level building blocks
# ---------------------------------------------------------------------------

def _plus_values(phi: np.ndarray, grid: GridSpec) -> tuple:
    """Physical phi, dx phi, dy phi (cos) and dz phi, int_0^z div V+ (sin) of V+ = phi (1, i),
    phi in the packed band layout, in the arrays of the grid's rotating layout.

    Two stacked transforms of one complex scalar: div V+ = dx phi + i dy phi.
    """
    ws = _workspace(grid).arrays(_rotating_layout)
    grad = _grad_stack(phi, grid, out=ws.grad)
    sines = ws.sines
    np.multiply(-mpi(grid, phi), phi, out=sines[0:1])
    np.multiply(1j, grad[2:3], out=sines[1:2])
    np.add(grad[1:2], sines[1:2], out=sines[1:2])
    integral_z(sines[1:2], grid, out=sines[1:2])
    p, px, py = values_from_coeffs(grad, grid, COS, out=ws.cos)
    dz, intp = values_from_coeffs(sines, grid, SIN, out=ws.sin)
    return p, px, py, dz, intp


def _grad_stack(c: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """(c, dx c, dy c) stacked on the component axis, c in a 3D layout (full or
    packed band), into out if given."""
    k = len(c)
    kxx, kyy = k_h(grid, c)
    out = np.empty((3 * k, *c.shape[1:]), dtype=np.complex128) if out is None else out
    out[:k] = c
    np.multiply(1j * kxx, c, out=out[k : 2 * k])
    np.multiply(1j * kyy, c, out=out[2 * k :])
    return out


def _adv(a: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(a . grad) b in physical space; a is (2, ...), bx/by are grad components."""
    return a[0:1] * bx + a[1:2] * by


def _fwd_baroclinic(vals: np.ndarray, grid: GridSpec, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Forward transform of a cos-basis tendency group, dealiased, m=0 removed
    (`coeffs_from_values`' out and work).

    Zeroing m = 0 realizes the exact P0 subtraction of the baroclinic
    equations (the divergence/w integration-by-parts identity holds
    structurally for baroclinic inputs).
    """
    out = coeffs_from_values(vals, grid, COS, out=out, work=work)
    out[..., 0] = 0.0
    return out


def _guard(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise TendencyNanError(name)
    return arr


def _plus_groups(vals: tuple, vb3, cplus, cminus, ep, em, asm, check=lambda name, group: None):
    """Returns s, and sums the four V+ tendency groups (x-components) into acc
    of the rotating layout's asm = (acc, t1, t2), from the values vals = (p,
    px, py, dz, intp) of `_plus_values`; p's array holds conj(p) on return.
    check(name, group) sees each group, in a reused array, before the sum.

    The oscillatory prefactors are scalars at fixed t, so the four groups
    combine in physical space, for one forward transform of one component:
      e^{i Omega t} (selfadv - int_0^z div V+ dz phi) + (Vbar . grad phi + phi cplus / 2)
      + e^{-i Omega t} (conj(phi) (dx - i dy) phi - conj(int_0^z div V+) dz phi)
      + (e^{-2 i Omega t} / 2) conj(phi) cminus
    with selfadv = phi div V+, so (V+ . grad) V+ = selfadv (1, i).  Each
    complex product has named operands in the order written here, which
    fixes its rounding: numpy would evaluate a * (b + c) as (b + c) * a in a
    temporary of 256 KiB or more."""
    p, px, py, dz, intp = vals
    acc, t1, t2 = asm
    selfadv = np.multiply(1j, py, out=t1)
    selfadv += px
    np.multiply(p, selfadv, out=selfadv)
    # the V+ source of the Vbar equation, (V+ . grad) V+ + (div V+) V+, is s (1, i)
    # with s the z-mean of 2 phi div V+ e^{2 i Omega t}; the V- source is its conjugate
    s = (ep * ep) * (2.0 * selfadv.mean(axis=-1))
    np.multiply(intp, dz, out=acc)
    np.subtract(selfadv, acc, out=acc)
    np.multiply(ep, acc, out=acc)
    check("plus_self", acc)
    group = np.multiply(vb3[0], px, out=t1)
    group += np.multiply(vb3[1], py, out=t2)
    group += np.multiply(np.multiply(0.5, p, out=t2), cplus, out=t2)
    check("plus_barotropic", group)
    acc += group
    pm = np.conjugate(p, out=p)
    group = np.subtract(px, np.multiply(1j, py, out=t1), out=t1)
    np.multiply(pm, group, out=group)
    group -= np.multiply(np.conjugate(intp, out=t2), dz, out=t2)
    np.multiply(em, group, out=group)
    check("plus_cross", group)
    acc += group
    group = np.multiply(pm, cminus, out=t1)
    np.multiply(em * em * 0.5, group, out=group)
    check("plus_conjugate_coupling", group)
    acc += group
    return s


# ---------------------------------------------------------------------------
# rotating-frame right-hand side
# ---------------------------------------------------------------------------

def rhs_rotating(
    state: RotatingState | tuple,
    t: float,
    cfg: SolverConfig,
    *,
    cfl: bool = False,
    out: tuple | None = None,
) -> tuple:
    """Non-diffusive tendencies of the rotating-frame equations (nu dzz is
    the integrating factor's).

    For a RotatingState the result is (dVbar, dV+, dV-), with dV+ = dphi (1, i)
    polarized like V+ and dV- its conjugate partner conjugate_reverse(dV+); a
    V+ with a mode outside the 2/3-rule band raises ValueError.  The time
    steppers pass the bare (vbar, phi) arrays instead, phi = vplus[0:1] in the
    packed band layout (`band_pack`), and get (dVbar, dphi) alone, dphi
    packed, written into the arrays `out` when given.  With cfl=True the
    advective CFL limit of the state at time t (what `cfl_limit` returns) is
    appended to the tuple; it is read off the physical values this
    evaluation forms anyway.

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
    return _rhs_plus(vbar, phi, t, cfg, cfl, out)


def _rhs_plus(vbar, phi, t: float, cfg: SolverConfig, cfl: bool = False, out: tuple | None = None):
    """(dVbar, dphi) of V+ = phi (1, i), phi and dphi packed, into the arrays
    out when given; V- enters as the conjugate of V+.

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
    require_packed(phi, g)
    p, *_, intp = vals = _plus_values(phi, g)
    ws = _workspace(g).arrays(_rotating_layout)
    acc, t1 = ws.asm[:2]

    # barotropic phys fields (2D, real): velocity and gradients
    bar = barotropic_values(_grad_stack(vbar[..., None], g, out=ws.bgrad)[..., 0], g, out=ws.bar)
    vb, gx, gy = bar[0:2], bar[2:4], bar[4:6]
    vb3 = vb[..., None]
    # x-components of (1, i).grad and (1, -i).grad of Vbar + i Vbar^perp
    cplus, cminus = ws.cpm
    np.add(gx[0] + gy[1], 1j * (gy[0] - gx[1]), out=cplus[..., 0])
    np.subtract(gx[0] - gy[1], 1j * (gx[1] + gy[0]), out=cminus[..., 0])

    ep = np.exp(1j * om * t)
    em = np.exp(-1j * om * t)
    extra = ()
    if cfl:
        lab = np.multiply(2.0 * ep, p, out=acc)  # u - i v = Vbar_x - i Vbar_y + 2 e^{i Omega t} phi
        lab.real += vb3[0]
        lab.imag -= vb3[1]
        umax = max(_abs_max(lab.real), _abs_max(lab.imag))
        np.multiply(2.0 * ep, intp, out=lab)  # -w + i (...)
        extra = (_cfl_from_maxima(umax, _abs_max(lab.real), cfg),)

    s = _plus_groups(vals, vb3, cplus, cminus, ep, em, ws.asm)
    dhat = _fwd_baroclinic(acc[None], g, out=None if out is None else out[1], work=t1[None])
    if not np.isfinite(dhat).all():
        # slow path: restore p and replay the groups, naming the first non-finite one
        np.conjugate(p, out=p)
        _plus_groups(vals, vb3, cplus, cminus, ep, em, ws.asm, check=_guard)
        raise TendencyNanError("combined_baroclinic_tendency")
    dphi = np.negative(dhat, out=dhat)

    # --- Vbar equation: self terms of V+ and V-, averaged over z, Leray-projected ---
    # the V+ and V- sources together are (2 Re s, -2 Im s)
    mask2 = dealias_mask(g)[:, :, 0]
    b0 = barotropic_coeffs(_adv(vb, gx, gy) + 2.0 * np.stack([s.real, -s.imag]), g)
    dvb = np.negative(leray(b0, g), out=None if out is None else out[0])
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
    out: np.ndarray | None = None,
):
    """-V.grad V - w dz V - Omega V^perp, pressure removed by projection (nu dzz
    is the integrating factor's).

    v is the full layout (2, nh, nh, nz), whose modes outside the 2/3-rule
    band raise ValueError, or the packed band (`band_pack`) that the stepper
    passes, with the array `out` to write the tendency into; the tendency
    comes back in v's layout.  With cfl=True the result is (tendency, CFL
    limit of v), the limit read off the values of V and w that the nonlinear
    terms transform anyway.
    """
    g = cfg.grid
    full = not is_packed(v, g)
    if full:
        v = band_pack(v, g, "v")
    ws = _workspace(g).arrays(_direct_layout)
    grad = _grad_stack(v, g, out=ws.grad)
    cvals = values_from_coeffs(grad, g, COS, real=True, out=ws.cvals, work=ws.passes)
    # the sine stack in the gradient stack's first arrays: -int_0^z div V, with
    # -div V = -(dx V_x + dy V_y) read off the gradient stack, after dz V
    sines = grad[:3]
    np.negative(np.add(grad[2], grad[5], out=sines[2]), out=sines[2])
    integral_z(sines[2:3], g, out=sines[2:3])
    np.multiply(-mpi(g, v), v, out=sines[0:2])
    svals = values_from_coeffs(sines, g, SIN, real=True, out=ws.svals, work=ws.passes[:3])
    p, px, py = cvals[0:2], cvals[2:4], cvals[4:6]
    dzp, wphys = svals[0:2], svals[2:3]
    if cfl:
        lim = _cfl_from_maxima(_abs_max(p), _abs_max(wphys), cfg)
    # -(V . grad) V - w dz V, formed in place of px (py and dzp are spent too)
    n = np.multiply(p[0:1], px, out=px)
    n += np.multiply(p[1:2], py, out=py)
    np.negative(n, out=n)
    n -= np.multiply(wphys, dzp, out=dzp)
    nhat = coeffs_from_values(n, g, COS, out=ws.nhat, work=ws.passes[:2])
    _guard("advection", nhat)
    if out is None:
        out = np.zeros_like(v)
    else:
        out.fill(0.0)
    out += nhat
    out -= np.multiply(cfg.omega, perp_vector(v, out=nhat), out=nhat)
    # pressure projection: baroclinic part untouched, barotropic part Leray-projected
    out[..., 0] = leray(out[..., 0], g)
    if full:
        out = band_unpack(out, g)
    return (out, lim) if cfl else out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _if_rk4(arrs: tuple, t: float, dt: float, nl, grid: GridSpec, nu: float, stages, k1=None) -> tuple:
    """Classical RK4 on the integrating-factor variable; exact for pure diffusion.

    The last array of arrs is the evolved 3-D one, in the packed band layout:
    the vertical diffusion nu dzz acts on it through the factors
    e^{-nu (m pi)^2 h}, h = dt/2 and dt.  The compact barotropic arrays in
    front of it (Vbar, omega_bar) have no vertical mode and get no factor.

    stages are four tuples of arrays shaped like arrs that the step works
    in: the stage input and three tendencies, which nl(y, t, out=k) writes
    into.  k1 is the stage-1 tendency nl(arrs, t), in the first of them,
    when the caller has evaluated it.  The new arrays are fresh.
    """
    eh, ef = _decay_factors(arrs[-1], grid, nu, dt)
    e_half = (1.0,) * (len(arrs) - 1) + (eh,)
    e_full = (1.0,) * (len(arrs) - 1) + (ef,)
    y, *ks = stages
    if k1 is None:
        k1 = nl(arrs, t, out=ks[0])
    for i, a in enumerate(arrs):  # y2 = e_half (a + dt/2 k1)
        yi = np.multiply(0.5 * dt, k1[i], out=y[i])
        yi += a
        yi *= e_half[i]
    # the increment dt/6 (e_full k1 + 2 e_half (k2 + k3) + k4), summed in the first arrays
    inc = [np.multiply(e_full[i], k1[i], out=ks[0][i]) for i in range(len(arrs))]
    k2 = nl(y, t + 0.5 * dt, out=ks[1])
    for i, a in enumerate(arrs):  # y3 = e_half a + dt/2 k2, the third arrays the scratch
        yi = np.multiply(e_half[i], a, out=y[i])
        yi += np.multiply(0.5 * dt, k2[i], out=ks[2][i])
    k3 = nl(y, t + 0.5 * dt, out=ks[2])
    for i, a in enumerate(arrs):  # y4 = e_full a + dt e_half k3, the second arrays the scratch
        inc[i] += np.multiply(2.0 * e_half[i], np.add(k2[i], k3[i], out=ks[1][i]), out=ks[1][i])
        yi = np.multiply(e_full[i], a, out=y[i])
        yi += np.multiply(dt * e_half[i], k3[i], out=ks[1][i])
    k4 = nl(y, t + dt, out=ks[2])
    new = []
    for i, a in enumerate(arrs):
        inc[i] += k4[i]
        inc[i] *= dt / 6.0
        ai = np.multiply(e_full[i], a)
        ai += inc[i]
        new.append(ai)
    return tuple(new)


def _decay_factors(a: np.ndarray, grid: GridSpec, nu: float, dt: float) -> tuple:
    """(e^{-nu (m pi)^2 dt/2}, e^{-nu (m pi)^2 dt}) over the m axis of a: the
    only place the vertical diffusion nu dzz acts."""
    rate = -nu * mpi(grid, a) ** 2
    return np.exp(rate * (0.5 * dt)), np.exp(rate * dt)


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
    if not isinstance(state, np.ndarray):
        state = direct_from_rotating(state, cfg.omega) if isinstance(state, RotatingState) else state.v
    v = band_pack(state, g, "v")
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
    CflError before stages 2-4 run.  The stages run in the grid's workspace."""
    if cfg.formulation == "rotating":
        ws = _workspace(cfg.grid).arrays(_rotating_layout)
        stages = tuple(zip(ws.stage_bar, ws.stage_phi))

        def rhs(a, t, cfl=False, *, out):
            return rhs_rotating(a, t, cfg, cfl=cfl, out=out)
    else:
        stages = tuple((k,) for k in _workspace(cfg.grid).arrays(_direct_layout).stage)

        def rhs(a, t, cfl=False, *, out):
            res = rhs_direct(a[0], t, cfg, cfl=cfl, out=out[0])
            return res if cfl else (res,)

    *k1, lim = rhs(arrs, t, cfl=True, out=stages[1])
    if check_cfl and cfg.dt > lim:
        raise CflError(cfg.dt, lim)
    return _if_rk4(arrs, t, cfg.dt, rhs, cfg.grid, cfg.nu, k1=k1, stages=stages), lim


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


def _row(
    t: float, vbar: np.ndarray, v: np.ndarray, power: ShellPower, cfg: SolverConfig, report: NormSpec,
    tau_tracked: float,
):
    """(diagnostics row, number of failed radius fits) at time t of a state whose
    compact barotropic velocity is vbar and whose lab-frame coefficients
    (full layout or packed band) are v, with the shell-power table `power`."""
    g = cfg.grid
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
        t=t,
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


def _lab_band(arrs: tuple, t: float, cfg: SolverConfig) -> np.ndarray:
    """The packed band of the lab-frame velocity V of the stepped arrays at
    time t: V itself, or Vbar + e^{i Omega t} V+ + e^{-i Omega t} V- with
    V+ = phi (1, i) and V- its conjugate partner."""
    if cfg.formulation == "direct":
        return arrs[0]
    vbar, phi = arrs
    vplus = polarized(phi)
    return _lab_frame(band_gather(vbar[..., None], cfg.grid)[..., 0], vplus, conjugate_reverse(vplus), cfg.omega, t)


def _norms_for_tracker(power: ShellPower, r: float):
    """norms_at(tau) callback on a shell-power table: (||V||_{r,0,tau}, ||dz V||_{r,0,tau})."""
    dz_power = power.dz()

    def norms_at(tau: float):
        return (
            norm_rst(power, NormSpec(r=r, s=0, tau=tau)),
            norm_rst(dz_power, NormSpec(r=r, s=0, tau=tau)),
        )

    return norms_at


def step_count(t_end: float, dt: float) -> int:
    """The number of steps of dt that reach t_end.  A t_end that is not a
    whole number of steps, to 1e-9 relative, raises ValueError rather than
    be moved to the nearest one."""
    n = t_end / dt
    if abs(n - round(n)) > 1e-9 * n:
        raise ValueError(f"t_end ({t_end!r}) must be a whole number of steps of dt ({dt!r})")
    return int(round(n))


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
    step through the one time loop, `_march`.  The CFL limit of each
    pre-step state comes from stage 1 of its RK4 step, which evaluates the
    RHS there and so holds the physical velocity: with check_cfl a dt over
    the limit raises CflError before the step is accepted, and the smallest
    limit / dt is recorded either way.
    At state0 and after each step the packed band of the lab-frame velocity
    is formed once and its shell-power table built once; the tau tracker
    (stepped after each step) and the diagnostics row (norms, fits, energy,
    baroclinic L2) all read that table.  A full state is built from the
    packed arrays only for the state_observer and for the result.
    """
    report = report or NormSpec(r=2.0, s=0, tau=0.0)
    g = cfg.grid
    rotating = cfg.formulation == "rotating"
    arrs = _pack(state0, cfg)
    n_steps = step_count(cfg.t_end, cfg.dt)
    rows, failures, margins = [], [], []
    collapse_t = None

    def record(arrs, t, step_tracker):
        v = _lab_band(arrs, t, cfg)
        power = ShellPower.of(v, g)
        if step_tracker and tau_tracker is not None:
            tau_tracker.step(cfg.dt, _norms_for_tracker(power, report.r))
        tau_now = tau_tracker.tau if tau_tracker is not None else float("nan")
        vbar = arrs[0] if rotating else band_unpack(v[..., 0:1], g)[..., 0]
        row, failed = _row(t, vbar, v, power, cfg, report, tau_now)
        rows.append(row)
        failures.append(failed)
        if observer:
            observer(row)
        return row

    def advance(arrs, t):
        arrs, lim = _advance(arrs, t, cfg, check_cfl)
        margins.append(lim / cfg.dt)
        return arrs

    def observe(arrs, t):
        nonlocal collapse_t
        row = record(arrs, t, True)
        if state_observer:
            state_observer(_unpack(arrs, t, cfg))
        if any(not np.isfinite(a).all() for a in arrs):
            return "nan"
        if np.isfinite(row.norm_r0tau) and row.norm_r0tau > blowup_factor * max(first.norm_r0tau, 1e-300):
            return "blowup_sentinel"
        fit, fit0 = row.tau_fit_h, first.tau_fit_h
        if collapse_t is None and np.isfinite(fit0) and np.isfinite(fit) and fit < 0.05 * fit0:
            collapse_t = t
        return None

    first = record(arrs, state0.t, False)
    if state_observer:
        state_observer(state0.copy())
    arrs, t, stop = _march(arrs, state0.t, cfg.dt, n_steps, advance, observe)
    termination = stop or "completed"
    rows[-1].termination = termination
    fallbacks = 0 if tau_tracker is None else sum(not np.isfinite(row.tau_tracked) for row in rows)
    return IntegrationResult(_unpack(arrs, t, cfg) if n_steps else state0.copy(), rows, termination, collapse_t,
                             min(margins, default=None), sum(failures), fallbacks)


def _march(arrs: tuple, t: float, dt: float, n_steps: int, advance, observe) -> tuple:
    """The one time loop of every system: n_steps steps of dt from time t of
    the packed arrays, each advance(arrs, t) -> the arrays at t + dt, each
    followed by observe(arrs, t + dt), which stops the march by returning a
    reason.  Returns (last arrays, their time, the reason or None)."""
    for _ in range(n_steps):
        arrs = advance(arrs, t)
        t += dt
        if stop := observe(arrs, t):
            return arrs, t, stop
    return arrs, t, None


# ---------------------------------------------------------------------------
# 2D reduced system: y-independent, v dropped, Omega = 0
# ---------------------------------------------------------------------------

def _xz_layout(g: GridSpec) -> dict:
    """The 2D reduced system's arrays: the four RK4 stage arrays of u, on the
    packed band of the x-z layout."""
    n1, _, m = band_shape(g)
    return {"stage": ((4, 1, n1, 1, m), np.complex128)}


def rhs_2d(u: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """du = -u dx u + (int_0^z dx u) dz u, barotropic part structurally zero
    (nu dzz u is the integrating factor's).

    u is real and in the x-z layout (1, nh, 1, nz), so it takes the real 3-D
    transforms.  The dx P0(u^2) term of the reduced equation lives entirely
    in the m = 0 slots, which the exact P0 subtraction removes; only the
    m >= 1 content of the two products survives.  u and the tendency are
    in the packed band layout (1, 2 hcut + 1, 1, zcut + 1) that the stepper
    passes (`band_pack`), the tendency written into the array `out` when
    given.
    """
    dxu = 1j * k_h(grid, u)[0] * u
    p, px = values_from_coeffs(np.concatenate([u, dxu]), grid, COS, real=True)
    sines = np.concatenate([-mpi(grid, u) * u, integral_z(dxu, grid)])
    dzp, intp = values_from_coeffs(sines, grid, SIN, real=True)
    out = coeffs_from_values((intp * dzp - p * px)[None], grid, COS, out=out)
    out[..., 0] = 0.0
    _guard("advection_2d", out)
    return out


def _advance_2d(arrs: tuple, t: float, grid: GridSpec, nu: float, dt: float) -> tuple:
    """One RK4-IF step of the packed x-z band (u,) at time t, its stages in
    the grid's workspace."""
    def nl(a, t, *, out):
        return (rhs_2d(a[0], grid, out=out[0]),)

    stages = tuple((k,) for k in _workspace(grid).arrays(_xz_layout).stage)
    return _if_rk4(arrs, t, dt, nl, grid, nu, stages)
