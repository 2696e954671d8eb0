"""The fast-rotation limit system: 2D Euler for the barotropic mode coupled
one-way to a linear transport + stretching + vertical-diffusion equation for
the baroclinic mode.

The Euler half is evolved in vorticity-streamfunction form so horizontal
incompressibility is structural; velocity is reconstructed on demand.  As in
the PE solver, the right-hand sides are non-diffusive and the vertical
diffusion acts through the RK4 step's integrating factor alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .decomposition import minus_projection, perp_vector, plus_projection, velocity_from_vorticity
from .decomposition import vorticity_from_velocity  # noqa: F401  (re-exported: builds a LimitState's omega_bar)
from .grid import GridSpec, dealias_mask, kx, ky
from .norms import NormSpec, ShellPower, dz_l2_sq, norm_rst
from .spectral import COS, band_pack, band_shape, band_unpack, barotropic_coeffs, barotropic_values
from .spectral import _workspace, coeffs_from_values, require_band, require_packed, values_from_coeffs
from .pe_solver import _check_run, _grad_stack, _guard, _if_rk4, _march, step_count


# the diagnostics' Sobolev norms: barotropic (r + 1, 0, 0), baroclinic (r, s, 0)
DIAG_R = 2.0
DIAG_S = 1


@dataclass
class LimitState:
    """Scalar barotropic vorticity (nh, nh) and baroclinic 2-vector (2, nh, nh, nz)."""

    t: float
    omega_bar: np.ndarray
    vtilde: np.ndarray

    def copy(self) -> "LimitState":
        return LimitState(self.t, self.omega_bar.copy(), self.vtilde.copy())


def euler2d_rhs(omega: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Vorticity tendency -Vbar . grad omega, dealiased; mean mode pinned to 0;
    into out if given."""
    if abs(omega[0, 0]) > 1e-12 * max(np.abs(omega).max(), 1e-300):
        raise ValueError("euler2d_rhs expects zero-mean vorticity")
    vbar = velocity_from_vorticity(omega, grid)
    ikx, iky = 1j * kx(grid)[..., 0], 1j * ky(grid)[..., 0]
    u1, u2, wx, wy = barotropic_values(np.stack([vbar[0], vbar[1], ikx * omega, iky * omega]), grid)
    out = np.negative(barotropic_coeffs(u1 * wx + u2 * wy, grid), out=out)
    out *= dealias_mask(grid)[:, :, 0]
    out[0, 0] = 0.0
    _guard("euler2d_advection", out)
    return out


def _limit_layout(g: GridSpec) -> dict:
    """The limit system's arrays in the grid's workspace (`spectral.Workspace`):
    the gradient stack of Vt, the pass buffer of its transforms, its real
    values, the barotropic values, and the four RK4 stage arrays of
    (omega_bar, Vt)."""
    nh, nz, band = g.nh, g.nz, band_shape(g)
    c, r = np.complex128, np.float64
    return {"grad": ((6, *band), c), "passes": ((6, nh, nh // 2 + 1, nz), c), "vals": ((6, nh, nh, nz), r),
            "bar": ((3, nh, nh), r), "stage_omega": ((4, nh, nh), c), "stage_vt": ((4, 2, *band), c)}


def transport_rhs(
    vtilde: np.ndarray, omega: np.ndarray, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """-Vbar . grad Vt - (1/2) Vt^perp (perp-div Vbar); nu dzz Vt is the
    integrating factor's.

    perp-div Vbar = -dy V1 + dx V2 is exactly the vorticity omega.  vtilde
    and the tendency are in the packed band layout (`band_pack`) that the
    stepper passes, which also passes the array `out` to write the tendency
    into.
    """
    require_packed(vtilde, grid)
    ws = _workspace(grid).arrays(_limit_layout)
    vbar = velocity_from_vorticity(omega, grid)
    bar = barotropic_values(np.concatenate([vbar, omega[None]]), grid, out=ws.bar)[..., None]
    vb, wphys = bar[0:2], bar[2:3]
    vals = values_from_coeffs(_grad_stack(vtilde, grid, out=ws.grad), grid, COS, real=True, out=ws.vals,
                              work=ws.passes)
    p, px, py = vals[0:2], vals[2:4], vals[4:6]
    # -(Vbar . grad) Vt - (1/2) Vt^perp omega, formed in place of px (py is spent too)
    n = np.multiply(vb[0:1], px, out=px)
    n += np.multiply(vb[1:2], py, out=py)
    np.negative(n, out=n)
    rot = np.multiply(0.5, perp_vector(p, out=py), out=py)
    n -= np.multiply(rot, wphys, out=rot)
    out = coeffs_from_values(n, grid, COS, out=out, work=ws.passes[:2])
    out[..., 0] = 0.0
    _guard("limit_transport", out)
    return out


def limit_to_vpm(vtilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V+- = (1/2)(Vt +- i Vt^perp); V+ + V- recovers Vt."""
    return plus_projection(vtilde), minus_projection(vtilde)


def _pack(state: LimitState, grid: GridSpec) -> tuple:
    """The arrays a step advances, (omega_bar, Vt packed); ValueError for a mode outside the band."""
    require_band(state.omega_bar[..., None], grid, "omega_bar")
    return state.omega_bar, band_pack(state.vtilde, grid, "vtilde")


def _unpack(arrs: tuple, t: float, grid: GridSpec) -> LimitState:
    """The state at time t of the arrays that `_pack` returns."""
    omega, vt = arrs
    return LimitState(t, omega, band_unpack(vt, grid))


def _advance(arrs: tuple, t: float, grid: GridSpec, nu: float, dt: float) -> tuple:
    """One RK4-IF step of the packed arrays at time t, its stages in the grid's workspace."""
    ws = _workspace(grid).arrays(_limit_layout)

    def nl(a, t, *, out):
        return euler2d_rhs(a[0], grid, out=out[0]), transport_rhs(a[1], a[0], grid, out=out[1])

    return _if_rk4(arrs, t, dt, nl, grid, nu, tuple(zip(ws.stage_omega, ws.stage_vt)))


def step_limit(state: LimitState, grid: GridSpec, nu: float, dt: float) -> LimitState:
    """One RK4-IF step; the baroclinic Vt steps in the packed band layout.  A
    state with a mode outside the 2/3-rule band, or a nu or dt that
    `SolverConfig` would reject, raises ValueError."""
    _check_run(nu, dt)
    return _unpack(_advance(_pack(state, grid), state.t, grid, nu, dt), state.t + dt, grid)


@dataclass
class LimitDiagnostics:
    """Per-step observables, including the Sobolev norms the growth bounds govern."""

    t: float
    energy_bar: float
    enstrophy: float
    vtilde_l2: float
    vbar_sobolev: float
    vtilde_sobolev: float


def integrate_limit(
    state0: LimitState, grid: GridSpec, nu: float, dt: float, t_end: float
) -> tuple[LimitState, list[LimitDiagnostics], list]:
    """(final state, one diagnostics row per state, []): the third element is
    always empty, kept for callers that unpack three values.  A state0 with a
    mode outside the 2/3-rule band, a nu, dt or t_end that `SolverConfig`
    would reject, or a t_end that is not a whole number of steps
    (`pe_solver.step_count`), raises ValueError.  state0 is packed once, the
    packed arrays go from step to step through `pe_solver._march`, and each
    row is read off them."""
    _check_run(nu, dt, t_end)
    arrs = _pack(state0, grid)
    n_steps = step_count(t_end, dt)
    diags = [_limit_diag(arrs, state0.t, grid)]

    def observe(arrs, t):
        diags.append(_limit_diag(arrs, t, grid))

    arrs, t, _ = _march(arrs, state0.t, dt, n_steps, partial(_advance, grid=grid, nu=nu, dt=dt), observe)
    return (_unpack(arrs, t, grid) if n_steps else state0.copy()), diags, []


def _limit_diag(arrs: tuple, t: float, grid: GridSpec) -> LimitDiagnostics:
    """Diagnostics at time t of the packed arrays (omega_bar, Vt), each field's
    norms read from one shell-power table."""
    omega_bar, vt = arrs
    bar = ShellPower.of(velocity_from_vorticity(omega_bar, grid), grid)
    tilde = ShellPower.of(vt, grid)
    return LimitDiagnostics(
        t=t,
        energy_bar=0.5 * dz_l2_sq(bar),
        enstrophy=0.5 * float(np.sum(np.abs(omega_bar) ** 2)),
        vtilde_l2=float(np.sqrt(dz_l2_sq(tilde))),
        vbar_sobolev=norm_rst(bar, NormSpec(r=DIAG_R + 1, s=0, tau=0.0)),
        vtilde_sobolev=norm_rst(tilde, NormSpec(r=DIAG_R, s=DIAG_S, tau=0.0)),
    )
