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

import numpy as np

from .decomposition import minus_projection, perp_vector, plus_projection, velocity_from_vorticity
from .decomposition import vorticity_from_velocity  # noqa: F401  (re-exported: builds a LimitState's omega_bar)
from .grid import GridSpec, dealias_mask, kx, ky
from .spectral import COS, band_pack, band_unpack, barotropic_coeffs, barotropic_values, coeffs_from_values
from .spectral import require_band, values_from_coeffs
from .pe_solver import _grad_stack, _guard, _if_rk4


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


def euler2d_rhs(omega: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Vorticity tendency -Vbar . grad omega, dealiased; mean mode pinned to 0."""
    if abs(omega[0, 0]) > 1e-12 * max(np.abs(omega).max(), 1e-300):
        raise ValueError("euler2d_rhs expects zero-mean vorticity")
    vbar = velocity_from_vorticity(omega, grid)
    ikx, iky = 1j * kx(grid)[..., 0], 1j * ky(grid)[..., 0]
    u1, u2, wx, wy = barotropic_values(np.stack([vbar[0], vbar[1], ikx * omega, iky * omega]), grid)
    out = -barotropic_coeffs(u1 * wx + u2 * wy, grid)
    out *= dealias_mask(grid)[:, :, 0]
    out[0, 0] = 0.0
    _guard("euler2d_advection", out)
    return out


def transport_rhs(vtilde: np.ndarray, omega: np.ndarray, grid: GridSpec) -> np.ndarray:
    """-Vbar . grad Vt - (1/2) Vt^perp (perp-div Vbar); nu dzz Vt is the
    integrating factor's.

    perp-div Vbar = -dy V1 + dx V2 is exactly the vorticity omega.  vtilde
    and the tendency are in the packed band layout (`band_pack`) that the
    stepper passes.
    """
    vbar = velocity_from_vorticity(omega, grid)
    bar = barotropic_values(np.concatenate([vbar, omega[None]]), grid)[..., None]
    vb, wphys = bar[0:2], bar[2:3]
    vals = values_from_coeffs(_grad_stack(vtilde, grid), grid, COS, real=True)
    p, px, py = vals[0:2], vals[2:4], vals[4:6]
    n = -(vb[0:1] * px + vb[1:2] * py)
    n -= 0.5 * perp_vector(p) * wphys
    out = coeffs_from_values(n, grid, COS)
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
    """One RK4-IF step of the packed arrays at time t."""
    def nl(a, t):
        return euler2d_rhs(a[0], grid), transport_rhs(a[1], a[0], grid)

    return _if_rk4(arrs, t, dt, nl, grid, nu)


def step_limit(state: LimitState, grid: GridSpec, nu: float, dt: float) -> LimitState:
    """One RK4-IF step; the baroclinic Vt steps in the packed band layout, and
    a state with a mode outside the 2/3-rule band raises ValueError."""
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
    mode outside the 2/3-rule band raises ValueError.  state0 is packed once,
    and each step's state is built from the packed arrays for its diagnostics."""
    arrs = _pack(state0, grid)
    state = state0.copy()
    diags = [_limit_diag(state, grid)]
    for _ in range(int(round(t_end / dt))):
        arrs = _advance(arrs, state.t, grid, nu, dt)
        state = _unpack(arrs, state.t + dt, grid)
        diags.append(_limit_diag(state, grid))
    return state, diags, []


def _limit_diag(state: LimitState, grid: GridSpec) -> LimitDiagnostics:
    """Diagnostics of a limit state, each field's norms read from one shell-power table."""
    from .norms import NormSpec, ShellPower, dz_l2_sq, norm_rst

    bar = ShellPower.of(velocity_from_vorticity(state.omega_bar, grid), grid)
    tilde = ShellPower.of(state.vtilde, grid)
    return LimitDiagnostics(
        t=state.t,
        energy_bar=0.5 * dz_l2_sq(bar),
        enstrophy=0.5 * float(np.sum(np.abs(state.omega_bar) ** 2)),
        vtilde_l2=float(np.sqrt(dz_l2_sq(tilde))),
        vbar_sobolev=norm_rst(bar, NormSpec(r=DIAG_R + 1, s=0, tau=0.0)),
        vtilde_sobolev=norm_rst(tilde, NormSpec(r=DIAG_R, s=DIAG_S, tau=0.0)),
    )
