"""Projection algebra: barotropic/baroclinic split, horizontal Leray, P+/P-.

P0 keeps the vertical mean (m = 0 modes), the baroclinic part is its
complement, and P+/P- = (1/2)(I +- i J) restricted to the baroclinic part
diagonalize the rotation operator R f = (baroclinic f)^perp with
eigenvalues -+ i.  P+/P- outputs are intrinsically complex: they drop the
conjugate-symmetry (reality) invariant, which is restored by P+ + P-.

The array-level operators come first: Leray, curl, grad^perp and Biot-Savart
of the compact (2, nh, nh) barotropic mode (`leray` takes the 3-D layout
too), the rotation (a, b) -> (-b, a) and P+/P- of a baroclinic 2-vector.  The
solvers call them.  The SpectralField projections that the projection checks
certify (P0, the baroclinic part, perp, P+/P-, R) wrap them; the Leray
projection has only its array form, which the solvers apply to the
barotropic mode.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, k_h, ksq
from .spectral import SpectralField


@lru_cache(maxsize=None)
def _inverse_ksq(grid: GridSpec, shape: tuple) -> np.ndarray:
    """1/|k|^2 over the (n1, n2) axes of an array of this shape (`k_h`), 0 at k = 0."""
    kxx, kyy = k_h(grid, np.broadcast_to(0.0, shape))
    k2 = kxx**2 + kyy**2
    inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
    inv.flags.writeable = False
    return inv


def leray(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Horizontal Leray projection a - k (k . a)/|k|^2 of 2-vector coefficients,
    compact (2, nh, nh) or 3-D (2, nh, nh, nz); the k = 0 mode is unchanged."""
    kxx, kyy = k_h(grid, a)
    inv = _inverse_ksq(grid, a.shape)
    kdv = kxx * a[0] + kyy * a[1]
    out = a.copy()
    out[0] -= kxx * kdv * inv
    out[1] -= kyy * kdv * inv
    return out


def vorticity_from_velocity(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """omega = dx V2 - dy V1 on the compact (2, nh, nh) layout."""
    kxx, kyy = k_h(grid, a)
    return 1j * kxx * a[1] - 1j * kyy * a[0]


def perp_grad(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """grad^perp psi = (-dy psi, dx psi) of a compact (nh, nh) scalar."""
    kxx, kyy = k_h(grid, psi)
    return np.stack([-(1j * kyy * psi), 1j * kxx * psi])


def velocity_from_vorticity(omega: np.ndarray, grid: GridSpec) -> np.ndarray:
    """V = grad^perp psi with Delta psi = omega (zero-mean inversion)."""
    k2 = ksq(grid)[..., 0]
    inv = np.where(k2 > 0.0, -1.0 / np.where(k2 > 0.0, k2, 1.0), 0.0)
    return perp_grad(omega * inv, grid)


def perp_vector(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rotation (a, b) -> (-b, a) of 2-vector coefficients, any trailing
    layout, into out if given (not a itself)."""
    if out is None:
        return np.concatenate([-a[1:2], a[0:1]], axis=0)
    np.negative(a[1:2], out=out[0:1])
    out[1:2] = a[0:1]
    return out


def polarized(phi: np.ndarray) -> np.ndarray:
    """The 2-vector phi (1, i) of a (1, nh, nh, nz) scalar phi."""
    return np.concatenate([phi, 1j * phi], axis=0)


def plus_projection(vt: np.ndarray) -> np.ndarray:
    """P+ Vt = (1/2)(Vt + i Vt^perp) = phi (1, i), phi = (1/2)(Vt_x - i Vt_y), of a baroclinic Vt."""
    return polarized(0.5 * (vt[0:1] - 1j * vt[1:2]))


def minus_projection(vt: np.ndarray) -> np.ndarray:
    """P- Vt = (1/2)(Vt - i Vt^perp) = conj P+ conj Vt, the conjugates taken coefficientwise."""
    return np.conj(plus_projection(np.conj(vt)))


def p0(v: SpectralField) -> SpectralField:
    """Projection onto the barotropic (m = 0) modes; idempotent."""
    out = np.zeros_like(v.coeffs)
    if v.basis == "cos":
        out[..., 0] = v.coeffs[..., 0]
    # sine-basis fields have no m = 0 content: projection is zero
    return SpectralField(v.grid, out, v.basis)


def baroclinic(v: SpectralField) -> SpectralField:
    """V - P0 V."""
    out = v.coeffs.copy()
    if v.basis == "cos":
        out[..., 0] = 0.0
    return SpectralField(v.grid, out, v.basis)


def perp(v: SpectralField) -> SpectralField:
    """(a, b) -> (-b, a)."""
    if v.components != 2:
        raise ValueError("perp expects a 2-vector field")
    return SpectralField(v.grid, perp_vector(v.coeffs), v.basis)


def p_plus(v: SpectralField) -> SpectralField:
    """P+ V = (1/2)(Vt + i Vt^perp), Vt the baroclinic part."""
    return SpectralField(v.grid, plus_projection(baroclinic(v).coeffs), v.basis)


def p_minus(v: SpectralField) -> SpectralField:
    """P- V = (1/2)(Vt - i Vt^perp)."""
    return SpectralField(v.grid, minus_projection(baroclinic(v).coeffs), v.basis)


def rotation_r(v: SpectralField) -> SpectralField:
    """R V = (baroclinic V)^perp; satisfies R P+- = -+ i P+-."""
    return perp(baroclinic(v))
