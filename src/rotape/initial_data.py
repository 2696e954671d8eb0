"""Initial-data generators.

All generators draw complex Gaussians on the retained (dealiased) modes with
an analytic envelope e^{-tau0 |k| - eta0 m pi}, then conjugate-symmetrize so
the represented field is real.  Barotropic parts come from a streamfunction,
so they are divergence-free and mean-zero by construction.
"""

from __future__ import annotations

import numpy as np

from .decomposition import perp_grad
from .grid import GridSpec, dealias_mask, kabs, mode_numbers, mpi
from .norms import NormSpec, norm_rst
from .spectral import COS, SpectralField, symmetrize


def _envelope(grid: GridSpec, tau: float, eta: float) -> np.ndarray:
    return np.exp(-tau * kabs(grid) - eta * mpi(grid))


def random_scalar(
    grid: GridSpec,
    rng: np.random.Generator,
    tau: float = 0.5,
    eta: float = 0.3,
    baroclinic: bool = False,
    real: bool = True,
) -> SpectralField:
    """Random analytic scalar field with prescribed spectral envelope."""
    shape = (1, *grid.shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a *= _envelope(grid, tau, eta)
    a *= dealias_mask(grid)[None, ...]
    if baroclinic:
        a[..., 0] = 0.0
    if real:
        a = symmetrize(a)
    return SpectralField(grid, a, COS)


def random_vector(
    grid: GridSpec,
    rng: np.random.Generator,
    tau: float = 0.5,
    eta: float = 0.3,
    baroclinic: bool = False,
    real: bool = True,
) -> SpectralField:
    u = random_scalar(grid, rng, tau, eta, baroclinic, real)
    v = random_scalar(grid, rng, tau, eta, baroclinic, real)
    return SpectralField(grid, np.concatenate([u.coeffs, v.coeffs], axis=0), COS)


def random_barotropic(
    grid: GridSpec, rng: np.random.Generator, tau: float = 0.5
) -> np.ndarray:
    """Divergence-free mean-zero barotropic 2-vector, compact (2, nh, nh) layout.

    Built as grad^perp of a random streamfunction, so incompressibility is
    structural rather than projected.
    """
    psi = random_scalar(grid, rng, tau, 0.0).coeffs[0, :, :, 0]
    psi[0, 0] = 0.0
    return perp_grad(psi, grid)


def scale_barotropic(vbar: np.ndarray, target_l2: float) -> np.ndarray:
    cur = np.sqrt(np.sum(np.abs(vbar) ** 2))
    if cur == 0.0:
        return vbar
    return vbar * (target_l2 / cur)


def random_state(
    grid: GridSpec,
    rng: np.random.Generator,
    tau0: float = 0.5,
    eta0: float = 0.3,
    amplitude: float = 1.0,
    baroclinic_fraction: float = 0.5,
) -> tuple[np.ndarray, SpectralField]:
    """Random analytic (vbar, vtilde) pair with prescribed L2 amplitude split.

    vbar is the compact (2, nh, nh) barotropic array; vtilde is a baroclinic
    2-vector SpectralField.  ||vbar|| = sqrt(1-f^2) * amplitude and
    ||vtilde|| = f * amplitude in L2.
    """
    if not 0.0 <= baroclinic_fraction <= 1.0:
        raise ValueError("baroclinic_fraction must lie in [0, 1]")
    vbar = random_barotropic(grid, rng, tau0)
    vbar = scale_barotropic(vbar, amplitude * np.sqrt(1.0 - baroclinic_fraction**2))
    vt = random_vector(grid, rng, tau0, eta0, baroclinic=True)
    cur = np.sqrt(np.sum(np.abs(vt.coeffs) ** 2))
    if cur > 0:
        vt = vt * (amplitude * baroclinic_fraction / cur)
    return vbar, vt


def well_prepared_state(
    grid: GridSpec,
    rng: np.random.Generator,
    tau0: float = 0.5,
    eta0: float = 0.3,
    barotropic_amplitude: float = 1.0,
    baroclinic_sobolev_target: float = 0.1,
    delta: float = 0.25,
) -> tuple[np.ndarray, SpectralField]:
    """Well-prepared data: baroclinic Sobolev norm ||Vt||_{3/2+delta,0,0}
    rescaled to the target while the barotropic mode stays O(1)."""
    vbar = random_barotropic(grid, rng, tau0)
    vbar = scale_barotropic(vbar, barotropic_amplitude)
    vt = random_vector(grid, rng, tau0, eta0, baroclinic=True)
    spec = NormSpec(r=1.5 + delta, s=0, tau=0.0)
    cur = norm_rst(vt, spec)
    if cur > 0:
        vt = vt * (baroclinic_sobolev_target / cur)
    return vbar, vt


def shear_barotropic(grid: GridSpec, amplitude: float = 1.0, nshear: int = 1) -> np.ndarray:
    """Steady unidirectional shear: vorticity w = amplitude * cos(2 pi nshear x),
    velocity V = (0, amplitude/(2 pi nshear) sin(2 pi nshear x))."""
    vbar = np.zeros((2, grid.nh, grid.nh), dtype=np.complex128)
    # sin(2 pi n x) = (e^{i..} - e^{-i..})/(2i); vorticity cos -> v = sin * amp/k
    c = amplitude / (2.0 * np.pi * nshear)
    vbar[1, nshear, 0] = c / (2j)
    vbar[1, -nshear, 0] = -c / (2j)
    return vbar


def random_scalar_2d(
    grid: GridSpec, rng: np.random.Generator, tau: float = 0.5, eta: float = 0.3
) -> np.ndarray:
    """Random analytic baroclinic scalar of the 2D reduced system, zero outside
    the 2/3-rule band, in the x-z layout (1, nh, 1, nz)."""
    nh, nz = grid.nh, grid.nz
    n1 = mode_numbers(grid)[0]
    k = 2.0 * np.pi * np.abs(n1)[:, None]
    m = np.arange(nz)[None, :]
    a = rng.standard_normal((nh, nz)) + 1j * rng.standard_normal((nh, nz))
    a *= np.exp(-tau * k - eta * np.pi * m)
    a[np.abs(n1) > grid.hcut, :] = 0.0
    a[:, grid.zcut + 1 :] = 0.0
    a[:, 0] = 0.0  # baroclinic
    # conjugate symmetry along n1
    rev = np.conj(np.roll(a[::-1, :], 1, axis=0))
    return (0.5 * (a + rev))[None, :, None, :]
