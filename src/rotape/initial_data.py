"""Initial-data generators.

All generators draw complex Gaussians on the retained (dealiased) modes with
an analytic envelope e^{-tau0 |k| - eta0 m pi}, then conjugate-symmetrize so
the represented field is real.  Barotropic parts come from a streamfunction,
so they are divergence-free and mean-zero by construction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .decomposition import perp_grad
from .grid import GridSpec, dealias_mask, kabs, mode_numbers, mpi
from .norms import NormSpec, norm_rst
from .spectral import COS, SpectralField, band_gather, symmetrize


@lru_cache(maxsize=64)
def _envelope(grid: GridSpec, tau: float, eta: float, packed: bool) -> np.ndarray:
    """The envelope e^{-tau |k| - eta m pi} times the dealias mask, complex and
    read-only, in the full layout or its packed band.  One multiply by it
    rounds as the envelope's and then the mask's did, every zero's sign
    included: each factor is positive or 0."""
    w = (np.exp(-tau * kabs(grid) - eta * mpi(grid)) * dealias_mask(grid)).astype(np.complex128)
    w = band_gather(w, grid) if packed else w
    w.flags.writeable = False
    return w


def random_coeffs(
    grid: GridSpec,
    rng: np.random.Generator,
    tau: float,
    eta: float,
    baroclinic: bool = False,
    components: int = 1,
    out: np.ndarray | None = None,
    packed: bool = False,
) -> np.ndarray:
    """Coefficients (components, nh, nh, nz) of random analytic real scalars,
    into out if given.  Each scalar takes two standard_normal draws of shape
    (1, nh, nh, nz), the real and then the imaginary part, written into one
    complex buffer.  packed=True keeps the draws' packed 2/3-rule band
    alone (`band_pack`): the band's coefficients come out bit for bit, and
    the work outside it, which only sets the signs of zeros, is skipped."""
    envelope = _envelope(grid, tau, eta, packed)
    a = np.empty((components, *envelope.shape), dtype=np.complex128)
    x = np.empty((1, *grid.shape))
    for c in range(components):
        for part in (a[c : c + 1].real, a[c : c + 1].imag):
            rng.standard_normal(x.shape, out=x)
            if packed:
                band_gather(x, grid, part)
            else:
                part[...] = x
    a *= envelope
    if baroclinic:
        a[..., 0] = 0.0
    return symmetrize(a, out)


def random_scalar(
    grid: GridSpec,
    rng: np.random.Generator,
    tau: float = 0.5,
    eta: float = 0.3,
    baroclinic: bool = False,
) -> SpectralField:
    """Random analytic real scalar field with prescribed spectral envelope."""
    return SpectralField(grid, random_coeffs(grid, rng, tau, eta, baroclinic), COS)


def random_vector(
    grid: GridSpec,
    rng: np.random.Generator,
    tau: float = 0.5,
    eta: float = 0.3,
    baroclinic: bool = False,
) -> SpectralField:
    """Two random_scalar components, drawn in order."""
    return SpectralField(grid, random_coeffs(grid, rng, tau, eta, baroclinic, 2), COS)


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
) -> tuple[np.ndarray, SpectralField]:
    """Well-prepared data: baroclinic Sobolev norm ||Vt||_{3/2+delta,0,0}
    (delta = 1/4) rescaled to the target while the barotropic mode stays O(1)."""
    vbar = random_barotropic(grid, rng, tau0)
    vbar = scale_barotropic(vbar, barotropic_amplitude)
    vt = random_vector(grid, rng, tau0, eta0, baroclinic=True)
    spec = NormSpec(r=1.75, s=0, tau=0.0)
    cur = norm_rst(vt, spec)
    if cur > 0:
        vt = vt * (baroclinic_sobolev_target / cur)
    return vbar, vt


def shear_barotropic(grid: GridSpec, amplitude: float = 1.0) -> np.ndarray:
    """Steady unidirectional shear: vorticity w = amplitude * cos(2 pi x),
    velocity V = (0, amplitude/(2 pi) sin(2 pi x))."""
    vbar = np.zeros((2, grid.nh, grid.nh), dtype=np.complex128)
    # sin(2 pi x) = (e^{i..} - e^{-i..})/(2i); vorticity cos -> v = sin * amp/k
    c = amplitude / (2.0 * np.pi)
    vbar[1, 1, 0] = c / (2j)
    vbar[1, -1, 0] = -c / (2j)
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
    return symmetrize(a[None, :, None, :])
