"""Grid specification, cached wavenumber/dealiasing machinery, the A^r e^{tau A} weight.

Fields live on the horizontal unit torus (Fourier modes k = 2*pi*(n1, n2))
times the channel z in (0, 1) (vertical basis {1, sqrt(2) cos(m pi z)}).
The collocation grid is uniform in x, y and the midpoint grid
z_j = (j + 1/2)/nz in z, matched to the even-extension cosine transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# log of the largest float64: a value past it is inf, not a number
_LOG_MAX = np.log(np.finfo(np.float64).max)


class SpectralRangeError(ArithmeticError):
    """Raised when a diagonal multiplier leaves the float64 range."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution and dealiasing rule for the spectral discretization.

    nh: horizontal modes per axis (FFT indices -nh/2+1 .. nh/2-1 usable).
    nz: vertical cosine modes m = 0 .. nz-1.
    dealias_fraction: sharp-cutoff fraction, default 2/3.
    """

    nh: int
    nz: int
    dealias_fraction: Fraction = Fraction(2, 3)

    def __post_init__(self):
        if self.nh % 2 != 0 or self.nh < 4:
            raise ValueError(f"nh must be even and >= 4, got {self.nh}")
        if self.nz < 2:
            raise ValueError(f"nz must be >= 2, got {self.nz}")
        frac = float(self.dealias_fraction)
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {frac}")
        if frac * self.nh < 2:
            raise ValueError("dealias_fraction * nh must be >= 2")
        # every cached table is keyed on the grid: hash the Fraction once, not per lookup
        object.__setattr__(self, "_hash", hash((self.nh, self.nz, self.dealias_fraction)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def hcut(self) -> int:
        """Largest retained |n1|, |n2| after dealiasing."""
        return _cuts(self)[0]

    @property
    def zcut(self) -> int:
        """Largest retained vertical mode m after dealiasing."""
        return _cuts(self)[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nh, self.nh, self.nz)


@lru_cache(maxsize=None)
def _cuts(grid: GridSpec) -> tuple[int, int]:
    frac = float(grid.dealias_fraction)
    ch = int(np.floor(frac * grid.nh / 2 + 1e-12))
    # quadratic products stay alias-free on the same grid only for 3*ch < nh
    if 3 * ch >= grid.nh:
        ch -= 1
    cz = int(np.floor(frac * grid.nz + 1e-12))
    if 3 * cz >= 2 * grid.nz:
        cz -= 1
    cz = min(cz, grid.nz - 1)
    return max(ch, 1), max(cz, 1)


@lru_cache(maxsize=None)
def _fft_numbers(n: int) -> np.ndarray:
    """Integer mode numbers 0, 1, .., -1 of an FFT-order axis of length n."""
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


@lru_cache(maxsize=None)
def mode_numbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer mode indices (n1, n2, m) in storage order."""
    n = _fft_numbers(grid.nh)
    m = np.arange(grid.nz)
    return n, n, m


@lru_cache(maxsize=None)
def _k_axes(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """(kx, ky) = 2 pi (n1, n2) over FFT-order axes of lengths n1 and n2, shaped
    (n1, 1, 1) and (1, n2, 1): the full axis (nh), the packed 2/3-rule band's
    (2 hcut + 1, itself in FFT order) or the x-z column (1)."""
    return (2.0 * np.pi * _fft_numbers(n1))[:, None, None], (2.0 * np.pi * _fft_numbers(n2))[None, :, None]


def kx(grid: GridSpec) -> np.ndarray:
    return _k_axes(grid.nh, grid.nh)[0]


def ky(grid: GridSpec) -> np.ndarray:
    return _k_axes(grid.nh, grid.nh)[1]


@lru_cache(maxsize=None)
def kabs(grid: GridSpec) -> np.ndarray:
    return np.sqrt(kx(grid) ** 2 + ky(grid) ** 2)


@lru_cache(maxsize=None)
def ksq(grid: GridSpec) -> np.ndarray:
    return kx(grid) ** 2 + ky(grid) ** 2


@lru_cache(maxsize=None)
def _mpi(grid: GridSpec) -> np.ndarray:
    _, _, m = mode_numbers(grid)
    return (np.pi * m)[None, None, :]


def mpi(grid: GridSpec, a: np.ndarray | None = None) -> np.ndarray:
    """Vertical wavenumbers m*pi, shape (1, 1, nz), or over the m axis of a:
    both layouts number it m = 0, 1, .., so the packed band's zcut + 1 slots
    take the first entries."""
    return _mpi(grid) if a is None else _mpi(grid)[..., : a.shape[-1]]


@lru_cache(maxsize=None)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    n1, n2, m = mode_numbers(grid)
    ch, cz = _cuts(grid)
    keep_h = (np.abs(n1)[:, None] <= ch) & (np.abs(n2)[None, :] <= ch)
    keep_z = m <= cz
    return keep_h[:, :, None] & keep_z[None, None, :]


def k_h(grid: GridSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kx, ky) for the (n1, n2) axes of a: (.., n1, n2, m) when a has 4 axes or
    more, else the compact barotropic (.., n1, n2).  The axis lengths pick the
    layout: full (nh), packed band (2 hcut + 1) or x-z column (n2 = 1)."""
    if a.ndim >= 4:
        return _k_axes(*a.shape[-3:-1])
    kxx, kyy = _k_axes(*a.shape[-2:])
    return kxx[..., 0], kyy[..., 0]


def a_exp_weight(k: np.ndarray, r: float, tau: float, data=None) -> np.ndarray:
    """The multiplier |k|^r e^{tau |k|} of A^r e^{tau A} over an array of |k|.

    Zero-wavenumber convention: 0 for r > 0, 1 for r = 0 (A^0 = identity).
    A value past the float64 range raises SpectralRangeError naming the
    smallest such |k| where it multiplies data: everywhere, or where the mask
    `data()` (shaped like k, formed on overflow only) is True; elsewhere it
    is 0.  A squared norm's weight is the multiplier at (2r, 2 tau).
    """
    with np.errstate(divide="ignore"):
        logw = np.where(k > 0.0, r * np.log(np.where(k > 0.0, k, 1.0)) + tau * k, 0.0)
    over = logw > _LOG_MAX
    if over.any():
        bad = over if data is None else over & data()
        if bad.any():
            raise SpectralRangeError(
                f"|k|^{r} e^{{{tau}|k|}} overflows float64 on shell |k|={k[bad].min():.6g}"
            )
        logw = np.where(over, -np.inf, logw)
    w = np.exp(logw)
    if r > 0:
        w = np.where(k == 0.0, 0.0, w)
    return w
