"""Spectral fields on T^2 x (0,1) and the transform kernels.

Coefficient layout: complex array of shape (components, nh, nh, nz) indexed
by (component, n1, n2, m), n1/n2 in FFT order, physical wavenumber
k = 2*pi*(n1, n2).  Vertical basis is the orthonormal family
{1, sqrt(2) cos(m pi z)}; fields produced by a single z-derivative carry the
companion sine basis {sqrt(2) sin(m pi z)} and are tagged "sin".

This is the only module that calls a transform, so the basis scaling, the
sine-slot shift and the FFT normalisation live here alone.  Every transform
is a horizontal FFT composed with one vertical pair, the DCT/DST-III
evaluation on midpoints (`_z_inverse`) and its DCT/DST-II inverse
(`_z_forward`).  The layouts served:

* 3-D (.., nh, nh, nz): `values_from_coeffs`, `coeffs_from_values`;
* x-z (.., nh, 1, nz), the n2 = 0 column of the 3-D layout that carries
  the y-independent 2-D reduced system: the same two kernels;
* compact barotropic (.., nh, nh), z-independent: `barotropic_values`,
  `barotropic_coeffs`;
* the vertical series alone, on a refined midpoint grid: `vertical_values`.

The 3-D kernels have a real-field path (rfft2/irfft2 and real DCT/DST,
which skip the redundant half of a conjugate-symmetric spectrum) behind the
same names and the same full coefficient layout: `coeffs_from_values` takes
it for real values, `values_from_coeffs` when the caller passes real=True.
It serves every real field: the lab-frame velocity in `rhs_direct` and
`cfl_limit`, the limit system, the 2-D reduced system, and products of two
real factors.  The rotating-frame V+ = e^{-i Omega t} P+ V is intrinsically
complex (its coefficients are not conjugate symmetric), so the scalar
phi = V+_x that carries it keeps the complex kernels.

All operations are pure: inputs are never mutated and outputs are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec, a_exp_multiplier, dealias_mask, kabs, kx, ky, mpi

SQRT2 = np.sqrt(2.0)

COS = "cos"
SIN = "sin"


class SpectralRangeError(ArithmeticError):
    """Raised when a diagonal multiplier exceeds the overflow guard."""


class BasisError(ValueError):
    """Raised on incompatible cos/sin basis tags."""


@dataclass
class SpectralField:
    """Coefficients of a scalar or 2-vector field over (n1, n2, m)."""

    grid: GridSpec
    coeffs: np.ndarray  # (components, nh, nh, nz) complex
    basis: str = COS

    def __post_init__(self):
        if self.coeffs.shape[1:] != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if self.coeffs.ndim != 4 or self.coeffs.shape[0] not in (1, 2):
            raise ValueError("coeffs must have shape (1 or 2, nh, nh, nz)")
        if self.basis not in (COS, SIN):
            raise ValueError(f"unknown basis tag {self.basis!r}")

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.basis)

    @classmethod
    def zeros(cls, grid: GridSpec, components: int = 1, basis: str = COS) -> "SpectralField":
        return cls(grid, np.zeros((components, *grid.shape), dtype=np.complex128), basis)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs, self.basis)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar, self.basis)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs, self.basis)

    def component(self, c: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[c : c + 1], self.basis)


@dataclass
class PhysField:
    """Real collocation values on the uniform x,y / midpoint z grid."""

    grid: GridSpec
    values: np.ndarray  # (components, nh, nh, nz) real

    def __post_init__(self):
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def _check_same(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if a.basis != b.basis:
        raise BasisError(f"basis mismatch: {a.basis} vs {b.basis}")


def grid_points(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collocation coordinates (x_i, y_j, z_l)."""
    x = np.arange(grid.nh) / grid.nh
    z = (np.arange(grid.nz) + 0.5) / grid.nz
    return x, x.copy(), z


# ---------------------------------------------------------------------------
# transform kernels: one horizontal transform composed with one vertical pair
# ---------------------------------------------------------------------------

_WORKERS = 2

# FFT-order index -n, as (destination, source) slices of one axis: 0 <- 0, n <- nh - n
_NEG_INDEX = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _slots(coeffs: np.ndarray, basis: str) -> np.ndarray:
    """DCT/DST slots of vertical coefficients: cos mode m is slot m, sine mode m slot m - 1."""
    return coeffs if basis == COS else coeffs[..., 1:]


def _z_inverse(slots: np.ndarray, basis: str, n: int, own: bool = False) -> np.ndarray:
    """DCT/DST-III: the vertical series of `slots` at n midpoints z_j = (j + 1/2)/n.

    n beyond the slot count zero-pads through the transform's own n argument;
    own=True lets the kernel scale `slots` in place.
    """
    scale = _cos_in_scale(slots.shape[-1]) if basis == COS else 1.0 / SQRT2
    x = np.multiply(slots, scale, out=slots if own else None)
    kernel = sfft.dct if basis == COS else sfft.dst
    return kernel(x, type=3, n=n, axis=-1, overwrite_x=True, workers=_WORKERS)


def _z_forward(vals: np.ndarray, basis: str, hsize: int) -> np.ndarray:
    """DCT/DST-II: vertical coefficients of midpoint values, divided by hsize.

    hsize is the point count of the unnormalised horizontal forward transform
    that follows, so its normalisation costs no pass of its own.
    """
    nz = vals.shape[-1]
    if basis == COS:
        d = sfft.dct(vals, type=2, axis=-1, workers=_WORKERS)
        d *= _cos_out_scale(hsize, nz)
        return d
    e = sfft.dst(vals, type=2, axis=-1, workers=_WORKERS)
    out = np.empty_like(e)
    out[..., 0] = 0.0
    np.multiply(e[..., : nz - 1], 1.0 / (SQRT2 * nz * hsize), out=out[..., 1:])
    return out


def vertical_values(coeffs: np.ndarray, basis: str, n: int) -> np.ndarray:
    """Vertical series of coefficients (last axis m) at n midpoints, n >= nz.

    The horizontal modes are left untouched: a refined z grid for per-z
    horizontal norms, which Parseval evaluates without an x transform.
    """
    return _z_inverse(_slots(coeffs, basis), basis, n)


def coeffs_from_values(vals: np.ndarray, grid: GridSpec, basis: str = COS) -> np.ndarray:
    """Forward transform: collocation values (.., n1, n2, z) -> basis coefficients.

    The vertical DCT/DST runs first, with the horizontal normalisation folded
    into its scale; real values then take rfft2 with the half plane expanded
    by conjugation, complex values fft2.  Both return the full FFT-order
    layout.  A single n2 = 0 column (.., nh, 1, nz) is the x-z layout.
    """
    x = _z_forward(vals, basis, vals.shape[-3] * vals.shape[-2])
    if np.iscomplexobj(x):
        return sfft.fft2(x, axes=(-3, -2), overwrite_x=True, workers=_WORKERS)
    xh = sfft.rfft2(x, axes=(-3, -2), workers=_WORKERS)
    return full_from_half(xh, vals.shape[-2])


def values_from_coeffs(
    coeffs: np.ndarray, grid: GridSpec, basis: str = COS, *, real: bool = False
) -> np.ndarray:
    """Inverse transform: basis coefficients -> collocation values.

    The horizontal inverse runs first, on the DCT/DST slots only (the empty
    sine slot m = 0 is never transformed), then the vertical one in place.
    real=True asserts that the field is real (conjugate symmetric): only the
    half plane n2 <= nh/2 is read and the values come back real.  Otherwise
    the values are complex.
    """
    slots = _slots(coeffs, basis)
    if real:
        n1, n2 = coeffs.shape[-3:-1]
        x = sfft.irfft2(slots[..., : n2 // 2 + 1, :], s=(n1, n2), axes=(-3, -2),
                        norm="forward", workers=_WORKERS)
    else:
        x = sfft.ifft2(slots, axes=(-3, -2), norm="forward", workers=_WORKERS)
    return _z_inverse(x, basis, grid.nz, own=True)


# The compact barotropic transforms are small (a few (nh, nh) planes), where a
# second FFT worker costs more CPU and wall time than it saves, so they use one.

def barotropic_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real values of compact (.., nh, nh) coefficients of real z-independent fields."""
    nh = grid.nh
    return sfft.irfft2(coeffs[..., : nh // 2 + 1], s=(nh, nh), axes=(-2, -1), norm="forward")


def barotropic_coeffs(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full compact (.., nh, nh) coefficients of real (.., nh, nh) values."""
    xh = sfft.rfft2(vals, axes=(-2, -1), norm="forward")
    return full_from_half(xh[..., None], grid.nh)[..., 0]


def full_from_half(xh: np.ndarray, nh: int) -> np.ndarray:
    """Full FFT-order plane from the rfft half plane of a real field.

    Axes -3, -2 of xh are (n1, n2) with 0 <= n2 <= nh/2, nh the length of
    the n2 axis; the missing n2 > nh/2 are conj xh(-n1, nh - n2), filled by
    two block copies.
    """
    h = nh // 2
    out = np.empty(xh.shape[:-2] + (nh, xh.shape[-1]), dtype=np.complex128)
    out[..., : h + 1, :] = xh
    for d1, s1 in _NEG_INDEX:
        np.conjugate(xh[..., s1, h - 1 : 0 : -1, :], out=out[..., d1, h + 1 :, :])
    return out


def _cos_in_scale(nz: int) -> np.ndarray:
    s = np.full(nz, 1.0 / SQRT2)
    s[0] = 1.0
    return s


def _cos_out_scale(hsize: int, nz: int) -> np.ndarray:
    s = np.full(nz, 1.0 / (SQRT2 * nz * hsize))
    s[0] = 1.0 / (2 * nz * hsize)
    return s


def forward(phys: PhysField) -> SpectralField:
    """Project values onto {e^{ik.x}} x {1, sqrt(2) cos(m pi z)}."""
    return SpectralField(phys.grid, coeffs_from_values(phys.values, phys.grid), COS)


def inverse(f: SpectralField) -> PhysField:
    """Evaluate on the collocation grid; imaginary residue is discarded.

    For conjugate-symmetric (real-valued) fields the residue is O(1e-15);
    use `values_from_coeffs` directly for intrinsically complex fields.
    """
    vals = values_from_coeffs(f.coeffs, f.grid, f.basis)
    return PhysField(f.grid, vals.real.copy())


# ---------------------------------------------------------------------------
# diagonal operators
# ---------------------------------------------------------------------------

def apply_A_exp(f: SpectralField, r: float, tau: float) -> SpectralField:
    """Apply A^r e^{tau A}, A = sqrt(-Delta_h), as a diagonal multiplier."""
    if r < 0 or tau < 0:
        raise ValueError("r and tau must be nonnegative")
    mult, overflow = a_exp_multiplier(f.grid, r, tau)
    if overflow.any():
        populated = (np.abs(f.coeffs) > 0.0).any(axis=(0, 3))
        bad = overflow[..., 0] & populated
        if bad.any():
            kmin = kabs(f.grid)[..., 0][bad].min()
            raise SpectralRangeError(
                f"A^{r} e^{{{tau} A}} multiplier exceeds 1e300 on populated shell |k|={kmin:.6g}"
            )
    return SpectralField(f.grid, f.coeffs * mult, f.basis)


def dz(f: SpectralField, order: int = 1) -> SpectralField:
    """Vertical derivative. Order 1 toggles the cos/sin basis tag; order 2 is diagonal."""
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    w = mpi(f.grid)
    if order == 2:
        return SpectralField(f.grid, f.coeffs * (-(w**2)), f.basis)
    if f.basis == COS:
        # d/dz sqrt(2) cos(m pi z) = -m pi sqrt(2) sin(m pi z)
        return SpectralField(f.grid, f.coeffs * (-w), SIN)
    # d/dz sqrt(2) sin(m pi z) = +m pi sqrt(2) cos(m pi z)
    return SpectralField(f.grid, f.coeffs * w, COS)


def dx(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * (1j * kx(f.grid)), f.basis)


def dy(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * (1j * ky(f.grid)), f.basis)


def grad_h(f: SpectralField) -> SpectralField:
    """Horizontal gradient of a scalar field, returned as a 2-vector."""
    if f.components != 1:
        raise ValueError("grad_h expects a scalar field")
    out = np.concatenate([f.coeffs * (1j * kx(f.grid)), f.coeffs * (1j * ky(f.grid))], axis=0)
    return SpectralField(f.grid, out, f.basis)


def div_h(f: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-vector field."""
    if f.components != 2:
        raise ValueError("div_h expects a 2-vector field")
    out = f.coeffs[0:1] * (1j * kx(f.grid)) + f.coeffs[1:2] * (1j * ky(f.grid))
    return SpectralField(f.grid, out, f.basis)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * dealias_mask(f.grid)[None, ...], f.basis)


# ---------------------------------------------------------------------------
# pseudo-spectral product
# ---------------------------------------------------------------------------

_CLOSURE = {(COS, COS): COS, (SIN, SIN): COS, (COS, SIN): SIN, (SIN, COS): SIN}


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product via transform round trip, dealiased.

    Component rule: scalar*scalar, scalar*vector (broadcast), or
    componentwise vector*vector.  Two real (conjugate-symmetric) factors
    take the real transform path; any other pair the complex one.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    tag = _CLOSURE[(f.basis, g.basis)]
    real = is_conjugate_symmetric(f) and is_conjugate_symmetric(g)
    pf = values_from_coeffs(f.coeffs, f.grid, f.basis, real=real)
    pg = values_from_coeffs(g.coeffs, g.grid, g.basis, real=real)
    if f.components == g.components:
        pv = pf * pg
    elif f.components == 1:
        pv = pf[0:1] * pg
    elif g.components == 1:
        pv = pf * pg[0:1]
    else:
        raise ValueError("incompatible component counts")
    out = coeffs_from_values(pv, f.grid, tag)
    out *= dealias_mask(f.grid)[None, ...]
    return SpectralField(f.grid, out, tag)


def w_from_baroclinic(vt: SpectralField) -> SpectralField:
    """Vertical velocity w = -int_0^z div_h(Vt) ds for a baroclinic 2-vector.

    Cosine mode m >= 1 of the divergence with value d maps to sine mode m
    with value -d/(m pi); w vanishes at z = 0 and z = 1 identically.
    """
    if vt.components != 2:
        raise ValueError("expects a 2-vector field")
    if vt.basis != COS:
        raise BasisError("expects a cosine-basis field")
    d = div_h(vt)
    m0 = np.abs(d.coeffs[..., 0]).max()
    scale = np.abs(d.coeffs).max()
    if m0 > 1e-12 * max(scale, 1e-300):
        raise ValueError(
            "baroclinic input required: nonzero vertical-mean divergence "
            f"(relative size {m0 / max(scale, 1e-300):.3e}) would violate w(z=1)=0"
        )
    w = mpi(vt.grid)
    out = np.zeros_like(d.coeffs)
    out[..., 1:] = -d.coeffs[..., 1:] / w[..., 1:]
    return SpectralField(vt.grid, out, SIN)


def integral_z_of_div(vt: SpectralField) -> SpectralField:
    """int_0^z div_h(Vt) ds, i.e. -w, as a sine-basis scalar."""
    w = w_from_baroclinic(vt)
    return SpectralField(vt.grid, -w.coeffs, SIN)


# ---------------------------------------------------------------------------
# inner products / reality
# ---------------------------------------------------------------------------

def inner(f: SpectralField, g: SpectralField) -> complex:
    """L^2(D) inner product <f, g> = sum_coeffs f conj(g) (orthonormal basis)."""
    _check_same(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))  # vdot conjugates first arg


def l2_norm_sq(f: SpectralField) -> float:
    return float(np.vdot(f.coeffs, f.coeffs).real)



def conjugate_reverse(coeffs: np.ndarray) -> np.ndarray:
    """Map a(n1, n2, m) -> conj(a(-n1, -n2, m)) on the FFT-ordered axes."""
    # four block copies: an order of magnitude faster than np.roll on reversed views
    out = np.empty_like(coeffs)
    for d1, s1 in _NEG_INDEX:
        for d2, s2 in _NEG_INDEX:
            out[..., d1, d2, :] = coeffs[..., s1, s2, :]
    return np.conj(out, out=out)


def is_conjugate_symmetric(f: SpectralField, tol: float = 1e-12) -> bool:
    """Reality condition a(-n1,-n2,m) = conj(a(n1,n2,m))."""
    resid = np.abs(f.coeffs - conjugate_reverse(f.coeffs)).max()
    scale = max(np.abs(f.coeffs).max(), 1e-300)
    return bool(resid <= tol * scale)


def symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric (real-field) subspace."""
    return 0.5 * (coeffs + conjugate_reverse(coeffs))
