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
(`_z_forward`), run as one pass per axis.  The layouts served:

* 3-D (.., nh, nh, nz), the full layout of states, snapshots and norms;
* the packed 2/3-rule band (.., 2 hcut + 1, 2 hcut + 1, zcut + 1): the modes
  |n1|, |n2| <= hcut, m <= zcut alone, each axis itself in FFT order
  (0, 1, .., hcut, -hcut, .., -1), so `conjugate_reverse` and the real
  half-plane columns work on it unchanged.  `values_from_coeffs` reads and
  `coeffs_from_values` returns this layout; `band_pack` and `band_unpack`
  convert from and to the full one, and `grid.k_h`/`grid.mpi` give its
  wavenumbers from the array's shape;
* x-z (.., nh, 1, nz), the n2 = 0 column of the 3-D layout that carries
  the y-independent 2-D reduced system, packed as (.., 2 hcut + 1, 1, zcut + 1):
  the same kernels;
* compact barotropic (.., nh, nh), z-independent: `barotropic_values`,
  `barotropic_coeffs`;
* the vertical series alone, on a refined midpoint grid: `vertical_values`.

The 3-D kernels have a real-field path (an rfft/irfft n2 pass, so that
the other passes skip the redundant half of a conjugate-symmetric spectrum)
behind the same names and the same packed layout: `coeffs_from_values`
takes it for real values, `values_from_coeffs` when the caller passes
real=True.  It serves every real field: the lab-frame velocity in
`rhs_direct` and `cfl_limit`, the limit system, the 2-D reduced system, and
products of two real factors.  The rotating-frame V+ = e^{-i Omega t} P+ V
is intrinsically complex (its coefficients are not conjugate symmetric), so
the scalar phi = V+_x that carries it keeps the complex kernels.

The 3-D kernels transform the 2/3-rule band alone, the Galerkin truncation
of Orszag's rule, after the pruned FFTs that go with it.  The vertical pass
comes first in the inverse and last in the forward, so it runs on the
band's (n1, n2) columns alone, and each horizontal pass runs only on the
lines that the passes before it filled.  The packed layout cannot hold a
mode outside the band, so a full layout is checked where it enters it:
`band_pack` raises ValueError on such a mode (`require_band`).  Each
stepper checks a state where it packs it, once per `integrate` or
`integrate_limit` run, and `product`, `lemmas.check` and `cfl_limit` their inputs.

The solvers' horizontal divergence (`divergence`) and int_0^z of a cosine
series (`integral_z`) live here too, on either 3-D layout; `div_h` and
`w_from_baroclinic` wrap them, and int_0^z div_h Vt is -w_from_baroclinic(Vt).
`apply_A_exp` multiplies by `grid.a_exp_weight`, the one A^r e^{tau A}
weight and overflow rule (SpectralRangeError is re-exported from grid).

All operations are pure: inputs are never mutated and outputs are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec, SpectralRangeError, a_exp_weight, dealias_mask, k_h, kabs, mode_numbers, mpi

SQRT2 = np.sqrt(2.0)

COS = "cos"
SIN = "sin"


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


def _check_same(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if a.basis != b.basis:
        raise BasisError(f"basis mismatch: {a.basis} vs {b.basis}")


# ---------------------------------------------------------------------------
# transform kernels: one horizontal transform composed with one vertical pair
# ---------------------------------------------------------------------------

_WORKERS = 1

# FFT-order index -n, as (destination, source) slices of one axis: 0 <- 0, n <- nh - n
_NEG_INDEX = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


@lru_cache(maxsize=None)
def _box(grid: GridSpec, n1: int, n2: int, real: bool) -> tuple:
    """(rows, cols, hcut, zcut) of the 2/3-rule band of an (.., n1, n2, nz)
    layout, the box a transform reads or writes.  rows and cols are the runs
    of its n1 and n2 indices (`_runs`); a real field's cols are its
    half-plane columns."""
    cut = grid.hcut
    cols = ((slice(0, min(cut, n2 // 2) + 1),) * 2,) if real else _runs(n2, cut)
    return _runs(n1, cut), cols, cut, grid.zcut


def _runs(n: int, cut: int) -> tuple:
    """(full, packed) slice pairs of the FFT-order indices |i| <= cut on an axis
    of length n, packed in storage order; one pair when they cover the axis
    (the single column n2 = 0 of the x-z layout)."""
    if 2 * cut + 1 >= n:
        return ((slice(0, n), slice(0, n)),)
    low, high = slice(0, cut + 1), slice(n - cut, n)
    return ((low, low), (high, slice(cut + 1, 2 * cut + 1)))


def _width(runs: tuple) -> int:
    return runs[-1][1].stop


def _outside(a: np.ndarray, rows: tuple, cols: tuple, depth: int) -> list:
    """Views of slabs that cover a full-layout a outside the blocks
    a[.., rows, cols, :depth]: the rows between and after the row runs, the
    columns between and after the column runs of those rows, and the modes
    m >= depth (of every column: fewer, larger slabs)."""
    def gaps(runs, n):
        ends = [r.stop for r, _ in runs]
        starts = [r.start for r, _ in runs[1:]] + [n]
        return [slice(e, s) for e, s in zip(ends, starts) if s > e]

    slabs = [a[..., g, :, :] for g in gaps(rows, a.shape[-3])]
    slabs += [a[..., r, g, :] for r, _ in rows for g in gaps(cols, a.shape[-2])]
    return slabs + [a[..., depth:]] if depth < a.shape[-1] else slabs


def _full_axes(grid: GridSpec, packed: np.ndarray) -> tuple[int, int]:
    """The full (n1, n2) of a packed band array: the x-z column keeps its single n2."""
    return grid.nh, 1 if packed.shape[-2] == 1 else grid.nh


def is_packed(a: np.ndarray, grid: GridSpec) -> bool:
    """Whether an (.., n1, n2, m) array is in the packed band layout, not the full one."""
    return a.shape[-3] != grid.nh


def _slots(coeffs: np.ndarray, basis: str, mmax: int) -> np.ndarray:
    """DCT/DST slots of the modes m <= mmax: cos mode m is slot m, sine mode m slot m - 1."""
    return coeffs[..., : mmax + 1] if basis == COS else coeffs[..., 1 : mmax + 1]


def _z_inverse(slots: np.ndarray, basis: str, n: int) -> np.ndarray:
    """DCT/DST-III: the vertical series of DCT/DST slots (last axis) at n
    midpoints z_j = (j + 1/2)/n, the scaled slots zero-padded to n."""
    k = slots.shape[-1]
    x = np.zeros(slots.shape[:-1] + (n,), dtype=slots.dtype)
    np.multiply(slots, _cos_in_scale(k) if basis == COS else 1.0 / SQRT2, out=x[..., :k])
    return _r2r(basis, x, 3)


def _r2r(basis: str, x: np.ndarray, type: int) -> np.ndarray:
    """The DCT (cos) or DST (sin) of the given type along the last axis, in place.

    A complex x takes one real transform of its interleaved (real, imag)
    parts, the same arithmetic as one transform of each part.
    """
    kernel = sfft.dct if basis == COS else sfft.dst
    if not np.iscomplexobj(x):
        y = kernel(x, type=type, axis=-1, overwrite_x=True, workers=_WORKERS)
        return _written_back(x, y)
    pairs = x.view(np.float64).reshape(x.shape + (2,))
    _written_back(pairs, kernel(pairs, type=type, axis=-2, overwrite_x=True, workers=_WORKERS))
    return x


def _written_back(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x holding the result y of a transform asked to overwrite x (a copy when it did not)."""
    if not np.may_share_memory(x, y):
        x[...] = y
    return x


def _z_forward(x: np.ndarray, basis: str, hsize: int, mmax: int) -> np.ndarray:
    """DCT/DST-II in place: the slots of the modes m <= mmax of midpoint values
    x, divided by hsize, as a view of x.

    hsize is the point count of the unnormalised horizontal forward transform
    that preceded, so its normalisation costs no pass of its own.
    """
    nz = x.shape[-1]
    d = _r2r(basis, x, 2)
    if basis == COS:
        d = d[..., : mmax + 1]
        d *= _cos_out_scale(hsize, nz)[: mmax + 1]
    else:
        d = d[..., :mmax]
        d *= 1.0 / (SQRT2 * nz * hsize)
    return d


def _fft_pass(x: np.ndarray, axis: int, inverse: bool) -> None:
    """One unnormalised FFT pass along `axis`, in place in x (which may be a view)."""
    if inverse:
        y = sfft.ifft(x, axis=axis, norm="forward", overwrite_x=True, workers=_WORKERS)
    else:
        y = sfft.fft(x, axis=axis, overwrite_x=True, workers=_WORKERS)
    _written_back(x, y)


def vertical_values(coeffs: np.ndarray, basis: str, n: int) -> np.ndarray:
    """Vertical series of coefficients (last axis m) at n midpoints, n >= nz.

    The horizontal modes are left untouched: a refined z grid for per-z
    horizontal norms, which Parseval evaluates without an x transform.
    """
    return _z_inverse(_slots(coeffs, basis, coeffs.shape[-1] - 1), basis, n)


def _gather(a: np.ndarray, rows: tuple, cols: tuple, out: np.ndarray) -> np.ndarray:
    """out[.., rows, cols, :] = the blocks a[.., rows, cols, :depth] at their
    packed positions, depth the length of out's last axis."""
    depth = out.shape[-1]
    for r, rp in rows:
        for c, cp in cols:
            out[..., rp, cp, :] = a[..., r, c, :depth]
    return out


def _scatter(x: np.ndarray, rows: tuple, cols: tuple, out: np.ndarray) -> np.ndarray:
    """Each packed block x[.., rows, cols, :] written at its full position in
    the buffer out, and zeros everywhere else."""
    for slab in _outside(out, rows, cols, x.shape[-1]):
        slab.fill(0.0)
    for r, rp in rows:
        for c, cp in cols:
            out[..., r, c, : x.shape[-1]] = x[..., rp, cp, :]
    return out


def band_pack(a: np.ndarray, grid: GridSpec, what: str = "coefficients") -> np.ndarray:
    """The packed band of a full-layout (.., n1, n2, m) array: the modes
    |n1|, |n2| <= hcut, m <= zcut, shape (.., 2 hcut + 1, 2 hcut + 1, zcut + 1)
    (n2 = 1 stays 1 on the x-z layout, m = 1 on the barotropic one).

    A nonzero mode outside the band raises ValueError naming `what`
    (`require_band`): this is where a full layout enters the band.
    """
    require_band(a, grid, what)
    rows, cols = _box(grid, *a.shape[-3:-1], False)[:2]
    shape = a.shape[:-3] + (_width(rows), _width(cols), min(a.shape[-1], grid.zcut + 1))
    return _gather(a, rows, cols, np.empty(shape, dtype=a.dtype))


def band_unpack(b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The full layout of a packed band array, zero outside the band."""
    n1, n2 = _full_axes(grid, b)
    rows, cols = _box(grid, n1, n2, False)[:2]
    depth = grid.nz if b.shape[-1] > 1 else 1
    return _scatter(b, rows, cols, np.empty(b.shape[:-3] + (n1, n2, depth), dtype=b.dtype))


def _conj_fill(out: np.ndarray, neg: int) -> np.ndarray:
    """Fill the columns n2 = -1 .. -neg of a real field's FFT-order layout (full
    or packed band) in place, out(n1, -n2) = conj out(-n1, n2), by two block
    copies."""
    n2 = out.shape[-2]
    for d1, s1 in _NEG_INDEX:
        np.conjugate(out[..., s1, neg:0:-1, :], out=out[..., d1, n2 - neg :, :])
    return out


def coeffs_from_values(vals: np.ndarray, grid: GridSpec, basis: str = COS) -> np.ndarray:
    """Dealiased forward transform: collocation values (.., n1, n2, z) -> the
    basis coefficients of the 2/3-rule band |n1|, |n2| <= hcut, m <= zcut, in
    the packed layout (`band_pack`).

    The n2 pass runs first (an rfft for real values, whose half plane is
    expanded by conjugation at the end), then the n1 pass on the band's n2
    columns.  The band of those passes is copied once into the output buffer,
    where the vertical DCT/DST runs in place, with the horizontal
    normalisation folded into its scale.  A single n2 = 0 column
    (.., nh, 1, nz) is the x-z layout.
    """
    n1, n2, nz = vals.shape[-3:]
    real = not np.iscomplexobj(vals)
    rows, cols, cut, mmax = _box(grid, n1, n2, real)
    if real:
        x = sfft.rfft(vals, axis=-2, workers=_WORKERS)
    else:
        x = sfft.fft(vals, axis=-2, workers=_WORKERS)
    for c, _ in cols:
        _fft_pass(x[..., c, :], -3, inverse=False)
    out = np.empty(vals.shape[:-3] + (_width(rows), _width(_runs(n2, cut)), nz), dtype=np.complex128)
    box = _gather(x, rows, cols, out[..., : _width(cols), :])  # a real field's half plane
    d = _z_forward(box, basis, n1 * n2, mmax)
    if basis == SIN:  # sine slot m - 1 holds mode m
        box[..., 1 : mmax + 1] = d
        box[..., 0] = 0.0
    out = out[..., : mmax + 1]
    return _conj_fill(out, out.shape[-2] - _width(cols)) if real else out


def values_from_coeffs(
    coeffs: np.ndarray, grid: GridSpec, basis: str = COS, *, real: bool = False
) -> np.ndarray:
    """Inverse transform of the 2/3-rule band: packed basis coefficients
    (`band_pack`) -> collocation values on the full grid.

    The vertical DCT/DST runs first, on the band's (n1, n2) columns and its
    DCT/DST slots only (the empty sine slot m = 0 is never transformed),
    zero-padded to nz, then the n2 pass on the band's rows and the n1 pass.
    real=True asserts that the field is real (conjugate symmetric): only the
    half plane n2 <= hcut is read, the n1 pass comes first, on the band's
    columns, and the n2 pass is an irfft, and the values come back real.
    Otherwise the values are complex.
    """
    n1, n2 = _full_axes(grid, coeffs)
    rows, cols, cut, mmax = _box(grid, n1, n2, real)
    packed = (_width(rows), _width(_runs(n2, cut)), mmax + 1)
    if coeffs.shape[-3:] != packed:
        raise ValueError(f"coefficients of shape {coeffs.shape} are not in the packed band layout "
                         f"(.., {packed[0]}, {packed[1]}, {packed[2]}); band_pack converts the full one")
    width = n2 // 2 + 1 if real else n2
    # the buffer of the horizontal passes is allocated before the padded box,
    # which is then freed above it: in rhs_rotating at (32, 32) that order
    # took fewer minor page faults per call than the reverse one
    into = np.empty(coeffs.shape[:-3] + (n1, width, grid.nz), np.complex128)
    x = _scatter(vertical_values(coeffs[..., : _width(cols), :], basis, grid.nz), rows, cols, into)
    if real:
        _fft_pass(x[..., cols[0][0], :], -3, inverse=True)
        return sfft.irfft(x, n=n2, axis=-2, norm="forward", workers=_WORKERS)
    for r, _ in rows:
        _fft_pass(x[..., r, :, :], -2, inverse=True)
    _fft_pass(x, -3, inverse=True)
    return x


def require_band(coeffs: np.ndarray, grid: GridSpec, what: str) -> None:
    """Raise ValueError when full-layout `coeffs` hold a nonzero mode outside
    the 2/3-rule band, which the band transforms would silently drop.

    The trailing axes are (n1, n2, m); an n2 axis of length 1 is the x-z
    layout and an m axis of length 1 the barotropic mode (pass the compact
    (.., nh, nh) layout as coeffs[..., None]).  Only the out-of-band slabs
    are scanned: the rows |n1| > hcut, the columns |n2| > hcut of the
    band's rows, and the modes m > zcut.
    """
    n1, n2 = coeffs.shape[-3:-1]
    if not any(s.any() for s in _outside(coeffs, _runs(n1, grid.hcut), _runs(n2, grid.hcut), grid.zcut + 1)):
        return
    keep = dealias_mask(grid)[:, :n2, : coeffs.shape[-1]]
    bad = (coeffs != 0) & ~keep
    n1, n2, m = np.nonzero(bad.reshape(-1, *keep.shape).any(axis=0))
    nums = mode_numbers(grid)[0]
    nmax = int(np.maximum(np.abs(nums[n1]), np.abs(nums[n2])).max())
    raise ValueError(
        f"{what} has {int(np.count_nonzero(bad))} nonzero coefficients outside the 2/3-rule band "
        f"|n1|, |n2| <= {grid.hcut}, m <= {grid.zcut} (largest max(|n1|, |n2|) "
        f"there {nmax}, largest m {int(m.max())}); band-limited transforms would drop them"
    )


def barotropic_values(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real values of compact (.., nh, nh) coefficients of real z-independent fields."""
    nh = grid.nh
    return sfft.irfft2(coeffs[..., : nh // 2 + 1], s=(nh, nh), axes=(-2, -1), norm="forward")


def barotropic_coeffs(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full compact (.., nh, nh) coefficients of real (.., nh, nh) values."""
    h = grid.nh // 2
    xh = sfft.rfft2(vals, axes=(-2, -1), norm="forward")
    out = np.empty(xh.shape[:-1] + (grid.nh, 1), dtype=np.complex128)
    out[..., : h + 1, 0] = xh
    return _conj_fill(out, h - 1)[..., 0]


def _cos_in_scale(nz: int) -> np.ndarray:
    s = np.full(nz, 1.0 / SQRT2)
    s[0] = 1.0
    return s


def _cos_out_scale(hsize: int, nz: int) -> np.ndarray:
    s = np.full(nz, 1.0 / (SQRT2 * nz * hsize))
    s[0] = 1.0 / (2 * nz * hsize)
    return s


# ---------------------------------------------------------------------------
# diagonal operators
# ---------------------------------------------------------------------------

def apply_A_exp(f: SpectralField, r: float, tau: float) -> SpectralField:
    """Apply A^r e^{tau A}, A = sqrt(-Delta_h), as a diagonal multiplier.

    A multiplier past the float64 range raises SpectralRangeError on a
    populated shell and is 0 on an empty one.
    """
    if r < 0 or tau < 0:
        raise ValueError("r and tau must be nonnegative")
    mult = a_exp_weight(kabs(f.grid), r, tau, lambda: (np.abs(f.coeffs) > 0.0).any(axis=(0, 3))[..., None])
    return SpectralField(f.grid, f.coeffs * mult, f.basis)


def dz(f: SpectralField) -> SpectralField:
    """Vertical derivative; it toggles the cos/sin basis tag."""
    w = mpi(f.grid)
    if f.basis == COS:
        # d/dz sqrt(2) cos(m pi z) = -m pi sqrt(2) sin(m pi z)
        return SpectralField(f.grid, f.coeffs * (-w), SIN)
    # d/dz sqrt(2) sin(m pi z) = +m pi sqrt(2) cos(m pi z)
    return SpectralField(f.grid, f.coeffs * w, COS)


def divergence(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """i kx a_x + i ky a_y of 2-vector coefficients a, 3-D (full or packed band)
    or compact (2, nh, nh) layout."""
    kxx, kyy = k_h(grid, a)
    return 1j * kxx * a[0] + 1j * kyy * a[1]


def div_h(f: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-vector field."""
    if f.components != 2:
        raise ValueError("div_h expects a 2-vector field")
    return SpectralField(f.grid, divergence(f.coeffs, f.grid)[None], f.basis)


# ---------------------------------------------------------------------------
# pseudo-spectral product
# ---------------------------------------------------------------------------

_CLOSURE = {(COS, COS): COS, (SIN, SIN): COS, (COS, SIN): SIN, (SIN, COS): SIN}


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product via transform round trip, dealiased.

    Component rule: scalar*scalar, scalar*vector (broadcast), or
    componentwise vector*vector.  Two real (conjugate-symmetric) factors
    take the real transform path; any other pair the complex one.  A factor
    with a mode outside the 2/3-rule band raises ValueError.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    cf = band_pack(f.coeffs, f.grid, "product factor f")
    cg = band_pack(g.coeffs, g.grid, "product factor g")
    tag = _CLOSURE[(f.basis, g.basis)]
    real = is_conjugate_symmetric(f) and is_conjugate_symmetric(g)
    pf = values_from_coeffs(cf, f.grid, f.basis, real=real)
    pg = values_from_coeffs(cg, g.grid, g.basis, real=real)
    if f.components == g.components:
        pv = pf * pg
    elif f.components == 1:
        pv = pf[0:1] * pg
    elif g.components == 1:
        pv = pf * pg[0:1]
    else:
        raise ValueError("incompatible component counts")
    return SpectralField(f.grid, band_unpack(coeffs_from_values(pv, f.grid, tag), f.grid), tag)


def integral_z(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sine coefficients of int_0^z of cosine coefficients c (last axis m, full
    or packed band layout).

    Cosine mode m >= 1 maps to sine mode m divided by m pi; the m = 0 mode,
    whose integral z is no sine series, is dropped.
    """
    out = np.zeros_like(c)
    out[..., 1:] = c[..., 1:] / mpi(grid, c)[..., 1:]
    return out


def w_from_baroclinic(vt: SpectralField) -> SpectralField:
    """Vertical velocity w = -int_0^z div_h(Vt) ds for a baroclinic 2-vector.

    w vanishes at z = 0 and z = 1 identically.
    """
    if vt.components != 2:
        raise ValueError("expects a 2-vector field")
    if vt.basis != COS:
        raise BasisError("expects a cosine-basis field")
    d = divergence(vt.coeffs, vt.grid)[None]
    m0 = np.abs(d[..., 0]).max()
    scale = np.abs(d).max()
    if m0 > 1e-12 * max(scale, 1e-300):
        raise ValueError(
            "baroclinic input required: nonzero vertical-mean divergence "
            f"(relative size {m0 / max(scale, 1e-300):.3e}) would violate w(z=1)=0"
        )
    return SpectralField(vt.grid, integral_z(-d, vt.grid), SIN)


# ---------------------------------------------------------------------------
# inner products / reality
# ---------------------------------------------------------------------------

def inner(f: SpectralField, g: SpectralField) -> complex:
    """L^2(D) inner product <f, g> = sum_coeffs f conj(g) (orthonormal basis)."""
    _check_same(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))  # vdot conjugates first arg


def conjugate_reverse(coeffs: np.ndarray) -> np.ndarray:
    """Map a(n1, n2, m) -> conj(a(-n1, -n2, m)) on the FFT-ordered axes."""
    # four block copies: an order of magnitude faster than np.roll on reversed views
    out = np.empty_like(coeffs)
    for d1, s1 in _NEG_INDEX:
        for d2, s2 in _NEG_INDEX:
            out[..., d1, d2, :] = coeffs[..., s1, s2, :]
    return np.conj(out, out=out)


def _conjugate_mismatch(a: np.ndarray) -> tuple[float, float]:
    """(max |a(n) - conj a(-n)|, max |a|) over the last three axes (n1, n2, m).

    The residual is taken block by block over the rows 0 <= n1 <= nh/2
    against their partner rows, with no reversed copy of the array: the pair
    (n, -n) has the same residual from either side (bit for bit), so the
    other rows add nothing.  The scale is NaN when a holds a NaN.
    """
    n1 = a.shape[-3]
    h = n1 // 2
    rows = (_NEG_INDEX[0], (slice(1, h + 1), slice(n1 - 1, n1 - h - 1, -1)))
    resid = 0.0
    for d1, s1 in rows:
        for d2, s2 in _NEG_INDEX:
            blk = np.conjugate(a[..., s1, s2, :])
            blk -= a[..., d1, d2, :]
            resid = max(resid, np.abs(blk).max())
    return resid, max(np.abs(a).max(), 1e-300)


def is_conjugate_symmetric(f: SpectralField) -> bool:
    """Reality condition a(-n1,-n2,m) = conj(a(n1,n2,m)), to 1e-12 relative to max |a|."""
    resid, scale = _conjugate_mismatch(f.coeffs)
    return bool(resid <= 1e-12 * scale)


def require_real(coeffs: np.ndarray, what: str):
    """ValueError unless coeffs are conjugate symmetric to 1e-10 relative to
    max |a|.  Non-finite coefficients pass, so that a state that went NaN or
    inf can still be built and its run reported as terminated."""
    resid, scale = _conjugate_mismatch(coeffs)
    rel = resid / scale
    if rel > 1e-10:
        raise ValueError(f"{what} (relative mismatch {rel:.3e}): the velocity is not real")


def symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric (real-field) subspace."""
    return 0.5 * (coeffs + conjugate_reverse(coeffs))
