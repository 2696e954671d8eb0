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

The kernels (c2c, r2c, c2r, dct, dst) are those of scipy's compiled
pocketfft extension, `scipy/fft/_pocketfft/pypocketfft`, loaded from its file
(`_load_pocketfft`) and called with the arguments scipy.fft's wrappers would
pass, so every transform is bit for bit the scipy.fft one.  Importing
scipy.fft itself costs 0.35-0.4 s of CPU on a 2-vCPU Xeon host (Python 3.11,
scipy 1.17), more than half of a process's start-up: it pulls in scipy's
array-API layer, numpy.f2py, numpy.testing and, through _fftlog, all of
scipy.special.  The extension alone loads in 1-5 ms.  It is registered
under its own module name, so a later `import scipy.fft` shares the one
instance.

All operations are pure: inputs are never mutated, and outputs are fresh
unless the caller passes an `out` buffer to write them into.  The 3-D
transforms also take the caller's pass buffer `work`, and `band_product` a
flat `scratch` for its values and passes.  The steppers and the lemma
checker pass the arrays of the grid's workspace (`Workspace`, `_workspace`),
which this module keeps with the buffer contract; every other caller gets
fresh arrays through the same code.  A buffer's prior contents are never
read: each call zeroes or overwrites all of it that the passes read.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .grid import GridSpec, SpectralRangeError, a_exp_weight, dealias_mask, k_h, kabs, mode_numbers, mpi

SQRT2 = np.sqrt(2.0)

COS = "cos"
SIN = "sin"


class BasisError(ValueError):
    """Raised on incompatible cos/sin basis tags."""


@dataclass
class SpectralField:
    """Coefficients of a scalar or 2-vector field over (n1, n2, m): the 3-D
    layout (components, nh, nh, nz) or its packed 2/3-rule band (`band_pack`),
    with leading sample axes for a stack of fields (the lemma checker's)."""

    grid: GridSpec
    coeffs: np.ndarray  # (.., components, n1, n2, m) complex
    basis: str = COS

    def __post_init__(self):
        if self.coeffs.shape[-3:] not in (self.grid.shape, band_shape(self.grid)):
            raise ValueError(f"coefficient shape {self.coeffs.shape} fits neither grid {self.grid.shape} nor its band")
        if self.coeffs.ndim < 4 or self.coeffs.shape[-4] not in (1, 2):
            raise ValueError("coeffs must have shape (.., 1 or 2, nh, nh, nz) or the packed band's")
        if self.basis not in (COS, SIN):
            raise ValueError(f"unknown basis tag {self.basis!r}")

    @property
    def components(self) -> int:
        return self.coeffs.shape[-4]

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
        return SpectralField(self.grid, self.coeffs[..., c : c + 1, :, :, :], self.basis)


def _check_same(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if a.basis != b.basis:
        raise BasisError(f"basis mismatch: {a.basis} vs {b.basis}")


# ---------------------------------------------------------------------------
# transform kernels: one horizontal transform composed with one vertical pair
# ---------------------------------------------------------------------------

_WORKERS = 1


def _load_pocketfft():
    """scipy's compiled pocketfft extension, loaded from its file without
    importing scipy.fft, and registered under its own module name so that a
    later `import scipy.fft` shares this instance (or this one reuses it)."""
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    where = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft") if spec else "sys.path (no scipy)"
    paths = [os.path.join(where, "pypocketfft" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's pocketfft extension (pypocketfft) was not found in {where}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


# the kernels' arguments are those scipy.fft's wrappers pass: (array, axes,
# forward, inorm, out, nthreads), inorm 0 unnormalised and 2 divided by the size
_pfft = _load_pocketfft()

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
    """Views of disjoint slabs that cover a full-layout a outside the blocks
    a[.., rows, cols, :depth]: the modes m < depth of the rows between and
    after the row runs and of the columns between and after the column runs
    of those rows, and the modes m >= depth of every column (fewer, larger
    slabs)."""
    def gaps(runs, n):
        ends = [r.stop for r, _ in runs]
        starts = [r.start for r, _ in runs[1:]] + [n]
        return [slice(e, s) for e, s in zip(ends, starts) if s > e]

    slabs = [a[..., g, :, :depth] for g in gaps(rows, a.shape[-3])]
    slabs += [a[..., r, g, :depth] for r, _ in rows for g in gaps(cols, a.shape[-2])]
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


def _z_inverse(slots: np.ndarray, basis: str, x: np.ndarray) -> np.ndarray:
    """DCT/DST-III in place in x (.., n), whose entries past the k slots are
    zero: the vertical series of DCT/DST slots (last axis) at n midpoints
    z_j = (j + 1/2)/n, the scaled slots zero-padded to n."""
    k = slots.shape[-1]
    np.multiply(slots, _cos_in_scale(k) if basis == COS else 1.0 / SQRT2, out=x[..., :k])
    return _r2r(basis, x, 3)


def _r2r(basis: str, x: np.ndarray, type: int) -> np.ndarray:
    """The DCT (cos) or DST (sin) of the given type along the last axis, in place.

    A complex x takes one real transform of its interleaved (real, imag)
    parts, the same arithmetic as one transform of each part.
    """
    kernel = _pfft.dct if basis == COS else _pfft.dst
    if np.iscomplexobj(x):
        pairs = x.view(np.float64).reshape(x.shape + (2,))
        kernel(pairs, type, (-2,), 0, pairs, _WORKERS)
    else:
        kernel(x, type, (-1,), 0, x, _WORKERS)
    return x


def _z_forward(x: np.ndarray, basis: str, hsize: int, out: np.ndarray) -> np.ndarray:
    """DCT/DST-II in place in midpoint values x: the slots of the modes
    m <= mmax, divided by hsize, written to out (.., mmax + 1) at their modes
    (sine mode m from slot m - 1; its m = 0 entry is 0).

    hsize is the point count of the unnormalised horizontal forward transform
    that preceded, so its normalisation costs no pass of its own.
    """
    nz, mmax = x.shape[-1], out.shape[-1] - 1
    d = _r2r(basis, x, 2)
    if basis == COS:
        return np.multiply(d[..., : mmax + 1], _cos_out_scale(hsize, nz, mmax + 1), out=out)
    np.multiply(d[..., :mmax], 1.0 / (SQRT2 * nz * hsize), out=out[..., 1:])
    out[..., 0] = 0.0
    return out


def _fft_pass(x: np.ndarray, axis: int, inverse: bool) -> None:
    """One unnormalised FFT pass along `axis`, in place in x (which may be a view)."""
    _pfft.c2c(x, (axis,), not inverse, 0, x, _WORKERS)


def vertical_values(coeffs: np.ndarray, basis: str, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vertical series of coefficients (last axis m) at n midpoints, n >= nz,
    into out if given.

    The horizontal modes are left untouched: a refined z grid for per-z
    horizontal norms, which Parseval evaluates without an x transform.
    """
    slots = _slots(coeffs, basis, coeffs.shape[-1] - 1)
    x = _buffer(out, coeffs.shape[:-1] + (n,), coeffs.dtype)
    x[..., slots.shape[-1] :] = 0.0
    return _z_inverse(slots, basis, x)


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


def band_pack(a: np.ndarray, grid: GridSpec, what: str = "coefficients", out: np.ndarray | None = None) -> np.ndarray:
    """The packed band of a full-layout (.., n1, n2, m) array: the modes
    |n1|, |n2| <= hcut, m <= zcut, shape (.., 2 hcut + 1, 2 hcut + 1, zcut + 1)
    (n2 = 1 stays 1 on the x-z layout, m = 1 on the barotropic one), into
    out if given.

    A nonzero mode outside the band raises ValueError naming `what`
    (`require_band`): this is where a full layout enters the band.
    """
    require_band(a, grid, what)
    return band_gather(a, grid, out)


def band_gather(a: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """The packed band of a full-layout array, as `band_pack` without its
    check, into out if given: for arrays whose entries outside the band are
    to be dropped (tables over the grid, draws before their mask)."""
    rows, cols = _box(grid, *a.shape[-3:-1], False)[:2]
    shape = a.shape[:-3] + (_width(rows), _width(cols), min(a.shape[-1], grid.zcut + 1))
    return _gather(a, rows, cols, np.empty(shape, dtype=a.dtype) if out is None else out)


def band_shape(grid: GridSpec) -> tuple[int, int, int]:
    """The (n1, n2, m) axes of the 3-D layout's packed band."""
    rows, cols, _, mmax = _box(grid, grid.nh, grid.nh, False)
    return _width(rows), _width(cols), mmax + 1


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


def _buffer(buf: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """buf, checked to be a C-contiguous array of the given shape and dtype, or a
    fresh one when buf is None."""
    if buf is None:
        return np.empty(shape, dtype)
    if buf.shape != shape or buf.dtype != dtype or not buf.flags.c_contiguous:
        raise ValueError(f"buffer of shape {buf.shape} and dtype {buf.dtype} given where a C-contiguous "
                         f"{np.dtype(dtype)} array of shape {shape} is needed")
    return buf


class Workspace:
    """Scratch memory of one grid, reused from call to call: the steppers'
    right-hand sides and RK4 stages (`pe_solver`, `limit_solver`) and the
    lemma checker's stacks (`lemmas`).

    A layout is a function of the grid, and of any further arguments given
    to `arrays`, that returns a dict name -> (shape, dtype).  `arrays`
    carves a layout's arrays, in order, from the start of one arena, and
    returns the same arrays at every later call with the same layout and
    arguments.  The layouts share the arena: their users never run at once,
    and no array of a layout holds anything from one call to the next.  The
    arena grows to the largest layout taken.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._arena = np.empty(0, np.uint8)
        self._carved = {}

    def arrays(self, layout, *args) -> SimpleNamespace:
        got = self._carved.get((layout, args))
        if got is None:
            specs = layout(self.grid, *args)
            sizes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in specs.values()]
            starts = np.cumsum([0] + [-(-n // 64) * 64 for n in sizes])
            if starts[-1] > self._arena.nbytes:
                self._arena = np.empty(starts[-1], np.uint8)
                self._carved.clear()
            got = self._carved[(layout, args)] = SimpleNamespace(**{
                name: self._arena[start : start + n].view(dtype).reshape(shape)
                for (name, (shape, dtype)), start, n in zip(specs.items(), starts, sizes)
            })
        return got


@lru_cache(maxsize=4)
def _workspace(grid: GridSpec) -> Workspace:
    """The workspace of a grid; those of the last few grids used are kept."""
    return Workspace(grid)


def _carve(flat: np.ndarray | None, shape: tuple, dtype=np.complex128, at: int = 0) -> np.ndarray:
    """The C-contiguous array of the given shape and dtype that starts `at`
    entries of that dtype into the flat workspace array `flat`, or a fresh
    one when flat is None: for a buffer whose shape varies from call to
    call, carved from one array sized for the largest."""
    if flat is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    return flat.view(dtype)[at : at + size].reshape(shape)


def _blocks(x: np.ndarray, rows: tuple, cols: tuple):
    """(full-layout view, packed index) of each band block x[.., rows, cols, :]."""
    return [(x[..., r, c, :], (Ellipsis, rp, cp, slice(None))) for r, rp in rows for c, cp in cols]


def coeffs_from_values(vals: np.ndarray, grid: GridSpec, basis: str = COS, *,
                       out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Dealiased forward transform: collocation values (.., n1, n2, z) -> the
    basis coefficients of the 2/3-rule band |n1|, |n2| <= hcut, m <= zcut, in
    the packed layout (`band_pack`).

    The n2 pass runs first (an rfft for real values, whose half plane is
    expanded by conjugation at the end), then the n1 pass on the band's n2
    columns, then the vertical DCT/DST in place on the band's blocks, with
    the horizontal normalisation folded into the scale that writes each
    block's modes m <= zcut to the output.  A single n2 = 0 column
    (.., nh, 1, nz) is the x-z layout.

    work is the pass buffer (.., n1, n2 // 2 + 1 or n2, nz), complex (vals
    itself may serve for complex values), and out the packed result; both are
    fresh when not given.
    """
    n1, n2, nz = vals.shape[-3:]
    real = not np.iscomplexobj(vals)
    rows, cols, _, mmax = _box(grid, n1, n2, real)
    lead = vals.shape[:-3]
    width = n2 // 2 + 1 if real else n2
    x = (_pfft.r2c if real else _pfft.c2c)(
        vals, (-2,), True, 0, _buffer(work, lead + (n1, width, nz), np.complex128), _WORKERS)
    for c, _ in cols:
        _fft_pass(x[..., c, :], -3, inverse=False)
    res = _buffer(out, lead + _packed_axes(grid, n1, n2), np.complex128)
    for block, at in _blocks(x, rows, cols):
        _z_forward(block, basis, n1 * n2, res[at])
    return _conj_fill(res, res.shape[-2] - _width(cols)) if real else res


def values_from_coeffs(coeffs: np.ndarray, grid: GridSpec, basis: str = COS, *, real: bool = False,
                       out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform of the 2/3-rule band: packed basis coefficients
    (`band_pack`) -> collocation values on the full grid.

    The scaled DCT/DST slots of the band's (n1, n2) columns are written into
    the band's blocks of the pass buffer, zero-padded to nz (the empty sine
    slot m = 0 is never transformed), and the vertical DCT/DST runs there in
    place; everything outside the blocks is zeroed.  Then the n2 pass runs on
    the band's rows and the n1 pass on all of them.  real=True asserts that
    the field is real (conjugate symmetric): only the half plane n2 <= hcut
    is read, the n1 pass comes first, on the band's columns, and the n2 pass
    is an irfft, and the values come back real.  Otherwise the values are
    complex.

    out receives the values (.., n1, n2, nz); the complex path runs its
    passes there, the real path in work (.., n1, n2 // 2 + 1, nz), complex.
    Both are fresh when not given.
    """
    require_packed(coeffs, grid)
    n1, n2 = _full_axes(grid, coeffs)
    rows, cols, _, mmax = _box(grid, n1, n2, real)
    lead, nz = coeffs.shape[:-3], grid.nz
    x = _buffer(work if real else out, lead + (n1, n2 // 2 + 1 if real else n2, nz), np.complex128)
    for slab in _outside(x, rows, cols, mmax + 1 if basis == COS else mmax):
        slab.fill(0.0)
    for block, at in _blocks(x, rows, cols):
        _z_inverse(_slots(coeffs[at], basis, mmax), basis, block)
    if real:
        _fft_pass(x[..., cols[0][0], :], -3, inverse=True)
        return _pfft.c2r(x, (-2,), n2, False, 0, _buffer(out, lead + (n1, n2, nz), np.float64), _WORKERS)
    for r, _ in rows:
        _fft_pass(x[..., r, :, :], -2, inverse=True)
    _fft_pass(x, -3, inverse=True)
    return x


@lru_cache(maxsize=None)
def _packed_axes(grid: GridSpec, n1: int, n2: int) -> tuple:
    """The (n1, n2, m) axes of the packed band of an (.., n1, n2, nz) layout."""
    rows, _, cut, mmax = _box(grid, n1, n2, False)
    return _width(rows), _width(_runs(n2, cut)), mmax + 1


def require_packed(coeffs: np.ndarray, grid: GridSpec) -> None:
    """Raise ValueError unless coeffs (.., n1, n2, m) are in the packed band
    layout of the 3-D or the x-z layout."""
    packed = _packed_axes(grid, *_full_axes(grid, coeffs))
    if coeffs.shape[-3:] != packed:
        raise ValueError(f"coefficients of shape {coeffs.shape} are not in the packed band layout "
                         f"(.., {packed[0]}, {packed[1]}, {packed[2]}); band_pack converts the full one")


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


def barotropic_values(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Real values of compact (.., nh, nh) coefficients of real z-independent
    fields, into out if given."""
    nh = grid.nh
    return _pfft.c2r(coeffs[..., : nh // 2 + 1], (-2, -1), nh, False, 0, out, _WORKERS)


def barotropic_coeffs(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full compact (.., nh, nh) coefficients of real (.., nh, nh) values."""
    h = grid.nh // 2
    xh = _pfft.r2c(vals, (-2, -1), True, 2, None, _WORKERS)
    out = np.empty(xh.shape[:-1] + (grid.nh, 1), dtype=np.complex128)
    out[..., : h + 1, 0] = xh
    return _conj_fill(out, h - 1)[..., 0]


@lru_cache(maxsize=None)
def _cos_in_scale(k: int) -> np.ndarray:
    s = np.full(k, 1.0 / SQRT2)
    s[0] = 1.0
    s.flags.writeable = False
    return s


@lru_cache(maxsize=None)
def _cos_out_scale(hsize: int, nz: int, k: int) -> np.ndarray:
    s = np.full(k, 1.0 / (SQRT2 * nz * hsize))
    s[0] = 1.0 / (2 * nz * hsize)
    s.flags.writeable = False
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
    c, k = f.coeffs, kabs(f.grid)

    def populated():
        return (np.abs(c) > 0.0).any(axis=tuple(range(c.ndim - 3)) + (-1,))[..., None]

    mult = a_exp_weight(band_gather(k, f.grid) if is_packed(c, f.grid) else k, r, tau, populated)
    return replace(f, coeffs=c * mult)


def dz(f: SpectralField) -> SpectralField:
    """Vertical derivative; it toggles the cos/sin basis tag."""
    w = mpi(f.grid, f.coeffs)
    if f.basis == COS:
        # d/dz sqrt(2) cos(m pi z) = -m pi sqrt(2) sin(m pi z)
        return replace(f, coeffs=f.coeffs * (-w), basis=SIN)
    # d/dz sqrt(2) sin(m pi z) = +m pi sqrt(2) cos(m pi z)
    return replace(f, coeffs=f.coeffs * w, basis=COS)


def divergence(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """i kx a_x + i ky a_y of 2-vector coefficients a, 3-D (full or packed band)
    or compact (2, nh, nh) layout."""
    kxx, kyy = k_h(grid, a)
    return 1j * kxx * a[0] + 1j * kyy * a[1]


def div_h(f: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-vector field."""
    if f.coeffs.shape[-4] != 2:
        raise ValueError("div_h expects a 2-vector field")
    d = divergence(np.moveaxis(f.coeffs, -4, 0), f.grid)
    return replace(f, coeffs=np.expand_dims(d, -4))


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
    real = is_conjugate_symmetric(f) and is_conjugate_symmetric(g)
    out, tag = band_product(cf, f.basis, cg, g.basis, f.grid, real)
    return SpectralField(f.grid, band_unpack(out, f.grid), tag)


def band_product(cf: np.ndarray, fbasis: str, cg: np.ndarray, gbasis: str, grid: GridSpec, real: bool, *,
                 out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> tuple[np.ndarray, str]:
    """(packed coefficients, basis) of the dealiased pointwise product of two
    packed band arrays (.., components, n1, n2, m), by `product`'s component
    rule along the components axis; real=True asserts both factors real.

    out receives the product, and the values and pass buffers of its round
    trip are carved from `scratch` (`_round_trip_buffers`); all are fresh
    when not given.
    """
    nf, ng = cf.shape[-4], cg.shape[-4]
    if nf != ng and 1 not in (nf, ng):
        raise ValueError("incompatible component counts")
    (vf, vg), work = _round_trip_buffers(scratch, grid, cf.shape[:-4], _full_axes(grid, cf), (nf, ng), real)
    pf = values_from_coeffs(cf, grid, fbasis, real=real, out=vf, work=work(nf))
    pg = values_from_coeffs(cg, grid, gbasis, real=real, out=vg, work=work(ng))
    # the component rule is broadcasting on the components axis, into the factor with more components
    pv = np.multiply(pf, pg, out=pf if nf >= ng else pg)
    tag = _CLOSURE[(fbasis, gbasis)]
    return coeffs_from_values(pv, grid, tag, out=out, work=work(max(nf, ng)) if real else pv), tag


def _round_trip_buffers(scratch: np.ndarray | None, grid: GridSpec, lead: tuple, axes: tuple, counts: tuple,
                        real: bool) -> tuple:
    """The buffers of a transform round trip of fields of `counts`
    components on the (n1, n2) `axes`, with leading axes `lead`: their
    physical values (real or complex), one after another from the start of
    the flat complex array `scratch`, and a function of a component count
    that gives the real transforms' pass buffer, carved after them (None on
    the complex path, which runs its passes in the values).  Fresh arrays
    when scratch is None (`_carve`)."""
    n1, n2 = axes
    shapes = [(*lead, k, n1, n2, grid.nz) for k in counts]
    dtype = np.float64 if real else np.complex128
    values, at = [], 0
    for shape in shapes:
        values.append(_carve(scratch, shape, dtype, at))
        at += math.prod(shape)
    passes = None if scratch is None else scratch[-(-at // 2) :]

    def work(k):
        return _carve(passes, (*lead, k, n1, n2 // 2 + 1, grid.nz)) if real else None

    return values, work


def integral_z(c: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Sine coefficients of int_0^z of cosine coefficients c (last axis m, full
    or packed band layout), into out if given (c itself may serve).

    Cosine mode m >= 1 maps to sine mode m divided by m pi; the m = 0 mode,
    whose integral z is no sine series, is dropped.
    """
    out = np.empty_like(c) if out is None else out
    np.divide(c[..., 1:], mpi(grid, c)[..., 1:], out=out[..., 1:])
    out[..., 0] = 0.0
    return out


def w_from_baroclinic(vt: SpectralField) -> SpectralField:
    """Vertical velocity w = -int_0^z div_h(Vt) ds for a baroclinic 2-vector
    (or a stack of them, as `div_h` takes).

    w vanishes at z = 0 and z = 1 identically.  A field with a nonzero
    vertical-mean divergence, for which w(z=1) = 0 fails, raises ValueError.
    """
    if vt.coeffs.shape[-4] != 2:
        raise ValueError("expects a 2-vector field")
    if vt.basis != COS:
        raise BasisError("expects a cosine-basis field")
    d = div_h(vt).coeffs
    # the vertical-mean divergence of each field, relative to its largest entry
    m0 = np.abs(d[..., 0]).max(axis=(-3, -2, -1))
    scale = np.maximum(np.abs(d).max(axis=(-4, -3, -2, -1)), 1e-300)
    if np.any(m0 > 1e-12 * scale):
        raise ValueError(
            "baroclinic input required: nonzero vertical-mean divergence "
            f"(relative size {np.max(m0 / scale):.3e}) would violate w(z=1)=0"
        )
    return replace(vt, coeffs=integral_z(-d, vt.grid), basis=SIN)


# ---------------------------------------------------------------------------
# inner products / reality
# ---------------------------------------------------------------------------

def inner(f: SpectralField, g: SpectralField) -> complex:
    """L^2(D) inner product <f, g> = sum_coeffs f conj(g) (orthonormal basis)."""
    _check_same(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))  # vdot conjugates first arg


def conjugate_reverse(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map a(n1, n2, m) -> conj(a(-n1, -n2, m)) on the FFT-ordered axes, into
    out (a fresh array by default, never coeffs itself)."""
    # four conjugating block copies: an order of magnitude faster than np.roll on reversed views
    out = np.empty_like(coeffs) if out is None else out
    for d1, s1 in _NEG_INDEX:
        for d2, s2 in _NEG_INDEX:
            np.conjugate(coeffs[..., s1, s2, :], out=out[..., d1, d2, :])
    return out


def _conjugate_mismatch(a: np.ndarray, axis=None) -> tuple:
    """(max |a(n) - conj a(-n)|, max |a|) over the last three axes (n1, n2, m),
    each a maximum over `axis` (every axis by default).

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
            resid = np.fmax(resid, np.abs(blk).max(axis))  # a NaN block adds nothing
    return resid, np.maximum(np.abs(a).max(axis), 1e-300)


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


def symmetrize(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Project onto the conjugate-symmetric (real-field) subspace:
    0.5 (a + conj a(-n)), formed in the buffer of the reversed copy, out
    (a fresh array by default, never coeffs itself)."""
    out = conjugate_reverse(coeffs, out)
    out += coeffs
    out *= 0.5
    return out
