"""Numerical certification of the product/commutator estimates.

For each lemma kind the checker assembles the exact left-hand side (a
spectral inner product) and the displayed right-hand side with every
constant set to 1, and reports the ratio.  The LHS has two independent
paths: exact coefficient convolution when every input has at most 3 active
modes, and dealiased transform products otherwise; the slow path anchors
the fast one.

The transform path and the RHS evaluate a stack of input triples at once:
each field is one `SpectralField` of the samples' packed 2/3-rule bands,
stacked on a leading sample axis, which spectral's diagonal operators keep.
`check` evaluates one triple as a stack of one; `run_ensemble` draws the
band of its samples alone, in the order `ensemble_fields` draws them, and
evaluates them in stacks, every sample to the same bits as `check` of the
same draw.  Each input is validated once, where it is packed: its band
(`band_pack`, a ValueError naming f, g or h) and, for f and g, the
conjugate symmetry that selects the real transforms.  The fields derived
from them (div_h, d/dz, int_0^z, A^r e^{tau A}) are diagonal multipliers of
a checked band, so they are not checked again.

A stack's arrays live in its lemma layout (`_lemma_layout`) of the grid's
workspace (`spectral.Workspace`): the inputs, which run_ensemble draws and
check packs into, the transforms' values and pass buffers, the LHS field,
the inner products' terms and the RHS's vertical series.  The inner products
reduce on the packed band, one reduction per stack, their complex products
written with named operands in their written order.  What a check returns
are floats; no array of the layout holds anything from one check to the
next.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .grid import GridSpec, a_exp_weight, k_h, kabs, mode_numbers
from .initial_data import random_coeffs
from .norms import NormSpec, ShellPower, norm_rst, q_table, q_weight, seminorm_a_sq
from .spectral import (
    _CLOSURE,
    _carve,
    _conjugate_mismatch,
    _round_trip_buffers,
    _workspace,
    COS,
    SIN,
    SpectralField,
    apply_A_exp,
    band_gather,
    band_pack,
    band_product,
    band_shape,
    band_unpack,
    coeffs_from_values,
    div_h,
    dz,
    is_packed,
    values_from_coeffs,
    vertical_values,
    w_from_baroclinic,
)


class LemmaKind(str, Enum):
    banach_algebra = "banach_algebra"
    type1 = "type1"
    type2 = "type2"
    type3 = "type3"
    diff_type1 = "diff_type1"
    diff_type2 = "diff_type2"
    diff_type4 = "diff_type4"


_MIN_R = {
    LemmaKind.banach_algebra: 1.0,
    LemmaKind.type1: 1.0,
    LemmaKind.type2: 1.5,
    LemmaKind.type3: 1.0,
    LemmaKind.diff_type1: 2.0,
    LemmaKind.diff_type2: 2.0,
    LemmaKind.diff_type4: 2.0,
}


@dataclass
class CheckResult:
    kind: LemmaKind
    lhs: float
    rhs_unit: float
    ratio: float
    exact_path: bool


# ---------------------------------------------------------------------------
# per-z horizontal L2 profiles: the vertical series on a refined midpoint grid,
# horizontal norms by Parseval on the coefficients (no x transform).  Each
# field's power is binned once by q = n1^2 + n2^2, the binning of
# norms.ShellPower, and every profile of that field reduces the table.
# ---------------------------------------------------------------------------

_REFINE = 4  # midpoints per vertical mode of the refined z grid of the profiles


@lru_cache(maxsize=None)
def _columns(grid: GridSpec, packed: bool) -> np.ndarray:
    """Flat (n1, n2) indices of a layout's columns in storage order: all of
    the full layout's, or the packed band's, which keep ascending order."""
    flat = np.arange(grid.nh * grid.nh).reshape(grid.nh, grid.nh, 1)
    return (band_gather(flat, grid) if packed else flat).ravel()


@lru_cache(maxsize=None)
def _partners(n1: int, n2: int) -> np.ndarray:
    """Flat index of the column (-n1, -n2) of each column of an FFT-order
    (n1, n2) plane, full or packed."""
    return ((-np.arange(n1)) % n1 * n2)[:, None] + ((-np.arange(n2)) % n2)[None, :]


def _z_power(f: SpectralField, nzf: int, mirror: bool = False, ws=None) -> np.ndarray:
    """P[.., q, z] = sum_c sum_{n1^2 + n2^2 = q} |f_c(n1, n2, z)|^2 on nzf
    midpoints: one table per sample of a stack, one for a single field.

    The vertical series runs only on the populated (n1, n2) columns: an
    empty column adds exactly 0 to every entry.  mirror=True asserts that
    every sample is exactly conjugate symmetric: the series then runs on one
    column of each pair (n, -n), whose |f|^2 the other repeats bit for bit
    (|conj z|^2 = |z|^2, and the DCT/DST commutes with negation exactly).
    ws, a stack's lemma layout, holds the gathered columns (grad), and
    their series and the |f|^2 table (scratch); fresh arrays without it.
    """
    c = f.coeffs
    n1, n2, m = c.shape[-3:]
    c = c.reshape(*c.shape[:-3], n1 * n2, m)
    cols = np.flatnonzero(c.any(axis=tuple(range(c.ndim - 2)) + (-1,)))
    own, rows = cols, np.arange(len(cols))
    if mirror:
        rep = np.minimum(cols, _partners(n1, n2).ravel()[cols])
        own = cols[rep == cols]
        rows = np.searchsorted(own, rep)
    lead = c.shape[:-2]
    grad, scratch = (None, None) if ws is None else (ws.grad.ravel(), ws.scratch)
    picked = np.take(c, own, axis=-2, out=_carve(grad, (*lead, len(own), m)), mode="clip")
    vals = vertical_values(picked, f.basis, nzf, out=_carve(scratch, (*lead, len(own), nzf)))
    # |f|^2 summed over the components, real parts first, as np.square(vals.real).sum(axis=-3)
    # + np.square(vals.imag).sum(axis=-3) sums them, in place in the series' (real, imag) pairs
    pairs = vals.view(np.float64).reshape(*vals.shape[:-1], nzf, 2)
    np.square(pairs, out=pairs)
    for k in range(1, vals.shape[-3]):
        pairs[..., 0, :, :, :] += pairs[..., k, :, :, :]
    a2 = np.add(pairs[..., 0, :, :, 0], pairs[..., 0, :, :, 1], out=pairs[..., 0, :, :, 0])
    # one row per populated column, a mirrored column's a copy of its partner's
    a2 = np.take(a2, rows, axis=-2, out=_carve(scratch, (*lead[:-1], len(rows), nzf), np.float64, 2 * vals.size),
                 mode="clip")
    return q_table(a2, f.grid, _columns(f.grid, is_packed(f.coeffs, f.grid))[cols])


def _profile(p: np.ndarray, grid: GridSpec, r: float, tau: float) -> np.ndarray:
    """z -> ||A^r e^{tau A} f(z)||_{L2(T^2)} from f's table p = _z_power(f, nzf)."""
    return np.sqrt(_weight(grid, r, tau, True) @ p)


def _zero_mode_profile(p: np.ndarray) -> np.ndarray:
    """z -> |fhat_0(z)| (vector magnitude of the k = 0 column): the q = 0 row of p."""
    return np.sqrt(p[..., 0, :])


@lru_cache(maxsize=64)
def _weight(grid: GridSpec, r: float, tau: float, per_q: bool) -> np.ndarray:
    """The squared-norm weight |k|^{2r} e^{2 tau |k|}, read-only, per q bin
    (`q_weight`) or over the packed band's (n1, n2) columns: a check reuses
    a few (r, tau) for every profile and inner product."""
    w = q_weight(grid, r, tau) if per_q else a_exp_weight(band_gather(kabs(grid), grid), 2.0 * r, 2.0 * tau)
    w.flags.writeable = False
    return w


def _weighted_inner(x: SpectralField, h: SpectralField, r: float, tau: float, ws) -> list[complex]:
    """<A^r e^{tau A} x, A^r e^{tau A} h> per sample of packed stacks."""
    return _inner(x, h, _weight(x.grid, r, tau, False), ws)


def _plain_inner(x: SpectralField, h: SpectralField, ws) -> list[complex]:
    return _inner(x, h, None, ws)


def _inner(x: SpectralField, h: SpectralField, w: np.ndarray | None, ws) -> list[complex]:
    """sum x conj(h) w per sample (w None for 1), in one reduction per stack,
    formed in the spent scratch of the lemma layout ws.  Each complex
    product has named operands in that written order: numpy would evaluate
    x * np.conj(h) as conj(h) * x in a temporary of 256 KiB or more, which
    rounds differently."""
    xh = np.conjugate(h.coeffs, out=_carve(ws.scratch, x.coeffs.shape))
    np.multiply(x.coeffs, xh, out=xh)
    if w is not None:
        np.multiply(xh, w, out=xh)
    return xh.reshape(len(xh), -1).sum(axis=1).tolist()


def _adv_field(f: SpectralField, g: SpectralField, real: bool, ws=None) -> SpectralField:
    """(f . grad) g, dealiased, in one transform round trip: the inverse of f,
    the inverse of the stacked (dx g, dy g), and one forward of the stacked
    (f_x dx g, f_y dy g).  The two halves are summed as coefficients, as
    separate products would be: the commutator LHS takes a difference of
    nearly equal inner products, which magnifies any change of rounding.
    real=True asserts f and g real (conjugate symmetric): multiplying by ik
    maps a conjugate-symmetric g onto conjugate-symmetric dx g, dy g on the
    2/3-rule band, which excludes the self-paired Nyquist row and column.
    In the lemma layout ws, the gradient stack, its forward and the result
    are in grad, and the values and pass buffers in scratch
    (`_round_trip_buffers`); fresh arrays without it."""
    grid, (n, nc) = f.grid, g.coeffs.shape[:2]
    gb = g.coeffs
    grad_flat, scratch = (None, None) if ws is None else (ws.grad.ravel(), ws.scratch)
    grad = _carve(grad_flat, (n, 2 * nc, *gb.shape[2:]))
    kxx, kyy = k_h(grid, gb)
    np.multiply(gb, 1j * kxx, out=grad[:, :nc])
    np.multiply(gb, 1j * kyy, out=grad[:, nc:])
    (vg, vf), work = _round_trip_buffers(scratch, grid, (n,), (grid.nh, grid.nh), (2 * nc, 2), real)
    pg = values_from_coeffs(grad, grid, g.basis, real=real, out=vg, work=work(2 * nc))
    pf = values_from_coeffs(f.coeffs, grid, f.basis, real=real, out=vf, work=work(2))
    pg[:, :nc] *= pf[:, 0:1]
    pg[:, nc:] *= pf[:, 1:2]
    tag = _CLOSURE[(f.basis, g.basis)]
    # the gradient stack is spent: the forward writes over it, and the sum over its first half
    out = coeffs_from_values(pg, grid, tag, out=grad, work=work(2 * nc) if real else pg)
    return SpectralField(grid, np.add(out[:, :nc], out[:, nc:], out=out[:, :nc]), tag)


def _product(f: SpectralField, g: SpectralField, real: bool, ws) -> SpectralField:
    """The dealiased product (`band_product`) in the lemma layout ws: the
    product in grad, its values and pass buffers in scratch."""
    n, nc = len(f.coeffs), max(f.coeffs.shape[1], g.coeffs.shape[1])
    out = _carve(ws.grad.ravel(), (n, nc, *f.coeffs.shape[2:]))
    return SpectralField(f.grid, *band_product(f.coeffs, f.basis, g.coeffs, g.basis, f.grid, real, out=out,
                                               scratch=ws.scratch))


def _lemma_layout(g: GridSpec, n: int, nc: int) -> dict:
    """The arrays of one `_check_stack` of n samples whose fields have at
    most nc components:
    * fields: the packed inputs f, g, h (run_ensemble's draws, check's
      packed fields);
    * grad: the gradient stack of an advection, its forward and the LHS
      field, an advection's or a product's; then the gathered columns of
      each vertical series of the RHS (`_z_power`);
    * scratch, flat (`_carve`): the physical values, real or complex, and
      the real pass buffers of a round trip; then the inner products' terms;
      then the RHS's vertical series and |f|^2 tables.
    """
    nh, nz, band = g.nh, g.nz, band_shape(g)
    cols, nzf = band[0] * band[1], _REFINE * nz
    # the largest round trip: an advection of vector fields (f and the gradient
    # stack of g), else a product; its values' components, and its largest transform's
    values, largest = (2 * nc + 2, 2 * nc) if nc > 1 else (2 * nc, nc)
    scratch = max(values * nh * nh * nz,  # complex values
                  values * nh * nh * nz // 2 + largest * nh * (nh // 2 + 1) * nz,  # real values and passes
                  -(-cols * nzf * (2 * nc + 1) // 2))  # the series of every column and its |f|^2 table
    return {"fields": ((3, n, nc, *band), np.complex128), "grad": ((n, 2 * nc, *band), np.complex128),
            "scratch": ((n * scratch,), np.complex128)}


# ---------------------------------------------------------------------------
# exact convolution path (mode lists)
# ---------------------------------------------------------------------------

def _modes_of(f: SpectralField) -> list:
    """[(comp, n1, n2, m, tag, value)] over nonzero coefficients."""
    out = []
    n1s, n2s, _ = mode_numbers(f.grid)
    idx = np.argwhere(f.coeffs != 0)
    for c, i, j, m in idx:
        out.append((int(c), int(n1s[i]), int(n2s[j]), int(m), f.basis, f.coeffs[c, i, j, m]))
    return out


def _vertical_product_terms(ma: int, ta: str, mb: int, tb: str):
    """Closure of the orthonormal vertical basis under pointwise products.

    Yields (m, tag, factor) of e/s_{ma} * e/s_{mb}.
    """
    if ta == COS and tb == COS:
        if ma == 0 and mb == 0:
            yield 0, COS, 1.0
        elif ma == 0:
            yield mb, COS, 1.0
        elif mb == 0:
            yield ma, COS, 1.0
        else:
            yield ma + mb, COS, 1.0 / np.sqrt(2.0)
            if ma == mb:
                yield 0, COS, 1.0
            else:
                yield abs(ma - mb), COS, 1.0 / np.sqrt(2.0)
    elif ta == SIN and tb == SIN:
        if ma == 0 or mb == 0:
            return  # sine slot 0 is structurally empty
        yield ma + mb, COS, -1.0 / np.sqrt(2.0)
        if ma == mb:
            yield 0, COS, 1.0
        else:
            yield abs(ma - mb), COS, 1.0 / np.sqrt(2.0)
    else:
        if ta == SIN:
            ma, ta, mb, tb = mb, tb, ma, ta  # normalize to cos * sin
        if mb == 0:
            return
        if ma == 0:
            yield mb, SIN, 1.0
            return
        yield ma + mb, SIN, 1.0 / np.sqrt(2.0)
        if mb > ma:
            yield mb - ma, SIN, 1.0 / np.sqrt(2.0)
        elif mb < ma:
            yield ma - mb, SIN, -1.0 / np.sqrt(2.0)


def _product_modes(amodes: list, bmodes: list) -> list:
    """Pointwise product of two scalar mode lists (componentwise on comp 0)."""
    out = {}
    for (_, a1, a2, am, at, av) in amodes:
        for (_, b1, b2, bm, bt, bv) in bmodes:
            for m, tag, fac in _vertical_product_terms(am, at, bm, bt):
                key = (0, a1 + b1, a2 + b2, m, tag)
                out[key] = out.get(key, 0.0) + fac * av * bv
    return [(c, n1, n2, m, tag, v) for (c, n1, n2, m, tag), v in out.items() if v != 0.0]


def _scale_modes(modes: list, func) -> list:
    """Apply a diagonal-in-(n,m) map value -> func(n1, n2, m, tag, value)."""
    out = []
    for (c, n1, n2, m, tag, v) in modes:
        res = func(n1, n2, m, tag, v)
        if res is None:
            continue
        newtag, newm, newv = res
        if newv != 0.0:
            out.append((c, n1, n2, newm, newtag, newv))
    return out


def _comp(modes: list, c: int) -> list:
    return [(0, n1, n2, m, t, v) for (cc, n1, n2, m, t, v) in modes if cc == c]


def _kmag(n1: int, n2: int) -> float:
    return 2.0 * np.pi * np.hypot(n1, n2)


def _exact_adv(fmodes: list, gmodes: list, ncomp: int) -> list:
    """(f . grad) g on mode lists; returns a list with g's components."""
    out = []
    f1 = _comp(fmodes, 0)
    f2 = _comp(fmodes, 1)
    for c in range(ncomp):
        gc = _comp(gmodes, c)
        gx = _scale_modes(gc, lambda n1, n2, m, t, v: (t, m, 1j * 2 * np.pi * n1 * v))
        gy = _scale_modes(gc, lambda n1, n2, m, t, v: (t, m, 1j * 2 * np.pi * n2 * v))
        term = _product_modes(f1, gx) + _product_modes(f2, gy)
        out.extend((c, n1, n2, m, t, v) for (_, n1, n2, m, t, v) in term)
    return out


def _exact_div(fmodes: list) -> list:
    d1 = _scale_modes(_comp(fmodes, 0), lambda n1, n2, m, t, v: (t, m, 1j * 2 * np.pi * n1 * v))
    d2 = _scale_modes(_comp(fmodes, 1), lambda n1, n2, m, t, v: (t, m, 1j * 2 * np.pi * n2 * v))
    return d1 + d2


def _exact_intdiv(fmodes: list) -> list:
    """int_0^z div f ds: cos mode m>=1 value d -> sine mode m value d/(m pi)."""
    div = _exact_div(fmodes)
    return _scale_modes(div, lambda n1, n2, m, t, v: (SIN, m, v / (m * np.pi)) if m >= 1 else None)


def _exact_dz(modes: list) -> list:
    def f(n1, n2, m, t, v):
        if t == COS:
            return (SIN, m, -m * np.pi * v)
        return (COS, m, m * np.pi * v)

    return _scale_modes(modes, f)


def _exact_a_exp(modes: list, r: float, tau: float) -> list:
    def f(n1, n2, m, t, v):
        k = _kmag(n1, n2)
        if k == 0.0:
            return (t, m, v if r == 0.0 else 0.0)
        return (t, m, v * k**r * np.exp(tau * k))

    return _scale_modes(modes, f)


def _exact_weighted_inner(xmodes: list, hmodes: list, r: float, tau: float) -> complex:
    href = {}
    for (c, n1, n2, m, t, v) in hmodes:
        href[(c, n1, n2, m, t)] = href.get((c, n1, n2, m, t), 0.0) + v
    total = 0.0 + 0.0j
    for (c, n1, n2, m, t, v) in xmodes:
        hv = href.get((c, n1, n2, m, t))
        if hv is None:
            continue
        k = _kmag(n1, n2)
        w = (k ** (2 * r) * np.exp(2 * tau * k)) if k > 0 else (1.0 if r == 0.0 else 0.0)
        total += v * np.conj(hv) * w
    return complex(total)


def _exact_plain_inner(xmodes: list, hmodes: list) -> complex:
    return _exact_weighted_inner(xmodes, hmodes, 0.0, 0.0)


def _active_modes(x: SpectralField) -> np.ndarray:
    """Active (n1, n2, m) modes of each sample (any component nonzero)."""
    return (np.abs(x.coeffs) > 0).any(axis=1).sum(axis=(1, 2, 3))


def _symmetry(x: SpectralField) -> tuple[bool, bool]:
    """Whether every sample is conjugate symmetric to 1e-12 relative to its
    largest coefficient (`is_conjugate_symmetric`), and whether every
    sample is so exactly, with finite coefficients."""
    resid, scale = _conjugate_mismatch(x.coeffs, axis=(1, 2, 3, 4))
    return bool((resid <= 1e-12 * scale).all()), bool(((resid == 0.0) & np.isfinite(scale)).all())


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

def check(
    kind: LemmaKind | str,
    f: SpectralField,
    g: SpectralField,
    h: SpectralField | None,
    r: float,
    tau: float,
    force_path: str | None = None,
) -> CheckResult:
    """Evaluate (lhs, rhs_unit, ratio) for one lemma on given fields.

    lhs is the exact inner-product magnitude; rhs_unit the displayed bound
    with unit constants.  0/0 reports ratio 0.  force_path "exact" or
    "transform" picks the LHS path, None the exact one for inputs of at most
    3 active modes.  A field with a mode outside the 2/3-rule band, which
    the transform path cannot represent, raises ValueError naming it: each
    field is checked once, where it is packed.  The triple is evaluated as a
    stack of one (`_check_stack`), the code path of `run_ensemble`.
    """
    kind = LemmaKind(kind)
    if force_path not in (None, "exact", "transform"):
        raise ValueError(f"force_path must be None, 'exact' or 'transform', got {force_path!r}")
    if any(x is not None and x.grid != f.grid for x in (g, h)):
        raise ValueError("grid mismatch")
    ws = _lemma_arrays(f.grid, 1, (f, g, h))
    stacks = (None if x is None else
              SpectralField(f.grid, band_pack(x.coeffs, f.grid, name, out=packed[0, : x.components])[None], x.basis)
              for name, x, packed in zip("fgh", (f, g, h), ws.fields))
    return _check_stack(kind, *stacks, r, tau, force_path, warn=True)[0]


def _lemma_arrays(grid: GridSpec, n: int, fields) -> SimpleNamespace:
    """The lemma layout of a stack of n samples of the given fields (None
    for an absent h), in the grid's workspace."""
    return _workspace(grid).arrays(_lemma_layout, n, max(x.coeffs.shape[-4] for x in fields if x is not None))


def _check_stack(kind: LemmaKind, f: SpectralField, g: SpectralField, h: SpectralField | None, r: float,
                 tau: float, force_path: str | None, warn: bool = False) -> list[CheckResult]:
    """check() of each sample of band-limited stacks (h None for
    banach_algebra), which the caller has validated: `check` packs its
    fields with `band_pack`, `run_ensemble` draws the band alone.  The
    stack takes the real transforms when every f and g in it is conjugate
    symmetric (`run_ensemble`'s draws always are; check's stack holds one
    triple).  Its arrays are those of the stack's lemma layout, in the
    grid's workspace, which holds the callers' packed inputs too.  warn=True
    flags a type2 check at r in (3/2, 2] with a warning."""
    if r <= _MIN_R[kind]:
        raise ValueError(f"{kind.value} requires r > {_MIN_R[kind]}, got {r}")
    if warn and kind is LemmaKind.type2 and r <= 2.0:
        warnings.warn(f"type2 hypothesis used with r = {r} in (3/2, 2]: accepted, flagged", stacklevel=3)
    exact = np.full(len(f.coeffs), force_path != "transform")
    for x in (f, g, h):
        if x is not None:
            exact &= _active_modes(x) <= 3
    if force_path == "exact" and not exact.all():
        raise ValueError("exact path requested but inputs have more than 3 active modes")

    # f and g pick the transforms; an input's exact symmetry halves its z table,
    # which type2 and diff_type4 do not build
    z_tables = kind not in (LemmaKind.type2, LemmaKind.diff_type4)
    symmetry = [_symmetry(f), _symmetry(g), _symmetry(h) if z_tables and h is not None else (False, False)]
    ws = _lemma_arrays(f.grid, len(f.coeffs), (f, g, h))
    lhs = [None] * len(exact)
    if not exact.all():
        lhs = _lhs_transform(kind, f, g, h, r, tau, symmetry[0][0] and symmetry[1][0], ws)
    for b in np.flatnonzero(exact):
        members = (None if x is None else SpectralField(x.grid, band_unpack(x.coeffs[b], x.grid), x.basis)
                   for x in (f, g, h))
        lhs[b] = _lhs_exact(kind, *members, r, tau)
    out = []
    rhs = _rhs_unit(kind, f, g, h, r, tau, [exact_real for _, exact_real in symmetry], ws)
    for left, right, ex in zip(lhs, rhs.tolist(), exact):
        if left == 0.0 and right == 0.0:
            ratio = 0.0
        elif right == 0.0:
            ratio = float("inf")
        else:
            ratio = left / right
        out.append(CheckResult(kind, left, right, ratio, bool(ex)))
    return out


def _lhs_transform(kind, f, g, h, r, tau, real, ws) -> list[float]:
    """The transform LHS of each sample, its fields in the lemma layout ws."""
    if kind is LemmaKind.banach_algebra:
        fg = _product(f, g, real, ws)
        return [float(np.sqrt(seminorm_a_sq(ShellPower.of(c, f.grid), r, tau))) for c in fg.coeffs]
    if kind is LemmaKind.type1:
        x = _adv_field(f, g, real, ws)
        return [abs(t) for t in _weighted_inner(x, h, r, tau, ws)]
    if kind is LemmaKind.type2:
        x = _product(-w_from_baroclinic(f), dz(g), real, ws)
        return [abs(t) for t in _weighted_inner(x, h, r, tau, ws)]
    if kind is LemmaKind.type3:
        x = _product(div_h(f), g, real, ws)
        return [abs(t) for t in _weighted_inner(x, h, r, tau, ws)]
    # A^r e^{tau A} h is formed after the second LHS field, once that field's operands are freed
    if kind is LemmaKind.diff_type1:
        t1 = _weighted_inner(_adv_field(f, g, real, ws), h, r, tau, ws)
        t2 = _plain_inner(_adv_field(f, apply_A_exp(g, r, tau), real, ws), apply_A_exp(h, r, tau), ws)
    elif kind is LemmaKind.diff_type2:
        t1 = _weighted_inner(_product(div_h(f), g, real, ws), h, r, tau, ws)
        t2 = _plain_inner(_product(div_h(apply_A_exp(f, r, tau)), g, real, ws), apply_A_exp(h, r, tau), ws)
    elif kind is LemmaKind.diff_type4:
        intf = -w_from_baroclinic(f)  # int_0^z div_h f
        t1 = _weighted_inner(_product(intf, dz(g), real, ws), h, r, tau, ws)
        t2 = _plain_inner(_product(dz(g), apply_A_exp(intf, r, tau), real, ws), apply_A_exp(h, r, tau), ws)
    else:
        raise AssertionError(kind)
    return [abs(a - b) for a, b in zip(t1, t2)]


def _lhs_exact(kind, f, g, h, r, tau) -> float:
    fm = _modes_of(f)
    gm = _modes_of(g)
    hm = _modes_of(h) if h is not None else None
    if kind is LemmaKind.banach_algebra:
        x = _product_modes(_comp(fm, 0), _comp(gm, 0))
        return float(np.sqrt(abs(_exact_weighted_inner(x, x, r, tau))))
    nc = g.components
    if kind is LemmaKind.type1:
        x = _exact_adv(fm, gm, nc)
        return abs(_exact_weighted_inner(x, hm, r, tau))
    if kind is LemmaKind.type2:
        x = _mode_product_vec(_exact_intdiv(fm), _exact_dz(gm), nc)
        return abs(_exact_weighted_inner(x, hm, r, tau))
    if kind is LemmaKind.type3:
        x = _mode_product_vec(_exact_div(fm), gm, nc)
        return abs(_exact_weighted_inner(x, hm, r, tau))
    ahm = _exact_a_exp(hm, r, tau)
    if kind is LemmaKind.diff_type1:
        t1 = _exact_weighted_inner(_exact_adv(fm, gm, nc), hm, r, tau)
        t2 = _exact_plain_inner(_exact_adv(fm, _exact_a_exp(gm, r, tau), nc), ahm)
        return abs(t1 - t2)
    if kind is LemmaKind.diff_type2:
        t1 = _exact_weighted_inner(_mode_product_vec(_exact_div(fm), gm, nc), hm, r, tau)
        t2 = _exact_plain_inner(
            _mode_product_vec(_exact_div(_exact_a_exp(fm, r, tau)), gm, nc), ahm
        )
        return abs(t1 - t2)
    if kind is LemmaKind.diff_type4:
        intf = _exact_intdiv(fm)
        t1 = _exact_weighted_inner(_mode_product_vec(intf, _exact_dz(gm), nc), hm, r, tau)
        t2 = _exact_plain_inner(
            _mode_product_vec(_exact_a_exp(intf, r, tau), _exact_dz(gm), nc), ahm
        )
        return abs(t1 - t2)
    raise AssertionError(kind)


def _mode_product_vec(scalar_modes: list, vec_modes: list, ncomp: int) -> list:
    out = []
    for c in range(ncomp):
        term = _product_modes(scalar_modes, _comp(vec_modes, c))
        out.extend((c, n1, n2, m, t, v) for (_, n1, n2, m, t, v) in term)
    return out


def _rhs_unit(kind, f, g, h, r, tau, mirror, ws) -> np.ndarray:
    """The displayed RHS of each sample, with unit constants.  mirror flags
    the inputs whose samples are all exactly conjugate symmetric; ws is the
    stack's lemma layout, whose LHS arrays are spent."""
    nzf = _REFINE * f.grid.nz
    grid = f.grid
    if kind in (LemmaKind.type2, LemmaKind.diff_type4):
        tables = None
    else:
        tables = [_z_power(x, nzf, m, ws) for x, m in zip((f, g, h), mirror) if x is not None]
    if kind is LemmaKind.banach_algebra:
        tf, tg = tables
        pf = _profile(tf, grid, r, tau) + _zero_mode_profile(tf)
        pg = _profile(tg, grid, r, tau) + _zero_mode_profile(tg)
        return np.sqrt(np.mean((pf * pg) ** 2, axis=-1))
    if kind in (LemmaKind.type1, LemmaKind.type3):
        # type3 swaps the roles of f and g in the zero-mode guard
        ta, tb, th = tables if kind is LemmaKind.type1 else (tables[1], tables[0], tables[2])
        pa_r = _profile(ta, grid, r, tau) + _zero_mode_profile(ta)
        pa_half = _profile(ta, grid, r + 0.5, tau)
        pb_half = _profile(tb, grid, r + 0.5, tau)
        ph_half = _profile(th, grid, r + 0.5, tau)
        ph_r = _profile(th, grid, r, tau)
        if kind is LemmaKind.type1:
            integrand = pa_r * pb_half * ph_half + pa_half * pb_half * ph_r
        else:
            integrand = pa_r * pb_half * ph_half + pb_half * pa_half * ph_r
        return np.mean(integrand, axis=-1)
    if kind is LemmaKind.type2:
        out = []
        for cf, cg, ch in zip(f.coeffs, dz(g).coeffs, h.coeffs):
            nf = np.sqrt(seminorm_a_sq(ShellPower.of(cf, grid), r + 0.5, tau))
            ng = norm_rst(ShellPower.of(cg, grid), NormSpec(r=r, tau=tau))
            nh_ = np.sqrt(seminorm_a_sq(ShellPower.of(ch, grid), r + 0.5, tau))
            out.append(nf * ng * nh_)
        return np.array(out)
    if kind in (LemmaKind.diff_type1, LemmaKind.diff_type2):
        p1 = np.prod([_profile(t, grid, r, 0.0) for t in tables], axis=0)
        p2 = np.prod([_profile(t, grid, r + 0.5, tau) for t in tables], axis=0)
        return np.mean(p1, axis=-1) + tau * np.mean(p2, axis=-1)
    if kind is LemmaKind.diff_type4:
        out = []
        for members in zip(dz(g).coeffs, f.coeffs, h.coeffs):
            tables = [ShellPower.of(c, grid) for c in members]
            t1 = np.prod([np.sqrt(seminorm_a_sq(p, r, 0.0)) for p in tables])
            t2 = np.prod([np.sqrt(seminorm_a_sq(p, r + 0.5, tau)) for p in tables])
            out.append(t1 + tau * t2)
        return np.array(out)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------

# (r, tau, tau_gen) per kind: r and tau of the checked inequality, tau_gen
# of the sampled fields' envelope.  banach_algebra measures the norm of the
# product itself, so its ensemble keeps the generation envelope shallow
# enough that the true spectral tail stays above the transform roundoff
# floor at every tested resolution (otherwise e^{2 tau |k|} amplifies floor
# noise at the largest grid).
_KIND_PARAMS = {
    LemmaKind.banach_algebra: (1.5, 0.1, 0.18),
    LemmaKind.type1: (1.5, 0.2, 0.45),
    LemmaKind.type2: (2.25, 0.2, 0.45),
    LemmaKind.type3: (1.5, 0.2, 0.45),
    LemmaKind.diff_type1: (2.25, 0.2, 0.45),
    LemmaKind.diff_type2: (2.25, 0.2, 0.45),
    LemmaKind.diff_type4: (2.25, 0.2, 0.45),
}
_ETA_GEN = 0.3  # vertical envelope of the sampled fields, every kind
# run_ensemble draws and evaluates its samples in stacks of at most
# _STACK_BYTES of packed input per field, small enough that a stack's
# transforms stay in cache; the stack's lemma layout, which holds its draws,
# is sized by the stack
_STACK_BYTES = 1 << 19


def ensemble_parameters(kind: LemmaKind) -> tuple[float, float, float, float]:
    """A kind's ensemble parameters (r, tau, tau_gen, eta_gen)."""
    return (*_KIND_PARAMS[kind], _ETA_GEN)


def ensemble_fields(kind: LemmaKind, grid: GridSpec, rng, tau_gen: float, eta_gen: float):
    """One sample (f, g, h) of a kind's ensemble, h None for banach_algebra."""
    return tuple(None if x is None else SpectralField(grid, x, COS)
                 for x in _draw_sample(kind, grid, rng, tau_gen, eta_gen, (None, None, None)))


def _draw_sample(kind: LemmaKind, grid: GridSpec, rng, tau_gen: float, eta_gen: float, out,
                 packed: bool = False) -> tuple:
    """The coefficients of one sample, drawn in order into the arrays out,
    in the full layout or its packed band."""
    if kind is LemmaKind.banach_algebra:
        return (random_coeffs(grid, rng, tau_gen, eta_gen, out=out[0], packed=packed),
                random_coeffs(grid, rng, tau_gen, eta_gen, out=out[1], packed=packed), None)
    baroclinic_f = kind in (LemmaKind.type2, LemmaKind.diff_type4)
    return tuple(random_coeffs(grid, rng, tau_gen, eta_gen, baroclinic_f and i == 0, 2, x, packed)
                 for i, x in enumerate(out))


def run_ensemble(
    kind: LemmaKind | str,
    grid: GridSpec,
    n_samples: int = 200,
    seed: int = 0,
    r: float | None = None,
    tau: float | None = None,
    tau_gen: float | None = None,
    eta_gen: float | None = None,
) -> list[CheckResult]:
    """check() of n_samples triples drawn in order by `ensemble_fields` from
    default_rng(seed), each stack of up to _STACK_BYTES per packed field
    drawn into its lemma layout and evaluated there."""
    kind = LemmaKind(kind)
    r0, tau0, tau_gen0, eta_gen0 = ensemble_parameters(kind)
    r = r0 if r is None else r
    tau = tau0 if tau is None else tau
    tau_gen = tau_gen0 if tau_gen is None else tau_gen
    eta_gen = eta_gen0 if eta_gen is None else eta_gen
    if tau_gen <= tau:
        raise ValueError("ensemble envelope tau_gen must exceed the check tau")
    rng = np.random.default_rng(seed)
    nc = 1 if kind is LemmaKind.banach_algebra else 2
    nfields = 2 if kind is LemmaKind.banach_algebra else 3
    stack = max(1, _STACK_BYTES // (16 * nc * math.prod(band_shape(grid))))
    out = []
    for start in range(0, n_samples, stack):
        fields = _workspace(grid).arrays(_lemma_layout, min(stack, n_samples - start), nc).fields[:nfields]
        for i in range(fields.shape[1]):
            _draw_sample(kind, grid, rng, tau_gen, eta_gen, fields[:, i], packed=True)
        f, g, h = [SpectralField(grid, x) for x in fields] + [None] * (3 - nfields)
        out += _check_stack(kind, f, g, h, r, tau, None)
    return out
