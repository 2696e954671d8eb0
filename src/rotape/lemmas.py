"""Numerical certification of the product/commutator estimates.

For each lemma kind the checker assembles the exact left-hand side (a
spectral inner product) and the displayed right-hand side with every
constant set to 1, and reports the ratio.  The LHS has two independent
paths: exact coefficient convolution when every input has at most 3 active
modes, and dealiased transform products otherwise; the slow path anchors
the fast one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import GridSpec, a_exp_weight, k_h, kabs, mode_numbers
from .initial_data import random_scalar, random_vector
from .norms import NormSpec, ShellPower, norm_rst, q_table, q_weight, seminorm_a_sq
from .spectral import (
    _CLOSURE,
    COS,
    SIN,
    SpectralField,
    apply_A_exp,
    band_pack,
    band_unpack,
    coeffs_from_values,
    div_h,
    dz,
    is_conjugate_symmetric,
    product,
    require_band,
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


def _z_power(f: SpectralField, nzf: int) -> np.ndarray:
    """P[q, z] = sum_c sum_{n1^2 + n2^2 = q} |f_c(n1, n2, z)|^2 on nzf midpoints.

    The vertical series runs only on the populated (n1, n2) columns: an
    empty column adds exactly 0 to every entry.
    """
    nh = f.grid.nh
    c = f.coeffs.reshape(f.components, nh * nh, f.grid.nz)
    cols = np.flatnonzero((c != 0).any(axis=(0, 2)))
    vals = vertical_values(c[:, cols], f.basis, nzf)
    a2 = np.square(vals.real).sum(axis=0) + np.square(vals.imag).sum(axis=0)
    return q_table(a2, f.grid, cols)


def _profile(p: np.ndarray, grid: GridSpec, r: float, tau: float) -> np.ndarray:
    """z -> ||A^r e^{tau A} f(z)||_{L2(T^2)} from f's table p = _z_power(f, nzf)."""
    return np.sqrt(q_weight(grid, r, tau) @ p)


def _zero_mode_profile(p: np.ndarray) -> np.ndarray:
    """z -> |fhat_0(z)| (vector magnitude of the k = 0 column): the q = 0 row of p."""
    return np.sqrt(p[0])


def _weighted_inner(x: SpectralField, h: SpectralField, r: float, tau: float) -> complex:
    """<A^r e^{tau A} x, A^r e^{tau A} h> as a coefficient sum."""
    w = a_exp_weight(kabs(x.grid), 2.0 * r, 2.0 * tau)
    return complex(np.sum(x.coeffs * np.conj(h.coeffs) * w))


def _plain_inner(x: SpectralField, h: SpectralField) -> complex:
    return complex(np.sum(x.coeffs * np.conj(h.coeffs)))


def _adv_field(f: SpectralField, g: SpectralField) -> SpectralField:
    """(f . grad) g, dealiased, in one transform round trip: the inverse of f,
    the inverse of the stacked (dx g, dy g), and one forward of the stacked
    (f_x dx g, f_y dy g).  The two halves are summed as coefficients, as
    separate products would be: the commutator LHS takes a difference of
    nearly equal inner products, which magnifies any change of rounding.
    Real (conjugate-symmetric) inputs take the real path: multiplying by ik
    maps a conjugate-symmetric g onto conjugate-symmetric dx g, dy g on the
    2/3-rule band, which excludes the self-paired Nyquist row and column."""
    grid, nc = f.grid, g.components
    real = is_conjugate_symmetric(f) and is_conjugate_symmetric(g)
    gb = band_pack(g.coeffs, grid, "g")
    kxx, kyy = k_h(grid, gb)
    grad = np.concatenate([gb * (1j * kxx), gb * (1j * kyy)])
    # the stacks are the largest arrays of a lemma check: hold no copy that
    # a transform no longer needs
    del gb
    pg = values_from_coeffs(grad, grid, g.basis, real=real)
    del grad
    pf = values_from_coeffs(band_pack(f.coeffs, grid, "f"), grid, f.basis, real=real)
    pg[:nc] *= pf[0:1]
    pg[nc:] *= pf[1:2]
    del pf
    tag = _CLOSURE[(f.basis, g.basis)]
    out = coeffs_from_values(pg, grid, tag)
    return SpectralField(grid, band_unpack(out[:nc] + out[nc:], grid), tag)


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


def _active_mode_count(f: SpectralField) -> int:
    return int((np.abs(f.coeffs) > 0).any(axis=0).sum())


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
    the transform path cannot represent, raises ValueError.
    """
    kind = LemmaKind(kind)
    if force_path not in (None, "exact", "transform"):
        raise ValueError(f"force_path must be None, 'exact' or 'transform', got {force_path!r}")
    for name, x in (("f", f), ("g", g), ("h", h)):
        if x is not None:
            require_band(x.coeffs, x.grid, name)
    if r <= _MIN_R[kind]:
        raise ValueError(f"{kind.value} requires r > {_MIN_R[kind]}, got {r}")
    if kind is LemmaKind.type2 and r <= 2.0:
        warnings.warn(
            f"type2 hypothesis used with r = {r} in (3/2, 2]: accepted, flagged",
            stacklevel=2,
        )
    exact_ok = force_path != "transform" and all(
        _active_mode_count(x) <= 3 for x in (f, g) + ((h,) if h is not None else ())
    )
    if force_path == "exact" and not exact_ok:
        raise ValueError("exact path requested but inputs have more than 3 active modes")

    lhs = _lhs(kind, f, g, h, r, tau, exact=exact_ok)
    rhs = _rhs_unit(kind, f, g, h, r, tau)
    if lhs == 0.0 and rhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = float("inf")
    else:
        ratio = lhs / rhs
    return CheckResult(kind, lhs, rhs, ratio, exact_ok)


def _lhs(kind, f, g, h, r, tau, exact: bool) -> float:
    if exact:
        return _lhs_exact(kind, f, g, h, r, tau)
    return _lhs_transform(kind, f, g, h, r, tau)


def _lhs_transform(kind, f, g, h, r, tau) -> float:
    if kind is LemmaKind.banach_algebra:
        fg = product(f, g)
        return float(np.sqrt(seminorm_a_sq(fg, r, tau)))
    if kind is LemmaKind.type1:
        x = _adv_field(f, g)
        return abs(_weighted_inner(x, h, r, tau))
    if kind is LemmaKind.type2:
        x = product(-w_from_baroclinic(f), dz(g))
        return abs(_weighted_inner(x, h, r, tau))
    if kind is LemmaKind.type3:
        x = product(div_h(f), g)
        return abs(_weighted_inner(x, h, r, tau))
    ah = apply_A_exp(h, r, tau)
    if kind is LemmaKind.diff_type1:
        t1 = _weighted_inner(_adv_field(f, g), h, r, tau)
        t2 = _plain_inner(_adv_field(f, apply_A_exp(g, r, tau)), ah)
        return abs(t1 - t2)
    if kind is LemmaKind.diff_type2:
        t1 = _weighted_inner(product(div_h(f), g), h, r, tau)
        t2 = _plain_inner(product(div_h(apply_A_exp(f, r, tau)), g), ah)
        return abs(t1 - t2)
    if kind is LemmaKind.diff_type4:
        intf = -w_from_baroclinic(f)  # int_0^z div_h f
        t1 = _weighted_inner(product(intf, dz(g)), h, r, tau)
        t2 = _plain_inner(product(dz(g), apply_A_exp(intf, r, tau)), ah)
        return abs(t1 - t2)
    raise AssertionError(kind)


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


def _rhs_unit(kind, f, g, h, r, tau) -> float:
    nzf = _REFINE * f.grid.nz
    grid = f.grid
    if kind is LemmaKind.banach_algebra:
        tf, tg = _z_power(f, nzf), _z_power(g, nzf)
        pf = _profile(tf, grid, r, tau) + _zero_mode_profile(tf)
        pg = _profile(tg, grid, r, tau) + _zero_mode_profile(tg)
        return float(np.sqrt(np.mean((pf * pg) ** 2)))
    if kind in (LemmaKind.type1, LemmaKind.type3):
        # type3 swaps the roles of f and g in the zero-mode guard
        a, b = (f, g) if kind is LemmaKind.type1 else (g, f)
        ta, tb, th = _z_power(a, nzf), _z_power(b, nzf), _z_power(h, nzf)
        pa_r = _profile(ta, grid, r, tau) + _zero_mode_profile(ta)
        pa_half = _profile(ta, grid, r + 0.5, tau)
        pb_half = _profile(tb, grid, r + 0.5, tau)
        ph_half = _profile(th, grid, r + 0.5, tau)
        ph_r = _profile(th, grid, r, tau)
        if kind is LemmaKind.type1:
            integrand = pa_r * pb_half * ph_half + pa_half * pb_half * ph_r
        else:
            integrand = pa_r * pb_half * ph_half + pb_half * pa_half * ph_r
        return float(np.mean(integrand))
    if kind is LemmaKind.type2:
        nf = np.sqrt(seminorm_a_sq(f, r + 0.5, tau))
        ng = norm_rst(dz(g), NormSpec(r=r, tau=tau))
        nh_ = np.sqrt(seminorm_a_sq(h, r + 0.5, tau))
        return float(nf * ng * nh_)
    if kind in (LemmaKind.diff_type1, LemmaKind.diff_type2):
        tables = [_z_power(x, nzf) for x in (f, g, h)]
        p1 = np.prod([_profile(t, grid, r, 0.0) for t in tables], axis=0)
        p2 = np.prod([_profile(t, grid, r + 0.5, tau) for t in tables], axis=0)
        return float(np.mean(p1) + tau * np.mean(p2))
    if kind is LemmaKind.diff_type4:
        tables = [ShellPower.of(x.coeffs, x.grid) for x in (dz(g), f, h)]
        t1 = np.prod([np.sqrt(seminorm_a_sq(p, r, 0.0)) for p in tables])
        t2 = np.prod([np.sqrt(seminorm_a_sq(p, r + 0.5, tau)) for p in tables])
        return float(t1 + tau * t2)
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


def ensemble_parameters(kind: LemmaKind) -> tuple[float, float, float, float]:
    """A kind's ensemble parameters (r, tau, tau_gen, eta_gen)."""
    return (*_KIND_PARAMS[kind], _ETA_GEN)


def ensemble_fields(kind: LemmaKind, grid: GridSpec, rng, tau_gen: float, eta_gen: float):
    needs_baroclinic_f = kind in (LemmaKind.type2, LemmaKind.diff_type4)
    if kind is LemmaKind.banach_algebra:
        return (
            random_scalar(grid, rng, tau_gen, eta_gen),
            random_scalar(grid, rng, tau_gen, eta_gen),
            None,
        )
    f = random_vector(grid, rng, tau_gen, eta_gen, baroclinic=needs_baroclinic_f)
    g = random_vector(grid, rng, tau_gen, eta_gen)
    h = random_vector(grid, rng, tau_gen, eta_gen)
    return f, g, h


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
    kind = LemmaKind(kind)
    r0, tau0, tau_gen0, eta_gen0 = ensemble_parameters(kind)
    r = r0 if r is None else r
    tau = tau0 if tau is None else tau
    tau_gen = tau_gen0 if tau_gen is None else tau_gen
    eta_gen = eta_gen0 if eta_gen is None else eta_gen
    if tau_gen <= tau:
        raise ValueError("ensemble envelope tau_gen must exceed the check tau")
    rng = np.random.default_rng(seed)
    out = []
    with warnings.catch_warnings():
        # check() flags type2 at r in (3/2, 2] on every sample; any other warning reaches the caller
        warnings.filterwarnings("ignore", "type2 hypothesis used with r", UserWarning)
        for _ in range(n_samples):
            f, g, h = ensemble_fields(kind, grid, rng, tau_gen, eta_gen)
            out.append(check(kind, f, g, h, r, tau))
    return out
