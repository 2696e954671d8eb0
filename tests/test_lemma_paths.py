"""The two LHS paths of the lemma checker agree on sparse band-limited triples.

check(force_path="exact") convolves mode dicts; check(force_path="transform")
takes dealiased transform products.  On random triples of at most 3 active
modes each, drawn with the band edges |n| = hcut, m = 0 and m = zcut, real
(conjugate symmetric) and non-real fields, and the cosine and sine factors
each kind forms, the two agree to the dual gate's 1e-10.

Two draws are kept out, and why:
* banach_algebra measures the product itself.  The exact path sums every
  mode of the product, the transform path only those in the band, so the
  factors are drawn from half the band, where the product stays in it.
* Every field has a mode of nonzero horizontal wavenumber.  A field with
  none zeroes the displayed RHS; the LHS then vanishes in exact arithmetic
  (the exact path returns 0) while the transform path returns the roundoff
  of terms of any size, so the ratio is inf on that path alone.

Where the LHS vanishes (h off the product's modes) the transform path
returns its roundoff, at most 1e-18 of the RHS on these draws: the LHS agree
within 1e-10 of the larger one plus 1e-12 of the RHS.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.grid import GridSpec, mode_numbers
from rotape.lemmas import LemmaKind, check
from rotape.spectral import COS, SIN, SpectralField

GRID = GridSpec(nh=16, nz=8)  # hcut = zcut = 5
BASES = st.sampled_from([COS, SIN])
VALUES = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)


@st.composite
def sparse_field(draw, components: int, basis: str, mmin: int = 0, sites: list | None = None,
                 cuts: tuple = (GRID.hcut, GRID.zcut)) -> SpectralField:
    """At most 3 active modes within the cuts (hcut, zcut), from `sites`
    (n1, n2, m) when given, the first of nonzero horizontal wavenumber and
    nonzero components: one conjugate pair and an optional real k = 0 mode
    for a real field, up to three modes of any values otherwise."""
    hcut, zcut = cuts
    lo = max(mmin, 1 if basis == SIN else 0)  # sine mode 0 is empty
    sites = [site for site in sites or () if site[2] >= lo]
    n = st.one_of(st.sampled_from([-hcut, hcut]), st.integers(-hcut, hcut))
    m = st.one_of(st.sampled_from([lo, zcut]), st.integers(lo, zcut))
    mode = st.sampled_from(sites) if sites else st.tuples(n, n, m)
    first = draw(mode.filter(lambda site: site[:2] != (0, 0)))
    value = st.one_of(st.just(0j), VALUES)
    a = np.zeros((components, *GRID.shape), dtype=np.complex128)
    if draw(st.booleans()):
        v = [draw(VALUES) for _ in range(components)]
        a[(slice(None), *first)] = v
        a[(slice(None), -first[0], -first[1], first[2])] = np.conj(v)
        if draw(st.booleans()):
            a[:, 0, 0, draw(m)] = [draw(value).real for _ in range(components)]
    else:
        # two sites or more, where there are, so that the signs of the terms show in |LHS|
        others = draw(st.lists(mode, min_size=int(len(sites) > 1), max_size=2))
        a[(slice(None), *first)] = [draw(VALUES) for _ in range(components)]
        for site in others:
            a[(slice(None), *site)] = [draw(value) for _ in range(components)]
    return SpectralField(GRID, a, basis)


def _active(x: SpectralField) -> list:
    """The active modes (n1, n2, m) of a field."""
    n1s, n2s, _ = mode_numbers(GRID)
    return [(int(n1s[i]), int(n2s[j]), int(m)) for i, j, m in np.argwhere(x.coeffs.any(axis=0))]


def _sites(meets) -> list:
    """The band's modes (n1, n2, m) of nonzero horizontal wavenumber that
    meet the predicate meets(n1, n2, m)."""
    hcut, zcut = GRID.hcut, GRID.zcut
    return [(n1, n2, m) for n1 in range(-hcut, hcut + 1) for n2 in range(-hcut, hcut + 1)
            for m in range(zcut + 1) if (n1, n2) != (0, 0) and meets(n1, n2, m)]


@st.composite
def sparse_triple(draw, kind: LemmaKind):
    """(f, g, h) for a kind, h None for banach_algebra and of the LHS's
    basis otherwise.  g's modes each have an in-band product with one of
    f's, and h's modes are on those products."""
    gb, vertical = draw(BASES), 0
    if kind is LemmaKind.banach_algebra:
        half = (GRID.hcut // 2, GRID.zcut // 2)
        return draw(sparse_field(1, draw(BASES), cuts=half)), draw(sparse_field(1, gb, cuts=half)), None
    if kind in (LemmaKind.type2, LemmaKind.diff_type4):
        # int_0^z div_h f is sine and d/dz g flips g's basis; f baroclinic, and
        # d/dz g nonzero
        f, hb, vertical = draw(sparse_field(2, COS, mmin=1)), gb, 1
    elif kind in (LemmaKind.type1, LemmaKind.diff_type1):
        f, hb = draw(sparse_field(2, COS)), gb
    else:  # div_h f times g
        fb = draw(BASES)
        f, hb = draw(sparse_field(2, fb)), COS if fb == gb else SIN
    fm = _active(f)
    g = draw(sparse_field(2, gb, vertical, _sites(
        lambda n1, n2, m: any(max(abs(n1 + a1), abs(n2 + a2)) <= GRID.hcut for a1, a2, _ in fm))))
    products = {(a1 + b1, a2 + b2, m) for a1, a2, am in fm for b1, b2, bm in _active(g)
                for m in (am + bm, abs(am - bm))}
    return f, g, draw(sparse_field(2, hb, sites=_sites(lambda *site: site in products)))


@pytest.mark.parametrize("kind", list(LemmaKind))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.floats(2.1, 3.0), tau=st.floats(0.0, 0.3))
def test_exact_and_transform_paths_agree(kind, data, r, tau):
    f, g, h = data.draw(sparse_triple(kind))
    re = check(kind, f, g, h, r, tau, force_path="exact")
    rt = check(kind, f, g, h, r, tau, force_path="transform")
    assert re.exact_path and not rt.exact_path
    assert abs(re.lhs - rt.lhs) <= 1e-10 * max(re.lhs, rt.lhs) + 1e-12 * re.rhs_unit, (re, rt)
    assert abs(re.rhs_unit - rt.rhs_unit) < 1e-12 * max(re.rhs_unit, 1.0)
