"""Lemma-ratio checker: dual LHS paths, brute-force oracle, invariances."""

import numpy as np
import pytest

from rotape.grid import GridSpec, a_exp_weight, dealias_mask, kabs, kx, ky, mpi
from rotape.lemmas import (
    LemmaKind,
    _adv_field,
    _lemma_arrays,
    _profile,
    _z_power,
    _zero_mode_profile,
    check,
    ensemble_fields,
    ensemble_parameters,
    run_ensemble,
)
from rotape.spectral import (
    COS,
    SpectralField,
    dz,
    is_conjugate_symmetric,
    product,
    symmetrize,
    band_pack,
    band_unpack,
    values_from_coeffs,
    vertical_values,
)
from tests.test_spectral_core import mode_field

GRID = GridSpec(nh=16, nz=8)

ALL_KINDS = list(LemmaKind)


def adv_field(f, g):
    """The checker's (f . grad) g of one pair of fields, in the full layout."""
    real = is_conjugate_symmetric(f) and is_conjugate_symmetric(g)
    x = _adv_field(*(SpectralField(y.grid, band_pack(y.coeffs, y.grid)[None], y.basis) for y in (f, g)), real,
                   _lemma_arrays(f.grid, 1, (f, g)))
    return SpectralField(f.grid, band_unpack(x.coeffs[0], f.grid), x.basis)


def single_mode_triple(grid=GRID):
    """Distinct single modes; h sited on product modes, m chosen so the RHS
    z-integrand is smooth (all vertical content in one |cos| pairing)."""
    f = mode_field(grid, {(0, 1, 0, 0): 0.8, (1, 2, 1, 0): 0.3}, components=2)
    g = mode_field(grid, {(0, 2, -1, 2): 0.5, (1, 1, 1, 2): 0.4}, components=2)
    h = mode_field(grid, {(0, 3, -1, 2): 0.7, (1, 2, 1, 2): 0.2}, components=2)
    return f, g, h


def baroclinic_single_mode_triple(grid=GRID):
    f = mode_field(grid, {(0, 1, 0, 1): 0.8, (1, 2, 1, 1): 0.3}, components=2)
    g = mode_field(grid, {(0, 2, -1, 2): 0.5, (1, 1, 1, 2): 0.4}, components=2)
    h = mode_field(grid, {(0, 3, -1, 1): 0.7, (1, 2, 1, 3): 0.2}, components=2)
    return f, g, h


def brute_force_inner(xc, hc, grid, r, tau, basis=COS):
    """3D quadrature oracle for <A^r e^{tau A} x, A^r e^{tau A} h> on a padded grid."""
    from rotape.grid import kabs

    k = kabs(grid)
    w = np.where(k > 0, k**r * np.exp(tau * k), 1.0 if r == 0 else 0.0)
    big = GridSpec(nh=4 * grid.nh, nz=4 * grid.nz)
    xb = np.zeros((xc.shape[0], *big.shape), dtype=np.complex128)
    hb = np.zeros_like(xb)
    half = grid.nh // 2
    for src, dst in ((xc * w, xb), (hc * w, hb)):
        dst[:, :half, :half, : grid.nz] = src[:, :half, :half, :]
        dst[:, :half, -half:, : grid.nz] = src[:, :half, -half:, :]
        dst[:, -half:, :half, : grid.nz] = src[:, -half:, :half, :]
        dst[:, -half:, -half:, : grid.nz] = src[:, -half:, -half:, :]
    px = values_from_coeffs(band_pack(xb, big), big, basis)
    ph = values_from_coeffs(band_pack(hb, big), big, basis)
    quad = np.sum(px * np.conj(ph)) / (big.nh**2 * big.nz)
    return complex(quad)


class TestDualPath:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_vs_transform_agree(self, kind):
        f, g, h = (
            baroclinic_single_mode_triple()
            if kind in (LemmaKind.type2, LemmaKind.diff_type4)
            else single_mode_triple()
        )
        if kind is LemmaKind.banach_algebra:
            f2 = f.component(0)
            g2 = g.component(0)
            re = check(kind, f2, g2, None, r=2.25, tau=0.15, force_path="exact")
            rt = check(kind, f2, g2, None, r=2.25, tau=0.15, force_path="transform")
        else:
            re = check(kind, f, g, h, r=2.25, tau=0.15, force_path="exact")
            rt = check(kind, f, g, h, r=2.25, tau=0.15, force_path="transform")
        assert re.exact_path and not rt.exact_path
        scale = max(abs(re.lhs), abs(rt.lhs), 1e-300)
        assert abs(re.lhs - rt.lhs) < 1e-10 * scale
        assert abs(re.rhs_unit - rt.rhs_unit) < 1e-12 * max(re.rhs_unit, 1.0)

    def test_type1_against_brute_force_quadrature(self):
        # independent physical-space assembly of both sides of the inequality
        grid = GRID
        f, g, h = single_mode_triple(grid)
        r, tau = 1.5, 0.15
        res = check(LemmaKind.type1, f, g, h, r, tau, force_path="exact")

        # --- oracle lhs: quadrature of (f . grad g) against the weighted h ---
        x = adv_field(f, g)
        lhs_oracle = abs(brute_force_inner(x.coeffs, h.coeffs, grid, r, tau))
        assert abs(res.lhs - lhs_oracle) < 1e-10 * max(lhs_oracle, 1e-300)

        # --- oracle rhs: z-quadrature of the displayed integrand ---
        def prof(field, rr, zs):
            from rotape.grid import kabs

            w2 = np.where(
                kabs(grid)[..., 0] > 0,
                kabs(grid)[..., 0] ** (2 * rr) * np.exp(2 * tau * kabs(grid)[..., 0]),
                0.0,
            )
            out = np.zeros_like(zs)
            basis = np.ones((grid.nz, len(zs)))
            for m in range(1, grid.nz):
                basis[m] = np.sqrt(2) * np.cos(m * np.pi * zs)
            prof_k = np.tensordot(field.coeffs, basis, axes=([-1], [0]))  # (c, nx, ny, nzs)
            return np.sqrt(np.einsum("cxyz,xy->z", np.abs(prof_k) ** 2, w2))

        zs = (np.arange(20000) + 0.5) / 20000
        # f has no k=0 content here, so |fhat_0(z)| = 0 and pf is the pure profile
        pf = prof(f, r, zs)
        pg = prof(g, r + 0.5, zs)
        ph = prof(h, r + 0.5, zs)
        ph_r = prof(h, r, zs)
        pf_half = prof(f, r + 0.5, zs)
        rhs_oracle = np.mean(pf * pg * ph + pf_half * pg * ph_r)
        assert abs(res.rhs_unit - rhs_oracle) < 1e-10 * max(rhs_oracle, 1e-300)


def _cosbasis(grid, zs):
    basis = np.ones((grid.nz, len(zs)))
    for m in range(1, grid.nz):
        basis[m] = np.sqrt(2) * np.cos(m * np.pi * zs)
    return basis


class TestStructure:
    def test_zero_fields_give_zero(self):
        z2 = SpectralField.zeros(GRID, components=2)
        for kind in ALL_KINDS:
            if kind is LemmaKind.banach_algebra:
                res = check(kind, SpectralField.zeros(GRID), SpectralField.zeros(GRID), None, 2.25, 0.1)
            else:
                res = check(kind, z2, z2, z2, 2.25, 0.1)
            assert res.lhs == 0.0
            assert res.rhs_unit == 0.0
            assert res.ratio == 0.0

    def test_trilinearity_in_f(self, rng):
        f, g, h = ensemble_fields(LemmaKind.type1, GRID, rng, 0.45, 0.3)
        base = check(LemmaKind.type1, f, g, h, 1.5, 0.1)
        scaled = check(LemmaKind.type1, 3.0 * f, g, h, 1.5, 0.1)
        assert scaled.lhs == pytest.approx(3.0 * base.lhs, rel=1e-12)

    def test_commutator_vanishes_for_constant_in_x_f(self, rng):
        # f constant in x per level: A^r e^{tau A} commutes with multiplication by f
        f = SpectralField.zeros(GRID, components=2)
        zprof = rng.standard_normal(GRID.nz)
        zprof[3:] = 0.0
        f.coeffs[0, 0, 0, :] = zprof
        f.coeffs[1, 0, 0, :] = 0.5 * zprof
        _, g, h = ensemble_fields(LemmaKind.diff_type1, GRID, rng, 0.45, 0.3)
        res = check(LemmaKind.diff_type1, f, g, h, 2.25, 0.1)
        scale = max(res.rhs_unit, 1.0)
        assert res.lhs < 1e-12 * scale

    def test_tau_zero_kills_diff_type1_weighted_term(self, rng):
        f, g, h = ensemble_fields(LemmaKind.diff_type1, GRID, rng, 0.45, 0.3)
        res = check(LemmaKind.diff_type1, f, g, h, 2.25, 0.0)
        nzf = 4 * GRID.nz
        sob = float(np.mean(np.prod([_profile(_z_power(x, nzf), GRID, 2.25, 0.0) for x in (f, g, h)], axis=0)))
        assert res.rhs_unit == pytest.approx(sob, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_out_of_band_field_rejected(self, rng, kind):
        """Each of f, g and h is checked once, on either path, and named."""
        r, tau, tau_gen, eta_gen = ensemble_parameters(kind)
        fields = ensemble_fields(kind, GRID, rng, tau_gen, eta_gen)
        for i, name in enumerate("fgh"):
            if fields[i] is None:
                continue
            bad = [x if x is None else x.copy() for x in fields]
            bad[i].coeffs[0, 1, 0, 6] = 1.0  # m = 6 > zcut = 5
            for path in ("exact", "transform", None):
                with pytest.raises(ValueError, match=rf"^{name} has 1 nonzero coefficients outside"):
                    check(kind, *bad, r, tau, force_path=path)

    @pytest.mark.parametrize("path", ["trasnform", "Exact", "", "both"])
    def test_unknown_force_path_rejected(self, rng, path):
        f, g, h = ensemble_fields(LemmaKind.type1, GRID, rng, 0.45, 0.3)
        with pytest.raises(ValueError, match="force_path"):
            check(LemmaKind.type1, f, g, h, 1.5, 0.2, force_path=path)

    def test_hypothesis_rejection_and_warning(self, rng):
        f, g, h = ensemble_fields(LemmaKind.type2, GRID, rng, 0.45, 0.3)
        with pytest.raises(ValueError):
            check(LemmaKind.type2, f, g, h, r=1.2, tau=0.1)
        with pytest.warns(UserWarning, match="flagged"):
            check(LemmaKind.type2, f, g, h, r=1.75, tau=0.1)
        with pytest.raises(ValueError):
            check(LemmaKind.diff_type1, f, g, h, r=1.8, tau=0.1)


class TestEnsemble:
    def test_small_ensemble_ratios_bounded(self):
        for kind in ALL_KINDS:
            results = run_ensemble(kind, GRID, n_samples=10, seed=3)
            ratios = [r.ratio for r in results]
            assert all(np.isfinite(ratios))
            assert max(ratios) < 100.0

    def test_runtime_warnings_reach_the_caller(self, monkeypatch):
        """Only the type2 flag is silenced: a numpy overflow/invalid warning
        raised while checking a sample is not hidden."""
        import warnings

        import rotape.lemmas as lemmas

        original = lemmas._check_stack

        def noisy_check(*args, **kwargs):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return original(*args, **kwargs)

        monkeypatch.setattr(lemmas, "_check_stack", noisy_check)
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            run_ensemble(LemmaKind.type1, GRID, n_samples=1, seed=3)

    def test_type2_flag_stays_silenced(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_ensemble(LemmaKind.type2, GRID, n_samples=2, seed=3, r=1.75)
        assert caught == []


def reference_profile(f, r, tau, nzf):
    """The per-mode sum the q table replaces: every (n1, n2) column, weighted."""
    w = a_exp_weight(kabs(f.grid), 2.0 * r, 2.0 * tau)[..., 0]
    vals = vertical_values(f.coeffs, f.basis, nzf)
    return np.sqrt(np.einsum("cxyz,xy->z", np.abs(vals) ** 2, w).real)


def reference_zero_mode_profile(f, nzf):
    vals = vertical_values(f.coeffs[:, 0:1, 0:1, :], f.basis, nzf)
    return np.sqrt((np.abs(vals) ** 2).sum(axis=(0, 1, 2)))


def dx(f):
    return SpectralField(f.grid, f.coeffs * (1j * kx(f.grid)), f.basis)


def dy(f):
    return SpectralField(f.grid, f.coeffs * (1j * ky(f.grid)), f.basis)


def reference_adv(f, g):
    """(f . grad) g as 2 nc separate dealiased products."""
    parts = [
        product(f.component(0), dx(g.component(c))) + product(f.component(1), dy(g.component(c)))
        for c in range(g.components)
    ]
    return np.concatenate([p.coeffs for p in parts]), parts[0].basis


def complex_flat_field(grid, rng, in_band=False):
    """Every (n1, n2, m) populated, outside the 2/3 band too unless in_band;
    not conjugate symmetric."""
    shape = (2, *grid.shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(grid, a * dealias_mask(grid) if in_band else a)


class TestProfileTable:
    @pytest.mark.parametrize("nh", [16, 32, 64])
    @pytest.mark.parametrize("basis", ["cos", "sin"])
    def test_table_profiles_match_per_mode_sums(self, rng, nh, basis):
        grid = GridSpec(nh=nh, nz=8)
        nzf = 4 * grid.nz
        fields = [
            *ensemble_fields(LemmaKind.type1, grid, rng, 0.45, 0.3),  # real, banded
            *single_mode_triple(grid),  # sparse and complex
            complex_flat_field(grid, rng),
        ]
        if basis == "sin":
            fields = [dz(f) for f in fields]
        for f in fields:
            p = _z_power(f, nzf)
            for r, tau in ((1.5, 0.0), (1.5, 0.2), (2.75, 0.2)):
                np.testing.assert_allclose(
                    _profile(p, grid, r, tau), reference_profile(f, r, tau, nzf), rtol=1e-13, atol=0.0
                )
            np.testing.assert_allclose(
                _zero_mode_profile(p), reference_zero_mode_profile(f, nzf), rtol=1e-13, atol=0.0
            )

    @pytest.mark.parametrize("real", [True, False])
    def test_stacked_advection_matches_per_component_products(self, rng, real):
        grid = GridSpec(nh=32, nz=8)
        if real:
            pairs = [ensemble_fields(LemmaKind.type1, grid, rng, 0.45, 0.3)[:2]]
        else:
            pairs = [
                single_mode_triple(grid)[:2],
                (complex_flat_field(grid, rng, in_band=True), complex_flat_field(grid, rng, in_band=True)),
            ]
        for f, g in pairs:
            assert is_conjugate_symmetric(f) == is_conjugate_symmetric(g) == real
            expect, basis = reference_adv(f, g)
            got = adv_field(f, g)
            assert got.basis == basis
            assert np.abs(got.coeffs - expect).max() <= 1e-13 * np.abs(expect).max()


    def test_nyquist_content_is_rejected(self, rng):
        """dx g and dy g are not conjugate symmetric where a conjugate-symmetric g
        fills the Nyquist row and column, which lie outside the 2/3-rule band:
        the checker rejects such a g rather than take the real path on it."""
        grid = GridSpec(nh=16, nz=8)
        f, g, h = (
            SpectralField(grid, symmetrize(complex_flat_field(grid, rng, in_band=True).coeffs)) for _ in range(3)
        )
        g.coeffs[:, 8, 3, 1] = g.coeffs[:, 8, -3, 1] = 1.0
        assert is_conjugate_symmetric(g) and not is_conjugate_symmetric(dx(g))
        with pytest.raises(ValueError, match=r"^g has 4 nonzero coefficients outside the 2/3-rule band"):
            check(LemmaKind.type1, f, g, h, 1.5, 0.2)


PROFILE_KINDS = [
    LemmaKind.banach_algebra,
    LemmaKind.type1,
    LemmaKind.type3,
    LemmaKind.diff_type1,
    LemmaKind.diff_type2,
]


class TestTransformCounts:
    """One vertical series per field for the RHS, one round trip for the advection term."""

    @staticmethod
    def _count(monkeypatch, module, names):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_rhs_profiles_transform_each_field_once(self, monkeypatch, rng, kind):
        r, tau, tau_gen, eta_gen = ensemble_parameters(kind)
        f, g, h = ensemble_fields(kind, GRID, rng, tau_gen, eta_gen)
        import rotape.lemmas as lemmas

        calls = self._count(monkeypatch, lemmas, ["vertical_values"])
        check(kind, f, g, h, r, tau)
        assert len(calls) == (2 if kind is LemmaKind.banach_algebra else 3)

    def test_advection_makes_two_inverse_and_one_forward_transform(self, monkeypatch, rng):
        f, g, _ = ensemble_fields(LemmaKind.type1, GRID, rng, 0.45, 0.3)
        import rotape.spectral as spectral

        # band_product, which the advection calls, transforms through spectral's names
        calls = self._count(monkeypatch, spectral, ["values_from_coeffs", "coeffs_from_values"])
        adv_field(f, g)
        assert sorted(calls) == ["coeffs_from_values", "values_from_coeffs", "values_from_coeffs"]


# ---------------------------------------------------------------------------
# the draws, pinned to the formula they had before they were written into one
# buffer; the stacked checker against checks of one triple
# ---------------------------------------------------------------------------

def reference_scalar(grid, rng, tau, eta, baroclinic=False):
    """A random analytic real scalar by the original formula: x + 1j y, times
    the envelope, times the dealias mask, m = 0 zeroed, 0.5 (a + conj a(-n))."""
    shape = (1, *grid.shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a *= np.exp(-tau * kabs(grid) - eta * mpi(grid))
    a *= dealias_mask(grid)[None, ...]
    if baroclinic:
        a[..., 0] = 0.0
    return 0.5 * (a + np.conj(np.roll(a[..., ::-1, ::-1, :], 1, axis=(-3, -2))))


def reference_vector(grid, rng, tau, eta, baroclinic=False):
    u = reference_scalar(grid, rng, tau, eta, baroclinic)
    return np.concatenate([u, reference_scalar(grid, rng, tau, eta, baroclinic)])


def reference_fields(kind, grid, rng, tau, eta):
    if kind is LemmaKind.banach_algebra:
        return reference_scalar(grid, rng, tau, eta), reference_scalar(grid, rng, tau, eta), None
    f = reference_vector(grid, rng, tau, eta, kind in (LemmaKind.type2, LemmaKind.diff_type4))
    return f, reference_vector(grid, rng, tau, eta), reference_vector(grid, rng, tau, eta)


@pytest.mark.parametrize("nh, nz", [(16, 8), (24, 12), (32, 8), (64, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_equal_the_original_formula(nh, nz, seed):
    """Every byte of random_scalar, random_vector and ensemble_fields, signs of
    zeros included, with the baroclinic cut on and off."""
    from rotape.initial_data import random_scalar, random_vector

    grid = GridSpec(nh=nh, nz=nz)
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for baroclinic in (False, True):
        got = random_scalar(grid, new, 0.45, 0.3, baroclinic).coeffs
        assert got.tobytes() == reference_scalar(grid, ref, 0.45, 0.3, baroclinic).tobytes()
        got = random_vector(grid, new, 0.2, 0.1, baroclinic).coeffs
        assert got.tobytes() == reference_vector(grid, ref, 0.2, 0.1, baroclinic).tobytes()
    for kind in ALL_KINDS:
        got = ensemble_fields(kind, grid, new, 0.45, 0.3)
        for x, y in zip(got, reference_fields(kind, grid, ref, 0.45, 0.3)):
            assert (x is None and y is None) or x.coeffs.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stack_members_equal_their_single_checks(monkeypatch, kind):
    """run_ensemble draws the packed band alone and checks stacks of samples;
    each sample's (lhs, rhs_unit, ratio) equals check() of the same draw in
    the full layout, bit for bit."""
    import rotape.lemmas as lemmas

    sizes, original = [], lemmas._check_stack

    def counted(kind_, f, *args, **kwargs):
        sizes.append(len(f.coeffs))
        return original(kind_, f, *args, **kwargs)

    monkeypatch.setattr(lemmas, "_check_stack", counted)
    r, tau, tau_gen, eta_gen = ensemble_parameters(kind)
    for grid, n in ((GridSpec(nh=16, nz=8), 25), (GridSpec(nh=32, nz=8), 7)):
        sizes.clear()
        stacked = run_ensemble(kind, grid, n_samples=n, seed=5)
        assert max(sizes) > 1 and sum(sizes) == n
        rng = np.random.default_rng(5)
        single = [check(kind, *ensemble_fields(kind, grid, rng, tau_gen, eta_gen), r, tau) for _ in range(n)]
        assert [repr((c.lhs, c.rhs_unit, c.ratio)) for c in stacked] == [
            repr((c.lhs, c.rhs_unit, c.ratio)) for c in single
        ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_each_input_is_validated_once(monkeypatch, rng, kind):
    """check() scans each input's band once (naming it) and its symmetry at
    most once; the fields derived from them are not checked again."""
    import rotape.lemmas as lemmas
    import rotape.spectral as spectral

    bands, symmetries = [], []
    require_band, mismatch = spectral.require_band, lemmas._conjugate_mismatch
    monkeypatch.setattr(spectral, "require_band", lambda a, grid, what: bands.append(what) or require_band(a, grid, what))
    monkeypatch.setattr(lemmas, "_conjugate_mismatch", lambda *a, **k: symmetries.append(1) or mismatch(*a, **k))
    r, tau, tau_gen, eta_gen = ensemble_parameters(kind)
    fields = ensemble_fields(kind, GRID, rng, tau_gen, eta_gen)
    check(kind, *fields, r, tau)
    names = [name for name, x in zip("fgh", fields) if x is not None]
    assert bands == names
    assert len(symmetries) <= len(names)


def test_ensemble_ratios_identical_in_a_perturbed_heap_child():
    """A draw, chunk or cached buffer read before it is written would show
    here.  A child process whose environment sets glibc's MALLOC_PERTURB_
    (fresh heap memory filled with a byte pattern) and a raised mmap
    threshold (so that every buffer comes from that heap) prints the ratios
    of run_ensemble for every kind at nh 16 and 32; they must equal this
    process's to the last digit."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rotape

    code = (
        "from rotape.grid import GridSpec\n"
        "from rotape.lemmas import LemmaKind, run_ensemble\n"
        "for kind in LemmaKind:\n"
        "    for nh in (16, 32):\n"
        "        print(kind.value, nh, [repr(c.ratio) for c in run_ensemble(kind, GridSpec(nh=nh, nz=8), n_samples=3, seed=9)])\n"
    )
    env = dict(os.environ, MALLOC_PERTURB_="165", MALLOC_MMAP_THRESHOLD_=str(1 << 30),
               PYTHONPATH=str(Path(rotape.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    here = "".join(
        f"{kind.value} {nh} {[repr(c.ratio) for c in run_ensemble(kind, GridSpec(nh=nh, nz=8), n_samples=3, seed=9)]}\n"
        for kind in ALL_KINDS for nh in (16, 32)
    )
    assert child.stdout == here
