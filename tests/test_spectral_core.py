"""Transform, derivative, product, and w-reconstruction kernels."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.grid import GridSpec, a_exp_weight, dealias_mask
from rotape.initial_data import random_scalar, random_vector
from rotape.spectral import (
    COS,
    SIN,
    SpectralField,
    SpectralRangeError,
    apply_A_exp,
    band_pack,
    band_unpack,
    coeffs_from_values,
    div_h,
    divergence,
    dz,
    integral_z,
    product,
    values_from_coeffs,
    vertical_values,
    w_from_baroclinic,
)


def mode_field(grid, entries, components=1, basis=COS):
    """Build a field from {(comp, n1, n2, m): value} entries."""
    a = np.zeros((components, *grid.shape), dtype=np.complex128)
    for (c, n1, n2, m), val in entries.items():
        a[c, n1, n2, m] = val
    return SpectralField(grid, a, basis)


class TestForwardInverse:
    def test_constant_field_projects_to_zero_mode(self, grid16):
        c = coeffs_from_values(np.ones((1, *grid16.shape)), grid16, COS)
        assert abs(c[0, 0, 0, 0] - 1.0) < 1e-14
        rest = c.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_cos_cos_mode_coefficients(self, grid16):
        # f(x,z) = cos(2 pi x) cos(pi z) -> 1/(2 sqrt(2)) at (n=(+-1,0), m=1)
        x = np.arange(grid16.nh) / grid16.nh
        z = (np.arange(grid16.nz) + 0.5) / grid16.nz
        vals = np.cos(2 * np.pi * x)[None, :, None, None] * np.cos(np.pi * z)[None, None, None, :]
        vals = np.broadcast_to(vals, (1, *grid16.shape)).copy()
        c = coeffs_from_values(vals, grid16, COS)
        expect = 1.0 / (2.0 * np.sqrt(2.0))
        assert abs(c[0, 1, 0, 1] - expect) < 1e-13
        assert abs(c[0, -1, 0, 1] - expect) < 1e-13
        other = c.copy()
        other[0, 1, 0, 1] = other[0, -1, 0, 1] = 0.0
        assert np.abs(other).max() < 1e-13

    @pytest.mark.parametrize("basis", [COS, SIN])
    @pytest.mark.parametrize("nh", [16, 24, 64])
    def test_round_trip_band_limited(self, nh, basis, rng):
        """Round trip, and the real kernels agree with the complex ones both ways."""
        grid = GridSpec(nh=nh, nz=8)
        f = band_pack(random_scalar(grid, rng, tau=0.2, eta=0.1, baroclinic=basis == SIN).coeffs, grid)
        vc = values_from_coeffs(f, grid, basis)
        vr = values_from_coeffs(f, grid, basis, real=True)
        assert vr.dtype == np.float64
        assert np.abs(vr - vc).max() < 1e-14 * np.abs(vc).max()
        cc = coeffs_from_values(vc, grid, basis)
        cr = coeffs_from_values(vr, grid, basis)
        assert np.abs(cr - cc).max() < 1e-14 * np.abs(cc).max()
        assert np.abs(cr - f).max() < 1e-13
        assert np.abs(cc - f).max() < 1e-13

    def test_round_trip_physical(self, grid16, rng):
        """Values of a band-limited field come back from a forward and inverse pass."""
        f = band_pack(random_scalar(grid16, rng, tau=0.2, eta=0.1).coeffs, grid16)
        vals = values_from_coeffs(f, grid16, COS, real=True)
        again = values_from_coeffs(coeffs_from_values(vals, grid16, COS), grid16, COS, real=True)
        assert np.abs(again - vals).max() < 1e-13 * max(1.0, np.abs(vals).max())

    def test_reality_of_inverse(self, grid16, rng):
        f = random_scalar(grid16, rng)
        vals = values_from_coeffs(band_pack(f.coeffs, grid16), grid16, f.basis)
        assert np.abs(vals.imag).max() < 1e-13

    def test_parseval(self, grid16, rng):
        f = random_scalar(grid16, rng)
        vals = values_from_coeffs(band_pack(f.coeffs, grid16), grid16, COS, real=True)
        quad = np.sum(vals**2) / (grid16.nh**2 * grid16.nz)
        spect = np.sum(np.abs(f.coeffs) ** 2)
        assert abs(quad - spect) < 1e-12 * spect

    def test_sine_basis_round_trip(self, grid16, rng):
        f = random_scalar(grid16, rng, baroclinic=True)
        s = SpectralField(grid16, f.coeffs.copy(), SIN)
        vals = values_from_coeffs(band_pack(s.coeffs, grid16), grid16, SIN)
        back = band_unpack(coeffs_from_values(vals, grid16, SIN), grid16)
        assert np.abs(back - s.coeffs).max() < 1e-13

    @pytest.mark.parametrize("basis", [COS, SIN])
    @pytest.mark.parametrize("refine", [1, 4])
    def test_vertical_values_on_refined_grid(self, rng, basis, refine):
        # direct summation of sum_m c_m sqrt(2) cos(m pi z) (1 for m = 0), or of
        # the sine series, at the n midpoints; the sine coefficient at m = 0
        # multiplies sin(0) and must be ignored
        nz, n = 8, refine * 8
        c = rng.standard_normal((2, 3, 4, nz)) + 1j * rng.standard_normal((2, 3, 4, nz))
        z = (np.arange(n) + 0.5) / n
        phase = np.pi * np.arange(nz)[None, :] * z[:, None]
        if basis == COS:
            table = np.where(np.arange(nz) == 0, 1.0, np.sqrt(2.0) * np.cos(phase))
        else:
            table = np.sqrt(2.0) * np.sin(phase)
        expect = np.einsum("...m,zm->...z", c, table)
        assert np.abs(vertical_values(c, basis, n) - expect).max() < 1e-13


class TestApplyAExp:
    def test_identity_at_zero(self, grid16, rng):
        f = random_scalar(grid16, rng)
        g = apply_A_exp(f, 0.0, 0.0)
        assert np.abs(g.coeffs - f.coeffs).max() == 0.0

    def test_single_mode_r1(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0})
        g = apply_A_exp(f, 1.0, 0.0)
        assert abs(g.coeffs[0, 1, 0, 0] - 2.0 * np.pi) < 1e-14

    def test_single_mode_exponential(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0})
        g = apply_A_exp(f, 0.0, 1.0 / (2.0 * np.pi))
        assert abs(g.coeffs[0, 1, 0, 0] - np.e) < 1e-13

    def test_zero_mode_conventions(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 0): 1.0})
        assert apply_A_exp(f, 1.0, 0.0).coeffs[0, 0, 0, 0] == 0.0
        assert apply_A_exp(f, 0.0, 5.0).coeffs[0, 0, 0, 0] == 1.0

    def test_semigroup(self, grid16, rng):
        f = random_scalar(grid16, rng)
        a = apply_A_exp(f, 1.5 + 0.5, 0.1 + 0.2)
        b = apply_A_exp(apply_A_exp(f, 1.5, 0.1), 0.5, 0.2)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()

    @given(
        r1=st.floats(0.0, 1.5),
        r2=st.floats(0.0, 1.5),
        t1=st.floats(0.0, 0.3),
        t2=st.floats(0.0, 0.3),
    )
    @settings(max_examples=30, deadline=None)
    def test_semigroup_property(self, r1, r2, t1, t2):
        grid = GridSpec(nh=16, nz=8)
        f = random_scalar(grid, np.random.default_rng(3))
        a = apply_A_exp(f, r1 + r2, t1 + t2)
        b = apply_A_exp(apply_A_exp(f, r1, t1), r2, t2)
        scale = max(np.abs(a.coeffs).max(), 1e-300)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * scale

    def test_overflow_raises_naming_shell(self, grid16):
        f = mode_field(grid16, {(0, 5, 0, 0): 1.0})
        with pytest.raises(SpectralRangeError, match="shell"):
            apply_A_exp(f, 0.0, 30.0)

    def test_overflow_ignored_on_unpopulated_modes(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0})
        g = apply_A_exp(f, 0.0, 25.0)  # overflows only at high shells, which are empty
        assert np.isfinite(g.coeffs).all()

    def test_one_overflow_rule_the_float64_range(self, grid16):
        """A populated-shell multiplier between 1e300 and the float64 maximum
        is applied; one past the maximum raises, naming the shell."""
        f = mode_field(grid16, {(0, 5, 0, 0): 1.0})
        k = 2.0 * np.pi * 5
        g = apply_A_exp(f, 0.0, np.log(1e305) / k)
        assert np.isfinite(g.coeffs).all()
        assert g.coeffs[0, 5, 0, 0].real == pytest.approx(1e305, rel=1e-12)
        log_max = np.log(np.finfo(np.float64).max)
        with pytest.raises(SpectralRangeError, match=r"shell \|k\|=31\.4159"):
            apply_A_exp(f, 0.0, log_max / k * (1.0 + 1e-9))


class TestSharedKernels:
    """The array-level divergence and z-integral that every caller shares."""

    def test_weight_zero_mode_and_single_shell(self):
        k = np.array([0.0, 2.0 * np.pi])
        assert a_exp_weight(k, 0.0, 3.0).tolist() == [1.0, np.exp(3.0 * 2.0 * np.pi)]
        assert a_exp_weight(k, 1.0, 0.0)[0] == 0.0
        assert a_exp_weight(k, 1.0, 0.0)[1] == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_weight_overflow_outside_the_data_is_zero(self):
        k = np.array([1.0, 1e3])
        w = a_exp_weight(k, 0.0, 1.0, lambda: np.array([True, False]))
        assert w.tolist() == [np.e, 0.0]
        with pytest.raises(SpectralRangeError, match="shell"):
            a_exp_weight(k, 0.0, 1.0)

    def test_divergence_single_mode_both_layouts(self, grid16):
        v = mode_field(grid16, {(0, 1, 2, 3): 1.0, (1, 1, 2, 3): 2.0}, components=2)
        expect = 1j * 2.0 * np.pi * 1.0 + 1j * 4.0 * np.pi * 2.0
        d = divergence(v.coeffs, grid16)
        assert d.shape == grid16.shape and d[1, 2, 3] == expect
        d2 = divergence(v.coeffs[..., 3], grid16)
        assert d2.shape == grid16.shape[:2] and d2[1, 2] == expect
        assert np.count_nonzero(d) == 1 and np.count_nonzero(d2) == 1

    def test_integral_z_maps_cos_m_to_sin_m_over_m_pi(self, grid16, rng):
        c = rng.standard_normal((1, *grid16.shape)) + 1j * rng.standard_normal((1, *grid16.shape))
        out = integral_z(c, grid16)
        m = np.arange(1, grid16.nz)
        assert not out[..., 0].any()
        assert np.array_equal(out[..., 1:], c[..., 1:] / (np.pi * m))
        # d/dz of the sine series returns the cosine series without its mean
        back = dz(SpectralField(grid16, out, SIN))
        assert np.abs(back.coeffs[..., 1:] - c[..., 1:]).max() < 1e-14 * np.abs(c).max()


class TestDz:
    def test_dzz_eigenvalue(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 1): 1.0})
        g = dz(dz(f))
        assert g.basis == COS
        assert abs(g.coeffs[0, 0, 0, 1] + np.pi**2) < 1e-14

    def test_dz_kills_barotropic(self, grid16):
        f = mode_field(grid16, {(0, 2, 1, 0): 1.0 + 2j})
        g = dz(f)
        assert np.abs(g.coeffs).max() == 0.0
        assert g.basis == SIN

    def test_dz_mode2_sine_coefficient(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 2): 1.0})
        g = dz(f)
        assert g.basis == SIN
        assert abs(g.coeffs[0, 0, 0, 2] + 2.0 * np.pi) < 1e-14


def grad_h(f: SpectralField) -> SpectralField:
    """The horizontal gradient (dx f, dy f) of a scalar field, as the solvers form it (`_grad_stack`)."""
    from rotape.pe_solver import _grad_stack

    return SpectralField(f.grid, _grad_stack(f.coeffs, f.grid)[1:], f.basis)


class TestGradProduct:
    def test_grad_constant_is_zero(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 0): 3.0})
        g = grad_h(f)
        assert np.abs(g.coeffs).max() == 0.0

    def test_grad_single_mode(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0})
        g = grad_h(f)
        assert abs(g.coeffs[0, 1, 0, 0] - 2j * np.pi) < 1e-14
        assert abs(g.coeffs[1, 1, 0, 0]) < 1e-14

    def test_div_grad_is_minus_ksq(self, grid16, rng):
        from rotape.grid import ksq

        f = random_scalar(grid16, rng)
        lap = div_h(grad_h(f))
        expect = -ksq(grid16) * f.coeffs
        assert np.abs(lap.coeffs - expect).max() < 1e-12 * max(np.abs(expect).max(), 1.0)

    def test_product_with_one(self, grid16, rng):
        f = random_scalar(grid16, rng)
        one = mode_field(grid16, {(0, 0, 0, 0): 1.0})
        p = product(f, one)
        assert np.abs(p.coeffs - f.coeffs).max() < 1e-13

    def test_cos_squared_trig_identity(self, grid16):
        # cos(2 pi x)^2 = 1/2 + 1/2 cos(4 pi x)
        f = mode_field(grid16, {(0, 1, 0, 0): 0.5, (0, -1, 0, 0): 0.5})
        p = product(f, f)
        assert abs(p.coeffs[0, 0, 0, 0] - 0.5) < 1e-14
        assert abs(p.coeffs[0, 2, 0, 0] - 0.25) < 1e-14
        assert abs(p.coeffs[0, -2, 0, 0] - 0.25) < 1e-14

    def test_product_contracts_energy(self, grid16, rng):
        f = random_scalar(grid16, rng)
        g = random_scalar(grid16, rng)
        p = product(f, g)
        # undealiased product energy from a padded exact grid, whose band
        # (|n| <= 15, m <= 15) holds every product mode (|n| <= 10, m <= 14)
        big = GridSpec(nh=2 * grid16.nh, nz=2 * grid16.nz, dealias_fraction=Fraction(1))
        fb = np.zeros((1, *big.shape), dtype=np.complex128)
        gb = np.zeros((1, *big.shape), dtype=np.complex128)
        c = grid16.hcut
        for src, dst in ((f.coeffs, fb), (g.coeffs, gb)):
            dst[:, : c + 1, : c + 1, : grid16.nz] = src[:, : c + 1, : c + 1, :]
            dst[:, : c + 1, -c:, : grid16.nz] = src[:, : c + 1, -c:, :]
            dst[:, -c:, : c + 1, : grid16.nz] = src[:, -c:, : c + 1, :]
            dst[:, -c:, -c:, : grid16.nz] = src[:, -c:, -c:, :]
        pf = values_from_coeffs(band_pack(fb, big), big, COS)
        pg = values_from_coeffs(band_pack(gb, big), big, COS)
        exact = coeffs_from_values(pf * pg, big, COS)
        assert np.sum(np.abs(p.coeffs) ** 2) <= np.sum(np.abs(exact) ** 2) * (1 + 1e-12)

    def test_product_symmetric_bilinear(self, grid16, rng):
        f = random_scalar(grid16, rng)
        g = random_scalar(grid16, rng)
        h = random_scalar(grid16, rng)
        pfg = product(f, g)
        pgf = product(g, f)
        assert np.abs(pfg.coeffs - pgf.coeffs).max() < 1e-13
        lin = product(f + 2.0 * h, g)
        rhs = pfg.coeffs + 2.0 * product(h, g).coeffs
        assert np.abs(lin.coeffs - rhs).max() < 1e-12

    def test_out_of_band_factor_rejected(self, grid16, rng):
        """A mode outside the 2/3-rule band, which the band transforms would
        drop, is rejected, naming the factor; the Nyquist mode (8, 0) too."""
        f = random_scalar(grid16, rng)
        for index in ((0, 6, 1, 0), (0, 8, 0, 0), (0, 1, 1, 6)):
            bad = mode_field(grid16, {index: 1.0})
            with pytest.raises(ValueError, match="product factor g has 1 nonzero"):
                product(f, bad)
            with pytest.raises(ValueError, match="product factor f has 1 nonzero"):
                product(bad, f)

    def test_incompatible_tags_in_real_space_composition(self, grid16, rng):
        f = random_scalar(grid16, rng, baroclinic=True)
        s = dz(f)  # sine
        p = product(s, s)  # sin*sin -> cos
        assert p.basis == COS
        q = product(f, s)
        assert q.basis == SIN


class TestWFromBaroclinic:
    def test_divergence_free_gives_zero(self, grid16, rng):
        # perp-gradient of a baroclinic streamfunction is divergence-free
        psi = random_scalar(grid16, rng, baroclinic=True)
        g = grad_h(psi)
        vt = SpectralField(grid16, np.concatenate([-g.coeffs[1:2], g.coeffs[0:1]], axis=0))
        w = w_from_baroclinic(vt)
        assert np.abs(w.coeffs).max() < 1e-13

    def test_single_mode_value(self, grid16):
        # Vt = (sqrt2 cos(pi z) e^{i 2 pi x}, 0): w sine coefficient -2i at (1,0,m=1)
        vt = mode_field(grid16, {(0, 1, 0, 1): 1.0}, components=2)
        w = w_from_baroclinic(vt)
        assert w.basis == SIN
        assert abs(w.coeffs[0, 1, 0, 1] + 2j) < 1e-13
        rest = w.coeffs.copy()
        rest[0, 1, 0, 1] = 0
        assert np.abs(rest).max() < 1e-14

    def test_dzw_equals_minus_div(self, grid16, rng):
        vt = random_vector(grid16, rng, baroclinic=True)
        w = w_from_baroclinic(vt)
        dzw = dz(w)
        div = div_h(vt)
        assert np.abs(dzw.coeffs + div.coeffs).max() < 1e-12 * max(np.abs(div.coeffs).max(), 1.0)

    def test_nonzero_mean_rejected(self, grid16):
        vt = mode_field(grid16, {(0, 1, 0, 0): 1.0}, components=2)
        with pytest.raises(ValueError, match="baroclinic"):
            w_from_baroclinic(vt)

    def test_boundary_values_vanish(self, grid16, rng):
        vt = random_vector(grid16, rng, baroclinic=True)
        w = w_from_baroclinic(vt)
        # evaluate the sine series at z=0 and z=1 directly: sin(0)=sin(m pi)=0
        for z in (0.0, 1.0):
            basis = np.sqrt(2) * np.sin(np.arange(grid16.nz) * np.pi * z)
            vals = np.tensordot(w.coeffs, basis, axes=([-1], [0]))
            assert np.abs(vals).max() < 1e-12


def test_dealias_mask_cuts(grid16):
    mask = dealias_mask(grid16)
    assert mask.shape == grid16.shape
    assert grid16.hcut == 5  # floor(2/3 * 16 / 2)
    assert grid16.zcut == 5  # floor(2/3 * 8)
    assert not mask[6, 0, 0]
    assert mask[5, 5, 5]
    assert not mask[0, 0, 6]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nh=5, nz=8)
    with pytest.raises(ValueError):
        GridSpec(nh=2, nz=8)
    with pytest.raises(ValueError):
        GridSpec(nh=16, nz=1)


def test_grid_hashes_its_fraction_once(monkeypatch):
    """Cached lookups keyed on a GridSpec do not re-hash its dealias_fraction;
    equal grids still hash equal and share the cache."""
    from rotape.grid import kx, mode_numbers

    grid = GridSpec(nh=24, nz=12)
    kx(grid), mode_numbers(grid), dealias_mask(grid)
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    for _ in range(100):
        kx(grid), mode_numbers(grid), dealias_mask(grid)
    assert calls == []
    assert hash(GridSpec(nh=24, nz=12)) == hash(grid) and mode_numbers(GridSpec(nh=24, nz=12)) is mode_numbers(grid)


@pytest.mark.parametrize("shape", [(2, 6, 6, 3), (1, 4, 8, 2), (3, 2, 4, 4, 5)])
def test_conjugate_reverse_matches_index_definition(rng, shape):
    from rotape.spectral import conjugate_reverse

    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n1, n2 = shape[-3], shape[-2]
    neg1, neg2 = -np.arange(n1) % n1, -np.arange(n2) % n2
    expect = np.conj(a.take(neg1, axis=-3).take(neg2, axis=-2))
    assert np.array_equal(conjugate_reverse(a), expect)
    assert np.array_equal(conjugate_reverse(conjugate_reverse(a)), a)


@pytest.mark.parametrize("shape", [(1, 16, 16, 4), (2, 24, 24, 3), (2, 6, 6, 3)])
def test_is_conjugate_symmetric_matches_the_reversed_copy(rng, shape):
    """The in-place half-plane residual decides exactly as the full reversed copy does."""
    from rotape.spectral import conjugate_reverse, is_conjugate_symmetric, symmetrize

    grid = GridSpec(nh=shape[1], nz=shape[-1])
    a = symmetrize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for scale in (0.0, 1e-13, 1e-12, 1e-11, 1.0):
        b = a.copy()
        b[0, 1, 2, 1] += scale * (1 + 1j)
        b[-1, shape[1] // 2, 0, 0] += scale * 1j
        resid = np.abs(b - conjugate_reverse(b)).max()
        expect = bool(resid <= 1e-12 * np.abs(b).max())
        assert is_conjugate_symmetric(SpectralField(grid, b)) == expect


# (fingerprint, owning module) of operators that one module defines: the
# Leray projection's 1/|k|^2 with k = 0 pinned, the z-integral's division of
# the slots m >= 1 by m pi, and the A^r e^{tau A} weight in log or power form
_OPERATOR_FINGERPRINTS = {
    "Leray projection": (
        r"\bksq\(|\w\s*\*\*\s*2\s*\+\s*\w+\s*\*\*\s*2|/\s*np\.where\(", "decomposition.py"
    ),
    "z-integral": (r"/\s*(?:mpi\([^)]*\)|\w+)\[\.\.\.,\s*1:\]", "spectral.py"),
    "A^r e^{tau A} weight": (
        r"np\.log\(np\.where\(|\*\*\s*\(?\s*(?:2(?:\.0)?\s*\*\s*)?r\s*\)?\s*\*\s*np\.exp", "grid.py"
    ),
}

# (fingerprint, owning module, owning function) of operators written on one
# line of the whole package: the vertical diffusion nu (m pi)^2, which acts
# only through the integrating factor, and the rotation (a, b) -> (-b, a)
_ONE_LINE_OPERATORS = {
    "nu (m pi)^2": (
        r"\bnu\b.*\bmpi\(|\bmpi\([^)]*\)(?:\[[^\]]*\])?\s*\*\*\s*2\b", "pe_solver.py", "_decay_factors"
    ),
    "rotation (a, b) -> (-b, a)": (
        r"(?:concatenate|stack)\(\[\s*-\s*[\w.]+\[1(?::2)?\]", "decomposition.py", "perp_vector"
    ),
}


def _calls(expr, callee: str) -> bool:
    return any(isinstance(n, ast.Call) and callee in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
               for n in ast.walk(expr))


def _masked_forwards(tree) -> list[int]:
    """Lines that multiply a coeffs_from_values result by dealias_mask, directly
    or through a name bound to either, within one function."""
    lines = []
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        bound = {"coeffs_from_values": set(), "dealias_mask": set()}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for callee, names in bound.items():
                    if _calls(node.value, callee):
                        names.update(t.id for t in node.targets if isinstance(t, ast.Name))

        def refers(expr, callee):
            return _calls(expr, callee) or any(isinstance(n, ast.Name) and n.id in bound[callee]
                                               for n in ast.walk(expr))

        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
                pair = (node.target, node.value)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                pair = (node.left, node.right)
            else:
                continue
            if any(refers(x, "coeffs_from_values") and refers(y, "dealias_mask") for x, y in (pair, pair[::-1])):
                lines.append(node.lineno)
    return lines


def test_each_operator_has_one_definition():
    """Layering: the solvers, the initial data, the theory, the scenarios and
    the norms call the shared Leray projection, z-integral and A^r e^{tau A}
    weight, so none of them re-derives one.  nu (m pi)^2 and the rotation
    (a, b) -> (-b, a) are each written on one line of the package, inside
    their owning function, and the decay factors e^{-nu (m pi)^2 h}
    (`_decay_factors`) are formed only inside the IF-RK4 core `_if_rk4`, so
    no stepper builds its own.  Each fingerprint must still match its owner, or
    the scan would find nothing.  The 3-D transforms have one mode, the
    2/3-rule band: no call or definition in the package takes a band=
    argument, and no coeffs_from_values result is multiplied by dealias_mask,
    which the band forward makes redundant (the initial data's draw mask and
    the compact barotropic masks multiply other arrays)."""
    import rotape

    root = Path(rotape.__file__).parent
    callers = ("pe_solver.py", "limit_solver.py", "initial_data.py", "theory.py", "scenarios.py", "norms.py")
    offenders = []
    for operator, (pattern, owner) in _OPERATOR_FINGERPRINTS.items():
        assert re.search(pattern, (root / owner).read_text()), f"{operator} fingerprint not found in {owner}"
        for name in callers:
            if re.search(pattern, (root / name).read_text()):
                offenders.append(f"{name}: {operator}")
    for operator, (pattern, owner, function) in _ONE_LINE_OPERATORS.items():
        fn = next(node for node in ast.walk(ast.parse((root / owner).read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == function)
        sites = [(path.name, i) for path in sorted(root.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1) if re.search(pattern, line)]
        owned = [(name, i) for name, i in sites if name == owner and fn.lineno <= i <= fn.end_lineno]
        assert owned, f"{operator} fingerprint not found in {owner}:{function}"
        offenders += [f"{name}:{i}: {operator}" for name, i in sites if (name, i) not in owned[:1]]
    rk4 = next(node for node in ast.walk(ast.parse((root / "pe_solver.py").read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_if_rk4")
    factor_calls = [(path.name, n.lineno) for path in sorted(root.glob("*.py"))
                    for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)
                    and "_decay_factors" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    inside = [(name, i) for name, i in factor_calls
              if name == "pe_solver.py" and rk4.lineno <= i <= rk4.end_lineno]
    assert inside, "_decay_factors is not called in pe_solver.py:_if_rk4"
    offenders += [f"{name}:{i}: _decay_factors outside _if_rk4" for name, i in factor_calls if (name, i) not in inside]
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{n.lineno}: band= argument" for n in ast.walk(tree)
                      if isinstance(n, (ast.keyword, ast.arg)) and n.arg == "band"]
        offenders += [f"{path.name}:{i}: dealias_mask times a forward transform" for i in _masked_forwards(tree)]
    assert offenders == []


# paper API that only the tests certify: the theory's closed forms and
# envelopes (criterion 14 and test_theory.py) and the four-parameter norm
_CERTIFIED_ONLY = {
    "theory.py": {
        "tau_ode_local", "lifespan_local", "lifespan_local_residual", "tau_lower_bound_local", "tau_T_radius",
        "tau_T_radius_residual", "lifespan_main", "lifespan_small_barotropic", "euler_growth_theta", "k_growth",
    },
    "norms.py": {"norm_rst_eta"},
}


def _identifiers(tree, strings: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every name, attribute and imported name in tree, and
    with strings=True every word of its string constants."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out += [(node.lineno, word) for word in re.findall(r"\w+", node.value)]
    return out


def test_every_definition_has_a_caller():
    """Reachability: every top-level function and class of the package is
    named somewhere in the package outside its own definition, or named (as
    an identifier or inside a string) by the benchmark in perfbench/, or is
    paper API that only the tests certify (`_CERTIFIED_ONLY`).  A definition
    that only tests call is API that every later refactor must keep working."""
    import rotape

    root = Path(rotape.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    bench = {name for path in sorted((root.parents[1] / "perfbench").glob("*.py"))
             for _, name in _identifiers(ast.parse(path.read_text()), strings=True)}
    assert {"integrate", "rhs_direct", "transport_rhs", "run_ensemble"} <= bench, "perfbench not found"
    sites = {}
    for name, tree in trees.items():
        for line, ident in _identifiers(tree):
            sites.setdefault(ident, []).append((name, line))
    offenders = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in bench or node.name in _CERTIFIED_ONLY.get(name, ()):
                continue
            outside = [(other, line) for other, line in sites.get(node.name, ())
                       if not (other == name and node.lineno <= line <= node.end_lineno)]
            if not outside:
                offenders.append(f"{name}:{node.lineno}: {node.name}")
    assert offenders == []


def test_only_spectral_calls_transforms():
    """Layering: the basis scaling, sine-slot shift and FFT normalisation live
    in spectral.py alone, so no other module may call a transform
    (np.fft.fftfreq, mode numbering only, is allowed)."""
    import rotape

    offenders = []
    for path in sorted(Path(rotape.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        text = path.read_text()
        if re.search(r"scipy\.fft|from scipy import fft|from numpy(\.fft import| import fft)", text):
            offenders.append(f"{path.name}: imports an FFT module")
        for name in re.findall(r"\b(?:np|numpy)\.fft\.(\w+)", text):
            if name != "fftfreq":
                offenders.append(f"{path.name}: np.fft.{name}")
    assert offenders == []


# the packed band's index machinery, private to spectral
_BAND_LAYOUT_NAMES = {"_box", "_runs", "_width", "_full_axes", "_gather", "_scatter"}


def _layout_references(tree) -> list[tuple[int, str]]:
    """(line, name) of every name, attribute or import of the band layout's index machinery."""
    return [(line, name) for line, name in _identifiers(tree) if name in _BAND_LAYOUT_NAMES]


def test_only_spectral_knows_the_band_layout():
    """Layering: the packed band's index runs and boxes (`_box`, `_runs`,
    `_width`, `_full_axes`) and its block copies (`_gather`, `_scatter`) live
    in spectral.py alone.  Every other module converts with band_pack and
    band_unpack, and reads wavenumbers through grid.k_h and grid.mpi."""
    import rotape

    root = Path(rotape.__file__).parent
    assert {name for _, name in _layout_references(ast.parse((root / "spectral.py").read_text()))} == _BAND_LAYOUT_NAMES
    offenders = [f"{path.name}:{line}: {name}" for path in sorted(root.glob("*.py")) if path.name != "spectral.py"
                 for line, name in _layout_references(ast.parse(path.read_text()))]
    assert offenders == []
