"""Transform, derivative, product, and w-reconstruction kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.grid import GridSpec, dealias_mask
from rotape.initial_data import random_scalar, random_vector
from rotape.spectral import (
    COS,
    SIN,
    PhysField,
    SpectralField,
    SpectralRangeError,
    apply_A_exp,
    dealias,
    div_h,
    dz,
    forward,
    grad_h,
    grid_points,
    inverse,
    product,
    values_from_coeffs,
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
        vals = np.ones((1, *grid16.shape))
        f = forward(PhysField(grid16, vals))
        assert abs(f.coeffs[0, 0, 0, 0] - 1.0) < 1e-14
        rest = f.coeffs.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_cos_cos_mode_coefficients(self, grid16):
        # f(x,z) = cos(2 pi x) cos(pi z) -> 1/(2 sqrt(2)) at (n=(+-1,0), m=1)
        x, _, z = grid_points(grid16)
        vals = np.cos(2 * np.pi * x)[None, :, None, None] * np.cos(np.pi * z)[None, None, None, :]
        vals = np.broadcast_to(vals, (1, *grid16.shape)).copy()
        f = forward(PhysField(grid16, vals))
        expect = 1.0 / (2.0 * np.sqrt(2.0))
        assert abs(f.coeffs[0, 1, 0, 1] - expect) < 1e-13
        assert abs(f.coeffs[0, -1, 0, 1] - expect) < 1e-13
        other = f.coeffs.copy()
        other[0, 1, 0, 1] = other[0, -1, 0, 1] = 0.0
        assert np.abs(other).max() < 1e-13

    def test_round_trip_band_limited(self, grid16, rng):
        f = random_scalar(grid16, rng, tau=0.2, eta=0.1)
        p = inverse(f)
        g = forward(p)
        assert np.abs(g.coeffs - f.coeffs).max() < 1e-13

    def test_round_trip_physical(self, grid16, rng):
        f = random_scalar(grid16, rng, tau=0.2, eta=0.1)
        vals = inverse(f).values
        again = inverse(forward(PhysField(grid16, vals))).values
        assert np.abs(again - vals).max() < 1e-13 * max(1.0, np.abs(vals).max())

    def test_reality_of_inverse(self, grid16, rng):
        f = random_scalar(grid16, rng)
        vals = values_from_coeffs(f.coeffs, grid16, f.basis)
        assert np.abs(vals.imag).max() < 1e-13

    def test_parseval(self, grid16, rng):
        f = random_scalar(grid16, rng)
        vals = inverse(f).values
        quad = np.sum(vals**2) / (grid16.nh**2 * grid16.nz)
        spect = np.sum(np.abs(f.coeffs) ** 2)
        assert abs(quad - spect) < 1e-12 * spect

    def test_sine_basis_round_trip(self, grid16, rng):
        f = random_scalar(grid16, rng, baroclinic=True)
        s = SpectralField(grid16, f.coeffs.copy(), SIN)
        vals = values_from_coeffs(s.coeffs, grid16, SIN)
        from rotape.spectral import coeffs_from_values

        back = coeffs_from_values(vals, grid16, SIN)
        assert np.abs(back - s.coeffs).max() < 1e-13

    def test_dimension_mismatch_rejected(self, grid16):
        with pytest.raises(ValueError):
            PhysField(grid16, np.ones((1, 4, 4, 4)))


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


class TestDz:
    def test_dzz_eigenvalue(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 1): 1.0})
        g = dz(f, order=2)
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

    def test_order3_rejected(self, grid16):
        f = mode_field(grid16, {(0, 0, 0, 1): 1.0})
        with pytest.raises(ValueError):
            dz(f, order=3)

    def test_dz_twice_matches_dzz(self, grid16, rng):
        f = random_scalar(grid16, rng, baroclinic=True)
        gg = dz(dz(f))
        g2 = dz(f, order=2)
        assert gg.basis == COS
        assert np.abs(gg.coeffs - g2.coeffs).max() < 1e-12


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
        d = dealias(f)
        assert np.abs(p.coeffs - d.coeffs).max() < 1e-13

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
        # undealiased product energy from a padded exact grid
        big = GridSpec(nh=2 * grid16.nh, nz=2 * grid16.nz)
        fb = np.zeros((1, *big.shape), dtype=np.complex128)
        gb = np.zeros((1, *big.shape), dtype=np.complex128)
        c = grid16.hcut
        for src, dst in ((f.coeffs, fb), (g.coeffs, gb)):
            dst[:, : c + 1, : c + 1, : grid16.nz] = src[:, : c + 1, : c + 1, :]
            dst[:, : c + 1, -c:, : grid16.nz] = src[:, : c + 1, -c:, :]
            dst[:, -c:, : c + 1, : grid16.nz] = src[:, -c:, : c + 1, :]
            dst[:, -c:, -c:, : grid16.nz] = src[:, -c:, -c:, :]
        pf = values_from_coeffs(fb, big, COS)
        pg = values_from_coeffs(gb, big, COS)
        from rotape.spectral import coeffs_from_values

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


@pytest.mark.parametrize("shape", [(2, 6, 6, 3), (1, 4, 8, 2), (3, 2, 4, 4, 5)])
def test_conjugate_reverse_matches_index_definition(rng, shape):
    from rotape.spectral import conjugate_reverse

    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n1, n2 = shape[-3], shape[-2]
    neg1, neg2 = -np.arange(n1) % n1, -np.arange(n2) % n2
    expect = np.conj(a.take(neg1, axis=-3).take(neg2, axis=-2))
    assert np.array_equal(conjugate_reverse(a), expect)
    assert np.array_equal(conjugate_reverse(conjugate_reverse(a)), a)
