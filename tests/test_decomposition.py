"""Projection algebra: P0, baroclinic complement, Leray, P+/P-."""

import numpy as np
import pytest

from rotape.decomposition import (
    baroclinic,
    leray,
    leray_h,
    minus_projection,
    p0,
    p_minus,
    p_plus,
    pe_leray,
    perp,
    perp_grad,
    plus_projection,
    rotation_r,
    velocity_from_vorticity,
    vorticity_from_velocity,
)
from rotape.initial_data import random_barotropic, random_scalar, random_vector
from rotape.spectral import SpectralField, apply_A_exp, div_h, divergence, inner, l2_norm_sq
from tests.test_spectral_core import mode_field


def rand2(grid, rng):
    return random_vector(grid, rng, tau=0.3, eta=0.2)


class TestP0:
    def test_z_independent_fixed(self, grid16):
        f = mode_field(grid16, {(0, 2, 1, 0): 1.0 + 1j}, components=1)
        assert np.abs(p0(f).coeffs - f.coeffs).max() == 0.0

    def test_pure_baroclinic_killed(self, grid16, rng):
        f = random_scalar(grid16, rng, baroclinic=True)
        assert np.abs(p0(f).coeffs).max() == 0.0

    def test_idempotent(self, grid16, rng):
        f = random_scalar(grid16, rng)
        a = p0(p0(f)).coeffs
        b = p0(f).coeffs
        assert np.abs(a - b).max() == 0.0

    def test_complementary(self, grid16, rng):
        f = random_scalar(grid16, rng)
        assert np.abs(p0(baroclinic(f)).coeffs).max() == 0.0
        back = p0(f) + baroclinic(f)
        assert np.abs(back.coeffs - f.coeffs).max() == 0.0


class TestLeray:
    def test_gradient_killed(self, grid16, rng):
        from rotape.spectral import grad_h

        psi = random_scalar(grid16, rng)
        psi2 = p0(psi)
        g = grad_h(psi2)
        out = leray_h(g)
        assert np.abs(out.coeffs).max() < 1e-13 * max(np.abs(g.coeffs).max(), 1.0)

    def test_divergence_free_fixed(self, grid16, rng):
        from rotape.spectral import grad_h

        psi = p0(random_scalar(grid16, rng))
        g = grad_h(psi)
        vb = SpectralField(grid16, np.concatenate([-g.coeffs[1:2], g.coeffs[0:1]], axis=0))
        out = leray_h(vb)
        assert np.abs(out.coeffs - vb.coeffs).max() < 1e-13 * max(np.abs(vb.coeffs).max(), 1.0)

    def test_axis_aligned_modes(self, grid16):
        vx = mode_field(grid16, {(0, 1, 0, 0): 1.0}, components=2)
        out = leray_h(vx)
        assert np.abs(out.coeffs).max() < 1e-14
        vy = mode_field(grid16, {(1, 1, 0, 0): 1.0}, components=2)
        out = leray_h(vy)
        assert abs(out.coeffs[1, 1, 0, 0] - 1.0) < 1e-14

    def test_output_divergence_free(self, grid16, rng):
        vb = p0(rand2(grid16, rng))
        out = leray_h(vb)
        assert np.abs(div_h(out).coeffs).max() < 1e-12

    def test_baroclinic_content_rejected(self, grid16, rng):
        with pytest.raises(ValueError):
            leray_h(rand2(grid16, rng))


class TestPPlusMinus:
    def test_barotropic_annihilated(self, grid16, rng):
        vb = p0(rand2(grid16, rng))
        assert np.abs(p_plus(vb).coeffs).max() == 0.0
        assert np.abs(p_minus(vb).coeffs).max() == 0.0

    def test_single_real_mode(self, grid16):
        # Vt = (1,0) sqrt2 cos(pi z): P+ = 1/2 (1, i) sqrt2 cos(pi z)
        vt = mode_field(grid16, {(0, 0, 0, 1): 1.0}, components=2)
        pp = p_plus(vt)
        assert abs(pp.coeffs[0, 0, 0, 1] - 0.5) < 1e-14
        assert abs(pp.coeffs[1, 0, 0, 1] - 0.5j) < 1e-14

    def test_decomposition_identity(self, grid16, rng):
        v = rand2(grid16, rng)
        total = p0(v) + p_plus(v) + p_minus(v)
        assert np.abs(total.coeffs - v.coeffs).max() < 1e-13 * max(np.abs(v.coeffs).max(), 1.0)

    def test_idempotence_annihilation(self, grid16, rng):
        v = rand2(grid16, rng)
        pp, pm = p_plus(v), p_minus(v)
        tol = 1e-13 * max(np.abs(v.coeffs).max(), 1.0)
        assert np.abs(p_plus(pp).coeffs - pp.coeffs).max() < tol
        assert np.abs(p_minus(pm).coeffs - pm.coeffs).max() < tol
        assert np.abs(p_plus(pm).coeffs).max() < tol
        assert np.abs(p_minus(pp).coeffs).max() < tol
        assert np.abs(p0(pp).coeffs).max() < tol
        assert np.abs(p_plus(p0(v)).coeffs).max() < tol

    def test_eigenrelation(self, grid16, rng):
        v = rand2(grid16, rng)
        for proj, ev in ((p_plus, -1j), (p_minus, 1j)):
            pv = proj(v)
            rv = rotation_r(pv)
            assert np.abs(rv.coeffs - ev * pv.coeffs).max() < 1e-13 * max(
                np.abs(pv.coeffs).max(), 1.0
            )

    def test_self_adjointness(self, grid16, rng):
        f = rand2(grid16, rng)
        g = rand2(grid16, rng)
        assert abs(inner(p0(f), g) - inner(f, p0(g))) < 1e-12
        assert abs(inner(p_plus(f), g) - inner(f, p_plus(g))) < 1e-12
        assert abs(inner(p_minus(f), g) - inner(f, p_minus(g))) < 1e-12

    def test_commutes_with_diagonal_multipliers(self, grid16, rng):
        v = rand2(grid16, rng)
        a = apply_A_exp(p_plus(v), 1.5, 0.3)
        b = p_plus(apply_A_exp(v, 1.5, 0.3))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * max(np.abs(a.coeffs).max(), 1.0)

    def test_norm_splitting(self, grid16, rng):
        v = rand2(grid16, rng)
        total = l2_norm_sq(v)
        split = l2_norm_sq(p0(v)) + l2_norm_sq(baroclinic(v))
        assert abs(total - split) < 1e-12 * total

    def test_pm_energy_half(self, grid16, rng):
        v = rand2(grid16, rng)
        vt = baroclinic(v)
        for proj in (p_plus, p_minus):
            s = apply_A_exp(proj(v), 1.0, 0.2)
            t = apply_A_exp(vt, 1.0, 0.2)
            assert abs(l2_norm_sq(s) - 0.5 * l2_norm_sq(t)) < 1e-12 * max(l2_norm_sq(t), 1.0)


def test_pe_leray(grid16, rng):
    v = rand2(grid16, rng)
    pv = pe_leray(v)
    assert np.abs(div_h(p0(pv)).coeffs).max() < 1e-12
    assert np.abs(baroclinic(pv).coeffs - baroclinic(v).coeffs).max() < 1e-13

def test_perp_involution(grid16, rng):
    v = rand2(grid16, rng)
    assert np.abs(perp(perp(v)).coeffs + v.coeffs).max() == 0.0


class TestArrayOperators:
    """The array-level kernels that the solvers call and the SpectralField
    projections wrap, on single modes with closed-form values."""

    def test_leray_single_mode(self, grid16):
        # k = 2 pi (1, 2), a = (1, 0): a - k (k . a)/|k|^2 = (4/5, -2/5)
        a = np.zeros((2, 16, 16), dtype=np.complex128)
        a[0, 1, 2] = 1.0
        out = leray(a, grid16)
        assert abs(out[0, 1, 2] - 0.8) < 1e-15 and abs(out[1, 1, 2] + 0.4) < 1e-15
        assert np.count_nonzero(out) == 2

    def test_leray_keeps_the_mean_and_both_layouts_agree(self, grid16, rng):
        v = rand2(grid16, rng).coeffs
        out = leray(v[..., 0], grid16)
        assert out[:, 0, 0].tolist() == v[:, 0, 0, 0].tolist()
        assert np.array_equal(leray(v, grid16)[..., 0], out)
        assert np.abs(divergence(out, grid16)).max() < 1e-12 * np.abs(v).max() * 2 * np.pi * 8

    def test_curl_grad_perp_and_biot_savart(self, grid16):
        psi = np.zeros((16, 16), dtype=np.complex128)
        psi[1, 2] = 1.0
        v = perp_grad(psi, grid16)
        assert v[0, 1, 2] == -(1j * 4.0 * np.pi) and v[1, 1, 2] == 1j * 2.0 * np.pi
        # curl grad^perp psi = Delta psi = -|k|^2 psi
        w = vorticity_from_velocity(v, grid16)
        assert abs(w[1, 2] + 20.0 * np.pi**2) < 1e-12 and np.count_nonzero(w) == 1
        assert np.abs(velocity_from_vorticity(w, grid16) - v).max() < 1e-15 * 4.0 * np.pi

    def test_random_barotropic_is_grad_perp(self, grid16):
        vbar = random_barotropic(grid16, np.random.default_rng(5))
        psi = random_scalar(grid16, np.random.default_rng(5), 0.5, 0.0).coeffs[0, :, :, 0]
        psi[0, 0] = 0.0
        assert np.array_equal(vbar, perp_grad(psi, grid16))

    def test_plus_minus_projections(self, grid16, rng):
        vt = baroclinic(rand2(grid16, rng)).coeffs
        vp, vm = plus_projection(vt), minus_projection(vt)
        assert np.array_equal(vp[1], 1j * vp[0]) and np.array_equal(vm, np.conj(plus_projection(np.conj(vt))))
        assert np.abs(vp + vm - vt).max() < 1e-15 * np.abs(vt).max()
        v = SpectralField(grid16, vt)
        assert np.array_equal(p_plus(v).coeffs, vp) and np.array_equal(p_minus(v).coeffs, vm)
