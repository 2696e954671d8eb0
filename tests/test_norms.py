"""Analytic-Sobolev norms and radius fitting."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.decomposition import baroclinic, p0, p_plus
from rotape.grid import GridSpec, a_exp_weight, dealias_mask, kabs, mode_numbers, mpi
from rotape.initial_data import random_scalar, random_vector
from rotape.norms import (
    InsufficientDecayData,
    NormSpec,
    ShellPower,
    _mode_shells,
    _shell_stats,
    dz_l2_sq,
    seminorm_a_sq,
    fit_radius,
    norm_rst,
    norm_rst_eta,
)
from rotape.spectral import SIN, SpectralField, SpectralRangeError, apply_A_exp, band_pack, symmetrize
from tests.test_spectral_core import mode_field


class TestNormRst:
    def test_zero_field(self, grid16):
        f = SpectralField.zeros(grid16)
        assert norm_rst(f, NormSpec(r=2.0)) == 0.0

    def test_single_mode_value(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0})
        got = norm_rst(f, NormSpec(r=2.0, s=0, tau=0.0))
        expect = np.sqrt((2 * np.pi) ** 4 + 1.0)
        assert abs(got - expect) < 1e-12

    def test_tau_zero_is_anisotropic_sobolev(self, grid16, rng):
        # S_{r,s,0} = H^r_x H^s_z: compare against a direct coefficient sum
        f = random_vector(grid16, rng, baroclinic=False)
        r, s = 1.5, 1
        got = norm_rst(f, NormSpec(r=r, s=s, tau=0.0))
        k = kabs(grid16)
        w = mpi(grid16)
        a2 = np.abs(f.coeffs) ** 2
        expect = 0.0
        for m in range(s + 1):
            ar = np.sum(a2 * np.where(k > 0, k ** (2 * r), 0.0) * w ** (2 * m))
            l2 = np.sum(a2 * w ** (2 * m))
            expect += np.sqrt(ar + l2)
        assert abs(got - expect) < 1e-12 * expect

    def test_norm_splitting_s0(self, grid16, rng):
        v = random_vector(grid16, rng)
        spec = NormSpec(r=1.2, s=0, tau=0.15)
        total = norm_rst(v, spec) ** 2
        parts = norm_rst(p0(v), spec) ** 2 + norm_rst(baroclinic(v), spec) ** 2
        assert abs(total - parts) < 1e-12 * total

    def test_pm_norm_half(self, grid16, rng):
        v = random_vector(grid16, rng)
        spec = NormSpec(r=1.2, s=0, tau=0.15)
        vt = baroclinic(v)
        assert abs(2 * norm_rst(p_plus(v), spec) ** 2 - norm_rst(vt, spec) ** 2) < 1e-12 * max(
            norm_rst(vt, spec) ** 2, 1.0
        )

    @given(
        r1=st.floats(0.0, 2.0),
        r2=st.floats(0.0, 2.0),
        t1=st.floats(0.0, 0.4),
        t2=st.floats(0.0, 0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_r_and_tau(self, r1, r2, t1, t2):
        grid = GridSpec(nh=16, nz=8)
        rng = np.random.default_rng(7)
        f = random_scalar(grid, rng)
        f.coeffs[:, 0, 0, :] = 0.0  # |k| >= 2 pi content only
        lo = norm_rst(f, NormSpec(r=min(r1, r2), s=0, tau=min(t1, t2)))
        hi = norm_rst(f, NormSpec(r=max(r1, r2), s=0, tau=max(t1, t2)))
        assert hi >= lo - 1e-12 * max(hi, 1.0)


class TestNormRstEta:
    def test_zero(self, grid16):
        assert norm_rst_eta(SpectralField.zeros(grid16), NormSpec(r=2.0, eta=0.1)) == 0.0

    def test_single_mode_weight(self, grid16):
        f = mode_field(grid16, {(0, 2, 1, 3): 1.0})
        r, s, tau, eta = 1.5, 1, 0.2, 0.1
        k = 2 * np.pi * np.sqrt(2**2 + 1**2)
        k3 = 3 * np.pi
        expect = np.sqrt(1.0 + (k ** (2 * r) + k3 ** (2 * s)) * np.exp(2 * tau * k + 2 * eta * k3))
        got = norm_rst_eta(f, NormSpec(r=r, s=s, tau=tau, eta=eta))
        assert abs(got - expect) < 1e-12 * expect

    def test_monotone_in_eta(self, grid16, rng):
        f = random_scalar(grid16, rng)
        spec0 = NormSpec(r=1.0, s=1, tau=0.1, eta=0.0)
        vals = [
            norm_rst_eta(f, NormSpec(r=1.0, s=1, tau=0.1, eta=e)) for e in (0.0, 0.05, 0.1, 0.2)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0

    @pytest.mark.parametrize("nh", [16, 32])
    def test_matches_per_mode_sum(self, rng, nh):
        """The table reduction equals the displayed per-mode sum."""
        grid = GridSpec(nh=nh, nz=8)
        f = random_vector(grid, rng, tau=0.3, eta=0.2)
        k, m = kabs(grid), mpi(grid)
        for r, s, tau, eta in ((0.0, 0, 0.0, 0.0), (2.0, 0, 0.3, 0.1), (1.5, 1, 0.2, 0.4), (2.0, 2, 0.0, 0.25)):
            # 0^0 = 1: the A^0 = identity convention at k = 0 and m = 0
            weight = 1.0 + (k ** (2 * r) + m ** (2 * s)) * np.exp(2 * tau * k + 2 * eta * m)
            expect = np.sqrt(np.sum(np.abs(f.coeffs) ** 2 * weight))
            spec = NormSpec(r=r, s=s, tau=tau, eta=eta)
            assert abs(norm_rst_eta(f, spec) - expect) <= 1e-13 * expect
            assert norm_rst_eta(ShellPower.of(f.coeffs, grid), spec) == norm_rst_eta(f, spec)


class TestFitRadius:
    def test_prescribed_decay_recovered(self, grid16, rng):
        tau0 = 0.5
        g = rng.standard_normal((1, *grid16.shape)) + 1j * rng.standard_normal((1, *grid16.shape))
        # white-in-shell magnitudes with exact exponential envelope
        g /= np.abs(g)
        a = g * np.exp(-tau0 * kabs(grid16))
        a *= dealias_mask(grid16)[None, ...]
        f = SpectralField(grid16, symmetrize(a))
        got = fit_radius(f, "horizontal")
        assert abs(got - tau0) < 0.05 * tau0

    def test_flat_spectrum_fit_near_zero(self, grid16, rng):
        g = rng.standard_normal((1, *grid16.shape)) + 1j * rng.standard_normal((1, *grid16.shape))
        g /= np.abs(g)
        g *= dealias_mask(grid16)[None, ...]
        f = SpectralField(grid16, symmetrize(g))
        got = fit_radius(f, "horizontal")
        assert got < 0.05

    def test_a_exp_shifts_fit(self, grid16, rng):
        tau0, sigma = 0.6, 0.25
        g = rng.standard_normal((1, *grid16.shape)) + 1j * rng.standard_normal((1, *grid16.shape))
        g /= np.abs(g)
        a = g * np.exp(-tau0 * kabs(grid16)) * dealias_mask(grid16)[None, ...]
        f = SpectralField(grid16, symmetrize(a))
        base = fit_radius(f, "horizontal")
        shifted = fit_radius(apply_A_exp(f, 0.0, sigma), "horizontal")
        assert abs((base - shifted) - sigma) < 0.05 * sigma

    def test_vertical_fit(self, rng):
        grid = GridSpec(nh=16, nz=16)
        eta0 = 0.4
        g = rng.standard_normal((1, *grid.shape)) + 1j * rng.standard_normal((1, *grid.shape))
        g /= np.abs(g)
        a = g * np.exp(-eta0 * mpi(grid)) * dealias_mask(grid)[None, ...]
        f = SpectralField(grid, symmetrize(a))
        got = fit_radius(f, "vertical")
        assert abs(got - eta0) < 0.05 * eta0

    def test_insufficient_shells_raises(self, grid16):
        f = mode_field(grid16, {(0, 1, 0, 0): 1.0, (0, 2, 0, 0): 0.5})
        with pytest.raises(InsufficientDecayData):
            fit_radius(f, "horizontal")


class TestShells:
    # at nh = 48 these modes have an integer |n| that floor(|k| / 2 pi) puts
    # one shell low in floating point; (0, 15), (5, 12), (9, 12) lie inside
    # the 2/3 band (hcut = 15)
    INTEGER_RADIUS_MODES = [(0, 11), (11, 0), (0, 15), (15, 0), (5, 12), (9, 12), (0, 22), (10, 24)]

    def test_shell_is_exact_integer_radius(self):
        grid = GridSpec(nh=48, nz=4)
        n, _, _ = mode_numbers(grid)
        q = n[:, None] ** 2 + n[None, :] ** 2
        shells = _mode_shells(grid)
        assert np.array_equal(shells, np.vectorize(math.isqrt)(q))
        for a, b in self.INTEGER_RADIUS_MODES:
            assert shells[a, -b] == shells[-a, b] == math.isqrt(a * a + b * b)
        # every q = n1^2 + n2^2 lands in exactly one shell
        assert all(len(np.unique(shells[q == v])) == 1 for v in np.unique(q))

    @pytest.mark.parametrize("mode", INTEGER_RADIUS_MODES)
    def test_power_at_integer_radius_reported_in_its_shell(self, mode):
        grid = GridSpec(nh=48, nz=4)
        a, b = mode
        f = mode_field(grid, {(0, a, b, 1): 1.0, (0, -a, -b, 1): 1.0})
        ks, amps = _shell_stats(f, "horizontal")
        (hit,) = np.flatnonzero(amps > 0)
        radius = math.isqrt(a * a + b * b)
        assert 2 * np.pi * radius <= ks[hit] < 2 * np.pi * (radius + 1)
        assert hit == radius - 1  # shells 1, 2, ... are all populated at nh = 48


    @pytest.mark.parametrize("nh", [16, 32, 48])
    def test_shells_average_over_their_in_band_modes(self, nh):
        """Unit coefficients on every in-band mode read one shell_l2 amplitude in
        every shell that has an in-band mode, the shells that straddle the band
        edge (hcut < |n| <= sqrt(2) hcut) too; the shells past it read 0."""
        grid = GridSpec(nh=nh, nz=4)
        f = SpectralField(grid, dealias_mask(grid)[None].astype(np.complex128))
        _, amps = _shell_stats(f, "horizontal")
        last = math.isqrt(2 * grid.hcut**2)  # shells 1 .. last hold in-band modes
        expect = np.sqrt((grid.zcut + 1) / grid.nz)
        assert np.allclose(amps[:last], expect, rtol=1e-14, atol=0.0)
        assert not amps[last:].any()


def _per_mode_sq(f, r, tau, s_order, weighted=True):
    """The per-mode coefficient sum the table replaces."""
    w = a_exp_weight(kabs(f.grid), 2.0 * r, 2.0 * tau) if weighted else 1.0
    vert = mpi(f.grid) ** (2 * s_order)
    return float(np.sum(np.abs(f.coeffs) ** 2 * w * vert))


class TestShellPower:
    @pytest.mark.parametrize("nh", [16, 24, 32, 64])
    def test_table_matches_per_mode_sums(self, rng, nh):
        grid = GridSpec(nh=nh, nz=8)
        # one analytic field and one flat field with every mode populated
        flat = rng.standard_normal((2, *grid.shape)) + 1j * rng.standard_normal((2, *grid.shape))
        for f in (random_vector(grid, rng, tau=0.3, eta=0.2), SpectralField(grid, flat)):
            table = ShellPower.of(f.coeffs, grid)
            for tau in (0.0, 0.35, 1.0):
                for s in (0, 1, 2):
                    for r in (0.0, 1.5, 2.0):
                        expect = _per_mode_sq(f, r, tau, s)
                        assert abs(seminorm_a_sq(table, r, tau, s) - expect) <= 1e-13 * expect
                        assert seminorm_a_sq(f, r, tau, s) == seminorm_a_sq(table, r, tau, s)
                    plain = _per_mode_sq(f, 0.0, 0.0, s, weighted=False)
                    assert abs(dz_l2_sq(table, s) - plain) <= 1e-13 * plain
                    spec = NormSpec(r=2.0, s=s, tau=tau)
                    expect = sum(
                        np.sqrt(_per_mode_sq(f, 2.0, tau, m) + _per_mode_sq(f, 0.0, 0.0, m, weighted=False))
                        for m in range(s + 1)
                    )
                    assert abs(norm_rst(table, spec) - expect) <= 1e-13 * expect

    def test_overflow_raises_the_same_error(self, rng):
        grid = GridSpec(nh=64, nz=8)
        f = random_vector(grid, rng)
        with pytest.raises(SpectralRangeError, match="overflows"):
            a_exp_weight(kabs(grid), 2.0 * 2.0, 2.0 * 6.0)
        for v in (f, ShellPower.of(f.coeffs, grid)):
            with pytest.raises(SpectralRangeError, match="overflows"):
                norm_rst(v, NormSpec(r=2.0, tau=6.0))
        assert np.isfinite(norm_rst(ShellPower.of(f.coeffs, grid), NormSpec(r=2.0, tau=1.0)))

    def test_weights_past_the_float64_range_raise_under_w_error(self, rng):
        """A weight above the largest float64 raises; np.exp never overflows to inf."""
        import warnings

        from rotape.initial_data import random_scalar_2d
        from rotape.lemmas import _profile, _z_power

        grid = GridSpec(nh=64, nz=8)
        f = random_vector(grid, rng)
        u = random_scalar_2d(grid, rng, tau=0.5, eta=0.3)
        table_2d = ShellPower.of(u, grid)
        table = _z_power(f, 4 * grid.nz)
        kmax = kabs(grid).max()
        log_max = np.log(np.finfo(np.float64).max)
        # log w = 2 r log kmax + 2 tau kmax just inside and just past log(float64 max)
        inside = (log_max - 4.0 * np.log(kmax)) / (2.0 * kmax) * (1.0 - 1e-9)
        for tau, ok in ((2.0, False), (inside * (1.0 + 2e-9), False), (inside, True)):
            evaluations = (
                lambda: norm_rst(f, NormSpec(r=2.0, tau=tau)),
                lambda: seminorm_a_sq(f, 2.0, tau),
                lambda: norm_rst_eta(f, NormSpec(r=2.0, tau=tau)),
                lambda: norm_rst(table_2d, NormSpec(r=2.0, tau=tau)),
                lambda: _profile(table, grid, 2.0, tau),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for evaluate in evaluations:
                    if ok:
                        assert np.isfinite(evaluate()).all()
                    else:
                        with pytest.raises(SpectralRangeError, match="overflows"):
                            evaluate()

    def test_compact_barotropic_layout_and_dz(self, rng):
        grid = GridSpec(nh=24, nz=6)
        f = random_vector(grid, rng)
        embedded = np.zeros_like(f.coeffs)
        embedded[..., 0] = f.coeffs[..., 0]
        assert np.allclose(ShellPower.of(f.coeffs[..., 0], grid).table,
                           ShellPower.of(embedded, grid).table, rtol=1e-15, atol=0.0)
        dzf = SpectralField(grid, f.coeffs * (-mpi(grid)), SIN)
        assert np.allclose(ShellPower.of(f.coeffs, grid).dz().table,
                           ShellPower.of(dzf.coeffs, grid).table, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_fit_from_table_equals_fit_from_field(self, rng, axis):
        grid = GridSpec(nh=32, nz=16)
        f = random_vector(grid, rng, tau=0.4, eta=0.3)
        assert fit_radius(ShellPower.of(f.coeffs, grid), axis) == fit_radius(f, axis)


@settings(max_examples=40, deadline=None)
@given(
    half_nh=st.integers(4, 16),
    nz=st.integers(4, 16),
    frac=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]),
    xz=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_packed_band_table_is_the_full_layout_table(half_nh, nz, frac, xz, seed):
    """ShellPower.of of a packed band, of the 3-D or the x-z layout, is the
    table of its full layout bit for bit: the band keeps its modes' order, so
    each bin sums the same terms in the same order."""
    grid = GridSpec(nh=2 * half_nh, nz=nz, dealias_fraction=frac)
    rng = np.random.default_rng(seed)
    shape = (2, grid.nh, 1 if xz else grid.nh, nz)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a *= dealias_mask(grid)[:, : shape[2]]
    assert np.array_equal(ShellPower.of(band_pack(a, grid), grid).table, ShellPower.of(a, grid).table)


def test_only_norms_forms_the_per_mode_weight():
    """Layering: the solver and the scenarios read norms off a ShellPower
    table, so neither builds the per-mode weight grid."""
    import rotape

    root = Path(rotape.__file__).parent
    offenders = [name for name in ("pe_solver.py", "scenarios.py") if "a_exp_weight" in (root / name).read_text()]
    assert offenders == []


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(r=-1.0)
    with pytest.raises(ValueError):
        NormSpec(r=1.0, s=3)


@pytest.mark.parametrize("field", ["r", "s", "tau", "eta"])
@pytest.mark.parametrize("value", [float("nan"), -0.5])
def test_norm_spec_rejects_nan_and_negative_parameters(field, value):
    """A NaN radius used to construct and make every norm at it NaN."""
    with pytest.raises(ValueError, match="nonnegative"):
        NormSpec(**{"r": 2.0, field: value})
