"""Band-limited transforms, and the solvers that keep their states in the band.

The kernels are checked against references written here, which share no code
with `rotape.spectral`: np.fft with scipy's DCT/DST on the band-masked array,
and dense sums of e^{2 pi i n.x} sqrt(2) cos(m pi z) (or sqrt(2) sin(m pi z))
over the collocation points.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotape.decomposition import polarized
from rotape.grid import GridSpec, dealias_mask
from rotape.initial_data import random_scalar_2d, random_state, well_prepared_state
from rotape.limit_solver import (
    LimitState,
    euler2d_rhs,
    integrate_limit,
    step_limit,
    transport_rhs,
    vorticity_from_velocity,
)
from rotape.pe_solver import (
    DirectState,
    RotatingState,
    SolverConfig,
    State2D,
    integrate,
    rhs_2d,
    rhs_direct,
    rhs_rotating,
    rotating_from_direct,
    step,
    step_2d,
)
from rotape.spectral import (
    COS,
    SIN,
    band_pack,
    band_unpack,
    coeffs_from_values,
    require_band,
    symmetrize,
    values_from_coeffs,
)


def _coeffs(rng, shape, real):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return symmetrize(a) if real else a


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _band(grid, n2=None):
    """|n1|, |n2| <= hcut, m <= zcut over (nh, n2, nz), from the mode numbers alone."""
    n2 = grid.nh if n2 is None else n2
    keep1 = np.abs(np.rint(np.fft.fftfreq(grid.nh) * grid.nh)) <= grid.hcut
    keep2 = np.abs(np.rint(np.fft.fftfreq(n2) * n2)) <= grid.hcut
    return keep1[:, None, None] & keep2[None, :, None] & (np.arange(grid.nz) <= grid.zcut)


# --- reference 1: np.fft and scipy's DCT/DST of the whole array ---------------

def _r2r_parts(kernel, x, type):
    """A real-to-real transform along the last axis, real and imaginary parts separately."""
    return kernel(x.real, type=type, axis=-1) + 1j * kernel(x.imag, type=type, axis=-1)


def _fft_inverse(a, basis):
    """sum_n,m a(n, m) e^{2 pi i n.x} phi_m(z) at the collocation points."""
    nh, nz = a.shape[-3], a.shape[-1]
    h = np.fft.ifft2(a, axes=(-3, -2)) * (a.shape[-3] * a.shape[-2])
    if basis == COS:  # DCT-III: y_l = x_0 + 2 sum_m x_m cos(m pi z_l)
        x = h / np.sqrt(2.0)
        x[..., 0] = h[..., 0]
        return _r2r_parts(sfft.dct, x, 3)
    x = np.zeros_like(h)  # DST-III: y_l = 2 sum_k x_k sin((k + 1) pi z_l), x_{nz-1} = 0
    x[..., : nz - 1] = h[..., 1:] / np.sqrt(2.0)
    return _r2r_parts(sfft.dst, x, 3)


def _fft_forward(vals, basis):
    """The basis coefficients of every mode (n, m), m < nz, of collocation values."""
    nz = vals.shape[-1]
    h = np.fft.fft2(vals, axes=(-3, -2)) / (vals.shape[-3] * vals.shape[-2])
    if basis == COS:  # DCT-II: y_m = 2 sum_l v_l cos(m pi z_l)
        a = _r2r_parts(sfft.dct, h, 2) / (np.sqrt(2.0) * nz)
        a[..., 0] /= np.sqrt(2.0)
        return a
    a = np.zeros_like(h)  # DST-II: y_k = 2 sum_l v_l sin((k + 1) pi z_l)
    a[..., 1:] = _r2r_parts(sfft.dst, h, 2)[..., : nz - 1] / (np.sqrt(2.0) * nz)
    return a


# --- reference 2: dense sums over the collocation points ----------------------

def _dense_bases(n1, n2, nz, basis):
    """E1[n, i] = e^{2 pi i n x_i}, E2 likewise, Z[m, l] = phi_m(z_l), n in FFT order."""
    def fourier(n):
        return np.exp(2j * np.pi * np.outer(np.rint(np.fft.fftfreq(n) * n), np.arange(n) / n))

    m = np.arange(nz)[:, None]
    z = (np.arange(nz) + 0.5) / nz
    if basis == COS:
        zb = np.where(m == 0, 1.0, np.sqrt(2.0) * np.cos(m * np.pi * z))
    else:
        zb = np.sqrt(2.0) * np.sin(m * np.pi * z)
    return fourier(n1), fourier(n2), zb


def _dense_inverse(a, basis):
    e1, e2, zb = _dense_bases(*a.shape[-3:], basis)
    return np.einsum("...abm,ai,bj,ml->...ijl", a, e1, e2, zb, optimize=True)


def _dense_forward(vals, basis):
    n1, n2, nz = vals.shape[-3:]
    e1, e2, zb = _dense_bases(n1, n2, nz, basis)
    return np.einsum("...ijl,ai,bj,ml->...abm", vals, e1.conj(), e2.conj(), zb, optimize=True) / (n1 * n2 * nz)


def _check_kernels(grid, basis, real, a, vals, reference, bound):
    """The inverse of the packed band of a, and the forward of vals unpacked,
    against `reference` (inverse, forward) on the band-masked array."""
    mask = _band(grid, a.shape[-2])
    inverse, forward = reference
    expect = inverse(a * mask, basis)
    got = values_from_coeffs(band_pack(a * mask, grid), grid, basis, real=real)
    if real:
        assert got.dtype == np.float64
        assert np.abs(expect.imag).max() <= 1e-14 * np.abs(expect).max()
        expect = expect.real
    assert got.shape == expect.shape
    assert _rel(got, expect) <= bound
    got = band_unpack(coeffs_from_values(vals, grid, basis), grid)
    expect = forward(vals, basis) * mask
    assert got.shape == expect.shape
    assert _rel(got, expect) <= bound
    assert not got[:, ~mask].any()


@pytest.mark.parametrize("components", [1, 2, 3, 6])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("basis", [COS, SIN])
@pytest.mark.parametrize("nh, nz", [(24, 12), (32, 32), (64, 32)])
def test_band_kernels_agree_with_full_kernels(rng, nh, nz, basis, real, components):
    """The band kernels equal the full np.fft/DCT transforms of the band-masked
    input (inverse) and the band-masked full transforms (forward)."""
    grid = GridSpec(nh=nh, nz=nz)
    shape = (components, *grid.shape)
    a = _coeffs(rng, shape, real) * _band(grid)
    vals = rng.standard_normal(shape) if real else _coeffs(rng, shape, False)
    _check_kernels(grid, basis, real, a, vals, (_fft_inverse, _fft_forward), 1e-14)


@settings(max_examples=40, deadline=None)
@given(
    half_nh=st.integers(2, 32),
    nz=st.integers(2, 32),
    frac=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]),
    basis=st.sampled_from([COS, SIN]),
    real=st.booleans(),
    xz=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(half_nh=2, nz=2, frac=Fraction(2, 3), basis=SIN, real=True, xz=False, seed=0)  # hcut = 1, zcut = nz - 1
@example(half_nh=32, nz=32, frac=Fraction(1), basis=COS, real=False, xz=False, seed=1)  # hcut = nh/2 - 1, zcut = nz - 1
@example(half_nh=12, nz=12, frac=Fraction(2, 3), basis=COS, real=False, xz=False, seed=2)  # the benchmark grids
@example(half_nh=16, nz=32, frac=Fraction(2, 3), basis=SIN, real=True, xz=False, seed=3)
@example(half_nh=32, nz=32, frac=Fraction(2, 3), basis=COS, real=True, xz=False, seed=4)
@example(half_nh=16, nz=16, frac=Fraction(2, 3), basis=SIN, real=True, xz=True, seed=5)  # the 2-D reduced system
@example(half_nh=8, nz=6, frac=Fraction(1), basis=COS, real=True, xz=True, seed=6)
def test_band_kernels_read_and_write_only_the_band(half_nh, nz, frac, basis, real, xz, seed):
    """On any input, including the Nyquist row and column, the band inverse is
    the dense sum over the band-masked coefficients and the band forward the
    band-masked dense projection.  The packed band round-trips band-limited
    coefficients exactly, and a mode outside it is rejected on packing."""
    nh = 2 * half_nh
    if frac * nh < 2:
        frac = Fraction(1)
    grid = GridSpec(nh=nh, nz=nz, dealias_fraction=frac)
    rng = np.random.default_rng(seed)
    shape = (2, nh, 1 if xz else nh, nz)
    a = _coeffs(rng, shape, real)
    assert a[:, nh // 2].any() and (xz or a[:, :, nh // 2].any())
    vals = rng.standard_normal(shape) if real else _coeffs(rng, shape, False)
    _check_kernels(grid, basis, real, a, vals, (_dense_inverse, _dense_forward), 1e-13)
    mask = _band(grid, shape[-2])
    packed = band_pack(a * mask, grid)
    assert packed.shape == (2, 2 * grid.hcut + 1, 1 if xz else 2 * grid.hcut + 1, grid.zcut + 1)
    assert np.array_equal(band_unpack(packed, grid), a * mask)
    with pytest.raises(ValueError, match="outside the 2/3-rule band"):
        band_pack(a, grid)


def test_xz_column_layout(rng):
    """The n2 = 0 column (nh, 1, nz) of the 2-D reduced system: its band is |n1| <= hcut, m <= zcut."""
    grid = GridSpec(nh=32, nz=16)
    vals = rng.standard_normal((2, grid.nh, 1, grid.nz))
    for basis in (COS, SIN):
        a = _coeffs(rng, (2, grid.nh, 1, grid.nz), real=True)
        _check_kernels(grid, basis, True, a, vals, (_dense_inverse, _dense_forward), 1e-14)


def test_inverse_rejects_the_full_layout(rng):
    """The inverse reads the packed band only; a full-layout array is refused, not misread."""
    grid = GridSpec(nh=24, nz=12)
    a = _coeffs(rng, (2, *grid.shape), real=False) * _band(grid)
    with pytest.raises(ValueError, match=r"not in the packed band layout \(\.\., 15, 15, 8\)"):
        values_from_coeffs(a, grid, COS)
    values_from_coeffs(band_pack(a, grid), grid, COS)


GRID = GridSpec(nh=16, nz=8)


def _direct_state(rng, grid=GRID):
    vbar, vt = random_state(grid, rng, tau0=0.4, eta0=0.3, amplitude=1.0, baroclinic_fraction=0.6)
    v = vt.coeffs.copy()
    v[..., 0] += vbar
    return DirectState(0.0, v)


def _cfg(formulation, t_end=5e-3):
    return SolverConfig(nu=0.1, omega=5.0, grid=GRID, dt=1e-3, t_end=t_end, formulation=formulation)


def _with_mode(v, index, value=1e-3):
    """v plus a conjugate pair at `index` = (n1, n2, m), component 0."""
    out = v.copy()
    n1, n2, m = index
    out[0, n1, n2, m] += value
    out[0, -n1, -n2, m] += value
    return out


class TestOutOfBandStatesRejected:
    @pytest.mark.parametrize("index, nmax, mmax", [((7, 2, 1), 7, 1), ((1, 1, 7), 1, 7)])
    def test_integrate_and_step_name_the_modes(self, rng, index, nmax, mmax):
        v = _with_mode(_direct_state(rng).v, index)
        message = rf"v has 2 nonzero coefficients outside the 2/3-rule band .*there {nmax}, largest m {mmax}\)"
        with pytest.raises(ValueError, match=message):
            integrate(DirectState(0.0, v), _cfg("direct"))
        with pytest.raises(ValueError, match=message):
            step(DirectState(0.0, v), _cfg("direct"))
        with pytest.raises(ValueError, match="vplus has 4 nonzero"):  # phi (1, i): both components
            integrate(rotating_from_direct(v, 0.0, 5.0), _cfg("rotating"))

    def test_barotropic_mode_checked(self, rng):
        v = _with_mode(_direct_state(rng).v, (0, 6, 0))
        with pytest.raises(ValueError, match="vbar has 2 nonzero.*there 6, largest m 0"):
            step(rotating_from_direct(v, 0.0, 5.0), _cfg("rotating"))

    def test_limit_system_and_2d_checked(self, rng):
        vbar, vt = well_prepared_state(GRID, rng, tau0=0.4, eta0=0.3)
        vt = vt.coeffs
        w = vorticity_from_velocity(vbar, GRID)
        with pytest.raises(ValueError, match="vtilde has 2 nonzero"):
            integrate_limit(LimitState(0.0, w, _with_mode(vt, (3, 0, 6))), GRID, 0.1, 1e-3, 2e-3)
        w_bad = w.copy()
        w_bad[6, 6] = w_bad[-6, -6] = 1e-3
        with pytest.raises(ValueError, match="omega_bar has 2 nonzero"):
            integrate_limit(LimitState(0.0, w_bad, vt), GRID, 0.1, 1e-3, 2e-3)
        u = np.zeros((1, GRID.nh, 1, GRID.nz), dtype=np.complex128)
        u[0, 7, 0, 1] = u[0, -7, 0, 1] = 1.0
        with pytest.raises(ValueError, match="u has 2 nonzero"):
            step_2d(State2D(0.0, u), GRID, 0.1, 1e-3)

    def test_require_band_accepts_band_limited(self, rng):
        require_band(_direct_state(rng).v, GRID, "v")

    def test_band_tendencies_reject_the_full_layout(self, rng):
        """transport_rhs and rhs_2d take the packed band their steppers pass; a full layout is refused."""
        vbar, vt = well_prepared_state(GRID, rng, tau0=0.4, eta0=0.3)
        with pytest.raises(ValueError, match="not in the packed band layout"):
            transport_rhs(vt.coeffs, vorticity_from_velocity(vbar, GRID), GRID)
        with pytest.raises(ValueError, match="not in the packed band layout"):
            rhs_2d(random_scalar_2d(GRID, rng, tau=0.4, eta=0.3), GRID)


class TestStepsStayInTheBand:
    """Five accepted steps leave every coefficient outside the band exactly 0."""

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_pe_formulations(self, rng, formulation):
        cfg = SolverConfig(nu=0.1, omega=5.0, grid=GRID, dt=1e-3, t_end=5e-3, formulation=formulation)
        st0 = _direct_state(rng)
        if formulation == "rotating":
            st0 = rotating_from_direct(st0.v, 0.0, cfg.omega)
        res = integrate(st0, cfg)
        assert res.termination == "completed" and len(res.rows) == 6
        out = ~dealias_mask(GRID)
        if formulation == "rotating":
            assert not res.state.vbar[:, out[..., 0]].any()
            assert not res.state.vplus[:, out].any()
            assert not res.state.vminus[:, out].any()
        else:
            assert not res.state.v[:, out].any()

    def test_limit_system(self, rng):
        vbar, vt = well_prepared_state(GRID, rng, tau0=0.4, eta0=0.3)
        st0 = LimitState(0.0, vorticity_from_velocity(vbar, GRID), vt.coeffs)
        fin, diags, _ = integrate_limit(st0, GRID, 0.1, 1e-3, 5e-3)
        assert len(diags) == 6
        out = ~dealias_mask(GRID)
        assert not fin.omega_bar[out[..., 0]].any()
        assert not fin.vtilde[:, out].any()


@pytest.mark.parametrize("system", ["rotating", "direct", "limit"])
def test_integrators_pack_their_state_once(rng, monkeypatch, system):
    """`integrate` and `integrate_limit` carry the packed arrays from step to
    step: they pack as often for 10 steps as for 2."""
    import sys

    from rotape import spectral

    calls, band_pack = [], spectral.band_pack

    def counting(*args, **kwargs):
        calls.append(args)
        return band_pack(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rotape") and getattr(module, "band_pack", None) is band_pack:
            monkeypatch.setattr(module, "band_pack", counting)

    def packs(n_steps):
        calls.clear()
        if system == "limit":
            vbar, vt = well_prepared_state(GRID, rng, tau0=0.4, eta0=0.3)
            st0 = LimitState(0.0, vorticity_from_velocity(vbar, GRID), vt.coeffs)
            integrate_limit(st0, GRID, 0.1, 1e-3, n_steps * 1e-3)
        else:
            st0 = _direct_state(rng)
            if system == "rotating":
                st0 = rotating_from_direct(st0.v, 0.0, 5.0)
            assert len(integrate(st0, _cfg(system, n_steps * 1e-3)).rows) == n_steps + 1
        return len(calls)

    assert packs(2) == packs(10) >= 1


# --- the band-resident steppers against a full-layout reference ---------------

def _full_if_rk4(arrs, t, dt, nl, e_half, e_full):
    """The integrating-factor RK4 written out on full-layout arrays, around the
    public full-layout right-hand sides."""
    k1 = nl(arrs, t)
    y2 = tuple(e_half[i] * (arrs[i] + 0.5 * dt * k1[i]) for i in range(len(arrs)))
    k2 = nl(y2, t + 0.5 * dt)
    y3 = tuple(e_half[i] * arrs[i] + 0.5 * dt * k2[i] for i in range(len(arrs)))
    k3 = nl(y3, t + 0.5 * dt)
    y4 = tuple(e_full[i] * arrs[i] + dt * e_half[i] * k3[i] for i in range(len(arrs)))
    k4 = nl(y4, t + dt)
    return tuple(
        e_full[i] * arrs[i]
        + (dt / 6.0) * (e_full[i] * k1[i] + 2.0 * e_half[i] * (k2[i] + k3[i]) + k4[i])
        for i in range(len(arrs))
    )


def _full_decay(grid, nu, h):
    return np.exp(-nu * (np.pi * np.arange(grid.nz)) ** 2 * h)[None, None, :]


class TestBandResidentSteps:
    """Five steps of `step`, `step_limit` and `step_2d`, which run every stage
    on the packed band, equal the full-layout IF-RK4 bit for bit."""

    @pytest.mark.parametrize("formulation", ["rotating", "direct"])
    def test_pe_step(self, rng, formulation):
        cfg = _cfg(formulation)
        st = _direct_state(rng)
        eh, ef = _full_decay(GRID, cfg.nu, 0.5 * cfg.dt), _full_decay(GRID, cfg.nu, cfg.dt)
        if formulation == "rotating":
            st = rotating_from_direct(st.v, 0.0, cfg.omega)

            def nl(a, t):
                dvb, dvp, _ = rhs_rotating(RotatingState(t, a[0], polarized(a[1])), t, cfg)
                return dvb, dvp[0:1]

            ref = (st.vbar, st.vplus[0:1])
            factors = ((1.0, eh), (1.0, ef))
        else:
            def nl(a, t):
                return (rhs_direct(a[0], t, cfg),)

            ref = (st.v,)
            factors = ((eh,), (ef,))
        t = st.t
        for _ in range(5):
            st = step(st, cfg)
            ref = _full_if_rk4(ref, t, cfg.dt, nl, *factors)
            t += cfg.dt
        if formulation == "rotating":
            assert np.array_equal(st.vbar, ref[0]) and np.array_equal(st.vplus, polarized(ref[1]))
        else:
            assert np.array_equal(st.v, ref[0])

    def test_limit_step(self, rng):
        vbar, vt = well_prepared_state(GRID, rng, tau0=0.4, eta0=0.3)
        st = LimitState(0.0, vorticity_from_velocity(vbar, GRID), vt.coeffs)
        nu, dt = 0.1, 1e-3
        eh, ef = _full_decay(GRID, nu, 0.5 * dt), _full_decay(GRID, nu, dt)

        def nl(a, t):
            return euler2d_rhs(a[0], GRID), band_unpack(transport_rhs(band_pack(a[1], GRID), a[0], GRID), GRID)

        ref = (st.omega_bar, st.vtilde)
        for i in range(5):
            st = step_limit(st, GRID, nu, dt)
            ref = _full_if_rk4(ref, i * dt, dt, nl, (1.0, eh), (1.0, ef))
        assert np.array_equal(st.omega_bar, ref[0]) and np.array_equal(st.vtilde, ref[1])

    def test_2d_step(self, rng):
        u = random_scalar_2d(GRID, rng, tau=0.4, eta=0.3)
        st = State2D(0.0, u)
        nu, dt = 0.1, 1e-3
        eh, ef = _full_decay(GRID, nu, 0.5 * dt), _full_decay(GRID, nu, dt)

        def nl(a, t):
            return (band_unpack(rhs_2d(band_pack(a[0], GRID), GRID), GRID),)

        ref = (u,)
        for i in range(5):
            st = step_2d(st, GRID, nu, dt)
            ref = _full_if_rk4(ref, i * dt, dt, nl, (eh,), (ef,))
        assert np.array_equal(st.u, ref[0])
