"""Exact discrete symmetries of every right-hand side.

With stress-free walls on T^2 x (0, 1) the primitive equations are
equivariant under the horizontal rotation by 90 degrees, the reflection
z -> 1 - z with w -> -w (cosine coefficients times (-1)^m), the reflection
y -> -y with v -> -v and Omega -> -Omega, and a shift by one grid cell.  The
pseudo-spectral scheme keeps each exactly: the maps permute the collocation
grid and the 2/3-rule band, so a right-hand side of the mapped state equals
the mapped right-hand side up to roundoff.  The fixture is flat band noise,
unit amplitude on every retained mode, so that a defect at the band edge
moves the result as much as one in the interior.  rhs_rotating is read
through criterion 3's conversion to the lab-frame tendency.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.decomposition import leray
from rotape.grid import GridSpec, dealias_mask, mode_numbers
from rotape.limit_solver import euler2d_rhs, transport_rhs
from rotape.pe_solver import SolverConfig, rhs_2d, rhs_direct, rhs_rotating, rotating_from_direct
from rotape.spectral import band_pack, band_unpack, symmetrize

BOUND = 1e-13  # relative to the largest tendency
FRACTIONS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def _neg(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def rotate(a: np.ndarray, vector: bool) -> np.ndarray:
    """R a(R^T n) over the (n1, n2, m) axes, R the rotation by 90 degrees:
    a'(n1, n2) = a(n2, -n1), and a vector's components (-a_y, a_x)."""
    b = np.swapaxes(a, -3, -2)[..., _neg(a.shape[-3]), :, :]
    return np.stack([-b[1], b[0]]) if vector else b


def reflect_y(a: np.ndarray, signs: tuple) -> np.ndarray:
    """a(n1, -n2), each component times its sign: (1, -1) for a velocity,
    (-1,) for a vorticity."""
    return a[..., _neg(a.shape[-2]), :] * np.reshape(signs, (-1, 1, 1, 1))


def reflect_z(a: np.ndarray) -> np.ndarray:
    """z -> 1 - z on cosine coefficients: (-1)^m."""
    return a * (-1.0) ** np.arange(a.shape[-1])


def shift(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x -> x + 1/nh: a(n) e^{-2 pi i n1 / nh}."""
    return a * np.exp(-2j * np.pi * mode_numbers(grid)[0] / grid.nh)[:, None, None]


def flat_noise(grid: GridSpec, rng, components: int) -> np.ndarray:
    """Unit amplitude and a random phase on every retained mode, made real."""
    a = np.exp(2j * np.pi * rng.random((components, *grid.shape))) * dealias_mask(grid)
    return symmetrize(a)


def _velocity(grid, rng):
    v = flat_noise(grid, rng, 2)
    v[..., 0] = leray(v[..., 0], grid)
    return v


def _vorticity(grid, rng):
    w = flat_noise(grid, rng, 1)[..., :1]
    w[0, 0, 0] = 0.0
    return w


def _lab_tendency(v, t, cfg):
    """rhs_rotating in the lab frame, criterion 3's conversion."""
    om = cfg.omega
    rs = rotating_from_direct(v, t, om)
    dvb, dvp, dvm = rhs_rotating(rs, t, cfg)
    dv = np.exp(1j * om * t) * (dvp + 1j * om * rs.vplus) + np.exp(-1j * om * t) * (dvm - 1j * om * rs.vminus)
    dv[..., 0] += dvb
    return dv


def _cfg(grid, omega):
    return SolverConfig(nu=0.1, omega=omega, grid=grid, dt=1e-3, t_end=1e-3)


def _cases(system: str, grid: GridSpec, rng) -> list:
    """(right-hand side of the mapped input, mapped right-hand side) per map
    that applies to the system; each right-hand side in the full layout."""
    t = 0.3
    if system in ("rhs_direct", "rhs_rotating"):
        def rhs(v, omega):
            cfg = _cfg(grid, omega)
            return rhs_direct(v, t, cfg) if system == "rhs_direct" else _lab_tendency(v, t, cfg)

        v, om = _velocity(grid, rng), 3.0
        n = rhs(v, om)
        return [(rhs(rotate(v, True), om), rotate(n, True)),
                (rhs(reflect_z(v), om), reflect_z(n)),
                (rhs(reflect_y(v, (1, -1)), -om), reflect_y(n, (1, -1))),
                (rhs(shift(v, grid), om), shift(n, grid))]
    if system == "transport_rhs":
        def rhs(vt, w):
            return band_unpack(transport_rhs(band_pack(vt, grid), w[0, ..., 0], grid), grid)

        vt, w = _velocity(grid, rng), _vorticity(grid, rng)
        vt[..., 0] = 0.0
        n = rhs(vt, w)
        return [(rhs(rotate(vt, True), rotate(w, False)), rotate(n, True)),
                (rhs(reflect_z(vt), w), reflect_z(n)),
                (rhs(reflect_y(vt, (1, -1)), reflect_y(w, (-1,))), reflect_y(n, (1, -1))),
                (rhs(shift(vt, grid), shift(w, grid)), shift(n, grid))]
    if system == "euler2d_rhs":
        def rhs(w):
            return euler2d_rhs(w[0, ..., 0], grid)[None, ..., None]

        w = _vorticity(grid, rng)
        n = rhs(w)
        return [(rhs(rotate(w, False)), rotate(n, False)),
                (rhs(reflect_y(w, (-1,))), reflect_y(n, (-1,))),
                (rhs(shift(w, grid)), shift(n, grid))]
    assert system == "rhs_2d"

    def rhs(u):
        return band_unpack(rhs_2d(band_pack(u, grid), grid), grid)

    def half_turn(a):  # the rotation by 90 degrees twice, which keeps the x-z plane: u(-x) -> -u
        return -a[..., _neg(grid.nh), :, :]

    u = flat_noise(grid, rng, 1)[:, :, :1]
    u[..., 0] = 0.0
    n = rhs(u)
    return [(rhs(half_turn(u)), half_turn(n)),
            (rhs(reflect_z(u)), reflect_z(n)),
            (rhs(shift(u, grid)), shift(n, grid))]


@pytest.mark.parametrize("system", ["rhs_direct", "rhs_rotating", "transport_rhs", "euler2d_rhs", "rhs_2d"])
@settings(max_examples=12, deadline=None)
@given(half_nh=st.integers(4, 8), nz=st.integers(4, 8), frac=st.sampled_from(FRACTIONS),
       seed=st.integers(0, 2**16))
def test_right_hand_side_keeps_the_discrete_symmetries(system, half_nh, nz, frac, seed):
    grid = GridSpec(nh=2 * half_nh, nz=nz, dealias_fraction=frac)
    for i, (mapped_rhs, rhs_mapped) in enumerate(_cases(system, grid, np.random.default_rng(seed))):
        scale = np.abs(rhs_mapped).max()
        assert scale > 0
        err = np.abs(mapped_rhs - rhs_mapped).max() / scale
        assert err <= BOUND, f"{system}, map {i}: {err:.3e}"
