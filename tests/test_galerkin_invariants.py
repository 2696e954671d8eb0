"""The quadratic invariants of every right-hand side.

Under the 2/3 rule the pseudo-spectral product is exact on the retained
modes, so the scheme is a Galerkin truncation and keeps the continuous
system's quadratic invariants exactly (Orszag 1971; Canuto et al. 2006,
ch. 3).  For a band-limited state and its non-diffusive tendency N:

* V.(V.grad)V + V.w dz V integrates to -1/2 int |V|^2 (div V + dz w) = 0, the
  Coriolis term is orthogonal to V and so is the Leray projection: Re<V, N> = 0
  for rhs_direct, and for rhs_rotating read in the lab frame;
* Re<Vt, N> = 0 for transport_rhs, and Re<u, N> = 0 for rhs_2d;
* energy and enstrophy for euler2d_rhs: Re<psi, N> = Re<omega, N> = 0;
* the barotropic tendency is divergence-free.

These are exact identities with no reference solution, and they hold when
both formulations share a defect, which criterion 3 cannot see.  The basis
{e^{ik.x}} x {1, sqrt2 cos(m pi z)} is orthonormal, so <a, b> is the sum of
conj(a) b over the modes.  Above the 2/3 rule the scheme aliases and the
identities fail (at fraction 1 by 0.02 to 0.5 of |a| |N| on these grids),
so only the fractions 1/2 and 2/3 are drawn.  The fixture is
test_symmetries' flat band noise.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotape.grid import GridSpec, ksq
from rotape.limit_solver import euler2d_rhs, transport_rhs
from rotape.pe_solver import rhs_2d, rhs_direct, rhs_rotating, rotating_from_direct
from rotape.spectral import band_pack, band_unpack, divergence
from tests.test_symmetries import _cfg, _lab_tendency, _velocity, _vorticity, flat_noise

BOUND = 1e-13      # of |a| |N|, for each identity Re<a, N> = 0
DIV_BOUND = 1e-12  # of the largest tendency, for the divergence, which carries a factor |k|
FRACTIONS = [Fraction(1, 2), Fraction(2, 3)]
T = 0.3


def _residual(a: np.ndarray, n: np.ndarray) -> float:
    """|Re<a, N>| / (|a| |N|)."""
    scale = np.linalg.norm(a) * np.linalg.norm(n)
    assert scale > 0
    return abs(np.vdot(a, n).real) / scale


def _divergence(dvb: np.ndarray, n: np.ndarray, grid: GridSpec) -> float:
    """max |div| of the compact barotropic tendency dvb over max |N|."""
    return np.abs(divergence(dvb, grid)).max() / np.abs(n).max()


def _invariants(system: str, grid: GridSpec, rng) -> dict:
    """name -> (residual, bound) of each identity that applies to the system."""
    if system in ("rhs_direct", "rhs_rotating"):
        v, cfg = _velocity(grid, rng), _cfg(grid, 3.0)
        if system == "rhs_direct":
            n = rhs_direct(v, T, cfg)
            dvb = n[..., 0]
        else:
            n = _lab_tendency(v, T, cfg)
            dvb = rhs_rotating(rotating_from_direct(v, T, cfg.omega), T, cfg)[0]
        return {"energy": (_residual(v, n), BOUND), "divergence": (_divergence(dvb, n, grid), DIV_BOUND)}
    if system == "transport_rhs":
        vt, w = _velocity(grid, rng), _vorticity(grid, rng)[0, ..., 0]
        vt[..., 0] = 0.0
        n = band_unpack(transport_rhs(band_pack(vt, grid), w, grid), grid)
        return {"energy": (_residual(vt, n), BOUND)}
    if system == "euler2d_rhs":
        w = _vorticity(grid, rng)[0, ..., 0]
        n = euler2d_rhs(w, grid)
        k2 = ksq(grid)[..., 0]
        psi = np.where(k2 > 0.0, w / np.where(k2 > 0.0, k2, 1.0), 0.0)
        return {"energy": (_residual(psi, n), BOUND), "enstrophy": (_residual(w, n), BOUND)}
    assert system == "rhs_2d"
    u = flat_noise(grid, rng, 1)[:, :, :1]
    u[..., 0] = 0.0
    n = band_unpack(rhs_2d(band_pack(u, grid), grid), grid)
    return {"energy": (_residual(u, n), BOUND)}


@pytest.mark.parametrize("system", ["rhs_direct", "rhs_rotating", "transport_rhs", "euler2d_rhs", "rhs_2d"])
@settings(max_examples=12, deadline=None)
@given(half_nh=st.integers(4, 8), nz=st.integers(4, 8), frac=st.sampled_from(FRACTIONS),
       seed=st.integers(0, 2**16))
def test_right_hand_side_keeps_the_quadratic_invariants(system, half_nh, nz, frac, seed):
    grid = GridSpec(nh=2 * half_nh, nz=nz, dealias_fraction=frac)
    for name, (residual, bound) in _invariants(system, grid, np.random.default_rng(seed)).items():
        assert residual <= bound, f"{system}, {name}: {residual:.3e}"
