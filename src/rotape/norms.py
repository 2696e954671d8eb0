"""Analytic-Sobolev norm family and empirical radius-of-analyticity fits.

The (r, s, tau) norm is the literal displayed sum

    ||V||_{r,s,tau} = sum_{m'<=s} sqrt( ||A^r e^{tau A} dz^m' V||^2 + ||dz^m' V||^2 ),

evaluated coefficient-wise (Parseval).  The four-parameter variant adds the
vertical weight e^{2 eta |k3|}, |k3| = m pi, on the even-extended field:

    ||V||^2_{r,s,tau,eta} = sum (1 + (|k|^{2r} + (m pi)^{2s}) e^{2 tau |k|} e^{2 eta m pi}) |a|^2.

Every weight of these norms depends on (n1, n2) only through the integer
q = n1^2 + n2^2, and the radius fits average over groups of q (the
horizontal shell of q is isqrt(q) = floor|n|).  So every norm and fit
reduces one power table

    P[q, m] = sum_c sum_{n1^2 + n2^2 = q} |a_c(n1, n2, m)|^2,

a `ShellPower`, built with one bincount over a flat (q, m) index cached per
grid, from the 3-D layout, the compact barotropic one or the x-z plane of
the 2D reduced mode.  `norm_rst`, `norm_rst_eta`, `seminorm_a_sq`,
`dz_l2_sq` and `fit_radius` take a `ShellPower` or a `SpectralField`; a
field is turned into its table first.  A caller that evaluates several
norms of one field (the solvers' per-step diagnostics and radius trackers,
3-D and 2D) builds the table once, and each further norm costs O(#q)
instead of O(nh^2 nz).  The lemma checker bins its per-z profiles by the
same q (`q_table`, `q_weight`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, a_exp_weight, dealias_mask, kabs, mode_numbers, mpi
from .spectral import SpectralField


@dataclass(frozen=True)
class NormSpec:
    """Selects a norm: horizontal order r, vertical order s, radii tau and eta."""

    r: float
    s: int = 0
    tau: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        # written as "not >= 0" so that a NaN parameter is rejected too
        if not all(x >= 0 for x in (self.r, self.s, self.tau, self.eta)):
            raise ValueError(f"norm parameters must be nonnegative numbers: {self}")
        if self.s > 2:
            raise ValueError("s <= 2 is the highest vertical order used here")


# ---------------------------------------------------------------------------
# the shell-power table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mode_shells(grid: GridSpec) -> np.ndarray:
    """Horizontal shell isqrt(n1^2 + n2^2) = floor|n| of each (n1, n2), exact in integers."""
    n1, n2, _ = mode_numbers(grid)
    q = n1[:, None] ** 2 + n2[None, :] ** 2
    return np.vectorize(math.isqrt, otypes=[int])(q)


@dataclass(frozen=True)
class _Bins:
    """The q = n1^2 + n2^2 binning of one grid's modes."""

    of_mode: np.ndarray     # bin of each (n1, n2), flattened
    flat: np.ndarray        # bin * nz + m of each (n1, n2, m), flattened
    k: np.ndarray           # |k| of each bin, as kabs gives it for the bin's first mode
    shell: np.ndarray       # shell isqrt(q) of each bin, as a position in shell_k
    shell_k: np.ndarray     # mean |k| over the counted modes of each shell, zero shell first
    shell_count: np.ndarray  # counted modes (n1, n2) per shell


@lru_cache(maxsize=None)
def _bins(grid: GridSpec) -> _Bins:
    """The q bins and shells of a grid.  A shell counts, and averages |k| over,
    its modes inside the 2/3-rule band: the solver keeps every other mode at
    zero, so counting them would make the shells that straddle the band edge
    read low.  A shell with no mode inside the band counts all of its modes."""
    n1, n2, _ = mode_numbers(grid)
    q = (n1[:, None] ** 2 + n2[None, :] ** 2).ravel()
    _, first, of_mode = np.unique(q, return_index=True, return_inverse=True)
    flat = (of_mode[:, None] * grid.nz + np.arange(grid.nz)).ravel()
    _, shell_of_mode = np.unique(_mode_shells(grid).ravel(), return_inverse=True)
    in_band = dealias_mask(grid)[:, :, 0].ravel()
    counted = in_band | (np.bincount(shell_of_mode, weights=in_band) == 0)[shell_of_mode]
    count = np.bincount(shell_of_mode, weights=counted)
    shell_k = np.bincount(shell_of_mode, weights=kabs(grid).ravel() * counted) / count
    k = kabs(grid).ravel()[first]
    return _Bins(of_mode, flat, k, shell_of_mode[first], shell_k, count)


@lru_cache(maxsize=None)
def _mpi_pow(grid: GridSpec, s_order: int) -> np.ndarray:
    """(m pi)^{2 s_order} for m = 0 .. nz-1."""
    return mpi(grid)[0, 0] ** (2 * s_order)


@dataclass(frozen=True)
class ShellPower:
    """P[q, m] = sum over components and over n1^2 + n2^2 = q of |a(n1, n2, m)|^2.

    `table` has one row per q present on the grid (ascending) and one column
    per vertical mode m.  Build it with `ShellPower.of`.
    """

    grid: GridSpec
    table: np.ndarray

    @classmethod
    def of(cls, coeffs: np.ndarray, grid: GridSpec) -> "ShellPower":
        """The table of (components, nh, nh, nz) coefficients, of the compact
        barotropic (components, nh, nh) layout, whose power sits at m = 0, or
        of the x-z layout (components, nh, 1, nz), the n2 = 0 column of the
        3-D one (the 2D reduced mode)."""
        bins = _bins(grid)
        a2 = np.square(coeffs[0].real)
        a2 += np.square(coeffs[0].imag)
        for c in coeffs[1:]:
            a2 += np.square(c.real)
            a2 += np.square(c.imag)
        nbins = len(bins.k)
        if a2.ndim == 2:
            table = np.zeros((nbins, grid.nz))
            table[:, 0] = np.bincount(bins.of_mode, weights=a2.ravel(), minlength=nbins)
        else:
            # the n2 columns present: all of them, or n2 = 0 alone in the x-z layout
            flat = bins.flat.reshape(grid.nh, grid.nh, grid.nz)[:, : a2.shape[1]].ravel()
            table = np.bincount(flat, weights=a2.ravel(), minlength=nbins * grid.nz)
            table = table.reshape(nbins, grid.nz)
        return cls(grid, table)

    def dz(self) -> "ShellPower":
        """The table of the z-derivative: (m pi)^2 P[q, m]."""
        return ShellPower(self.grid, self.table * _mpi_pow(self.grid, 1))

    def column(self, s_order: int = 0) -> np.ndarray:
        """sum_m (m pi)^{2 s_order} P[q, m], one entry per q."""
        return self.table.sum(axis=1) if s_order == 0 else self.table @ _mpi_pow(self.grid, s_order)


def q_table(a2: np.ndarray, grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Rows of per-mode power summed into the q bins of a ShellPower table.

    a2 holds one row per listed (n1, n2) mode, `modes` being their flat
    indices into the (nh, nh) plane, and any number of columns; a q with no
    listed mode gets a zero row.
    """
    bins = _bins(grid)
    ncol = a2.shape[-1]
    flat = (bins.of_mode[modes][:, None] * ncol + np.arange(ncol)).ravel()
    table = np.bincount(flat, weights=a2.ravel(), minlength=len(bins.k) * ncol)
    return table.reshape(len(bins.k), ncol)


def q_weight(grid: GridSpec, r: float, tau: float) -> np.ndarray:
    """|k|^{2r} e^{2 tau |k|} per q bin, the rows of a ShellPower table."""
    return a_exp_weight(_bins(grid).k, 2.0 * r, 2.0 * tau)


def _power(v: ShellPower | SpectralField) -> ShellPower:
    return v if isinstance(v, ShellPower) else ShellPower.of(v.coeffs, v.grid)


def seminorm_a_sq(v: ShellPower | SpectralField, r: float, tau: float, s_order: int = 0) -> float:
    """||A^r e^{tau A} dz^{s_order} V||^2 via coefficient sums."""
    p = _power(v)
    return float(p.column(s_order) @ q_weight(p.grid, r, tau))


def dz_l2_sq(v: ShellPower | SpectralField, s_order: int = 0) -> float:
    """||dz^{s_order} V||^2."""
    return float(_power(v).column(s_order).sum())


def norm_rst(v: ShellPower | SpectralField, spec: NormSpec) -> float:
    """The (r, s, tau) analytic-Sobolev norm (eta must be 0)."""
    if spec.eta != 0.0:
        raise ValueError("norm_rst is the eta=0 norm; use norm_rst_eta")
    p = _power(v)
    total = 0.0
    for m in range(spec.s + 1):
        total += np.sqrt(seminorm_a_sq(p, spec.r, spec.tau, m) + dz_l2_sq(p, m))
    return float(total)


def norm_rst_eta(v: ShellPower | SpectralField, spec: NormSpec) -> float:
    """The four-parameter norm with vertical analyticity weight e^{eta A_z}.

    Its weight splits into factors per q and per m, each the squared
    A^r e^{tau A} weight of one direction, so SpectralRangeError is raised as
    soon as one factor overflows."""
    p = _power(v)
    k = _bins(p.grid).k
    m = mpi(p.grid)[0, 0]
    r, s, tau, eta = 2.0 * spec.r, 2.0 * spec.s, 2.0 * spec.tau, 2.0 * spec.eta
    total = (
        p.table.sum()
        + a_exp_weight(k, r, tau) @ p.table @ a_exp_weight(m, 0.0, eta)
        + a_exp_weight(k, 0.0, tau) @ p.table @ a_exp_weight(m, s, eta)
    )
    return float(np.sqrt(total))


class InsufficientDecayData(ValueError):
    """Fewer than 4 spectral shells above the fit floor."""


def _shell_stats(v: ShellPower | SpectralField, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-shell (wavenumber, amplitude); shells indexed by isqrt(q) = floor|n|
    (horizontal) or the vertical line m.  The zero shell carries no decay
    information and is dropped.  Amplitudes are root-mean-square over a
    shell's counted (n1, n2, m) entries (its in-band modes, `_bins`)."""
    g = v.grid
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    bins = _bins(g)
    p = _power(v)
    if axis == "vertical":
        return np.pi * np.arange(1, g.nz), np.sqrt(p.table[:, 1:].sum(axis=0) / g.nh**2)
    total = np.bincount(bins.shell, weights=p.column(0), minlength=len(bins.shell_k))
    return bins.shell_k[1:], np.sqrt(total[1:] / (bins.shell_count[1:] * g.nz))


# a radius fit reads only the shells whose amplitude exceeds this absolute floor
FIT_FLOOR = 1e-14


def fit_radius(v: ShellPower | SpectralField, axis: str = "horizontal") -> float:
    """Least-squares decay rate of ln(shell amplitude) vs shell wavenumber.

    Returns -slope clipped at 0: the empirical radius-of-analyticity proxy.
    Raises InsufficientDecayData when fewer than 4 shells exceed FIT_FLOOR.
    """
    ks, amps = _shell_stats(v, axis)
    keep = amps > FIT_FLOOR
    if keep.sum() < 4:
        raise InsufficientDecayData(
            f"insufficient decay data: {int(keep.sum())} usable {axis} shells above floor {FIT_FLOOR:g}"
        )
    x = ks[keep]
    y = np.log(amps[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(max(-slope, 0.0))
