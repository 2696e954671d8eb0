"""spectral calls scipy's compiled pocketfft extension directly, not through
scipy.fft.  These tests pin each call shape it makes against the public
scipy.fft function that it replaces, bit for bit, so that a scipy release
that changes the extension's private signature or semantics fails here.
(test_band_transforms.py keeps public scipy.fft as its independent oracle.)
"""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from rotape import spectral

pfft = spectral._pfft

SHAPES = [(1, 17, 17, 9), (6, 24, 13, 12), (2, 32, 32, 32)]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _strided(a, axis):
    """A strided view of a: every other index of the axis that is not transformed."""
    return a[..., ::2, :] if axis == -3 else a[..., ::2, :, :]


def _same_in_place(private, public, operand, x):
    """private(a) on a copy a of x transforms the view operand(a) in place,
    to the bits of public(operand(x)), and leaves the rest of a as it was."""
    a = x.copy()
    got, want = private(a), public(operand(x))
    expected = x.copy()
    operand(expected)[...] = want
    assert np.array_equal(got, want) and np.array_equal(a, expected)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("axis", [-2, -3])
@pytest.mark.parametrize("forward", [True, False])
def test_c2c_in_place_on_strided_views(shape, axis, forward):
    def operand(a):
        return _strided(a, axis)

    def private(a):
        v = operand(a)
        assert pfft.c2c(v, (axis,), forward, 0, v, 1) is v
        return v

    def public(v):
        if forward:
            return sfft.fft(v.copy(), axis=axis, workers=1)
        return sfft.ifft(v.copy(), axis=axis, norm="forward", workers=1)

    _same_in_place(private, public, operand, _complex(np.random.default_rng(1), shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_first_forward_pass(shape):
    rng = np.random.default_rng(2)
    x, z = rng.standard_normal(shape), _complex(rng, shape)
    assert np.array_equal(pfft.r2c(x, (-2,), True, 0, None, 1), sfft.rfft(x, axis=-2, workers=1))
    assert np.array_equal(pfft.c2c(z, (-2,), True, 0, None, 1), sfft.fft(z, axis=-2, workers=1))


@pytest.mark.parametrize("shape", SHAPES)
def test_real_inverse_pass(shape):
    n = shape[-2]
    half = _complex(np.random.default_rng(3), shape[:-2] + (n // 2 + 1, shape[-1]))
    got = pfft.c2r(half, (-2,), n, False, 0, None, 1)
    assert np.array_equal(got, sfft.irfft(half, n=n, axis=-2, norm="forward", workers=1))


@pytest.mark.parametrize("shape", SHAPES)
def test_barotropic_pair(shape):
    """rfft2/irfft2 over the last two axes, as barotropic_coeffs/_values call them."""
    n1, n2 = shape[-2:]
    rng = np.random.default_rng(4)
    vals, coeffs = rng.standard_normal(shape), _complex(rng, shape)
    got = pfft.r2c(vals, (-2, -1), True, 2, None, 1)
    assert np.array_equal(got, sfft.rfft2(vals, axes=(-2, -1), norm="forward"))
    got = pfft.c2r(coeffs[..., : n2 // 2 + 1], (-2, -1), n2, False, 0, None, 1)
    assert np.array_equal(got, sfft.irfft2(coeffs, s=(n1, n2), axes=(-2, -1), norm="forward"))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["dct", "dst"])
@pytest.mark.parametrize("type", [2, 3])
@pytest.mark.parametrize("interleaved", [False, True])
def test_r2r_in_place(shape, kind, type, interleaved):
    """DCT/DST-II and -III along the last axis of a real array, or along the
    next-to-last of the interleaved float view of a complex one (a strided
    view, as in the forward transform's box)."""
    private_kernel, public_kernel = getattr(pfft, kind), getattr(sfft, kind)
    axis = -2 if interleaved else -1

    def operand(a):
        if not interleaved:
            return a
        return a[..., 1:, :].view(np.float64).reshape(a[..., 1:, :].shape + (2,))

    def private(a):
        v = operand(a)
        assert private_kernel(v, type, (axis,), 0, v, 1) is v
        return v

    def public(v):
        return public_kernel(v.copy(), type=type, axis=axis, workers=1)

    rng = np.random.default_rng(6)
    x = _complex(rng, shape) if interleaved else rng.standard_normal(shape)
    _same_in_place(private, public, operand, x)


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_spectral_imports_no_scipy_fft():
    """rotape loads the pocketfft extension alone: no module of scipy.fft's
    Python layer, and no scipy.special.  A later `import scipy.fft` works
    and shares that one extension instance."""
    _run(
        "import sys\n"
        "import rotape.cli, rotape.scenarios\n"
        "from rotape import spectral\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert loaded == ['scipy.fft._pocketfft.pypocketfft'], loaded\n"
        "import scipy.fft\n"
        "from scipy.fft._pocketfft import pypocketfft\n"
        "assert pypocketfft is spectral._pfft and scipy.fft._pocketfft.basic.pfft is spectral._pfft\n"
    )


def test_spectral_reuses_an_imported_scipy_fft():
    _run(
        "import scipy.fft\n"
        "from rotape import spectral\n"
        "assert spectral._pfft is scipy.fft._pocketfft.basic.pfft\n"
    )


def test_missing_extension_names_the_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.fft._pocketfft.pypocketfft")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    where = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "fft" / "_pocketfft"
    with pytest.raises(ImportError, match=f"not found in {re.escape(str(where))}$"):
        spectral._load_pocketfft()
