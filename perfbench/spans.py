"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function of rotape with a
wrapper that records a span (name, start, end, parent) and restores the
originals on `uninstall()`.  A function is replaced in *every* rotape module
that holds it, because modules import names directly
(e.g. `values_from_coeffs` lives in spectral, pe_solver and limit_solver).
The bare `np.fft` calls of pe_solver and limit_solver are caught by giving
those two modules a numpy proxy whose `fft` transforms are wrapped.

Nothing under src/ is touched; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from rotape import grid as rgrid
from rotape import initial_data, io, lemmas, limit_solver, norms, pe_solver, spectral, theory

# (owner, attribute, span name).  The owner is a module or a class.
TRACED = [
    (spectral, "values_from_coeffs", "spectral.values_from_coeffs"),
    (spectral, "coeffs_from_values", "spectral.coeffs_from_values"),
    (spectral, "product", "spectral.product"),
    (pe_solver, "rhs_rotating", "pe_solver.rhs_rotating"),
    (pe_solver, "rhs_direct", "pe_solver.rhs_direct"),
    (pe_solver, "cfl_limit", "pe_solver.cfl_limit"),
    (pe_solver, "integrate", "pe_solver.integrate"),
    (limit_solver, "step_limit", "limit_solver.step_limit"),
    (limit_solver, "euler2d_rhs", "limit_solver.euler2d_rhs"),
    (limit_solver, "transport_rhs", "limit_solver.transport_rhs"),
    (norms, "norm_rst", "norms.norm_rst"),
    (norms, "fit_radius", "norms.fit_radius"),
    (theory.TauTracker, "step", "theory.TauTracker.step"),
    (theory, "perturbation_diagnostics", "theory.perturbation_diagnostics"),
    (lemmas, "check", "lemmas.check"),
    (initial_data, "random_vector", "initial_data.random_vector"),
    (io, "write_snapshot", "io.write_snapshot"),
    (io, "write_diagnostics_csv", "io.write_diagnostics_csv"),
]
FFT_MODULES = (pe_solver, limit_solver)
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2")
TRANSFORMS = ("spectral.values_from_coeffs", "spectral.coeffs_from_values")
FIT_ERRORS = (norms.InsufficientDecayData, spectral.SpectralRangeError)
FILE_WRITERS = ("io.write_snapshot", "io.write_diagnostics_csv")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0      # time covered by direct children
    nbytes: int = 0           # computed bytes (transforms) or bytes written (io)
    failed: bool = False


class _FftProxy:
    def __init__(self, wrapped: dict):
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(np.fft, name)


class _NumpyProxy:
    def __init__(self, fft):
        self.fft = fft

    def __getattr__(self, name):
        return getattr(np, name)


def _rotape_modules():
    return [m for n, m in list(sys.modules.items()) if n == "rotape" or n.startswith("rotape.")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- span recording ----------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except FIT_ERRORS:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if name in TRANSFORMS:
                span.nbytes = args[0].nbytes + out.nbytes
            elif name in FILE_WRITERS:
                span.nbytes = os.path.getsize(args[0])
            return out

        return wrapper

    # -- patching ----------------------------------------------------------
    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = _rotape_modules()
        for owner, attr, name in TRACED:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._replace(mod, key, wrapped)
        fft = _FftProxy({f: self._wrap("numpy_fft", getattr(np.fft, f)) for f in FFT_FUNCS})
        for mod in FFT_MODULES:
            self._replace(mod, "np", _NumpyProxy(fft))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- per-unit summaries --------------------------------------------------
    def summarize(self, first: int, ops: int) -> dict:
        """Per-unit figures over spans[first:]; `ops` is the unit's operation count."""
        by: dict[str, list[Span]] = {}
        for s in self.spans[first:]:
            by.setdefault(s.name, []).append(s)

        def durs(name):
            return [1e3 * (s.end - s.start) for s in by.get(name, [])]

        out = {}
        for name in {n for _, _, n in TRACED} | {"numpy_fft"}:
            d = durs(name)
            out[f"{name}.calls"] = len(d)
            out[f"{name}.ms_total"] = float(sum(d))
            out[f"{name}.durations"] = d
            out[f"{name}.failed"] = sum(s.failed for s in by.get(name, []))
            out[f"{name}.bytes"] = sum(s.nbytes for s in by.get(name, []))
        for name in TRANSFORMS:
            out[f"{name}.calls_per_step"] = out[f"{name}.calls"] / ops
        out["spectral.bytes_computed"] = sum(out[f"{n}.bytes"] for n in TRANSFORMS)
        integ = by.get("pe_solver.integrate", [])
        out["pe_solver.integrate.self_ms_sum"] = 1e3 * sum(s.end - s.start - s.child_s for s in integ)
        return out


def grid_cache_totals() -> tuple[int, int]:
    """(hits, misses) summed over the lru_cache'd functions of rotape.grid."""
    hits = misses = 0
    for val in vars(rgrid).values():
        info = getattr(val, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses
