"""On-disk formats: PESP1 spectral snapshots and the diagnostics CSV."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .grid import GridSpec


@dataclass
class DiagnosticsRow:
    """Per-accepted-step observables of a run."""

    t: float
    norm_r0tau: float
    sobolev_norm: float
    tau_tracked: float
    tau_fit_h: float
    eta_fit_v: float
    energy: float
    enstrophy_bar: float
    baroclinic_l2: float
    div_residual: float
    mean_residual: float
    termination: str = ""


CSV_FIELDS = [f.name for f in fields(DiagnosticsRow)]


def write_diagnostics_csv(path, rows) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow(
                [getattr(row, k) if k == "termination" else repr(float(getattr(row, k))) for k in CSV_FIELDS]
            )


def read_diagnostics_csv(path) -> list[DiagnosticsRow]:
    out = []
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(f"unexpected diagnostics header {reader.fieldnames}")
        for rec in reader:
            kwargs = {k: (rec[k] if k == "termination" else float(rec[k])) for k in CSV_FIELDS}
            out.append(DiagnosticsRow(**kwargs))
    return out


# ---------------------------------------------------------------------------
# PESP1 snapshots: ASCII header + little-endian float64 interleaved (re, im)
# coefficients in (component, n1, n2, m) row-major order, n1/n2 in FFT order:
# numpy's "<c16", so every bit of every coefficient reads back.
# ---------------------------------------------------------------------------

def write_snapshot(path, coeffs: np.ndarray, grid: GridSpec, t: float) -> None:
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    comps = coeffs.shape[0]
    if coeffs.shape != (comps, grid.nh, grid.nh, grid.nz):
        raise ValueError("coefficient array does not match the grid")
    header = f"PESP1 nh={grid.nh} nz={grid.nz} comps={comps} t={float(t)!r}\n"
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(coeffs.astype("<c16").tobytes())


def read_snapshot(path) -> tuple[np.ndarray, GridSpec, float]:
    """(coefficients, grid, t) of a PESP1 file.  A header without the fields
    nh, nz (a valid grid), comps (a positive integer) and t (finite), or a
    payload of the wrong length, raises ValueError naming the file and field."""
    with Path(path).open("rb") as fh:
        header = fh.readline().decode("ascii", "replace").strip()
        raw = fh.read()
    parts = header.split()
    if not parts or parts[0] != "PESP1":
        raise ValueError(f"{path}: not a PESP1 snapshot: header {header!r}")
    kv = dict(part.partition("=")[::2] for part in parts[1:])

    def field(key, kind, ok, rule):
        try:
            if ok(x := kind(kv[key])):
                return x
        except (KeyError, ValueError):
            pass
        raise ValueError(f"{path}: PESP1 header field {key!r} must be {rule}, got {kv.get(key, 'nothing')!r}")

    nh, nz, comps = (field(key, int, lambda x: x > 0, "a positive integer") for key in ("nh", "nz", "comps"))
    t = field("t", float, math.isfinite, "a finite number")
    try:
        grid = GridSpec(nh=nh, nz=nz)
    except ValueError as e:
        raise ValueError(f"{path}: PESP1 header grid: {e}") from None
    expected = comps * nh * nh * nz * 2 * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: snapshot payload has {len(raw)} bytes, expected {expected}")
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(comps, nh, nh, nz)
    return coeffs.astype(np.complex128), grid, t
