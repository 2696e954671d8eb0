"""PESP1 snapshots and diagnostics CSV round trips."""

import numpy as np
import pytest

from rotape.grid import GridSpec
from rotape.initial_data import random_vector
from rotape.io import (
    CSV_FIELDS,
    DiagnosticsRow,
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_snapshot,
)


class TestSnapshot:
    def test_round_trip(self, tmp_path, grid16, rng):
        f = random_vector(grid16, rng)
        path = tmp_path / "state.pesp1"
        write_snapshot(path, f.coeffs, grid16, t=0.625)
        coeffs, grid, t = read_snapshot(path)
        assert grid.nh == grid16.nh and grid.nz == grid16.nz
        assert t == 0.625
        assert np.array_equal(coeffs, f.coeffs)

    def test_round_trip_of_a_numpy_scalar_time(self, tmp_path, grid16, rng):
        """A numpy float time is written as the float it holds, so the file reloads."""
        f = random_vector(grid16, rng)
        path = tmp_path / "state.pesp1"
        write_snapshot(path, f.coeffs, grid16, np.float64(0.5))
        assert path.open("rb").readline().decode("ascii") == "PESP1 nh=16 nz=8 comps=2 t=0.5\n"
        _, _, t = read_snapshot(path)
        assert t == 0.5

    def test_header_format(self, tmp_path, grid16, rng):
        f = random_vector(grid16, rng)
        path = tmp_path / "state.pesp1"
        write_snapshot(path, f.coeffs, grid16, t=1.5)
        first = path.open("rb").readline().decode("ascii")
        assert first == "PESP1 nh=16 nz=8 comps=2 t=1.5\n"

    def test_payload_layout(self, tmp_path, grid16):
        # single nonzero coefficient lands at the row-major interleaved offset
        coeffs = np.zeros((1, *grid16.shape), dtype=np.complex128)
        coeffs[0, 2, 3, 4] = 1.0 + 2.0j
        path = tmp_path / "one.pesp1"
        write_snapshot(path, coeffs, grid16, t=0.0)
        with path.open("rb") as fh:
            fh.readline()
            raw = np.frombuffer(fh.read(), dtype="<f8")
        flat_index = ((2 * grid16.nh + 3) * grid16.nz + 4) * 2
        assert raw[flat_index] == 1.0
        assert raw[flat_index + 1] == 2.0
        assert np.count_nonzero(raw) == 2

    def test_round_trip_is_bit_for_bit(self, tmp_path):
        """Every bit of every coefficient reads back, without a warning: signed
        zeros, infinities, NaN and subnormals in either part, in all pairs."""
        import warnings

        grid = GridSpec(nh=4, nz=2)
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.0])
        pairs = np.stack(np.meshgrid(specials, specials, indexing="ij"), axis=-1)
        coeffs = np.ascontiguousarray(pairs).view(np.complex128).reshape(2, *grid.shape)
        path = tmp_path / "special.pesp1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_snapshot(path, coeffs, grid, t=0.0)
            back, _, _ = read_snapshot(path)
        assert back.dtype == np.complex128 and back.shape == coeffs.shape
        assert back.tobytes() == coeffs.tobytes()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"NOTPESP nh=4\n")
        with pytest.raises(ValueError, match="PESP1"):
            read_snapshot(p)

    @pytest.mark.parametrize("header, field", [
        (b"PESP1 nh=16 nz=8 t=0.0", "comps"),
        (b"PESP1 nh=16 nz=8 comps t=0.0", "comps"),
        (b"PESP1 nh=16 nz=8 comps=-1 t=0.0", "comps"),
        (b"PESP1 nh=16 nz=8 comps=two t=0.0", "comps"),
        (b"PESP1 nh=16 comps=2 t=0.0", "nz"),
        (b"PESP1 nh=3 nz=8 comps=2 t=0.0", "nh"),
        (b"PESP1 nh=16 nz=8 comps=2 t=nan", "t"),
    ])
    def test_malformed_header_names_the_file_and_field(self, tmp_path, header, field):
        """Each header field is validated where it is read: a ValueError that
        names the file and the field, not a KeyError or a negative byte count."""
        path = tmp_path / "bad.pesp1"
        path.write_bytes(header + b"\n" + bytes(16 * 16 * 8 * 16))
        with pytest.raises(ValueError) as err:
            read_snapshot(path)
        assert str(path) in str(err.value) and field in str(err.value)

    def test_truncated_payload_rejected(self, tmp_path, grid16, rng):
        f = random_vector(grid16, rng)
        path = tmp_path / "state.pesp1"
        write_snapshot(path, f.coeffs, grid16, t=0.0)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)


class TestDiagnosticsCsv:
    def test_header_names(self):
        assert CSV_FIELDS == [
            "t", "norm_r0tau", "sobolev_norm", "tau_tracked", "tau_fit_h", "eta_fit_v",
            "energy", "enstrophy_bar", "baroclinic_l2", "div_residual", "mean_residual",
            "termination",
        ]

    def test_round_trip(self, tmp_path):
        rows = [
            DiagnosticsRow(0.0, 1.0, 2.0, 0.5, 0.4, 0.01, 3.0, 4.0, 0.5, 1e-13, 1e-15),
            DiagnosticsRow(0.1, 1.1, 2.1, 0.45, float("nan"), 0.02, 2.9, 4.1, 0.55, 1e-13, 1e-15, "completed"),
        ]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, rows)
        back = read_diagnostics_csv(path)
        assert len(back) == 2
        assert back[0].t == 0.0
        assert back[1].termination == "completed"
        assert np.isnan(back[1].tau_fit_h)
        assert back[1].norm_r0tau == 1.1

    def test_deterministic_bytes(self, tmp_path):
        rows = [DiagnosticsRow(0.1 * i, 1.0 / 3 + i, 2.0, 0.5, 0.4, 0.01, 3.0, 4.0, 0.5, 0.0, 0.0) for i in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagnostics_csv(p1, rows)
        write_diagnostics_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_floats_written_as_floats(self, tmp_path):
        """numpy float fields give the bytes of the Python floats they hold."""
        values = (0.25, 1.0 / 3, 2.0, 0.5, float("nan"), 0.01, 3.0, 4.0, 0.5, 1e-13, 0.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagnostics_csv(p1, [DiagnosticsRow(*values)])
        write_diagnostics_csv(p2, [DiagnosticsRow(*map(np.float64, values))])
        assert p1.read_bytes() == p2.read_bytes()
        assert read_diagnostics_csv(p2)[0].norm_r0tau == 1.0 / 3
