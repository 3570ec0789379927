"""SVG figure emission and the binary matrix file format."""

import struct
from xml.dom import minidom

import numpy as np
import pytest

from covlab import SummaryRow, UsageError, dump_matrix, emit_svg, load_matrix


def _row(kernel="se", lam=0.05, mean=0.8, ci=0.1, N=15, trials=5):
    return SummaryRow(
        kernel=kernel, lam=lam, N=N, trials=trials,
        mean_sample=mean, ci_sample=ci,
        mean_taper=mean / 2, ci_taper=ci,
        mean_thresh=mean / 4, ci_thresh=ci,
    )


class TestSvg:
    def test_one_wellformed_file_per_kernel(self, tmp_path):
        rows = [
            _row("se", 0.05), _row("se", 0.2),
            _row("matern", 0.05), _row("matern", 0.2),
        ]
        written = emit_svg(rows, tmp_path)
        assert [p.rsplit("/", 1)[-1] for p in written] == ["se.svg", "matern.svg"]
        for p in written:
            doc = minidom.parse(p)
            assert doc.documentElement.tagName == "svg"

    def test_series_and_legend_content(self, tmp_path):
        (path,) = emit_svg([_row(lam=0.05), _row(lam=0.2)], tmp_path)
        text = open(path).read()
        assert text.count("<polyline") == 4  # three error series plus N
        for label in ("sample", "taper", "threshold", "N (right axis)"):
            assert label in text
        assert "relative error" in text and "lengthscale" in text

    def test_single_point_draws_markers_not_lines(self, tmp_path):
        (path,) = emit_svg([_row()], tmp_path)
        text = open(path).read()
        assert "<polyline" not in text
        assert "<circle" in text

    def test_missing_interval_omits_whiskers(self, tmp_path):
        row = SummaryRow(
            kernel="se", lam=0.05, N=15, trials=1,
            mean_sample=0.8, ci_sample=None,
            mean_taper=0.4, ci_taper=None,
            mean_thresh=0.2, ci_thresh=None,
        )
        with_ci = open(emit_svg([_row()], tmp_path / "a")[0]).read()
        without = open(emit_svg([row], tmp_path / "b")[0]).read()
        assert without.count("<line") < with_ci.count("<line")

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            emit_svg([], tmp_path)

    def test_all_zero_errors_rejected(self, tmp_path):
        row = SummaryRow(
            kernel="se", lam=0.05, N=15, trials=1,
            mean_sample=0.0, ci_sample=None,
            mean_taper=0.0, ci_taper=None,
            mean_thresh=0.0, ci_thresh=None,
        )
        with pytest.raises(UsageError):
            emit_svg([row], tmp_path)

    def test_deterministic_output(self, tmp_path):
        rows = [_row(lam=0.05), _row(lam=0.2)]
        a = open(emit_svg(rows, tmp_path / "a")[0]).read()
        b = open(emit_svg(rows, tmp_path / "b")[0]).read()
        assert a == b


class TestMatrixFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((17, 17))
        m[0, 0] = -0.0
        m[1, 1] = np.pi
        path = tmp_path / "m.covm"
        dump_matrix(m, path)
        back = load_matrix(path)
        assert back.tobytes() == m.tobytes()
        assert back.shape == (17, 17)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.covm"
        dump_matrix(np.eye(3), path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 8 * 9
        assert raw[:4] == b"COVM"
        assert struct.unpack("<I", raw[4:8])[0] == 3
        assert raw[8:16] == b"\x00" * 8

    def test_fortran_ordered_input_round_trips(self, tmp_path):
        m = np.asfortranarray(np.arange(9.0).reshape(3, 3))
        path = tmp_path / "m.covm"
        dump_matrix(m, path)
        assert np.array_equal(load_matrix(path), m)

    def test_rejects_nonsquare(self, tmp_path):
        with pytest.raises(UsageError):
            dump_matrix(np.zeros((2, 3)), tmp_path / "m.covm")

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(UsageError):
            dump_matrix(np.zeros((0, 0)), tmp_path / "m.covm")

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.covm"
        dump_matrix(np.eye(2), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(UsageError):
            load_matrix(path)

    def test_rejects_nonzero_reserved_field(self, tmp_path):
        path = tmp_path / "m.covm"
        dump_matrix(np.eye(2), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(UsageError):
            load_matrix(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "m.covm"
        dump_matrix(np.eye(4), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(UsageError):
            load_matrix(path)
        path.write_bytes(raw[:10])
        with pytest.raises(UsageError):
            load_matrix(path)
