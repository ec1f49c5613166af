import codecs
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.dom.minidom
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qspectra import (
    FLUX_QUANTUM,
    HBAR,
    ModelKind,
    ModelParams,
    add_measurement_noise,
    compute_spectrum,
    make_frequency_grid,
    stlr_amplitude,
)
from qspectra import cli
from qspectra import io as qio
from qspectra.cli import main
from qspectra import _numtext
from qspectra._numtext import (
    _BLOCK_ROWS,
    _fixed,
    _scientific,
    parse_scientific,
    table_blocks,
)
from qspectra.estimate import estimate_report
from qspectra.io import (
    SCHEMA_VERSION,
    _write_csv,
    load_report,
    read_spectrum_csv,
    report_json_text,
    squid_json_text,
    write_spectrum_csv,
    write_wavefunction_csv,
)
from qspectra.params import Spectrum
from qspectra.squid import (
    CircuitSpec,
    matched_critical_current,
    potential,
    qubit_truncation_check,
    reference_circuit,
    solve_eigensystem,
)
from qspectra.svg import Panel, Series, _limits, write_chart

from conftest import GAMMA_C


FIG3_ARGS = [
    "spectrum", "--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
    "--g-q", "1e8", "--gamma-c", "3.3e7", "--grid", "1.8e9:2.3e9:4001",
]


class TestSpectrumCsv:
    def test_round_trip_with_amplitude(self, qnmr_spectrum, tmp_path):
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, qnmr_spectrum, config={"model": "qubit-qnmr"})
        loaded, config = read_spectrum_csv(path)
        assert config == {"model": "qubit-qnmr"}
        assert np.allclose(loaded.freqs, qnmr_spectrum.freqs, rtol=1e-8)
        assert np.allclose(loaded.transmission, qnmr_spectrum.transmission,
                           rtol=0, atol=1e-7)
        assert loaded.amplitude is not None

    def test_noisy_round_trip_drops_amplitude(self, qnmr_spectrum, tmp_path):
        noisy = add_measurement_noise(qnmr_spectrum, 0.02, 5)
        path = tmp_path / "n.csv"
        write_spectrum_csv(path, noisy)
        loaded, _ = read_spectrum_csv(path)
        assert loaded.amplitude is None
        assert np.allclose(loaded.transmission, noisy.transmission, atol=1e-7)

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,T\n1,0.5\n")
        with pytest.raises(ValueError, match="phase_rad"):
            read_spectrum_csv(bad)

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no data"):
            read_spectrum_csv(empty)

    @pytest.mark.parametrize("kind, fixture", [
        (ModelKind.QUBIT_QNMR, "qnmr_params"),
        (ModelKind.STLR_QUBIT, "stlr_params"),
        (ModelKind.STLR_QUBIT_QNMR, "stlr_qnmr_params"),
        (ModelKind.STLR_QUBIT_CNMR, "stlr_cnmr_params"),
    ])
    def test_fine_grid_round_trip(self, kind, fixture, request, tmp_path):
        # at 100001 points some amplitudes rounded to 9 digits have
        # |t|**2 a few 1e-10 above 1; the reader must still accept them
        params = request.getfixturevalue(fixture)
        spectrum = compute_spectrum(kind, params, make_frequency_grid(1.8e9, 2.3e9, 100001))
        path = tmp_path / "fine.csv"
        write_spectrum_csv(path, spectrum)
        loaded, _ = read_spectrum_csv(path)
        assert loaded.amplitude is not None
        assert np.all(np.abs(loaded.amplitude) <= 1.0)
        assert np.allclose(loaded.transmission, spectrum.transmission, rtol=0, atol=1e-8)

    def test_amplitude_above_one_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,T,phase_rad,re_t,im_t\n1,1,0,1.5,0\n2,1,0,1,0\n")
        with pytest.raises(ValueError, match="above 1"):
            read_spectrum_csv(bad)

    def test_duplicate_column_rejected(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("omega,T,phase_rad,T\n1,0.5,0,0.25\n2,0.5,0,0.25\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: duplicate column 'T'")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2

    def test_transmission_contradicting_amplitude_rejected(self, tmp_path):
        # T may differ from |re_t + i im_t|**2 by the rounding of 9 digits,
        # within the 1e-6 the T range check allows, but not by more
        path = tmp_path / "t.csv"
        path.write_text("omega,T,phase_rad,re_t,im_t\n1,0.9999995,0,1,0\n2,1,0,1,0\n")
        assert read_spectrum_csv(path)[0].transmission.tolist() == [1.0, 1.0]
        path.write_text("omega,T,phase_rad,re_t,im_t\n1,0.0,0,1,0\n2,1,0,1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: T disagrees")):
            read_spectrum_csv(path)
        assert main(["estimate", str(path)]) == 2

    def test_partly_missing_amplitude_rejected(self, tmp_path):
        # all-NaN amplitude columns are the noisy format; a NaN on some rows
        # only would let the finite rows skip the check above
        path = tmp_path / "partial.csv"
        path.write_text("omega,T,phase_rad,re_t,im_t\n"
                        "1,0.0,0,1,0\n2,1,0,nan,nan\n3,1,0,1,0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: re_t/im_t are finite on some rows only")):
            read_spectrum_csv(path)
        assert main(["estimate", str(path)]) == 2

    def test_phase_contradicting_amplitude_rejected(self, tmp_path):
        # the phase is compared with arg(re_t + i im_t) modulo 2 pi, so
        # pi and -pi agree, within 1e-6
        path = tmp_path / "phase.csv"
        header = "omega,T,phase_rad,re_t,im_t\n"
        for row in ("1,1,5e-7,1,0", "1,1,3.141592653589793,-1,-1e-300",
                    "1,1,-3.141592653589793,-1,1e-300"):
            path.write_text(f"{header}{row}\n2,1,0,1,0\n")
            assert read_spectrum_csv(path)[0].n_points == 2, row
        for row in ("1,1,3.0,1,0", "1,1,nan,1,0", "1,1,-1e900,1,0"):
            path.write_text(f"{header}{row}\n2,1,0,1,0\n")
            with warnings.catch_warnings(), pytest.raises(ValueError, match=re.escape(
                    f"{path}: phase_rad disagrees with arg(re_t + i im_t)")):
                warnings.simplefilter("error")  # an infinite phase warns nothing
                read_spectrum_csv(path)
            assert main(["estimate", str(path)]) == 2

    def test_nine_significant_digits(self, qnmr_spectrum, tmp_path):
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, qnmr_spectrum)
        row = path.read_text().splitlines()[1].split(",")
        assert row[0] == f"{qnmr_spectrum.freqs[0]:.8e}"

    @pytest.mark.parametrize("n_points", [2001, 100001])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_reader_matches_per_value_parser(self, qnmr_params, n_points, noisy, tmp_path):
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, n_points))
        if noisy:
            spectrum = add_measurement_noise(spectrum, 0.02, 7)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, config={"model": "qubit-qnmr"})
        loaded, config = read_spectrum_csv(path)
        expected, expected_config = _float_reader(path)
        assert config == expected_config
        for name in ("freqs", "transmission", "phase"):
            assert np.array_equal(getattr(loaded, name), getattr(expected, name),
                                  equal_nan=True)
        if noisy:
            assert loaded.amplitude is None and expected.amplitude is None
        else:
            assert np.array_equal(loaded.amplitude, expected.amplitude)

    def test_package_files_skip_loadtxt(self, qnmr_spectrum, tmp_path, monkeypatch):
        """The package's own clean and noisy files are parsed in numpy:
        numpy.loadtxt is never called for them."""
        def no_loadtxt(*args, **kwargs):
            raise AssertionError("numpy.loadtxt called")

        monkeypatch.setattr("qspectra.io.np.loadtxt", no_loadtxt)
        noisy = add_measurement_noise(qnmr_spectrum, 0.02, 11)
        for name, spectrum in (("clean", qnmr_spectrum), ("noisy", noisy)):
            path = tmp_path / f"{name}.csv"
            write_spectrum_csv(path, spectrum, config={"model": "qubit-qnmr"})
            loaded, config = read_spectrum_csv(path)
            expected, expected_config = _float_reader(path)
            assert config == expected_config
            _assert_same_spectrum(loaded, expected)

    @pytest.mark.parametrize("variant", ["crlf", "cr", "no-final-newline", "comment-in-row",
                                         "blank-line", "uppercase-e"])
    def test_other_row_text_goes_to_loadtxt(self, variant, qnmr_params, tmp_path, monkeypatch):
        """Rows the writer would not write go to numpy.loadtxt, which reads
        them to the same spectrum as the file they were edited from."""
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, 201))
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, config={"model": "qubit-qnmr"})
        expected, expected_config = _float_reader(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[1] == b"omega,T,phase_rad,re_t,im_t" and lines[-1] == b""
        if variant in ("crlf", "cr"):
            text = (b"\r\n" if variant == "crlf" else b"\r").join(lines)
        elif variant == "no-final-newline":
            text = b"\n".join(lines[:-1])
        else:
            if variant == "comment-in-row":
                lines[5] += b" # note"
            elif variant == "blank-line":
                lines.insert(11, b"")
            else:
                lines[7] = lines[7].replace(b"e", b"E")
            text = b"\n".join(lines)
        path.write_bytes(text)
        calls = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr("qspectra.io.np.loadtxt", counting)
        loaded, config = read_spectrum_csv(path)
        assert calls == [1]
        assert config == expected_config
        _assert_same_spectrum(loaded, expected)

    @pytest.mark.parametrize("content", [None, b"omega,T,phase_rad\n1,0.5,0\n2,0.25,0.5\n3,1,0\n"],
                             ids=["written-with-config", "three-rows"])
    def test_byte_order_mark_is_dropped(self, content, qnmr_spectrum, tmp_path):
        """A UTF-8 byte order mark (Excel's "CSV UTF-8") before the first
        line is not part of it: the file reads as it does without one."""
        plain = tmp_path / "plain.csv"
        if content is None:
            write_spectrum_csv(plain, qnmr_spectrum, config={"model": "qubit-qnmr"})
        else:
            plain.write_bytes(content)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        expected, expected_config = read_spectrum_csv(plain)
        loaded, config = read_spectrum_csv(marked)
        assert config == expected_config
        _assert_same_spectrum(loaded, expected)

    @pytest.mark.parametrize("row", [3, 3000], ids=["first-chunk", "later-chunk"])
    def test_undecodable_row_gives_the_text_mode_error(self, row, qnmr_spectrum, tmp_path):
        """A byte that is not UTF-8 below the header gives the message that
        reading the file as UTF-8 text line by line gives."""
        path = tmp_path / "bad.csv"
        write_spectrum_csv(path, qnmr_spectrum)
        lines = path.read_bytes().split(b"\n")
        lines[row] = lines[row][:5] + b"\xff" + lines[row][6:]
        path.write_bytes(b"\n".join(lines))
        with open(path, "r", encoding="utf-8") as handle:
            with pytest.raises(UnicodeDecodeError) as decoding:
                for _ in handle:
                    pass
        with pytest.raises(ValueError) as info:
            read_spectrum_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text: {decoding.value}"

    @pytest.mark.parametrize("case, blocks, loadtxt_calls", [
        ("one-row-short", 1, 0), ("at-block-end", 1, 0), ("one-row-past", 2, 0),
        ("100001-points", None, 0), ("long-head", None, 0), ("crlf-row", 2, 1),
        ("comment", 2, 1), ("uppercase-e", 2, 1), ("no-final-newline", None, 1),
    ])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_blocks_match_loadtxt(self, case, blocks, loadtxt_calls, noisy, qnmr_params,
                                  tmp_path, monkeypatch):
        """The file is read in blocks of about qspectra.io._READ_BYTES cut at
        line ends, and each goes to parse_scientific until one is rejected.
        Rows around the first block's end, a file of many blocks, a head
        longer than a block, and text the writer does not write past the
        first block all read to the bits of numpy.loadtxt's table of the
        whole file; only the latter go to numpy.loadtxt."""
        n_points = 100001 if case == "100001-points" else 10001
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, n_points))
        if noisy:
            spectrum = add_measurement_noise(spectrum, 0.02, 3)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, config={"model": "qubit-qnmr"})
        lines = path.read_bytes().splitlines(keepends=True)
        # the first block ends with the line that holds byte _READ_BYTES
        ends = np.cumsum([len(line) for line in lines])
        last = int(np.searchsorted(ends, qio._READ_BYTES, side="right"))
        past = last + 5
        assert len(lines) > past + 1 and lines[last].endswith(b"\n")
        cut = {"one-row-short": last, "at-block-end": last + 1, "one-row-past": last + 2}
        if case in cut:
            lines = lines[:cut[case]]
        elif case == "crlf-row":
            lines[past] = lines[past][:-1] + b"\r\n"
        elif case == "comment":
            lines[past] = lines[past][:-1] + b" # note\n"
        elif case == "uppercase-e":
            lines[past] = lines[past].replace(b"e", b"E")
        elif case == "no-final-newline":
            lines[-1] = lines[-1][:-1]
        elif case == "long-head":
            lines[:0] = [b"# a comment line above the config\n"] * 8000
        path.write_bytes(b"".join(lines))
        calls = []

        def counted(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr("qspectra.io.np.loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(qio, "parse_scientific", counted("parse", parse_scientific))
        loaded, config = read_spectrum_csv(path)
        assert calls.count("loadtxt") == loadtxt_calls
        assert blocks is None or calls.count("parse") == blocks
        expected, expected_config = _loadtxt_reader(path)
        assert config == expected_config == {"model": "qubit-qnmr"}
        assert (loaded.amplitude is None) == noisy
        _assert_same_bits(loaded, expected)

    def test_undecodable_row_past_the_first_block(self, qnmr_params, tmp_path):
        """A byte that is not UTF-8 in a row past the first block gives the
        message of reading the whole file as text."""
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, 10001))
        path = tmp_path / "bad.csv"
        write_spectrum_csv(path, spectrum)
        content = path.read_bytes()
        at = content.index(b"\n", qio._READ_BYTES + 1000) + 6
        path.write_bytes(content[:at] + b"\xff" + content[at + 1:])
        with open(path, "r", encoding="utf-8") as handle:
            with pytest.raises(UnicodeDecodeError) as decoding:
                for _ in handle:
                    pass
        with pytest.raises(ValueError) as info:
            read_spectrum_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text: {decoding.value}"

    def test_pipe_reads_as_the_file(self, qnmr_params, tmp_path):
        """A pipe, which cannot be read twice, reads as the file it carries,
        also when a row past the first block sends it to numpy.loadtxt."""
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, 10001))
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, config={"model": "qubit-qnmr"})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-2] = lines[-2][:-1] + b"\r\n"
        path.write_bytes(b"".join(lines))
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        with ThreadPoolExecutor(1) as pool:
            writing = pool.submit(fifo.write_bytes, path.read_bytes())
            loaded, config = read_spectrum_csv(fifo)
            writing.result(timeout=60)
        expected, expected_config = read_spectrum_csv(path)
        assert config == expected_config
        _assert_same_bits(loaded, expected)

    def test_read_peak_memory(self, qnmr_params, tmp_path):
        """Reading a 100001-point clean file (7.6 MB) holds one block of its
        text at a time, and the spectrum keeps the columns it builds: the
        tracemalloc peak rises by at most 8 MiB (13.2 MiB when the whole
        file's bytes were held beside the parsed table)."""
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, 100001))
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum)
        del spectrum
        tracemalloc.start()
        try:
            loaded, _ = read_spectrum_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n_points == 100001
        assert peak <= 8 * 2**20

    def test_comments_below_header(self, tmp_path):
        # the config comes from the comments above the header, where blank
        # lines are skipped; below it numpy.loadtxt skips comments and
        # empty lines
        path = tmp_path / "comments.csv"
        path.write_text('# figure: f\n\n# config: {"a": 1}\nomega,T,phase_rad\n1,0.5,0\n'
                        '# config: {"a": 2}\n\n2,0.25,0.5 # note\n')
        loaded, config = read_spectrum_csv(path)
        assert config == {"a": 1}
        assert loaded.freqs.tolist() == [1.0, 2.0]
        assert loaded.transmission.tolist() == [0.5, 0.25]
        assert loaded.phase.tolist() == [0.0, 0.5]

    def test_ragged_rows_rejected(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("omega,T,phase_rad\n1,0.5,0\n2,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: ragged rows")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2

    def test_rows_wider_than_header_rejected(self, tmp_path, capsys):
        # the rows agree with each other, so only the header check sees it
        bad = tmp_path / "wide.csv"
        bad.write_text("omega,T,phase_rad\n1,0.5,0,7\n2,0.5,0,8\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: ragged rows")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2
        assert "ragged rows" in capsys.readouterr().err

    def test_non_numeric_value_rejected(self, tmp_path):
        bad = tmp_path / "abc.csv"
        bad.write_text("omega,T,phase_rad\n1,0.5,0\n2,abc,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: non-numeric value")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2

    def test_malformed_config_line_is_format_error(self, qnmr_spectrum, tmp_path, capsys):
        bad = tmp_path / "config.csv"
        write_spectrum_csv(bad, qnmr_spectrum)
        bad.write_text("# config: {not json\n" + bad.read_text())
        with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
            read_spectrum_csv(bad)
        assert not isinstance(info.value, json.JSONDecodeError)
        assert main(["estimate", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfeomega,T,phase_rad\n1,0.5,0\n",  # a UTF-16 byte order mark
        b"omega,T,phase_rad\n1,0.5,0\n2,0.5\xff,0\n",  # a bad byte in a data row
    ], ids=["header", "row"])
    def test_undecodable_csv_names_the_file(self, content, tmp_path, capsys):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: not UTF-8 text")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2
        assert f"i/o error: {bad}: not UTF-8 text" in capsys.readouterr().err


REFERENCE_DIGESTS = pathlib.Path(__file__).parent.parent / "bench" / "reference_digests.json"


def _reference_digests() -> dict:
    """sha256 of the benchmark's output files, keyed 'figures/<name>' and
    'spectrum/<model>/<points>/<variant>.<ext>'; only read here."""
    with open(REFERENCE_DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _float_reader(path):
    """Reference reader: parses every cell with float(), as read_spectrum_csv
    did before it parsed the data rows as one block."""
    config, header, rows = None, None, []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("config:"):
                    config = json.loads(body[len("config:"):])
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return _reference_spectrum(dict(zip(header, np.asarray(rows, dtype=float).T))), config


def _loadtxt_reader(path):
    """Reference reader: numpy.loadtxt parses every line below the header
    row of the whole file."""
    config, header = None, None
    with open(path, "r", encoding="utf-8-sig") as handle:
        for skip, raw in enumerate(handle, 1):
            line = raw.strip()
            if line.startswith("# config:"):
                config = json.loads(line[len("# config:"):])
            elif line and not line.startswith("#"):
                header = line.split(",")
                break
    table = np.loadtxt(path, dtype=float, delimiter=",", comments="#", skiprows=skip,
                       ndmin=2, encoding="utf-8-sig")
    return _reference_spectrum(dict(zip(header, table.T))), config


def _reference_spectrum(column) -> Spectrum:
    """The spectrum of a file's columns, built as read_spectrum_csv builds it."""
    amp = column["re_t"] + 1j * column["im_t"]
    if np.all(np.isfinite(amp)):
        magnitude = np.abs(amp)
        over = magnitude > 1.0
        amp[over] /= magnitude[over]
        return Spectrum.from_amplitude(column["omega"], amp)
    return Spectrum(freqs=column["omega"], transmission=np.clip(column["T"], 0.0, 1.0),
                    phase=column["phase_rad"])


def _assert_same_spectrum(loaded, expected) -> None:
    for name in ("freqs", "transmission", "phase", "amplitude"):
        a, b = getattr(loaded, name), getattr(expected, name)
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), name


def _assert_same_bits(loaded, expected) -> None:
    for name in ("freqs", "transmission", "phase", "amplitude"):
        a, b = getattr(loaded, name), getattr(expected, name)
        assert (a is None and b is None) or np.array_equal(a.view(np.int64),
                                                           b.view(np.int64)), name


def _reference_rows(columns) -> str:
    return "".join(",".join(f"{v:.8e}" for v in row) + "\n" for row in zip(*columns))


def _reference_polylines(x, y, y_offset, width=760, height=250):
    """Polyline point lists of one series, formatted value by value."""
    left, right, top, bottom = 70, 20, 28, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    x_lo, x_hi = _limits(x)
    y_lo, y_hi = _limits(y)
    runs, run = [], []
    for a, b in zip(x, y):
        if not (np.isfinite(a) and np.isfinite(b)):
            runs.append(run)
            run = []
            continue
        px = left + (a - x_lo) / (x_hi - x_lo) * plot_w
        py = y_offset + top + plot_h - (b - y_lo) / (y_hi - y_lo) * plot_h
        run.append(f"{px:.2f},{py:.2f}")
    runs.append(run)
    return [" ".join(r) for r in runs if len(r) >= 2]


# values whose formatting is easy to get wrong: signed zero, rounding
# across a decade, exponents with three digits, non-finite values
EDGE_VALUES = np.array([-0.0, 0.0, 9.9999999995e9, -9.99999999949e-10, 1e300,
                        -1.7976931348623157e308, 1e-300, 5e-324, math.nan,
                        math.inf, -math.inf, 1.0 / 3.0])


class TestGoldenBytes:
    """Writer output equals a per-value '%.8e' / '%.2f' formatter byte for byte."""

    @pytest.mark.parametrize("n_points", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_spectrum_csv_at_block_boundary(self, qnmr_params, n_points, noisy, tmp_path):
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, n_points))
        if noisy:
            spectrum = add_measurement_noise(spectrum, 0.02, 3)
        amp = spectrum.amplitude
        nan = np.full(n_points, math.nan)
        columns = (spectrum.freqs, spectrum.transmission, spectrum.phase,
                   nan if amp is None else amp.real, nan if amp is None else amp.imag)
        head = '# figure: f\n# config: {"a": 1, "figure": "f"}\nomega,T,phase_rad,re_t,im_t\n'
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, config={"a": 1, "figure": "f"})
        assert path.read_text() == head + _reference_rows(columns)

    def test_spectrum_csv_edge_values(self, tmp_path):
        freqs = np.array([-1.7976931348623157e308, -1e300, -1e-300, -0.0, 5e-324,
                          1e-300, 9.99999999949e9, 9.9999999995e9, 1e300])
        amp = np.array([complex(-0.0, 1.0), complex(0.6, -0.8), complex(1e-300, -1e-300),
                        complex(-0.0, -0.0), complex(0.0, 0.0), complex(-1.0, -0.0),
                        complex(9.9999999995e-1, 0.0), complex(-9.9999999995e-11, 0.0),
                        complex(1.0 / 3.0, -2.0 / 3.0)])
        spectrum = Spectrum.from_amplitude(freqs, amp)
        columns = (spectrum.freqs, spectrum.transmission, spectrum.phase,
                   amp.real, amp.imag)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum)
        text = path.read_text()
        assert text == "omega,T,phase_rad,re_t,im_t\n" + _reference_rows(columns)
        assert "-0.00000000e+00" in text and "1.00000000e+10" in text
        assert "-1.00000000e+300" in text and "4.94065646e-324" in text

    def test_wavefunction_csv(self, tmp_path):
        spec = reference_circuit()
        sol = solve_eigensystem(spec)
        psi0 = sol.wavefunctions[0].copy()
        psi0[:len(EDGE_VALUES)] = EDGE_VALUES
        sol = dataclasses.replace(sol, wavefunctions=np.array([psi0, sol.wavefunctions[1]]))
        columns = (sol.flux_grid / FLUX_QUANTUM, potential(sol.flux_grid, spec),
                   sol.wavefunctions[0], sol.wavefunctions[1])
        path = tmp_path / "w.csv"
        write_wavefunction_csv(path, sol, config={"b": 2, "figure": "fig11"})
        head = ('# figure: fig11\n# config: {"b": 2, "figure": "fig11"}\n'
                'flux_over_phi0,U_joules,psi0,psi1\n')
        assert path.read_text() == head + _reference_rows(columns)

    @pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS + 1])
    def test_csv_matches_cpython_on_random_bits(self, n_rows, tmp_path):
        rng = np.random.default_rng(n_rows)
        bits = rng.integers(0, 2**64, size=(n_rows, 5), dtype=np.uint64)
        # every exponent class, including subnormals (exponent field 0),
        # NaN payloads and infinities (exponent field 2047)
        bits[::7, 1] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        bits[::11, 2] |= np.uint64(0x7FF0_0000_0000_0000)
        columns = tuple(bits.view(np.float64).T)
        names = ("a", "b", "c", "d", "e")
        expected = "a,b,c,d,e\n" + _reference_rows(columns)
        _write_csv(tmp_path / "r.csv", names, columns)
        assert (tmp_path / "r.csv").read_text() == expected

    @pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("conversion", ["%.8e", "%.2f"])
    def test_formatter_matches_cpython_on_edge_values(self, conversion, n_rows):
        rng = np.random.default_rng(7)
        powers = np.array([10.0**k for k in range(-323, 309)])
        edges = np.concatenate([
            EDGE_VALUES,
            [1234567885.0, 1234567895.0, 0.125, 0.375, 2.675, 1.005, 0.005, -0.005],
            # exact ties at 9 significant digits and at 2 decimals
            rng.integers(10**9, 10**10, 64) * 10.0 + 5.0,
            (rng.integers(0, 10**7, 64) * 8 + rng.choice([1, 3, 5, 7], 64)) / 8.0,
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            # rounding up across a decade
            9.9999999995 * powers[300:340], 9.99999999949 * powers[300:340],
            [9.995, 99.995, 9.996, 999999.995, 999999.996, 9999999.996, 1e15, 1e300],
            # the ends of the fast paths: %.2f below 10000.00, %.8e in [1e-99, 1e99)
            [9999.995, 9999.996, 9999.9949999, np.nextafter(1e4, 0.0), 1e4, -0.004],
            [9.9999999995e98, 1e99, np.nextafter(1e-99, 0.0), 9.9999999995e99],
            # subnormals and three-digit exponents
            rng.integers(1, 2**52, 64).view(np.float64),
            rng.uniform(1.0, 10.0, 64) * 10.0 ** rng.integers(-320, 309, 64),
            [-0.0, -0.001, -0.004999, -1e-300, -5e-324],
            [math.nan, -math.nan, math.inf, -math.inf],
        ])
        edges = np.concatenate([edges, -edges])
        table = rng.choice(edges, size=(n_rows, 3))
        table[:, 2] = rng.permutation(np.resize(edges, n_rows))
        expected = "".join(conversion % v + sep for row in table.tolist()
                           for v, sep in zip(row, ", \n"))
        assert b"".join(table_blocks(table.T, conversion, ", \n")) == expected.encode()

    def test_fixed_ties_match_cpython(self):
        """'%.2f' near-ties are rounded exactly in numpy: polyline pixel
        coordinates of uniform grids, where 1 value in 108 is a decimal tie
        at 20001 points, half-cents with their neighbours and binary ties."""
        rng = np.random.default_rng(16)
        pixels = []
        for n_points in (401, 4001, 20001, 100001):
            x = np.linspace(1.8e9, 2.3e9, n_points)
            x_lo, x_hi = _limits(x)
            pixels.append(70 + (x - x_lo) / (x_hi - x_lo) * 670)
        half_cents = rng.integers(1, 2 * 10**8, 20_000) / 200.0
        values = np.concatenate(pixels + [
            half_cents, np.nextafter(half_cents, 0.0), np.nextafter(half_cents, np.inf),
            rng.integers(1, 8 * 10**6, 20_000) / 8.0,
            [0.005, 0.015, 0.125, 0.375, 2.675, 999999.995, 999999.985],
            [9999.995, 9999.996, 9999.9949999, np.nextafter(1e4, 0.0), 1e4, 0.0],
        ])
        values = np.concatenate([values, -values])
        assert b"".join(table_blocks((values,), "%.2f", "\n")) == "".join(
            "%.2f\n" % v for v in values.tolist()).encode()
        # no CPython call for a value with its sign bit clear that prints
        # below 10000.00
        _, exact = _fixed(values)
        assert exact.tolist() == [math.copysign(1.0, v) > 0 and float("%.2f" % v) < 1e4
                                  for v in values.tolist()]

    def test_broadcast_column_matches_copy(self):
        n_rows = 2 * _BLOCK_ROWS + 3
        varying = np.linspace(-1.0, 1.0, n_rows)
        for conversion in ("%.8e", "%.2f"):
            for value in (math.nan, -0.0, 1e300, 0.125):
                constant = np.broadcast_to(value, n_rows)
                columns = (constant, varying, constant)
                copies = tuple(np.array(column) for column in columns)
                expected = b"".join(table_blocks(copies, conversion, ",,\n"))
                assert b"".join(table_blocks(columns, conversion, ",,\n")) == expected
            everything = (np.broadcast_to(math.nan, 3),) * 2
            assert b"".join(table_blocks(everything, conversion, ",\n")) == (
                "nan,nan\n" * 3).encode()

    def test_polylines_with_breaks(self, tmp_path):
        x = np.linspace(-3.0, 5.0, 20001)
        y = np.sin(7.0 * x) * 1e-300
        y[[0, 17, 18, 900, 902, 20000]] = [math.nan, math.inf, -math.inf, math.nan,
                                           math.nan, math.nan]
        x[5000] = math.nan
        y[10000:10003] = -0.0
        panel = Panel(series=[Series(x, y, label="s")], xlabel="x", ylabel="y")
        write_chart(tmp_path / "b.svg", [panel, panel])
        body = (tmp_path / "b.svg").read_text()
        polylines = re.findall(r'<polyline points="([^"]*)"', body)
        expected = (_reference_polylines(x, y, 0) + _reference_polylines(x, y, 250))
        assert len(expected) == 8  # four runs per panel; the run at 901 is one point
        assert polylines == expected


class TestSlots:
    """The slot layout of table_blocks: four words per '%.8e' value with a
    two-digit exponent, two per '%.2f' value below 10000.00, more in a
    block with a longer CPython text, and a fresh buffer for each block.
    Each case is compared with CPython formatting each value."""

    @staticmethod
    def _reference(columns, conversion, separators) -> bytes:
        return "".join(conversion % v + sep for row in zip(*(c.tolist() for c in columns))
                       for v, sep in zip(row, separators)).encode()

    @pytest.mark.parametrize("value, text", [
        (1e-99, "1.00000000e-99"),
        (9.99999999e-100, "9.99999999e-100"),  # just below 1e-99
        (float(np.nextafter(1e-99, 0.0)), "1.00000000e-99"),
        (9.9999999995e98, "1.00000000e+99"),  # rounds up across a decade
        (1e99, "1.00000000e+99"),
        (9.9999999995e99, "1.00000000e+100"),  # ... into three digits
    ])
    def test_exponent_boundaries(self, value, text):
        assert "%.8e" % value == text
        values = np.array([1.5, value, -value, 2.5e-7])
        _, exact = _scientific(values.copy())
        # the fast path writes [1e-99, 1e99), whose exponents have two
        # digits; CPython writes the rest
        fast = 1e-99 <= value < 1e99
        assert exact.tolist() == [True, fast, fast, True]
        columns = (values, values[::-1])
        assert b"".join(table_blocks(columns, "%.8e", ",\n")) == self._reference(
            columns, "%.8e", ",\n")

    @pytest.mark.parametrize("wide", [1.5e-150, -1e-300], ids=["three-digit", "fallback"])
    def test_slot_width_changes_between_blocks(self, wide):
        """Blocks 1 and 3 hold a CPython text with a three-digit exponent:
        15 bytes, which fits the four words, or 16 bytes, which takes a
        fifth word; block 2 holds none, so its four-word slots sit where
        block 3's fifth words go."""
        rng = np.random.default_rng(28)
        n_rows = 3 * _BLOCK_ROWS + 5
        # two-digit exponents only, of either sign
        columns = tuple(rng.choice([-1.0, 1.0], (3, n_rows)) * rng.uniform(1.0, 10.0, (3, n_rows))
                        * 10.0 ** rng.integers(-99, 99, (3, n_rows)))
        for block in (0, 2):
            columns[1][block * _BLOCK_ROWS + 7] = wide
        blocks = list(table_blocks(columns, "%.8e", ",,\n"))
        assert len(blocks) == 4
        assert b"".join(blocks) == self._reference(columns, "%.8e", ",,\n")
        middle = slice(_BLOCK_ROWS, 2 * _BLOCK_ROWS)
        assert blocks[1] == self._reference([c[middle] for c in columns], "%.8e", ",,\n")

    def test_fixed_series_spans_blocks(self):
        """'%.2f' points with SVG-like separators over three blocks, whose
        first and last hold a 13-byte CPython text that widens the slots."""
        rng = np.random.default_rng(29)
        n_rows = 2 * _BLOCK_ROWS + 100
        x = rng.uniform(-1e3, 1e3, n_rows) * 10.0 ** rng.integers(-3, 4, n_rows)
        y = rng.uniform(0.0, 250.0, n_rows)
        x[[3, n_rows - 4]] = [-1e8, 1.5e9]
        y[[5, _BLOCK_ROWS + 9]] = math.nan
        separators = np.full((n_rows, 2), (ord(","), ord(" ")), np.uint8)
        separators[rng.integers(0, n_rows, 40), 1] = ord("\n")
        separators[-1, 1] = ord('"')
        expected = "".join("%.2f%s%.2f%s" % (a, chr(s), b, chr(t)) for a, b, (s, t)
                           in zip(x.tolist(), y.tolist(), separators.tolist()))
        assert b"".join(table_blocks((x, y), "%.2f", separators)) == expected.encode()

    def test_package_output_stays_on_the_fast_paths(self, tmp_path, monkeypatch):
        """Every number the package writes through table_blocks lies in its
        conversion's fast-path range: a finite, non-zero '%.8e' value in
        [1e-99, 1e99), and a '%.2f' SVG coordinate with its sign bit clear
        and below 1e4.  The fast paths cover these ranges and no more; this
        checks that premise over the figures, a squid run with every output
        and a noisy spectrum with its chart."""
        seen = {"%.8e": [0, []], "%.2f": [0, []]}

        def recording(columns, conversion, separators):
            values = np.concatenate([np.ravel(column) for column in columns])
            if conversion == "%.8e":
                a = np.abs(values)
                outside = values[np.isfinite(a) & (a != 0) & ((a < 1e-99) | (a >= 1e99))]
            else:
                outside = values[~((values < 1e4) & ~np.signbit(values))]
            seen[conversion][0] += values.size
            seen[conversion][1].extend(outside.tolist())
            return table_blocks(columns, conversion, separators)

        monkeypatch.setattr("qspectra.io.table_blocks", recording)
        monkeypatch.setattr("qspectra.svg.table_blocks", recording)
        out = tmp_path / "out"
        assert main(["figures", "--which", "all", "--outdir", str(out), "--svg"]) == 0
        assert main(["squid", "--output-json", str(out / "c.json"),
                     "--output-csv", str(out / "w.csv"), "--svg", str(out / "w.svg")]) == 0
        assert main(FIG3_ARGS + ["--noise-sigma", "0.01", "--seed", "3", "--output",
                                 str(out / "n.csv"), "--svg", str(out / "n.svg")]) == 0
        # both writers were recorded: 391091 and 320080 values when written
        assert seen["%.8e"][0] > 3 * 10**5 and seen["%.2f"][0] > 3 * 10**5
        assert seen["%.8e"][1] == [] and seen["%.2f"][1] == []


class TestParseScientific:
    """parse_scientific reads the '%.8e' tables of table_blocks back bit for
    bit as numpy.loadtxt does, and gives None for any other text."""

    @staticmethod
    def _loadtxt(text: bytes) -> np.ndarray:
        return np.loadtxt(text.decode("ascii").splitlines(), delimiter=",", ndmin=2)

    @pytest.mark.parametrize("block_bytes", [None, 997], ids=["one-block", "many-blocks"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loadtxt_bit_for_bit(self, seed, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(_numtext, "_PARSE_BYTES", block_bytes)
        rng = np.random.default_rng([seed, 33])
        shape = (2000, 4)
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-99, 99, shape)
        special = rng.random(shape) < 0.03
        x[special] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf],
                                np.count_nonzero(special))
        text = bytes(b"".join(table_blocks([x[:, j] for j in range(4)], "%.8e", ",,,\n")))
        parsed = parse_scientific(b"\n" + text, 4, 1)
        assert parsed is not None
        assert np.array_equal(parsed.view(np.int64), self._loadtxt(text).view(np.int64))
        # both paths ran: one IEEE operation for exponents in [-14, 30], and
        # CPython's float() outside them
        exponent = np.array([int(cell.split(b"e")[1]) for cell in text.replace(b"\n", b",").split(b",")
                             if b"e" in cell])
        inside = (exponent >= -14) & (exponent <= 30)
        assert inside.any() and not inside.all()

    def test_start_offset_and_special_cells(self):
        text = b"head\nnan,-inf\ninf,-0.00000000e+00\n-1.23456789e-30,9.99999999e+30\n"
        parsed = parse_scientific(text, 2, start=5)
        expected = self._loadtxt(text[5:])
        assert np.array_equal(parsed.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("value", [1e-100, 1e100, 1.5e-150, 5e-324, 1e-310, 1e300])
    def test_three_digit_exponent_not_parsed(self, value):
        """Subnormals and other magnitudes outside [1e-99, 1e99) are written
        with three exponent digits, which only numpy.loadtxt reads."""
        text = bytes(b"".join(table_blocks([np.array([1.5, value, -2.5])], "%.8e", "\n")))
        assert len(text.splitlines()[1]) == 15
        assert parse_scientific(b"\n" + text, 1, 1) is None

    @pytest.mark.parametrize("cell", [
        "1.0000000e+09", "1.00000000E+09", " 1.00000000e+09", "1.00000000e+9",
        "+1.00000000e+09", "x1.00000000e+09", "--1.0000000e+09", "1.0000000x0e+09",
        "1,00000000e+09", "1.00000000e*09", "1.00000000e/09", "1.00000000e+09 ",
        "-nan", "Inf", "nan ", "", "1.00000000e+099",
    ])
    def test_other_cells_not_parsed(self, cell):
        text = f"1.00000000e+00,-2.50000000e-03\n{cell},nan\n".encode()
        assert parse_scientific(b"\n" + text, 2, 1) is None

    @pytest.mark.parametrize("text", [
        b"", b"1.00000000e+00\n", b"1.00000000e+00,2.00000000e+00",
        b"1.00000000e+00,2.00000000e+00\r\n", b"1.00000000e+00\n2.00000000e+00,nan\n",
        b"1.00000000e+00,2.00000000e+00,\n", b"1.00000000e+00,2.00000000e+00\n\n",
        b"1.00000000e+00\xff,2.00000000e+00\n",
        # 4 cells for 2 rows of 2, with the first line end one cell early
        b"1.00000000e+00\n2.00000000e+00,nan,3.00000000e+00\n",
    ], ids=["empty", "one-column", "no-line-end", "crlf", "ragged", "trailing-comma",
            "blank-line", "non-ascii", "misplaced-line-end"])
    def test_other_rows_not_parsed(self, text):
        assert parse_scientific(b"\n" + text, 2, 1) is None


class TestSchema:
    def test_report_carries_schema_version(self, qnmr_spectrum, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(report_json_text(estimate_report(qnmr_spectrum)))
        document = load_report(path)
        assert document["schema_version"] == SCHEMA_VERSION

    def test_unknown_major_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema_version": "2.0"}))
        with pytest.raises(ValueError, match="major"):
            load_report(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({}))
        with pytest.raises(ValueError, match="schema_version"):
            load_report(path)


class TestSpectrumCommand:
    def test_fig3_like_run(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(FIG3_ARGS + ["--output", str(out)])
        assert code == 0
        spectrum, config = read_spectrum_csv(out)
        assert config["model"] == "qubit-qnmr"
        t = spectrum.transmission
        w = spectrum.freqs
        order = np.argsort(t)
        lowest = np.sort(w[order[:40]])
        # the smallest-T rows bracket both hybrid dips
        assert np.any(np.abs(lowest - 1.9382e9) < 2e6)
        assert np.any(np.abs(lowest - 2.1618e9) < 2e6)

    def test_degenerate_grid_is_config_error(self, tmp_path, capsys):
        code = main(FIG3_ARGS[:-2] + ["--grid", "2e9:2e9:100",
                                      "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    _STLR_CHAIN = ["--omega0", "2.1e9", "--omega-r", "2e9", "--v2", "1e8", "--v-g", "3e8"]

    @pytest.mark.parametrize("coupled, uncoupled", [
        (["qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9", "--gamma-c", "3.3e7",
          "--g-q", "0"], ["qubit-only", "--omega0", "2.1e9", "--gamma-c", "3.3e7"]),
        (["stlr-qubit-qnmr", *_STLR_CHAIN, "--omega-b", "2e9", "--g-rq", "1e8", "--g-q", "0"],
         ["stlr-qubit", *_STLR_CHAIN, "--g-rq", "1e8"]),
        (["stlr-qubit", *_STLR_CHAIN, "--g-rq", "0"], None),
        (["qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9", "--gamma-c", "3.3e7",
          "--g-q", "1e-170"], ["qubit-only", "--omega0", "2.1e9", "--gamma-c", "3.3e7"]),
        (["stlr-qubit-qnmr", *_STLR_CHAIN, "--omega-b", "2e9", "--g-rq", "1e8",
          "--g-q", "1e-170"], ["stlr-qubit", *_STLR_CHAIN, "--g-rq", "1e8"]),
        (["stlr-qubit", *_STLR_CHAIN, "--g-rq", "1e-170"], None),
        # the qubit-mechanics modes at 1.92e9 and 2.18e9 lie on the grid
        (["stlr-qubit-qnmr", *_STLR_CHAIN, "--omega-b", "2e9", "--g-rq", "0",
          "--g-q", "1.2e8"], None),
    ], ids=["qubit-qnmr", "stlr-qubit-qnmr", "stlr-qubit", "qubit-qnmr-underflow",
            "stlr-qubit-qnmr-underflow", "stlr-qubit-underflow", "stlr-qubit-qnmr-g_rq"])
    def test_zero_coupling_writes_uncoupled_model(self, coupled, uncoupled, tmp_path):
        """Where g**2 is 0 a grid through the decoupled mode's frequency
        gets the uncoupled model's rows, not 0/0 there."""
        grid = ["--grid", "1.8e9:2.3e9:4001"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spectrum", "--model", *coupled, *grid, "--output", str(a)]) == 0
        if uncoupled is None:  # the bare resonator has no CLI model
            w = make_frequency_grid(1.8e9, 2.3e9, 4001)
            bare = ModelParams(omega_r=2e9, v2=1e8, v_g=3e8)
            write_spectrum_csv(b, Spectrum.from_amplitude(w, stlr_amplitude(w, bare)))
        else:
            assert main(["spectrum", "--model", *uncoupled, *grid, "--output", str(b)]) == 0

        def rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        assert rows(a) == rows(b)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "qubit-only", "--omega0", "2.1e9", "--gamma-c", "0"],
        ["spectrum", "--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
         "--gamma-c", "0", "--g-q", "1.2e8"],
        ["spectrum", "--model", "stlr-qubit", "--omega0", "2.1e9", "--omega-r", "2e9",
         "--v-g", "3e8", "--v2", "0", "--g-rq", "1.2e8"],
        ["spectrum", "--model", "stlr-qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
         "--omega-r", "2e9", "--v-g", "3e8", "--v2", "0", "--g-rq", "1.2e8", "--g-q", "1.2e8"],
    ], ids=["qubit-only", "qubit-qnmr", "stlr-qubit", "stlr-qubit-qnmr"])
    def test_zero_rate_writes_full_transmission(self, argv, tmp_path):
        """A zero rate decouples the scatterer from the line: T = 1 and a
        zero phase on a grid through the dips, where x/(x + i y) is 0/0."""
        out = tmp_path / "s.csv"
        assert main([*argv, "--grid", "1.8e9:2.3e9:5001", "--output", str(out)]) == 0
        spectrum, _ = read_spectrum_csv(out)
        assert np.all(spectrum.transmission == 1.0)
        assert np.all(spectrum.phase == 0.0)

    def test_missing_param_is_config_error_naming_field(self, tmp_path, capsys):
        code = main(["spectrum", "--model", "qubit-qnmr", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--omega-b", "2e9",
                     "--grid", "1.9e9:2.3e9:101",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "g_q" in capsys.readouterr().err

    def test_unknown_model_is_config_error(self, tmp_path):
        code = main(["spectrum", "--model", "qubit-zzz",
                     "--grid", "1.9e9:2.3e9:101",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unwritable_path_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(FIG3_ARGS + ["--output", str(blocker / "out.csv")])
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        noisy = ["--noise-sigma", "0.01", "--seed", "7"]
        assert main(FIG3_ARGS + noisy + ["--output", str(a)]) == 0
        assert main(FIG3_ARGS + noisy + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "model": "qubit-only", "omega0": 2.1e9, "gamma_c": 3.3e7,
            "grid": "1.9e9:2.3e9:501",
        }))
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--config", str(config), "--omega0", "2.2e9",
                     "--output", str(out)]) == 0
        _, written = read_spectrum_csv(out)
        assert written["params"]["omega0"] == 2.2e9

    def test_dispersive_zero_detuning_is_numerical_failure(self, tmp_path, capsys):
        code = main(["spectrum", "--model", "dispersive", "--omega0", "2e9",
                     "--omega-b", "2e9", "--g-q", "3e7", "--v1", "1e7", "--v-g", "3e8",
                     "--mean-n", "0", "--grid", "1.9e9:2.1e9:101",
                     "--output", str(tmp_path / "d.csv")])
        assert code == 3
        assert "zero detuning" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf", "-inf"])
    def test_out_of_contract_noise_sigma_is_usage_error(self, sigma, tmp_path, capsys):
        out = tmp_path / "n.csv"
        # the "=" form lets argparse take "-inf" as a value
        code = main(FIG3_ARGS + [f"--noise-sigma={sigma}", "--seed", "7",
                                 "--output", str(out)])
        assert code == 1
        assert "noise_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_noise_sigma_is_named(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        argv = ["spectrum", "--model", "qubit-only", "--omega0", "2.1e9", "--gamma-c", "3.3e7",
                "--grid", "1.8e9:2.3e9:2001", "--seed", "1", "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--noise-sigma", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "error: sigma 1e+308 is too large: a noise draw overflowed to infinity\n")
        assert not out.exists()
        assert main(argv + ["--noise-sigma", "1e300"]) == 0

    def test_non_numeric_noise_sigma_in_config_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_sigma": "lots"}))
        code = main(FIG3_ARGS + ["--config", str(config),
                                 "--output", str(tmp_path / "n.csv")])
        assert code == 1

    def test_noisy_bytes_match_reference_digests(self, tmp_path):
        # the benchmark's synth-artifacts argv for this key
        key = "spectrum/qubit-qnmr/4001/noise0.01-seed3"
        stem = tmp_path / "s"
        argv = ["spectrum", "--model", "qubit-qnmr", "--omega0", "2100000000.0",
                "--omega-b", "2000000000.0", "--gamma-c", "33000000.0",
                "--g-q", "100000000.0", "--grid", "1.8e9:2.3e9:4001",
                "--output", f"{stem}.csv", "--noise-sigma", "0.01", "--seed", "3",
                "--svg", f"{stem}.svg"]
        assert main(argv) == 0
        references = _reference_digests()
        for ext in ("csv", "svg"):
            assert _sha256(f"{stem}.{ext}") == references[f"{key}.{ext}"], ext

    @pytest.mark.parametrize("flag", ["--seed=-1", "--seed=1.5", "--seed=x"])
    def test_bad_seed_is_usage_error(self, flag, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = main(FIG3_ARGS + ["--noise-sigma", "0.01", flag, "--output", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_bad_seed_in_config_is_usage_error(self, seed, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_sigma": 0.01, "seed": seed}))
        out = tmp_path / "n.csv"
        assert main(FIG3_ARGS + ["--config", str(config), "--output", str(out)]) == 1
        assert not out.exists()

    def test_options_do_not_leak_between_calls(self, tmp_path):
        seeded, unseeded, fresh = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        noisy = FIG3_ARGS + ["--noise-sigma", "0.01"]
        assert main(noisy + ["--seed", "5", "--output", str(seeded)]) == 0
        assert main(noisy + ["--output", str(unseeded)]) == 0
        assert main(noisy + ["--seed", "0", "--output", str(fresh)]) == 0
        assert read_spectrum_csv(seeded)[1]["noise"]["seed"] == 5
        assert read_spectrum_csv(unseeded)[1]["noise"]["seed"] == 0
        assert unseeded.read_bytes() == fresh.read_bytes()
        assert main(FIG3_ARGS + ["--output", str(unseeded)]) == 0
        assert "noise" not in read_spectrum_csv(unseeded)[1]

    def test_svg_output(self, tmp_path):
        out, chart = tmp_path / "s.csv", tmp_path / "s.svg"
        assert main(FIG3_ARGS + ["--output", str(out), "--svg", str(chart)]) == 0
        body = chart.read_text()
        assert body.startswith("<svg") and "polyline" in body


class TestEstimateCommand:
    def test_quantum_pipeline(self, tmp_path, capsys):
        csv = tmp_path / "fig3.csv"
        assert main(FIG3_ARGS + ["--output", str(csv)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["estimate", str(csv), "--output", str(report_path)]) == 0
        document = load_report(report_path)
        assert document["model_class"] == "quantum-nmr"
        assert abs(document["omega_b_est"]["value"] - 2e9) < 1e6
        assert abs(document["g_est"]["value"] - 1e8) < 3e6

    def test_classical_pipeline(self, tmp_path):
        csv = tmp_path / "fig5.csv"
        assert main(["spectrum", "--model", "qubit-cnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7", "--g-c", "1e8",
                     "--grid", "1.9e9:2.3e9:4001", "--output", str(csv)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["estimate", str(csv), "--ref-omega0", "2.1e9",
                     "--ref-omega-b", "2e9", "--output", str(report_path)]) == 0
        document = load_report(report_path)
        assert document["model_class"] == "classical-nmr"
        assert document["g_est"]["value"] == pytest.approx(1e8, rel=0.01)

    def test_flat_spectrum_reports_no_features_exit_zero(self, tmp_path):
        freqs = make_frequency_grid(1.9e9, 2.3e9, 101)
        flat = compute_spectrum(
            ModelKind.QUBIT_ONLY,
            ModelParams(omega0=2.1e9, gamma_c=GAMMA_C), freqs,
        )
        # overwrite with T = 1 rows to fake a featureless instrument trace
        path = tmp_path / "flat.csv"
        lines = ["omega,T,phase_rad"]
        for w in freqs:
            lines.append(f"{w:.8e},1.0,0.0")
        path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "r.json"
        assert main(["estimate", str(path), "--output", str(report_path)]) == 0
        assert load_report(report_path)["model_class"] == "no-features"

    @pytest.mark.parametrize("rows", [
        ["1.0e9,0.95,-1.2", "1.1e9,0.05,0.0", "1.2e9,0.95,1.2"],
        ["1.0e9,0.95,-1.2", "1.1e9,0.05,0.0"],
    ], ids=["3-points", "2-points"])
    def test_dip_on_short_spectrum_is_not_fitted(self, rows, tmp_path):
        """The dip of a 2- or 3-point spectrum leaves a fit window of fewer
        samples than the fit's 4 parameters, where MINPACK returns the
        start point unfitted: the fit is rejected for that reason, and no
        dip is reported."""
        path = tmp_path / "short.csv"
        path.write_text("\n".join(["omega,T,phase_rad", *rows]) + "\n")
        report_path = tmp_path / "r.json"
        assert main(["estimate", str(path), "--ref-omega0", "1.1e9",
                     "--output", str(report_path)]) == 0
        document = load_report(report_path)
        assert document["model_class"] == "no-features"
        assert document["raw_features"]["dips"] == []
        assert document["notes"] == ["1 of 1 dip fits rejected (1 fit window below 4 samples)"]

    def test_ambiguous_is_data_not_failure(self, tmp_path):
        csv = tmp_path / "bare.csv"
        assert main(["spectrum", "--model", "qubit-only", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--grid", "1.9e9:2.3e9:2001",
                     "--output", str(csv)]) == 0
        report_path = tmp_path / "r.json"
        assert main(["estimate", str(csv), "--output", str(report_path)]) == 0
        assert load_report(report_path)["model_class"] == "ambiguous"

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 2

    def test_hints_from_config_file(self, tmp_path):
        csv = tmp_path / "fig5.csv"
        assert main(["spectrum", "--model", "qubit-cnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7", "--g-c", "1e8",
                     "--grid", "1.9e9:2.3e9:4001", "--output", str(csv)]) == 0
        config = tmp_path / "hints.json"
        config.write_text(json.dumps({"ref_omega0": 2.1e9, "ref_omega_b": 2e9}))
        report_path = tmp_path / "r.json"
        assert main(["estimate", str(csv), "--config", str(config),
                     "--output", str(report_path)]) == 0
        assert load_report(report_path)["model_class"] == "classical-nmr"

    def test_amplitude_hints_by_flag_and_config(self, tmp_path):
        """--b0, --i-p and --nmr-length give the same report by flag and by
        config, and the library's amplitude for the spectrum read back."""
        csv = tmp_path / "fig5.csv"
        assert main(["spectrum", "--model", "qubit-cnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7", "--g-c", "1e8",
                     "--grid", "1.9e9:2.3e9:4001", "--output", str(csv)]) == 0
        hints = {"ref_omega0": 2.1e9, "ref_omega_b": 2e9, "b0": 0.5, "i_p": 3e-7,
                 "nmr_length": 2e-6}
        by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
        flags = [arg for key, value in hints.items()
                 for arg in ("--" + key.replace("_", "-"), repr(value))]
        assert main(["estimate", str(csv), *flags, "--output", str(by_flag)]) == 0
        config = tmp_path / "hints.json"
        config.write_text(json.dumps(hints))
        assert main(["estimate", str(csv), "--config", str(config),
                     "--output", str(by_config)]) == 0
        assert by_flag.read_bytes() == by_config.read_bytes()
        expected = estimate_report(read_spectrum_csv(csv)[0], reference_omega0=2.1e9,
                                   reference_omega_b=2e9, field=0.5,
                                   persistent_current=3e-7, nmr_length=2e-6)
        assert expected.amplitude_est is not None
        assert load_report(by_flag)["amplitude_est"] == expected.amplitude_est.to_dict()

    @pytest.mark.parametrize("flags, config, expected", [
        ([], None, {}),
        (["--ref-omega0", "2.1e9", "--unity-tol", "0.02"], None,
         {"reference_omega0": 2.1e9, "unity_tol": 0.02}),
        (["--b0", "0.5"], {"i_p": 3e-7, "unity_tol": 0.02, "ref_delta": 1e8},
         {"field": 0.5, "persistent_current": 3e-7, "unity_tol": 0.02,
          "reference_delta": 1e8}),
    ], ids=["none", "flags", "flag-and-config"])
    def test_only_given_options_reach_estimate_report(self, flags, config, expected,
                                                       qnmr_spectrum, tmp_path, monkeypatch):
        """An option not given keeps estimate_report's own default."""
        calls = []
        library = cli.estimate_report

        def recording(spectrum, **kwargs):
            calls.append(kwargs)
            return library(spectrum, **kwargs)

        monkeypatch.setattr(cli, "estimate_report", recording)
        csv = tmp_path / "s.csv"
        write_spectrum_csv(csv, qnmr_spectrum)
        argv = ["estimate", str(csv), *flags, "--output", str(tmp_path / "r.json")]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        assert calls == [expected]

    @pytest.mark.parametrize("flag, value, message", [
        ("--ref-g-q", "0", "--ref-g-q must be nonzero"),
        ("--ref-delta", "0", "--ref-delta must be nonzero"),
        # the ladder spacing g_q**2/delta overflows or underflows
        ("--ref-g-q", "1e300",
         "phonon ladder spacing g_q**2/delta = inf gives no finite rung count"),
        ("--ref-g-q", "1e-200",
         "phonon ladder spacing g_q**2/delta = 0 gives no finite rung count"),
    ], ids=["--ref-g-q", "--ref-delta", "overflow-ref-g-q", "underflow-ref-g-q"])
    def test_zero_reference_hint_is_usage_error(self, flag, value, message, tmp_path, capsys):
        """A hint that makes the phonon ladder spacing zero or not finite
        exits 1 with an error line, not a traceback."""
        csv = tmp_path / "dispersive.csv"
        assert main(["spectrum", "--model", "dispersive", "--omega0", "2.1e9",
                     "--g-q", "3e7", "--v-g", "3e8", "--gamma-c", "1e6",
                     "--omega-b", "2e9", "--mean-n", "1",
                     "--grid", "2.09e9:2.13e9:2001", "--output", str(csv)]) == 0
        hints = {"--ref-omega0": "2.1e9", "--ref-g-q": "3e7", "--ref-delta": "1e8"}
        hints[flag] = value
        argv = ["estimate", str(csv)] + [x for item in hints.items() for x in item]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("case", ["nan-transmission", "decreasing-omega",
                                      "decreasing-omega-no-amplitude"])
    def test_nan_transmission_is_format_error(self, case, qnmr_spectrum, tmp_path, capsys):
        """A CSV that fails the reader's or the Spectrum checks exits 2 with
        the file named, whichever constructor the columns lead to."""
        path = tmp_path / f"{case}.csv"
        write_spectrum_csv(path, qnmr_spectrum)
        rows = path.read_text().splitlines()
        assert rows[0] == "omega,T,phase_rad,re_t,im_t"
        if case == "nan-transmission":
            cells = rows[100].split(",")
            cells[1] = "nan"
            rows[100] = ",".join(cells)
        else:
            rows = rows[:1] + rows[3:0:-1]
        if case.endswith("no-amplitude"):
            rows = [",".join(row.split(",")[:3]) for row in rows]
        path.write_text("\n".join(rows) + "\n")
        match = "transmission" if case == "nan-transmission" else "strictly increasing"
        with pytest.raises(ValueError, match=match):
            read_spectrum_csv(path)
        assert main(["estimate", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_malformed_input_is_nonzero(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,spectrum\n1,2,3\n")
        assert main(["estimate", str(bad)]) != 0


class TestSquidCommand:
    def test_defaults_match_quoted_energies(self, tmp_path):
        out = tmp_path / "squid.json"
        assert main(["squid", "--output-json", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["E0_joules"] == pytest.approx(2.7025e-23, rel=0.01)
        assert document["E1_joules"] == pytest.approx(2.7225e-23, rel=0.01)

    def test_zero_critical_current_matches_lc_ladder(self, tmp_path):
        out = tmp_path / "lc.json"
        assert main(["squid", "--i-c", "0", "--n-states", "5",
                     "--output-json", str(out)]) == 0
        document = json.loads(out.read_text())
        omega_lc = 1.0 / math.sqrt(6e-9 * 1.7e-14)
        for n, energy in enumerate(document["energies_joules"]):
            assert energy == pytest.approx(HBAR * omega_lc * (n + 0.5), rel=1e-3)

    def test_even_grid_points_is_config_error(self, tmp_path, capsys):
        code = main(["squid", "--grid-points", "200",
                     "--output-json", str(tmp_path / "x.json")])
        assert code == 1
        code = main(["squid", "--grid-points", "1000",
                     "--output-json", str(tmp_path / "x.json")])
        assert code == 1
        assert "odd" in capsys.readouterr().err

    def test_ground_energy_near_zero_of_potential_converges(self, tmp_path):
        # E0 is about 1.8e-26 J here; relative to |E0| alone the converged
        # 1001-point grid looked coarse and the command exited 3
        assert main(["squid", "--i-c", "1.81e-8", "--phi-e-over-phi0", "0",
                     "--output-json", str(tmp_path / "x.json")]) == 0

    @pytest.mark.parametrize("c_j", ["1e-285", "1e-270"])
    def test_solver_failure_names_the_circuit(self, c_j, tmp_path, capsys):
        """LAPACK's bisection fails on these finite Hamiltonians: exit 3
        with a message that names the capacitance and the grid."""
        out = tmp_path / "x.json"
        assert main(["squid", "--c-j", c_j, "--output-json", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and not out.exists()
        assert f"capacitance {float(c_j)}, grid_points 1001 and flux_window 1.0" in err

    def test_bias_of_a_million_flux_quanta_solves(self, tmp_path):
        assert main(["squid", "--phi-e-over-phi0", "1e6",
                     "--output-json", str(tmp_path / "x.json")]) == 0

    def test_narrow_window_is_numerical_failure(self, tmp_path):
        code = main(["squid", "--flux-window", "0.35",
                     "--output-json", str(tmp_path / "x.json")])
        assert code == 3

    def test_svg_output(self, tmp_path):
        chart = tmp_path / "sq.svg"
        assert main(["squid", "--output-json", str(tmp_path / "s.json"),
                     "--svg", str(chart)]) == 0
        body = chart.read_text()
        assert body.count("<polyline") == 3
        for label in ("potential", "state 0", "state 1"):
            assert f">{label}<" in body

    def test_wavefunction_csv(self, tmp_path):
        csv = tmp_path / "wf.csv"
        assert main(["squid", "--output-json", str(tmp_path / "s.json"),
                     "--output-csv", str(csv)]) == 0
        header = [line for line in csv.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "flux_over_phi0,U_joules,psi0,psi1"


class TestSolutionCarriesCircuit:
    """The summary, the wavefunction CSV and the truncation check read the
    circuit from the solution itself; a circuit other than the reference
    shows that nothing falls back to it."""

    SPEC = CircuitSpec(capacitance=2.1e-14, inductance=5e-9,
                       critical_current=matched_critical_current(5e-9),
                       bias_flux=0.5 * FLUX_QUANTUM, grid_points=1201, flux_window=1.4)

    def test_solution_keeps_the_solved_spec(self):
        sol = solve_eigensystem(self.SPEC)
        assert sol.spec is self.SPEC
        assert qubit_truncation_check(sol).valid

    def test_summary_circuit_is_the_solved_spec(self, tmp_path):
        sol = solve_eigensystem(self.SPEC)
        assert json.loads(squid_json_text(sol))["circuit"] == {
            "capacitance_farads": 2.1e-14, "inductance_henries": 5e-9,
            "critical_current_amps": self.SPEC.critical_current,
            "bias_flux_webers": 0.5 * FLUX_QUANTUM, "grid_points": 1201, "flux_window": 1.4}
        out = tmp_path / "s.json"
        assert main(["squid", "--c-j", "2.1e-14", "--l", "5e-9", "--flux-window", "1.4",
                     "--grid-points", "1201", "--output-json", str(out)]) == 0
        assert out.read_text() == squid_json_text(sol)

    def test_wavefunction_potential_is_the_solved_circuit(self, tmp_path):
        sol = solve_eigensystem(self.SPEC)
        path = tmp_path / "w.csv"
        write_wavefunction_csv(path, sol)
        u = potential(sol.flux_grid, self.SPEC)
        assert not np.allclose(u, potential(sol.flux_grid, reference_circuit()), atol=0)
        columns = (sol.flux_grid / FLUX_QUANTUM, u, sol.wavefunctions[0], sol.wavefunctions[1])
        assert path.read_text() == ("flux_over_phi0,U_joules,psi0,psi1\n"
                                    + _reference_rows(columns))


@pytest.mark.parametrize("config", [None, {}, {"a": 1}, {"figure": "x"}, {"a": 1, "figure": "x"}])
def test_figure_line_comes_from_config(config, qnmr_spectrum, tmp_path):
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, qnmr_spectrum, config=config)
    comments = [line for line in path.read_text().splitlines() if line.startswith("#")]
    expected = [] if config is None else ["# config: " + json.dumps(config, sort_keys=True)]
    if config and "figure" in config:
        expected.insert(0, "# figure: x")
    assert comments == expected


class TestSweepCommand:
    def test_coupling_sweep_features(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSPECTRA_THREADS", "2")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "qubit-qnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7",
                     "--param", "g_q", "--start", "5e7", "--stop", "2e8",
                     "--steps", "7", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith(("#", "param"))]
        dips = [(float(r[1]), float(r[3])) for r in rows if r[2] == "dip"]
        assert len(dips) == 14  # two dips per value
        # splitting grows with the coupling
        by_value = {}
        for value, freq in dips:
            by_value.setdefault(value, []).append(freq)
        splits = [max(v) - min(v) for _, v in sorted(by_value.items())]
        assert all(b > a for a, b in zip(splits, splits[1:]))

    def test_sweep_deterministic(self, tmp_path, monkeypatch):
        args = ["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                "--gamma-c", "3.3e7", "--param", "omega0",
                "--start", "2.0e9", "--stop", "2.2e9", "--steps", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("QSPECTRA_THREADS", "4")
        assert main(args + ["--output", str(a)]) == 0
        monkeypatch.setenv("QSPECTRA_THREADS", "1")
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rate_step(self, tmp_path):
        """The gamma_c = 0 step of a gridded sweep is a transparent spectrum:
        it has no closed-form dip and no detected one, so it writes no row."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--param", "gamma_c", "--start", "0",
                     "--stop", "3.3e7", "--steps", "3", "--grid", "1.8e9:2.3e9:4001",
                     "--output", str(out)]) == 0
        rows = [line.split(",")[1:3] for line in out.read_text().splitlines()[2:]]
        assert rows == [["1.65000000e+07", "dip"], ["1.65000000e+07", "fitted-dip"],
                        ["3.30000000e+07", "dip"], ["3.30000000e+07", "fitted-dip"]]

    def test_each_step_evaluated_once(self, tmp_path, monkeypatch):
        from qspectra import cli

        calls = []

        def counting(*args):
            calls.append(args[1])
            return compute_spectrum(*args)

        monkeypatch.setattr(cli, "compute_spectrum", counting)
        monkeypatch.setenv("QSPECTRA_THREADS", "2")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "qubit-qnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7", "--param", "g_q",
                     "--start", "5e7", "--stop", "2e8", "--steps", "5",
                     "--grid", "1.8e9:2.3e9:1001", "--output", str(out)]) == 0
        assert sorted(p.g_q for p in calls) == list(np.linspace(5e7, 2e8, 5))
        # the bytes written when the first step was evaluated twice
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "01c91da19748a2bae09abfe38a5947c226e9adee9cc38885a2b23f0c263c8066")

    def test_gridded_stlr_sweep_bytes(self, tmp_path, monkeypatch):
        """Three closed-form and three fitted dips per step, the second
        model the sweep benchmark runs; the digest was recorded before the
        one-worker sweep left the pool and the gate skipped its medians."""
        out = tmp_path / "sweep.csv"
        for threads in ("1", "2"):
            monkeypatch.setenv("QSPECTRA_THREADS", threads)
            assert main(["sweep", "--model", "stlr-qubit-qnmr", "--omega0", "2.1e9",
                         "--omega-b", "2e9", "--omega-r", "2e9", "--v-g", "3e8",
                         "--v2", "1e8", "--g-rq", "1e8", "--param", "g_q",
                         "--start", "3e7", "--stop", "1.5e8", "--steps", "5",
                         "--grid", "1.8e9:2.3e9:1001", "--output", str(out)]) == 0
            features = [line.split(",")[2] for line in out.read_text().splitlines()[2:]]
            assert features.count("fitted-dip") == features.count("dip") == 15, threads
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "cb8491cdccd8ef80681eb8c257310171eed57cf28f834268765381b3cf9fcc85"), threads

    SWEEP_ARGS = ["sweep", "--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
                  "--gamma-c", "3.3e7", "--param", "g_q", "--start", "5e7", "--stop", "2e8",
                  "--grid", "1.8e9:2.3e9:401"]

    @staticmethod
    def _recording_pool(monkeypatch, built, real=False):
        """Put a pool in place of cli.ThreadPoolExecutor that records its
        max_workers and maps in the calling thread, or through the real
        pool when real is set."""
        class Recording:
            def __init__(self, max_workers):
                built.append(max_workers)
                self.pool = ThreadPoolExecutor(max_workers) if real else None

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                if self.pool is not None:
                    self.pool.shutdown()

            def map(self, fn, values):
                return self.pool.map(fn, values) if self.pool is not None else map(fn, values)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)

    def test_one_worker_builds_no_pool(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-worker sweep built a pool")

        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
        monkeypatch.setenv("QSPECTRA_THREADS", "1")
        assert main(self.SWEEP_ARGS + ["--steps", "5", "--output", str(one)]) == 0
        built = []
        self._recording_pool(monkeypatch, built, real=True)
        monkeypatch.setenv("QSPECTRA_THREADS", "2")
        assert main(self.SWEEP_ARGS + ["--steps", "5", "--output", str(two)]) == 0
        assert built == [2]
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("threads, cpus, steps, workers", [
        ("100000", 3, 5, 3), ("100000", None, 5, None), ("3", 8, 2, 2), ("4", 8, 5, 4)])
    def test_workers_clamped_to_cpus(self, threads, cpus, steps, workers, tmp_path,
                                     monkeypatch):
        """min(QSPECTRA_THREADS, CPUs, steps) workers; os.cpu_count() of None
        counts as one CPU, which runs in the calling thread.  The recording
        pool starts no thread."""
        built = []
        self._recording_pool(monkeypatch, built)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("QSPECTRA_THREADS", threads)
        assert main(self.SWEEP_ARGS + ["--steps", str(steps),
                                       "--output", str(tmp_path / "s.csv")]) == 0
        assert built == ([] if workers is None else [workers])

    def test_bad_thread_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "s.csv"
        for threads in ("zero", "0"):
            monkeypatch.setenv("QSPECTRA_THREADS", threads)
            code = main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                         "--gamma-c", "3.3e7", "--param", "omega0", "--start", "2e9",
                         "--stop", "2.1e9", "--steps", "3",
                         "--output", str(out)])
            assert code == 1, threads
            assert "QSPECTRA_THREADS" in capsys.readouterr().err, threads
            assert not out.exists(), threads

    @pytest.mark.parametrize("cpus", [3, None])
    def test_unset_thread_env_defaults_to_cpu_count(self, cpus, tmp_path, monkeypatch):
        args = ["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                "--gamma-c", "3.3e7", "--param", "omega0",
                "--start", "2.0e9", "--stop", "2.2e9", "--steps", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("QSPECTRA_THREADS", "1")
        assert main(args + ["--output", str(a)]) == 0
        # os.cpu_count() may return None, which means one thread
        counted = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: counted.append(cpus) or cpus)
        monkeypatch.delenv("QSPECTRA_THREADS")
        assert main(args + ["--output", str(b)]) == 0
        assert counted == [cpus]
        assert a.read_bytes() == b.read_bytes()

    def test_linewidth_sweep_with_group_speed(self, tmp_path, monkeypatch):
        # the dispersive model needs both v1 and v_g, so sweeping v1 must
        # re-derive gamma_c = v1**2/v_g at each step
        monkeypatch.setenv("QSPECTRA_THREADS", "1")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "dispersive", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--g-q", "3e7", "--v1", "1e8", "--v-g", "3e8",
                     "--mean-n", "0", "--param", "v1", "--start", "5e7", "--stop", "1e8",
                     "--steps", "3", "--grid", "2.09e9:2.16e9:7001",
                     "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        fitted = [(float(r[1]), float(r[4])) for r in rows if r[2] == "fitted-dip"]
        assert [v1 for v1, _ in fitted] == [5e7, 7.5e7, 1e8]
        for v1, width in fitted:
            assert width == pytest.approx(2 * v1**2 / 3e8, rel=1e-6)

    def test_sweep_from_zero_coupling(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSPECTRA_THREADS", "1")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "qubit-qnmr", "--omega0", "2.1e9",
                     "--omega-b", "2e9", "--gamma-c", "3.3e7", "--param", "g_q",
                     "--start", "0", "--stop", "1e8", "--steps", "3",
                     "--grid", "1.8e9:2.3e9:4001", "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        fitted = [float(r[3]) for r in rows if r[2] == "fitted-dip" and float(r[1]) == 0]
        # the bare qubit's one dip
        assert fitted == [pytest.approx(2.1e9, rel=1e-6)]

    def test_invalid_swept_value_is_usage_error(self, tmp_path, capsys):
        # the same message whichever step holds the bad value
        for start, stop in (("-1", "1e7"), ("3e7", "-1")):
            code = main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                         "--gamma-c", "3.3e7", "--param", "gamma_c", "--start", start,
                         "--stop", stop, "--steps", "3",
                         "--output", str(tmp_path / "s.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: parameter 'gamma_c' must be >= 0, got -1.0\n")
            assert not (tmp_path / "s.csv").exists()

    def test_unknown_param_rejected(self, tmp_path):
        code = main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--param", "bogus", "--start", "1",
                     "--stop", "2", "--steps", "2",
                     "--output", str(tmp_path / "s.csv")])
        assert code == 1


class TestFiguresCommand:
    def test_fig3_regeneration(self, tmp_path):
        assert main(["figures", "--which", "fig3", "--outdir", str(tmp_path)]) == 0
        spectrum, config = read_spectrum_csv(tmp_path / "fig3.csv")
        assert config["figure"] == "fig3"
        assert config["params"]["g_q"] == 1e8
        dips_at = spectrum.freqs[np.argsort(spectrum.transmission)[:30]]
        assert np.any(np.abs(dips_at - 1.9382e9) < 2e6)
        first_line = (tmp_path / "fig3.csv").read_text().splitlines()[0]
        assert first_line == "# figure: fig3"

    def test_fig11_and_fig12(self, tmp_path):
        assert main(["figures", "--which", "fig11", "--outdir", str(tmp_path)]) == 0
        assert main(["figures", "--which", "fig12", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "fig11.csv").exists()
        assert (tmp_path / "fig11.json").exists()
        rows = [line for line in (tmp_path / "fig12.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "flux_over_phi0,psi_left,psi_right"

    def test_all_figures(self, tmp_path, monkeypatch):
        from qspectra import cli

        solves = []

        def counting(*args, **kwargs):
            solves.append(args)
            return solve_eigensystem(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_eigensystem", counting)
        assert main(["figures", "--which", "all", "--outdir", str(tmp_path)]) == 0
        # fig11 and fig12 share one solve of the reference circuit
        assert len(solves) == 1
        for name in ("fig2", "fig3", "fig5", "fig7", "fig8", "fig10b_stlr"):
            assert (tmp_path / f"{name}.csv").exists()
        for n in range(4):
            assert (tmp_path / f"fig4_n{n}.csv").exists()

    def test_bytes_match_reference_digests(self, tmp_path, capsys):
        references = _reference_digests()
        assert main(["figures", "--which", "all", "--outdir", str(tmp_path), "--svg"]) == 0
        expected = {key[len("figures/"):]: digest for key, digest in references.items()
                    if key.startswith("figures/")}
        assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == expected
        # each written path is printed once
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(p) for p in tmp_path.iterdir())

    def test_unknown_figure_rejected(self, tmp_path):
        assert main(["figures", "--which", "fig99", "--outdir", str(tmp_path)]) == 1


class TestSvg:
    def test_render_basic_chart(self, tmp_path):
        x = np.linspace(0, 1, 50)
        panel = Panel(series=[Series(x, np.sin(x), label="demo")],
                      xlabel="x", ylabel="y", title="t")
        write_chart(tmp_path / "c.svg", [panel, panel])
        body = (tmp_path / "c.svg").read_text()
        assert body.startswith("<svg")
        assert body.count("<polyline") == 2
        assert "demo" in body

    def test_nan_breaks_polyline(self, tmp_path):
        x = np.linspace(0, 1, 10)
        y = np.sin(x)
        y[4] = np.nan
        write_chart(tmp_path / "c.svg", [Panel(series=[Series(x, y)])])
        body = (tmp_path / "c.svg").read_text()
        assert body.count("<polyline") == 2

    def test_one_table_blocks_call_per_series(self, tmp_path, monkeypatch):
        from qspectra import svg

        calls = []

        def counting(columns, conversion, separators):
            calls.append(len(columns[0]))
            return table_blocks(columns, conversion, separators)

        monkeypatch.setattr(svg, "table_blocks", counting)
        x = np.linspace(0.0, 1.0, 3 * _BLOCK_ROWS + 1)
        broken = np.sin(x)
        broken[::3] = np.nan
        panel = Panel(series=[Series(x, broken), Series(x, np.full(len(x), np.nan)),
                              Series(x, np.cos(x))])
        write_chart(tmp_path / "c.svg", [panel])
        # every sample between two NaNs is drawn, in one call for the series
        assert calls == [len(x) - len(x[::3]), len(x)]
        body = (tmp_path / "c.svg").read_text()
        xml.dom.minidom.parseString(body)
        assert body.count("<polyline") == len(x) // 3 + 1

    def test_all_nan_series_keeps_its_label(self, tmp_path):
        panel = Panel(series=[Series([0.0, 1.0], [np.nan, np.nan], label="gone")])
        write_chart(tmp_path / "c.svg", [panel])
        body = (tmp_path / "c.svg").read_text()
        assert "<polyline" not in body and ">gone</text>" in body

    def test_one_point_run_at_either_end_draws_nothing(self, tmp_path):
        x = np.arange(7.0)
        y = np.array([1.0, np.nan, 2.0, 3.0, 4.0, np.inf, 5.0])
        write_chart(tmp_path / "c.svg", [Panel(series=[Series(x, y)])])
        polylines = re.findall(r'<polyline points="([^"]*)"', (tmp_path / "c.svg").read_text())
        assert polylines == _reference_polylines(x, y, 0)
        assert len(polylines) == 1 and polylines[0].count(",") == 3

    @pytest.mark.parametrize("y", [[1.0, 2.0], [1.0]])
    def test_series_lengths_must_match(self, y, tmp_path):
        panel = Panel(series=[Series([1.0, 2.0, 3.0], y)])
        with pytest.raises(ValueError, match=f"3 x values and {len(y)} y values"):
            write_chart(tmp_path / "c.svg", [panel])
        assert not (tmp_path / "c.svg").exists()

    def test_text_is_escaped(self, tmp_path):
        panel = Panel(series=[Series([0, 1], [0, 1], label="a<b & c")],
                      title="R&D <test>", xlabel="x > 0", ylabel='"y"')
        write_chart(tmp_path / "c.svg", [panel])
        document = xml.dom.minidom.parse(str(tmp_path / "c.svg"))
        texts = [node.firstChild.data for node in document.getElementsByTagName("text")]
        for text in ("a<b & c", "R&D <test>", "x > 0", '"y"'):
            assert text in texts

    def test_limits_of_constant_series(self):
        # padded by 5 % of the value, or by 0.5 around zero; NaN is ignored
        assert _limits(np.array([2.0, 2.0])) == pytest.approx((1.9, 2.1), rel=1e-15)
        assert _limits(np.array([-4.0, np.nan])) == pytest.approx((-4.2, -3.8), rel=1e-15)
        assert _limits(np.zeros(3)) == (-0.5, 0.5)

    def test_panel_without_series(self, tmp_path):
        write_chart(tmp_path / "empty.svg", [Panel(title="empty")])
        body = (tmp_path / "empty.svg").read_text()
        xml.dom.minidom.parseString(body)
        assert "<polyline" not in body and ">empty<" in body
        # the frame of an all-NaN series: _limits' (0, 1) on both axes
        all_nan = Panel(series=[Series([math.nan], [math.nan])], title="empty")
        write_chart(tmp_path / "nan.svg", [all_nan])
        assert body == (tmp_path / "nan.svg").read_text()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_module_entry_point(tmp_path):
    """`python -m qspectra.cli` exits with main's code: its spectrum has
    the bytes of the same run in process, and an estimate of a missing
    file exits 2."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "qspectra.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    spectrum = FIG3_ARGS + ["--noise-sigma", "0.01", "--seed", "2", "--output"]
    assert main(spectrum + [str(tmp_path / "in-process.csv")]) == 0
    module = run(*spectrum, str(tmp_path / "module.csv"))
    assert (module.returncode, module.stderr) == (0, "")
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "in-process.csv").read_bytes()
    missing = run("estimate", str(tmp_path / "missing.csv"))
    assert missing.returncode == 2 and missing.stderr.startswith("i/o error: ")


_SWEEP_OMEGA0 = ["sweep", "--model", "qubit-only", "--omega0", "2.1e9", "--gamma-c", "3.3e7",
                 "--param", "omega0", "--output", "OUT"]
_SPECTRUM_QUBIT = ["spectrum", "--model", "qubit-only", "--gamma-c", "3.3e7",
                   "--grid", "1.8e9:2.3e9:11"]
_SPECTRUM_QNMR = ["spectrum", "--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
                  "--gamma-c", "3.3e7", "--grid", "1.8e9:2.3e9:11"]


@pytest.mark.parametrize("argv, callee, error, message", [
    (["spectrum", "--model", "qubit-only", "--omega0", "2.1e9", "--gamma-c", "3.3e7",
      "--grid", "1e9:2e9:10000000000000", "--output", "OUT"], "make_frequency_grid",
     MemoryError("Unable to allocate 72.8 TiB"), "error: Unable to allocate 72.8 TiB"),
    (_SWEEP_OMEGA0 + ["--start", "2e9", "--stop", "2.1e9", "--steps", "3"],
     "analytic_features", MemoryError(), "error: out of memory"),
    (["squid", "--grid-points", "10000000001", "--output-json", "OUT"], "solve_eigensystem",
     MemoryError(), "error: out of memory"),
], ids=["spectrum", "sweep", "squid"])
def test_allocation_failure_is_usage_error(argv, callee, error, message, tmp_path,
                                           monkeypatch, capsys):
    """A grid, sweep or flux grid too large to allocate exits 1 with a
    message, not a traceback; the callee raises as numpy would."""
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, refuse)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("argv, config, field", [
    # the depth gate is a constant, not an option
    (["estimate", "CSV", "--depth-threshold", "0.2"], None,
     "unrecognized arguments: --depth-threshold 0.2"),
    (["estimate", "CSV", "--unity-tol", "0.5"], None, "tol"),
    (["estimate", "CSV", "--unity-tol", "0.2"], None,
     "unity_tol must be in (0, 0.1), got 0.2"),
    # a value the removed range check refused is refused as an unknown flag
    (["estimate", "CSV", "--depth-threshold", "1.5"], None,
     "unrecognized arguments: --depth-threshold 1.5"),
    (["squid", "--n-states", "1", "--output-json", "OUT"], None, "n_states"),
    (["squid", "--n-states", "1002", "--output-json", "OUT"], None, "n_states"),
    (["squid", "--l", "0", "--output-json", "OUT"], None, "inductance"),
    (_SWEEP_OMEGA0, {"start": 2e9, "stop": 2.1e9, "steps": "abc"}, "steps"),
    (_SWEEP_OMEGA0, {"start": "x", "stop": 2.1e9, "steps": 3}, "start"),
    (["squid", "--output-json", "OUT"], {"n_states": "two"}, "n_states"),
    (["estimate", "CSV"], {"depth_threshold": None}, "depth_threshold"),
    (_SWEEP_OMEGA0, {"start": 2e9, "stop": 2.1e9, "steps": 1.5}, "steps"),
    (["squid", "--output-json", "OUT"], {"grid_points": 1001.5}, "grid_points"),
    (["squid", "--output-json", "OUT"], {"n_states": 2.7}, "n_states"),
    (["squid", "--c-j", "inf", "--output-json", "OUT"], None, "--c-j"),
    (["squid", "--l", "inf", "--output-json", "OUT"], None, "--l"),
    (["estimate", "CSV", "--ref-g-q", "inf", "--output", "OUT"], None, "--ref-g-q"),
    (["estimate", "CSV", "--ref-omega0", "inf", "--output", "OUT"], None, "--ref-omega0"),
    (["squid", "--output-json", "OUT"], {"c_j": math.inf}, "c_j"),
    (["squid", "--output-json", "OUT"], {"c_j": True}, "c_j"),
    (_SPECTRUM_QUBIT + ["--output", "OUT"], {"omega0": True}, "omega0"),
    # an integer is not a path: open(987654) would take it as a file descriptor
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9"], {"output": 987654}, "output"),
    # a string config is written as it stands
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9", "--output", "OUT"], "{omega0: 1", "config"),
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9", "--output", "OUT"], [2.1e9], "config"),
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9", "--output", "OUT"], {"omega_zero": 1}, "omega_zero"),
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9", "--grid", "1e9:2e9", "--output", "OUT"], None,
     "grid"),
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9", "--grid", "a:b:c", "--output", "OUT"], None,
     "grid"),
    (_SPECTRUM_QUBIT + ["--omega0", "2.1e9"], None, "output"),
    (_SWEEP_OMEGA0 + ["--start", "2e9", "--stop", "2.1e9", "--steps", "0"], None, "steps"),
    # couplings whose square leaves the float range
    (_SPECTRUM_QNMR + ["--g-q", "1e300", "--output", "OUT"], None,
     "parameter 'g_q' = 1e+300 is out of range"),
    (["spectrum", "--model", "stlr-qubit", "--omega0", "2.1e9", "--omega-r", "2e9",
      "--v1", "1e300", "--v-g", "3e8", "--grid", "1.8e9:2.3e9:11", "--output", "OUT"], None,
     "parameter 'v1' = 1e+300 is out of range"),
    (["sweep", "--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
      "--gamma-c", "3.3e7", "--g-q", "3e7", "--param", "g_q", "--start", "2e7",
      "--stop", "1e300", "--steps", "3", "--output", "OUT"], None,
     "parameter 'g_q' = 5e+299 is out of range"),
    # the quantum-nmr inversion squares omega0 - omega_b as a Python float
    (["estimate", "CSV", "--ref-omega0", "1e160", "--output", "OUT"], None,
     "value out of range"),
    # model evaluations whose array arithmetic leaves the float range
    (_SPECTRUM_QNMR + ["--g-q", "1e8", "--omega0", "1e300", "--output", "OUT"], None,
     "model qubit-qnmr"),
    (_SPECTRUM_QNMR + ["--g-q", "1e8", "--gamma-c", "1e300", "--output", "OUT"], None,
     "model qubit-qnmr"),
    (["spectrum", "--model", "stlr-qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2e9",
      "--omega-r", "2.05e9", "--g-rq", "5e7", "--g-q", "5e7", "--v2", "1e150", "--v-g", "3e8",
      "--grid", "1.8e9:2.3e9:11", "--output", "OUT"], None, "model stlr-qubit-qnmr"),
    # circuits whose Hamiltonian leaves the float range, or whose flux grid
    # step rounds to 0 (about a bias of 1e30 flux quanta the grid is one value)
    (["squid", "--c-j", "1e-300", "--output-json", "OUT"], None, "capacitance 1e-300"),
    (["squid", "--flux-window", "1e-300", "--output-json", "OUT"], None,
     "flux_window 1e-300"),
    (["squid", "--flux-window", "1e300", "--output-json", "OUT"], None,
     "flux_window 1e+300"),
    (["squid", "--phi-e-over-phi0", "1e30", "--output-json", "OUT"], None, "bias_flux"),
    # the float spacing of the flux grid is above 1e-6 of its step
    (["squid", "--phi-e-over-phi0", "1e10", "--output-json", "OUT"], None,
     "bias_flux 2.067833848e-05 with flux_window 1.0"),
    (["squid", "--phi-e-over-phi0", "1e13", "--output-json", "OUT"], None,
     "with flux_window 1.0 and grid_points 1001: the float spacing"),
], ids=["depth-flag", "unity-tol-flag", "unity-tol-value-flag", "depth-value-flag",
        "n-states-flag", "n-states-above-grid-flag",
        "zero-inductance-flag", "steps-config", "start-config", "n-states-config",
        "null-depth-config",
        "fractional-steps-config", "fractional-grid-points-config",
        "fractional-n-states-config", "inf-c-j-flag", "inf-l-flag",
        "inf-ref-g-q-flag", "inf-ref-omega0-flag", "inf-c-j-config",
        "bool-c-j-config", "bool-omega0-config", "int-output-config",
        "non-json-config", "array-config", "unknown-key-config", "two-part-grid-flag",
        "non-numeric-grid-flag", "missing-output", "zero-steps-flag",
        "overflow-g-q-flag", "overflow-v1-flag", "overflow-stop-flag",
        "overflow-ref-omega0-flag", "overflow-omega0-flag", "overflow-gamma-c-flag",
        "overflow-v2-flag", "tiny-c-j-flag", "tiny-flux-window-flag",
        "huge-flux-window-flag", "collapsed-grid-flag", "coarse-bias-flag",
        "coarser-bias-flag"])
def test_bad_value_is_usage_error(argv, config, field, qnmr_spectrum, tmp_path, capsys):
    """An out-of-range or wrongly typed value exits 1 naming its field,
    whether it comes from a flag or from the config file; a coupling
    whose square leaves the float range exits 1 naming its field and
    saying so, not with a traceback, and so does an inversion, a model
    evaluation or a circuit whose arithmetic leaves it."""
    csv, out = tmp_path / "s.csv", tmp_path / "out"
    write_spectrum_csv(csv, qnmr_spectrum)
    argv = [{"CSV": str(csv), "OUT": str(out)}.get(arg, arg) for arg in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and field in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["estimate", "CSV"], "--output"),
    (["squid"], "--output-json"),
], ids=["estimate", "squid"])
def test_stdout_matches_output_file(argv, flag, qnmr_spectrum, tmp_path, capsys):
    """Without an output path, the document goes to stdout byte for byte."""
    csv, out = tmp_path / "s.csv", tmp_path / "out.json"
    write_spectrum_csv(csv, qnmr_spectrum)
    argv = [str(csv) if arg == "CSV" else arg for arg in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + [flag, str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_one_spectrum_check_per_spectrum(monkeypatch):
    """bench/tracer.py times every spectrum's checks as one call of
    Spectrum.__post_init__; a package route reaches that call, and any
    wrapper around it, as an argument."""
    from qspectra import params

    calls = []
    check = params.Spectrum.__post_init__

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        return check(self, *args, **kwargs)

    monkeypatch.setattr(params.Spectrum, "__post_init__", counted)
    freqs = make_frequency_grid(1.8e9, 2.3e9, 101)
    Spectrum(freqs=freqs, transmission=np.full(101, 0.25), phase=np.zeros(101))
    Spectrum.from_amplitude(freqs, np.full(101, 0.5 + 0j))
    clean = compute_spectrum(ModelKind.QUBIT_ONLY,
                             ModelParams(omega0=2.1e9, gamma_c=GAMMA_C), freqs)
    add_measurement_noise(clean, 0.01, 1)
    adopted = {"route": "amplitude"}
    assert calls == [((), {}), ((), adopted), ((), adopted), ((), {"route": "noise"})]


def test_tracer_hook_names_stay_bound():
    """bench/tracer.py patches these attributes by name; renaming one makes
    `python3 bench/run.py --trace 1` fail with AttributeError."""
    import inspect

    from qspectra import cli, estimate, io, models, params, squid, svg

    for owner, name in ((estimate, "least_squares"), (estimate, "find_peaks"),
                        (cli, "ThreadPoolExecutor"), (squid, "eigh_tridiagonal"),
                        (params.Spectrum, "__post_init__")):
        assert callable(getattr(owner, name, None)), name
    # the tracer rebinds each writer by identity and reads the size of the
    # file named by its first positional argument
    for module, name in ((io, "write_spectrum_csv"), (io, "write_wavefunction_csv"),
                         (svg, "write_chart")):
        writer = getattr(module, name)
        assert writer.__module__ == module.__name__ and writer.__name__ == name
        assert list(inspect.signature(writer).parameters)[0] == "path", name
    # the tracer rebinds each kernel under its __name__ in models and in
    # AMPLITUDES, and derives AMPLITUDE_KERNELS from those names
    for kind, fn in models.AMPLITUDES.items():
        assert getattr(models, fn.__name__) is fn, kind
    assert set(models.AMPLITUDES) == set(models.REQUIRED_PARAMS) == set(models.ModelKind)
