"""File formats: spectrum CSV, report JSON, and the circuit solver outputs.

CSV files are comma separated with '#'-prefixed comment lines; the first
comment lines carry the generating configuration as a JSON object so every
file is self-describing.  Numbers are written as ``%.8e`` (9 significant
digits), so identical configurations give byte identical files.  Every
CSV file is written here, as bytes, below the comment and header lines of
``_csv_head``.  The numeric tables (spectrum, wavefunction, ``fig12``) are
the blocks of rows ``_numtext.table_blocks`` formats in whole-array numpy
with CPython's bytes.  The sweep table mixes names and numbers, so CPython
formats it row by row.  ``read_spectrum_csv`` reads a file once, in
blocks of about 256 KiB of bytes cut at line ends; rows in the writers'
exact ``%.8e`` form are parsed a block at a time in whole-array numpy by
``_numtext.parse_scientific``, bit-identical to numpy.loadtxt.  A block
in any other form sends the whole file, read again, to numpy.loadtxt.
Each block's table is checked as it is parsed, and only the columns the
spectrum keeps are kept of it (omega and the complex amplitude for a
clean file; omega, T and phase_rad for a noisy one), each joined once at
the end of the file.
JSON documents carry a schema_version and readers reject unknown major
versions.  A figure CSV's config names its figure in a "figure" key, and
``_csv_head`` repeats it in a '# figure:' line.
"""

from __future__ import annotations

import codecs
import io
import itertools
import json
from typing import Optional

import numpy as np

from ._numtext import parse_scientific, table_blocks
from .constants import FLUX_QUANTUM
from .params import Spectrum
from .squid import EigenSolution, potential

SCHEMA_VERSION = "1.0"

SPECTRUM_COLUMNS = ("omega", "T", "phase_rad", "re_t", "im_t")
WAVEFUNCTION_COLUMNS = ("flux_over_phi0", "U_joules", "psi0", "psi1")


def _csv_head(names, config: Optional[dict] = None) -> bytes:
    """The optional comment lines and the header row: '# figure:' with the
    config's "figure" value when it has that key, then '# config:'."""
    lines = []
    if config is not None:
        if "figure" in config:
            lines.append(f"# figure: {config['figure']}")
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.append(",".join(names))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_csv(path, names, columns, config: Optional[dict] = None) -> None:
    """Write a CSV file as bytes: the head, then one row of '%.8e' numbers
    per element of the columns, a block of rows at a time."""
    with open(path, "wb") as handle:
        handle.write(_csv_head(names, config))
        handle.writelines(table_blocks(columns, "%.8e", "," * (len(names) - 1) + "\n"))


def _write_sweep_csv(path, param: str, rows, config: dict) -> None:
    """Write the sweep table: one param,value,feature,frequency,width row per
    (value, feature, frequency, width) in rows, numbers as '%.8e'."""
    head = _csv_head(("param", "value", "feature", "frequency", "width"), config)
    body = "".join(f"{param},{value:.8e},{feature},{freq:.8e},{width:.8e}\n"
                   for value, feature, freq, width in rows)
    with open(path, "wb") as handle:
        handle.write(head + body.encode("utf-8"))


def write_spectrum_csv(path, spectrum: Spectrum, config: Optional[dict] = None) -> None:
    """Write a spectrum CSV (columns omega, T, phase_rad, re_t, im_t; the
    amplitude columns are NaN for noisy spectra)."""
    amp = spectrum.amplitude
    if amp is None:
        re = im = np.broadcast_to(np.nan, spectrum.n_points)
    else:
        re, im = amp.real, amp.imag
    _write_csv(path, SPECTRUM_COLUMNS,
               (spectrum.freqs, spectrum.transmission, spectrum.phase, re, im), config)


# bytes read_spectrum_csv reads at a time, then on to the next line end:
# only one block's text and table are held while its rows are parsed
_READ_BYTES = 1 << 18

_T_RANGE = "transmission outside [0, 1] or not a number"
_PARTLY_FINITE = "re_t/im_t are finite on some rows only"
_ABOVE_ONE = "|amplitude| above 1"
_T_DISAGREES = "T disagrees with |re_t + i im_t|**2"
_PHASE_DRIFT = "phase_rad disagrees with arg(re_t + i im_t)"


def read_spectrum_csv(path) -> tuple[Spectrum, Optional[dict]]:
    """Parse a spectrum CSV; returns the spectrum and the embedded config
    (None when the file carries none).  Raises ValueError on malformed
    content.

    One leading UTF-8 byte order mark is dropped.  Blank and '#' comment
    lines above the header row are skipped, and a '# config:' line among
    them is the config.  The file is read once, front to back, in blocks
    of about 256 KiB cut at line ends; the first block, grown until it
    holds the header row and the first data row, gives the head.  Rows in
    the exact form the writers give them ('%.8e' cells, ',' and '\\n') are
    parsed block by block in whole-array numpy by
    ``_numtext.parse_scientific``, which gives numpy.loadtxt's values bit
    for bit; a last row with no line end is parsed, and rejected, too.
    The first block parse_scientific rejects sends the whole file, read
    again from its start, to numpy.loadtxt, which reads the rows as they
    stand: a '#' starts a comment anywhere in a line and empty lines are
    skipped.  An error in the head is raised from the whole file read
    again too, so each message is the one its whole text gives.  Either
    way the rows go into a ``_Rows``, which checks each parsed table as it
    comes and keeps only the columns the spectrum keeps, each joined once
    at the end of the file; a failed check is raised there, the first in
    a fixed order whichever block it failed in.  A 100001-point read peaks
    at 3.9 MiB of allocations (tracemalloc) for a clean file, of which
    the spectrum keeps 3.8 MiB, and at 4.1 MiB for a noisy one."""
    with open(path, "rb") as source:
        if not source.seekable():  # a pipe: held whole, so that it can be read again
            source = io.BytesIO(source.read())
        try:
            config, rows = _parse_blocks(path, source)
        except ValueError:  # UnicodeDecodeError too: the whole file's text gives the message
            rows = None
        if rows is None:
            source.seek(0)
            config, rows = _loadtxt_rows(path, source.read())
    try:
        return rows.spectrum(), config
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


class _Rows:
    """The rows of a file with columns `header`, checked a parsed table at
    a time by `add`, kept as the columns its spectrum keeps.  While every
    row is finite in re_t and im_t (a clean file) those are the omega
    column and the amplitude re_t + 1j * im_t, built per table as
    ``np.multiply(1j, im_t)`` and then ``+= re_t``, so the bits, signed
    zeros too, are those of the whole columns; while none is (a noisy
    file, whose NaN columns are never made complex), omega, T clipped to
    [0, 1] and phase_rad.  A file finite on some rows only keeps none.
    `failed` holds the messages of the checks some table failed."""

    def __init__(self, header):
        names = SPECTRUM_COLUMNS if "re_t" in header and "im_t" in header else SPECTRUM_COLUMNS[:3]
        self.index = [header.index(name) for name in names]
        self.rows = self.finite = 0
        self.failed = set()
        self.kept = {}

    def add(self, table: Optional[np.ndarray]) -> bool:
        """Check the rows of `table` and keep their columns; False when it
        is None."""
        if table is None:
            return False
        omega, trans, phase_rad, *parts = (table[:, i] for i in self.index)
        if not np.all((trans >= -1e-6) & (trans <= 1 + 1e-6)):  # false for NaN too
            self.failed.add(_T_RANGE)
        finite = np.count_nonzero(np.isfinite(parts[0]) & np.isfinite(parts[1])) if parts else 0
        self.rows += len(table)
        self.finite += finite
        if 0 < self.finite < self.rows:  # for good: no spectrum to keep
            self.failed.add(_PARTLY_FINITE)
            self.kept.clear()
            return True
        if finite:
            kept = {"omega": omega, "amplitude": self._amplitude(trans, phase_rad, *parts)}
        else:
            kept = {"omega": omega, "T": np.clip(trans, 0.0, 1.0), "phase_rad": phase_rad}
        for name, column in kept.items():
            self.kept.setdefault(name, []).append(np.ascontiguousarray(column))
        return True

    def _amplitude(self, trans, phase_rad, re_t, im_t) -> np.ndarray:
        """re_t + 1j * im_t of one table's rows, on the unit circle where
        its magnitude is above 1, after the checks against T and
        phase_rad."""
        amp = np.multiply(1j, im_t)
        amp += re_t
        magnitude = np.abs(amp)
        if np.any(magnitude > 1 + 1e-6):
            self.failed.add(_ABOVE_ONE)
        gap = np.square(magnitude)
        np.subtract(trans, gap, out=gap)
        if np.any(np.abs(gap, out=gap) > 1e-6):
            self.failed.add(_T_DISAGREES)
        # rounding re_t/im_t to 9 digits can lift |t|**2 a few 1e-10 above 1;
        # put such points back on the unit circle so that T rebuilt from the
        # amplitude stays |amplitude|**2 in [0, 1]
        over = magnitude > 1.0
        amp[over] /= magnitude[over]
        # the spectrum rebuilds T and the phase from the amplitude, with
        # which the rounded columns may disagree at the last digit; the
        # phase difference is taken modulo 2 pi, so that phases pi and -pi
        # agree; a NaN or infinite phase_rad disagrees too (inf - inf is
        # NaN, unwarned)
        drift = np.subtract(phase_rad, np.angle(amp))
        turns = np.divide(drift, 2.0 * np.pi)
        np.round(turns, out=turns)
        turns *= 2.0 * np.pi
        with np.errstate(invalid="ignore"):
            drift -= turns
        if not np.all(np.abs(drift, out=drift) <= 1e-6):
            self.failed.add(_PHASE_DRIFT)
        return amp

    def spectrum(self) -> Spectrum:
        """The spectrum of the rows added, which adopts their joined
        columns; ValueError with the first failed check's message."""
        for message in (_T_RANGE, _PARTLY_FINITE, _ABOVE_ONE, _T_DISAGREES):
            if message in self.failed:
                raise ValueError(message)
        # one column at a time, each joined once, so that only one column's
        # pieces and its whole are held beside the others
        column = {name: np.concatenate(self.kept.pop(name)) for name in list(self.kept)}
        if "amplitude" not in column:
            return Spectrum._adopt(column["omega"], column["T"], column["phase_rad"],
                                   route="file")
        spectrum = Spectrum._adopt_amplitude(column["omega"], column["amplitude"])
        if _PHASE_DRIFT in self.failed:
            raise ValueError(_PHASE_DRIFT)
        return spectrum


def _parse_blocks(path, source):
    """The config and the rows of the file `source`, read a block at a
    time; the rows are None when parse_scientific rejects a block.
    Raises ValueError, or UnicodeDecodeError, when the head is malformed
    or the file has no data row."""
    block = _read_block(source, _READ_BYTES)
    config, header, first_row, _ = _head(path, _text(block))
    while first_row is None and (more := _read_block(source, len(block))):
        block += more
        config, header, first_row, _ = _head(path, _text(block))
    _check_header(path, header, first_row)
    rows = _Rows(header)
    start = _row_offset(block, first_row)
    while len(block) > 1:
        # the block and its table are dropped before the next block is read
        if not rows.add(parse_scientific(block, len(header), start)):
            return config, None
        del block
        # parse_scientific reads the line end before a block's first row
        block, start = b"\n" + _read_block(source, _READ_BYTES), 1
    return config, rows


def _read_block(source, size: int) -> bytes:
    """The next `size` bytes of `source` and the rest of the line they end
    in; empty at the end of the file."""
    return source.read(size) + source.readline()


def _text(content: bytes) -> io.TextIOWrapper:
    # utf-8-sig drops one leading byte order mark and decodes as utf-8
    return io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig")


def _head(path, handle):
    """The config, the header and the line number and line of the first
    data row (None, None when `handle` has no data row) of the lines of
    `handle`."""
    config = None
    header = None
    for number, raw in enumerate(handle):
        line = raw.strip()
        if not line:
            continue
        if header is None and line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config:"):
                try:
                    config = json.loads(body[len("config:"):])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: malformed config line: {exc}") from exc
        elif header is None:
            header = [c.strip() for c in line.split(",")]
        elif not line.startswith("#"):
            return config, header, number, raw
    return config, header, None, None


def _check_header(path, header, first_row) -> None:
    """ValueError unless there is a data row and the header names each
    column once, omega, T and phase_rad among them."""
    if first_row is None:
        raise ValueError(f"{path}: no data rows found")
    for name in header:
        if header.count(name) > 1:
            raise ValueError(f"{path}: duplicate column '{name}'")
    for required in ("omega", "T", "phase_rad"):
        if required not in header:
            raise ValueError(f"{path}: missing column '{required}'")


def _loadtxt_rows(path, content: bytes):
    """The config and the rows of the file `content`, read by
    numpy.loadtxt as one table."""
    handle = _text(content)
    try:
        config, header, first_row, raw = _head(path, handle)
        _check_header(path, header, first_row)
        try:
            data = np.loadtxt(itertools.chain([raw], handle), dtype=float,
                              delimiter=",", comments="#", ndmin=2)
        except ValueError:
            handle.seek(0)
            rows = (line.split("#", 1)[0].rstrip("\n")
                    for line in itertools.islice(handle, first_row, None))
            if {row.count(",") for row in rows if row} != {len(header) - 1}:
                raise ValueError(f"{path}: ragged rows") from None
            raise ValueError(f"{path}: non-numeric value") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: ragged rows")
    rows = _Rows(header)
    rows.add(data)
    return config, rows


def _row_offset(content: bytes, first_row: int) -> int:
    """The byte offset of line `first_row` of `content`, counting lines as
    text mode does, after a leading byte order mark; len(content) when a
    carriage return above it could end a line there, so that no row goes
    to parse_scientific."""
    offset = len(codecs.BOM_UTF8) if content.startswith(codecs.BOM_UTF8) else 0
    for _ in range(first_row):
        offset = content.find(b"\n", offset) + 1
        if offset == 0:  # the lines end in carriage returns alone
            return len(content)
    return len(content) if b"\r" in content[:offset] else offset


def _json_text(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def report_json_text(report, extra: Optional[dict] = None) -> str:
    document = {"schema_version": SCHEMA_VERSION}
    document.update(report.to_dict())
    if extra:
        document.update(extra)
    return _json_text(document)


def check_schema_version(document: dict, source: str = "document") -> None:
    """Reject documents whose schema major version is unknown."""
    version = document.get("schema_version")
    if not isinstance(version, str):
        raise ValueError(f"{source}: missing schema_version")
    major = version.split(".")[0]
    if major != SCHEMA_VERSION.split(".")[0]:
        raise ValueError(
            f"{source}: unsupported schema major version {version!r}"
        )


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    check_schema_version(document, source=str(path))
    return document


def squid_summary(sol: EigenSolution) -> dict:
    spec = sol.spec
    return {
        "schema_version": SCHEMA_VERSION,
        "E0_joules": float(sol.energies[0]),
        "E1_joules": float(sol.energies[1]),
        "energies_joules": [float(e) for e in sol.energies],
        "omega0_rad_per_s": sol.omega0,
        "persistent_current_amps": sol.persistent_current,
        "current_diag_0_amps": sol.current_diag_0,
        "current_diag_1_amps": sol.current_diag_1,
        "circuit": {
            "capacitance_farads": spec.capacitance,
            "inductance_henries": spec.inductance,
            "critical_current_amps": spec.critical_current,
            "bias_flux_webers": spec.bias_flux,
            "grid_points": spec.grid_points,
            "flux_window": spec.flux_window,
        },
    }


def squid_json_text(sol: EigenSolution) -> str:
    return _json_text(squid_summary(sol))


def write_wavefunction_csv(path, sol: EigenSolution, config: Optional[dict] = None) -> None:
    """Write the wavefunction CSV (columns flux_over_phi0, U_joules, psi0,
    psi1)."""
    columns = (sol.flux_grid / FLUX_QUANTUM, potential(sol.flux_grid, sol.spec),
               sol.wavefunctions[0], sol.wavefunctions[1])
    _write_csv(path, WAVEFUNCTION_COLUMNS, columns, config)


__all__ = [
    "SCHEMA_VERSION",
    "SPECTRUM_COLUMNS",
    "WAVEFUNCTION_COLUMNS",
    "check_schema_version",
    "load_report",
    "read_spectrum_csv",
    "report_json_text",
    "squid_json_text",
    "squid_summary",
    "write_spectrum_csv",
    "write_wavefunction_csv",
]
