"""File formats: spectrum CSV, report JSON, and the circuit solver outputs.

CSV files are comma separated with '#'-prefixed comment lines; the first
comment lines carry the generating configuration as a JSON object so every
file is self-describing.  Numbers are written as ``%.8e`` (9 significant
digits), so identical configurations give byte identical files.  Every
CSV file is written here, as bytes, below the comment and header lines of
``_csv_head``.  The numeric tables (spectrum, wavefunction, ``fig12``) are
the blocks of rows ``_numtext.table_blocks`` formats in whole-array numpy
with CPython's bytes.  The sweep table mixes names and numbers, so CPython
formats it row by row.  ``read_spectrum_csv`` reads a file once, as
bytes; rows in the writers' exact ``%.8e`` form are parsed in whole-array
numpy by ``_numtext.parse_scientific``, bit-identical to numpy.loadtxt,
and any other rows by numpy.loadtxt.  JSON documents carry a
schema_version and readers reject unknown major versions.  A figure
CSV's config names its figure in a "figure" key, and ``_csv_head``
repeats it in a '# figure:' line.
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


def read_spectrum_csv(path) -> tuple[Spectrum, Optional[dict]]:
    """Parse a spectrum CSV; returns the spectrum and the embedded config
    (None when the file carries none).  Raises ValueError on malformed
    content.

    The file is read once, as bytes; one leading UTF-8 byte order mark is
    dropped.  Blank and '#' comment lines above the header row are
    skipped, and a '# config:' line among them is the config.  Rows in
    the exact form the writers give them ('%.8e' cells, ',' and '\\n') are
    parsed in whole-array numpy by ``_numtext.parse_scientific``, which
    gives numpy.loadtxt's values bit for bit.  Any other rows go to
    numpy.loadtxt as they stand: a '#' starts a comment anywhere in a line
    and empty lines are skipped."""
    with open(path, "rb") as source:
        content = source.read()
    # utf-8-sig drops one leading byte order mark and decodes as utf-8
    handle = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig")
    config = None
    header = None
    first_row = None
    try:
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
                first_row = number
                break
        if first_row is None:
            raise ValueError(f"{path}: no data rows found")
        for name in header:
            if header.count(name) > 1:
                raise ValueError(f"{path}: duplicate column '{name}'")
        for required in ("omega", "T", "phase_rad"):
            if required not in header:
                raise ValueError(f"{path}: missing column '{required}'")
        data = parse_scientific(content, len(header), _row_offset(content, first_row))
        if data is None:
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
    # a large file's bytes would outlive their parse while the spectrum is built
    del content, handle
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: ragged rows")
    column = {name: data[:, i] for i, name in enumerate(header)}
    trans = column["T"]
    if not np.all((trans >= -1e-6) & (trans <= 1 + 1e-6)):  # false for NaN too
        raise ValueError(f"{path}: transmission outside [0, 1] or not a number")
    trans = np.clip(trans, 0.0, 1.0)
    try:
        if "re_t" in column and "im_t" in column:
            amp = column["re_t"] + 1j * column["im_t"]
            finite = np.isfinite(amp)
            if np.all(finite):
                # rounding re_t/im_t to 9 digits can lift |t|**2 a few 1e-10
                # above 1; put such points back on the unit circle so that T
                # rebuilt from the amplitude stays |amplitude|**2 in [0, 1]
                magnitude = np.abs(amp)
                if np.any(magnitude > 1 + 1e-6):
                    raise ValueError("|amplitude| above 1")
                if np.any(np.abs(column["T"] - magnitude**2) > 1e-6):
                    raise ValueError("T disagrees with |re_t + i im_t|**2")
                over = magnitude > 1.0
                amp[over] /= magnitude[over]
                # rebuild T/phase from the amplitude: the rounded T/phase
                # columns may disagree with it at the last digit
                spectrum = Spectrum.from_amplitude(column["omega"], amp)
                # the difference modulo 2 pi, so that phases pi and -pi
                # agree; a NaN phase_rad disagrees too
                drift = column["phase_rad"] - spectrum.phase
                drift -= 2.0 * np.pi * np.round(drift / (2.0 * np.pi))
                if not np.all(np.abs(drift) <= 1e-6):
                    raise ValueError("phase_rad disagrees with arg(re_t + i im_t)")
                return spectrum, config
            if np.any(finite):
                raise ValueError("re_t/im_t are finite on some rows only")
        return (
            Spectrum(freqs=column["omega"], transmission=trans,
                     phase=column["phase_rad"], amplitude=None),
            config,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
