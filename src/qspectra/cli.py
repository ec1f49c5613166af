"""Command-line front end.

Subcommands: spectrum | estimate | squid | sweep | figures.  Every
option of spectrum, estimate, squid and sweep can also come from a JSON
config file (--config); a config value is converted by its flag's type,
and explicit flags override file values; a real-valued option must be a
finite number.  A sweep runs min(QSPECTRA_THREADS, CPUs, steps) workers,
QSPECTRA_THREADS defaulting to the CPU count; one worker runs the steps
in the calling thread.  Outputs are byte-identical for identical
configurations, including the noise seed.

Each artifact has one writer, which its subcommand and `figures` share:
``_write_spectrum`` and ``_write_squid``.  The estimate and squid JSON
documents go to stdout when no output path is given.

Exit codes, mapped in main alone: 0 success; 1 usage or configuration
error, which takes in every out-of-range or wrongly typed value, from a
flag or from the config file, a grid or sweep too large to allocate, and
a value whose arithmetic leaves the float range;
2 I/O error, where the only data error is a spectrum file that cannot be
read or parsed; 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import io as qio
from . import svg
from .constants import FLUX_QUANTUM
from .estimate import (
    InconsistentFeaturesError,
    add_measurement_noise,
    detect_dips,
    estimate_report,
)
from .models import (
    ModelDomainError,
    ModelKind,
    analytic_features,
    compute_spectrum,
)
from .params import ModelParams, make_frequency_grid
from .squid import (
    BoundaryLeakageError,
    CircuitSpec,
    ConvergenceError,
    circulating_current_states,
    matched_critical_current,
    potential,
    reference_circuit,
    solve_eigensystem,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _FileFormatError(Exception):
    """A spectrum file that exists but does not parse: exit 2, like OSError."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument that matches this for a negative number,
        # not a flag; its own pattern has no exponent and no -inf or -nan,
        # which would make the -1e8 of '--start -1e8' a flag.  The
        # subcommands' parsers are of this class too.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")

    # argparse exits with 2 on bad usage; this tool reserves 2 for I/O
    def error(self, message):
        raise UsageError(message)


def thread_cap() -> int:
    """The most sweep workers: QSPECTRA_THREADS, at most the CPU count,
    or the CPU count when it is unset.  The steps are GIL-bound, so more
    threads than CPUs only add switching."""
    raw = os.environ.get("QSPECTRA_THREADS", "")
    cpus = os.cpu_count() or 1
    if raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"QSPECTRA_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise UsageError("QSPECTRA_THREADS must be >= 1")
        return min(value, cpus)
    return cpus


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))

# estimate's real-valued options, each mapped to its estimate_report parameter
_ESTIMATE_OPTIONS = {
    "ref_omega0": "reference_omega0", "ref_omega_b": "reference_omega_b",
    "ref_g_q": "reference_g_q", "ref_delta": "reference_delta",
    "b0": "field", "i_p": "persistent_current", "nmr_length": "nmr_length",
    "unity_tol": "unity_tol",
}


def _add_float_flags(parser: argparse.ArgumentParser, names) -> None:
    """One real-valued --flag-name per name, in order, with the name as dest."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=_parse_float, default=None)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return data


def _merged(args) -> dict:
    """Config-file values, each converted by its flag's type, overridden by
    explicit flags.  The subcommand's flags are the keys a file may set."""
    file_values = _load_config(args.config)
    unknown = set(file_values) - set(args.flag_types)
    if unknown:
        raise UsageError(f"unknown config key(s): {sorted(unknown)}")
    merged = {}
    for key, value in file_values.items():
        try:
            merged[key] = args.flag_types[key](value)
        except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    for key in args.flag_types:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be START:STOP:N, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid must be numeric START:STOP:N, got {text!r}") from exc
    return make_frequency_grid(start, stop, n)


def _require(options: dict, *keys: str) -> tuple:
    """The values of keys, each of which must be set and not empty."""
    for key in keys:
        if options.get(key) in (None, ""):
            raise UsageError(f"missing required option: {key}")
    return tuple(options[key] for key in keys)


def _model_kind(options: dict) -> ModelKind:
    (name,) = _require(options, "model")
    try:
        return ModelKind(name)
    except ValueError as exc:
        names = ", ".join(k.value for k in ModelKind)
        raise UsageError(f"unknown model {name!r}; choose from: {names}") from exc


def _parse_float(value, name: str = "value") -> float:
    """Type of the real-valued options: a finite number, not a boolean."""
    try:
        # float() would read True as 1.0
        if isinstance(value, bool):
            raise ValueError
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"{name} must be finite, got {number}")
    return number


def _parse_noise_sigma(value) -> float:
    """Type of --noise-sigma: finite and >= 0; 0 means a clean spectrum."""
    sigma = _parse_float(value, "noise_sigma")
    if sigma < 0:
        raise argparse.ArgumentTypeError(f"noise_sigma must be >= 0, got {sigma}")
    return sigma


def _parse_text(value) -> str:
    """Type of the options without one (names, paths, grids): a string."""
    if not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"expected a string, got {value!r}")
    return value


def _parse_int(value) -> int:
    """Type of the integer options; a JSON config may give 5.0 but not 1.5."""
    try:
        # int() would read True as 1 and truncate 1.5 to 1
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from exc


def _parse_seed(value) -> int:
    """Type of --seed: a non-negative integer."""
    seed = _parse_int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value!r}")
    return seed


def _write_text(path: Optional[str], text: str) -> None:
    """Write a document to path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_spectrum(spectrum, path, svg_path, title, config) -> None:
    """The spectrum CSV, and its transmission/phase chart given svg_path."""
    qio.write_spectrum_csv(path, spectrum, config=config)
    if svg_path:
        svg.write_chart(svg_path, svg.spectrum_panels(spectrum, title=title))


def _write_squid(sol, json_path, csv_path, svg_path, config=None) -> None:
    """The circuit summary JSON (to stdout without json_path), and the
    wavefunction CSV and the potential chart where their paths are given."""
    _write_text(json_path, qio.squid_json_text(sol))
    if csv_path:
        qio.write_wavefunction_csv(csv_path, sol, config=config)
    if svg_path:
        u = potential(sol.flux_grid, sol.spec)
        # wavefunctions drawn offset by their energies, scaled into the well depth
        scale = 0.25 * (np.max(u) - np.min(u)) / max(np.max(np.abs(sol.wavefunctions[0])), 1e-300)
        curves = [(u, "potential")] + [
            (sol.energies[n] + scale * sol.wavefunctions[n], f"state {n}") for n in (0, 1)
        ]
        _write_flux_chart(svg_path, sol, curves, "energy (J)", "loop potential and lowest doublet")


def _write_flux_chart(path, sol, curves, ylabel: str, title: str) -> None:
    """One panel of (y, label) curves over the solver's flux grid."""
    x = sol.flux_grid / FLUX_QUANTUM
    panel = svg.Panel(series=[svg.Series(x, y, label=label) for y, label in curves],
                      xlabel="flux / flux quantum", ylabel=ylabel, title=title)
    svg.write_chart(path, [panel], panel_height=420)


def cmd_spectrum(args) -> int:
    options = _merged(args)
    kind = _model_kind(options)
    params = ModelParams(**{k: options.get(k) for k in PARAM_FIELDS})
    grid_text, output = _require(options, "grid", "output")
    sigma = options.get("noise_sigma", 0.0)
    seed = options.get("seed", 0)
    # no name holds the parsed grid: compute_spectrum frees it once it has
    # taken the spectrum's own copy
    spectrum = compute_spectrum(kind, params, _parse_grid(grid_text))
    if sigma > 0:
        spectrum = add_measurement_noise(spectrum, sigma, seed)
    config = {
        "command": "spectrum",
        "model": kind.value,
        "params": params.to_dict(),
        "grid": grid_text,
    }
    if sigma > 0:
        config["noise"] = {"sigma": sigma, "seed": seed}
    _write_spectrum(spectrum, output, options.get("svg"), kind.value, config)
    return EXIT_OK


def cmd_estimate(args) -> int:
    options = _merged(args)
    for key in ("ref_g_q", "ref_delta"):
        # the phonon ladder spacing is g_q**2/delta
        if options.get(key) == 0:
            raise UsageError(f"--{key.replace('_', '-')} must be nonzero")
    try:
        spectrum, _ = qio.read_spectrum_csv(args.input)
    except ValueError as exc:
        raise _FileFormatError(str(exc)) from exc
    # ambiguity is data, not failure: estimate_report encodes it in the
    # model_class and this command still exits 0; an option not given
    # keeps estimate_report's default
    given = {param: options[key] for key, param in _ESTIMATE_OPTIONS.items() if key in options}
    report = estimate_report(spectrum, **given)
    text = qio.report_json_text(report, extra={"input": str(args.input)})
    _write_text(options.get("output"), text)
    return EXIT_OK


def cmd_squid(args) -> int:
    options = _merged(args)
    base = reference_circuit()
    inductance = options.get("l", base.inductance)
    critical = options.get("i_c")
    bias = options.get("phi_e_over_phi0")
    spec = CircuitSpec(
        capacitance=options.get("c_j", base.capacitance),
        inductance=inductance,
        critical_current=matched_critical_current(inductance) if critical is None else critical,
        bias_flux=base.bias_flux if bias is None else bias * FLUX_QUANTUM,
        grid_points=options.get("grid_points", base.grid_points),
        flux_window=options.get("flux_window", base.flux_window),
    )
    sol = solve_eigensystem(spec, **{k: options[k] for k in ("n_states",) if k in options})
    _write_squid(sol, options.get("output_json"), options.get("output_csv"), options.get("svg"))
    return EXIT_OK


def _sweep_rows(kind, params, name, value, freqs):
    point = params.replace(**{name: value})
    rows = []
    features = analytic_features(kind, point)
    for freq, width in zip(features.dips,
                           list(features.fwhm) + [math.nan] * len(features.dips)):
        rows.append((value, "dip", freq, width))
    for freq in features.unity_points:
        rows.append((value, "unity", freq, math.nan))
    if freqs is not None:
        spectrum = compute_spectrum(kind, point, freqs)
        for dip in detect_dips(spectrum):
            rows.append((value, "fitted-dip", dip.center, dip.fwhm))
    return rows


def cmd_sweep(args) -> int:
    options = _merged(args)
    kind = _model_kind(options)
    params = ModelParams(**{k: options.get(k) for k in PARAM_FIELDS})
    name = options.get("param")
    if name not in PARAM_FIELDS:
        raise UsageError(f"param must be one of {PARAM_FIELDS}, got {name!r}")
    start, stop, steps, output = _require(options, "start", "stop", "steps", "output")
    if steps < 1:
        raise UsageError("steps must be >= 1")
    values = np.linspace(start, stop, steps)
    grid = options.get("grid") or None
    freqs = _parse_grid(grid) if grid else None
    workers = min(thread_cap(), len(values))

    def step(value):
        return _sweep_rows(kind, params, name, float(value), freqs)

    if workers == 1:
        # a pool of one would run the same steps in order, plus a handoff each
        results = list(map(step, values))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(step, values))
    config = {"command": "sweep", "model": kind.value, "param": name, "start": start,
              "stop": stop, "steps": steps, "params": params.to_dict(), "grid": grid}
    qio._write_sweep_csv(output, name, [row for rows in results for row in rows], config)
    return EXIT_OK


# Figure reproduction: parameter values transcribed from the figure
# captions.  fig4's caption states no parameters, so that entry uses the
# documented number-resolved demo set (noted in the emitted config).
# fig9 and fig10 repeat the fig7, fig8 and fig9 sets, declared once here.
_CAPTION_GRID = "1.8e9:2.3e9:4001"
_FIG7 = dict(model="stlr-qubit", omega0=2.1e9, omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8,
             grid=_CAPTION_GRID)
_FIG8 = dict(model="stlr-qubit-qnmr", omega0=2.1e9, omega_b=2.0e9, omega_r=2.0e9, v_g=3e8,
             v2=1e8, g_rq=1e8, g_q=1e8, grid=_CAPTION_GRID)
_FIG9_CNMR = dict(model="stlr-qubit-cnmr", omega0=2.1e9, omega_b=2.0e9, omega_r=2.0e9,
                  v_g=3e8, v2=1e8, g_rq=1e8, g_c=1e8, grid=_CAPTION_GRID)

FIGURE_SPECS: dict[str, list[dict]] = {
    "fig2": [dict(model="qubit-only", omega0=2.1e9, gamma_c=3.3e7,
                  grid="1.9e9:2.3e9:4001")],
    "fig3": [dict(model="qubit-qnmr", omega0=2.1e9, omega_b=2.0e9,
                  gamma_c=3.3e7, g_q=1e8, grid=_CAPTION_GRID)],
    "fig4": [dict(model="dispersive", omega0=2.1e9, omega_b=2.0e9, g_q=3e7,
                  v_g=3e8, gamma_c=1e6, mean_n=float(n),
                  grid="2.09e9:2.16e9:7001", suffix=f"_n{n}",
                  note="caption states no parameters; number-resolved demo set")
             for n in range(4)],
    "fig5": [dict(model="qubit-cnmr", omega0=2.1e9, omega_b=2.0e9,
                  gamma_c=3.3e7, g_c=1e8, grid="1.9e9:2.3e9:4001")],
    "fig7": [_FIG7],
    "fig8": [_FIG8],
    "fig9": [dict(_FIG9_CNMR, suffix="_with_cnmr"), dict(_FIG7, suffix="_no_nmr")],
    "fig10": [
        dict(model="qubit-cnmr", omega0=2.1e9, omega_b=2.0e9, v_g=3e8,
             v1=1e8, g_c=1e8, grid=_CAPTION_GRID, suffix="a_qubit"),
        dict(_FIG9_CNMR, suffix="a_stlr"),
        dict(model="qubit-qnmr", omega0=2.1e9, omega_b=2.0e9, v_g=3e8,
             v1=1e8, g_q=1e8, grid=_CAPTION_GRID, suffix="b_qubit"),
        dict(_FIG8, suffix="b_stlr"),
    ],
}


def _figure_spectrum(figure: str, entry: dict, outdir: str, with_svg: bool) -> list:
    entry = dict(entry)
    stem = os.path.join(outdir, figure + entry.pop("suffix", ""))
    note = entry.pop("note", None)
    grid = entry.pop("grid")
    kind = ModelKind(entry.pop("model"))
    params = ModelParams(**entry)
    config = {"figure": figure, "model": kind.value, "params": params.to_dict(),
              "grid": grid}
    if note:
        config["note"] = note
    paths = [stem + ".csv", stem + ".svg" if with_svg else None]
    _write_spectrum(compute_spectrum(kind, params, _parse_grid(grid)), *paths,
                    f"{figure} {kind.value}", config)
    return paths


def _fig11(sol, stem: str, with_svg: bool, config: dict) -> list:
    paths = [stem + ".csv", stem + ".json", stem + ".svg" if with_svg else None]
    csv_path, json_path, svg_path = paths
    _write_squid(sol, json_path, csv_path, svg_path, config)
    return paths


def _fig12(sol, stem: str, with_svg: bool, config: dict) -> list:
    """The circulating-current combinations of the doublet."""
    left_state, right_state = circulating_current_states(sol)
    paths = [stem + ".csv", stem + ".svg" if with_svg else None]
    qio._write_csv(paths[0], ("flux_over_phi0", "psi_left", "psi_right"),
                   (sol.flux_grid / FLUX_QUANTUM, left_state, right_state), config=config)
    if with_svg:
        _write_flux_chart(paths[1], sol, [(left_state, "left well"), (right_state, "right well")],
                          "wavefunction", "circulating-current states")
    return paths


# Figures of the reference circuit, which cmd_figures solves once per run.
_CIRCUIT_FIGURES = {"fig11": _fig11, "fig12": _fig12}


def cmd_figures(args) -> int:
    known = list(FIGURE_SPECS) + list(_CIRCUIT_FIGURES)
    if args.which not in known + ["all"]:
        raise UsageError(f"unknown figure {args.which!r}; choose from {known + ['all']}")
    targets = known if args.which == "all" else [args.which]
    os.makedirs(args.outdir, exist_ok=True)
    if any(target in _CIRCUIT_FIGURES for target in targets):
        sol = solve_eigensystem(reference_circuit())
        circuit = qio.squid_summary(sol)["circuit"]
    written = []
    for target in targets:
        if target in _CIRCUIT_FIGURES:
            written += _CIRCUIT_FIGURES[target](
                sol, os.path.join(args.outdir, target), args.svg,
                {"figure": target, "circuit": circuit})
        else:
            for entry in FIGURE_SPECS[target]:
                written += _figure_spectrum(target, entry, args.outdir, args.svg)
    print("\n".join(filter(None, written)))
    return EXIT_OK


def _with_config(parser: argparse.ArgumentParser, func) -> None:
    """Route parser to func and add --config: the file may set each option
    declared so far, keyed by its dest and converted by its type, or by
    _parse_text for an option declared without one."""
    flag_types = {action.dest: action.type or _parse_text for action in parser._actions
                  if action.option_strings and action.dest != "help"}
    parser.add_argument("--config", default=None)
    parser.set_defaults(func=func, flag_types=flag_types)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qspectra",
                     description="Microwave scattering spectra of a flux qubit "
                                 "with a nanomechanical resonator, and the "
                                 "inverse parameter estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="evaluate one model over a grid")
    sp.add_argument("--model", default=None)
    _add_float_flags(sp, PARAM_FIELDS)
    sp.add_argument("--grid", default=None, help="START:STOP:N (rad/s, inclusive)")
    sp.add_argument("--noise-sigma", dest="noise_sigma", type=_parse_noise_sigma, default=None)
    sp.add_argument("--seed", type=_parse_seed, default=None)
    sp.add_argument("--output", default=None)
    sp.add_argument("--svg", default=None)
    _with_config(sp, cmd_spectrum)

    es = sub.add_parser("estimate", help="invert a spectrum CSV to physics")
    es.add_argument("input")
    es.add_argument("--output", default=None)
    _add_float_flags(es, _ESTIMATE_OPTIONS)
    _with_config(es, cmd_estimate)

    sq = sub.add_parser("squid", help="solve the loop circuit eigenproblem")
    _add_float_flags(sq, ("c_j", "l", "i_c", "phi_e_over_phi0"))
    sq.add_argument("--grid-points", dest="grid_points", type=_parse_int, default=None)
    sq.add_argument("--flux-window", dest="flux_window", type=_parse_float, default=None)
    sq.add_argument("--n-states", dest="n_states", type=_parse_int, default=None)
    sq.add_argument("--output-json", dest="output_json", default=None)
    sq.add_argument("--output-csv", dest="output_csv", default=None)
    sq.add_argument("--svg", default=None)
    _with_config(sq, cmd_squid)

    sw = sub.add_parser("sweep", help="sweep one parameter, tabulating features")
    sw.add_argument("--model", default=None)
    _add_float_flags(sw, PARAM_FIELDS)
    sw.add_argument("--param", default=None)
    _add_float_flags(sw, ("start", "stop"))
    sw.add_argument("--steps", type=_parse_int, default=None)
    sw.add_argument("--grid", default=None)
    sw.add_argument("--output", default=None)
    _with_config(sw, cmd_sweep)

    fg = sub.add_parser("figures", help="regenerate the reference figure data")
    fg.add_argument("--which", default="all")
    fg.add_argument("--outdir", default="figures")
    fg.add_argument("--svg", action="store_true")
    fg.set_defaults(func=cmd_figures)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace per call
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; the one place a failure becomes an exit code."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    # the numerical classes subclass ValueError, so they are caught first
    except (BoundaryLeakageError, ConvergenceError, InconsistentFeaturesError,
            ModelDomainError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, _FileFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError) as exc:
        # MissingParameterError and every out-of-range value land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a grid, sweep or flux grid too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # a value whose Python-float arithmetic leaves the float range (a
        # coupling whose square does is a ValueError of ModelParams); the
        # errno form is (34, 'Numerical result out of range')
        print(f"error: value out of range: {exc.args[-1] if exc.args else exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
