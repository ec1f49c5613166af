"""Command-line front end.

Subcommands: spectrum | estimate | squid | sweep | figures.  Exit codes:
0 success, 1 usage or configuration error, 2 I/O error, 3 numerical
failure.  Every option can also come from a JSON config file (--config);
explicit flags override file values.  QSPECTRA_THREADS caps sweep
parallelism.  Outputs are byte-identical for identical configurations,
including the noise seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import io as qio
from . import svg
from .constants import FLUX_QUANTUM
from .estimate import (
    AmbiguousClassificationError,
    InconsistentFeaturesError,
    add_measurement_noise,
    detect_dips,
    estimate_report,
)
from .models import (
    REQUIRED_PARAMS,
    ModelDomainError,
    ModelKind,
    analytic_features,
    compute_spectrum,
)
from .params import MissingParameterError, ModelParams, make_frequency_grid
from .squid import (
    BoundaryLeakageError,
    CircuitSpec,
    ConvergenceError,
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for I/O
    def error(self, message):
        raise UsageError(message)


def thread_cap() -> int:
    raw = os.environ.get("QSPECTRA_THREADS", "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"QSPECTRA_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise UsageError("QSPECTRA_THREADS must be >= 1")
        return value
    return os.cpu_count() or 1


PARAM_FIELDS = (
    "omega0", "omega_b", "omega_r", "gamma_c", "v_g",
    "v1", "v2", "g_q", "g_c", "g_rq", "mean_n",
)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=float, default=None)


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


def _merged(args, keys: tuple[str, ...]) -> dict:
    """File values overridden by explicit flags."""
    file_values = _load_config(getattr(args, "config", None))
    unknown = set(file_values) - set(keys)
    if unknown:
        raise UsageError(f"unknown config key(s): {sorted(unknown)}")
    merged = dict(file_values)
    for key in keys:
        flag = getattr(args, key, None)
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
    try:
        return make_frequency_grid(start, stop, n)
    except ValueError as exc:
        raise UsageError(f"invalid grid: {exc}") from exc


def _build_params(options: dict) -> ModelParams:
    values = {k: options.get(k) for k in PARAM_FIELDS}
    try:
        return ModelParams(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model_kind(options: dict) -> ModelKind:
    name = options.get("model")
    if not name:
        raise UsageError("missing required option: model")
    try:
        return ModelKind(name)
    except ValueError as exc:
        names = ", ".join(k.value for k in ModelKind)
        raise UsageError(f"unknown model {name!r}; choose from: {names}") from exc


def _parse_noise_sigma(value) -> float:
    """--noise-sigma: finite and >= 0; unset or 0 means a clean spectrum."""
    try:
        sigma = float(value or 0.0)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"noise_sigma must be a number, got {value!r}") from exc
    if not (math.isfinite(sigma) and sigma >= 0):
        raise UsageError(f"noise_sigma must be finite and >= 0, got {sigma}")
    return sigma


def cmd_spectrum(args) -> int:
    keys = ("model", "grid", "noise_sigma", "seed", "output", "svg") + PARAM_FIELDS
    options = _merged(args, keys)
    kind = _model_kind(options)
    params = _build_params(options)
    try:
        params.require(*REQUIRED_PARAMS[kind])
    except MissingParameterError as exc:
        raise UsageError(f"model '{kind.value}': {exc}") from exc
    grid_text = options.get("grid")
    if not grid_text:
        raise UsageError("missing required option: grid")
    freqs = _parse_grid(str(grid_text))
    output = options.get("output")
    if not output:
        raise UsageError("missing required option: output")

    sigma = _parse_noise_sigma(options.get("noise_sigma"))
    seed = int(options.get("seed") or 0)
    spectrum = compute_spectrum(kind, params, freqs)
    if sigma > 0:
        spectrum = add_measurement_noise(spectrum, sigma, seed)
    config = {
        "command": "spectrum",
        "model": kind.value,
        "params": params.to_dict(),
        "grid": str(grid_text),
    }
    if sigma > 0:
        config["noise"] = {"sigma": sigma, "seed": seed}
    qio.write_spectrum_csv(output, spectrum, config=config)
    if options.get("svg"):
        svg.write_chart(options["svg"], svg.spectrum_panels(spectrum, title=kind.value))
    return EXIT_OK


def cmd_estimate(args) -> int:
    keys = ("ref_omega0", "ref_omega_b", "ref_g_q", "ref_delta", "b0", "i_p",
            "nmr_length", "depth_threshold", "unity_tol", "output")
    options = _merged(args, keys)
    for key in ("ref_g_q", "ref_delta"):
        # the phonon ladder spacing is g_q**2/delta
        if options.get(key) == 0:
            raise UsageError(f"--{key.replace('_', '-')} must be nonzero")
    spectrum, _ = qio.read_spectrum_csv(args.input)
    # ambiguity is data, not failure: estimate_report encodes it in the
    # model_class and this command still exits 0
    report = estimate_report(
        spectrum,
        reference_omega0=options.get("ref_omega0"),
        reference_omega_b=options.get("ref_omega_b"),
        reference_g_q=options.get("ref_g_q"),
        reference_delta=options.get("ref_delta"),
        field=options.get("b0"),
        persistent_current=options.get("i_p"),
        nmr_length=options.get("nmr_length"),
        depth_threshold=options.get("depth_threshold", 0.1),
        unity_tol=options.get("unity_tol", 0.01),
    )
    text = qio.report_json_text(report, extra={"input": str(args.input)})
    if options.get("output"):
        with open(options["output"], "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_squid(args) -> int:
    keys = ("c_j", "l", "i_c", "phi_e_over_phi0", "grid_points",
            "flux_window", "n_states", "output_json", "output_csv", "svg")
    options = _merged(args, keys)
    base = reference_circuit()
    inductance = float(options.get("l", base.inductance))
    critical = options.get("i_c")
    if critical is None:
        critical = FLUX_QUANTUM / (math.pi * inductance)
    try:
        spec = CircuitSpec(
            capacitance=float(options.get("c_j", base.capacitance)),
            inductance=inductance,
            critical_current=float(critical),
            bias_flux=float(options.get("phi_e_over_phi0", 0.5)) * FLUX_QUANTUM,
            grid_points=int(options.get("grid_points", base.grid_points)),
            flux_window=float(options.get("flux_window", base.flux_window)),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sol = solve_eigensystem(spec, n_states=int(options.get("n_states", 2)))
    text = qio.squid_json_text(sol, spec)
    if options.get("output_json"):
        with open(options["output_json"], "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if options.get("output_csv"):
        qio.write_wavefunction_csv(options["output_csv"], sol, spec)
    if options.get("svg"):
        _write_squid_svg(options["svg"], sol, spec)
    return EXIT_OK


def _write_squid_svg(path, sol, spec) -> None:
    u = potential(sol.flux_grid, spec)
    # wavefunctions drawn offset by their energies, scaled into the well depth
    scale = 0.25 * (np.max(u) - np.min(u)) / max(np.max(np.abs(sol.wavefunctions[0])), 1e-300)
    x = sol.flux_grid / FLUX_QUANTUM
    panel = svg.Panel(
        series=[
            svg.Series(x, u, label="potential"),
            svg.Series(x, sol.energies[0] + scale * sol.wavefunctions[0], label="state 0"),
            svg.Series(x, sol.energies[1] + scale * sol.wavefunctions[1], label="state 1"),
        ],
        xlabel="flux / flux quantum",
        ylabel="energy (J)",
        title="loop potential and lowest doublet",
    )
    svg.write_chart(path, [panel], panel_height=420)


def _sweep_rows(kind, params, name, value, freqs):
    try:
        point = params.replace(**{name: value})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    keys = ("model", "param", "start", "stop", "steps", "grid", "output") + PARAM_FIELDS
    options = _merged(args, keys)
    kind = _model_kind(options)
    params = _build_params(options)
    name = options.get("param")
    if name not in PARAM_FIELDS:
        raise UsageError(f"param must be one of {PARAM_FIELDS}, got {name!r}")
    for key in ("start", "stop", "steps"):
        if options.get(key) is None:
            raise UsageError(f"missing required option: {key}")
    steps = int(options["steps"])
    if steps < 1:
        raise UsageError("steps must be >= 1")
    values = np.linspace(float(options["start"]), float(options["stop"]), steps)
    freqs = _parse_grid(str(options["grid"])) if options.get("grid") else None
    output = options.get("output")
    if not output:
        raise UsageError("missing required option: output")
    # the first step runs alone, so errors carry a usable message
    results = [_sweep_rows(kind, params, name, float(values[0]), freqs)]
    with ThreadPoolExecutor(max_workers=min(thread_cap(), len(values))) as pool:
        results += pool.map(
            lambda v: _sweep_rows(kind, params, name, float(v), freqs), values[1:]
        )
    lines = [
        "# config: " + json.dumps({
            "command": "sweep", "model": kind.value, "param": name,
            "start": float(options["start"]), "stop": float(options["stop"]),
            "steps": steps, "params": params.to_dict(),
            "grid": str(options.get("grid")) if options.get("grid") else None,
        }, sort_keys=True),
        "param,value,feature,frequency,width",
    ]
    for rows in results:
        for value, feature, freq, width in rows:
            lines.append(f"{name},{value:.8e},{feature},{freq:.8e},{width:.8e}")
    with open(output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK


# Figure reproduction: parameter values transcribed from the figure
# captions.  fig4's caption states no parameters, so that entry uses the
# documented number-resolved demo set (noted in the emitted config).
_CAPTION_GRID = "1.8e9:2.3e9:4001"

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
    "fig7": [dict(model="stlr-qubit", omega0=2.1e9, omega_r=2.0e9,
                  v_g=3e8, v2=1e8, g_rq=1e8, grid=_CAPTION_GRID)],
    "fig8": [dict(model="stlr-qubit-qnmr", omega0=2.1e9, omega_b=2.0e9,
                  omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8, g_q=1e8,
                  grid=_CAPTION_GRID)],
    "fig9": [
        dict(model="stlr-qubit-cnmr", omega0=2.1e9, omega_b=2.0e9,
             omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8, g_c=1e8,
             grid=_CAPTION_GRID, suffix="_with_cnmr"),
        dict(model="stlr-qubit", omega0=2.1e9, omega_r=2.0e9, v_g=3e8,
             v2=1e8, g_rq=1e8, grid=_CAPTION_GRID, suffix="_no_nmr"),
    ],
    "fig10": [
        dict(model="qubit-cnmr", omega0=2.1e9, omega_b=2.0e9, v_g=3e8,
             v1=1e8, g_c=1e8, grid=_CAPTION_GRID, suffix="a_qubit"),
        dict(model="stlr-qubit-cnmr", omega0=2.1e9, omega_b=2.0e9,
             omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8, g_c=1e8,
             grid=_CAPTION_GRID, suffix="a_stlr"),
        dict(model="qubit-qnmr", omega0=2.1e9, omega_b=2.0e9, v_g=3e8,
             v1=1e8, g_q=1e8, grid=_CAPTION_GRID, suffix="b_qubit"),
        dict(model="stlr-qubit-qnmr", omega0=2.1e9, omega_b=2.0e9,
             omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8, g_q=1e8,
             grid=_CAPTION_GRID, suffix="b_stlr"),
    ],
}


def _emit_figure_spectrum(figure: str, entry: dict, outdir: str,
                          with_svg: bool) -> list[str]:
    entry = dict(entry)
    suffix = entry.pop("suffix", "")
    note = entry.pop("note", None)
    grid = entry.pop("grid")
    kind = ModelKind(entry.pop("model"))
    params = ModelParams(**entry)
    freqs = _parse_grid(grid)
    spectrum = compute_spectrum(kind, params, freqs)
    config = {"figure": figure, "model": kind.value, "params": params.to_dict(),
              "grid": grid}
    if note:
        config["note"] = note
    path = os.path.join(outdir, f"{figure}{suffix}.csv")
    qio.write_spectrum_csv(path, spectrum, config=config, figure=figure)
    written = [path]
    if with_svg:
        svg_path = os.path.join(outdir, f"{figure}{suffix}.svg")
        svg.write_chart(svg_path, svg.spectrum_panels(spectrum, title=f"{figure} {kind.value}"))
        written.append(svg_path)
    return written


def _emit_squid_figures(figure: str, outdir: str, with_svg: bool) -> list[str]:
    spec = reference_circuit()
    sol = solve_eigensystem(spec)
    written = []
    config = {"figure": figure, "circuit": qio.squid_summary(sol, spec)["circuit"]}
    if figure == "fig11":
        path = os.path.join(outdir, "fig11.csv")
        qio.write_wavefunction_csv(path, sol, spec, config=config, figure="fig11")
        json_path = os.path.join(outdir, "fig11.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(qio.squid_json_text(sol, spec))
        written += [path, json_path]
        if with_svg:
            svg_path = os.path.join(outdir, "fig11.svg")
            _write_squid_svg(svg_path, sol, spec)
            written.append(svg_path)
        return written
    # fig12: the circulating-current combinations of the doublet
    psi0, psi1 = sol.wavefunctions[0], sol.wavefunctions[1]
    right = sol.flux_grid > spec.bias_flux
    if float(np.sum(psi0[right] * psi1[right]) * sol.flux_step) < 0:
        psi1 = -psi1
    left_state = (psi0 - psi1) / math.sqrt(2.0)
    right_state = (psi0 + psi1) / math.sqrt(2.0)
    path = os.path.join(outdir, "fig12.csv")
    text = qio._csv_text(("flux_over_phi0", "psi_left", "psi_right"),
                         (sol.flux_grid / FLUX_QUANTUM, left_state, right_state),
                         config=config, figure=figure)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    written.append(path)
    if with_svg:
        panel = svg.Panel(
            series=[svg.Series(sol.flux_grid / FLUX_QUANTUM, left_state, label="left well"),
                    svg.Series(sol.flux_grid / FLUX_QUANTUM, right_state, label="right well")],
            xlabel="flux / flux quantum", ylabel="wavefunction",
            title="circulating-current states",
        )
        svg_path = os.path.join(outdir, "fig12.svg")
        svg.write_chart(svg_path, [panel], panel_height=420)
        written.append(svg_path)
    return written


def cmd_figures(args) -> int:
    which = args.which
    known = list(FIGURE_SPECS) + ["fig11", "fig12"]
    targets = known if which == "all" else [which]
    for target in targets:
        if target not in known:
            raise UsageError(f"unknown figure {target!r}; choose from {known + ['all']}")
    os.makedirs(args.outdir, exist_ok=True)
    written = []
    for target in targets:
        if target in ("fig11", "fig12"):
            written += _emit_squid_figures(target, args.outdir, args.svg)
        else:
            for entry in FIGURE_SPECS[target]:
                written += _emit_figure_spectrum(target, entry, args.outdir, args.svg)
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qspectra",
                     description="Microwave scattering spectra of a flux qubit "
                                 "with a nanomechanical resonator, and the "
                                 "inverse parameter estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="evaluate one model over a grid")
    sp.add_argument("--model", default=None)
    _add_param_flags(sp)
    sp.add_argument("--grid", default=None, help="START:STOP:N (rad/s, inclusive)")
    sp.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--output", default=None)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_spectrum)

    es = sub.add_parser("estimate", help="invert a spectrum CSV to physics")
    es.add_argument("input")
    es.add_argument("--output", default=None)
    es.add_argument("--ref-omega0", dest="ref_omega0", type=float, default=None)
    es.add_argument("--ref-omega-b", dest="ref_omega_b", type=float, default=None)
    es.add_argument("--ref-g-q", dest="ref_g_q", type=float, default=None)
    es.add_argument("--ref-delta", dest="ref_delta", type=float, default=None)
    es.add_argument("--b0", type=float, default=None)
    es.add_argument("--i-p", dest="i_p", type=float, default=None)
    es.add_argument("--nmr-length", dest="nmr_length", type=float, default=None)
    es.add_argument("--depth-threshold", dest="depth_threshold", type=float, default=None)
    es.add_argument("--unity-tol", dest="unity_tol", type=float, default=None)
    es.add_argument("--config", default=None)
    es.set_defaults(func=cmd_estimate)

    sq = sub.add_parser("squid", help="solve the loop circuit eigenproblem")
    sq.add_argument("--c-j", dest="c_j", type=float, default=None)
    sq.add_argument("--l", dest="l", type=float, default=None)
    sq.add_argument("--i-c", dest="i_c", type=float, default=None)
    sq.add_argument("--phi-e-over-phi0", dest="phi_e_over_phi0", type=float, default=None)
    sq.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    sq.add_argument("--flux-window", dest="flux_window", type=float, default=None)
    sq.add_argument("--n-states", dest="n_states", type=int, default=None)
    sq.add_argument("--output-json", dest="output_json", default=None)
    sq.add_argument("--output-csv", dest="output_csv", default=None)
    sq.add_argument("--svg", default=None)
    sq.add_argument("--config", default=None)
    sq.set_defaults(func=cmd_squid)

    sw = sub.add_parser("sweep", help="sweep one parameter, tabulating features")
    sw.add_argument("--model", default=None)
    _add_param_flags(sw)
    sw.add_argument("--param", default=None)
    sw.add_argument("--start", type=float, default=None)
    sw.add_argument("--stop", type=float, default=None)
    sw.add_argument("--steps", type=int, default=None)
    sw.add_argument("--grid", default=None)
    sw.add_argument("--output", default=None)
    sw.add_argument("--config", default=None)
    sw.set_defaults(func=cmd_sweep)

    fg = sub.add_parser("figures", help="regenerate the reference figure data")
    fg.add_argument("--which", default="all")
    fg.add_argument("--outdir", default="figures")
    fg.add_argument("--svg", action="store_true")
    fg.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MissingParameterError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BoundaryLeakageError, ConvergenceError, InconsistentFeaturesError,
            AmbiguousClassificationError, ModelDomainError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # malformed data files land here via the readers
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
