import dataclasses
import hashlib
import json
import math
import re

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
)
from qspectra.cli import main
from qspectra.io import (
    _BLOCK_ROWS,
    SCHEMA_VERSION,
    load_report,
    read_spectrum_csv,
    spectrum_csv_text,
    wavefunction_csv_text,
    write_spectrum_csv,
)
from qspectra.params import Spectrum
from qspectra.squid import potential, reference_circuit, solve_eigensystem
from qspectra.svg import Panel, Series, _limits, render_chart

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

    def test_nine_significant_digits(self, qnmr_spectrum):
        text = spectrum_csv_text(qnmr_spectrum)
        row = text.splitlines()[1].split(",")
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

    def test_comments_below_header(self, tmp_path):
        # the config comes from the comments above the header; below it
        # numpy.loadtxt skips comments and empty lines
        path = tmp_path / "comments.csv"
        path.write_text('# config: {"a": 1}\nomega,T,phase_rad\n1,0.5,0\n'
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

    def test_non_numeric_value_rejected(self, tmp_path):
        bad = tmp_path / "abc.csv"
        bad.write_text("omega,T,phase_rad\n1,0.5,0\n2,abc,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: non-numeric value")):
            read_spectrum_csv(bad)
        assert main(["estimate", str(bad)]) == 2

    def test_malformed_config_line_is_format_error(self, qnmr_spectrum, tmp_path, capsys):
        bad = tmp_path / "config.csv"
        bad.write_text("# config: {not json\n" + spectrum_csv_text(qnmr_spectrum))
        with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
            read_spectrum_csv(bad)
        assert not isinstance(info.value, json.JSONDecodeError)
        assert main(["estimate", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err


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
    column = dict(zip(header, np.asarray(rows, dtype=float).T))
    amp = column["re_t"] + 1j * column["im_t"]
    if np.all(np.isfinite(amp)):
        magnitude = np.abs(amp)
        over = magnitude > 1.0
        amp[over] /= magnitude[over]
        return Spectrum.from_amplitude(column["omega"], amp), config
    return Spectrum(freqs=column["omega"], transmission=np.clip(column["T"], 0.0, 1.0),
                    phase=column["phase_rad"]), config


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
    def test_spectrum_csv_at_block_boundary(self, qnmr_params, n_points, noisy):
        spectrum = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                    make_frequency_grid(1.8e9, 2.3e9, n_points))
        if noisy:
            spectrum = add_measurement_noise(spectrum, 0.02, 3)
        amp = spectrum.amplitude
        nan = np.full(n_points, math.nan)
        columns = (spectrum.freqs, spectrum.transmission, spectrum.phase,
                   nan if amp is None else amp.real, nan if amp is None else amp.imag)
        head = '# figure: f\n# config: {"a": 1}\nomega,T,phase_rad,re_t,im_t\n'
        text = spectrum_csv_text(spectrum, config={"a": 1}, figure="f")
        assert text == head + _reference_rows(columns)

    def test_spectrum_csv_edge_values(self):
        freqs = np.array([-1.7976931348623157e308, -1e300, -1e-300, -0.0, 5e-324,
                          1e-300, 9.99999999949e9, 9.9999999995e9, 1e300])
        amp = np.array([complex(-0.0, 1.0), complex(0.6, -0.8), complex(1e-300, -1e-300),
                        complex(-0.0, -0.0), complex(0.0, 0.0), complex(-1.0, -0.0),
                        complex(9.9999999995e-1, 0.0), complex(-9.9999999995e-11, 0.0),
                        complex(1.0 / 3.0, -2.0 / 3.0)])
        spectrum = Spectrum.from_amplitude(freqs, amp)
        columns = (spectrum.freqs, spectrum.transmission, spectrum.phase,
                   amp.real, amp.imag)
        text = spectrum_csv_text(spectrum)
        assert text == "omega,T,phase_rad,re_t,im_t\n" + _reference_rows(columns)
        assert "-0.00000000e+00" in text and "1.00000000e+10" in text
        assert "-1.00000000e+300" in text and "4.94065646e-324" in text

    def test_wavefunction_csv(self):
        spec = reference_circuit()
        sol = solve_eigensystem(spec)
        psi0 = sol.wavefunctions[0].copy()
        psi0[:len(EDGE_VALUES)] = EDGE_VALUES
        sol = dataclasses.replace(sol, wavefunctions=np.array([psi0, sol.wavefunctions[1]]))
        columns = (sol.flux_grid / FLUX_QUANTUM, potential(sol.flux_grid, spec),
                   sol.wavefunctions[0], sol.wavefunctions[1])
        text = wavefunction_csv_text(sol, spec, config={"b": 2}, figure="fig11")
        head = '# figure: fig11\n# config: {"b": 2}\nflux_over_phi0,U_joules,psi0,psi1\n'
        assert text == head + _reference_rows(columns)

    def test_polylines_with_breaks(self):
        x = np.linspace(-3.0, 5.0, 20001)
        y = np.sin(7.0 * x) * 1e-300
        y[[0, 17, 18, 900, 902, 20000]] = [math.nan, math.inf, -math.inf, math.nan,
                                           math.nan, math.nan]
        x[5000] = math.nan
        y[10000:10003] = -0.0
        panel = Panel(series=[Series(x, y, label="s")], xlabel="x", ylabel="y")
        body = render_chart([panel, panel])
        polylines = re.findall(r'<polyline points="([^"]*)"', body)
        expected = (_reference_polylines(x, y, 0) + _reference_polylines(x, y, 250))
        assert len(expected) == 8  # four runs per panel; the run at 901 is one point
        assert polylines == expected


class TestSchema:
    def test_report_carries_schema_version(self, qnmr_spectrum, tmp_path):
        from qspectra import estimate_report
        from qspectra.io import write_report_json

        path = tmp_path / "r.json"
        write_report_json(path, estimate_report(qnmr_spectrum))
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

    def test_non_numeric_noise_sigma_in_config_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_sigma": "lots"}))
        code = main(FIG3_ARGS + ["--config", str(config),
                                 "--output", str(tmp_path / "n.csv")])
        assert code == 1

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

    @pytest.mark.parametrize("flag", ["--ref-g-q", "--ref-delta"])
    def test_zero_reference_hint_is_usage_error(self, flag, tmp_path, capsys):
        csv = tmp_path / "dispersive.csv"
        assert main(["spectrum", "--model", "dispersive", "--omega0", "2.1e9",
                     "--g-q", "3e7", "--v-g", "3e8", "--gamma-c", "1e6",
                     "--omega-b", "2e9", "--mean-n", "1",
                     "--grid", "2.09e9:2.13e9:2001", "--output", str(csv)]) == 0
        hints = {"--ref-omega0": "2.1e9", "--ref-g-q": "3e7", "--ref-delta": "1e8"}
        hints[flag] = "0"
        argv = ["estimate", str(csv)] + [x for item in hints.items() for x in item]
        assert main(argv) == 1
        assert f"{flag} must be nonzero" in capsys.readouterr().err

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

    def test_narrow_window_is_numerical_failure(self, tmp_path):
        code = main(["squid", "--flux-window", "0.35",
                     "--output-json", str(tmp_path / "x.json")])
        assert code == 3

    def test_wavefunction_csv(self, tmp_path):
        csv = tmp_path / "wf.csv"
        assert main(["squid", "--output-json", str(tmp_path / "s.json"),
                     "--output-csv", str(csv)]) == 0
        header = [line for line in csv.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "flux_over_phi0,U_joules,psi0,psi1"


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

    def test_bad_thread_env_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSPECTRA_THREADS", "zero")
        code = main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--param", "omega0", "--start", "2e9",
                     "--stop", "2.1e9", "--steps", "3",
                     "--output", str(tmp_path / "s.csv")])
        assert code == 1

    def test_invalid_swept_value_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--model", "qubit-only", "--omega0", "2.1e9",
                     "--gamma-c", "3.3e7", "--param", "gamma_c", "--start", "-1",
                     "--stop", "1e7", "--steps", "3",
                     "--output", str(tmp_path / "s.csv")])
        assert code == 1
        assert "gamma_c" in capsys.readouterr().err

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

    def test_all_figures(self, tmp_path):
        assert main(["figures", "--which", "all", "--outdir", str(tmp_path)]) == 0
        for name in ("fig2", "fig3", "fig5", "fig7", "fig8", "fig10b_stlr"):
            assert (tmp_path / f"{name}.csv").exists()
        for n in range(4):
            assert (tmp_path / f"fig4_n{n}.csv").exists()

    def test_unknown_figure_rejected(self, tmp_path):
        assert main(["figures", "--which", "fig99", "--outdir", str(tmp_path)]) == 1


class TestSvg:
    def test_render_basic_chart(self):
        x = np.linspace(0, 1, 50)
        panel = Panel(series=[Series(x, np.sin(x), label="demo")],
                      xlabel="x", ylabel="y", title="t")
        body = render_chart([panel, panel])
        assert body.startswith("<svg")
        assert body.count("<polyline") == 2
        assert "demo" in body

    def test_nan_breaks_polyline(self):
        x = np.linspace(0, 1, 10)
        y = np.sin(x)
        y[4] = np.nan
        body = render_chart([Panel(series=[Series(x, y)])])
        assert body.count("<polyline") == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_tracer_hook_names_stay_bound():
    """bench/tracer.py patches these attributes by name; renaming one makes
    `python3 bench/run.py --trace 1` fail with AttributeError."""
    from qspectra import cli, estimate, params, squid

    for owner, name in ((estimate, "least_squares"), (estimate, "find_peaks"),
                        (cli, "ThreadPoolExecutor"), (squid, "eigh_tridiagonal"),
                        (params.Spectrum, "__post_init__")):
        assert callable(getattr(owner, name, None)), name
