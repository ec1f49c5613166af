import dataclasses
import hashlib
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
import scipy.signal

from qspectra import (
    AmbiguousClassificationError,
    InconsistentFeaturesError,
    ModelClass,
    ModelKind,
    ModelParams,
    OffLadderError,
    Spectrum,
    add_measurement_noise,
    analytic_features,
    classify,
    cnmr_coupling_from_shift,
    compute_spectrum,
    coupled_mode_frequencies,
    detect_dips,
    detect_unity_points,
    estimate_report,
    make_frequency_grid,
    nmr_frequency_from_windows,
    phonon_number_from_dip,
    qnmr_coupling_from_dips,
    qnmr_coupling_from_windows,
    shifted_qubit_frequency,
    stlr_coupling_from_dips,
)
from qspectra import estimate
from qspectra.io import report_json_text

from conftest import COUPLING, GAMMA_C, OMEGA0, OMEGA_B, OMEGA_R


def flat_spectrum():
    freqs = make_frequency_grid(1.9e9, 2.3e9, 501)
    return Spectrum.from_amplitude(freqs, np.ones(len(freqs), dtype=complex))


class TestDetectDips:
    def test_single_lorentzian_dip(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        dips = detect_dips(s)
        assert len(dips) == 1
        assert abs(dips[0].center - OMEGA0) <= s.grid_step
        assert dips[0].fwhm == pytest.approx(6.6e7, rel=0.05)
        assert dips[0].depth == pytest.approx(1.0, abs=1e-3)

    def test_flat_spectrum_has_no_dips(self):
        assert detect_dips(flat_spectrum()) == []

    def test_two_hybrid_dips(self, qnmr_spectrum):
        dips = detect_dips(qnmr_spectrum)
        assert len(dips) == 2
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        assert dips[0].center == pytest.approx(low, abs=1e5)
        assert dips[1].center == pytest.approx(high, abs=1e5)

    def test_fitted_widths_share_the_total_linewidth(self, qnmr_spectrum):
        # the two hybrid dips split the bare 2*gamma_c width between them
        dips = detect_dips(qnmr_spectrum)
        assert dips[0].fwhm + dips[1].fwhm == pytest.approx(2 * GAMMA_C, rel=0.05)

    def test_noise_does_not_duplicate_dips(self, qnmr_spectrum):
        noisy = add_measurement_noise(qnmr_spectrum, 0.01, 3)
        assert len(detect_dips(noisy)) == 2


class TestDetectUnityPoints:
    def test_qnmr_window_at_mechanical_frequency(self, qnmr_spectrum):
        points = detect_unity_points(qnmr_spectrum)
        assert len(points) == 1
        assert abs(points[0] - OMEGA_B) <= qnmr_spectrum.grid_step

    def test_stlr_qnmr_windows_match_analytic(self, stlr_qnmr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params, grid)
        points = detect_unity_points(s)
        expected = analytic_features(ModelKind.STLR_QUBIT_QNMR,
                                     stlr_qnmr_params).unity_points
        assert len(points) == 2
        for found, truth in zip(points, expected):
            assert abs(found - truth) <= s.grid_step

    def test_qubit_only_has_no_window(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        assert detect_unity_points(s) == []

    def test_flat_spectrum_has_no_window(self):
        assert detect_unity_points(flat_spectrum()) == []

    def test_tolerance_validated(self, qnmr_spectrum):
        with pytest.raises(ValueError):
            detect_unity_points(qnmr_spectrum, tol=0.5)


class TestClassify:
    def test_quantum_vibration(self, qnmr_spectrum):
        assert classify(qnmr_spectrum) is ModelClass.QUANTUM_NMR

    def test_classical_vibration_with_reference(self, cnmr_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        assert classify(s, reference_omega0=OMEGA0) is ModelClass.CLASSICAL_NMR

    def test_bare_qubit_with_reference(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        assert classify(s, reference_omega0=OMEGA0) is ModelClass.NO_NMR

    def test_single_dip_without_reference_is_ambiguous(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        with pytest.raises(AmbiguousClassificationError):
            classify(s)

    def test_three_dips_is_ambiguous(self, stlr_qnmr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params, grid)
        with pytest.raises(AmbiguousClassificationError, match="3 dips"):
            classify(s)

    def test_no_features_is_ambiguous(self):
        with pytest.raises(AmbiguousClassificationError, match="no"):
            classify(flat_spectrum())


class TestSplittingInversions:
    def test_quoted_dip_pair_recovers_coupling(self):
        est = qnmr_coupling_from_dips(2.16180e9, 1.93820e9, OMEGA0, OMEGA_B)
        assert est.value == pytest.approx(1e8, rel=1e-3)

    def test_exact_round_trip(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        est = qnmr_coupling_from_dips(high, low, OMEGA0, OMEGA_B)
        assert est.value == pytest.approx(COUPLING, rel=1e-9)

    def test_boundary_gives_zero(self):
        est = qnmr_coupling_from_dips(2.2e9, 2.1e9, 2.2e9, 2.1e9)
        assert est.value == 0.0

    def test_degenerate_frequencies_give_half_splitting(self):
        est = qnmr_coupling_from_dips(2.2e9, 2.0e9, 2.1e9, 2.1e9)
        assert est.value == pytest.approx(1e8, rel=1e-12)

    def test_negative_radicand_rejected(self):
        with pytest.raises(InconsistentFeaturesError):
            qnmr_coupling_from_dips(2.105e9, 2.095e9, 2.2e9, 2.0e9)

    def test_monotone_in_splitting(self):
        values = []
        for split in np.linspace(1.1e8, 5e8, 40):
            mid = 0.5 * (OMEGA0 + OMEGA_B)
            est = qnmr_coupling_from_dips(mid + split / 2, mid - split / 2,
                                          OMEGA0, OMEGA_B)
            values.append(est.value)
        assert np.all(np.diff(values) > 0)

    def test_uncertainty_propagation_scale(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        est = qnmr_coupling_from_dips(high, low, OMEGA0, OMEGA_B,
                                      sigma_plus=1e6, sigma_minus=1e6)
        split = high - low
        expected = math.sqrt(2) * 1e6 * split / (4 * COUPLING)
        assert est.sigma == pytest.approx(expected, rel=1e-9)

    def test_stlr_variant_round_trip(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_R, COUPLING)
        est = stlr_coupling_from_dips(high, low, OMEGA0, OMEGA_R)
        assert est.value == pytest.approx(COUPLING, rel=1e-9)

    def test_stlr_resonant_half_splitting(self):
        est = stlr_coupling_from_dips(2.1e9, 1.9e9, 2.0e9, 2.0e9)
        assert est.value == pytest.approx(1e8, rel=1e-12)


class TestShiftInversion:
    def test_exact_round_trip(self):
        shifted = shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        est = cnmr_coupling_from_shift(shifted, OMEGA0, OMEGA_B)
        assert est.value == pytest.approx(COUPLING, rel=1e-9)

    def test_unshifted_dip_gives_zero(self):
        est = cnmr_coupling_from_shift(0.5 * (OMEGA0 + OMEGA_B), OMEGA0, OMEGA_B)
        assert est.value == 0.0

    def test_below_mean_rejected(self):
        with pytest.raises(InconsistentFeaturesError):
            cnmr_coupling_from_shift(2.0e9, OMEGA0, OMEGA_B)

    def test_pipeline_round_trip(self, cnmr_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        dip = detect_dips(s)[0]
        est = cnmr_coupling_from_shift(dip.center, OMEGA0, OMEGA_B,
                                       sigma_shifted=dip.fwhm / 2)
        assert abs(est.value - COUPLING) <= est.sigma
        assert est.value == pytest.approx(COUPLING, rel=0.01)


class TestWindowInversions:
    def test_mechanical_frequency_round_trip(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        est = nmr_frequency_from_windows(high, low, OMEGA0)
        assert est.value == pytest.approx(OMEGA_B, rel=1e-12)

    def test_symmetric_windows_give_qubit_frequency(self):
        est = nmr_frequency_from_windows(2.2e9, 2.0e9, 2.1e9)
        assert est.value == pytest.approx(2.1e9, rel=1e-12)

    def test_coupling_round_trip(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        est = qnmr_coupling_from_windows(high, low, OMEGA0)
        assert est.value == pytest.approx(COUPLING, rel=1e-9)

    def test_uncertainty_is_quadrature_sum(self):
        est = nmr_frequency_from_windows(2.2e9, 2.0e9, 2.1e9, sigma_upper=3e5,
                                         sigma_lower=4e5, sigma_omega0=0.0)
        assert est.sigma == pytest.approx(5e5, rel=1e-12)


class TestPhononNumber:
    def test_ground_state(self):
        count = phonon_number_from_dip(2.1045e9, 2.1e9, 3e7, 1e8)
        assert count.n == 0 and count.residual == pytest.approx(0.0, abs=1e-9)

    def test_one_phonon(self):
        count = phonon_number_from_dip(2.1135e9, 2.1e9, 3e7, 1e8)
        assert count.n == 1

    def test_midpoint_is_off_ladder(self):
        with pytest.raises(OffLadderError):
            phonon_number_from_dip(2.1090e9, 2.1e9, 3e7, 1e8)

    def test_negative_count_is_off_ladder(self):
        with pytest.raises(OffLadderError):
            phonon_number_from_dip(2.1e9 - 4.5e6, 2.1e9, 3e7, 1e8)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            phonon_number_from_dip(2.1e9, 2.1e9, 0.0, 1e8)


class TestMeasurementNoise:
    def test_zero_sigma_is_identity(self, qnmr_spectrum):
        assert add_measurement_noise(qnmr_spectrum, 0.0, 1) is qnmr_spectrum

    def test_deterministic_per_seed(self, qnmr_spectrum):
        a = add_measurement_noise(qnmr_spectrum, 0.01, 9)
        b = add_measurement_noise(qnmr_spectrum, 0.01, 9)
        assert np.array_equal(a.transmission, b.transmission)
        assert np.array_equal(a.phase, b.phase)

    def test_different_seeds_differ(self, qnmr_spectrum):
        a = add_measurement_noise(qnmr_spectrum, 0.01, 1)
        b = add_measurement_noise(qnmr_spectrum, 0.01, 2)
        assert not np.array_equal(a.transmission, b.transmission)

    def test_amplitude_dropped_and_bounds_kept(self, qnmr_spectrum):
        noisy = add_measurement_noise(qnmr_spectrum, 0.05, 4)
        assert noisy.amplitude is None
        assert np.all(noisy.transmission >= 0) and np.all(noisy.transmission <= 1)
        assert np.all(np.abs(noisy.phase) <= math.pi)

    def test_negative_sigma_rejected(self, qnmr_spectrum):
        with pytest.raises(ValueError):
            add_measurement_noise(qnmr_spectrum, -0.1, 1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, qnmr_spectrum, sigma):
        with pytest.raises(ValueError, match="finite"):
            add_measurement_noise(qnmr_spectrum, sigma, 1)

    def test_overflowing_sigma_rejected(self, qnmr_spectrum):
        # at 1e308 most draws overflow to infinity, which used to wrap to
        # NaN phases with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "sigma 1e+308 is too large: a noise draw overflowed to infinity")):
                add_measurement_noise(qnmr_spectrum, 1e308, 1)
            noisy = add_measurement_noise(qnmr_spectrum, 1e300, 1)
        assert np.all(np.abs(noisy.phase) <= math.pi)

    @pytest.mark.parametrize("sigma", [0.01, 0.5, 3.0])
    def test_matches_reference_expressions(self, qnmr_spectrum, sigma):
        """Bit-identical to the whole-array expressions, on the qubit-qnmr
        spectrum and on one whose T spans [0, 1] and whose phase spans
        (-pi, pi], given with exact -pi and pi entries, so that clips and
        wraps occur at every sigma."""
        n = 4001
        phase = np.linspace(-np.pi, np.pi, n)
        phase[::400] = -np.pi
        edges = Spectrum(freqs=qnmr_spectrum.freqs,
                         transmission=np.linspace(0.0, 1.0, n), phase=phase)
        assert np.array_equal(edges.phase, np.where(phase == -np.pi, np.pi, phase))
        for seed, spectrum in enumerate((qnmr_spectrum, edges)):
            rng = np.random.default_rng(seed)
            raw_t = spectrum.transmission + rng.normal(0.0, sigma, n)
            raw_phase = spectrum.phase + rng.normal(0.0, sigma, n) + np.pi
            ref_phase = np.mod(raw_phase, 2.0 * np.pi) - np.pi
            noisy = add_measurement_noise(spectrum, sigma, seed)
            assert np.array_equal(noisy.freqs, spectrum.freqs)
            assert np.array_equal(noisy.transmission, np.clip(raw_t, 0.0, 1.0))
            assert np.array_equal(noisy.phase,
                                  np.where(ref_phase == -np.pi, np.pi, ref_phase))
        # the edge spectrum exercised both the clip and the wrap
        assert np.any((raw_t < 0) | (raw_t > 1))
        assert np.any((raw_phase < 0) | (raw_phase >= 2.0 * np.pi))


class TestEstimateReport:
    def test_quantum_round_trip(self, qnmr_spectrum):
        report = estimate_report(qnmr_spectrum)
        assert report.model_class is ModelClass.QUANTUM_NMR
        assert abs(report.omega_b_est.value - OMEGA_B) <= qnmr_spectrum.grid_step
        assert abs(report.omega0_est.value - OMEGA0) <= report.omega0_est.sigma
        assert abs(report.g_est.value - COUPLING) <= report.g_est.sigma
        assert report.g_est.value == pytest.approx(COUPLING, rel=0.01)

    def test_reference_narrows_qubit_frequency(self, qnmr_spectrum):
        report = estimate_report(qnmr_spectrum, reference_omega0=OMEGA0)
        assert report.omega0_est.value == OMEGA0

    def test_classical_needs_both_references(self, cnmr_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        partial = estimate_report(s, reference_omega0=OMEGA0)
        assert partial.model_class is ModelClass.CLASSICAL_NMR
        assert partial.g_est is None
        full = estimate_report(s, reference_omega0=OMEGA0, reference_omega_b=OMEGA_B)
        assert full.g_est.value == pytest.approx(COUPLING, rel=0.01)

    def test_classical_amplitude_estimate(self, cnmr_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        report = estimate_report(s, reference_omega0=OMEGA0,
                                 reference_omega_b=OMEGA_B, field=5e-3,
                                 persistent_current=9.44e-8, nmr_length=1e-6)
        from qspectra import classical_amplitude

        expected = classical_amplitude(report.g_est.value, 5e-3, 9.44e-8, 1e-6)
        assert report.amplitude_est.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("hints, note", [
        (dict(reference_g_q=3e7),
         "reference_g_q ignored: a dispersive reading needs reference_delta too"),
        (dict(reference_delta=1e8),
         "reference_delta ignored: a dispersive reading needs reference_g_q too"),
        (dict(field=5e-3), "field ignored: a vibration amplitude needs "
                           "persistent_current and nmr_length too"),
        (dict(persistent_current=9.44e-8, nmr_length=1e-6),
         "persistent_current and nmr_length ignored: a vibration amplitude needs field too"),
        (dict(field=5e-3, persistent_current=9.44e-8, nmr_length=1e-6), None),
    ], ids=["g-q", "delta", "field", "current-length", "amplitude-group"])
    def test_lone_hint_is_noted(self, cnmr_params, hints, note):
        """A hint given without its partners changes nothing but a note
        that names the missing ones; a whole group adds no note."""
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        refs = dict(reference_omega0=OMEGA0, reference_omega_b=OMEGA_B)
        plain = estimate_report(s, **refs)
        report = estimate_report(s, **refs, **hints)
        if note is None:
            assert report.notes == plain.notes and report.amplitude_est is not None
        else:
            assert report.notes == plain.notes + (note,)
            assert dataclasses.replace(report, notes=plain.notes) == plain

    def test_bare_qubit(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        report = estimate_report(s, reference_omega0=OMEGA0)
        assert report.model_class is ModelClass.NO_NMR
        assert abs(report.omega0_est.value - OMEGA0) <= s.grid_step

    def test_dispersive_phonon_count(self, dispersive_params):
        for n in range(4):
            p = dispersive_params.replace(mean_n=float(n))
            grid = make_frequency_grid(2.09e9, 2.16e9, 4001)
            s = compute_spectrum(ModelKind.DISPERSIVE, p, grid)
            report = estimate_report(s, reference_omega0=OMEGA0,
                                     reference_g_q=3e7, reference_delta=1e8)
            assert report.model_class is ModelClass.DISPERSIVE
            assert report.phonon_n_est == n

    def test_flat_spectrum_reports_no_features(self):
        report = estimate_report(flat_spectrum())
        assert report.model_class is ModelClass.NO_FEATURES

    def test_single_dip_without_reference_is_ambiguous(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid)
        report = estimate_report(s)
        assert report.model_class is ModelClass.AMBIGUOUS

    def test_uncertainty_floor(self, qnmr_spectrum, cnmr_params):
        report = estimate_report(qnmr_spectrum, reference_omega0=OMEGA0)
        floor = 0.5 * qnmr_spectrum.grid_step
        for est in (report.omega0_est, report.omega_b_est, report.g_est):
            assert est.sigma >= floor
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        report = estimate_report(s, reference_omega0=OMEGA0,
                                 reference_omega_b=OMEGA_B)
        for est in (report.omega_b_est, report.g_est):
            assert est.sigma >= 0.5 * s.grid_step

    def test_extra_dips_reported_not_classified(self, stlr_qnmr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params, grid)
        report = estimate_report(s)
        assert len(report.dips) == 3
        assert any("deepest two" in note for note in report.notes)

    def test_report_serializes(self, qnmr_spectrum):
        document = estimate_report(qnmr_spectrum).to_dict()
        assert document["model_class"] == "quantum-nmr"
        assert document["g_est"]["value"] > 0
        assert len(document["raw_features"]["dips"]) == 2


class TestRoundTripCompleteness:
    """Synthesize, detect, invert: every parameter the configuration's
    inversion formulas expose comes back within the propagated error."""

    def test_qubit_only(self, qubit_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 4001)
        dip = detect_dips(compute_spectrum(ModelKind.QUBIT_ONLY, qubit_params, grid))[0]
        assert dip.center == pytest.approx(OMEGA0, abs=grid[1] - grid[0])
        assert dip.fwhm / 2 == pytest.approx(GAMMA_C, rel=0.05)

    def test_qubit_qnmr(self, qnmr_spectrum):
        report = estimate_report(qnmr_spectrum)
        assert report.omega_b_est.value == pytest.approx(OMEGA_B, abs=qnmr_spectrum.grid_step)
        assert report.omega0_est.value == pytest.approx(OMEGA0, abs=report.omega0_est.sigma)
        assert report.g_est.value == pytest.approx(COUPLING, abs=report.g_est.sigma)

    def test_stlr_qubit(self, stlr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT, stlr_params, grid)
        windows = detect_unity_points(s)
        assert len(windows) == 1
        assert windows[0] == pytest.approx(OMEGA0, abs=s.grid_step)
        dips = detect_dips(s)
        est = stlr_coupling_from_dips(dips[1].center, dips[0].center,
                                      windows[0], OMEGA_R,
                                      sigma_plus=dips[1].fwhm / 2,
                                      sigma_minus=dips[0].fwhm / 2)
        assert abs(est.value - COUPLING) <= est.sigma

    def test_stlr_qubit_qnmr(self, stlr_qnmr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params, grid)
        low, high = detect_unity_points(s, tol=0.01)
        step = s.grid_step
        omega_b = nmr_frequency_from_windows(high, low, OMEGA0, sigma_upper=step,
                                             sigma_lower=step)
        assert abs(omega_b.value - OMEGA_B) <= max(omega_b.sigma, step)
        g = qnmr_coupling_from_windows(high, low, OMEGA0, sigma_upper=step,
                                       sigma_lower=step)
        assert g.value == pytest.approx(COUPLING, rel=0.01)

    def test_stlr_qubit_cnmr(self, stlr_cnmr_params):
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_CNMR, stlr_cnmr_params, grid)
        windows = detect_unity_points(s)
        assert len(windows) == 1
        est = cnmr_coupling_from_shift(windows[0], OMEGA0, OMEGA_B,
                                       sigma_shifted=s.grid_step)
        assert est.value == pytest.approx(COUPLING, rel=0.05)


ALL_MODEL_FIXTURES = {
    ModelKind.QUBIT_ONLY: "qubit_params",
    ModelKind.QUBIT_QNMR: "qnmr_params",
    ModelKind.DISPERSIVE: "dispersive_params",
    ModelKind.QUBIT_CNMR: "cnmr_params",
    ModelKind.STLR_QUBIT: "stlr_params",
    ModelKind.STLR_QUBIT_QNMR: "stlr_qnmr_params",
    ModelKind.STLR_QUBIT_CNMR: "stlr_cnmr_params",
}


class TestSinglePass:
    @pytest.mark.parametrize("kind", list(ALL_MODEL_FIXTURES))
    def test_noise_gate_inert_on_clean_spectra(self, kind, request):
        """On noise-free spectra no fit is rejected, and the one-scan
        report finds the same unity points as detect_unity_points alone."""
        params = request.getfixturevalue(ALL_MODEL_FIXTURES[kind])
        for n in (401, 2001, 20001, 100001):
            s = compute_spectrum(kind, params, make_frequency_grid(1.8e9, 2.3e9, n))
            for tol in (0.01, 0.04):
                report = estimate_report(s, unity_tol=tol)
                assert list(report.unity_points) == detect_unity_points(s, tol), (n, tol)
                assert not any("rejected" in note for note in report.notes)

    def test_one_fit_per_candidate(self, qnmr_spectrum, monkeypatch):
        fits = []
        real = estimate.least_squares
        monkeypatch.setattr(estimate, "least_squares",
                            lambda *a, **k: fits.append(1) or real(*a, **k))
        estimate_report(qnmr_spectrum)
        # two hybrid dips, each fitted once for the report and the unity filter
        assert len(fits) == 2
        fits.clear()
        assert classify(qnmr_spectrum) is ModelClass.QUANTUM_NMR
        assert len(fits) == 2

    def test_analytic_jacobian_matches_finite_differences(self, qnmr_spectrum,
                                                          monkeypatch):
        noisy = add_measurement_noise(qnmr_spectrum, 0.01, 3)
        analytic = detect_dips(noisy)

        def forward_differences(fun, x0, jac):
            x, _, info, _, _ = scipy.optimize.leastsq(
                fun, x0, Dfun=None, full_output=True, ftol=1e-8, xtol=1e-8,
                gtol=1e-8, maxfev=100 * len(x0), factor=100.0, diag=None)
            return scipy.optimize.OptimizeResult(
                x=x, cost=0.5 * np.dot(info["fvec"], info["fvec"]))

        monkeypatch.setattr(estimate, "least_squares", forward_differences)
        numeric = detect_dips(noisy)
        assert len(analytic) == len(numeric) == 2
        for a, b in zip(analytic, numeric):
            assert a.center == pytest.approx(b.center, rel=1e-9)
            assert a.fwhm == pytest.approx(b.fwhm, rel=1e-6)
            assert a.depth == pytest.approx(b.depth, abs=1e-6)

    def test_clean_overshoot_clamped_to_unit_depth(self, stlr_qnmr_params):
        # the width-gradient Lorentzian overshoots these dips by ~1.4 %
        grid = make_frequency_grid(1.8e9, 2.3e9, 4001)
        s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params, grid)
        dips = detect_dips(s)
        assert len(dips) == 3
        assert all(0.0 < d.depth <= 1.0 for d in dips)
        assert sum(d.depth == 1.0 for d in dips) >= 2


class TestPhaseGate:
    """Dip candidates come from the phase steps: each run of samples that
    wrapped steps of at least pi/4, at stride 1 or 2, join gives one
    candidate, its lowest sample."""

    def test_flat_phase_dip_not_fitted(self, monkeypatch):
        """A Lorentzian T dip whose phase stays flat, or only wiggles
        across the +-pi cut, makes no candidate and no fit; the same T
        with the pi turn of t = x/(x + i y) is fitted."""
        fits = _count_fits(monkeypatch)
        freqs = make_frequency_grid(1.9e9, 2.3e9, 2001)
        t = (freqs - OMEGA0) / (freqs - OMEGA0 + 1j * GAMMA_C)
        trans = np.abs(t) ** 2
        across_cut = np.where(np.arange(len(freqs)) % 2 == 0, np.pi, 0.05 - np.pi)
        for phase in (np.zeros(len(freqs)), across_cut):
            assert estimate._step_runs(phase)[0].size == 0
            report = estimate_report(Spectrum(freqs=freqs, transmission=trans, phase=phase),
                                     reference_omega0=OMEGA0)
            assert report.dips == () and fits == []
            assert report.notes == ()
        report = estimate_report(Spectrum(freqs=freqs, transmission=trans, phase=np.angle(t)),
                                 reference_omega0=OMEGA0)
        assert len(fits) == 1 and report.notes == ()
        assert report.model_class is ModelClass.NO_NMR
        assert report.dips[0].center == pytest.approx(OMEGA0, abs=freqs[1] - freqs[0])

    def test_sample_on_the_zero_passes_at_stride_two(self, monkeypatch):
        """The 401-point clean dispersive spectrum puts a sample on the
        zero of x, where t = 0 has phase 0: the pi turn splits into two
        steps of 0.675 rad, below pi/4, and the step over two samples,
        1.349 rad, joins both ends and the sample between, the one on the
        zero, which is the candidate.  With the two samples above the zero
        clipped to T = 0 as well, the run's two lowest samples tie, and
        the lower of them, the one on the zero, is still the candidate."""
        s = compute_spectrum(ModelKind.DISPERSIVE, ModelParams(**_DISPERSIVE_N2),
                             make_frequency_grid(1.8e9, 2.3e9, 401))
        i = int(np.argmin(s.transmission))
        assert s.transmission[i] == 0.0 and s.phase[i] == 0.0
        span = s.phase[i - 1:i + 2]
        assert np.abs(np.diff(span)).max() == pytest.approx(0.675, abs=1e-3)
        assert abs(span[2] - span[0]) == pytest.approx(1.349, abs=1e-3)
        starts, stops = estimate._step_runs(s.phase)
        assert (starts.tolist(), stops.tolist()) == ([i - 1], [i + 2])
        dips = detect_dips(s)
        assert len(dips) == 1 and dips[0].center == s.freqs[i]
        trans = s.transmission.copy()
        trans[i + 1:i + 3] = 0.0
        clipped = Spectrum(freqs=s.freqs, transmission=trans, phase=s.phase)
        fitted = []
        real = estimate._fit_candidate
        monkeypatch.setattr(estimate, "_fit_candidate",
                            lambda spectrum, k, *a: fitted.append(k) or real(spectrum, k, *a))
        assert len(detect_dips(clipped)) == 1
        assert fitted == [i]

    def test_noise_minima_are_not_candidates(self, monkeypatch):
        """A 5 %-noise bare-qubit draw has 189 minima at least 0.1
        prominent, and one run of phase steps, at the dip: the report
        makes one fit, and the fit note, when that fit is rejected,
        counts the one fit that ran."""
        fits = _count_fits(monkeypatch)
        clean = compute_spectrum(ModelKind.QUBIT_ONLY, ModelParams(omega0=OMEGA0, gamma_c=GAMMA_C),
                                 make_frequency_grid(1.8e9, 2.3e9, 2001))
        noisy = add_measurement_noise(clean, 0.05, 0)
        minima, _ = scipy.signal.find_peaks(-noisy.transmission, prominence=0.1)
        assert len(minima) == 189
        assert estimate._step_runs(noisy.phase)[0].size == 1
        report = estimate_report(noisy, reference_omega0=OMEGA0)
        assert len(fits) == 1 and len(report.dips) == 1
        assert report.notes == ()
        real = estimate.least_squares

        def shallow(*args, **kwargs):
            result = real(*args, **kwargs)
            result.x[0] = 0.0
            return result

        monkeypatch.setattr(estimate, "least_squares", shallow)
        report = estimate_report(noisy, reference_omega0=OMEGA0)
        assert report.dips == ()
        assert report.notes == ("1 of 1 dip fits rejected (1 depth below depth_threshold)",)

    def test_candidate_at_the_phase_jump(self, qnmr_spectrum):
        """Demo 06's seed-0 draw (1 % noise, 4001 points): the lower dip's
        bottom is clipped to T = 0 at sample 1113 alone, 7-8 samples from
        the phase jump at 1105/1106.  The candidate is the lowest sample
        of the run of steps around the jump, not the clipped sample, and
        the report keeps both dips."""
        noisy = add_measurement_noise(qnmr_spectrum, 0.01, 0)
        phase, trans = noisy.phase, noisy.transmission
        assert np.cos(phase[1106] - phase[1105]) < -0.99
        assert np.flatnonzero(trans[:2000] == 0.0).tolist() == [1113]
        start, stop = (int(k[0]) for k in estimate._step_runs(phase))
        assert start <= 1105 and 1106 < stop <= 1113
        assert int(np.argmin(trans[start:stop])) + start == 1106
        report = estimate_report(noisy, unity_tol=0.04)
        assert report.model_class is ModelClass.QUANTUM_NMR
        assert len(report.dips) == 2 and report.notes == ()


def test_dip_contract_under_noise(monkeypatch):
    """Seeded draws over models, noise levels and grid densities: every
    reported dip keeps the DipFeature contract, the number of fits per
    report stays bounded, and 5 %-noise quantum spectra still invert.
    At 15 % the phase noise itself steps by pi/4 at times, so some noise
    dips are fitted, and the scan's only note counts the fits rejected."""
    fits = []
    real = estimate.least_squares
    monkeypatch.setattr(estimate, "least_squares",
                        lambda *a, **k: fits.append(1) or real(*a, **k))
    references = {
        ModelKind.QUBIT_QNMR: {},
        ModelKind.QUBIT_CNMR: dict(reference_omega0=OMEGA0, reference_omega_b=OMEGA_B),
        ModelKind.QUBIT_ONLY: dict(reference_omega0=OMEGA0),
        ModelKind.DISPERSIVE: dict(reference_omega0=OMEGA0, reference_g_q=3e7,
                                   reference_delta=1e8),
    }
    rng = np.random.default_rng(2210)
    draws = 3
    quantum_at_5 = []
    scan_notes = []
    for kind, refs in references.items():
        for n in (2001, 4001):
            grid = make_frequency_grid(1.8e9, 2.3e9, n)
            step = grid[1] - grid[0]
            for sigma in (0.0, 0.01, 0.03, 0.05, 0.15):
                for _ in range(draws):
                    values = dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C)
                    if kind is ModelKind.QUBIT_QNMR:
                        values["g_q"] = rng.uniform(0.8, 1.2) * COUPLING
                    elif kind is ModelKind.QUBIT_CNMR:
                        values["g_c"] = rng.uniform(0.8, 1.2) * COUPLING
                    elif kind is ModelKind.DISPERSIVE:
                        values.update(g_q=3e7, v_g=3e8, gamma_c=1e6,
                                      mean_n=float(rng.integers(0, 4)))
                    else:
                        del values["omega_b"]
                    s = add_measurement_noise(
                        compute_spectrum(kind, ModelParams(**values), grid),
                        sigma, int(rng.integers(2**31)))
                    fits.clear()
                    try:
                        report = estimate_report(s, unity_tol=0.04, **refs)
                    except InconsistentFeaturesError:
                        # noise moved the dips off every consistent inversion;
                        # the detected features must still keep the contract
                        report = None
                    assert len(fits) <= 64, (kind, n, sigma, len(fits))
                    if report is None:
                        dips = detect_dips(s)
                    else:
                        dips = report.dips
                        scan_notes += [x for x in report.notes if "fit" in x]
                    for d in dips:
                        assert 0.0 <= d.depth <= 1.0, d
                        assert d.fwhm >= 0.5 * step, d
                        assert grid[0] <= d.center <= grid[-1], d
                    if kind is ModelKind.QUBIT_QNMR and sigma == 0.05:
                        quantum_at_5.append(
                            report is not None
                            and report.model_class is ModelClass.QUANTUM_NMR
                            and abs(report.g_est.value - values["g_q"])
                            <= 3 * report.g_est.sigma)
    assert sum(quantum_at_5) >= 0.8 * len(quantum_at_5)
    assert scan_notes
    for note in scan_notes:
        assert re.fullmatch(r"\d+ of \d+ dip fits rejected \(.+\)", note)


def test_rejection_note_names_unfinished_and_empty_fits(qnmr_spectrum, monkeypatch):
    """A fit whose depth is NaN or below 0.1 is rejected, and the note
    counts the reasons in their fixed order, not in the order the fits
    ran."""
    real = estimate.least_squares
    spoiled_depths = iter([-0.5, math.nan])

    def spoiled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.x[0] = next(spoiled_depths)
        return result

    monkeypatch.setattr(estimate, "least_squares", spoiled)
    report = estimate_report(qnmr_spectrum)
    assert report.dips == ()
    assert report.notes == ("2 of 2 dip fits rejected (1 fit did not produce finite "
                            "values, 1 depth below depth_threshold)",)


def _count_fits(monkeypatch):
    fits = []
    real = estimate.least_squares
    monkeypatch.setattr(estimate, "least_squares",
                        lambda *a, **k: fits.append(1) or real(*a, **k))
    return fits


def test_fit_budget_under_noise(monkeypatch):
    """Each noisy dip is fitted once, however many clipped samples its
    bottom holds: README-parameter reports at 5 % noise make at most six
    fits on 2001 and 4001 points.  The one allowance is a fit for each
    dip the report keeps beyond the model's own (a noise dip whose phase
    steps), which the step scan, not the clustering, has to keep out."""
    fits = _count_fits(monkeypatch)
    models = {
        ModelKind.QUBIT_QNMR: (2, dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C,
                                       g_q=COUPLING), {}),
        ModelKind.QUBIT_CNMR: (1, dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C,
                                       g_c=COUPLING),
                               dict(reference_omega0=OMEGA0, reference_omega_b=OMEGA_B)),
        ModelKind.QUBIT_ONLY: (1, dict(omega0=OMEGA0, gamma_c=GAMMA_C),
                               dict(reference_omega0=OMEGA0)),
    }
    counts = []
    for kind, (n_dips, values, refs) in models.items():
        for n in (2001, 4001):
            clean = compute_spectrum(kind, ModelParams(**values),
                                     make_frequency_grid(1.8e9, 2.3e9, n))
            for seed in range(10):
                fits.clear()
                report = estimate_report(add_measurement_noise(clean, 0.05, seed),
                                         unity_tol=0.04, **refs)
                extra = max(0, len(report.dips) - n_dips)
                assert len(fits) <= 6 + extra, (kind, n, seed, len(fits), len(report.dips))
                counts.append(len(fits))
    # about one fit per dip, where a fit per clipped sample averaged 16-34
    assert np.mean(counts) <= 3.0


def test_cluster_rule():
    """Consecutive candidates share a cluster exactly when T between them
    stays below the half-depth level of the shallower one, and a cluster
    is fitted from its lowest sample, the lower middle of a tied run."""
    trans = np.array([1.0, 0.0, 0.625, 0.5, 0.75, 0.25, 0.125, 0.0, 0.0625, 0.0,
                      0.0625, 0.0, 0.0625, 0.0, 1.0, 0.5, 1.0])
    # 0.625 lies below the shallower level 0.75 but above the deeper 0.5;
    # the 0.75 between samples 3 and 5 is exactly at the level
    clusters = estimate._clusters(trans, [(i, trans[i]) for i in range(1, 16, 2)])
    assert [[i for i, _ in c] for c in clusters] == [[1, 3], [5, 7, 9, 11, 13], [15]]
    assert [estimate._lowest_member(c) for c in clusters] == [1, 9, 15]
    assert estimate._clusters(trans, []) == []


CLEAN_SIZES = (401, 2001, 20001, 100001)


@pytest.mark.parametrize("kind", list(ALL_MODEL_FIXTURES))
def test_clusters_single_on_clean_spectra(kind, request, monkeypatch):
    """On these noise-free spectra no two candidates share a cluster, so
    the report fits each candidate once, as it fitted every candidate
    before clustering: the clean spectra of every model on 401-100001
    points, and a g_q sweep of the two quantum models across and below
    the resolved splitting.  Not every clean spectrum is like these:
    see test_clusters_merge_on_weak_stlr_qnmr."""
    params = request.getfixturevalue(ALL_MODEL_FIXTURES[kind])
    spectra = [compute_spectrum(kind, params, make_frequency_grid(1.8e9, 2.3e9, n))
               for n in CLEAN_SIZES]
    if kind in (ModelKind.QUBIT_QNMR, ModelKind.STLR_QUBIT_QNMR):
        grid = make_frequency_grid(1.8e9, 2.3e9, 2001)
        spectra += [compute_spectrum(kind, params.replace(g_q=g), grid)
                    for g in np.linspace(2e6, 2e8, 25)]
    fits = _count_fits(monkeypatch)
    sizes, candidates = [], []
    real_clusters = estimate._clusters

    def clusters(trans, members):
        found = real_clusters(trans, members)
        candidates.append(len(members))
        sizes.extend(len(c) for c in found)
        return found

    monkeypatch.setattr(estimate, "_clusters", clusters)
    for s in spectra:
        fits.clear()
        sizes.clear()
        candidates.clear()
        estimate_report(s)
        assert set(sizes) <= {1}, s.n_points
        assert len(fits) == sum(candidates) > 0, s.n_points


@pytest.mark.parametrize("coupling, n_points, merged", [
    (3e7, 401, [148, 151]),
    (2e7, 2001, [770, 783]),
])
def test_clusters_merge_on_weak_stlr_qnmr(coupling, n_points, merged, stlr_qnmr_params,
                                          monkeypatch):
    """Clustering is live on noise-free spectra too: on stlr-qubit-qnmr
    with g_rq = g_q weak, a second phase-step run lies within the
    half-depth level of its neighbouring dip and shares its cluster.  The
    report lists 3 dips, where fitting every candidate adds a fourth
    between the first two."""
    params = stlr_qnmr_params.replace(g_rq=coupling, g_q=coupling)
    s = compute_spectrum(ModelKind.STLR_QUBIT_QNMR, params,
                         make_frequency_grid(1.8e9, 2.3e9, n_points))
    found = []
    real_clusters = estimate._clusters

    def clusters(trans, members):
        result = real_clusters(trans, members)
        found.extend(result)
        return result

    monkeypatch.setattr(estimate, "_clusters", clusters)
    report = estimate_report(s)
    assert [[i for i, _ in c] for c in found if len(c) > 1] == [merged]
    assert len(report.dips) == 3
    monkeypatch.setattr(estimate, "_clusters", lambda trans, members: [[m] for m in members])
    extra = [d for d in detect_dips(s) if d not in report.dips]
    assert len(extra) == 1
    assert report.dips[0].center < extra[0].center < report.dips[1].center


_NARROW_QNMR = dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=2e6, g_q=2.5e7)
_DISPERSIVE_N2 = dict(omega0=OMEGA0, omega_b=OMEGA_B, g_q=3e7, v_g=3e8, gamma_c=1e6,
                      mean_n=2.0)
_README_QNMR = dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C, g_q=COUPLING)


def test_report_unity_points_equal_detect_unity_points():
    """On noisy draws the report's unity points are detect_unity_points',
    which bounds them by the dips of depth >= 0.5 that detect_dips
    reports.  The last four draws (5-15 % noise) add the narrow and
    single-dip models."""
    rng = np.random.default_rng(1980)
    draws = []
    for kind, values in PINNED_MODELS.items():
        for n in (2001, 4001):
            clean = compute_spectrum(kind, ModelParams(**values),
                                     make_frequency_grid(1.8e9, 2.3e9, n))
            draws += [(kind, n, sigma, add_measurement_noise(clean, sigma,
                                                             int(rng.integers(2**31))))
                      for sigma in (0.01, 0.03, 0.05)]
    for kind, values, n, sigma, seed in ((ModelKind.QUBIT_QNMR, _NARROW_QNMR, 2001, 0.05, 18),
                                         (ModelKind.QUBIT_QNMR, _NARROW_QNMR, 2001, 0.1, 16),
                                         (ModelKind.QUBIT_QNMR, _README_QNMR, 4001, 0.15, 35),
                                         (ModelKind.QUBIT_ONLY, _QUBIT_ONLY, 4001, 0.15, 69)):
        clean = compute_spectrum(kind, ModelParams(**values), make_frequency_grid(1.8e9, 2.3e9, n))
        draws.append((kind, n, sigma, add_measurement_noise(clean, sigma, seed)))
    for kind, n, sigma, s in draws:
        for tol in (0.01, 0.04):
            assert list(estimate_report(s, unity_tol=tol).unity_points) == (
                detect_unity_points(s, tol)), (kind, n, sigma, tol)


def test_noisy_unity_points_listed_once():
    """Noisy samples clipped to T = 1 make flat tops, each one maximum
    however many samples it spans.  The report lists at most one unity
    point on each top, so its unity points strictly increase; the tops
    of two samples and those of three or more that it lists are each
    listed once, at the midpoint of the top's first and last sample."""
    grid = make_frequency_grid(1.8e9, 2.3e9, 2001)
    listed_once = Counter()
    for kind, values in ((ModelKind.QUBIT_QNMR, _README_QNMR),
                         (ModelKind.DISPERSIVE, PINNED_MODELS[ModelKind.DISPERSIVE])):
        clean = compute_spectrum(kind, ModelParams(**values), grid)
        for sigma in (0.01, 0.03, 0.05):
            for seed in range(4):
                s = add_measurement_noise(clean, sigma, seed)
                unity = np.array(estimate_report(s, unity_tol=0.04).unity_points)
                assert len(unity) > 0
                assert np.all(np.diff(unity) > 0), (kind, sigma, seed)
                for first, last in _loop_maximum_runs(s.transmission):
                    if first == last:
                        continue
                    on_top = (s.freqs[first] <= unity) & (unity <= s.freqs[last])
                    assert np.count_nonzero(on_top) <= 1, (kind, sigma, seed, first, last)
                    if on_top.any():
                        assert unity[on_top][0] == 0.5 * (s.freqs[first] + s.freqs[last])
                        listed_once[min(last - first + 1, 4)] += 1
    # tops of 2, 3 and 4 or more samples
    assert listed_once[2] > 1000 and listed_once[3] > 500 and listed_once[4] > 500, listed_once


@pytest.mark.parametrize("kind, values, n, seed", [
    pytest.param(ModelKind.QUBIT_QNMR, _NARROW_QNMR, 2001, 18, id="narrow-2001-seed18"),
    pytest.param(ModelKind.QUBIT_QNMR, _NARROW_QNMR, 4001, 12, id="narrow-4001-seed12"),
    pytest.param(ModelKind.QUBIT_QNMR, _README_QNMR, 2001, 15, id="readme-2001-seed15"),
    pytest.param(ModelKind.QUBIT_QNMR, _README_QNMR, 4001, 4, id="readme-4001-seed4"),
])
def test_unity_points_between_reported_deep_dips(kind, values, n, seed):
    """Every unity point of a report lies strictly between the outermost
    of its own dips of depth >= 0.5.  On the narrow draw at seed 18 the
    report lists two such dips, at 1.994e9 and 2.106e9; a window bound
    that missed them would let ~100 points through, across the band.
    These 5 %-noise reports list 12-45 unity points each."""
    clean = compute_spectrum(kind, ModelParams(**values), make_frequency_grid(1.8e9, 2.3e9, n))
    report = estimate_report(add_measurement_noise(clean, 0.05, seed))
    outer = [d.center for d in report.dips if d.depth >= 0.5]
    assert len(outer) >= 2 and report.unity_points
    assert all(outer[0] < u < outer[-1] for u in report.unity_points), (
        outer[0], outer[-1], report.unity_points[0], report.unity_points[-1])


_QUBIT_ONLY = dict(omega0=OMEGA0, gamma_c=GAMMA_C)
_QUBIT_CNMR = dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C, g_c=COUPLING)


@pytest.mark.parametrize("kind, values, refs, want, n, sigma, seed", [
    pytest.param(ModelKind.QUBIT_ONLY, _QUBIT_ONLY, dict(reference_omega0=OMEGA0),
                 ModelClass.NO_NMR, 2001, 0.15, 123, id="qubit-only-2001-15pct-seed123"),
    pytest.param(ModelKind.QUBIT_CNMR, _QUBIT_CNMR,
                 dict(reference_omega0=OMEGA0, reference_omega_b=OMEGA_B),
                 ModelClass.CLASSICAL_NMR, 2001, 0.15, 380, id="qubit-cnmr-2001-15pct-seed380"),
    pytest.param(ModelKind.DISPERSIVE, _DISPERSIVE_N2,
                 dict(reference_omega0=OMEGA0, reference_g_q=3e7, reference_delta=1e8),
                 ModelClass.DISPERSIVE, 2001, 0.2, 204, id="dispersive-2001-20pct-seed204"),
    pytest.param(ModelKind.QUBIT_QNMR, _NARROW_QNMR, {}, ModelClass.QUANTUM_NMR, 4001, 0.2,
                 1, id="narrow-4001-20pct-seed1"),
])
def test_reported_dips_reach_depth_threshold(kind, values, refs, want, n, sigma, seed):
    """The depth gate of 0.1 holds a candidate's T, and its fit can come
    out shallower.  Such a fit is dropped, so every reported dip is at
    least 0.1 deep.  A noise dip is a candidate only when the phase
    noise alone steps by pi/4, which takes 15-20 % noise; on these draws
    one such fit comes out below the threshold beside the real dips, and
    the report still names the true class."""
    clean = compute_spectrum(kind, ModelParams(**values), make_frequency_grid(1.8e9, 2.3e9, n))
    noisy = add_measurement_noise(clean, sigma, seed)
    assert all(d.depth >= 0.1 for d in detect_dips(noisy))
    report = estimate_report(noisy, **refs)
    assert all(d.depth >= 0.1 for d in report.dips), report.dips
    assert report.model_class is want
    if want is ModelClass.DISPERSIVE:
        assert report.phonon_n_est == 2
    assert any("depth below depth_threshold" in note for note in report.notes)


def test_bad_unity_tol_raises_before_any_fit(qnmr_spectrum, monkeypatch):
    fits = []
    real = estimate._fit_candidate
    monkeypatch.setattr(estimate, "_fit_candidate",
                        lambda *a, **k: fits.append(1) or real(*a, **k))
    for tol in (0.0, 0.1, 0.5, -0.01):
        with pytest.raises(ValueError, match="tol must be in"):
            estimate_report(qnmr_spectrum, unity_tol=tol)
        with pytest.raises(ValueError, match="tol must be in"):
            classify(qnmr_spectrum, unity_tol=tol)
        with pytest.raises(ValueError, match="tol must be in"):
            detect_unity_points(qnmr_spectrum, tol)
    assert fits == []
    estimate_report(qnmr_spectrum)
    assert len(fits) == 2


def _maxfev_windows():
    """Two fit windows of measurement noise alone (5 % around T = 1,
    clipped at 1), as a noise dip gave them before the phase gate: the
    dip fit uses up maxfev on each."""
    freqs = 1.9e9 + 2.5e5 * np.arange(41)
    for seed in (1, 3):
        trans = np.minimum(1.0, 1.0 + 0.05 * np.random.default_rng(seed).standard_normal(41))
        yield freqs, trans, float(freqs[20]), 5e5, 1.0 - float(trans[20])


def _narrow_seven_sample_windows(monkeypatch):
    """The fit arguments of every 7-sample window that reports on the
    narrow qubit-qnmr spectrum fit: clean on 2001 and 4001 points, and
    15 % draws of seeds 3 and 5."""
    windows = []
    real = estimate._fit_lorentzian_dip
    monkeypatch.setattr(estimate, "_fit_lorentzian_dip",
                        lambda *args: windows.append(args) or real(*args))
    for n in (2001, 4001):
        clean = compute_spectrum(ModelKind.QUBIT_QNMR, ModelParams(**_NARROW_QNMR),
                                 make_frequency_grid(1.8e9, 2.3e9, n))
        for s in (clean, add_measurement_noise(clean, 0.15, 3),
                  add_measurement_noise(clean, 0.15, 5)):
            estimate_report(s)
    monkeypatch.setattr(estimate, "_fit_lorentzian_dip", real)
    return [args for args in windows if len(args[0]) == 7]


def test_one_callback_per_minpack_evaluation(qnmr_spectrum, monkeypatch):
    """A dip fit calls its residuals once per MINPACK evaluation (nfev)
    plus once more at the start point, where scipy's _minpack extension
    sizes the residual buffer before MINPACK starts; nothing else around
    the solver calls the residuals or the Jacobian.  Each Jacobian is
    asked for at the parameters of the residual call just before it,
    whose terms the dip fit's Jacobian reuses.  That holds on the
    narrow spectrum's 7-sample windows too, where MINPACK stops with
    status 1, 2, 3 and 5 and one fit collapses below 0.02 grid steps."""
    narrow = _narrow_seven_sample_windows(monkeypatch)
    assert len(narrow) == 6
    counts = []
    real = estimate.least_squares

    def counting(fun, x0, jac=None, **kw):
        calls = []

        def residuals(theta):
            calls.append(("fun", theta.tobytes()))
            return fun(theta)

        def jacobian(theta):
            calls.append(("jac", theta.tobytes()))
            return jac(theta)

        result = real(residuals, x0, jac=jacobian, **kw)
        counts.append((np.array(x0, dtype=float).tobytes(), calls, result))
        return result

    monkeypatch.setattr(estimate, "least_squares", counting)
    for sigma in (0.0, 0.03):
        estimate_report(add_measurement_noise(qnmr_spectrum, sigma, 1))
    for window in _maxfev_windows():
        estimate._fit_lorentzian_dip(*window)
    fwhm = [estimate._fit_lorentzian_dip(*window)[1] for window in narrow]
    assert len(counts) > 2
    assert any(result.status == 5 for *_, result in counts)
    assert {result.status for *_, result in counts[-6:]} == {1, 2, 3, 5}
    assert min(w / (window[0][1] - window[0][0]) for w, window in zip(fwhm, narrow)) < 0.02
    for start, calls, result in counts:
        kinds = [kind for kind, _ in calls]
        assert kinds.count("fun") == result.nfev + 1
        assert calls[:2] == [("fun", start)] * 2
        assert 1 <= kinds.count("jac") <= result.nfev
        for before, (kind, theta) in zip(calls, calls[1:]):
            if kind == "jac":
                assert before == ("fun", theta)


def _loop_maximum_runs(values):
    """(first, last) sample of each local maximum, from a walk over the
    runs of equal samples: a run higher than the samples on both sides
    of it is a maximum, and a run at either end of the array is not."""
    runs = []
    start, n = 0, len(values)
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if 0 < start and stop < n and values[start - 1] < values[start] > values[stop]:
            runs.append((start, stop - 1))
        start = stop
    return runs


def _loop_local_maxima(values):
    """One index per local maximum, the middle sample of its run, the
    left of the two middle ones when the run is even: the reference for
    the sample that estimate._unity_points judges each maximum by."""
    return [(first + last) // 2 for first, last in _loop_maximum_runs(values)]


def test_local_maxima_matches_loop(qnmr_spectrum):
    noisy = add_measurement_noise(qnmr_spectrum, 0.02, 5).transmission
    cases = [
        qnmr_spectrum.transmission,
        noisy,
        np.round(noisy, 2),  # runs of equal neighbours
        np.random.default_rng(41).integers(0, 3, 500).astype(float),
        np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5]),
        np.array([1.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 1.0]),
        np.array([1.0, 0.0, 1.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([np.nan, 1.0, 0.0, 1.0, np.nan]),
        np.array([1.0, 2.0]),
        np.array([1.0]),
        np.array([]),
        # flat tops at either end, which are no maxima
        np.array([1.0, 1.0, 0.0, 0.5, 0.0, 1.0, 1.0]),
        # a flat top next to NaN is no maximum, and NaNs make no run
        np.array([0.0, 1.0, 1.0, np.nan, 0.0, 1.0, 1.0, 0.0, np.nan, np.nan, 0.0]),
        np.array([0.0, np.inf, np.inf, 0.0, -np.inf, 1.0, -np.inf]),
        np.full(50, 0.5),  # all equal: one run at both ends
        np.array([2.0, 1.0]),
        np.array([1.0, 1.0]),
    ]
    for values in cases:
        left, right = estimate.find_peaks(values)
        assert left.dtype == right.dtype == np.intp
        runs = _loop_maximum_runs(values)
        assert left.tolist() == [first for first, _ in runs], values
        assert right.tolist() == [last for _, last in runs], values
        # the middle sample, which _unity_points judges each maximum by
        assert ((left + right) // 2).tolist() == _loop_local_maxima(values), values
    # flat tops of two, three and four samples: one index each, the left
    # middle of an even one
    assert _loop_local_maxima(cases[4]) == [2] and _loop_local_maxima(cases[5]) == [2]
    assert _loop_local_maxima(cases[6]) == [1, 6]
    assert _loop_maximum_runs(cases[15]) == [(3, 3)]
    assert _loop_maximum_runs(cases[16]) == [(5, 6)]
    assert _loop_maximum_runs(cases[17]) == [(1, 2), (5, 5)]


def _loop_naive_half_width(freqs, trans, i):
    """The sample-by-sample walk that estimate._naive_half_width replaced:
    the reference for the loop-free form."""
    half_level = 0.5 * (1.0 + trans[i])
    widths = []
    j = i
    while j > 0 and trans[j] < half_level:
        j -= 1
    if trans[j] >= half_level and j < i:
        frac = (half_level - trans[j + 1]) / max(trans[j] - trans[j + 1], 1e-300)
        widths.append(freqs[i] - (freqs[j + 1] - frac * (freqs[j + 1] - freqs[j])))
    j = i
    n = len(freqs)
    while j < n - 1 and trans[j] < half_level:
        j += 1
    if trans[j] >= half_level and j > i:
        frac = (half_level - trans[j - 1]) / max(trans[j] - trans[j - 1], 1e-300)
        widths.append((freqs[j - 1] + frac * (freqs[j] - freqs[j - 1])) - freqs[i])
    if not widths:
        return float(freqs[1] - freqs[0])
    return float(np.mean(widths))


def _mask_window(freqs, i, half_width):
    """The boolean-mask fit window that estimate._fit_window replaced: the
    reference for the slice form."""
    window = (freqs >= freqs[i] - 3.0 * half_width) & (freqs <= freqs[i] + 3.0 * half_width)
    if np.count_nonzero(window) < 7:
        window = np.zeros_like(window)
        window[max(0, i - 3):i + 4] = True
    return window


def test_naive_half_width_matches_loop(qnmr_spectrum):
    rng = np.random.default_rng(1978)
    noisy = add_measurement_noise(qnmr_spectrum, 0.03, 5)
    cases = [
        (qnmr_spectrum.freqs, qnmr_spectrum.transmission),
        (noisy.freqs, noisy.transmission),
        # eighths: samples exactly at the half level, at T = 1, and runs
        (np.arange(300.0), rng.integers(0, 9, 300) / 8.0),
        (np.cumsum(rng.uniform(0.5, 2.0, 300)), rng.uniform(0.0, 1.0, 300)),
        (np.arange(7.0), np.array([0.75, 0.5, 0.0, 0.25, 0.625, 1.0, 0.5])),
        (np.arange(5.0), np.array([0.0, 0.25, 0.0, 0.125, 0.0])),  # no crossing
        (np.arange(5.0), np.array([1.0, 0.5, 0.0, 0.25, 0.375])),  # left side only
        (np.arange(5.0), np.ones(5)),
        (np.arange(2.0), np.array([0.0, 1.0])),
        # long runs below the level, with the crossing on one side or neither
        (np.arange(300.0), np.full(300, 0.25)),
        (np.arange(300.0), np.concatenate([[1.0], np.full(299, 0.25)])),
        (np.arange(300.0), np.concatenate([[0.625], np.full(298, 0.25), [0.625]])),
    ]
    for n in (3, 33, 1000):
        # wide dips, so crossings lie up to hundreds of samples out
        width = rng.uniform(1.0, 0.3 * n + 1.0)
        dip = 1.0 - 1.0 / (1.0 + ((np.arange(n) - rng.uniform(0, n)) / width) ** 2)
        cases.append((np.cumsum(rng.uniform(0.5, 2.0, n)), dip))
    for freqs, trans in cases:
        # every sample, so i = 0 and i = n - 1 are included
        for i in range(len(freqs)):
            got = estimate._naive_half_width(freqs, trans, i)
            assert got == _loop_naive_half_width(freqs, trans, i), (trans, i)
    # sample 2 of the 7-sample case sits at T = 0: the sample at 0.5 on
    # its left is exactly at the level, and the level is 2/3 of the way
    # from 0.25 to 0.625 on its right
    assert estimate._naive_half_width(*cases[4], 2) == pytest.approx(0.5 * (1.0 + 5.0 / 3.0))


def test_fit_window_matches_mask(qnmr_spectrum):
    rng = np.random.default_rng(1979)
    grids = [qnmr_spectrum.freqs, np.arange(40.0),
             np.cumsum(rng.uniform(0.5, 2.0, 200))]
    for freqs in grids:
        step = freqs[1] - freqs[0]
        n = len(freqs)
        # edges (the 7-sample fallback within 3 samples of either end),
        # random samples, and half-widths of 0, below, at and above the
        # step; on the integer grid +-3 half-widths of 1/3 and 1 land
        # exactly on grid points
        for i in [0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1, *rng.integers(0, n, 20)]:
            for half_width in (0.0, 1.0 / 3.0, 1.0, rng.uniform(0.1, 5.0),
                               0.5 * step, step, 4.0 * step, 1e3 * step):
                expected = np.flatnonzero(_mask_window(freqs, i, half_width))
                window = estimate._fit_window(freqs, i, half_width)
                assert np.array_equal(np.arange(n)[window], expected), (i, half_width)
                assert np.array_equal(freqs[window], freqs[expected])


def _loop_unity_points(spectrum, tol, dips):
    """The per-candidate loop that estimate._unity_points replaced: the
    reference for the whole-array form."""
    outer_dips = [d for d in dips if d.depth >= 0.5]
    trans = spectrum.transmission
    phase = spectrum.phase
    freqs = spectrum.freqs
    candidates = [
        (first, last) for first, last in _loop_maximum_runs(trans)
        if trans[(first + last) // 2] >= 1.0 - tol and abs(phase[(first + last) // 2]) <= tol
    ]
    points = []
    for i, last in candidates:
        if i < last:
            # a flat top: the midpoint of its first and last sample
            points.append(float(0.5 * (freqs[i] + freqs[last])))
            continue
        denom = trans[i - 1] - 2.0 * trans[i] + trans[i + 1]
        assert denom < 0
        step = freqs[i + 1] - freqs[i]
        offset = 0.5 * (trans[i - 1] - trans[i + 1]) / denom * step
        points.append(float(freqs[i] + offset))
    if len(outer_dips) >= 2:
        lo = outer_dips[0].center
        hi = outer_dips[-1].center
        points = [x for x in points if lo < x < hi]
    return sorted(points)


def _loop_window(spectrum, unity, low, high):
    """The min() over the unity points that estimate_report's argmin
    replaced: the first point of smallest interpolated |phase|."""
    between = [u for u in unity if low < u < high]
    return min(between,
               key=lambda u: abs(float(np.interp(u, spectrum.freqs, spectrum.phase))))


def test_unity_points_match_loop(qnmr_spectrum, dispersive_params):
    dispersive = compute_spectrum(ModelKind.DISPERSIVE, dispersive_params,
                                  qnmr_spectrum.freqs)
    spectra = [qnmr_spectrum, dispersive]
    for seed in range(3):
        for sigma in (0.01, 0.03):
            spectra += [add_measurement_noise(qnmr_spectrum, sigma, seed),
                        add_measurement_noise(dispersive, sigma, seed)]
    # rounded noise: flat tops whose two edges both count as maxima
    rounded = add_measurement_noise(qnmr_spectrum, 0.01, 4)
    spectra.append(Spectrum(freqs=rounded.freqs,
                            transmission=np.round(rounded.transmission, 2),
                            phase=np.round(rounded.phase, 2)))
    freqs = np.cumsum(np.random.default_rng(5).uniform(0.5, 2.0, 12))
    # (below - 2.0) + 1.0 rounds to 0: no parabola through the left sample
    # of the top at samples 2-3 has a vertex
    below = 1.0 - 2.0**-53
    for trans in (
        [0.9, 1.0, 0.9, 0.5, 0.2, 0.5, 0.99, 0.6, 0.2, 0.7, 0.995, 0.99],  # maxima at the edges
        [0.2, 0.5, 1.0, 1.0, 1.0, 0.5, 0.2, 0.999, 0.999, 0.3, 1.0, 1.0],  # plateaus
        [0.2, below, 1.0, 1.0, 0.5, 0.2, 0.5, 1.0, below, 0.2, 0.5, 0.6],
        np.linspace(0.0, 1.0, 12),  # no maximum
    ):
        for phase in (np.zeros(12), np.linspace(-0.05, 0.05, 12)):
            spectra.append(Spectrum(freqs=freqs, transmission=trans, phase=phase))
    # the centre of that top sits on the lower dip center
    fake_pair = [estimate.DipFeature(0.5 * (freqs[2] + freqs[3]), 1.0, 0.8, 0.0),
                 estimate.DipFeature(freqs[9], 1.0, 0.8, 0.0)]
    # a dip shallower than 0.5 does not bound the search
    shallow = fake_pair + [estimate.DipFeature(freqs[11], 1.0, 0.4, 0.0)]
    windows = 0
    for s in spectra:
        for outer in ([], fake_pair, shallow, detect_dips(s)):
            for tol in (0.01, 0.04, 0.09):
                got = estimate._unity_points(s, tol, outer)
                assert got == _loop_unity_points(s, tol, outer), (tol, outer)
                assert all(type(x) is float for x in got)
        if s.n_points > 12:
            report = estimate_report(s, unity_tol=0.04)
            if report.model_class is ModelClass.QUANTUM_NMR:
                # the deepest two dips, as the classification takes them
                pair = sorted(report.dips, key=lambda d: d.depth, reverse=True)[:2]
                low, high = sorted(d.center for d in pair)
                assert report.omega_b_est.value == _loop_window(
                    s, report.unity_points, low, high)
                windows += 1
    assert windows >= 6


def _reference_model(freqs, trans, center0, half_width0):
    """Residuals and row-major Jacobian of the dip fit, each computed from
    scratch per call as scipy.optimize.least_squares takes them."""
    u = (freqs - center0) / max(half_width0, 1e-300)

    def residuals(theta):
        depth, mu, g0, g1 = theta
        v = u - mu
        width = g0 + g1 * v
        return 1.0 - depth * width**2 / (v**2 + width**2) - trans

    def jacobian(theta):
        depth, mu, g0, g1 = theta
        v = u - mu
        width = g0 + g1 * v
        denom = v**2 + width**2
        common = -2.0 * depth * width * v / denom**2
        return np.column_stack((-width**2 / denom, common * g0,
                                common * v, common * v**2))

    return residuals, jacobian


class TestFitKernel:
    """estimate.least_squares runs MINPACK lmder with the settings of
    scipy.optimize.least_squares(method="lm", x_scale="jac"), and the
    dip fit's column-major, shared-term Jacobian has the same values as
    one built per call."""

    @staticmethod
    def _record(monkeypatch, spectra, extra_windows=()):
        """The fit windows of each spectrum's report and the extra ones,
        then each window's fit as (least_squares arguments, result)."""
        windows = []
        real_fit = estimate._fit_lorentzian_dip
        monkeypatch.setattr(estimate, "_fit_lorentzian_dip",
                            lambda *a: windows.append(a) or real_fit(*a))
        for s in spectra:
            estimate_report(s)
        windows += extra_windows
        fits = []
        real = estimate.least_squares

        def recording(fun, x0, jac):
            fits.append(((fun, x0, jac), real(fun, x0, jac=jac)))
            return fits[-1][1]

        monkeypatch.setattr(estimate, "least_squares", recording)
        for w in windows:
            real_fit(*w)
        return windows, fits

    @staticmethod
    def _spectra(qnmr_spectrum):
        return [add_measurement_noise(qnmr_spectrum, sigma, seed)
                for sigma, seed in ((0.0, 0), (0.01, 0), (0.03, 1), (0.05, 1))]

    def test_equals_scipy_least_squares(self, qnmr_spectrum, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            windows, fits = self._record(monkeypatch, self._spectra(qnmr_spectrum),
                                         list(_maxfev_windows()))
        statuses = [result.status for _, result in fits]
        assert statuses.count(5) == 2
        for (freqs, trans, center0, half_width0, depth0), (_, ours) in zip(windows, fits):
            residuals, jacobian = _reference_model(freqs, trans, center0, half_width0)
            ref = scipy.optimize.least_squares(residuals, [depth0, 0.0, 1.0, 0.0],
                                               jac=jacobian, method="lm", x_scale="jac")
            assert np.array_equal(ours.x, ref.x)
            assert ours.cost == ref.cost
            assert ours.nfev == ref.nfev
            # least_squares reports MINPACK's info 5 (maxfev) as status 0
            assert (ours.status == 5) == (ref.status == 0)
            assert ours.nfev <= 400

    def test_both_branches_equal_scipy_leastsq(self, qnmr_spectrum, monkeypatch):
        """lmder with the dip fit's Jacobian gives what
        scipy.optimize.leastsq gives for the same settings, to the bit,
        on both of MINPACK's exits: windows that converge and windows that
        use up maxfev."""
        _, fits = self._record(monkeypatch, self._spectra(qnmr_spectrum),
                               list(_maxfev_windows()))
        assert len(fits) > 2
        statuses = []
        for (fun, x0, jac), ours in fits:
            x, _, info, _, status = scipy.optimize.leastsq(
                fun, x0, Dfun=jac, full_output=True, col_deriv=True,
                ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=100 * len(x0),
                factor=100.0, diag=None)
            assert np.array_equal(ours.x, x)
            assert ours.cost == 0.5 * np.dot(info["fvec"], info["fvec"])
            assert ours.nfev == info["nfev"]
            assert ours.status == status
            statuses.append(status)
        assert set(statuses) == {1, 5}

    def test_fits_share_no_state(self, qnmr_spectrum, monkeypatch):
        windows, fits = self._record(monkeypatch, [qnmr_spectrum])
        assert len(fits) == 2
        models = [_reference_model(*w[:4]) for w in windows]
        thetas = [result.x for _, result in fits]
        seen = []
        # evaluate both fits at both parameter vectors, interleaved, so a
        # shared cache keyed on the parameters would hand one fit the
        # other's terms
        for theta in thetas + thetas[::-1]:
            for ((fun, _, jac), _), (residuals, jacobian) in zip(fits, models):
                assert np.array_equal(fun(theta), residuals(theta))
                j = jac(theta)
                assert np.array_equal(j, jacobian(theta).T)
                seen.append(j)
        assert not np.shares_memory(seen[0], seen[1])


PINNED_MODELS = {
    ModelKind.QUBIT_ONLY: dict(omega0=OMEGA0, gamma_c=GAMMA_C),
    ModelKind.QUBIT_QNMR: dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C,
                               g_q=COUPLING),
    ModelKind.QUBIT_CNMR: dict(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C,
                               g_c=COUPLING),
    ModelKind.DISPERSIVE: dict(omega0=OMEGA0, omega_b=OMEGA_B, g_q=3e7, v_g=3e8,
                               gamma_c=1e6, mean_n=1.0),
}
PINNED_REFERENCES = (
    {},
    dict(reference_omega0=OMEGA0),
    dict(reference_omega0=OMEGA0, reference_omega_b=OMEGA_B),
    # inside half the bare dip's FWHM: no mechanics, by the dip's tolerance
    dict(reference_omega0=OMEGA0 + 3e7, reference_omega_b=OMEGA_B),
    dict(reference_omega0=OMEGA0, reference_g_q=3e7, reference_delta=1e8),
    dict(reference_g_q=3e7, reference_delta=1e8),
)


def _edge_spectra(grid):
    """A flat spectrum, the three-dip resonator spectrum, and two bare
    dips with no full-transmission point between them."""
    yield Spectrum.from_amplitude(grid, np.ones(len(grid), dtype=complex))
    yield compute_spectrum(ModelKind.STLR_QUBIT_QNMR,
                           ModelParams(**PINNED_MODELS[ModelKind.QUBIT_QNMR],
                                       omega_r=OMEGA_R, g_rq=COUPLING, v2=1e8,
                                       v_g=3e8), grid)
    pair = [compute_spectrum(ModelKind.QUBIT_ONLY,
                             ModelParams(omega0=w, gamma_c=GAMMA_C), grid)
            for w in (1.95e9, 2.15e9)]
    yield add_measurement_noise(
        Spectrum.from_amplitude(grid, pair[0].amplitude * pair[1].amplitude), 0.01, 7)


def _pinned_spectra():
    """The four scattering models at 0, 1 and 5 % noise on 2001 points,
    then the edge spectra."""
    grid = make_frequency_grid(1.8e9, 2.3e9, 2001)
    for kind, values in PINNED_MODELS.items():
        clean = compute_spectrum(kind, ModelParams(**values), grid)
        for sigma in (0.0, 0.01, 0.05):
            yield add_measurement_noise(clean, sigma, 7)
    yield from _edge_spectra(grid)


def test_report_bytes_pinned():
    """Every report of a fixed table, serialized as the estimate command
    writes it (or the inversion error it raises), hashes to the pinned
    bytes: those of the reports since dip candidates come from the runs
    of phase steps and each flat top of T gives its centre as a unity
    point."""
    digest = hashlib.sha256()
    classes = set()
    for s in _pinned_spectra():
        for refs in PINNED_REFERENCES:
            try:
                report = estimate_report(s, **refs)
            except InconsistentFeaturesError as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            else:
                classes.add(report.model_class)
                text = report_json_text(report)
            digest.update(text.encode())
    assert classes == set(ModelClass)
    assert digest.hexdigest() == (
        "c81faad002fbc74c26c6333ceaf315b25181a4a416d0b6b02a9b47fab19cb885")


@pytest.mark.filterwarnings("ignore:.*dispersive approximation")
def test_clean_dip_lists_pinned(request):
    """detect_dips of the clean spectra of every model on 401, 2001 and
    4001 points, each coupling at 0.3, 1 and 2 times its fixture value,
    hashes to the pinned dip lists: those of the noise gate the phase
    gate replaced, which it leaves unchanged."""
    digest = hashlib.sha256()
    for kind, fixture in ALL_MODEL_FIXTURES.items():
        params = request.getfixturevalue(fixture)
        couplings = [k for k in ("g_q", "g_c", "g_rq") if getattr(params, k) is not None]
        for n in (401, 2001, 4001):
            grid = make_frequency_grid(1.8e9, 2.3e9, n)
            for scale in (0.3, 1.0, 2.0) if couplings else (1.0,):
                scaled = params.replace(**{k: scale * getattr(params, k) for k in couplings})
                dips = detect_dips(compute_spectrum(kind, scaled, grid))
                digest.update(repr([d.to_dict() for d in dips]).encode())
    assert digest.hexdigest() == (
        "81525ca99012941e3293d6b5473ec8073b060e0b0a1e86090eb5e721fa198426")


def test_classify_agrees_with_report():
    """classify is the raising form of the report's rule: on seeded draws
    over models, noise and references it returns the report's class, and
    raises exactly when the report is ambiguous, finds nothing, or keeps
    more than two dips."""
    rng = np.random.default_rng(1978)
    grid = make_frequency_grid(1.8e9, 2.3e9, 2001)
    spectra = list(_edge_spectra(grid))
    for kind, values in PINNED_MODELS.items():
        clean = compute_spectrum(kind, ModelParams(**values), grid)
        spectra += [add_measurement_noise(clean, sigma, int(rng.integers(2**31)))
                    for sigma in (0.0, 0.01, 0.03, 0.05)]
    outcomes = set()
    for s in spectra:
        for ref in (None, OMEGA0, OMEGA0 + 3e7):
            try:
                report = estimate_report(s, reference_omega0=ref)
            except InconsistentFeaturesError:
                # the class was decided; the inversion after it failed
                continue
            raises = (report.model_class in (ModelClass.AMBIGUOUS,
                                             ModelClass.NO_FEATURES)
                      or len(report.dips) > 2)
            outcomes.add((report.model_class, raises))
            if raises:
                with pytest.raises(AmbiguousClassificationError):
                    classify(s, ref)
            else:
                assert classify(s, ref) is report.model_class
    assert {c for c, raises in outcomes if not raises} == {
        ModelClass.NO_NMR, ModelClass.CLASSICAL_NMR, ModelClass.QUANTUM_NMR}
    assert {c for c, raises in outcomes if raises} == {
        ModelClass.AMBIGUOUS, ModelClass.NO_FEATURES, ModelClass.QUANTUM_NMR}
