import math

import numpy as np
import pytest

from qspectra import (
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    HBAR,
    MissingParameterError,
    ModelParams,
    Spectrum,
    make_frequency_grid,
)


class TestFrequencyGrid:
    def test_linear_spacing(self):
        assert make_frequency_grid(0, 10, 3).tolist() == [0, 5, 10]

    def test_endpoints_only(self):
        assert make_frequency_grid(1.9e9, 2.3e9, 2).tolist() == [1.9e9, 2.3e9]

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            make_frequency_grid(2e9, 2e9, 5)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            make_frequency_grid(2.3e9, 1.9e9, 100)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_frequency_grid(0, 1, 1)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            make_frequency_grid(0, math.inf, 10)
        with pytest.raises(ValueError):
            make_frequency_grid(math.nan, 1, 10)


class TestModelParams:
    def test_gamma_c_derived_from_v1(self):
        p = ModelParams(v1=1e8, v_g=3e8)
        assert p.gamma_c == pytest.approx(1e16 / 3e8, rel=1e-12)

    def test_v1_derived_from_gamma_c(self):
        p = ModelParams(gamma_c=3.3e7, v_g=3e8)
        assert p.v1 == pytest.approx(math.sqrt(3.3e7 * 3e8), rel=1e-12)
        # the pair is self-consistent by construction
        assert p.gamma_c == pytest.approx(p.v1**2 / p.v_g, rel=1e-9)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ModelParams(gamma_c=1e7, v1=1e8, v_g=3e8)

    def test_consistent_pair_accepted(self):
        p = ModelParams(gamma_c=1e16 / 3e8, v1=1e8, v_g=3e8)
        assert p.v1 == 1e8

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="g_q"):
            ModelParams(g_q=-1.0)

    def test_negative_eigenfrequency_rejected(self):
        with pytest.raises(ValueError, match="omega0"):
            ModelParams(omega0=-2.1e9)

    def test_nonpositive_group_speed_rejected(self):
        with pytest.raises(ValueError, match="v_g"):
            ModelParams(v_g=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(omega0=math.inf)

    def test_require_names_missing_field(self):
        p = ModelParams(omega0=2.1e9)
        with pytest.raises(MissingParameterError, match="gamma_c"):
            p.require("omega0", "gamma_c")

    def test_serialization_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ModelParams(
                omega0=float(rng.uniform(1e9, 3e9)),
                omega_b=float(rng.uniform(1e9, 3e9)),
                gamma_c=float(rng.uniform(1e6, 1e8)),
                v_g=3e8,
                g_q=float(rng.uniform(0, 2e8)),
                mean_n=float(rng.uniform(0, 10)),
            )
            again = ModelParams.from_json(p.to_json())
            assert again == p  # dataclass equality is field-exact

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelParams.from_dict({"omega_q": 1.0})

    def test_replace_revalidates(self):
        p = ModelParams(omega0=2.1e9, gamma_c=3.3e7)
        q = p.replace(omega0=2.2e9)
        assert q.omega0 == 2.2e9 and q.gamma_c == 3.3e7
        with pytest.raises(ValueError):
            p.replace(g_q=-1.0)


class TestSpectrum:
    def test_from_amplitude_consistency(self):
        freqs = make_frequency_grid(1e9, 2e9, 101)
        amp = np.exp(1j * np.linspace(-3, 3, 101)) * np.linspace(0, 1, 101)
        s = Spectrum.from_amplitude(freqs, amp)
        assert np.allclose(s.transmission, np.abs(amp) ** 2, rtol=1e-12, atol=0)
        assert np.all(s.phase > -np.pi) and np.all(s.phase <= np.pi)

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum(freqs=np.array([1.0, 1.0, 2.0]),
                     transmission=np.zeros(3), phase=np.zeros(3))

    def test_inconsistent_amplitude_rejected(self):
        freqs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="amplitude"):
            Spectrum(freqs=freqs, transmission=np.full(3, 0.5),
                     phase=np.zeros(3), amplitude=np.ones(3, dtype=complex))

    def test_out_of_range_transmission_rejected(self):
        freqs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Spectrum(freqs=freqs, transmission=np.array([0.0, 1.5, 0.0]),
                     phase=np.zeros(3))

    def test_arrays_are_immutable(self):
        freqs = make_frequency_grid(1e9, 2e9, 11)
        s = Spectrum.from_amplitude(freqs, np.full(11, 0.5 + 0j))
        with pytest.raises(ValueError):
            s.transmission[0] = 0.3

    def test_isolated_from_inputs(self):
        freqs = make_frequency_grid(1e9, 2e9, 11)
        amp = np.full(11, 0.6 + 0.0j)
        trans = np.abs(amp) ** 2
        phase = np.zeros(11)
        s = Spectrum(freqs=freqs, transmission=trans, phase=phase, amplitude=amp)
        built = Spectrum.from_amplitude(freqs, amp)
        expected = [a.copy() for a in (freqs, trans, phase, amp)]
        for a in (freqs, trans, phase, amp):
            a[3] = 0.0
        for spectrum in (s, built):
            stored = (spectrum.freqs, spectrum.transmission, spectrum.phase,
                      spectrum.amplitude)
            for value, want in zip(stored, expected):
                assert np.array_equal(value, want)
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[0] = 0.0

    def test_grid_step(self):
        s = Spectrum.from_amplitude(make_frequency_grid(0, 10, 11),
                                    np.full(11, 1.0 + 0j))
        assert s.grid_step == 1.0


def test_flux_quantum_is_pi_hbar_over_charge():
    assert FLUX_QUANTUM == pytest.approx(math.pi * HBAR / ELEMENTARY_CHARGE, rel=1e-9)
