import math
import re

import numpy as np
import pytest

from qspectra import (
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    HBAR,
    MissingParameterError,
    ModelKind,
    ModelParams,
    Spectrum,
    add_measurement_noise,
    compute_spectrum,
    make_frequency_grid,
)

# each check of a spectrum's construction: (freqs, transmission, phase,
# amplitude, message)
_GOOD = ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
INVALID_SPECTRA = {
    "short-grid": ([1.0], [0.5], [0.0], None,
                   "a spectrum needs a 1-d grid of at least 2 frequencies"),
    "shape": (_GOOD[0], [0.5, 0.5], _GOOD[2], None,
              "transmission/phase arrays must match the grid shape"),
    "non-finite-grid": ([1.0, math.inf, 3.0], *_GOOD[1:], None,
                        "frequency grid contains non-finite values"),
    "non-increasing": ([1.0, 1.0, 2.0], *_GOOD[1:], None,
                       "frequency grid must be strictly increasing"),
    "nan-transmission": (_GOOD[0], [0.5, math.nan, 0.5], _GOOD[2], None,
                         "transmission values must lie in [0, 1]"),
    "phase": (*_GOOD[:2], [0.0, 4.0, 0.0], None, "phase values must lie in (-pi, pi]"),
    "amplitude-shape": (*_GOOD, [0.5, 0.5], "amplitude array must match the grid shape"),
    "amplitude": (*_GOOD, [1.0, 1.0, 1.0], "transmission is not |amplitude|**2"),
}


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

    @pytest.mark.parametrize("n_points, shown", [
        (2.9, "2.9"), (3.0, "3.0"), (math.nan, "nan"), (True, "True"), ("5", "'5'"),
        (np.float64(4.0), repr(np.float64(4.0))),
    ], ids=["fraction", "integral-float", "nan", "bool", "str", "numpy-float"])
    def test_non_integer_count_rejected(self, n_points, shown):
        with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer, got {shown}")):
            make_frequency_grid(0.0, 1.0, n_points)

    def test_numpy_integer_count_accepted(self):
        assert make_frequency_grid(0, 10, np.int64(3)).tolist() == [0, 5, 10]


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
        with pytest.raises(TypeError):
            p.replace(omega_q=2.2e9)
        # with v_g set, gamma_c = v1**2/v_g: replacing one side re-derives
        # the other instead of keeping the stale partner
        p = ModelParams(omega0=2.1e9, gamma_c=3.3e7, v_g=3e8)
        q = p.replace(gamma_c=1e7)
        assert q.gamma_c == 1e7 and q.v1 == pytest.approx(math.sqrt(1e7 * 3e8), rel=1e-15)
        q = p.replace(v1=1e8)
        assert q.v1 == 1e8 and q.gamma_c == pytest.approx(1e16 / 3e8, rel=1e-15)
        q = p.replace(v_g=6e8)
        assert q.v1 == p.v1 and q.gamma_c == pytest.approx(p.v1**2 / 6e8, rel=1e-15)
        assert p.replace(v_g=3e8) == p and p.replace(omega0=2.2e9).gamma_c == 3.3e7
        # without v1 a new v_g keeps gamma_c and derives v1
        q = ModelParams(gamma_c=3.3e7).replace(v_g=3e8)
        assert q.gamma_c == 3.3e7 and q.v1 == pytest.approx(math.sqrt(3.3e7 * 3e8))
        # without v_g the two stay independent
        q = ModelParams(gamma_c=1.0, v1=2.0).replace(gamma_c=3.0)
        assert (q.gamma_c, q.v1) == (3.0, 2.0)
        q = p.replace(gamma_c=1e7, v1=math.sqrt(1e7 * 3e8))
        assert q.gamma_c == 1e7
        with pytest.raises(ValueError, match="disagree"):
            p.replace(gamma_c=1e7, v1=1e8)


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

    @pytest.mark.parametrize("column", ["transmission", "phase"])
    def test_nan_rejected(self, column):
        values = {"transmission": np.full(3, 0.5), "phase": np.zeros(3)}
        values[column][1] = np.nan
        with pytest.raises(ValueError, match=column):
            Spectrum(freqs=np.array([1.0, 2.0, 3.0]), **values)

    def test_nan_amplitude_rejected(self):
        freqs = np.array([1.0, 2.0, 3.0])
        amp = np.array([0.5, np.nan, 0.5], dtype=complex)
        with pytest.raises(ValueError, match="transmission"):
            Spectrum.from_amplitude(freqs, amp)
        with pytest.raises(ValueError, match="amplitude"):
            Spectrum(freqs=freqs, transmission=np.full(3, 0.25), phase=np.zeros(3),
                     amplitude=amp)

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

    @pytest.mark.parametrize("case", INVALID_SPECTRA.values(), ids=INVALID_SPECTRA)
    def test_adopting_entry_runs_every_check(self, case):
        """The public constructor runs every check, with its messages."""
        *values, message = case
        arrays = [None if v is None else np.array(v, dtype=float if k < 3 else complex)
                  for k, v in enumerate(values)]
        with pytest.raises(ValueError, match=re.escape(message)):
            Spectrum(*arrays)

    def test_package_built_arrays_are_read_only(self):
        freqs = make_frequency_grid(1e9, 2e9, 101)
        clean = compute_spectrum(ModelKind.QUBIT_ONLY,
                                 ModelParams(omega0=1.5e9, gamma_c=1e8), freqs)
        noisy = add_measurement_noise(clean, 0.02, 1)
        freqs[0] = 0.0
        assert clean.freqs[0] == noisy.freqs[0] == 1e9
        for value in (clean.freqs, clean.transmission, clean.phase, clean.amplitude,
                      noisy.freqs, noisy.transmission, noisy.phase):
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 0.0

    def test_nan_amplitude_from_a_kernel_rejected(self):
        # inf/inf where (w-omega0)(w-omega_b) overflows
        params = ModelParams(omega0=1e300, omega_b=1e300, gamma_c=1.0, g_q=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=re.escape("transmission values must lie in [0, 1]")):
            compute_spectrum(ModelKind.QUBIT_QNMR, params, np.array([1.0, 1.5, 2.0]))

    def test_amplitude_route_compares_clipped_points(self):
        """from_amplitude skips the |amplitude|**2 comparison only where the
        [0, 1] clip moved no transmission."""
        freqs = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match=re.escape("transmission is not |amplitude|**2")):
            Spectrum.from_amplitude(freqs, np.full(2, math.sqrt(1 + 1e-10) + 0j))
        amp = np.full(2, math.sqrt(1 + 1e-13) + 0j)
        assert np.all(np.abs(amp) ** 2 > 1)
        assert Spectrum.from_amplitude(freqs, amp).transmission.tolist() == [1.0, 1.0]

    def test_noise_route_keeps_the_phase_check(self, qnmr_params):
        """The phases that noise of sigma 1e308 used to leave: draws that
        overflow to infinity wrap to NaN."""
        clean = compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params,
                                 make_frequency_grid(1.8e9, 2.3e9, 401))
        rng = np.random.default_rng(1)
        trans = np.clip(clean.transmission + rng.normal(0.0, 1e308, 401), 0.0, 1.0)
        with np.errstate(invalid="ignore"):
            phase = np.mod(clean.phase + rng.normal(0.0, 1e308, 401) + np.pi, 2 * np.pi)
        phase -= np.pi
        assert np.any(np.isnan(phase))
        with pytest.raises(ValueError, match=re.escape("phase values must lie in (-pi, pi]")):
            Spectrum._adopt(clean.freqs, trans, phase, route="noise")

    @pytest.mark.parametrize("kind, fixture", [
        (ModelKind.QUBIT_ONLY, "qubit_params"),
        (ModelKind.QUBIT_QNMR, "qnmr_params"),
        (ModelKind.QUBIT_CNMR, "cnmr_params"),
        (ModelKind.DISPERSIVE, "dispersive_params"),
        (ModelKind.STLR_QUBIT, "stlr_params"),
        (ModelKind.STLR_QUBIT_QNMR, "stlr_qnmr_params"),
        (ModelKind.STLR_QUBIT_CNMR, "stlr_cnmr_params"),
    ])
    def test_package_routes_pass_every_check(self, kind, fixture, request):
        """A spectrum built by compute_spectrum or add_measurement_noise,
        which skip the checks they cannot fail, comes out of the public
        constructor's full checks bit for bit."""
        base = request.getfixturevalue(fixture)
        rng = np.random.default_rng([2022, list(ModelKind).index(kind)])
        scaled = {name: value * rng.uniform(0.97, 1.03) for name, value in base.to_dict().items()
                  if name not in ("v1", "v_g", "mean_n")}
        params = base.replace(**scaled)
        for n in (1000, 10000, 100000):
            clean = compute_spectrum(kind, params, make_frequency_grid(1.8e9, 2.3e9, n))
            spectra = [clean] + [add_measurement_noise(clean, sigma, int(rng.integers(2**31)))
                                 for sigma in (0.01, 0.05, 10.0)]
            for built in spectra:
                checked = Spectrum(built.freqs, built.transmission, built.phase,
                                   built.amplitude)
                for name in ("freqs", "transmission", "phase", "amplitude"):
                    value, again = getattr(built, name), getattr(checked, name)
                    assert (value is again is None
                            or value.tobytes() == again.tobytes()), (n, name)

    def test_grid_step(self):
        s = Spectrum.from_amplitude(make_frequency_grid(0, 10, 11),
                                    np.full(11, 1.0 + 0j))
        assert s.grid_step == 1.0


def test_flux_quantum_is_pi_hbar_over_charge():
    assert FLUX_QUANTUM == pytest.approx(math.pi * HBAR / ELEMENTARY_CHARGE, rel=1e-9)
