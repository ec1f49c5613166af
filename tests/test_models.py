import math
import warnings

import numpy as np
import pytest

from qspectra import (
    FeatureSet,
    ModelKind,
    ModelParams,
    MissingParameterError,
    REQUIRED_PARAMS,
    analytic_features,
    compute_spectrum,
    coupled_mode_frequencies,
    dispersive_amplitude,
    dispersive_dip_frequency,
    make_frequency_grid,
    qubit_amplitude,
    qubit_cnmr_amplitude,
    qubit_qnmr_amplitude,
    resolvability_condition,
    shifted_qubit_frequency,
    stlr_amplitude,
    stlr_qubit_amplitude,
    stlr_qubit_cnmr_amplitude,
    stlr_qubit_qnmr_amplitude,
    transmission_amplitude,
)

from conftest import COUPLING, GAMMA_C, OMEGA0, OMEGA_B, OMEGA_R, V_G

#: a grid through OMEGA0 and OMEGA_B, where g = 0 decouples one mode
_THROUGH_DECOUPLED = make_frequency_grid(1.8e9, 2.3e9, 4001)


def hybrid_roots_oracle(omega_a, omega_b, g):
    """Zeros of (w-omega_a)(w-omega_b) - g**2 by direct quadratic solve."""
    roots = np.roots([1.0, -(omega_a + omega_b), omega_a * omega_b - g**2])
    return tuple(sorted(float(r) for r in roots))


class TestQubitOnly:
    def test_complete_reflection_on_resonance(self, qubit_params):
        assert abs(qubit_amplitude(OMEGA0, qubit_params)) ** 2 == 0.0

    def test_half_transmission_at_half_width(self, qubit_params):
        t = qubit_amplitude(OMEGA0 + GAMMA_C, qubit_params)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_far_detuned_transparency(self, qubit_params):
        # asymptotically 1 - T -> (gamma_c/detuning)**2
        detuning = 1e12
        t = qubit_amplitude(OMEGA0 + detuning, qubit_params)
        expected_loss = GAMMA_C**2 / (detuning**2 + GAMMA_C**2)
        assert 1 - abs(t) ** 2 == pytest.approx(expected_loss, rel=1e-9)
        assert abs(t) ** 2 > 1 - 2e-9

    def test_phase_formula(self, qubit_params):
        w = make_frequency_grid(1.9e9, 2.3e9, 501)
        w = w[np.abs(w - OMEGA0) > 1e5]
        t = qubit_amplitude(w, qubit_params)
        expected = -np.arctan(GAMMA_C / (w - OMEGA0))
        assert np.allclose(np.angle(t), expected, rtol=0, atol=1e-9)

    def test_pi_phase_step_across_resonance(self, qubit_params):
        below = np.angle(qubit_amplitude(OMEGA0 - 1e3, qubit_params))
        above = np.angle(qubit_amplitude(OMEGA0 + 1e3, qubit_params))
        assert abs(below - above) == pytest.approx(math.pi, abs=1e-3)

    def test_non_finite_frequency_rejected(self, qubit_params):
        with pytest.raises(ValueError):
            qubit_amplitude(math.nan, qubit_params)

    def test_missing_parameter_named(self):
        with pytest.raises(MissingParameterError, match="gamma_c"):
            qubit_amplitude(2e9, ModelParams(omega0=2.1e9))


class TestQubitQnmr:
    def test_unity_at_mechanical_frequency(self, qnmr_params):
        t = qubit_qnmr_amplitude(OMEGA_B, qnmr_params)
        assert abs(t) ** 2 == 1.0
        assert np.angle(t) == 0.0

    def test_dips_at_hybrid_frequencies(self, qnmr_params):
        for dip in hybrid_roots_oracle(OMEGA0, OMEGA_B, COUPLING):
            assert abs(qubit_qnmr_amplitude(dip, qnmr_params)) ** 2 < 1e-9

    def test_hybrid_frequencies_match_quoted_values(self):
        low, high = coupled_mode_frequencies(OMEGA0, OMEGA_B, COUPLING)
        assert high == pytest.approx(2.162e9, abs=5e5)
        assert low == pytest.approx(1.938e9, abs=5e5)
        oracle = hybrid_roots_oracle(OMEGA0, OMEGA_B, COUPLING)
        assert (low, high) == pytest.approx(oracle, rel=1e-12)

    def test_decoupled_limit_reduces_to_bare_qubit(self, qnmr_params, qubit_params):
        # any g > 0 keeps T = 1 at omega_b itself, so this grid avoids it
        w = make_frequency_grid(1.8e9, 2.3e9, 997)
        for g in (0.0, 1.0):
            t_coupled = qubit_qnmr_amplitude(w, qnmr_params.replace(g_q=g))
            t_bare = qubit_amplitude(w, qubit_params)
            assert np.max(np.abs(t_coupled - t_bare)) < 1e-9
        w = _THROUGH_DECOUPLED
        assert OMEGA_B in w
        assert np.array_equal(qubit_qnmr_amplitude(w, qnmr_params.replace(g_q=0.0)),
                              qubit_amplitude(w, qubit_params))

    def test_phase_formula_modulo_branch(self, qnmr_params):
        w = make_frequency_grid(1.8e9, 2.3e9, 601)
        t = qubit_qnmr_amplitude(w, qnmr_params)
        numerator = (w - OMEGA_B) * (w - OMEGA0) - COUPLING**2
        good = np.abs(numerator) > 1e12
        expected = -np.arctan(GAMMA_C * (w - OMEGA_B)[good] / numerator[good])
        observed = np.angle(t[good])
        branch = np.round((observed - expected) / math.pi)
        assert np.allclose(observed - branch * math.pi, expected, rtol=0, atol=1e-9)

    def test_symmetric_dips_on_resonance(self):
        p = ModelParams(omega0=2e9, omega_b=2e9, gamma_c=GAMMA_C, g_q=COUPLING)
        low, high = analytic_features(ModelKind.QUBIT_QNMR, p).dips
        assert low == pytest.approx(2e9 - COUPLING, rel=1e-12)
        assert high == pytest.approx(2e9 + COUPLING, rel=1e-12)


class TestDispersive:
    def test_dip_ladder_values(self, dispersive_params):
        # delta = 1e8, g_q = 3e7: shift per phonon 9e6, offset 4.5e6
        assert dispersive_dip_frequency(dispersive_params, 0) == pytest.approx(2.1045e9, rel=1e-12)
        assert dispersive_dip_frequency(dispersive_params, 1) == pytest.approx(2.1135e9, rel=1e-12)

    def test_dip_is_total_reflection(self, dispersive_params):
        dip = dispersive_dip_frequency(dispersive_params)
        assert abs(dispersive_amplitude(dip, dispersive_params)) ** 2 < 1e-9

    def test_equal_rung_spacing(self, dispersive_params):
        dips = [dispersive_dip_frequency(dispersive_params, n) for n in range(4)]
        spacings = np.diff(dips)
        assert np.all(spacings == spacings[0])

    def test_zero_coupling_dip_at_bare_frequency(self, dispersive_params):
        p = dispersive_params.replace(g_q=0.0)
        assert dispersive_dip_frequency(p) == OMEGA0

    def test_fwhm_is_feedline_width(self, dispersive_params):
        dip = dispersive_dip_frequency(dispersive_params)
        half_width = dispersive_params.v1**2 / dispersive_params.v_g
        t = dispersive_amplitude(dip + half_width, dispersive_params)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-9)

    def test_zero_detuning_rejected(self, dispersive_params):
        with pytest.raises(ValueError):
            dispersive_amplitude(2.1e9, dispersive_params.replace(omega_b=OMEGA0))

    @pytest.mark.parametrize("call", [
        lambda p: dispersive_amplitude(2.1e9, p),
        lambda p: transmission_amplitude(ModelKind.DISPERSIVE, 2.1e9, p),
        lambda p: compute_spectrum(ModelKind.DISPERSIVE, p, np.linspace(2.0e9, 2.2e9, 11)),
    ], ids=["kernel", "transmission_amplitude", "compute_spectrum"])
    def test_marginal_regime_warns(self, call, dispersive_params):
        with pytest.warns(UserWarning, match="dispersive") as record:
            call(dispersive_params.replace(g_q=9e7))
        # the warning points at the caller, not into models
        assert [w.filename for w in record] == [__file__]


class TestResolvability:
    def test_direct_substitution(self):
        # v1**2 = 1e15 against the threshold g_q**2 v_g / (2 delta) = 1.35e15
        p = ModelParams(omega0=2.1e9, omega_b=2.0e9, g_q=3e7, v_g=3e8,
                        v1=math.sqrt(1e15))
        assert resolvability_condition(p) is True

    def test_boundary_is_strict(self):
        p = ModelParams(omega0=2.1e9, omega_b=2.0e9, g_q=3e7, v_g=3e8,
                        gamma_c=1.35e15 / 3e8)
        assert resolvability_condition(p) is False

    def test_zero_coupling_never_resolvable(self):
        p = ModelParams(omega0=2.1e9, omega_b=2.0e9, g_q=0.0, v_g=3e8, v1=1e3)
        assert resolvability_condition(p) is False

    def test_resolvable_at_zero_detuning(self):
        # the per-phonon spacing g_q**2/|delta| is unbounded there
        p = ModelParams(omega0=2.0e9, omega_b=2.0e9, g_q=1e7, gamma_c=1e9)
        assert resolvability_condition(p) is True


class TestQubitCnmr:
    def test_shifted_frequency_oracle(self):
        shifted = shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        assert shifted == pytest.approx(math.sqrt((2.05e9) ** 2 + 1e16), rel=1e-12)
        assert shifted == pytest.approx(2.0524376e9, rel=1e-6)

    def test_dip_sits_at_shifted_frequency(self, cnmr_params):
        shifted = shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        assert abs(qubit_cnmr_amplitude(shifted, cnmr_params)) ** 2 == 0.0

    def test_zero_drive_limit_is_mean_frequency(self):
        # the dressed frequency does not reduce to omega0 at zero drive
        assert shifted_qubit_frequency(OMEGA0, OMEGA_B, 0.0) == 0.5 * (OMEGA0 + OMEGA_B)

    def test_single_dip_structure(self, cnmr_params):
        grid = make_frequency_grid(1.9e9, 2.3e9, 2001)
        s = compute_spectrum(ModelKind.QUBIT_CNMR, cnmr_params, grid)
        t = s.transmission
        minima = [i for i in range(1, len(t) - 1) if t[i] < t[i - 1] and t[i] <= t[i + 1]]
        assert len(minima) == 1


class TestStlrQubit:
    def test_unity_at_qubit_frequency(self, stlr_params):
        t = stlr_qubit_amplitude(OMEGA0, stlr_params)
        assert abs(t) ** 2 == 1.0
        assert np.angle(t) == 0.0

    def test_dips_at_rabi_split_frequencies(self, stlr_params):
        for dip in hybrid_roots_oracle(OMEGA0, OMEGA_R, COUPLING):
            assert abs(stlr_qubit_amplitude(dip, stlr_params)) ** 2 < 1e-9

    def test_quoted_dip_values(self, stlr_params):
        low, high = analytic_features(ModelKind.STLR_QUBIT, stlr_params).dips
        assert low == pytest.approx(0.5 * (4.1e9 - math.sqrt(5) * 1e8), rel=1e-12)
        assert high == pytest.approx(0.5 * (4.1e9 + math.sqrt(5) * 1e8), rel=1e-12)

    def test_resonant_splitting_is_twice_coupling(self):
        p = ModelParams(omega0=2e9, omega_r=2e9, g_rq=COUPLING, v2=1e8, v_g=V_G)
        low, high = analytic_features(ModelKind.STLR_QUBIT, p).dips
        assert high - low == pytest.approx(2 * COUPLING, rel=1e-12)

    def test_decoupled_limit_is_bare_resonator(self, stlr_params):
        w = make_frequency_grid(1.7e9, 2.4e9, 997)
        for g in (0.0, 1.0):
            t_coupled = stlr_qubit_amplitude(w, stlr_params.replace(g_rq=g))
            t_bare = stlr_amplitude(w, stlr_params)
            assert np.max(np.abs(t_coupled - t_bare)) < 1e-9
        w = _THROUGH_DECOUPLED
        assert OMEGA0 in w
        assert np.array_equal(stlr_qubit_amplitude(w, stlr_params.replace(g_rq=0.0)),
                              stlr_amplitude(w, stlr_params))

    def test_bare_resonator_dip_and_width(self, stlr_params):
        assert abs(stlr_amplitude(OMEGA_R, stlr_params)) ** 2 == 0.0
        half_width = stlr_params.v2**2 / stlr_params.v_g
        t = stlr_amplitude(OMEGA_R + half_width, stlr_params)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_phase_formula(self, stlr_params):
        w = make_frequency_grid(1.8e9, 2.3e9, 601)
        t = stlr_qubit_amplitude(w, stlr_params)
        x = V_G * ((w - OMEGA_R) * (w - OMEGA0) - COUPLING**2)
        good = np.abs(x) > 1e12
        expected = -np.arctan(1e16 * (w - OMEGA0)[good] / x[good])
        assert np.allclose(np.angle(t[good]), expected, rtol=0, atol=1e-9)


class TestStlrQubitQnmr:
    def test_unity_windows_at_hybrid_frequencies(self, stlr_qnmr_params):
        for window in hybrid_roots_oracle(OMEGA0, OMEGA_B, COUPLING):
            t = stlr_qubit_qnmr_amplitude(window, stlr_qnmr_params)
            assert abs(t) ** 2 > 1 - 1e-9
            assert abs(np.angle(t)) < 1e-6

    def test_window_sum_gives_mechanical_frequency(self, stlr_qnmr_params):
        low, high = analytic_features(ModelKind.STLR_QUBIT_QNMR,
                                      stlr_qnmr_params).unity_points
        assert high + low - OMEGA0 == pytest.approx(OMEGA_B, rel=1e-12)

    def test_window_product_gives_coupling(self, stlr_qnmr_params):
        low, high = analytic_features(ModelKind.STLR_QUBIT_QNMR,
                                      stlr_qnmr_params).unity_points
        radicand = OMEGA0 * (low + high) - OMEGA0**2 - low * high
        assert math.sqrt(radicand) == pytest.approx(COUPLING, rel=1e-9)

    def test_mechanical_frequency_is_ordinary_point(self, stlr_qnmr_params):
        # the pole-cleared evaluation must agree with the analytic limit,
        # which equals the bare-resonator amplitude there
        t = stlr_qubit_qnmr_amplitude(OMEGA_B, stlr_qnmr_params)
        t_limit = stlr_amplitude(OMEGA_B, stlr_qnmr_params)
        assert np.isfinite(t)
        assert abs(t - t_limit) < 1e-12

    def test_three_dips(self, stlr_qnmr_params):
        dips = analytic_features(ModelKind.STLR_QUBIT_QNMR, stlr_qnmr_params).dips
        assert len(dips) == 3
        # omega_r = omega_b makes the cubic factor neatly
        assert dips == pytest.approx((1.9e9, 2.0e9, 2.2e9), rel=1e-12)
        for dip in dips:
            assert abs(stlr_qubit_qnmr_amplitude(dip, stlr_qnmr_params)) ** 2 < 1e-9

    def test_decoupled_mechanics_reduces_to_stlr_qubit(self, stlr_qnmr_params, stlr_params):
        w = make_frequency_grid(1.7e9, 2.4e9, 997)
        for g in (0.0, 1.0):
            t_full = stlr_qubit_qnmr_amplitude(w, stlr_qnmr_params.replace(g_q=g))
            t_base = stlr_qubit_amplitude(w, stlr_params)
            assert np.max(np.abs(t_full - t_base)) < 1e-9
        w = _THROUGH_DECOUPLED
        assert OMEGA_B in w
        assert np.array_equal(stlr_qubit_qnmr_amplitude(w, stlr_qnmr_params.replace(g_q=0.0)),
                              stlr_qubit_amplitude(w, stlr_params))


class TestStlrQubitCnmr:
    def test_unity_at_shifted_frequency(self, stlr_cnmr_params):
        shifted = shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        t = stlr_qubit_cnmr_amplitude(shifted, stlr_cnmr_params)
        assert abs(t) ** 2 == 1.0

    def test_reduces_to_stlr_qubit_for_degenerate_drive(self, stlr_cnmr_params):
        # g_c = 0 with omega_b = omega0 gives the undriven chain exactly
        p = stlr_cnmr_params.replace(g_c=0.0, omega_b=OMEGA0)
        base = ModelParams(omega0=OMEGA0, omega_r=OMEGA_R, g_rq=COUPLING,
                           v2=1e8, v_g=V_G)
        w = make_frequency_grid(1.7e9, 2.4e9, 997)
        assert np.max(np.abs(stlr_qubit_cnmr_amplitude(w, p)
                             - stlr_qubit_amplitude(w, base))) == 0.0

    def test_window_width_unchanged_by_drive(self, stlr_cnmr_params):
        """The transparency window keeps its half-transmission width when
        the drive moves it."""

        def window_width(p):
            center = analytic_features(ModelKind.STLR_QUBIT_CNMR, p).unity_points[0]
            w = make_frequency_grid(center - 1e8, center + 1e8, 40001)
            t = np.abs(stlr_qubit_cnmr_amplitude(w, p)) ** 2
            above = t >= 0.5
            i = np.argmin(np.abs(w - center))
            lo = i
            while lo > 0 and above[lo - 1]:
                lo -= 1
            hi = i
            while hi < len(w) - 1 and above[hi + 1]:
                hi += 1
            return w[hi] - w[lo]

        with_drive = window_width(stlr_cnmr_params)
        without_drive = window_width(stlr_cnmr_params.replace(g_c=0.0))
        assert with_drive == pytest.approx(without_drive, rel=0.02)


# kind -> (params fixture, its couplings, its rate)
_LIMITS = {
    ModelKind.QUBIT_ONLY: ("qubit_params", (), "gamma_c"),
    ModelKind.QUBIT_QNMR: ("qnmr_params", ("g_q",), "gamma_c"),
    ModelKind.DISPERSIVE: ("dispersive_params", ("g_q",), "gamma_c"),
    ModelKind.QUBIT_CNMR: ("cnmr_params", ("g_c",), "gamma_c"),
    ModelKind.STLR_QUBIT: ("stlr_params", ("g_rq",), "v2"),
    ModelKind.STLR_QUBIT_QNMR: ("stlr_qnmr_params", ("g_rq", "g_q"), "v2"),
    ModelKind.STLR_QUBIT_CNMR: ("stlr_cnmr_params", ("g_rq", "g_c"), "v2"),
}


def _assert_features_match(kind, p):
    """Every listed dip is a zero of T and every unity point has T = 1."""
    features = analytic_features(kind, p)
    for dip in features.dips:
        assert abs(transmission_amplitude(kind, dip, p)) ** 2 <= 1e-9, dip
    for window in features.unity_points:
        assert abs(transmission_amplitude(kind, window, p)) ** 2 >= 1 - 1e-9, window


class TestDecoupledLimits:
    """Where a coupling squares to 0 the kernel is its uncoupled kernel bit
    for bit, and a zero rate gives t = 1: no 0/0 on any grid."""

    def test_underflowing_coupling_is_zero_coupling(self, qnmr_params, qubit_params,
                                                    stlr_params, stlr_qnmr_params,
                                                    stlr_cnmr_params):
        w = _THROUGH_DECOUPLED
        tiny = 1e-170
        assert tiny**2 == 0 and OMEGA0 in w and OMEGA_B in w
        for coupled, bare in [
            (qubit_qnmr_amplitude(w, qnmr_params.replace(g_q=tiny)),
             qubit_amplitude(w, qubit_params)),
            (stlr_qubit_qnmr_amplitude(w, stlr_qnmr_params.replace(g_q=tiny)),
             stlr_qubit_amplitude(w, stlr_params)),
            (stlr_qubit_amplitude(w, stlr_params.replace(g_rq=tiny)),
             stlr_amplitude(w, stlr_params)),
            (stlr_qubit_cnmr_amplitude(w, stlr_cnmr_params.replace(g_rq=tiny)),
             stlr_amplitude(w, stlr_params)),
        ]:
            assert np.array_equal(coupled, bare)

    @pytest.mark.parametrize("g_rq", [0.0, 1e-170])
    def test_resonator_without_qubit_is_bare(self, stlr_qnmr_params, stlr_params, g_rq):
        # g_q = 1.2e8 puts the qubit-mechanics modes at 1.92e9 and 2.18e9,
        # both on the grid, where the chain's x and y both vanish
        p = stlr_qnmr_params.replace(g_q=1.2e8, g_rq=g_rq)
        w = make_frequency_grid(1.8e9, 2.3e9, 5001)
        assert np.array_equal(stlr_qubit_qnmr_amplitude(w, p), stlr_amplitude(w, stlr_params))
        assert stlr_qubit_qnmr_amplitude(1.92e9, p) == stlr_amplitude(1.92e9, stlr_params)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_zero_rate_is_transparent(self, kind, request):
        fixture, _, rate = _LIMITS[kind]
        coupled = request.getfixturevalue(fixture)
        p = coupled.replace(**{rate: 0.0})
        # the dips of the coupled line, where x = 0, are the points a zero
        # rate used to leave 0/0; x does not depend on the rate
        dips = analytic_features(kind, coupled).dips
        w = np.unique(np.concatenate([make_frequency_grid(1.8e9, 2.3e9, 1001), dips]))
        assert np.array_equal(transmission_amplitude(kind, w, p), np.ones(len(w), complex))
        for dip in dips:
            assert transmission_amplitude(kind, dip, p) == 1.0
        spectrum = compute_spectrum(kind, p, w)
        assert np.all(spectrum.transmission == 1.0) and np.all(spectrum.phase == 0.0)

    @pytest.mark.parametrize("kind, name, value", [
        (kind, name, value)
        for kind, (_, couplings, rate) in _LIMITS.items()
        for name, value in [(c, v) for c in couplings for v in (0.0, 1e-170)] + [(rate, 0.0)]
    ])
    def test_features_at_limits(self, kind, name, value, request):
        """At a zero or underflowing coupling the features are the
        uncoupled kernel's, and a zero rate, a transparent line, has none."""
        fixture, _, rate = _LIMITS[kind]
        p = request.getfixturevalue(fixture).replace(**{name: value})
        assert (analytic_features(kind, p) == FeatureSet()) == (name == rate)
        _assert_features_match(kind, p)


class TestFeatureConsistency:
    KINDS = list(ModelKind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_features_match_amplitudes(self, kind, request):
        _assert_features_match(kind, request.getfixturevalue(_LIMITS[kind][0]))

    def test_unknown_kind_rejected(self, qubit_params):
        with pytest.raises(ValueError):
            analytic_features("not-a-model", qubit_params)


class TestFloatRange:
    @pytest.mark.parametrize("kind, fixture, changes", [
        (ModelKind.QUBIT_QNMR, "qnmr_params", dict(omega0=1e300)),
        (ModelKind.QUBIT_QNMR, "qnmr_params", dict(gamma_c=1e300)),
        (ModelKind.STLR_QUBIT_QNMR, "stlr_qnmr_params", dict(v2=1e150)),
    ], ids=["omega0", "gamma_c", "v2"])
    def test_overflow_names_the_model(self, kind, fixture, changes, request):
        """A kernel whose arithmetic overflows raises ValueError naming the
        model, on a grid and at one frequency, instead of returning NaN."""
        p = request.getfixturevalue(fixture).replace(**changes)
        for omega in (_THROUGH_DECOUPLED, 2.3e9):
            with pytest.raises(ValueError, match=f"model {kind.value}: .* float range"):
                transmission_amplitude(kind, omega, p)


class TestPhaseIdentities:
    """arg(t) equals -arctan(y/x) for each configuration's (x, y), at all
    non-singular grid points; the amplitude's real part is x**2/(x**2+y**2)
    >= 0, so the principal branch applies everywhere."""

    def _assert_phase(self, t, x, y, scale=1e12):
        good = np.abs(x) > scale
        observed = np.angle(t[good])
        expected = -np.arctan(y[good] / x[good])
        assert np.allclose(observed, expected, rtol=0, atol=1e-9)

    def test_dispersive(self, dispersive_params):
        w = make_frequency_grid(2.08e9, 2.13e9, 601)
        t = dispersive_amplitude(w, dispersive_params)
        x = w - dispersive_dip_frequency(dispersive_params)
        self._assert_phase(t, x, np.full_like(w, dispersive_params.gamma_c),
                           scale=1e3)

    def test_qubit_cnmr(self, cnmr_params):
        w = make_frequency_grid(1.8e9, 2.3e9, 601)
        t = qubit_cnmr_amplitude(w, cnmr_params)
        x = w - shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        self._assert_phase(t, x, np.full_like(w, GAMMA_C), scale=1e3)

    def test_stlr_qubit_qnmr(self, stlr_qnmr_params):
        w = make_frequency_grid(1.8e9, 2.3e9, 601)
        t = stlr_qubit_qnmr_amplitude(w, stlr_qnmr_params)
        q = (w - OMEGA0) * (w - OMEGA_B) - COUPLING**2
        x = V_G * ((w - OMEGA_R) * q - COUPLING**2 * (w - OMEGA_B))
        y = 1e16 * q
        self._assert_phase(t, x, y, scale=1e28)

    def test_stlr_qubit_cnmr(self, stlr_cnmr_params):
        w = make_frequency_grid(1.8e9, 2.3e9, 601)
        t = stlr_qubit_cnmr_amplitude(w, stlr_cnmr_params)
        shifted = shifted_qubit_frequency(OMEGA0, OMEGA_B, COUPLING)
        x = V_G * ((w - OMEGA_R) * (w - shifted) - COUPLING**2)
        y = 1e16 * (w - shifted)
        self._assert_phase(t, x, y, scale=1e20)


class TestProbabilityBounds:
    def test_random_draws_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        kinds = list(ModelKind)
        for kind in kinds:
            for _ in range(40):
                p = _random_params(rng)
                w = make_frequency_grid(p.omega0 - 6e8, p.omega0 + 6e8, 257)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    t = transmission_amplitude(kind, w, p)
                trans = np.abs(t) ** 2
                assert np.all(np.isfinite(trans))
                assert np.all(trans <= 1 + 1e-12)
                assert np.all(trans >= 0)


# The parent expressions for (x, y) of each configuration, evaluated
# without in-place arithmetic; the kernels must match them bit for bit.
REFERENCE_XY = {
    ModelKind.QUBIT_ONLY: lambda w, p: (w - p.omega0, p.gamma_c),
    ModelKind.QUBIT_QNMR: lambda w, p: ((w - p.omega_b) * (w - p.omega0) - p.g_q**2,
                                        p.gamma_c * (w - p.omega_b)),
    ModelKind.DISPERSIVE: lambda w, p: (w - dispersive_dip_frequency(p), p.gamma_c),
    ModelKind.QUBIT_CNMR: lambda w, p: (
        w - shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c), p.gamma_c),
    ModelKind.STLR_QUBIT: lambda w, p: (
        p.v_g * ((w - p.omega_r) * (w - p.omega0) - p.g_rq**2), p.v2**2 * (w - p.omega0)),
    ModelKind.STLR_QUBIT_QNMR: lambda w, p: _reference_stlr_qnmr_xy(w, p),
    ModelKind.STLR_QUBIT_CNMR: lambda w, p: _reference_stlr_cnmr_xy(
        w, p, shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c)),
}


def _reference_stlr_qnmr_xy(w, p):
    q = (w - p.omega0) * (w - p.omega_b) - p.g_q**2
    return p.v_g * ((w - p.omega_r) * q - p.g_rq**2 * (w - p.omega_b)), p.v2**2 * q


def _reference_stlr_cnmr_xy(w, p, shifted):
    return p.v_g * ((w - p.omega_r) * (w - shifted) - p.g_rq**2), p.v2**2 * (w - shifted)


class TestForwardGoldenBits:
    """compute_spectrum equals the parent's whole-array expressions:
    t = x / (x + 1j*y), |t|**2, np.angle, np.clip and the -pi -> pi map."""

    @pytest.mark.parametrize("n_points", [1000, 100000])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_compute_spectrum(self, kind, n_points, qubit_params, qnmr_params,
                              cnmr_params, dispersive_params, stlr_params,
                              stlr_qnmr_params, stlr_cnmr_params):
        fixture = {
            ModelKind.QUBIT_ONLY: qubit_params,
            ModelKind.QUBIT_QNMR: qnmr_params,
            ModelKind.DISPERSIVE: dispersive_params,
            ModelKind.QUBIT_CNMR: cnmr_params,
            ModelKind.STLR_QUBIT: stlr_params,
            ModelKind.STLR_QUBIT_QNMR: stlr_qnmr_params,
            ModelKind.STLR_QUBIT_CNMR: stlr_cnmr_params,
        }[kind]
        rng = np.random.default_rng(n_points)
        w = make_frequency_grid(1.8e9, 2.3e9, n_points)
        for p in [fixture] + [_random_params(rng) for _ in range(3)]:
            i = n_points // 3
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                s = compute_spectrum(kind, p, w)
                scalar = transmission_amplitude(kind, float(w[i]), p)
            x, y = REFERENCE_XY[kind](w, p)
            amplitude = x / (x + 1j * np.asarray(y))
            phase = np.angle(amplitude)
            assert np.array_equal(s.freqs, w)
            assert np.array_equal(s.amplitude, amplitude)
            assert np.array_equal(s.transmission, np.clip(np.abs(amplitude) ** 2, 0.0, 1.0))
            assert np.array_equal(s.phase, np.where(phase == -np.pi, np.pi, phase))
            # a scalar probe still collapses to the same python complex
            assert scalar == complex(amplitude[i])


def _random_params(rng):
    omega0 = rng.uniform(1.8e9, 2.4e9)
    return ModelParams(
        omega0=omega0,
        omega_b=omega0 - rng.uniform(-2e8, 2e8),
        omega_r=omega0 - rng.uniform(-2e8, 2e8),
        gamma_c=rng.uniform(1e6, 5e7),
        v_g=3e8,
        v2=math.sqrt(rng.uniform(1e6, 5e7) * 3e8),
        g_q=rng.uniform(3e7, 2e8),
        g_c=rng.uniform(3e7, 2e8),
        g_rq=rng.uniform(3e7, 2e8),
        mean_n=rng.uniform(0, 5),
    )


def test_kernels_check_required_params():
    """Each kernel checks exactly the names of REQUIRED_PARAMS[kind]:
    params holding only those evaluate, and params missing any one of
    them raise MissingParameterError naming it."""
    values = dict(omega0=OMEGA0, omega_b=OMEGA_B, omega_r=OMEGA_R, gamma_c=GAMMA_C,
                  v_g=V_G, v1=math.sqrt(GAMMA_C * V_G), v2=1e8, g_q=3e7,
                  g_c=COUPLING, g_rq=COUPLING, mean_n=1.0)
    grid = make_frequency_grid(1.9e9, 2.3e9, 11)
    for kind in ModelKind:
        required = REQUIRED_PARAMS[kind]
        transmission_amplitude(kind, grid, ModelParams(**{n: values[n] for n in required}))
        for name in required:
            partial = ModelParams(**{n: values[n] for n in required if n != name})
            with pytest.raises(MissingParameterError, match=f"'{name}'"):
                transmission_amplitude(kind, grid, partial)
