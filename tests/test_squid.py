import dataclasses
import math

import numpy as np
import pytest

from qspectra import squid
from qspectra import (
    FLUX_QUANTUM,
    HBAR,
    BoundaryLeakageError,
    CircuitSpec,
    ConvergenceError,
    MechanicalSpec,
    amplitude_length_product,
    classical_amplitude,
    cnmr_coupling,
    field_for_qnmr_coupling,
    mass_for_qnmr_coupling,
    matched_critical_current,
    potential,
    qnmr_coupling,
    qubit_truncation_check,
    reference_circuit,
    solve_eigensystem,
    stlr_current_amplitude,
    stlr_qubit_coupling,
)


@pytest.fixture(scope="module")
def solution():
    spec = reference_circuit()
    return spec, solve_eigensystem(spec)


class TestCircuitSpec:
    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CircuitSpec(1.7e-14, 6e-9, 1e-7, 0.5 * FLUX_QUANTUM, grid_points=1000)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="201"):
            CircuitSpec(1.7e-14, 6e-9, 1e-7, 0.5 * FLUX_QUANTUM, grid_points=101)

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(ValueError):
            CircuitSpec(0.0, 6e-9, 1e-7, 0.0)
        with pytest.raises(ValueError):
            CircuitSpec(1.7e-14, -1e-9, 1e-7, 0.0)
        with pytest.raises(ValueError):
            CircuitSpec(1.7e-14, 6e-9, -1e-7, 0.0)

    @pytest.mark.parametrize("field", ["capacitance", "inductance", "critical_current",
                                       "bias_flux", "flux_window"])
    def test_non_finite_constants_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(reference_circuit(), **{field: math.inf})

    @pytest.mark.parametrize("changes, message", [
        (dict(capacitance=1e-300), "kinetic term out of range"),
        (dict(flux_window=1e-300), "grid step rounds to 0"),
        (dict(flux_window=1e300), "potential at the window edge out of range"),
        (dict(inductance=1e-300, flux_window=1e150), "potential at the window edge"),
        (dict(bias_flux=1e30 * FLUX_QUANTUM), "grid step rounds to 0"),
    ], ids=["capacitance", "narrow-window", "wide-window", "inductance", "bias"])
    def test_out_of_float_range_rejected(self, changes, message):
        """A circuit whose Hamiltonian would hold an inf, or whose grid
        step rounds to 0, is refused when it is built, not by the solver."""
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(reference_circuit(), **changes)

    @pytest.mark.parametrize("quanta", [1e8, 1e10, 1e13])
    def test_bias_beyond_the_grid_resolution_rejected(self, quanta):
        """About 1e8 flux quanta of bias the float spacing of the flux grid
        exceeds 1e-6 of its step, and omega0 drifts by 4e-6 or more."""
        with pytest.raises(ValueError, match=r"bias_flux .* with flux_window 1\.0 and "
                                             r"grid_points 1001: the float spacing"):
            dataclasses.replace(reference_circuit(),
                                bias_flux=(0.5 + quanta) * FLUX_QUANTUM)

    def test_zero_critical_current_allowed(self):
        CircuitSpec(1.7e-14, 6e-9, 0.0, 0.5 * FLUX_QUANTUM)

    def test_matched_critical_current(self):
        assert matched_critical_current(6e-9) == pytest.approx(
            FLUX_QUANTUM / (math.pi * 6e-9), rel=1e-12
        )


class TestPotential:
    def test_symmetric_about_bias(self):
        spec = reference_circuit()
        delta = np.linspace(0, 0.4 * FLUX_QUANTUM, 100)
        up = potential(spec.bias_flux + delta, spec)
        down = potential(spec.bias_flux - delta, spec)
        assert np.allclose(up, down, rtol=1e-12, atol=0)

    def test_harmonic_limit_is_parabola(self):
        spec = CircuitSpec(1.7e-14, 6e-9, 0.0, 0.5 * FLUX_QUANTUM)
        phi = spec.flux_grid()
        expected = (phi - spec.bias_flux) ** 2 / (2 * spec.inductance)
        assert np.allclose(potential(phi, spec), expected, rtol=1e-12, atol=0)

    def test_double_well_has_two_minima(self):
        # scan the derivative's sign changes on a fine grid
        spec = reference_circuit()
        phi = np.linspace(spec.bias_flux - 0.5 * FLUX_QUANTUM,
                          spec.bias_flux + 0.5 * FLUX_QUANTUM, 20001)
        du = np.diff(potential(phi, spec))
        minima = np.sum((du[:-1] < 0) & (du[1:] > 0))
        assert minima == 2


_OUTCOME_WINDOWS = (0.7, 1.0, 2.0, 3.0, 4.0, 6.0)
#: outcome per flux_window above, keyed by grid_points
_OUTCOMES = {
    201: "leakage solves solves solves convergence convergence",
    221: "leakage solves solves solves convergence convergence",
    251: "leakage solves solves solves solves convergence",
    281: "leakage solves solves solves solves convergence",
    301: "leakage solves solves solves solves convergence",
    351: "leakage solves solves solves solves solves",
    401: "leakage solves solves solves solves solves",
    501: "leakage solves solves solves solves solves",
    1001: "leakage solves solves solves solves solves",
}


class TestEigensolver:
    def test_quoted_eigenvalues(self, solution):
        _, sol = solution
        assert sol.energies[0] == pytest.approx(2.7025e-23, rel=0.01)
        assert sol.energies[1] == pytest.approx(2.7225e-23, rel=0.01)

    def test_transition_frequency_scale(self, solution):
        _, sol = solution
        assert sol.omega0 == pytest.approx(2.1e9, rel=0.15)

    def test_persistent_current(self, solution):
        _, sol = solution
        assert sol.persistent_current == pytest.approx(9.44e-8, rel=0.05)

    def test_diagonal_currents_vanish_at_symmetric_bias(self, solution):
        _, sol = solution
        assert abs(sol.current_diag_0) < 1e-3 * sol.persistent_current
        assert abs(sol.current_diag_1) < 1e-3 * sol.persistent_current

    def test_wavefunctions_normalized(self, solution):
        _, sol = solution
        for psi in sol.wavefunctions:
            assert np.sum(psi**2) * sol.flux_step == pytest.approx(1.0, abs=1e-8)

    def test_energies_ascending_and_kinetic_positive(self, solution):
        spec, sol = solution
        assert sol.energies[0] < sol.energies[1]
        for k, psi in enumerate(sol.wavefunctions):
            potential_energy = np.sum(psi**2 * potential(sol.flux_grid, spec)) * sol.flux_step
            kinetic = sol.energies[k] - potential_energy
            assert kinetic > 0

    def test_grid_convergence(self):
        spec = reference_circuit()
        e_coarse = solve_eigensystem(dataclasses.replace(spec, grid_points=1001)).energies
        e_fine = solve_eigensystem(dataclasses.replace(spec, grid_points=2001)).energies
        assert abs(e_fine[0] - e_coarse[0]) / e_coarse[0] < 1e-4
        assert abs(e_fine[1] - e_coarse[1]) / e_coarse[1] < 1e-4

    def test_lc_oracle(self):
        spec = CircuitSpec(1.7e-14, 6e-9, 0.0, 0.5 * FLUX_QUANTUM)
        sol = solve_eigensystem(spec, n_states=5)
        omega_lc = 1.0 / math.sqrt(spec.inductance * spec.capacitance)
        for n in range(5):
            exact = HBAR * omega_lc * (n + 0.5)
            assert sol.energies[n] == pytest.approx(exact, rel=1e-3)

    def test_whole_flux_quanta_keep_omega0(self, solution):
        """The spectrum is periodic in the bias: whole flux quanta added to
        it, up to the largest the grid resolves, move omega0 by less than
        1e-6 relative (6.3e-7 at 1e7 quanta)."""
        spec, sol = solution
        for quanta in (1.0, 1e6, 1e7):
            moved = solve_eigensystem(dataclasses.replace(
                spec, bias_flux=(0.5 + quanta) * FLUX_QUANTUM))
            assert moved.omega0 == pytest.approx(sol.omega0, rel=1e-6), quanta

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["full", "every-other-point"])
    def test_solver_failure_is_convergence_error(self, failing_call, monkeypatch):
        """A solve that LAPACK fails raises ConvergenceError naming the
        circuit values that set the Hamiltonian's scale."""
        calls = []
        solve = squid.eigh_tridiagonal

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing_call:
                raise np.linalg.LinAlgError("stebz did not converge")
            return solve(*args, **kwargs)

        monkeypatch.setattr(squid, "eigh_tridiagonal", failing)
        with pytest.raises(ConvergenceError, match=r"stebz did not converge.* capacitance "
                                                   r"1\.7e-14, grid_points 1001 and "
                                                   r"flux_window 1\.0") as info:
            solve_eigensystem(reference_circuit())
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert len(calls) == failing_call

    def test_narrow_window_raises_leakage(self):
        with pytest.raises(BoundaryLeakageError):
            solve_eigensystem(dataclasses.replace(reference_circuit(), flux_window=0.35))

    def test_coarse_grid_raises_convergence(self):
        # 201 points over +-4 flux quanta: the solve on every other point
        # predicts that doubling the grid moves E0 by 1.34e-3
        spec = reference_circuit()
        with pytest.raises(ConvergenceError, match=r"moves by 1\.34e-03 relative"):
            solve_eigensystem(dataclasses.replace(spec, grid_points=201, flux_window=4.0))
        solve_eigensystem(dataclasses.replace(spec, grid_points=301, flux_window=4.0))

    def test_convergence_scale_ignores_potential_offset(self):
        """E0 near the arbitrary zero of U does not make a converged grid
        fail: the zero-point energy above the well bottom floors the scale."""
        spec = dataclasses.replace(reference_circuit(), critical_current=1.81e-8,
                                   bias_flux=0.0)
        sol = solve_eigensystem(spec)
        zero_point = sol.energies[0] - np.min(potential(sol.flux_grid, spec))
        assert abs(sol.energies[0]) < 1e-2 * zero_point

    @pytest.mark.parametrize("grid_points,flux_window,outcome", [
        (n, window, outcome)
        for n, row in _OUTCOMES.items()
        for window, outcome in zip(_OUTCOME_WINDOWS, row.split())
    ])
    def test_outcome_table(self, grid_points, flux_window, outcome):
        """Which grids of the reference circuit solve, leak at the edge or
        are too coarse to converge."""
        spec = dataclasses.replace(reference_circuit(), grid_points=grid_points,
                                   flux_window=flux_window)
        if outcome == "solves":
            solve_eigensystem(spec)
        else:
            error = {"leakage": BoundaryLeakageError, "convergence": ConvergenceError}[outcome]
            with pytest.raises(error):
                solve_eigensystem(spec)

    def test_solution_determinism(self, solution):
        _, sol = solution
        again = solve_eigensystem(reference_circuit())
        assert np.array_equal(sol.energies, again.energies)
        assert np.array_equal(sol.wavefunctions, again.wavefunctions)

    def test_sign_gauge_undoes_negated_vectors(self, solution, monkeypatch):
        """Each returned state has its largest component positive, whatever
        sign the eigensolver gives its vector."""
        _, sol = solution
        real = squid.eigh_tridiagonal
        flipped = []

        def negated(*args, **kwargs):
            result = real(*args, **kwargs)
            if kwargs.get("eigvals_only"):
                return result
            energies, vectors = result
            flipped.append(vectors[np.argmax(np.abs(vectors), axis=0), [0, 1]] > 0)
            return energies, -vectors

        monkeypatch.setattr(squid, "eigh_tridiagonal", negated)
        again = solve_eigensystem(reference_circuit())
        # the unpatched solver's vectors are positive at their largest
        # component, so the gauge had to flip both negated states back
        assert len(flipped) == 1 and flipped[0].all()
        assert again.wavefunctions.tobytes() == sol.wavefunctions.tobytes()
        assert again.persistent_current == sol.persistent_current


class TestCurrents:
    @staticmethod
    def _element(sol, spec, i, j):
        """<i|I|j> of the loop current I = (Phi - Phi_e)/L, by quadrature."""
        current = (sol.flux_grid - spec.bias_flux) / spec.inductance
        return float(np.sum(sol.wavefunctions[i] * current * sol.wavefunctions[j])
                     * sol.flux_step)

    def test_hermitian_offdiagonal(self, solution):
        spec, sol = solution
        assert sol.persistent_current == pytest.approx(
            abs(self._element(sol, spec, 0, 1)), rel=1e-10)

    def test_matches_solution_fields(self, solution):
        spec, sol = solution
        assert sol.persistent_current == abs(self._element(sol, spec, 1, 0))
        assert sol.current_diag_0 == self._element(sol, spec, 0, 0)
        assert sol.current_diag_1 == self._element(sol, spec, 1, 1)


class TestTruncation:
    def test_offdiagonal_energy_negligible(self, solution):
        _, sol = solution
        report = qubit_truncation_check(sol)
        assert report.offdiag_ratio < 1e-6

    def test_circulating_states_localized(self, solution):
        _, sol = solution
        report = qubit_truncation_check(sol)
        assert report.left_state_left_fraction > 0.9
        assert report.right_state_right_fraction > 0.9
        assert abs(report.left_right_overlap) < 1e-8
        assert report.valid


class TestCouplings:
    MECH = MechanicalSpec(mass=1e-18, omega_b=2.0e9, length=1e-6, field=5e-3,
                          amplitude_c=2e-9)
    I_P = 9.44e-8

    def test_qnmr_coupling_linearity_in_field(self):
        g1 = qnmr_coupling(self.MECH, self.I_P)
        doubled = MechanicalSpec(mass=1e-18, omega_b=2.0e9, length=1e-6,
                                 field=1e-2, amplitude_c=2e-9)
        assert qnmr_coupling(doubled, self.I_P) == pytest.approx(2 * g1, rel=1e-12)

    def test_field_round_trip(self):
        g = qnmr_coupling(self.MECH, self.I_P)
        assert field_for_qnmr_coupling(g, self.MECH, self.I_P) == pytest.approx(
            self.MECH.field, rel=1e-12
        )

    def test_mass_round_trip(self):
        g = qnmr_coupling(self.MECH, self.I_P)
        assert mass_for_qnmr_coupling(g, self.MECH, self.I_P) == pytest.approx(
            self.MECH.mass, rel=1e-12
        )

    def test_cnmr_coupling_and_amplitude_round_trip(self):
        g = cnmr_coupling(self.MECH, self.I_P)
        recovered = classical_amplitude(g, self.MECH.field, self.I_P,
                                        self.MECH.length)
        assert recovered == pytest.approx(self.MECH.amplitude_c, rel=1e-12)

    def test_zero_amplitude_gives_zero_coupling(self):
        mech = MechanicalSpec(mass=1e-18, omega_b=2.0e9, length=1e-6,
                              field=5e-3, amplitude_c=0.0)
        assert cnmr_coupling(mech, self.I_P) == 0.0

    def test_unset_amplitude_rejected(self):
        mech = MechanicalSpec(mass=1e-18, omega_b=2.0e9, length=1e-6, field=5e-3)
        with pytest.raises(ValueError, match="amplitude_c"):
            cnmr_coupling(mech, self.I_P)

    def test_worked_amplitude_length_product(self):
        # g_c = 9.05759e7 at 5 mT and 94.4 nA implies A_C * l near 2.02e-17 m^2
        product = amplitude_length_product(9.05759e7, 5e-3, 9.44e-8)
        assert product == pytest.approx(
            9.05759e7 * HBAR / (5e-3 * 9.44e-8), rel=1e-12
        )
        assert product == pytest.approx(2.02e-17, rel=0.01)

    def test_stlr_coupling_scalings(self):
        base = stlr_qubit_coupling(self.I_P, 1e-11, 1e-9, 1e-12, 2e9)
        assert stlr_qubit_coupling(self.I_P, 2e-11, 1e-9, 1e-12, 2e9) == pytest.approx(
            2 * base, rel=1e-12
        )
        assert stlr_qubit_coupling(self.I_P, 1e-11, 1e-9, 4e-12, 2e9) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_stlr_coupling_consistent_with_current_amplitude(self):
        current = stlr_current_amplitude(1e-9, 1e-12, 2e9)
        expected = 1e-11 * self.I_P * current / HBAR
        assert stlr_qubit_coupling(self.I_P, 1e-11, 1e-9, 1e-12, 2e9) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_point_motion(self):
        zpf = self.MECH.zero_point_motion
        assert zpf == pytest.approx(math.sqrt(HBAR / (2 * 1e-18 * 2e9)), rel=1e-12)
