"""Flux-basis eigensolver for the rf-SQUID circuit and the derived qubit
quantities: transition frequency, loop-current matrix elements, and the
coupling strengths to the mechanical mode and to a transmission-line
resonator.

The circuit Hamiltonian is

    H = -(hbar**2 / 2 C_J) d^2/dPhi^2 + U(Phi)
    U(Phi) = (Phi - Phi_e)**2 / (2 L) - (I_c Phi0 / 2 pi) cos(2 pi Phi / Phi0)

discretized by second-order central finite differences on a uniform flux
grid with Dirichlet boundaries.  The resulting matrix is symmetric
tridiagonal, so the lowest eigenpairs come from a direct tridiagonal
solver.  Convergence is checked without a finer grid: the discretization
error is O(h**2), so the ground energy solved on every other point (step
2h) moves by four times what halving h would move it (Richardson
extrapolation).  At the symmetric bias Phi_e = Phi0/2 and the matched
critical current I_c = Phi0/(pi L), U is a shallow symmetric double well
and the two lowest states form the tunneling doublet that encodes the
qubit.

The solver is scipy.linalg.eigh_tridiagonal, reached through the module
function eigh_tridiagonal, which imports it on its first call: the
package imports this module, and most processes that import the package
solve no circuit, so they need not load scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import FLUX_QUANTUM, HBAR
from .params import Frequency

#: relative wavefunction amplitude allowed at the grid edge
EDGE_LEAKAGE_LIMIT = 1e-6
#: predicted shift of the ground energy when the grid is doubled, relative
#: to max(|E0|, E0 - min U): the zero-point energy above the well bottom
#: bounds the scale from below, since the zero of U is arbitrary
CONVERGENCE_LIMIT = 1e-3


class BoundaryLeakageError(RuntimeError):
    """The flux window is too narrow: eigenstates reach the grid edge."""


class ConvergenceError(RuntimeError):
    """The flux grid is too coarse: the ground energy on every other grid
    point predicts that doubling the grid moves it by more than
    CONVERGENCE_LIMIT."""


def matched_critical_current(inductance: float) -> float:
    """Critical current Phi0/(pi L) at which the loop potential turns into
    a degenerate double well.  Raises ValueError unless inductance > 0."""
    if not inductance > 0:
        raise ValueError(f"inductance must be > 0, got {inductance}")
    return FLUX_QUANTUM / (math.pi * inductance)


@dataclass(frozen=True)
class CircuitSpec:
    """rf-SQUID circuit constants and solver grid controls.

    capacitance (F), inductance (H) and critical_current (A) describe the
    junction and loop; bias_flux (Wb) is the external flux.  The solver
    grid is symmetric about the bias with half-width flux_window in units
    of the flux quantum.  grid_points must be odd so the bias point lies
    on the grid.  The grid step must not round to zero, the float spacing
    at the grid's largest |flux| must stay within 1e-6 of the step, and
    the kinetic term and the potential at the window edges must stay in
    the float range, so that the Hamiltonian is finite.
    """

    capacitance: float
    inductance: float
    critical_current: float
    bias_flux: float
    grid_points: int = 1001
    flux_window: float = 1.0

    def __post_init__(self) -> None:
        for name in ("capacitance", "inductance", "critical_current", "bias_flux",
                     "flux_window"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.capacitance > 0:
            raise ValueError("capacitance must be > 0")
        if not self.inductance > 0:
            raise ValueError("inductance must be > 0")
        if self.critical_current < 0:
            raise ValueError("critical current must be >= 0")
        if self.grid_points < 201:
            raise ValueError("grid_points must be >= 201")
        if self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd (grid symmetric about the bias)")
        if not self.flux_window > 0:
            raise ValueError("flux_window must be > 0")
        # Python floats, in flux_grid's and _hamiltonian's order of
        # operations: an out-of-range value is named here, where numpy
        # would warn and the solver fail on an inf
        half = self.flux_window * FLUX_QUANTUM
        low, high = self.bias_flux - half, self.bias_flux + half
        step = low + (high - low) / (self.grid_points - 1) - low
        if step == 0.0:
            raise ValueError(f"flux_window {self.flux_window} is below the float "
                             f"resolution at bias_flux {self.bias_flux}: the flux "
                             "grid step rounds to 0")
        # the grid points, and so the Josephson cosine's argument, are
        # rounded to the float spacing at the largest |flux|; omega0 moves
        # by about that spacing over the step, relative (by 6.3e-7 where
        # the ratio is 8.0e-7, at a bias of 1e7 flux quanta)
        spacing = math.ulp(max(abs(low), abs(high))) / step
        if spacing > 1e-6:
            raise ValueError(f"bias_flux {self.bias_flux} with flux_window "
                             f"{self.flux_window} and grid_points {self.grid_points}: "
                             f"the float spacing of the flux grid is {spacing:.1e} of "
                             "its step, above 1e-6")
        denominator = 2.0 * self.capacitance * (step * step)
        kinetic = HBAR**2 / denominator if denominator else math.inf
        if not math.isfinite(2.0 * kinetic):
            raise ValueError(f"capacitance {self.capacitance} with a flux grid step of "
                             f"{step:.3e} Wb (flux_window {self.flux_window}, grid_points "
                             f"{self.grid_points}) puts the kinetic term out of range")
        edge = max(high - self.bias_flux, self.bias_flux - low)
        if not math.isfinite(2.0 * kinetic + edge * edge / (2.0 * self.inductance)):
            raise ValueError(f"flux_window {self.flux_window} with inductance "
                             f"{self.inductance} puts the potential at the window edge "
                             "out of range")

    def flux_grid(self) -> np.ndarray:
        half = self.flux_window * FLUX_QUANTUM
        return np.linspace(self.bias_flux - half, self.bias_flux + half, self.grid_points)


def reference_circuit() -> CircuitSpec:
    """The canonical demo circuit: C_J = 17 fF, L = 6 nH, matched critical
    current, symmetric bias at half a flux quantum, on CircuitSpec's
    default grid (dataclasses.replace gives another)."""
    inductance = 6e-9
    return CircuitSpec(
        capacitance=1.7e-14,
        inductance=inductance,
        critical_current=matched_critical_current(inductance),
        bias_flux=0.5 * FLUX_QUANTUM,
    )


def potential(phi, spec: CircuitSpec):
    """Loop potential U(Phi) in joules; vectorized over phi."""
    phi = np.asarray(phi, dtype=float)
    quadratic = (phi - spec.bias_flux) ** 2 / (2.0 * spec.inductance)
    josephson = (spec.critical_current * FLUX_QUANTUM / (2.0 * math.pi)) * np.cos(
        2.0 * math.pi * phi / FLUX_QUANTUM
    )
    return quadratic - josephson


@dataclass(frozen=True)
class EigenSolution:
    """Lowest eigenpairs of the circuit Hamiltonian plus derived quantities.

    spec is the circuit solved, which the summary and the wavefunction
    CSV read.  energies are in joules, ascending.  wavefunctions[k] is the
    k-th state sampled on flux_grid, normalized so that
    sum(psi**2) * flux_step = 1.  omega0 = (E1 - E0)/hbar.
    persistent_current is |<1|I|0>| of the loop current operator
    I = (Phi - Phi_e)/L; current_diag_0/1 are its (gauge-independent)
    diagonal elements, which nearly vanish at the symmetric bias.
    """

    spec: CircuitSpec
    energies: np.ndarray
    wavefunctions: np.ndarray
    flux_grid: np.ndarray
    flux_step: float
    omega0: float
    persistent_current: float
    current_diag_0: float
    current_diag_1: float


def _hamiltonian(spec: CircuitSpec, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the finite-difference Hamiltonian on
    the uniform flux grid phi, in joules."""
    kinetic = HBAR**2 / (2.0 * spec.capacitance * (phi[1] - phi[0]) ** 2)
    return 2.0 * kinetic + potential(phi, spec), np.full(len(phi) - 1, -kinetic)


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal(*args, **kwargs), imported on the
    first call (see the module doc).  As a module function it is also
    the one place a test or a profiler replaces the solver."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(*args, **kwargs)


def _solve(spec: CircuitSpec, phi: np.ndarray, **options):
    """eigh_tridiagonal of the Hamiltonian on the grid phi; a solver that
    fails, as LAPACK's bisection can on a finite matrix whose kinetic
    term is near the float range, raises ConvergenceError naming the
    circuit values that set that term."""
    try:
        return eigh_tridiagonal(*_hamiltonian(spec, phi), **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"the eigensolver failed ({exc}) on {len(phi)} flux grid points with "
            f"capacitance {spec.capacitance}, grid_points {spec.grid_points} and "
            f"flux_window {spec.flux_window}"
        ) from exc


def solve_eigensystem(spec: CircuitSpec, n_states: int = 2) -> EigenSolution:
    """Lowest n_states eigenpairs of the flux-basis circuit Hamiltonian.

    Raises BoundaryLeakageError when the lowest two states have not
    decayed at the grid edge (the flux window is too narrow for the
    results to be trusted), and ConvergenceError when doubling the grid
    would move the ground energy by more than 0.1% of max(|E0|, E0 - min U)
    or when the solver fails.
    That shift is predicted without a second grid: it is a quarter of the
    shift of the ground energy solved on every other grid point.
    """
    if n_states < 2:
        raise ValueError("n_states must be >= 2")
    if n_states > spec.grid_points:
        raise ValueError(f"n_states must be <= grid_points ({spec.grid_points}), got {n_states}")
    phi = spec.flux_grid()
    step = phi[1] - phi[0]
    energies, vectors = _solve(spec, phi, select="i", select_range=(0, n_states - 1))
    # L2-normalize under the grid quadrature and fix a sign gauge
    states = vectors.T / math.sqrt(step)
    for psi in states:
        if psi[np.argmax(np.abs(psi))] < 0:
            psi *= -1.0

    for k in (0, 1):
        psi = states[k]
        edge = max(abs(psi[0]), abs(psi[-1])) / np.max(np.abs(psi))
        if edge > EDGE_LEAKAGE_LIMIT:
            raise BoundaryLeakageError(
                f"state {k} has relative edge amplitude {edge:.2e} > "
                f"{EDGE_LEAKAGE_LIMIT:.0e}; widen flux_window"
            )
    # an O(step**2) error moves E0 on every other point (both edges kept,
    # as grid_points is odd) by 4 times what halving the step would
    coarse = _solve(spec, phi[::2], eigvals_only=True, select="i", select_range=(0, 0))
    scale = max(abs(energies[0]), energies[0] - np.min(potential(phi, spec)))
    shift = abs(coarse[0] - energies[0]) / 4.0 / scale
    if shift > CONVERGENCE_LIMIT:
        raise ConvergenceError(
            f"ground energy moves by {shift:.2e} relative when the grid "
            "is doubled; increase grid_points"
        )

    # <1|I|0>, <0|I|0>, <1|I|1> of the loop current I = (Phi - Phi_e)/L
    current = (phi - spec.bias_flux) / spec.inductance
    offdiag, diag0, diag1 = (float(np.sum(states[i] * current * states[j]) * step)
                             for i, j in ((1, 0), (0, 0), (1, 1)))
    return EigenSolution(
        spec=spec,
        energies=energies,
        wavefunctions=states,
        flux_grid=phi,
        flux_step=float(step),
        omega0=float((energies[1] - energies[0]) / HBAR),
        persistent_current=abs(offdiag),
        current_diag_0=diag0,
        current_diag_1=diag1,
    )


@dataclass(frozen=True)
class TruncationReport:
    """Sanity check that the two-level (qubit) truncation of the circuit
    is justified: the Hamiltonian is diagonal in its eigenbasis to solver
    accuracy, and the symmetric/antisymmetric combinations of the doublet
    localize in opposite wells (the circulating-current states)."""

    offdiag_energy: float
    offdiag_ratio: float
    left_state_left_fraction: float
    right_state_right_fraction: float
    left_right_overlap: float

    @property
    def valid(self) -> bool:
        return (
            self.offdiag_ratio < 1e-6
            and self.left_state_left_fraction > 0.9
            and self.right_state_right_fraction > 0.9
            and abs(self.left_right_overlap) < 1e-8
        )


def circulating_current_states(sol: EigenSolution) -> tuple[np.ndarray, np.ndarray]:
    """The doublet combinations (psi0 - psi1)/sqrt(2) and (psi0 + psi1)/sqrt(2),
    with psi1's sign chosen so that the first is the left-well state."""
    psi0, psi1 = sol.wavefunctions[0], sol.wavefunctions[1]
    right = sol.flux_grid > sol.spec.bias_flux
    if np.sum(psi0[right] * psi1[right]) * sol.flux_step < 0:
        psi1 = -psi1
    return (psi0 - psi1) / math.sqrt(2.0), (psi0 + psi1) / math.sqrt(2.0)


def qubit_truncation_check(sol: EigenSolution) -> TruncationReport:
    """Evaluate <i|H|j> in the numerical eigenbasis and the well
    localization of the doublet combinations (psi0 -/+ psi1)/sqrt(2)."""
    if len(sol.energies) < 2:
        raise ValueError("need at least two states")
    phi, step = sol.flux_grid, sol.flux_step
    h_diag, h_off = _hamiltonian(sol.spec, phi)

    def apply_h(psi):
        out = h_diag * psi
        out[:-1] += h_off * psi[1:]
        out[1:] += h_off * psi[:-1]
        return out

    psi0, psi1 = sol.wavefunctions[0], sol.wavefunctions[1]
    h_psi1 = apply_h(psi1)
    offdiag = float(np.sum(psi0 * h_psi1) * step)
    diag = min(abs(sol.energies[0]), abs(sol.energies[1]))

    left_state, right_state = circulating_current_states(sol)
    right = phi > sol.spec.bias_flux
    left = phi < sol.spec.bias_flux
    left_fraction = float(np.sum(left_state[left] ** 2) * step)
    right_fraction = float(np.sum(right_state[right] ** 2) * step)
    overlap = float(np.sum(left_state * right_state) * step)
    return TruncationReport(
        offdiag_energy=offdiag,
        offdiag_ratio=abs(offdiag) / diag,
        left_state_left_fraction=left_fraction,
        right_state_right_fraction=right_fraction,
        left_right_overlap=overlap,
    )


@dataclass(frozen=True)
class MechanicalSpec:
    """The vibrating loop segment: mass (kg), angular frequency (rad/s),
    length (m), in-plane field (T), and optionally a classical vibration
    amplitude (m)."""

    mass: float
    omega_b: Frequency
    length: float
    field: float
    amplitude_c: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("mass", "omega_b", "length", "field"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.amplitude_c is not None and self.amplitude_c < 0:
            raise ValueError("amplitude_c must be >= 0")

    @property
    def zero_point_motion(self) -> float:
        """Ground-state displacement scale sqrt(hbar / (2 m omega_b)), m."""
        return math.sqrt(HBAR / (2.0 * self.mass * self.omega_b))


def qnmr_coupling(mech: MechanicalSpec, persistent_current: float) -> float:
    """Qubit coupling to the quantized mechanical mode, rad/s.

    The coupling energy is B0 * l * |I_p| * z_zpf with the zero-point
    motion z_zpf = sqrt(hbar/(2 m omega_b)); dividing by hbar once here
    restores SI units for the natural-unit expression.
    """
    if persistent_current == 0:
        raise ValueError("persistent current must be nonzero")
    return mech.field * mech.length * abs(persistent_current) * mech.zero_point_motion / HBAR


def field_for_qnmr_coupling(g_q: float, mech: MechanicalSpec,
                            persistent_current: float) -> float:
    """Magnetic field that produces a target mechanical coupling (inverse
    of qnmr_coupling in B0)."""
    return g_q * HBAR / (mech.length * abs(persistent_current) * mech.zero_point_motion)


def mass_for_qnmr_coupling(g_q: float, mech: MechanicalSpec,
                           persistent_current: float) -> float:
    """Resonator mass implied by a measured mechanical coupling (inverse
    of qnmr_coupling in the mass)."""
    numerator = (mech.field * mech.length * abs(persistent_current)) ** 2
    return numerator / (2.0 * HBAR * g_q**2 * mech.omega_b)


def cnmr_coupling(mech: MechanicalSpec, persistent_current: float) -> float:
    """Qubit coupling to a classical vibration of amplitude A_C:
    B0 * l * |I_p| * A_C / hbar, rad/s."""
    if mech.amplitude_c is None:
        raise ValueError("amplitude_c not set on the mechanical spec")
    return mech.field * mech.length * abs(persistent_current) * mech.amplitude_c / HBAR


def amplitude_length_product(g_c: float, field: float, persistent_current: float) -> float:
    """A_C * l implied by a classical-drive coupling, m**2.

    The amplitude and the segment length only enter through their
    product; use classical_amplitude when the length is known.
    """
    return g_c * HBAR / (field * abs(persistent_current))


def classical_amplitude(g_c: float, field: float, persistent_current: float,
                        length: float) -> float:
    """Classical vibration amplitude A_C from a measured coupling, m."""
    return amplitude_length_product(g_c, field, persistent_current) / length


def stlr_current_amplitude(l_r: float, c_r: float, omega_r: Frequency) -> float:
    """Zero-point current amplitude (pi / 2 L_r) sqrt(hbar / (omega_r C_r))
    of the quarter-wavelength resonator near its grounded end, A."""
    return (math.pi / (2.0 * l_r)) * math.sqrt(HBAR / (omega_r * c_r))


def stlr_qubit_coupling(persistent_current: float, mutual_inductance: float,
                        l_r: float, c_r: float, omega_r: Frequency) -> float:
    """Resonator-qubit coupling M |I_p| I_r0 / hbar, rad/s, where I_r0 is
    the resonator zero-point current."""
    for name, value in (("mutual_inductance", mutual_inductance), ("l_r", l_r),
                        ("c_r", c_r), ("omega_r", omega_r)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0")
    return (
        mutual_inductance
        * abs(persistent_current)
        * stlr_current_amplitude(l_r, c_r, omega_r)
        / HBAR
    )


__all__ = [
    "BoundaryLeakageError",
    "CircuitSpec",
    "ConvergenceError",
    "EigenSolution",
    "MechanicalSpec",
    "TruncationReport",
    "amplitude_length_product",
    "circulating_current_states",
    "classical_amplitude",
    "cnmr_coupling",
    "field_for_qnmr_coupling",
    "mass_for_qnmr_coupling",
    "matched_critical_current",
    "potential",
    "qnmr_coupling",
    "qubit_truncation_check",
    "reference_circuit",
    "solve_eigensystem",
    "stlr_current_amplitude",
    "stlr_qubit_coupling",
]
