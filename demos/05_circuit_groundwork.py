"""Where the qubit numbers come from: the loop circuit itself.

Solving the flux-basis Schrodinger equation for the biased loop gives
the double-well potential, the tunneling doublet that encodes the qubit,
the persistent current, and from those every coupling strength the
scattering models consume.  No spectroscopy input is needed; this is the
first-principles side of the story.
"""

from pathlib import Path

from qspectra import (
    MechanicalSpec,
    cnmr_coupling,
    potential,
    qnmr_coupling,
    qubit_truncation_check,
    reference_circuit,
    solve_eigensystem,
    stlr_qubit_coupling,
)
from qspectra.io import write_wavefunction_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

spec = reference_circuit()
sol = solve_eigensystem(spec)

print(f"circuit: C_J = {spec.capacitance:.3g} F, L = {spec.inductance:.3g} H, "
      f"I_c = {spec.critical_current:.4g} A, bias at half a flux quantum")
print(f"lowest doublet: E0 = {sol.energies[0]:.5g} J, E1 = {sol.energies[1]:.5g} J")
print(f"transition frequency omega0 = {sol.omega0:.4g} rad/s")
print(f"persistent current |I_p| = {sol.persistent_current:.4g} A")
print(f"diagonal currents: {sol.current_diag_0:.2g} / {sol.current_diag_1:.2g} A "
      "(vanish at the symmetric bias)")

report = qubit_truncation_check(sol)
print(f"two-level truncation valid? {report.valid} "
      f"(off-diagonal energy ratio {report.offdiag_ratio:.1e}, "
      f"well localization {report.left_state_left_fraction:.1%})")

# barrier height versus the doublet
phi = sol.flux_grid
barrier = potential(spec.bias_flux, spec)
wells = potential(phi, spec).min()
print(f"well depth below barrier: {barrier - wells:.3g} J "
      f"(doublet sits {barrier - sol.energies[0]:.2g} J under the barrier)")

# couplings derived from the persistent current
mech = MechanicalSpec(mass=1e-18, omega_b=2.0e9, length=1e-6, field=5e-3,
                      amplitude_c=2e-9)
print(f"mechanical coupling (quantized): {qnmr_coupling(mech, sol.persistent_current):.4g} rad/s")
print(f"mechanical coupling (classical): {cnmr_coupling(mech, sol.persistent_current):.4g} rad/s")
print(f"resonator coupling: "
      f"{stlr_qubit_coupling(sol.persistent_current, 1e-11, 1e-9, 1e-12, 2e9):.4g} rad/s")

write_wavefunction_csv(OUT / "loop_wavefunctions.csv", sol)
print(f"wrote {OUT / 'loop_wavefunctions.csv'}")
