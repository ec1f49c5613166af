"""Class-accuracy floors of ``estimate_report``.

Each cell is one spectrum on the README grid (2001 points over
1.8e9-2.3e9 rad/s), estimated clean and with 3 % and 5 % measurement
noise at seeds 0 to SEEDS - 1, with ``unity_tol = 0.04`` and the hints
its class needs.  A report is right when it names the spectrum's class
(and, for the dispersive cell, its phonon number); a raised
``InconsistentFeaturesError`` counts as a miss.  The floors are the
counts the estimator reached when the cells were committed: raising one
is routine, lowering one is a contract change.
"""

import pytest

from qspectra import ModelKind, ModelParams, compute_spectrum, make_frequency_grid
from qspectra.estimate import (
    InconsistentFeaturesError,
    ModelClass,
    add_measurement_noise,
    estimate_report,
)

SEEDS = 10
_README_QNMR = dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_q=1e8)

# (kind, params, hints, class, phonon number or None, floors: clean, 3 %, 5 %)
CELLS = {
    "qubit-only": (ModelKind.QUBIT_ONLY, dict(omega0=2.1e9, gamma_c=3.3e7),
                   dict(reference_omega0=2.1e9), ModelClass.NO_NMR, None, (1, 7, 6)),
    "qubit-cnmr": (ModelKind.QUBIT_CNMR,
                   dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_c=1e8),
                   dict(reference_omega0=2.1e9, reference_omega_b=2.0e9),
                   ModelClass.CLASSICAL_NMR, None, (1, 6, 8)),
    "qubit-qnmr": (ModelKind.QUBIT_QNMR, _README_QNMR, {}, ModelClass.QUANTUM_NMR, None,
                   (1, 10, 10)),
    "dispersive": (ModelKind.DISPERSIVE,
                   dict(omega0=2.1e9, omega_b=2.0e9, g_q=3e7, v_g=3e8, gamma_c=1e6, mean_n=2.0),
                   dict(reference_omega0=2.1e9, reference_g_q=3e7, reference_delta=1e8),
                   ModelClass.DISPERSIVE, 2, (1, 9, 3)),
    # clean, its window reads ambiguous
    "narrow-qubit-qnmr": (ModelKind.QUBIT_QNMR, dict(_README_QNMR, gamma_c=2e6, g_q=2.5e7),
                          {}, ModelClass.QUANTUM_NMR, None, (0, 6, 8)),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_class_accuracy_floor(cell):
    kind, values, hints, want, phonon_n, floors = CELLS[cell]
    clean = compute_spectrum(kind, ModelParams(**values), make_frequency_grid(1.8e9, 2.3e9, 2001))

    def right(spectrum) -> bool:
        try:
            report = estimate_report(spectrum, unity_tol=0.04, **hints)
        except InconsistentFeaturesError:
            return False
        return report.model_class is want and (phonon_n is None
                                               or report.phonon_n_est == phonon_n)

    counts = (int(right(clean)),) + tuple(
        sum(right(add_measurement_noise(clean, sigma, seed)) for seed in range(SEEDS))
        for sigma in (0.03, 0.05))
    assert all(count >= floor for count, floor in zip(counts, floors)), (counts, floors)
