"""Class-accuracy floors of ``estimate_report``.

Each cell is one spectrum on the README grid (2001 points over
1.8e9-2.3e9 rad/s), estimated clean and with 3 % and 5 % measurement
noise at seeds 0 to SEEDS - 1, with ``unity_tol = 0.04`` and the hints
its class needs.  A report is right when it names the spectrum's class
(and, for the dispersive cell, its phonon number); a raised
``InconsistentFeaturesError`` counts as a miss.  The floors are the
counts the estimator reached when the cells were committed: raising one
is routine, lowering one is a contract change.  Cells in G_FLOORS also
count the noisy reports whose g_est lies within 3 sigma of the true g_q,
a first check of a reported sigma against the observed error.  No
report of a cell makes more than MAX_FITS dip fits, and no report of a
single-dip spectrum is QUANTUM_NMR, which would pair a noise dip with
the real one.
"""

import pytest

from qspectra import ModelKind, ModelParams, compute_spectrum, estimate, make_frequency_grid
from qspectra.estimate import (
    InconsistentFeaturesError,
    ModelClass,
    add_measurement_noise,
    estimate_report,
)

SEEDS = 10
# one fit per dip of the deepest two a report classifies by
MAX_FITS = 2
_README_QNMR = dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_q=1e8)

# (kind, params, hints, class, phonon number or None, floors: clean, 3 %, 5 %)
CELLS = {
    "qubit-only": (ModelKind.QUBIT_ONLY, dict(omega0=2.1e9, gamma_c=3.3e7),
                   dict(reference_omega0=2.1e9), ModelClass.NO_NMR, None, (1, 10, 10)),
    "qubit-cnmr": (ModelKind.QUBIT_CNMR,
                   dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_c=1e8),
                   dict(reference_omega0=2.1e9, reference_omega_b=2.0e9),
                   ModelClass.CLASSICAL_NMR, None, (1, 10, 10)),
    "qubit-qnmr": (ModelKind.QUBIT_QNMR, _README_QNMR, {}, ModelClass.QUANTUM_NMR, None,
                   (1, 10, 10)),
    "dispersive": (ModelKind.DISPERSIVE,
                   dict(omega0=2.1e9, omega_b=2.0e9, g_q=3e7, v_g=3e8, gamma_c=1e6, mean_n=2.0),
                   dict(reference_omega0=2.1e9, reference_g_q=3e7, reference_delta=1e8),
                   ModelClass.DISPERSIVE, 2, (1, 10, 10)),
    # clean, its window reads ambiguous
    "narrow-qubit-qnmr": (ModelKind.QUBIT_QNMR, dict(_README_QNMR, gamma_c=2e6, g_q=2.5e7),
                          {}, ModelClass.QUANTUM_NMR, None, (0, 5, 5)),
}
# cell -> floors of the g_est-within-3-sigma count at 3 %, 5 %
G_FLOORS = {"qubit-qnmr": (10, 10)}


def _clean(cell):
    kind, values = CELLS[cell][:2]
    return compute_spectrum(kind, ModelParams(**values), make_frequency_grid(1.8e9, 2.3e9, 2001))


@pytest.mark.parametrize("cell", list(CELLS))
def test_class_accuracy_floor(cell, monkeypatch):
    _, _, hints, want, phonon_n, floors = CELLS[cell]
    clean = _clean(cell)
    fits = []
    real = estimate.least_squares
    monkeypatch.setattr(estimate, "least_squares",
                        lambda *a, **k: fits.append(1) or real(*a, **k))

    def right(spectrum) -> bool:
        fits.clear()
        try:
            report = estimate_report(spectrum, unity_tol=0.04, **hints)
        except InconsistentFeaturesError:
            report = None
        assert len(fits) <= MAX_FITS, (cell, len(fits))
        if report is None:
            return False
        if want is not ModelClass.QUANTUM_NMR:
            assert report.model_class is not ModelClass.QUANTUM_NMR, cell
        return report.model_class is want and (phonon_n is None
                                               or report.phonon_n_est == phonon_n)

    counts = (int(right(clean)),) + tuple(
        sum(right(add_measurement_noise(clean, sigma, seed)) for seed in range(SEEDS))
        for sigma in (0.03, 0.05))
    assert all(count >= floor for count, floor in zip(counts, floors)), (counts, floors)


@pytest.mark.parametrize("cell", list(G_FLOORS))
def test_g_within_3_sigma_floor(cell):
    _, values, hints = CELLS[cell][:3]
    clean = _clean(cell)

    def within(spectrum) -> bool:
        try:
            g = estimate_report(spectrum, unity_tol=0.04, **hints).g_est
        except InconsistentFeaturesError:
            return False
        return g is not None and abs(g.value - values["g_q"]) <= 3.0 * g.sigma

    counts = tuple(sum(within(add_measurement_noise(clean, sigma, seed)) for seed in range(SEEDS))
                   for sigma in (0.03, 0.05))
    assert all(count >= floor for count, floor in zip(counts, G_FLOORS[cell])), counts
