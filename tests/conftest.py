"""Shared parameter sets and spectra used across the suite.

The canonical demo values: qubit at 2.1e9, mechanical mode at 2.0e9,
feedline decay 3.3e7, couplings 1e8 (all angular frequencies), group
speed 3e8.  These match the reference figure data emitted by the CLI.
"""

import tracemalloc

import pytest

from qspectra import ModelKind, ModelParams, compute_spectrum, make_frequency_grid

OMEGA0 = 2.1e9
OMEGA_B = 2.0e9
OMEGA_R = 2.0e9
GAMMA_C = 3.3e7
V_G = 3e8
COUPLING = 1e8

MIB = 2**20


def tracemalloc_peak(function, *args):
    """function(*args) and the peak, in bytes, of the memory allocated
    while it ran (tracemalloc: Python objects and numpy arrays)."""
    tracemalloc.start()
    try:
        result = function(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def qubit_params():
    return ModelParams(omega0=OMEGA0, gamma_c=GAMMA_C)


@pytest.fixture
def qnmr_params():
    return ModelParams(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C, g_q=COUPLING)


@pytest.fixture
def cnmr_params():
    return ModelParams(omega0=OMEGA0, omega_b=OMEGA_B, gamma_c=GAMMA_C, g_c=COUPLING)


@pytest.fixture
def dispersive_params():
    # gamma_c well below the per-phonon spacing g_q**2/delta = 9e6
    return ModelParams(omega0=OMEGA0, omega_b=OMEGA_B, g_q=3e7, v_g=V_G,
                       gamma_c=1e6, mean_n=0.0)


@pytest.fixture
def stlr_params():
    return ModelParams(omega0=OMEGA0, omega_r=OMEGA_R, g_rq=COUPLING, v2=1e8, v_g=V_G)


@pytest.fixture
def stlr_qnmr_params():
    return ModelParams(omega0=OMEGA0, omega_b=OMEGA_B, omega_r=OMEGA_R,
                       g_rq=COUPLING, g_q=COUPLING, v2=1e8, v_g=V_G)


@pytest.fixture
def stlr_cnmr_params():
    return ModelParams(omega0=OMEGA0, omega_b=OMEGA_B, omega_r=OMEGA_R,
                       g_rq=COUPLING, g_c=COUPLING, v2=1e8, v_g=V_G)


@pytest.fixture
def wide_grid():
    return make_frequency_grid(1.8e9, 2.3e9, 4001)


@pytest.fixture
def qnmr_spectrum(qnmr_params, wide_grid):
    return compute_spectrum(ModelKind.QUBIT_QNMR, qnmr_params, wide_grid)
