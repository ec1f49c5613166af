"""Microwave transmission spectroscopy of an rf-SQUID flux qubit coupled
to a nanomechanical resonator.

Forward models for the seven scattering configurations (bare qubit, qubit
with a quantized or classical mechanical mode, dispersive phonon-number
readout, and the qubit alone or with either mechanical mode probed
through a quarter-wavelength transmission-line resonator), a flux-basis
circuit eigensolver that derives the qubit parameters from first
principles, a classical driven-oscillator baseline, and estimators that
invert measured spectra back to frequencies, couplings, phonon numbers,
and amplitudes.  Each module's ``__all__`` is the one list of the public
names it adds to the package.
"""

from .constants import *
from .params import *
from .models import *
from .squid import *
from .classical import *
from .estimate import *

__version__ = "0.1.0"
