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


def _keep_freed_buffers() -> None:
    """Pin glibc's malloc thresholds so that freed numpy buffers stay in
    the process and are reused, instead of going back to the kernel and
    being faulted in again (about 1335 minor faults per 100001-point
    compute_spectrum + add_measurement_noise, a quarter of its CPU time
    on a 2-CPU Xeon VM).

    glibc starts with a 128 KiB mmap threshold and raises it, and the
    trim threshold to twice it, only when the process frees an mmapped
    chunk, so the cost depended on what the process had freed before.
    The mmap threshold goes to 32 MiB, the ceiling of that dynamic rule
    on 64-bit (mallopt rejects more), and the trim threshold to 64 MiB,
    twice it as the rule keeps them.  Both are set, because setting
    either one ends the dynamic rule: the trim threshold alone would
    leave every array above 128 KiB mmapped.  Where the mmap threshold
    is refused (32-bit), nothing is set.  The cost is up to 64 MiB of
    freed heap kept resident until exit.

    Acts only on glibc, and not when the user has configured malloc
    through glibc's own MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_
    or glibc.malloc tunables.  mallopt is found with dlopen(NULL), not
    ctypes.util.find_library, which runs ldconfig in a subprocess.
    """
    import ctypes
    import os

    try:  # os.confstr is missing on Windows; the name is unknown off glibc
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        glibc = False
    configured = ("MALLOC_MMAP_THRESHOLD_" in os.environ
                  or "MALLOC_TRIM_THRESHOLD_" in os.environ
                  or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))
    if not glibc or configured:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # a static build exports no mallopt
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_buffers()
