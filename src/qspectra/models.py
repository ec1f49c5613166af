"""Closed-form transmission models for a travelling microwave scattered by
a flux qubit, optionally dressed by a nanomechanical mode and/or a
quarter-wavelength transmission-line resonator (STLR).

Every configuration reduces to the same elastic-scattering shape

    t(omega) = x / (x + i y)

with real x(omega), y(omega), which makes 0 <= |t|**2 <= 1 automatic.  The
transmission probability and the phase are always derived from this
complex amplitude rather than from expanded |t|**2 expressions.

Amplitude conventions per configuration (gamma_c = v1**2/v_g):

    qubit only             x = w - omega0                          y = gamma_c
    qubit + quantum NMR    x = (w-omega_b)(w-omega0) - g_q**2      y = gamma_c (w-omega_b)
    dispersive readout     x = w - omega_n                         y = gamma_c
    qubit + classical NMR  x = w - omega_tilde                     y = gamma_c
    bare STLR              x = v_g (w-omega_r)                     y = v2**2
    STLR + qubit           x = v_g[(w-omega_r)(w-omega0)-g_rq**2]  y = v2**2 (w-omega0)
    STLR + qubit + QNMR    x = v_g[(w-omega_r)q(w) - g_rq**2 (w-omega_b)]
                           y = v2**2 q(w),   q(w) = (w-omega0)(w-omega_b) - g_q**2
    STLR + qubit + CNMR    as STLR + qubit with omega0 -> omega_tilde

where omega_n = omega0 + (g_q**2/delta)(mean_n + 1/2) with delta =
omega0 - omega_b, and omega_tilde = sqrt(((omega0+omega_b)/2)**2 + g_c**2).
The STLR + QNMR form is the pole-cleared version of the nested expression
x = v_g[(w-omega_r)A - g_rq**2] with A = w - omega0 - g_q**2/(w-omega_b):
numerator and denominator are multiplied by (w-omega_b) so the mechanical
resonance frequency is an ordinary point of the evaluation.

Each kernel declares its parameters, its (x, y) and its closed-form
features once, through ``_kernel``, which also fills REQUIRED_PARAMS,
AMPLITUDES and the table behind ``analytic_features``.  Qubit + QNMR
and the STLR kinds share one two-mode shape, ``_hybrid``.  That shape is a
degeneracy too: STLR + qubit is qubit + QNMR with (omega_r, omega0, g_rq,
v2**2/v_g) for (omega0, omega_b, g_q, gamma_c), so T alone cannot tell the
resonator-probed setup from the qubit-probed one.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

from .params import Frequency, ModelParams, Spectrum

ArrayLike = Union[float, np.ndarray]


class ModelDomainError(ValueError):
    """The parameters lie outside the regime where the model's closed form
    is defined (e.g. the dispersive readout at zero detuning)."""


class ModelKind(str, Enum):
    """The supported scatterer configurations."""

    QUBIT_ONLY = "qubit-only"
    QUBIT_QNMR = "qubit-qnmr"
    DISPERSIVE = "dispersive"
    QUBIT_CNMR = "qubit-cnmr"
    STLR_QUBIT = "stlr-qubit"
    STLR_QUBIT_QNMR = "stlr-qubit-qnmr"
    STLR_QUBIT_CNMR = "stlr-qubit-cnmr"


@dataclass(frozen=True)
class FeatureSet:
    """Closed-form spectral feature locations for one configuration.

    ``dips`` are zero-transmission frequencies, ``unity_points`` are
    full-transmission frequencies and ``fwhm`` holds the analytic full
    width at half minimum per dip where a closed form exists (empty
    otherwise).  All tuples are sorted ascending.
    """

    dips: tuple[float, ...] = ()
    unity_points: tuple[float, ...] = ()
    fwhm: tuple[float, ...] = ()


REQUIRED_PARAMS: dict[ModelKind, tuple[str, ...]] = {}
AMPLITUDES = {}
_FEATURES = {}  # kind -> closed-form FeatureSet of its ModelParams


def _checked(omega: ArrayLike) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("probe frequency must be finite")
    return w


def _elastic(x: ArrayLike, y: ArrayLike, omega: ArrayLike):
    """t = x/(x + i y); collapses to a python complex for scalar input.

    On a grid the denominator and the quotient share one complex buffer;
    every element goes through the same IEEE operations as in
    ``x / (x + 1j * y)``.  A scalar y of 0 is a zero rate: the scatterer
    is decoupled from the line, and t = 1 is also the limit where x = 0.
    """
    if np.ndim(y) == 0 and y == 0:
        return complex(1) if np.ndim(omega) == 0 else np.ones(np.shape(omega), complex)
    if np.ndim(omega) == 0:
        return complex(x / (x + 1j * np.asarray(y)))
    t = np.multiply(1j, y, out=np.empty(np.shape(x), dtype=complex))
    t += x
    return np.divide(x, t, out=t)


def _kernel(kind: ModelKind | None, *names: str, features=None):
    """Declare an amplitude kernel ``(omega, p) -> t`` from a body that
    returns (x, y) on the checked grid; the kernel first requires `names`.
    With a kind, fills REQUIRED_PARAMS[kind] and AMPLITUDES[kind], and
    files ``features(p) -> FeatureSet`` for ``analytic_features``.  An
    evaluation whose arithmetic overflows or turns invalid raises
    ValueError naming the model, where numpy would only warn and return
    a t of NaN; a caller's np.errstate that ignores those errors keeps
    its NaN."""

    def declare(xy):
        label = kind.value if kind is not None else xy.__name__

        @functools.wraps(xy)
        def amplitude(omega: ArrayLike, p: ModelParams):
            p.require(*names)
            chosen = np.geterr()
            try:
                with np.errstate(**{k: "raise" for k in ("over", "invalid")
                                    if chosen[k] == "warn"}):
                    return _elastic(*xy(_checked(omega), p), omega)
            except FloatingPointError as exc:
                raise ValueError(f"model {label}: the parameters put its amplitude "
                                 f"out of the float range ({exc})") from None

        if kind is not None:
            REQUIRED_PARAMS[kind] = names
            AMPLITUDES[kind] = amplitude
            _FEATURES[kind] = features
        return amplitude

    return declare


def _caller_stacklevel() -> int:
    """Stacklevel for ``warnings.warn`` in the calling function that names
    the first frame outside this module, past the _kernel wrapper,
    transmission_amplitude and compute_spectrum."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _hybrid(w: np.ndarray, omega_a: float, omega_b: float, g: float, rate: float):
    """Two modes at omega_a and omega_b coupled by g:
    x = (w-omega_a)(w-omega_b) - g**2, y = rate (w-omega_b).  Where g**2 is
    0 (g = 0, or a g that underflows) the common factor w-omega_b cancels,
    which keeps w = omega_b from being 0/0: x = w-omega_a, y = rate.  A
    zero rate takes that branch too, for ``_elastic`` to read y = 0."""
    if g**2 == 0 or rate == 0:
        return w - omega_a, rate
    y = w - omega_b
    x = w - omega_a
    x *= y
    x -= g**2
    y *= rate
    return x, y


def _line_features(center: float, rate: float, fwhm: float) -> FeatureSet:
    """One Lorentzian dip at center; none at a zero rate, where the line
    is transparent."""
    return FeatureSet() if rate == 0 else FeatureSet(dips=(center,), fwhm=(fwhm,))


def _hybrid_features(omega_a: float, omega_b: float, g: float, rate: float,
                     scale: float) -> FeatureSet:
    """Features of ``_hybrid`` with x scaled by `scale`: the two normal-mode
    dips and the window at omega_b.  Where g**2 or the rate is 0, on the
    branch ``_hybrid`` takes, they are the line's at omega_a, of FWHM
    2 rate/scale."""
    if g**2 == 0 or rate == 0:
        return _line_features(omega_a, rate, 2.0 * rate / scale)
    return FeatureSet(dips=coupled_mode_frequencies(omega_a, omega_b, g),
                      unity_points=(omega_b,))


@_kernel(ModelKind.QUBIT_ONLY, "omega0", "gamma_c",
         features=lambda p: _line_features(p.omega0, p.gamma_c, 2.0 * p.gamma_c))
def qubit_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude of the bare qubit scatterer.

    A Lorentzian dip at omega0 with full width at half minimum 2*gamma_c;
    the probe is fully reflected on resonance and picks up a pi phase
    step across it.
    """
    return w - p.omega0, p.gamma_c


@_kernel(ModelKind.QUBIT_QNMR, "omega0", "omega_b", "gamma_c", "g_q",
         features=lambda p: _hybrid_features(p.omega0, p.omega_b, p.g_q, p.gamma_c, 1.0))
def qubit_qnmr_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude when the qubit hybridizes with a quantized
    mechanical mode.

    Two dips at the hybrid frequencies and a full-transmission point at
    exactly omega_b, where the probe passes with zero phase shift.
    """
    return _hybrid(w, p.omega0, p.omega_b, p.g_q, p.gamma_c)


def dispersive_shift(p: ModelParams) -> float:
    """Per-phonon qubit frequency shift g_q**2/delta, delta = omega0 - omega_b."""
    p.require("omega0", "omega_b", "g_q")
    delta = p.omega0 - p.omega_b
    if delta == 0:
        raise ModelDomainError("dispersive regime undefined at zero detuning")
    return p.g_q**2 / delta


def dispersive_dip_frequency(p: ModelParams, mean_n: float | None = None) -> float:
    """Dip center omega0 + (g_q**2/delta)(mean_n + 1/2) of the number-resolved
    readout; one rung per phonon number."""
    n = p.mean_n if mean_n is None else mean_n
    if n is None:
        raise ValueError("mean phonon number not set")
    return p.omega0 + dispersive_shift(p) * (n + 0.5)


@_kernel(ModelKind.DISPERSIVE, "omega0", "omega_b", "g_q", "v1", "v_g", "mean_n",
         features=lambda p: _line_features(dispersive_dip_frequency(p), p.gamma_c,
                                           2.0 * p.v1**2 / p.v_g))
def dispersive_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude in the dispersive (number-resolved) regime.

    The qubit line is shifted by the phonon occupation; the dip sits at
    ``dispersive_dip_frequency`` and keeps the bare Lorentzian width
    2*v1**2/v_g.  Warns when |g_q/delta| >= 0.5, where the dispersive
    approximation is marginal.
    """
    dip = dispersive_dip_frequency(p)  # raises ModelDomainError at zero detuning
    ratio = abs(p.g_q / (p.omega0 - p.omega_b))
    if ratio >= 0.5:
        warnings.warn(
            f"|g_q/delta| = {ratio:.3g} >= 0.5: dispersive approximation is unreliable here",
            stacklevel=_caller_stacklevel(),
        )
    return w - dip, p.gamma_c


def resolvability_condition(p: ModelParams) -> bool:
    """True when neighbouring phonon-number dips are separable.

    Equivalent statements: v1**2 < g_q**2 v_g / (2|delta|), or the dip
    width gamma_c stays below half the per-phonon spacing g_q**2/|delta|.
    Strict inequality; false at the boundary and for g_q = 0.
    """
    p.require("omega0", "omega_b", "g_q", "gamma_c")
    if p.g_q == 0:
        return False
    delta = abs(p.omega0 - p.omega_b)
    if delta == 0:
        return True
    return p.gamma_c < p.g_q**2 / (2.0 * delta)


def shifted_qubit_frequency(omega0: Frequency, omega_b: Frequency, g_c: Frequency) -> float:
    """Dressed qubit frequency sqrt(((omega0+omega_b)/2)**2 + g_c**2) under a
    classical sinusoidal drive.

    Note the g_c -> 0 limit is (omega0+omega_b)/2, not omega0: the dressed
    frequency lives in the frame rotating at the drive, so it does not
    reduce to the bare lab-frame value.  See the README caveats.
    """
    return math.hypot(0.5 * (omega0 + omega_b), g_c)


@_kernel(ModelKind.QUBIT_CNMR, "omega0", "omega_b", "g_c", "gamma_c",
         features=lambda p: _line_features(
             shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c), p.gamma_c, 2.0 * p.gamma_c))
def qubit_cnmr_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude when the mechanical mode acts as a classical
    drive: the bare-qubit Lorentzian with its dip moved to the dressed
    frequency.  Exactly one dip regardless of the drive strength."""
    return w - shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c), p.gamma_c


@_kernel(None, "omega_r", "v2", "v_g")
def stlr_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude of the bare quarter-wavelength resonator:
    a single Lorentzian dip at omega_r with full width 2*v2**2/v_g."""
    return p.v_g * (w - p.omega_r), p.v2**2


def _stlr_dressed(w: np.ndarray, omega_q: float, p: ModelParams):
    """Resonator hybridized with a qubit line at omega_q:
    x = v_g[(w-omega_r)(w-omega_q) - g_rq**2], y = v2**2 (w-omega_q)."""
    x, y = _hybrid(w, p.omega_r, omega_q, p.g_rq, p.v2**2)
    x *= p.v_g
    return x, y


def _stlr_dressed_features(omega_q: float, p: ModelParams) -> FeatureSet:
    """Features of the resonator hybridized with a qubit line at omega_q:
    the two split dips and the transparency window at omega_q, or the bare
    resonator's where g_rq**2 or v2**2 is 0."""
    return _hybrid_features(p.omega_r, omega_q, p.g_rq, p.v2**2, p.v_g)


@_kernel(ModelKind.STLR_QUBIT, "omega0", "omega_r", "g_rq", "v2", "v_g",
         features=lambda p: _stlr_dressed_features(p.omega0, p))
def stlr_qubit_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude of the resonator hybridized with the qubit.

    The bare resonator dip splits into two (vacuum Rabi splitting) and
    the probe is fully transmitted at exactly omega0: a transparency
    window opened by the qubit.
    """
    return _stlr_dressed(w, p.omega0, p)


def _stlr_qubit_qnmr_features(p: ModelParams) -> FeatureSet:
    """The chain's three dips, the eigenvalues of its coupled 3-mode
    matrix, and the windows at the qubit-mechanics hybrid frequencies.
    Where g_rq**2, v2**2 or g_q**2 is 0, the features of the resonator
    with the qubit alone, as the kernel branches."""
    if p.g_rq**2 == 0 or p.v2**2 == 0 or p.g_q**2 == 0:
        return _stlr_dressed_features(p.omega0, p)
    h = np.array(
        [
            [p.omega0, p.g_q, p.g_rq],
            [p.g_q, p.omega_b, 0.0],
            [p.g_rq, 0.0, p.omega_r],
        ]
    )
    return FeatureSet(dips=tuple(float(v) for v in np.linalg.eigvalsh(h)),
                      unity_points=coupled_mode_frequencies(p.omega0, p.omega_b, p.g_q))


@_kernel(ModelKind.STLR_QUBIT_QNMR, "omega0", "omega_b", "omega_r", "g_rq", "g_q", "v2", "v_g",
         features=_stlr_qubit_qnmr_features)
def stlr_qubit_qnmr_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude of the resonator-qubit chain with a quantized
    mechanical mode on the qubit.

    Two transparency windows open at the qubit-mechanics hybrid
    frequencies.  Evaluated in pole-cleared form, so omega = omega_b is
    an ordinary point.  Where g_rq**2 is 0 the qubit and the mechanics
    decouple from the resonator, which leaves ``stlr_amplitude``; so does
    a zero rate v2**2, for ``_elastic`` to read y = 0.  Where g_q**2 is 0
    the mechanics decouples from the qubit, which leaves
    ``stlr_qubit_amplitude``.
    """
    if p.g_rq**2 == 0 or p.v2**2 == 0:
        return stlr_amplitude.__wrapped__(w, p)
    q, detuning_b = _hybrid(w, p.omega0, p.omega_b, p.g_q, p.g_rq**2)
    x = w - p.omega_r
    x *= q
    x -= detuning_b  # g_rq**2 (w-omega_b)
    x *= p.v_g
    q *= p.v2**2  # y
    return x, q


@_kernel(ModelKind.STLR_QUBIT_CNMR, "omega0", "omega_b", "omega_r", "g_rq", "g_c", "v2", "v_g",
         features=lambda p: _stlr_dressed_features(
             shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c), p))
def stlr_qubit_cnmr_amplitude(w: np.ndarray, p: ModelParams):
    """Transmission amplitude of the resonator-qubit chain with a classical
    mechanical drive: the transparency window moves to the dressed qubit
    frequency while keeping its width."""
    return _stlr_dressed(w, shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c), p)


def transmission_amplitude(kind: ModelKind, omega: ArrayLike, p: ModelParams):
    """Dispatch the complex transmission amplitude for a configuration;
    the kernel rejects params missing one of REQUIRED_PARAMS[kind]."""
    return AMPLITUDES[ModelKind(kind)](omega, p)


def compute_spectrum(kind: ModelKind, p: ModelParams, freqs: np.ndarray) -> Spectrum:
    """Evaluate a model over a frequency grid and package the result."""
    freqs = np.array(freqs, dtype=float)  # the spectrum's own copy of the grid
    return Spectrum._adopt_amplitude(freqs, transmission_amplitude(kind, freqs, p))


def coupled_mode_frequencies(omega_a: Frequency, omega_b: Frequency,
                             g: Frequency) -> Tuple[float, float]:
    """Normal-mode frequencies of two coupled oscillators,

        (omega_a + omega_b)/2 -/+ sqrt(4 g**2 + (omega_a - omega_b)**2)/2,

    returned in ascending order."""
    half_split = 0.5 * math.hypot(2.0 * g, omega_a - omega_b)
    mid = 0.5 * (omega_a + omega_b)
    return (mid - half_split, mid + half_split)


def analytic_features(kind: ModelKind, p: ModelParams) -> FeatureSet:
    """Closed-form dip/unity/width locations for the given configuration."""
    kind = ModelKind(kind)
    p.require(*REQUIRED_PARAMS[kind])
    return _FEATURES[kind](p)


__all__ = [
    "AMPLITUDES",
    "FeatureSet",
    "ModelDomainError",
    "ModelKind",
    "REQUIRED_PARAMS",
    "analytic_features",
    "compute_spectrum",
    "coupled_mode_frequencies",
    "dispersive_amplitude",
    "dispersive_dip_frequency",
    "dispersive_shift",
    "qubit_amplitude",
    "qubit_cnmr_amplitude",
    "qubit_qnmr_amplitude",
    "resolvability_condition",
    "shifted_qubit_frequency",
    "stlr_amplitude",
    "stlr_qubit_amplitude",
    "stlr_qubit_cnmr_amplitude",
    "stlr_qubit_qnmr_amplitude",
    "transmission_amplitude",
]
