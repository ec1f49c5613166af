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
"""

from __future__ import annotations

import math
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


REQUIRED_PARAMS: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.QUBIT_ONLY: ("omega0", "gamma_c"),
    ModelKind.QUBIT_QNMR: ("omega0", "omega_b", "gamma_c", "g_q"),
    ModelKind.DISPERSIVE: ("omega0", "omega_b", "g_q", "v1", "v_g", "mean_n"),
    ModelKind.QUBIT_CNMR: ("omega0", "omega_b", "g_c", "gamma_c"),
    ModelKind.STLR_QUBIT: ("omega0", "omega_r", "g_rq", "v2", "v_g"),
    ModelKind.STLR_QUBIT_QNMR: ("omega0", "omega_b", "omega_r", "g_rq", "g_q", "v2", "v_g"),
    ModelKind.STLR_QUBIT_CNMR: ("omega0", "omega_b", "omega_r", "g_rq", "g_c", "v2", "v_g"),
}


def _checked(omega: ArrayLike) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("probe frequency must be finite")
    return w


def _elastic(x: ArrayLike, y: ArrayLike, omega: ArrayLike):
    """t = x/(x + i y); collapses to a python complex for scalar input.

    On a grid the denominator and the quotient share one complex buffer;
    every element goes through the same IEEE operations as in
    ``x / (x + 1j * y)``.
    """
    if np.ndim(omega) == 0:
        return complex(x / (x + 1j * np.asarray(y)))
    t = np.multiply(1j, y, out=np.empty(np.shape(x), dtype=complex))
    t += x
    return np.divide(x, t, out=t)


def qubit_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude of the bare qubit scatterer.

    A Lorentzian dip at omega0 with full width at half minimum 2*gamma_c;
    the probe is fully reflected on resonance and picks up a pi phase
    step across it.
    """
    p.require("omega0", "gamma_c")
    w = _checked(omega)
    return _elastic(w - p.omega0, p.gamma_c, omega)


def qubit_qnmr_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude when the qubit hybridizes with a quantized
    mechanical mode.

    Two dips at the hybrid frequencies and a full-transmission point at
    exactly omega_b, where the probe passes with zero phase shift.
    """
    p.require("omega0", "omega_b", "gamma_c", "g_q")
    w = _checked(omega)
    detuning_b = w - p.omega_b
    x = w - p.omega0
    x *= detuning_b
    x -= p.g_q**2
    detuning_b *= p.gamma_c  # y
    return _elastic(x, detuning_b, omega)


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


def dispersive_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude in the dispersive (number-resolved) regime.

    The qubit line is shifted by the phonon occupation; the dip sits at
    ``dispersive_dip_frequency`` and keeps the bare Lorentzian width
    2*v1**2/v_g.  Warns when |g_q/delta| >= 0.5, where the dispersive
    approximation is marginal.
    """
    p.require("omega0", "omega_b", "g_q", "v1", "v_g", "mean_n")
    delta = p.omega0 - p.omega_b
    if delta == 0:
        raise ModelDomainError("dispersive regime undefined at zero detuning")
    if abs(p.g_q / delta) >= 0.5:
        warnings.warn(
            f"|g_q/delta| = {abs(p.g_q / delta):.3g} >= 0.5: dispersive "
            "approximation is unreliable here",
            stacklevel=2,
        )
    w = _checked(omega)
    return _elastic(w - dispersive_dip_frequency(p), p.gamma_c, omega)


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


def qubit_cnmr_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude when the mechanical mode acts as a classical
    drive: the bare-qubit Lorentzian with its dip moved to the dressed
    frequency.  Exactly one dip regardless of the drive strength."""
    p.require("omega0", "omega_b", "g_c", "gamma_c")
    w = _checked(omega)
    shifted = shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c)
    return _elastic(w - shifted, p.gamma_c, omega)


def stlr_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude of the bare quarter-wavelength resonator:
    a single Lorentzian dip at omega_r with full width 2*v2**2/v_g."""
    p.require("omega_r", "v2", "v_g")
    w = _checked(omega)
    return _elastic(p.v_g * (w - p.omega_r), p.v2**2, omega)


def _stlr_dressed(w: np.ndarray, omega_q: float, p: ModelParams, omega: ArrayLike):
    """Resonator hybridized with a qubit line at omega_q:
    x = v_g[(w-omega_r)(w-omega_q) - g_rq**2], y = v2**2 (w-omega_q)."""
    detuning_q = w - omega_q
    x = w - p.omega_r
    x *= detuning_q
    x -= p.g_rq**2
    x *= p.v_g
    detuning_q *= p.v2**2  # y
    return _elastic(x, detuning_q, omega)


def stlr_qubit_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude of the resonator hybridized with the qubit.

    The bare resonator dip splits into two (vacuum Rabi splitting) and
    the probe is fully transmitted at exactly omega0: a transparency
    window opened by the qubit.
    """
    p.require("omega0", "omega_r", "g_rq", "v2", "v_g")
    w = _checked(omega)
    return _stlr_dressed(w, p.omega0, p, omega)


def stlr_qubit_qnmr_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude of the resonator-qubit chain with a quantized
    mechanical mode on the qubit.

    Two transparency windows open at the qubit-mechanics hybrid
    frequencies.  Evaluated in pole-cleared form, so omega = omega_b is
    an ordinary point.
    """
    p.require("omega0", "omega_b", "omega_r", "g_rq", "g_q", "v2", "v_g")
    w = _checked(omega)
    detuning_b = w - p.omega_b
    q = w - p.omega0
    q *= detuning_b
    q -= p.g_q**2
    x = w - p.omega_r
    x *= q
    detuning_b *= p.g_rq**2
    x -= detuning_b
    x *= p.v_g
    q *= p.v2**2  # y
    return _elastic(x, q, omega)


def stlr_qubit_cnmr_amplitude(omega: ArrayLike, p: ModelParams):
    """Transmission amplitude of the resonator-qubit chain with a classical
    mechanical drive: the transparency window moves to the dressed qubit
    frequency while keeping its width."""
    p.require("omega0", "omega_b", "omega_r", "g_rq", "g_c", "v2", "v_g")
    w = _checked(omega)
    shifted = shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c)
    return _stlr_dressed(w, shifted, p, omega)


AMPLITUDES = {
    ModelKind.QUBIT_ONLY: qubit_amplitude,
    ModelKind.QUBIT_QNMR: qubit_qnmr_amplitude,
    ModelKind.DISPERSIVE: dispersive_amplitude,
    ModelKind.QUBIT_CNMR: qubit_cnmr_amplitude,
    ModelKind.STLR_QUBIT: stlr_qubit_amplitude,
    ModelKind.STLR_QUBIT_QNMR: stlr_qubit_qnmr_amplitude,
    ModelKind.STLR_QUBIT_CNMR: stlr_qubit_cnmr_amplitude,
}


def transmission_amplitude(kind: ModelKind, omega: ArrayLike, p: ModelParams):
    """Dispatch the complex transmission amplitude for a configuration;
    the kernel rejects params missing one of REQUIRED_PARAMS[kind]."""
    return AMPLITUDES[ModelKind(kind)](omega, p)


def compute_spectrum(kind: ModelKind, p: ModelParams, freqs: np.ndarray) -> Spectrum:
    """Evaluate a model over a frequency grid and package the result."""
    freqs = np.asarray(freqs, dtype=float)
    amplitude = transmission_amplitude(kind, freqs, p)
    return Spectrum.from_amplitude(freqs, amplitude)


def coupled_mode_frequencies(omega_a: Frequency, omega_b: Frequency,
                             g: Frequency) -> Tuple[float, float]:
    """Normal-mode frequencies of two coupled oscillators,

        (omega_a + omega_b)/2 -/+ sqrt(4 g**2 + (omega_a - omega_b)**2)/2,

    returned in ascending order."""
    half_split = 0.5 * math.hypot(2.0 * g, omega_a - omega_b)
    mid = 0.5 * (omega_a + omega_b)
    return (mid - half_split, mid + half_split)


def _triple_mode_frequencies(p: ModelParams) -> tuple[float, ...]:
    # dips of the STLR-qubit-QNMR chain: eigenvalues of the coupled 3-mode matrix
    h = np.array(
        [
            [p.omega0, p.g_q, p.g_rq],
            [p.g_q, p.omega_b, 0.0],
            [p.g_rq, 0.0, p.omega_r],
        ]
    )
    return tuple(float(v) for v in np.linalg.eigvalsh(h))


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


def analytic_features(kind: ModelKind, p: ModelParams) -> FeatureSet:
    """Closed-form dip/unity/width locations for the given configuration."""
    kind = ModelKind(kind)
    p.require(*REQUIRED_PARAMS[kind])
    if kind is ModelKind.QUBIT_ONLY:
        return FeatureSet(dips=(p.omega0,), fwhm=(2.0 * p.gamma_c,))
    if kind is ModelKind.QUBIT_QNMR:
        return FeatureSet(
            dips=coupled_mode_frequencies(p.omega0, p.omega_b, p.g_q),
            unity_points=(p.omega_b,),
        )
    if kind is ModelKind.DISPERSIVE:
        return FeatureSet(
            dips=(dispersive_dip_frequency(p),),
            fwhm=(2.0 * p.v1**2 / p.v_g,),
        )
    if kind is ModelKind.QUBIT_CNMR:
        return FeatureSet(
            dips=(shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c),),
            fwhm=(2.0 * p.gamma_c,),
        )
    if kind is ModelKind.STLR_QUBIT:
        return FeatureSet(
            dips=coupled_mode_frequencies(p.omega0, p.omega_r, p.g_rq),
            unity_points=(p.omega0,),
        )
    if kind is ModelKind.STLR_QUBIT_QNMR:
        return FeatureSet(
            dips=_triple_mode_frequencies(p),
            unity_points=coupled_mode_frequencies(p.omega0, p.omega_b, p.g_q),
        )
    if kind is ModelKind.STLR_QUBIT_CNMR:
        shifted = shifted_qubit_frequency(p.omega0, p.omega_b, p.g_c)
        return FeatureSet(
            dips=coupled_mode_frequencies(shifted, p.omega_r, p.g_rq),
            unity_points=(shifted,),
        )
    raise ValueError(f"unknown model kind: {kind!r}")


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
