"""Shared value types: physical parameter sets, frequency grids and spectra.

All frequencies live on a single angular scale (rad/s).  Nothing in this
package converts between Hz and rad/s; pick one convention at the boundary
and stay on it.  The scattering formulas are scale invariant in this
respect, so the choice only matters when comparing against lab values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

Frequency = float  # angular frequency, rad/s

_COUPLING_FIELDS = ("gamma_c", "v1", "v2", "g_q", "g_c", "g_rq")


class MissingParameterError(ValueError):
    """A model was evaluated without one of its required parameters."""


def make_frequency_grid(start: Frequency, stop: Frequency, n_points: int) -> np.ndarray:
    """Evenly spaced frequency grid, endpoints inclusive.

    Rejects degenerate or reversed ranges, non-finite bounds, and grids
    with fewer than two points.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid bounds must be finite")
    if n_points < 2:
        raise ValueError(f"grid needs at least 2 points, got {n_points}")
    if not start < stop:
        raise ValueError(f"grid start must be below stop, got [{start}, {stop}]")
    return np.linspace(float(start), float(stop), int(n_points))


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by all scattering models.

    Unset fields stay ``None``; each model declares which fields it needs
    and evaluation fails with :class:`MissingParameterError` if one is
    missing.  ``gamma_c`` is the qubit decay rate into the feedline and is
    tied to the feedline coupling by gamma_c = v1**2 / v_g; whichever of
    the two is given, the other is derived so they can never disagree.

    Fields
    ------
    omega0 : qubit transition frequency, rad/s
    omega_b : mechanical resonator frequency, rad/s
    omega_r : transmission-line resonator frequency, rad/s
    gamma_c : qubit decay rate into the feedline, rad/s
    v_g : group speed of the feedline microwave, m/s
    v1 : feedline-qubit coupling, sqrt(rad/s * m/s)
    v2 : feedline-resonator coupling, same units as v1
    g_q : qubit coupling to the quantized mechanical mode, rad/s
    g_c : qubit coupling to a classically driven mechanical mode, rad/s
    g_rq : transmission-line-resonator to qubit coupling, rad/s
    mean_n : average phonon number of the mechanical mode
    """

    omega0: Optional[float] = None
    omega_b: Optional[float] = None
    omega_r: Optional[float] = None
    gamma_c: Optional[float] = None
    v_g: Optional[float] = None
    v1: Optional[float] = None
    v2: Optional[float] = None
    g_q: Optional[float] = None
    g_c: Optional[float] = None
    g_rq: Optional[float] = None
    mean_n: Optional[float] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"parameter '{f.name}' must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        for name in _COUPLING_FIELDS + ("mean_n", "omega0", "omega_b", "omega_r"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"parameter '{name}' must be >= 0, got {value}")
        if self.v_g is not None and self.v_g <= 0:
            raise ValueError(f"group speed v_g must be > 0, got {self.v_g}")
        if self.v_g is not None:
            if self.v1 is not None:
                derived = self.v1**2 / self.v_g
                if self.gamma_c is None:
                    object.__setattr__(self, "gamma_c", derived)
                elif not math.isclose(self.gamma_c, derived, rel_tol=1e-9, abs_tol=1e-300):
                    raise ValueError(
                        "gamma_c and v1**2/v_g disagree "
                        f"({self.gamma_c} vs {derived}); set only one of them"
                    )
            elif self.gamma_c is not None:
                object.__setattr__(self, "v1", math.sqrt(self.gamma_c * self.v_g))

    def require(self, *names: str) -> None:
        """Raise MissingParameterError naming the first unset field in `names`."""
        for name in names:
            if getattr(self, name) is None:
                raise MissingParameterError(f"missing required parameter '{name}'")

    def replace(self, **changes) -> "ModelParams":
        """Copy with the given fields replaced (re-validated)."""
        values = asdict(self)
        values.update(changes)
        return ModelParams(**values)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter field(s): {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Spectrum:
    """A frequency grid with transmission probability and phase per point.

    The complex transmission amplitude is the primary representation;
    ``transmission`` and ``phase`` are derived from it via ``|t|**2`` and
    ``arg(t)``.  Spectra that went through measurement noise carry
    ``amplitude=None`` because no consistent complex amplitude exists.
    Each stored array is a read-only copy of the value passed in, so
    later changes to the caller's arrays do not reach the spectrum.
    """

    freqs: np.ndarray
    transmission: np.ndarray
    phase: np.ndarray
    amplitude: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # one owned copy per array; clipping and the phase convention are
        # applied to it in place
        freqs = np.array(self.freqs, dtype=float)
        trans = np.array(self.transmission, dtype=float)
        phase = np.array(self.phase, dtype=float)
        if freqs.ndim != 1 or len(freqs) < 2:
            raise ValueError("a spectrum needs a 1-d grid of at least 2 frequencies")
        if trans.shape != freqs.shape or phase.shape != freqs.shape:
            raise ValueError("transmission/phase arrays must match the grid shape")
        if not np.all(np.isfinite(freqs)):
            raise ValueError("frequency grid contains non-finite values")
        # on finite values b - a <= 0 exactly when b <= a
        if np.any(freqs[1:] <= freqs[:-1]):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(trans < -1e-9) or np.any(trans > 1 + 1e-9):
            raise ValueError("transmission values must lie in [0, 1]")
        np.clip(trans, 0.0, 1.0, out=trans)
        # phase convention: (-pi, pi]
        phase[phase == -np.pi] = np.pi
        limit = np.pi + 1e-9
        if np.any(phase > limit) or np.any(phase < -limit):
            raise ValueError("phase values must lie in (-pi, pi]")
        amp = self.amplitude
        if amp is not None:
            amp = np.array(amp, dtype=complex)
            if amp.shape != freqs.shape:
                raise ValueError("amplitude array must match the grid shape")
            mag2 = np.abs(amp)
            mag2 *= mag2
            mismatch = np.subtract(mag2, trans)
            np.abs(mismatch, out=mismatch)
            # 1e-12 relative, with an absolute floor for points near zero;
            # the bound overwrites mag2
            mag2 *= 1e-12
            np.maximum(mag2, 1e-15, out=mag2)
            if np.any(mismatch > mag2):
                raise ValueError("transmission is not |amplitude|**2")
            amp.flags.writeable = False
        for array in (freqs, trans, phase):
            array.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "transmission", trans)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "amplitude", amp)

    @classmethod
    def from_amplitude(cls, freqs: np.ndarray, amplitude: np.ndarray) -> "Spectrum":
        """Build a spectrum from the complex transmission amplitude."""
        amplitude = np.asarray(amplitude, dtype=complex)
        # squared in place: x * x is what ** 2 computes
        transmission = np.abs(amplitude)
        transmission *= transmission
        phase = np.angle(amplitude)
        return cls(freqs=np.asarray(freqs, dtype=float), transmission=transmission,
                   phase=phase, amplitude=amplitude)

    @property
    def n_points(self) -> int:
        return len(self.freqs)

    @property
    def grid_step(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


__all__ = [
    "Frequency",
    "MissingParameterError",
    "ModelParams",
    "Spectrum",
    "make_frequency_grid",
]
