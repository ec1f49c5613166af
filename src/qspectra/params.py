"""Shared value types: physical parameter sets, frequency grids and spectra.

All frequencies live on a single angular scale (rad/s).  Nothing in this
package converts between Hz and rad/s; pick one convention at the boundary
and stay on it.  The scattering formulas are scale invariant in this
respect, so the choice only matters when comparing against lab values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

Frequency = float  # angular frequency, rad/s

_COUPLING_FIELDS = ("gamma_c", "v1", "v2", "g_q", "g_c", "g_rq")
# the couplings the models square
_SQUARED_FIELDS = ("v1", "v2", "g_q", "g_c", "g_rq")


class MissingParameterError(ValueError):
    """A model was evaluated without one of its required parameters."""


def make_frequency_grid(start: Frequency, stop: Frequency, n_points: int) -> np.ndarray:
    """Evenly spaced frequency grid, endpoints inclusive.

    Rejects degenerate or reversed ranges, non-finite bounds, a point
    count that is not an integer (a float, bool or str), and grids with
    fewer than two points.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid bounds must be finite")
    if isinstance(n_points, bool) or not hasattr(n_points, "__index__"):
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    n_points = operator.index(n_points)
    if n_points < 2:
        raise ValueError(f"grid needs at least 2 points, got {n_points}")
    if not start < stop:
        raise ValueError(f"grid start must be below stop, got [{start}, {stop}]")
    return np.linspace(float(start), float(stop), n_points)


def _checked(name: str, value: float, source: str = "") -> float:
    """value, given or derived (from source) for the field name, when it
    is finite and, for a coupling the models square, its square is too;
    ValueError naming the field otherwise."""
    label = f"parameter '{name}'" + (f" = {source}" if source else "")
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    if name in _SQUARED_FIELDS and not math.isfinite(value * value):
        raise ValueError(f"{label} = {value} is out of range: its square leaves the float range")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by all scattering models.

    Unset fields stay ``None``; each model declares which fields it needs
    and evaluation fails with :class:`MissingParameterError` if one is
    missing.  ``gamma_c`` is the qubit decay rate into the feedline and is
    tied to the feedline coupling by gamma_c = v1**2 / v_g; whichever of
    the two is given, the other is derived so they can never disagree.
    Every field, given or derived, must be finite, and so must the square
    of each coupling the models square (v1, v2, g_q, g_c, g_rq); a
    ValueError names the field that is not.

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
            if value is not None:
                object.__setattr__(self, f.name, _checked(f.name, float(value)))
        for name in _COUPLING_FIELDS + ("mean_n", "omega0", "omega_b", "omega_r"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"parameter '{name}' must be >= 0, got {value}")
        if self.v_g is not None and self.v_g <= 0:
            raise ValueError(f"group speed v_g must be > 0, got {self.v_g}")
        if self.v_g is not None:
            if self.v1 is not None:
                derived = _checked("gamma_c", self.v1**2 / self.v_g, "v1**2/v_g")
                if self.gamma_c is None:
                    object.__setattr__(self, "gamma_c", derived)
                elif not math.isclose(self.gamma_c, derived, rel_tol=1e-9, abs_tol=1e-300):
                    raise ValueError(
                        "gamma_c and v1**2/v_g disagree "
                        f"({self.gamma_c} vs {derived}); set only one of them"
                    )
            elif self.gamma_c is not None:
                v1 = _checked("v1", math.sqrt(self.gamma_c * self.v_g), "sqrt(gamma_c * v_g)")
                object.__setattr__(self, "v1", v1)

    def require(self, *names: str) -> None:
        """Raise MissingParameterError naming the first unset field in `names`."""
        for name in names:
            if getattr(self, name) is None:
                raise MissingParameterError(f"missing required parameter '{name}'")

    def replace(self, **changes) -> "ModelParams":
        """Copy with the given fields replaced (re-validated); an unknown
        field name raises TypeError.

        While v_g is set, the partner of a replaced gamma_c or v1 is derived
        again: a new gamma_c gives v1, and a new v1 or v_g gives gamma_c
        (from v1; v1 comes from gamma_c when v1 is unset).  Replacing both
        gamma_c and v1 still raises if they disagree."""
        v_g = changes.get("v_g", self.v_g)
        if v_g is not None and not {"gamma_c", "v1"} <= changes.keys():
            if changes.get("gamma_c") is not None:
                changes["v1"] = None
            elif changes.get("v1", self.v1) is not None and ("v1" in changes or v_g != self.v_g):
                changes["gamma_c"] = None
        return dataclasses.replace(self, **changes)

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
    Every stored array is read-only.  Later changes to the arrays passed
    to the constructor do not reach the spectrum.  Arrays the package has
    just built itself (``from_amplitude``'s transmission and phase,
    ``compute_spectrum``'s amplitude, ``add_measurement_noise``'s draws)
    are stored as they are, and a noisy spectrum shares its source's grid.

    The constructor checks every array.  The two package routes skip the
    checks that their construction cannot fail:

    - ``from_amplitude`` and ``compute_spectrum`` derive the transmission
      as ``|amplitude|**2`` itself, so the comparison of the two runs only
      where the [0, 1] clip moved a value above 1.  Once the transmission
      check passes the amplitude is finite, and the phase, ``arg(t)`` of a
      finite ``t``, lies in [-pi, pi], so its range check is skipped.  The
      grid and transmission checks run.
    - ``add_measurement_noise`` shares its source's grid, which was checked
      when the source was built and is read-only, and clips the
      transmission to [0, 1] from finite values, so neither is checked
      again.  Its phase check stays, because this route can produce bad
      phases: at sigma 1e308 draws overflow to infinity and wrap to NaN.
      ``add_measurement_noise`` rejects such draws itself, and the phase
      check remains behind it.
    """

    freqs: np.ndarray
    transmission: np.ndarray
    phase: np.ndarray
    amplitude: Optional[np.ndarray] = None

    def __post_init__(self, route: Optional[str] = None) -> None:
        # the constructor calls this without a route: one owned copy per
        # array, to which clipping and the phase convention are applied in
        # place; _adopt calls it on arrays nothing else holds, with the
        # route that built them ("amplitude" or "noise", see the class
        # docstring), which skips the checks it cannot fail
        owned = np.array if route is None else np.asarray
        freqs = owned(self.freqs, dtype=float)
        trans = owned(self.transmission, dtype=float)
        phase = owned(self.phase, dtype=float)
        if freqs.ndim != 1 or len(freqs) < 2:
            raise ValueError("a spectrum needs a 1-d grid of at least 2 frequencies")
        if trans.shape != freqs.shape or phase.shape != freqs.shape:
            raise ValueError("transmission/phase arrays must match the grid shape")
        clipped = False
        if route != "noise":
            if not np.all(np.isfinite(freqs)):
                raise ValueError("frequency grid contains non-finite values")
            # on finite values b - a <= 0 exactly when b <= a
            if np.any(freqs[1:] <= freqs[:-1]):
                raise ValueError("frequency grid must be strictly increasing")
            # min and max are NaN when any value is, and NaN fails both bounds
            low, high = trans.min(), trans.max()
            if not (low >= -1e-9 and high <= 1 + 1e-9):
                raise ValueError("transmission values must lie in [0, 1]")
            clipped = low < 0 or high > 1
            if clipped:
                np.clip(trans, 0.0, 1.0, out=trans)
        lowest_phase = phase.min()
        if route != "amplitude":
            limit = np.pi + 1e-9
            if not (lowest_phase >= -limit and phase.max() <= limit):
                raise ValueError("phase values must lie in (-pi, pi]")
        # phase convention: (-pi, pi]
        if lowest_phase <= -np.pi:
            phase[phase == -np.pi] = np.pi
        amp = self.amplitude
        if amp is not None:
            amp = owned(amp, dtype=complex)
            if amp.shape != freqs.shape:
                raise ValueError("amplitude array must match the grid shape")
            # the amplitude route's T is |amplitude|**2 itself unless clipped
            if route != "amplitude" or clipped:
                mag2 = np.abs(amp)
                mag2 *= mag2
                mismatch = np.subtract(mag2, trans)
                np.abs(mismatch, out=mismatch)
                # 1e-12 relative, with an absolute floor for points near zero;
                # the bound overwrites mag2
                mag2 *= 1e-12
                np.maximum(mag2, 1e-15, out=mag2)
                if not np.all(mismatch <= mag2):
                    raise ValueError("transmission is not |amplitude|**2")
            amp.flags.writeable = False
        for array in (freqs, trans, phase):
            array.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "transmission", trans)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "amplitude", amp)

    @classmethod
    def _adopt(cls, freqs: np.ndarray, transmission: np.ndarray, phase: np.ndarray,
               amplitude: Optional[np.ndarray] = None, *, route: str) -> "Spectrum":
        """A spectrum that stores the given arrays themselves, after the
        constructor's checks, less those `route` cannot fail.  For arrays
        the package has just built and hands over: the transmission and
        phase are clipped in place and every array is made read-only."""
        spectrum = cls.__new__(cls)
        for name, value in (("freqs", freqs), ("transmission", transmission),
                            ("phase", phase), ("amplitude", amplitude)):
            object.__setattr__(spectrum, name, value)
        spectrum.__post_init__(route=route)
        return spectrum

    @classmethod
    def _adopt_amplitude(cls, freqs: np.ndarray, amplitude: np.ndarray) -> "Spectrum":
        """`from_amplitude` that adopts `freqs` and `amplitude` (see _adopt)."""
        # squared in place: x * x is what ** 2 computes
        transmission = np.abs(amplitude)
        transmission *= transmission
        return cls._adopt(freqs, transmission, np.angle(amplitude), amplitude,
                          route="amplitude")

    @classmethod
    def from_amplitude(cls, freqs: np.ndarray, amplitude: np.ndarray) -> "Spectrum":
        """Build a spectrum from the complex transmission amplitude (copies
        of `freqs` and `amplitude`; transmission and phase are derived)."""
        return cls._adopt_amplitude(np.array(freqs, dtype=float),
                                    np.array(amplitude, dtype=complex))

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
