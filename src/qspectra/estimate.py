"""Turn a (possibly noisy) transmission spectrum back into physics.

The pipeline: find dips and full-transmission points, refine each dip by
a local Lorentzian least-squares fit, classify the mechanical vibration
(quantum vs classical vs absent), and invert the closed-form feature
relations to the underlying frequencies and couplings with first-order
uncertainty propagation.

One report scans the spectrum for dip candidates once, groups them into
clusters and fits each cluster once.  Consecutive candidates i < j share
a cluster when T[i..j] stays below 0.5 * (1 + max(T[i], T[j])), the
half-depth level of the shallower one: such minima are not two dips
resolved at half maximum.  Measurement noise clipped to T = 0 at a dip
bottom makes one candidate per zero run, and all of them share one
cluster, fitted from its lowest sample (the middle one of a tied run).
That one selection is the report's: every in-contract fit is a reported
dip, and the outer dips that bound the full-transmission search are the
reported dips of fitted depth >= 0.5.

One rule (_decide) maps those dips and points to a vibration class:
estimate_report applies it and inverts what the class allows, and
classify is its raising form.

Phase gate: every kernel is t = x/(x + i y) (see models), so a dip of T
is a zero of x, where t passes through 0 and its phase turns by pi.  A
cluster is fitted only when the phase steps by at least pi/4, wrapped,
between neighbouring samples or samples two apart somewhere from one
half-depth crossing of its lowest sample to the other.  A wiggle of
measurement noise turns the phase only by the phase noise, so it is not
fitted; the report's notes count it as "no phase step".  The stride of
two covers a sample on the zero itself: t = 0 there has phase 0, which
splits the turn of pi into two smaller steps.

Fit contract: every reported DipFeature has depth in
[depth_threshold, 1], a FWHM of at least half a grid step and a center
inside its fit window.  The threshold gates a candidate's prominence and
the fit may find it shallower: such a fit is rejected as "depth below
depth_threshold".  A fitted depth above 1 by at most twice the fit's RMS
residual (model mismatch and noise: clean hybridized dips overshoot by
~0.3-1.4 %) is reported as 1.0.  Any other violation rejects the fit;
the report's notes count the rejected fits by reason.

Fit solver: every fit is MINPACK lmder (Moré 1978), called through
scipy's _minpack extension, the entry scipy.optimize.leastsq and
least_squares(method="lm") both call.  least_squares below passes it
leastsq's arguments for the settings of least_squares(method="lm")
written out: ftol = xtol = gtol = 1e-8, maxfev = 100 * n, factor = 100
and diag=None, i.e. x_scale="jac".  It leaves out leastsq's shape probe
(one extra residual and Jacobian call per fit) and its covariance
matrix, whose results the fits never read.  The fits do not follow
scipy's defaults, which differ between versions (scipy 1.10-1.15 ran
least_squares(method="lm") with x_scale=1.0), and
tests/test_estimate.py::TestFitKernel compares them bit for bit with
both public scipy calls, which guards against a scipy release that
changes the private entry.

Uncertainty conventions: a fitted dip contributes FWHM/2 as its 1-sigma
input uncertainty, a full-transmission point contributes one grid step,
and no reported uncertainty is ever below half the grid spacing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from scipy.optimize import OptimizeResult, _minpack
from scipy.signal import find_peaks

from .params import Frequency, Spectrum
from .squid import classical_amplitude

# depth of the dips whose outermost pair bounds the full-transmission search
_OUTER_DIP_DEPTH = 0.5
# defaults: the depth of a reported dip, the T and phase tolerance of a unity point
_DEPTH_THRESHOLD = 0.1
_UNITY_TOL = 0.01
# a cluster is fitted when its phase steps by at least pi/4 (see _phase_step)
_COS_PHASE_STEP = math.cos(0.25 * math.pi)
# rejection reasons, in the order the report notes list them
_REJECT_REASONS = (
    "no phase step",
    "fit did not produce finite values",
    "depth below depth_threshold",
    "depth above 1 beyond the fit residual",
    "FWHM below half a grid step",
    "center outside the fit window",
)


class InconsistentFeaturesError(ValueError):
    """Measured feature locations violate the model they are inverted under."""


class OffLadderError(InconsistentFeaturesError):
    """A dip location matches no integer phonon number."""


class AmbiguousClassificationError(RuntimeError):
    """The spectrum's feature structure fits more than one vibration class."""


class ModelClass(str, Enum):
    """Vibration classes distinguishable from a transmission spectrum."""

    NO_NMR = "no-nmr"
    QUANTUM_NMR = "quantum-nmr"
    CLASSICAL_NMR = "classical-nmr"
    DISPERSIVE = "dispersive"
    AMBIGUOUS = "ambiguous"
    NO_FEATURES = "no-features"


@dataclass(frozen=True)
class Estimate:
    """A value with a symmetric 1-sigma uncertainty."""

    value: float
    sigma: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class DipFeature:
    """One fitted transmission dip: center and FWHM in rad/s, depth in
    [0, 1], and the RMS residual of the local Lorentzian fit."""

    center: float
    fwhm: float
    depth: float
    fit_residual: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def _crossing(trans: np.ndarray, level: float, i: int, direction: int) -> int:
    """The sample nearest i in the given direction (-1 or +1), i
    excluded, at or above level; -1 when there is none.  Past i's
    neighbour the search grows outward in doubling chunks, so it reads
    about as many samples as lie between i and the crossing."""
    if 0 <= i + direction < len(trans) and trans[i + direction] >= level:
        return i + direction
    size = 128
    if direction < 0:
        stop = i
        while stop > 0:
            start = max(0, stop - size)
            above = trans[start:stop] >= level
            k = stop - 1 - int(above[::-1].argmax())
            if trans[k] >= level:
                return k
            stop, size = start, 2 * size
    else:
        start, n = i + 1, len(trans)
        while start < n:
            above = trans[start:start + size] >= level
            k = start + int(above.argmax())
            if trans[k] >= level:
                return k
            start, size = start + size, 2 * size
    return -1


def _half_crossings(trans: np.ndarray, i: int) -> tuple[int, int]:
    """The half-depth crossings of sample i: on each side, the sample
    nearest i at or above 0.5 * (1 + T[i]), or -1 where there is none.
    Neither exists when sample i itself is at that level (T[i] >= 1)."""
    low = float(trans[i])
    half_level = 0.5 * (1.0 + low)
    if low >= half_level:
        return -1, -1
    return _crossing(trans, half_level, i, -1), _crossing(trans, half_level, i, 1)


def _naive_half_width(freqs: np.ndarray, trans: np.ndarray, i: int,
                      left: int, right: int) -> float:
    """Distance from sample i to its half-depth crossings left and right
    (see _half_crossings), interpolated to the level, averaged over the
    sides that have one; one grid step when neither does.  The arithmetic
    is on Python floats, the same double operations as on numpy scalars."""
    half_level = 0.5 * (1.0 + float(trans[i]))
    center = float(freqs[i])
    widths = []
    # each crossing j with its neighbour k towards i, below the level
    for j, k in ((left, left + 1), (right, right - 1)):
        if j >= 0:
            tj, tk, fj, fk = float(trans[j]), float(trans[k]), float(freqs[j]), float(freqs[k])
            frac = (half_level - tk) / max(tj - tk, 1e-300)
            widths.append(abs(fk + frac * (fj - fk) - center))
    if not widths:
        return float(freqs[1] - freqs[0])
    return sum(widths) / len(widths)


def _phase_step(phase: np.ndarray, i: int, left: int, right: int) -> bool:
    """Whether the phase steps by at least pi/4 (cos <= cos(pi/4), so
    wrapped) between neighbouring samples or samples two apart, from
    sample left to sample right (the grid's ends where -1).  The steps
    among samples i - 1 to i + 1, where a dip's turn mostly lies and a
    noise dip's span often ends, are tried first, on Python floats."""
    a, b, c = phase[i - 1:i + 2].tolist()
    if min(math.cos(b - a), math.cos(c - b), math.cos(c - a)) <= _COS_PHASE_STEP:
        return True
    if (left, right) == (i - 1, i + 1):
        return False
    span = phase[max(left, 0):right + 1 if right >= 0 else len(phase)]
    steps = np.concatenate((span[1:] - span[:-1], span[2:] - span[:-2]))
    return bool(np.cos(steps).min() <= _COS_PHASE_STEP)


def least_squares(fun, x0, jac) -> OptimizeResult:
    """Levenberg-Marquardt least squares: MINPACK lmder, called through
    scipy's _minpack extension with the arguments scipy.optimize.leastsq
    passes it for ftol = xtol = gtol = 1e-8, maxfev = 100 * n,
    factor = 100 and diag=None (x_scale="jac").  x, cost and nfev
    therefore equal scipy.optimize.least_squares(method="lm",
    x_scale="jac")'s to the bit.  leastsq's shape probe (one extra call
    of fun and of jac) and its covariance matrix are left out.
    TestFitKernel in tests/test_estimate.py compares it bit for bit with
    the public scipy calls, so a scipy release that changes the private
    entry fails there.

    jac returns the Jacobian column-major, shape (n, m), which is
    MINPACK's own layout.  fun returns a float64 array of length m >= n.
    The extension calls it twice at x0, once to size the residual buffer
    and once as MINPACK's first evaluation.  The first array returned
    becomes that buffer, which MINPACK writes into, so fun must neither
    keep nor return it again; every later result is copied into the
    buffer, so fun may return one array it keeps (such as a copy of the
    first) more than once.  Returns x, cost = 0.5 * |f|**2,
    nfev and status, MINPACK's info code (5: the 100 * n evaluations of
    maxfev were used up; the last iterate is returned, without a
    warning).
    """
    # MINPACK iterates in the array it is given and returns it as x
    x = np.array(x0, dtype=float)
    maxfev = 100 * len(x)
    # the argument order scipy's leastsq uses:
    # _lmder(fun, Dfun, x0, args, full_output, col_deriv, ftol, xtol, gtol, maxfev,
    #        factor, diag)
    x, info, status = _minpack._lmder(fun, jac, x, (), 1, 1, 1e-8, 1e-8, 1e-8,
                                      maxfev, 100.0, None)
    fvec = info["fvec"]
    return OptimizeResult(x=x, cost=0.5 * np.dot(fvec, fvec),
                          nfev=int(info["nfev"]), status=int(status))


def _fit_lorentzian_dip(freqs: np.ndarray, trans: np.ndarray,
                        center0: float, half_width0: float,
                        depth0: float) -> tuple[float, float, float, float]:
    """Damped least-squares fit of a Lorentzian dip with a linear width
    gradient,

        T = 1 - d * G(v)**2 / (v**2 + G(v)**2),   G(v) = g0 + g1 * v,

    over the given window; returns (center, fwhm, depth, rms_residual).

    The width gradient absorbs the first-order asymmetry of hybridized
    dips (their effective linewidth varies across the line); a symmetric
    3-parameter fit biases the center by several percent of the FWHM
    there.  For a true Lorentzian g1 fits to zero and the symmetric
    result is recovered exactly.  The Jacobian is analytic; MINPACK asks
    for the residuals and then the Jacobian at the same parameters, so
    both share the terms of the last parameter vector seen.  The repeat
    call at the start point (see least_squares) gets a copy of the first
    call's residuals.  The callbacks take the parameters as Python
    floats, which keeps every product and its order.
    """
    scale = max(half_width0, 1e-300)
    u = (freqs - center0) / scale
    jac = np.empty((4, len(u)))
    last = [None, None]  # parameter bytes, terms
    start = []  # parameter bytes and a copy of the residuals of the first call

    def terms(theta):
        key = theta.tobytes()
        if key != last[0]:
            depth, mu, g0, g1 = theta.tolist()
            v = u - mu
            width = g0 + g1 * v
            v2 = v**2
            w2 = width**2
            last[:] = key, (depth, g0, v, width, v2, w2, v2 + w2)
        return last[1]

    def residuals(theta):
        depth, _, _, _, _, w2, denom = terms(theta)
        if start and last[0] == start[0]:
            return start[1]
        f = 1.0 - depth * w2 / denom - trans
        if not start:
            # MINPACK writes into the first array returned, and scipy's
            # extension asks for the start point twice: the repeat and any
            # later call there get this copy
            start[:] = last[0], f.copy()
        return f

    def jacobian(theta):
        depth, g0, v, width, v2, w2, denom = terms(theta)
        # d/dG of G**2/denom is 2 G v**2/denom**2; moving the center
        # shifts v and G together, which leaves 2 G v g0/denom**2
        common = -2.0 * depth * width * v / denom**2
        np.divide(np.negative(w2, out=jac[0]), denom, out=jac[0])
        np.multiply(common, g0, out=jac[1])
        np.multiply(common, v, out=jac[2])
        np.multiply(common, v2, out=jac[3])
        return jac

    result = least_squares(residuals, [depth0, 0.0, 1.0, 0.0], jac=jacobian)
    depth, mu, g0, g1 = result.x
    rms = math.sqrt(2.0 * result.cost / len(freqs))
    if abs(g1) < 0.95:
        # half-depth crossings sit at g0/(1 -+ g1)
        fwhm = 2.0 * abs(g0) / (1.0 - g1**2)
    else:
        fwhm = 2.0 * abs(g0)
    return (center0 + mu * scale, fwhm * scale, float(depth), rms)


def _fit_window(freqs: np.ndarray, i: int, half_width: float) -> slice:
    """The samples within +-3 half-widths of sample i, or the 7 samples
    around i when fewer lie there.  The grid increases strictly, so
    either is one slice of it."""
    start = int(np.searchsorted(freqs, freqs[i] - 3.0 * half_width, side="left"))
    stop = int(np.searchsorted(freqs, freqs[i] + 3.0 * half_width, side="right"))
    if stop - start < 7:
        return slice(max(0, i - 3), i + 4)
    return slice(start, stop)


def _fit_candidate(spectrum: Spectrum, i: int,
                   depth_threshold: float) -> Union[DipFeature, str]:
    """Fit the candidate minimum at sample i over +-3 naive half-widths
    (at least 7 samples) when the phase steps between its half-depth
    crossings (see _phase_step); its fit is the feature, or why it was not
    fitted, breaks the DipFeature contract or lies below depth_threshold."""
    freqs, trans = spectrum.freqs, spectrum.transmission
    left, right = _half_crossings(trans, i)
    if not _phase_step(spectrum.phase, i, left, right):
        return _REJECT_REASONS[0]
    half_width = _naive_half_width(freqs, trans, i, left, right)
    window = _fit_window(freqs, i, half_width)
    wf = freqs[window]
    center, fwhm, depth, rms = _fit_lorentzian_dip(
        wf, trans[window], float(freqs[i]), half_width, 1.0 - float(trans[i]),
    )
    if not all(math.isfinite(x) for x in (center, fwhm, depth, rms)):
        return _REJECT_REASONS[1]
    if depth < depth_threshold:
        return _REJECT_REASONS[2]
    if depth > 1.0 + 2.0 * rms:
        return _REJECT_REASONS[3]
    if fwhm < 0.5 * spectrum.grid_step:
        return _REJECT_REASONS[4]
    if not wf[0] <= center <= wf[-1]:
        return _REJECT_REASONS[5]
    return DipFeature(center=center, fwhm=fwhm, depth=min(depth, 1.0), fit_residual=rms)


def _clusters(trans: np.ndarray,
              members: list[tuple[int, float]]) -> list[list[tuple[int, float]]]:
    """The candidate minima, (sample index, T) pairs in increasing sample
    order, split into clusters: consecutive candidates i < j share one
    when T[i..j] stays below 0.5 * (1 + max(T[i], T[j])), the half-depth
    level of the shallower one.  Such minima are not two dips resolved at
    half maximum; the noise clipped to T = 0 at a dip bottom makes them."""
    if not members:
        return []
    # max(T[i:j]) for each consecutive pair; T[j] is below the level anyway
    highs = np.maximum.reduceat(trans, [i for i, _ in members]).tolist()
    clusters = [members[:1]]
    for (_, low_i), member, high in zip(members, members[1:], highs):
        if high < 0.5 * (1.0 + max(low_i, member[1])):
            clusters[-1].append(member)
        else:
            clusters.append([member])
    return clusters


def _lowest_member(cluster: list[tuple[int, float]]) -> int:
    """The cluster's sample of lowest T; of a tied run (a clipped bottom),
    the middle one by position, the lower of two as find_peaks takes the
    middle of a plateau."""
    low = min(t for _, t in cluster)
    tied = [i for i, t in cluster if t == low]
    return tied[(len(tied) - 1) // 2]


def _scan(spectrum: Spectrum, depth_threshold: float) -> tuple[list[DipFeature], list[str]]:
    """The in-contract dips of fitted depth >= depth_threshold, sorted by
    center, and one note counting the clusters gated or rejected, if any.
    One prominence scan at depth_threshold finds the candidates; each
    cluster of them (see _clusters) with a phase step is fitted once,
    from its lowest sample.  A prominence never exceeds 1 - T, so every
    candidate is at least depth_threshold deep, but its fit may not be."""
    if not 0.0 < depth_threshold < 1.0:
        raise ValueError("depth_threshold must be in (0, 1)")
    trans = spectrum.transmission
    indices, _ = find_peaks(-trans, prominence=depth_threshold)
    members = list(zip(indices.tolist(), trans[indices].tolist()))
    fits = [_fit_candidate(spectrum, _lowest_member(cluster), depth_threshold)
            for cluster in _clusters(trans, members)]
    dips = sorted((fit for fit in fits if isinstance(fit, DipFeature)), key=lambda d: d.center)
    rejected = Counter(fit for fit in fits if isinstance(fit, str))
    if not rejected:
        return dips, []
    reasons = ", ".join(f"{rejected[r]} {r}" for r in _REJECT_REASONS if r in rejected)
    return dips, [f"{len(fits) - len(dips)} of {len(fits)} dip fits rejected ({reasons})"]


def detect_dips(spectrum: Spectrum, depth_threshold: float = _DEPTH_THRESHOLD) -> list[DipFeature]:
    """Locate transmission dips of depth >= depth_threshold and refine
    each by a local Lorentzian fit.

    Candidate minima come from a scan at a prominence of depth_threshold
    and are grouped into clusters, consecutive ones sharing a cluster
    while T between them stays below the half-depth level of the
    shallower, 0.5 * (1 + max(T[i], T[j])).  A cluster is fit once, over
    a window of +-3 naive half-widths around its lowest sample (the
    middle one of a tied run), and only when the phase turns there (the
    phase gate of the module doc).  A fit depth up to twice the RMS
    residual above 1 is reported as 1.0, and fits with a depth below
    depth_threshold (the fit can find a candidate shallower than its
    prominence), a larger overshoot, a FWHM below half a grid step or a
    center outside the window are dropped; every other fit is returned.
    Returns features sorted by center; empty list when nothing crosses
    the threshold.
    """
    return _scan(spectrum, depth_threshold)[0]


def _local_maxima(values: np.ndarray) -> list[int]:
    """Interior samples no lower than either neighbour and higher than at
    least one: each edge of a flat top counts, its inside does not."""
    mid, left, right = values[1:-1], values[:-2], values[2:]
    peak = (mid >= left) & (mid >= right) & ((mid > left) | (mid > right))
    return (np.flatnonzero(peak) + 1).tolist()


def _unity_points(spectrum: Spectrum, tol: float, dips: list[DipFeature]) -> list[float]:
    """detect_unity_points with the spectrum's dips already detected; the
    outer dips are those of depth >= 0.5."""
    trans = spectrum.transmission
    phase = spectrum.phase
    freqs = spectrum.freqs
    peaks = np.array(_local_maxima(trans), dtype=np.intp)
    i = peaks[(trans[peaks] >= 1.0 - tol) & (np.abs(phase[peaks]) <= tol)]
    points = freqs[i]
    # parabolic vertex through the three samples around each maximum
    denom = trans[i - 1] - 2.0 * trans[i] + trans[i + 1]
    curved = denom < 0
    i = i[curved]
    step = freqs[i + 1] - freqs[i]
    points[curved] += 0.5 * (trans[i - 1] - trans[i + 1]) / denom[curved] * step
    outer = [d.center for d in dips if d.depth >= _OUTER_DIP_DEPTH]
    if len(outer) >= 2:
        points = points[(outer[0] < points) & (points < outer[-1])]
    return np.sort(points).tolist()


def detect_unity_points(spectrum: Spectrum, tol: float = _UNITY_TOL) -> list[float]:
    """Frequencies where the probe passes completely: local maxima with
    T >= 1 - tol and |phase| <= tol, refined by parabolic interpolation.

    When detect_dips finds two or more dips of depth >= 0.5, only points
    strictly between the outermost of their centers are reported; this
    drops the trivial far-detuned transparency of every scatterer.
    """
    return _observe(spectrum, _DEPTH_THRESHOLD, tol)[1]


def _observe(spectrum: Spectrum, depth_threshold: float,
             unity_tol: float) -> tuple[list[DipFeature], list[float], list[str]]:
    """One scan of the spectrum: the dips of depth >= depth_threshold,
    the full-transmission points between the outer ones of depth >= 0.5,
    and the notes counting rejected fits."""
    if not 0.0 < unity_tol < 0.1:
        raise ValueError("tol must be in (0, 0.1)")
    dips, notes = _scan(spectrum, depth_threshold)
    return dips, _unity_points(spectrum, unity_tol, dips), notes


def _decide(spectrum: Spectrum, dips: list[DipFeature], unity: list[float],
            reference_omega0: Optional[Frequency],
            dispersive: bool) -> tuple[ModelClass, list[DipFeature], list[str]]:
    """The classification rule: the class, the deepest two dips sorted by
    center that it rests on, and the notes that explain it.

    Two dips with a full-transmission point between them mean the
    mechanical mode is quantized; two without one are ambiguous.  A
    single dip needs reference_omega0: it is a dispersive phonon readout
    when dispersive, the bare scatterer when it sits within
    max(FWHM/2, grid step) of the reference, and a classical drive
    otherwise.
    """
    pair = sorted(dips, key=lambda d: d.depth, reverse=True)[:2]
    pair.sort(key=lambda d: d.center)
    notes = []
    if len(dips) > 2:
        notes.append(f"{len(dips)} dips detected; classification used the deepest two")
    if not pair:
        return ModelClass.NO_FEATURES, pair, notes
    if len(pair) == 2:
        if any(pair[0].center < u < pair[1].center for u in unity):
            return ModelClass.QUANTUM_NMR, pair, notes
        notes.append("two dips but no transparency window between them")
        return ModelClass.AMBIGUOUS, pair, notes
    if reference_omega0 is None:
        notes.append(
            "dispersive readout needs reference_omega0" if dispersive
            else "single dip: supply reference_omega0 to separate 'no mechanics' "
            "from 'classical drive'"
        )
        return ModelClass.AMBIGUOUS, pair, notes
    if dispersive:
        return ModelClass.DISPERSIVE, pair, notes
    dip = pair[0]
    if abs(dip.center - reference_omega0) <= max(0.5 * dip.fwhm, spectrum.grid_step):
        return ModelClass.NO_NMR, pair, notes
    return ModelClass.CLASSICAL_NMR, pair, notes


def classify(spectrum: Spectrum, reference_omega0: Optional[Frequency] = None,
             depth_threshold: float = 0.5,
             unity_tol: float = _UNITY_TOL) -> ModelClass:
    """Classify the mechanical vibration from the dip/window structure.

    This is the raising form of the rule estimate_report applies: two
    dips with a full-transmission point between them mean the mechanical
    mode is quantized; a single dip is the bare scatterer when it sits on
    reference_omega0 and classically driven when shifted from it.  Where
    that report would be ambiguous or find no dips, or where more than
    two dips pass depth_threshold, AmbiguousClassificationError carries
    the class and the report's notes.
    """
    dips, unity, _ = _observe(spectrum, depth_threshold, unity_tol)
    model_class, pair, notes = _decide(spectrum, dips, unity, reference_omega0, False)
    if model_class in (ModelClass.AMBIGUOUS, ModelClass.NO_FEATURES) or len(dips) > len(pair):
        raise AmbiguousClassificationError("; ".join([model_class.value, *notes]))
    return model_class


def _root(radicand: float, var_radicand: float, message: str) -> Estimate:
    """g = sqrt(radicand) with first-order propagation of var_radicand;
    at g = 0 the sigma is var_radicand**0.25.  Raises
    InconsistentFeaturesError(message) for a negative radicand."""
    if radicand < 0:
        raise InconsistentFeaturesError(message)
    g = math.sqrt(radicand)
    sigma = math.sqrt(var_radicand) / (2.0 * g) if g > 0 else var_radicand**0.25
    return Estimate(g, sigma)


def _splitting_inverse(split: float, mismatch: float,
                       var_split: float, var_mismatch: float) -> Estimate:
    """g = sqrt(split**2 - mismatch**2)/2 with first-order propagation."""
    root = _root(
        split**2 - mismatch**2,
        4.0 * split**2 * var_split + 4.0 * mismatch**2 * var_mismatch,
        f"dip splitting {split:.6g} below the frequency mismatch "
        f"{abs(mismatch):.6g}: no coupling reproduces these features",
    )
    # halving is exact, so value and sigma keep their bits
    return Estimate(0.5 * root.value, 0.5 * root.sigma)


def qnmr_coupling_from_dips(omega_plus: Frequency, omega_minus: Frequency,
                            omega0: Frequency, omega_b: Frequency,
                            sigma_plus: float = 0.0, sigma_minus: float = 0.0,
                            sigma_omega0: float = 0.0,
                            sigma_omega_b: float = 0.0) -> Estimate:
    """Mechanical coupling from the two dip centers of the qubit-QNMR
    spectrum: g = sqrt((w+ - w-)**2 - (omega0 - omega_b)**2) / 2."""
    return _splitting_inverse(
        omega_plus - omega_minus,
        omega0 - omega_b,
        sigma_plus**2 + sigma_minus**2,
        sigma_omega0**2 + sigma_omega_b**2,
    )


def stlr_coupling_from_dips(omega_plus: Frequency, omega_minus: Frequency,
                            omega0: Frequency, omega_r: Frequency,
                            sigma_plus: float = 0.0, sigma_minus: float = 0.0,
                            sigma_omega0: float = 0.0,
                            sigma_omega_r: float = 0.0) -> Estimate:
    """Resonator-qubit coupling from the Rabi-split dip pair:
    g = sqrt((w+ - w-)**2 - (omega0 - omega_r)**2) / 2."""
    return _splitting_inverse(
        omega_plus - omega_minus,
        omega0 - omega_r,
        sigma_plus**2 + sigma_minus**2,
        sigma_omega0**2 + sigma_omega_r**2,
    )


def cnmr_coupling_from_shift(omega_shifted: Frequency, omega0: Frequency,
                             omega_b: Frequency, sigma_shifted: float = 0.0,
                             sigma_omega0: float = 0.0,
                             sigma_omega_b: float = 0.0) -> Estimate:
    """Classical-drive coupling from the dressed dip position:
    g = sqrt(omega_shifted**2 - ((omega0 + omega_b)/2)**2)."""
    mid = 0.5 * (omega0 + omega_b)
    var_mid = 0.25 * (sigma_omega0**2 + sigma_omega_b**2)
    return _root(
        omega_shifted**2 - mid**2,
        4.0 * omega_shifted**2 * sigma_shifted**2 + 4.0 * mid**2 * var_mid,
        f"shifted dip {omega_shifted:.6g} below the mean frequency "
        f"{mid:.6g}: no classical coupling reproduces it",
    )


def nmr_frequency_from_windows(omega_upper: Frequency, omega_lower: Frequency,
                               omega0: Frequency, sigma_upper: float = 0.0,
                               sigma_lower: float = 0.0,
                               sigma_omega0: float = 0.0) -> Estimate:
    """Mechanical frequency from the two transparency windows of the
    resonator-qubit-QNMR spectrum: omega_b = w+ + w- - omega0."""
    value = omega_upper + omega_lower - omega0
    sigma = math.sqrt(sigma_upper**2 + sigma_lower**2 + sigma_omega0**2)
    return Estimate(value, sigma)


def qnmr_coupling_from_windows(omega_upper: Frequency, omega_lower: Frequency,
                               omega0: Frequency, sigma_upper: float = 0.0,
                               sigma_lower: float = 0.0,
                               sigma_omega0: float = 0.0) -> Estimate:
    """Mechanical coupling from the transparency windows:
    g = sqrt(omega0 (w+ + w-) - omega0**2 - w+ w-)."""
    return _root(
        omega0 * (omega_upper + omega_lower) - omega0**2 - omega_upper * omega_lower,
        (omega0 - omega_lower) ** 2 * sigma_upper**2
        + (omega0 - omega_upper) ** 2 * sigma_lower**2
        + (omega_upper + omega_lower - 2.0 * omega0) ** 2 * sigma_omega0**2,
        "transparency windows inconsistent with any mechanical coupling",
    )


@dataclass(frozen=True)
class PhononCount:
    """An integer phonon number and the dimensionless distance of the dip
    from that rung, in units of the per-phonon spacing."""

    n: int
    residual: float


def phonon_number_from_dip(dip_center: Frequency, omega0: Frequency,
                           g_q: Frequency, delta: Frequency) -> PhononCount:
    """Phonon number whose dispersive dip sits at dip_center.

    Inverts dip = omega0 + (g_q**2/delta)(n + 1/2) and rounds to the
    nearest rung; raises OffLadderError when the dip lands more than a
    quarter spacing from every rung or implies a negative count.
    """
    if g_q == 0:
        raise ValueError("phonon readout needs g_q != 0")
    if delta == 0:
        raise ValueError("phonon readout needs a nonzero detuning")
    spacing = g_q**2 / delta
    rungs = (dip_center - omega0 - 0.5 * spacing) / spacing
    n = round(rungs)
    residual = abs(rungs - n)
    if residual > 0.25:
        raise OffLadderError(
            f"dip at {dip_center:.6g} sits {residual:.3f} spacings from the "
            "nearest phonon rung"
        )
    if n < 0:
        raise OffLadderError(f"dip at {dip_center:.6g} implies {n} phonons")
    return PhononCount(n=int(n), residual=float(residual))


def add_measurement_noise(spectrum: Spectrum, sigma: float, seed: int) -> Spectrum:
    """Gaussian measurement noise on transmission (clamped to [0, 1]) and
    small-angle noise of the same scale on phase; deterministic per seed.
    The complex amplitude is dropped because it no longer exists
    consistently.  sigma must be finite and >= 0, and small enough that
    no draw overflows to infinity; sigma = 0 returns the spectrum
    unchanged."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return spectrum
    rng = np.random.default_rng(seed)
    n = spectrum.n_points
    trans = rng.normal(0.0, sigma, n)
    trans += spectrum.transmission
    phase = rng.normal(0.0, sigma, n)
    phase += spectrum.phase
    phase += np.pi
    # a draw beyond the float range is infinite and would wrap to NaN;
    # min and max are infinite when any value is
    low, high = phase.min(), phase.max()
    if not (math.isfinite(low) and math.isfinite(high)
            and math.isfinite(trans.min()) and math.isfinite(trans.max())):
        raise ValueError(f"sigma {sigma} is too large: a noise draw overflowed to infinity")
    np.clip(trans, 0.0, 1.0, out=trans)
    # wrap to [0, 2 pi); np.mod is the identity on samples already there
    if low < 0.0 or high >= 2.0 * np.pi:
        outside = phase >= 2.0 * np.pi
        outside |= phase < 0.0
        phase[outside] = np.mod(phase[outside], 2.0 * np.pi)
    phase -= np.pi
    return Spectrum._adopt(spectrum.freqs, trans, phase, route="noise")


@dataclass(frozen=True)
class EstimationReport:
    """Everything recovered from one spectrum: the vibration class, the
    inverted frequencies/couplings with uncertainties, and the raw
    detected features."""

    model_class: ModelClass
    omega0_est: Optional[Estimate] = None
    omega_b_est: Optional[Estimate] = None
    g_est: Optional[Estimate] = None
    phonon_n_est: Optional[int] = None
    phonon_residual: Optional[float] = None
    amplitude_est: Optional[Estimate] = None
    dips: tuple[DipFeature, ...] = ()
    unity_points: tuple[float, ...] = ()
    grid_step: float = 0.0
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Each field under its own name, an Estimate as its dict; the
        dips and full-transmission points nest under raw_features."""
        document = {name: value.to_dict() if isinstance(value, Estimate) else value
                    for name, value in vars(self).items()}
        dips, unity = document.pop("dips"), document.pop("unity_points")
        document.update(model_class=self.model_class.value, notes=list(self.notes),
                        raw_features={"dips": [d.to_dict() for d in dips],
                                      "unity_points": list(unity)})
        return document


def _floored(est: Estimate, floor: float) -> Estimate:
    return Estimate(est.value, max(est.sigma, floor))


def estimate_report(spectrum: Spectrum,
                    reference_omega0: Optional[Frequency] = None,
                    reference_omega_b: Optional[Frequency] = None,
                    reference_g_q: Optional[Frequency] = None,
                    reference_delta: Optional[Frequency] = None,
                    field: Optional[float] = None,
                    persistent_current: Optional[float] = None,
                    nmr_length: Optional[float] = None,
                    depth_threshold: float = _DEPTH_THRESHOLD,
                    unity_tol: float = _UNITY_TOL) -> EstimationReport:
    """Full estimation pipeline for spectra taken on the qubit-scattering
    configurations.

    Detects features, classifies the vibration by the rule classify also
    applies, and inverts whatever the class allows: two dips plus a window
    give the mechanical frequency, the qubit frequency and the coupling; a
    single shifted dip gives the classical coupling (needs
    reference_omega0 and reference_omega_b) and the vibration amplitude
    when field, persistent_current and nmr_length are supplied; with
    reference_g_q and reference_delta a single dip is read as a
    dispersive phonon-number measurement.  A hint given without its
    partners is ignored, and a note names the missing ones.  When more dips
    survive thresholding than the deepest two, the extras are reported in
    raw features only and the classification proceeds on the deepest two.
    """
    all_dips, unity, notes = _observe(spectrum, depth_threshold, unity_tol)
    model_class, working, decision_notes = _decide(
        spectrum, all_dips, unity, reference_omega0,
        dispersive=reference_g_q is not None and reference_delta is not None,
    )
    notes += decision_notes
    step = spectrum.grid_step
    floor = 0.5 * step
    found = {}

    if model_class is ModelClass.QUANTUM_NMR:
        low, high = working
        points = np.array(unity)
        between = points[(low.center < points) & (points < high.center)]
        # under noise several near-unity samples qualify; the phase zero
        # crossing is steep there, so the smallest |phase| picks best
        # (argmin takes the first of equal ones)
        window = between[np.argmin(np.abs(np.interp(between, spectrum.freqs, spectrum.phase)))]
        omega_b = Estimate(float(window), step)
        sig_lo, sig_hi = 0.5 * low.fwhm, 0.5 * high.fwhm
        if reference_omega0 is not None:
            omega0 = Estimate(float(reference_omega0), 0.0)
        else:
            omega0 = Estimate(
                low.center + high.center - omega_b.value,
                math.sqrt(sig_lo**2 + sig_hi**2 + omega_b.sigma**2),
            )
        g = qnmr_coupling_from_dips(
            high.center, low.center, omega0.value, omega_b.value,
            sigma_plus=sig_hi, sigma_minus=sig_lo,
            sigma_omega0=omega0.sigma, sigma_omega_b=omega_b.sigma,
        )
        found = dict(omega0_est=_floored(omega0, floor),
                     omega_b_est=_floored(omega_b, floor),
                     g_est=_floored(g, floor))
    elif model_class is ModelClass.DISPERSIVE:
        count = phonon_number_from_dip(working[0].center, reference_omega0,
                                       reference_g_q, reference_delta)
        found = dict(omega0_est=Estimate(float(reference_omega0), floor),
                     phonon_n_est=count.n, phonon_residual=count.residual)
    elif model_class is ModelClass.NO_NMR:
        dip = working[0]
        found = dict(omega0_est=_floored(Estimate(dip.center, 0.5 * dip.fwhm), floor))
    elif model_class is ModelClass.CLASSICAL_NMR:
        shifted = _floored(Estimate(working[0].center, 0.5 * working[0].fwhm), floor)
        if reference_omega_b is not None:
            g = _floored(
                cnmr_coupling_from_shift(shifted.value, reference_omega0, reference_omega_b,
                                         sigma_shifted=shifted.sigma),
                floor,
            )
            found = dict(omega_b_est=Estimate(float(reference_omega_b), floor), g_est=g)
            if field is not None and persistent_current is not None and nmr_length is not None:
                value = classical_amplitude(g.value, field, persistent_current, nmr_length)
                found["amplitude_est"] = Estimate(
                    value, value * g.sigma / g.value if g.value else 0.0)
        else:
            notes.append("classical coupling needs reference_omega_b")
    for use, hints in (
        ("a dispersive reading", dict(reference_g_q=reference_g_q,
                                      reference_delta=reference_delta)),
        ("a vibration amplitude", dict(field=field, persistent_current=persistent_current,
                                       nmr_length=nmr_length)),
    ):
        missing = [name for name, value in hints.items() if value is None]
        if 0 < len(missing) < len(hints):
            given = [name for name in hints if name not in missing]
            notes.append(f"{' and '.join(given)} ignored: {use} needs "
                         f"{' and '.join(missing)} too")
    return EstimationReport(
        model_class=model_class,
        dips=tuple(all_dips),
        unity_points=tuple(unity),
        grid_step=step,
        notes=tuple(notes),
        **found,
    )


__all__ = [
    "AmbiguousClassificationError",
    "DipFeature",
    "Estimate",
    "EstimationReport",
    "InconsistentFeaturesError",
    "ModelClass",
    "OffLadderError",
    "PhononCount",
    "add_measurement_noise",
    "classify",
    "cnmr_coupling_from_shift",
    "detect_dips",
    "detect_unity_points",
    "estimate_report",
    "nmr_frequency_from_windows",
    "phonon_number_from_dip",
    "qnmr_coupling_from_dips",
    "qnmr_coupling_from_windows",
    "stlr_coupling_from_dips",
]
