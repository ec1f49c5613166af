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
The reported dips and the outer dips that bound the full-transmission
search are both selected from that one scan, and a cluster both select
is fitted once.

One rule (_decide) maps those dips and points to a vibration class:
estimate_report applies it and inverts what the class allows, and
classify is its raising form.

Noise gate: a dip candidate needs a prominence of at least
max(depth_threshold, 6 * sigma_noise), where sigma_noise is the median
absolute deviation of the spectrum's first differences scaled to a
Gaussian sigma.  On noise-free spectra 6 * sigma_noise stays near 0.02
even at 401 points, so clean detection is unchanged; under noise the
gate keeps single-sample wiggles from being fitted as dips.

Fit contract: every reported DipFeature has depth in [0, 1], a FWHM of
at least half a grid step and a center inside its fit window.  A fitted
depth above 1 by at most twice the fit's RMS residual (model mismatch
and noise: clean hybridized dips overshoot by ~0.3-1.4 %) is reported
as 1.0.  Any other violation rejects the fit; the report's notes count
the rejected fits by reason.

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

# a dip candidate must be this many noise sigmas prominent (see _noise_sigma)
_NOISE_GATE = 6.0
# depth of the dips whose outermost pair bounds the full-transmission search
_OUTER_DIP_DEPTH = 0.5
# MAD of the differences of white noise of sigma s is s * sqrt(2) * 0.67449
_MAD_TO_SIGMA = 1.0 / (0.6744897501960817 * math.sqrt(2.0))
# leastsq's default epsfcn for float64 residuals
_EPS = float(np.finfo(float).eps)
# rejection reasons, in the order the report notes list them
_REJECT_REASONS = (
    "fit did not produce finite values",
    "depth not above 0",
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
        return {"value": self.value, "sigma": self.sigma}


@dataclass(frozen=True)
class DipFeature:
    """One fitted transmission dip: center and FWHM in rad/s, depth in
    [0, 1], and the RMS residual of the local Lorentzian fit."""

    center: float
    fwhm: float
    depth: float
    fit_residual: float

    def to_dict(self) -> dict:
        return {
            "center": self.center,
            "fwhm": self.fwhm,
            "depth": self.depth,
            "fit_residual": self.fit_residual,
        }


def _noise_sigma(trans: np.ndarray) -> float:
    """Robust white-noise sigma of the transmission: the median absolute
    deviation of the first differences, scaled to a Gaussian sigma.  A
    smooth spectrum changes little between most neighbouring samples, so
    its dips do not inflate the estimate."""
    diffs = np.diff(trans)
    return _MAD_TO_SIGMA * float(np.median(np.abs(diffs - np.median(diffs))))


def _naive_half_width(freqs: np.ndarray, trans: np.ndarray, i: int) -> float:
    """Distance from sample i to the half-depth crossings, averaged over
    the sides where a crossing exists.  The crossing on each side is the
    sample nearest i at or above the half level; none exists when sample
    i itself is (T[i] >= 1)."""
    half_level = 0.5 * (1.0 + trans[i])
    widths = []
    above = np.flatnonzero(trans[:i + 1] >= half_level)
    if above.size and above[-1] < i:
        j = above[-1]
        frac = (half_level - trans[j + 1]) / max(trans[j] - trans[j + 1], 1e-300)
        widths.append(freqs[i] - (freqs[j + 1] - frac * (freqs[j + 1] - freqs[j])))
    above = np.flatnonzero(trans[i:] >= half_level)
    if above.size and above[0] > 0:
        j = i + above[0]
        frac = (half_level - trans[j - 1]) / max(trans[j] - trans[j - 1], 1e-300)
        widths.append((freqs[j - 1] + frac * (freqs[j] - freqs[j - 1])) - freqs[i])
    if not widths:
        return float(freqs[1] - freqs[0])
    return float(sum(widths) / len(widths))


def least_squares(fun, x0, jac=None, method="lm") -> OptimizeResult:
    """Levenberg-Marquardt least squares: MINPACK lmder, or lmdif when jac
    is None, called through scipy's _minpack extension with the arguments
    scipy.optimize.leastsq passes it for ftol = xtol = gtol = 1e-8,
    maxfev = 100 * n, factor = 100 and diag=None (x_scale="jac").  With
    an analytic jac, x, cost and nfev therefore equal
    scipy.optimize.least_squares(method="lm", x_scale="jac")'s to the
    bit.  leastsq's shape probe (one extra call of fun and of jac) and its
    covariance matrix are left out.  TestFitKernel in
    tests/test_estimate.py compares both branches bit for bit with the
    public scipy calls, so a scipy release that changes the private entry
    fails there.

    jac returns the Jacobian column-major, shape (n, m), which is
    MINPACK's own layout; lmdif differences forward with leastsq's
    default epsfcn, the float64 machine epsilon.  fun must return a new
    float64 array of length m >= n on every call: MINPACK keeps one
    returned array as its residual buffer and writes into it.  Returns x,
    cost = 0.5 * |f|**2, nfev and status, MINPACK's info code (5: the
    100 * n evaluations of maxfev were used up; the last iterate is
    returned, without a warning).
    """
    if method != "lm":
        raise ValueError(f"method must be 'lm', got {method!r}")
    # MINPACK iterates in the array it is given and returns it as x
    x = np.array(x0, dtype=float)
    maxfev = 100 * len(x)
    # the argument orders scipy's leastsq uses:
    # _lmdif(fun, x0, args, full_output, ftol, xtol, gtol, maxfev, epsfcn, factor, diag)
    # _lmder(fun, Dfun, x0, args, full_output, col_deriv, ftol, xtol, gtol, maxfev,
    #        factor, diag)
    if jac is None:
        x, info, status = _minpack._lmdif(fun, x, (), 1, 1e-8, 1e-8, 1e-8, maxfev,
                                          _EPS, 100.0, None)
    else:
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
    both share the terms of the last parameter vector seen.
    """
    scale = max(half_width0, 1e-300)
    u = (freqs - center0) / scale
    jac = np.empty((4, len(u)))
    last = [None, None]  # parameter bytes, terms

    def terms(theta):
        key = theta.tobytes()
        if key != last[0]:
            v = u - theta[1]
            width = theta[2] + theta[3] * v
            v2 = v**2
            w2 = width**2
            last[:] = key, (v, width, v2, w2, v2 + w2)
        return last[1]

    def residuals(theta):
        _, _, _, w2, denom = terms(theta)
        return 1.0 - theta[0] * w2 / denom - trans

    def jacobian(theta):
        v, width, v2, w2, denom = terms(theta)
        # d/dG of G**2/denom is 2 G v**2/denom**2; moving the center
        # shifts v and G together, which leaves 2 G v g0/denom**2
        common = -2.0 * theta[0] * width * v / denom**2
        np.divide(np.negative(w2, out=jac[0]), denom, out=jac[0])
        np.multiply(common, theta[2], out=jac[1])
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


@dataclass(frozen=True)
class _ClusterFit:
    fitted_depth: float  # before the clamp to 1; ranks merged fits
    fit: Union[DipFeature, str]  # the fitted dip, or why it was rejected


def _fit_window(freqs: np.ndarray, i: int, half_width: float) -> slice:
    """The samples within +-3 half-widths of sample i, or the 7 samples
    around i when fewer lie there.  The grid increases strictly, so
    either is one slice of it."""
    start = int(np.searchsorted(freqs, freqs[i] - 3.0 * half_width, side="left"))
    stop = int(np.searchsorted(freqs, freqs[i] + 3.0 * half_width, side="right"))
    if stop - start < 7:
        return slice(max(0, i - 3), i + 4)
    return slice(start, stop)


def _fit_candidate(freqs: np.ndarray, trans: np.ndarray, i: int,
                   step: float) -> _ClusterFit:
    """Fit the candidate minimum at sample i over +-3 naive half-widths
    (at least 7 samples); its fit is the feature, or why the fit breaks
    the DipFeature contract."""
    half_width = _naive_half_width(freqs, trans, i)
    window = _fit_window(freqs, i, half_width)
    wf = freqs[window]
    center, fwhm, depth, rms = _fit_lorentzian_dip(
        wf, trans[window], float(freqs[i]), half_width, 1.0 - float(trans[i]),
    )
    if not all(math.isfinite(x) for x in (center, fwhm, depth, rms)):
        fit = _REJECT_REASONS[0]
    elif depth <= 0.0:
        fit = _REJECT_REASONS[1]
    elif depth > 1.0 + 2.0 * rms:
        fit = _REJECT_REASONS[2]
    elif fwhm < 0.5 * step:
        fit = _REJECT_REASONS[3]
    elif not wf[0] <= center <= wf[-1]:
        fit = _REJECT_REASONS[4]
    else:
        fit = DipFeature(center=center, fwhm=fwhm, depth=min(depth, 1.0),
                         fit_residual=rms)
    return _ClusterFit(depth, fit)


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


def _merge_close(fits: list[_ClusterFit]) -> list[DipFeature]:
    """The fitted features sorted by center, with features closer than
    half a width collapsed: noise can seed clusters apart inside one dip,
    and their fits land on the same center.  The deeper (then
    better-fitting) fit is kept."""
    merged: list[_ClusterFit] = []
    for c in sorted(fits, key=lambda c: c.fit.center):
        if merged and abs(c.fit.center - merged[-1].fit.center) < 0.5 * max(
            c.fit.fwhm, merged[-1].fit.fwhm
        ):
            if (c.fitted_depth, -c.fit.fit_residual) > (
                merged[-1].fitted_depth, -merged[-1].fit.fit_residual
            ):
                merged[-1] = c
        else:
            merged.append(c)
    return [c.fit for c in merged]


class _DipScan:
    """Every dip candidate of a spectrum down to the lowest of the given
    depth thresholds, found by one prominence scan.  select(t) clusters
    the candidates that pass t (see _clusters) and fits each cluster once,
    from its lowest sample; fits are kept by sample index, so a cluster
    that several thresholds select is fitted once.  find_peaks
    prominences do not depend on the threshold asked for, so select(t)
    for any given t returns exactly what a scan at t alone would."""

    def __init__(self, spectrum: Spectrum, *depth_thresholds: float) -> None:
        if not all(0.0 < t < 1.0 for t in depth_thresholds):
            raise ValueError("depth_threshold must be in (0, 1)")
        self._trans = trans = spectrum.transmission
        self._freqs = spectrum.freqs
        self._step = spectrum.grid_step
        self.gate = _NOISE_GATE * _noise_sigma(trans)
        indices, props = find_peaks(-trans, prominence=max(min(depth_thresholds), self.gate))
        # (sample index, prominence, T) of each candidate
        self._candidates = list(zip(indices.tolist(), props["prominences"].tolist(),
                                    trans[indices].tolist()))
        self._fits: dict[int, _ClusterFit] = {}

    def _fit(self, i: int) -> _ClusterFit:
        if i not in self._fits:
            self._fits[i] = _fit_candidate(self._freqs, self._trans, i, self._step)
        return self._fits[i]

    def select(self, depth_threshold: float) -> list[DipFeature]:
        """The merged, in-contract dips of depth >= depth_threshold."""
        prominence = max(depth_threshold, self.gate)
        passing = [(i, low) for i, p, low in self._candidates
                   if p >= prominence and 1.0 - low >= depth_threshold]
        fits = [self._fit(_lowest_member(cluster))
                for cluster in _clusters(self._trans, passing)]
        return _merge_close([c for c in fits if isinstance(c.fit, DipFeature)])

    def rejection_notes(self) -> list[str]:
        """One deterministic note counting the rejected fits of the
        selections made so far, if any."""
        rejected = Counter(c.fit for c in self._fits.values() if isinstance(c.fit, str))
        if not rejected:
            return []
        reasons = ", ".join(f"{rejected[r]} {r}" for r in _REJECT_REASONS if r in rejected)
        total = sum(rejected.values())
        return [f"{total} of {len(self._fits)} dip fits rejected ({reasons})"]


def detect_dips(spectrum: Spectrum, depth_threshold: float = 0.1) -> list[DipFeature]:
    """Locate transmission dips of depth >= depth_threshold and refine
    each by a local Lorentzian fit.

    Candidate minima come from a prominence scan (so noise wiggles inside
    one dip do not multiply) with the noise gate of the module doc: the
    prominence needed is max(depth_threshold, 6 * sigma_noise).  The
    candidates are grouped into clusters, consecutive ones sharing a
    cluster while T between them stays below the half-depth level of the
    shallower, 0.5 * (1 + max(T[i], T[j])).  Each cluster is fit once,
    over a window of +-3 naive half-widths around its lowest sample (the
    middle one of a tied run).  A fit depth up to twice the RMS residual
    above 1 is reported as 1.0, and fits with depth <= 0, a larger
    overshoot, a FWHM below half a grid step or a center outside the
    window are dropped.
    Returns features sorted by center; empty list when nothing crosses
    the threshold.
    """
    return _DipScan(spectrum, depth_threshold).select(depth_threshold)


def _local_maxima(values: np.ndarray) -> list[int]:
    """Interior samples no lower than either neighbour and higher than at
    least one: each edge of a flat top counts, its inside does not."""
    mid, left, right = values[1:-1], values[:-2], values[2:]
    peak = (mid >= left) & (mid >= right) & ((mid > left) | (mid > right))
    return (np.flatnonzero(peak) + 1).tolist()


def _unity_points(spectrum: Spectrum, tol: float,
                  outer_dips: list[DipFeature]) -> list[float]:
    """detect_unity_points with the depth-0.5 dips already detected."""
    if not 0.0 < tol < 0.1:
        raise ValueError("tol must be in (0, 0.1)")
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
    if len(outer_dips) >= 2:
        points = points[(outer_dips[0].center < points) & (points < outer_dips[-1].center)]
    return np.sort(points).tolist()


def detect_unity_points(spectrum: Spectrum, tol: float = 0.01) -> list[float]:
    """Frequencies where the probe passes completely: local maxima with
    T >= 1 - tol and |phase| <= tol, refined by parabolic interpolation.

    When the spectrum shows two or more dips (depth >= 0.5) only points
    strictly between the outermost dip centers are reported; this drops
    the trivial far-detuned transparency of every scatterer.
    """
    return _unity_points(spectrum, tol, detect_dips(spectrum, _OUTER_DIP_DEPTH))


def _observe(spectrum: Spectrum, depth_threshold: float,
             unity_tol: float) -> tuple[list[DipFeature], list[float], list[str]]:
    """One scan of the spectrum: the dips of depth >= depth_threshold,
    the full-transmission points between the outer depth-0.5 dips, and
    the notes counting rejected fits."""
    scan = _DipScan(spectrum, depth_threshold, _OUTER_DIP_DEPTH)
    unity = _unity_points(spectrum, unity_tol, scan.select(_OUTER_DIP_DEPTH))
    return scan.select(depth_threshold), unity, scan.rejection_notes()


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
             unity_tol: float = 0.01) -> ModelClass:
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


def _splitting_inverse(split: float, mismatch: float,
                       var_split: float, var_mismatch: float) -> Estimate:
    """g = sqrt(split**2 - mismatch**2)/2 with first-order propagation."""
    radicand = split**2 - mismatch**2
    if radicand < 0:
        raise InconsistentFeaturesError(
            f"dip splitting {split:.6g} below the frequency mismatch "
            f"{abs(mismatch):.6g}: no coupling reproduces these features"
        )
    g = 0.5 * math.sqrt(radicand)
    var_radicand = 4.0 * split**2 * var_split + 4.0 * mismatch**2 * var_mismatch
    if g > 0:
        sigma = math.sqrt(var_radicand) / (8.0 * g)
    else:
        sigma = 0.5 * var_radicand**0.25
    return Estimate(g, sigma)


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
    radicand = omega_shifted**2 - mid**2
    if radicand < 0:
        raise InconsistentFeaturesError(
            f"shifted dip {omega_shifted:.6g} below the mean frequency "
            f"{mid:.6g}: no classical coupling reproduces it"
        )
    g = math.sqrt(radicand)
    var_mid = 0.25 * (sigma_omega0**2 + sigma_omega_b**2)
    var_radicand = 4.0 * omega_shifted**2 * sigma_shifted**2 + 4.0 * mid**2 * var_mid
    if g > 0:
        sigma = math.sqrt(var_radicand) / (2.0 * g)
    else:
        sigma = var_radicand**0.25
    return Estimate(g, sigma)


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
    radicand = omega0 * (omega_upper + omega_lower) - omega0**2 - omega_upper * omega_lower
    if radicand < 0:
        raise InconsistentFeaturesError(
            "transparency windows inconsistent with any mechanical coupling"
        )
    g = math.sqrt(radicand)
    var = (
        (omega0 - omega_lower) ** 2 * sigma_upper**2
        + (omega0 - omega_upper) ** 2 * sigma_lower**2
        + (omega_upper + omega_lower - 2.0 * omega0) ** 2 * sigma_omega0**2
    )
    sigma = math.sqrt(var) / (2.0 * g) if g > 0 else var**0.25
    return Estimate(g, sigma)


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
    consistently.  sigma must be finite and >= 0; sigma = 0 returns the
    spectrum unchanged."""
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
    np.clip(trans, 0.0, 1.0, out=trans)
    phase = rng.normal(0.0, sigma, n)
    phase += spectrum.phase
    phase += np.pi
    # wrap to [0, 2 pi); np.mod is the identity on samples already there
    outside = phase >= 2.0 * np.pi
    outside |= phase < 0.0
    phase[outside] = np.mod(phase[outside], 2.0 * np.pi)
    phase -= np.pi
    return Spectrum(freqs=spectrum.freqs, transmission=trans, phase=phase,
                    amplitude=None)


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
        def opt(x):
            return None if x is None else x.to_dict()

        return {
            "model_class": self.model_class.value,
            "omega0_est": opt(self.omega0_est),
            "omega_b_est": opt(self.omega_b_est),
            "g_est": opt(self.g_est),
            "phonon_n_est": self.phonon_n_est,
            "phonon_residual": self.phonon_residual,
            "amplitude_est": opt(self.amplitude_est),
            "raw_features": {
                "dips": [d.to_dict() for d in self.dips],
                "unity_points": list(self.unity_points),
            },
            "grid_step": self.grid_step,
            "notes": list(self.notes),
        }


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
                    depth_threshold: float = 0.1,
                    unity_tol: float = 0.01) -> EstimationReport:
    """Full estimation pipeline for spectra taken on the qubit-scattering
    configurations.

    Detects features, classifies the vibration by the rule classify also
    applies, and inverts whatever the class allows: two dips plus a window
    give the mechanical frequency, the qubit frequency and the coupling; a
    single shifted dip gives the classical coupling (needs
    reference_omega0 and reference_omega_b) and the vibration amplitude
    when field, persistent_current and nmr_length are supplied; with
    reference_g_q and reference_delta a single dip is read as a
    dispersive phonon-number measurement.  When more dips
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
                from .squid import classical_amplitude

                value = classical_amplitude(g.value, field, persistent_current, nmr_length)
                found["amplitude_est"] = Estimate(
                    value, value * g.sigma / g.value if g.value else 0.0)
        else:
            notes.append("classical coupling needs reference_omega_b")
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
