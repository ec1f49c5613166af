"""The four benchmark workloads.

Each workload is a closed loop: one client in one process, no threads of
its own, one operation at a time.  Set-up turns the seed into inputs;
``round_ops(state, r)`` returns round r's list of operations, and the
runner repeats whole rounds.  Every operation calls a public entry point,
``qspectra.cli.main([...])`` in-process or the library API, looked up at
call time so the traced run sees it.  Each operation carries an untimed
check of its outputs.

A check returns an ``Outcome``:

* ``failed``: the operation did not complete, i.e. it raised, exited
  non-zero, or a spectrum CSV it wrote does not read back;
* ``wrong``: an output differs from its reference (sha256 digest, truth
  value, analytic feature, report schema), which makes the run incorrect;
* ``tally``: counts behind the quality metrics (classifications, coupling
  pulls, fitted-dip contract, digests).

``classical`` has no CLI entry point and no workload, so it is left
unmeasured on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from qspectra import cli, estimate, io as qio, models
from qspectra.models import ModelKind
from qspectra.params import ModelParams, make_frequency_grid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "reference_digests.json")

# canonical parameter sets of the README and the figure captions
CANONICAL = {
    ModelKind.QUBIT_ONLY: dict(omega0=2.1e9, gamma_c=3.3e7),
    ModelKind.QUBIT_QNMR: dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_q=1e8),
    ModelKind.DISPERSIVE: dict(omega0=2.1e9, omega_b=2.0e9, g_q=3e7, v_g=3e8,
                               gamma_c=1e6, mean_n=2.0),
    ModelKind.QUBIT_CNMR: dict(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_c=1e8),
    ModelKind.STLR_QUBIT: dict(omega0=2.1e9, omega_r=2.0e9, v_g=3e8, v2=1e8, g_rq=1e8),
    ModelKind.STLR_QUBIT_QNMR: dict(omega0=2.1e9, omega_b=2.0e9, omega_r=2.0e9, v_g=3e8,
                                    v2=1e8, g_rq=1e8, g_q=1e8),
    ModelKind.STLR_QUBIT_CNMR: dict(omega0=2.1e9, omega_b=2.0e9, omega_r=2.0e9, v_g=3e8,
                                    v2=1e8, g_rq=1e8, g_c=1e8),
}
README_WINDOW = (1.8e9, 2.3e9)
README_GRID = "1.8e9:2.3e9"  # README_WINDOW as a CLI --grid prefix


@dataclass
class Outcome:
    failed: Optional[str] = None
    wrong: list[str] = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # (digest key, path) of the files the operation writes, if it has any
    artefacts: Optional[Callable[[], list[tuple[str, str]]]] = None


def _param_flags(values: dict) -> list[str]:
    flags = []
    for key, value in values.items():
        flags += ["--" + key.replace("_", "-"), repr(float(value))]
    return flags


def _cli_exit(rc) -> Optional[str]:
    return None if rc == cli.EXIT_OK else f"exit code {rc}"


def _dip_in_contract(center: float, fwhm: float, depth: Optional[float],
                     step: float, lo: float, hi: float) -> bool:
    """The DipFeature contract: depth in [0, 1], FWHM at least half a grid
    step, center on the grid.  depth None means the output omits it."""
    depth_ok = depth is None or 0.0 <= depth <= 1.0
    return depth_ok and fwhm >= 0.5 * step and lo <= center <= hi


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Workload:
    name = ""
    why = ""
    exercises: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    # seconds one round took when the benchmark was defined; the traced
    # run uses it to turn --seconds into a fixed number of rounds
    nominal_round_s = 1.0
    # latency_tail_ms is this percentile: the highest of p75/p90/p95/p99
    # that had at least ten samples above it in a 25 s run when the
    # benchmark was defined and that lies inside the slowest latency class
    # rather than among the rare host stalls beyond it.  It is fixed so
    # that two commits compare the same percentile; each run reports how
    # many samples lie above it.
    tail_percentile = 90.0

    def setup(self, workdir: str, seed: int, tiny: bool):
        raise NotImplementedError

    def round_ops(self, state, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self, state) -> list[Op]:
        return self.round_ops(state, 0)[:1]

    def describe(self) -> dict:
        return {"name": self.name, "why": self.why,
                "exercises": list(self.exercises), "bypasses": list(self.bypasses)}


# ---------------------------------------------------------------------------


class EstimateNoisy(Workload):
    name = "estimate-noisy"
    why = ("`qspectra estimate` on noisy CSV spectra: the candidate -> fit -> "
           "merge -> unity re-detection path, whose cost grows from ~10 ms to "
           "~0.9 s over the 0-3 % noise ladder (unbounded-runtime defect), plus "
           "read_spectrum_csv on every call.")
    exercises = ("estimate", "io.read_spectrum_csv", "io.report_json_text", "cli",
                 "params.Spectrum")
    bypasses = ("svg", "squid", "models (set-up only)")
    nominal_round_s = 1.2
    tail_percentile = 90.0

    # (label, kind, noise sigma, extra estimate flags).  Every noisy entry
    # has NOISY_REALIZATIONS noise draws, one per round, because an
    # estimate's cost varies by +-25 % (1 %) to x4 (3 %) between draws; a
    # run then averages over as many draws as it has rounds (17-24 in
    # 25 s).  The draws come from a pool fixed by NOISE_POOL_SEED, and the
    # run's seed sets their order and the phonon numbers: with draws
    # made from the run's seed, the ~20 3 % draws a run sees differed in
    # mean cost by ~15 % between seeds, which set the spread of
    # ops_per_s and latency_tail_ms.
    MIX = (
        ("qubit-qnmr-0", ModelKind.QUBIT_QNMR, 0.0, []),
        ("qubit-qnmr-1", ModelKind.QUBIT_QNMR, 0.01, []),
        ("qubit-qnmr-2", ModelKind.QUBIT_QNMR, 0.02, []),
        ("qubit-qnmr-3", ModelKind.QUBIT_QNMR, 0.03, []),
        ("qubit-cnmr-1", ModelKind.QUBIT_CNMR, 0.01,
         ["--ref-omega0", "2.1e9", "--ref-omega-b", "2e9"]),
        ("dispersive-1", ModelKind.DISPERSIVE, 0.01,
         ["--ref-omega0", "2.1e9", "--ref-g-q", "3e7", "--ref-delta", "1e8"]),
        ("qubit-only-1", ModelKind.QUBIT_ONLY, 0.01, ["--ref-omega0", "2.1e9"]),
    )
    NOISY_REALIZATIONS = 24
    NOISE_POOL_SEED = 0
    EXPECTED_CLASS = {
        ModelKind.QUBIT_QNMR: "quantum-nmr",
        ModelKind.QUBIT_CNMR: "classical-nmr",
        ModelKind.DISPERSIVE: "dispersive",
        ModelKind.QUBIT_ONLY: "no-nmr",
    }
    TRUE_COUPLING = {ModelKind.QUBIT_QNMR: "g_q", ModelKind.QUBIT_CNMR: "g_c"}

    def setup(self, workdir, seed, tiny):
        n_points = 401 if tiny else 2001
        grid = make_frequency_grid(*README_WINDOW, n_points)
        rng = np.random.default_rng([seed, 1])
        pool = np.random.default_rng(self.NOISE_POOL_SEED)
        inputs = {}
        for label, kind, sigma, flags in self.MIX:
            count = 1 if tiny or sigma == 0.0 else self.NOISY_REALIZATIONS
            noise_seeds = pool.integers(2**31, size=count)
            for k in rng.permutation(count):
                values = dict(CANONICAL[kind])
                if kind is ModelKind.DISPERSIVE:
                    values["mean_n"] = float(rng.integers(0, 4))
                noise_seed = int(noise_seeds[k])
                params = ModelParams(**values)
                spectrum = estimate.add_measurement_noise(
                    models.compute_spectrum(kind, params, grid), sigma, noise_seed)
                path = os.path.join(workdir, f"{label}-{k}.csv")
                config = {"model": kind.value, "params": params.to_dict(),
                          "noise": {"sigma": sigma, "seed": noise_seed}}
                qio.write_spectrum_csv(path, spectrum, config=config)
                inputs.setdefault(label, []).append((path, kind, sigma, values, flags))
        return {"inputs": inputs, "workdir": workdir,
                "grid": (float(grid[0]), float(grid[-1]))}

    def round_ops(self, state, r):
        ops = []
        for label, *_ in self.MIX:
            choices = state["inputs"][label]
            path, kind, sigma, values, flags = choices[r % len(choices)]
            report = os.path.join(state["workdir"], f"{label}.report.json")
            argv = ["estimate", path, "--unity-tol", "0.04", "--output", report] + flags
            ops.append(Op(label, lambda argv=argv: cli.main(argv),
                          lambda rc, report=report, kind=kind, sigma=sigma, values=values:
                          self._check(rc, report, kind, sigma, values, state["grid"])))
        return ops

    def _check(self, rc, report_path, kind, sigma, values, grid_span) -> Outcome:
        out = Outcome(failed=_cli_exit(rc))
        if out.failed:
            return out
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        if str(report.get("schema_version", "")).split(".")[0] != "1":
            out.wrong.append("report schema_version")
            return out
        if report.get("model_class") not in {c.value for c in estimate.ModelClass}:
            out.wrong.append(f"unknown model_class {report.get('model_class')!r}")
            return out
        right_class = report["model_class"] == self.EXPECTED_CLASS[kind]
        if kind is ModelKind.DISPERSIVE:
            right_class = right_class and report["phonon_n_est"] == int(values["mean_n"])
        out.tally["class_total"] += 1
        out.tally["class_ok"] += right_class
        coupling = self.TRUE_COUPLING.get(kind)
        within = False
        if coupling is not None:
            g = report.get("g_est")
            within = bool(g and g["sigma"] > 0
                          and abs(g["value"] - values[coupling]) <= 3.0 * g["sigma"])
            out.tally["g_total"] += 1
            out.tally["g_ok"] += within
        if sigma == 0.0 and not (right_class and within):
            out.wrong.append("clean qubit-qnmr spectrum not inverted to its truth")
        step = report["grid_step"]
        for dip in report["raw_features"]["dips"]:
            out.tally["dips_total"] += 1
            out.tally["dips_ok"] += _dip_in_contract(dip["center"], dip["fwhm"], dip["depth"],
                                                     step, *grid_span)
        return out


# ---------------------------------------------------------------------------


class SweepFitted(Workload):
    name = "sweep-fitted"
    why = ("`qspectra sweep --grid` over g_q: many small detect_dips calls on "
           "clean spectra (~2 fits each), analytic_features and the cli thread "
           "pool with QSPECTRA_THREADS=1; bypasses noise-specific estimation.")
    exercises = ("estimate.detect_dips", "models.analytic_features",
                 "models.compute_spectrum", "cli (sweep thread pool)")
    bypasses = ("io.read_spectrum_csv", "estimate.estimate_report", "svg", "squid")
    nominal_round_s = 0.6
    tail_percentile = 75.0

    MODELS = (ModelKind.QUBIT_QNMR, ModelKind.STLR_QUBIT_QNMR)
    RANGES = 8
    # fitted centers must sit within this share of their fitted FWHM of
    # the closed-form dips; the largest offset seen when the benchmark was
    # defined was 0.01 (stlr-qubit-qnmr, 2001 points)
    CENTER_TOL_FWHM = 0.05

    def setup(self, workdir, seed, tiny):
        # one worker.  At the documented default (one worker per CPU, 2
        # here) the GIL-bound workers need both vCPUs at once, and the
        # per-run medians spread by 30-50 % with the CPU time other guests
        # steal; one worker keeps the run steady and still goes through
        # the pool
        os.environ["QSPECTRA_THREADS"] = "1"
        rng = np.random.default_rng([seed, 2])
        ranges = [(float(rng.uniform(3e7, 6e7)), float(rng.uniform(1.4e8, 2e8)))
                  for _ in range(self.RANGES)]
        n_points = 401 if tiny else 2001
        return {"workdir": workdir, "ranges": ranges, "steps": 3 if tiny else 30,
                "grid": f"{README_GRID}:{n_points}",
                "grid_span": README_WINDOW, "step": (README_WINDOW[1] - README_WINDOW[0])
                / (n_points - 1)}

    def round_ops(self, state, r):
        ops = []
        for k, kind in enumerate(self.MODELS):
            start, stop = state["ranges"][(r + k) % len(state["ranges"])]
            output = os.path.join(state["workdir"], f"{kind.value}.sweep.csv")
            argv = (["sweep", "--model", kind.value] + _param_flags(CANONICAL[kind])
                    + ["--param", "g_q", "--start", repr(start),
                       "--stop", repr(stop), "--steps", str(state["steps"]),
                       "--grid", state["grid"], "--output", output])
            ops.append(Op(kind.value, lambda argv=argv: cli.main(argv),
                          lambda rc, output=output, kind=kind: self._check(rc, output, kind,
                                                                           state)))
        return ops

    def _check(self, rc, output, kind, state) -> Outcome:
        out = Outcome(failed=_cli_exit(rc))
        if out.failed:
            return out
        fitted: dict[float, list[tuple[float, float]]] = {}
        with open(output, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("#") or line.startswith("param,"):
                    continue
                _, value, feature, freq, width = line.strip().split(",")
                dips = fitted.setdefault(float(value), [])
                if feature == "fitted-dip":
                    dips.append((float(freq), float(width)))
        if len(fitted) != state["steps"]:
            out.wrong.append(f"{len(fitted)} swept values, expected {state['steps']}")
        params = ModelParams(**CANONICAL[kind])
        for value, dips in fitted.items():
            truth = sorted(models.analytic_features(kind, params.replace(g_q=value)).dips)
            dips.sort()
            if len(dips) != len(truth):
                out.wrong.append(f"g_q={value:.6g}: {len(dips)} fitted dips, "
                                 f"{len(truth)} analytic")
                continue
            for expected, (center, width) in zip(truth, dips):
                if abs(center - expected) > self.CENTER_TOL_FWHM * abs(width):
                    out.wrong.append(f"g_q={value:.6g}: fitted dip {center:.6g} vs "
                                     f"analytic {expected:.6g}")
                out.tally["dips_total"] += 1
                # the sweep CSV carries no depth, so only width and center apply
                out.tally["dips_ok"] += _dip_in_contract(center, width, None, state["step"],
                                                         *state["grid_span"])
        return out


# ---------------------------------------------------------------------------


class SynthArtifacts(Workload):
    name = "synth-artifacts"
    why = ("The artefact-writing commands (spectrum CSV/SVG for all seven models "
           "at 4001-100001 points, figures --svg, squid JSON/CSV): CSV formatting, "
           "SVG rendering and the eigensolver; no estimation.")
    exercises = ("io.write_spectrum_csv", "io.squid_json_text", "io.write_wavefunction_csv",
                 "svg.write_chart", "squid.solve_eigensystem", "models", "cli")
    bypasses = ("estimate (except add_measurement_noise)", "io.read_spectrum_csv (check only)")
    nominal_round_s = 12.0
    tail_percentile = 75.0

    # a round: small grid noisy + SVG, medium grid clean + SVG, large grid
    # clean, for all seven models, plus figures and two squid solves.  The
    # class sizes put the median inside the medium class and the p75 tail
    # inside the large one.
    MODELS = tuple(ModelKind)
    NOISE_SEEDS = tuple(range(8))
    SQUID_BIAS = (0.48, 0.49, 0.5, 0.51, 0.52)
    SQUID_GRID = (1001, 2001, 4001)
    SQUID_PER_ROUND = 2

    def setup(self, workdir, seed, tiny):
        references = {}
        if not tiny and os.path.exists(DIGESTS_PATH):
            with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
                references = json.load(handle)["digests"]
        rng = np.random.default_rng([seed, 3])
        menu = [(b, g) for b in self.SQUID_BIAS for g in self.SQUID_GRID]
        squid_rounds = [[menu[i] for i in rng.permutation(len(menu))[:self.SQUID_PER_ROUND]]
                        for _ in range(64)]
        return {"workdir": workdir, "references": references, "tiny": tiny, "seed": seed,
                "squid_rounds": squid_rounds, "readbacks": {},
                "sizes": (401, 801, 1601) if tiny else (4001, 20001, 100001)}

    def warmup_ops(self, state):
        small, medium, _ = state["sizes"]
        return [self.spectrum_op(state, ModelKind.QUBIT_QNMR, small, self.NOISE_SEEDS[0], True),
                self.spectrum_op(state, ModelKind.QUBIT_ONLY, medium, None, True),
                self.squid_op(state, *state["squid_rounds"][0][0])]

    def round_ops(self, state, r):
        small, medium, large = state["sizes"]
        noise_seed = self.NOISE_SEEDS[(state["seed"] + r) % len(self.NOISE_SEEDS)]
        squid_configs = state["squid_rounds"][r % len(state["squid_rounds"])]
        ops = [self.squid_op(state, bias, points) for bias, points in squid_configs]
        ops.append(self.figures_op(state))
        # sizes interleaved, so that every size class spans the round
        for m in self.MODELS:
            ops += [self.spectrum_op(state, m, small, noise_seed, True),
                    self.spectrum_op(state, m, medium, None, True),
                    self.spectrum_op(state, m, large, None, False)]
        return ops

    def menu_ops(self, state) -> list[Op]:
        """Every operation any seed can run, for recording reference digests."""
        small, medium, large = state["sizes"]
        ops = [self.spectrum_op(state, m, small, s, True)
               for m in self.MODELS for s in self.NOISE_SEEDS]
        ops += [self.spectrum_op(state, m, medium, None, True) for m in self.MODELS]
        ops += [self.spectrum_op(state, m, large, None, False) for m in self.MODELS]
        ops.append(self.figures_op(state))
        ops += [self.squid_op(state, b, g) for b in self.SQUID_BIAS for g in self.SQUID_GRID]
        return ops

    def spectrum_op(self, state, kind, n_points, noise_seed, with_svg) -> Op:
        variant = "clean" if noise_seed is None else f"noise0.01-seed{noise_seed}"
        key = f"spectrum/{kind.value}/{n_points}/{variant}"
        stem = os.path.join(state["workdir"], key.replace("/", "_"))
        argv = (["spectrum", "--model", kind.value] + _param_flags(CANONICAL[kind])
                + ["--grid", f"{README_GRID}:{n_points}", "--output", stem + ".csv"])
        artefacts = [(key + ".csv", stem + ".csv")]
        if noise_seed is not None:
            argv += ["--noise-sigma", "0.01", "--seed", str(noise_seed)]
        if with_svg:
            argv += ["--svg", stem + ".svg"]
            artefacts.append((key + ".svg", stem + ".svg"))
        return self._artefact_op(state, key, argv, artefacts, [(stem + ".csv", n_points)])

    def figures_op(self, state) -> Op:
        outdir = os.path.join(state["workdir"], "figures")
        which = "fig2" if state["tiny"] else "all"
        argv = ["figures", "--which", which, "--outdir", outdir, "--svg"]

        def listing():
            names = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
            return [(f"figures/{n}", os.path.join(outdir, n)) for n in names]

        def readbacks():
            # figure spectrum CSVs; fig11/fig12 hold wavefunctions
            return [(path, None) for _, path in listing() if path.endswith(".csv")
                    and not os.path.basename(path).startswith(("fig11", "fig12"))]

        return self._artefact_op(state, "figures", argv, listing, readbacks)

    def squid_op(self, state, bias, points) -> Op:
        key = f"squid/phi{bias}-n{points}"
        stem = os.path.join(state["workdir"], key.replace("/", "_"))
        argv = ["squid", "--phi-e-over-phi0", repr(bias), "--grid-points", str(points),
                "--output-json", stem + ".json", "--output-csv", stem + ".csv"]
        artefacts = [(key + ".json", stem + ".json"), (key + ".csv", stem + ".csv")]
        return self._artefact_op(state, key, argv, artefacts, [])

    def _artefact_op(self, state, label, argv, artefacts, readbacks) -> Op:
        """artefacts/readbacks: lists, or callables giving them after the run."""
        def listed(items):
            return items() if callable(items) else items

        def check(rc) -> Outcome:
            out = Outcome(failed=_cli_exit(rc))
            if out.failed:
                return out
            digests = {}
            for key, path in listed(artefacts):
                digests[path] = sha256_file(path)
                out.tally["digests_total"] += 1
                if state["tiny"] or digests[path] == state["references"].get(key):
                    out.tally["digests_ok"] += 1
                else:
                    out.wrong.append(f"{key}: sha256 differs from the reference")
            for path, n_points in listed(readbacks):
                # identical bytes parse identically, so each distinct file
                # content is read back once per run
                digest = digests.get(path) or sha256_file(path)
                if digest not in state["readbacks"]:
                    try:
                        spectrum, _ = qio.read_spectrum_csv(path)
                        state["readbacks"][digest] = (None, spectrum.n_points)
                    except ValueError as exc:
                        message = str(exc).replace(path, os.path.basename(path))
                        state["readbacks"][digest] = (message, None)
                error, points = state["readbacks"][digest]
                if error:
                    # known defect: dense grids fail the |amplitude|**2
                    # consistency check on read; counted as a failure
                    out.failed = f"read-back: {error}"
                elif n_points is not None and points != n_points:
                    out.wrong.append(f"{label}: read back {points} points, wrote {n_points}")
            return out

        return Op(label, lambda: cli.main(argv), check, lambda: listed(artefacts))


# ---------------------------------------------------------------------------


class ForwardBatch(Workload):
    name = "forward-batch"
    why = ("Library compute_spectrum, analytic_features and add_measurement_noise "
           "over random draws of all seven models on 1e3-1e5 point grids, no file "
           "I/O: the only workload where the models kernels and Spectrum "
           "validation are more than 2 % of the time.")
    exercises = ("models (amplitude kernels, compute_spectrum, analytic_features)",
                 "params.Spectrum", "estimate.add_measurement_noise")
    bypasses = ("io", "svg", "squid", "cli", "estimate fitting")
    nominal_round_s = 0.17
    # p99 falls beyond the tight 1e5-point class (~20 ms), among host stalls,
    # and spread by ~47 % between runs of the same code; p95 is that class's
    # slow end
    tail_percentile = 95.0

    SIZES = (1000, 10000, 100000)
    DRAWS = 16
    # |t|**2 at a closed-form dip / full-transmission point
    TOLERANCE = 1e-6

    def setup(self, workdir, seed, tiny):
        rng = np.random.default_rng([seed, 4])
        draws = {kind: [self._draw(kind, rng) for _ in range(1 if tiny else self.DRAWS)]
                 for kind in ModelKind}
        sizes = (100, 200, 400) if tiny else self.SIZES
        grids = {n: make_frequency_grid(*README_WINDOW, n) for n in sizes}
        return {"draws": draws, "grids": grids, "rng_seed": seed}

    def warmup_ops(self, state):
        # one op per model and grid size
        return self.round_ops(state, 0)

    @staticmethod
    def _draw(kind, rng) -> ModelParams:
        u = rng.uniform
        values = dict(omega0=u(2.05e9, 2.15e9), omega_b=u(1.95e9, 2.02e9),
                      omega_r=u(1.95e9, 2.05e9), gamma_c=u(1e7, 5e7), g_q=u(5e7, 1.5e8),
                      g_c=u(5e7, 1.5e8), g_rq=u(5e7, 1.5e8), v2=u(0.7e8, 1.3e8), v_g=3e8,
                      mean_n=float(rng.integers(0, 5)))
        if kind is ModelKind.DISPERSIVE:
            # stay in the dispersive regime, |g_q / delta| < 0.5
            values["g_q"] = u(0.1, 0.3) * (values["omega0"] - values["omega_b"])
            values["gamma_c"] = u(5e5, 2e6)
        required = models.REQUIRED_PARAMS[kind]
        # v1 (dispersive) is derived from gamma_c and v_g
        return ModelParams(**{k: v for k, v in values.items()
                              if k in required or k in ("gamma_c", "v_g")})

    def round_ops(self, state, r):
        ops = []
        for j, kind in enumerate(ModelKind):
            draws = state["draws"][kind]
            p = draws[r % len(draws)]
            for n, grid in state["grids"].items():
                noise_seed = (state["rng_seed"] * 1_000_003 + r * 97 + j * 7 + n) % 2**31
                ops.append(Op(f"{kind.value}/{n}",
                              lambda kind=kind, p=p, grid=grid, s=noise_seed:
                              self._forward(kind, p, grid, s),
                              lambda result, kind=kind, p=p, n=n: self._check(result, kind, p,
                                                                              n)))
        return ops

    @staticmethod
    def _forward(kind, p, grid, noise_seed):
        spectrum = models.compute_spectrum(kind, p, grid)
        features = models.analytic_features(kind, p)
        noisy = estimate.add_measurement_noise(spectrum, 0.01, noise_seed)
        return spectrum, features, noisy

    def _check(self, result, kind, p, n) -> Outcome:
        spectrum, features, noisy = result
        out = Outcome()
        if spectrum.n_points != n or noisy.n_points != n or noisy.amplitude is not None:
            out.wrong.append(f"{kind.value}: spectrum shape or noisy amplitude")
        for dip in features.dips:
            if abs(models.transmission_amplitude(kind, dip, p)) ** 2 > self.TOLERANCE:
                out.wrong.append(f"{kind.value}: |t|^2 at analytic dip {dip:.6g} not 0")
        for point in features.unity_points:
            if abs(models.transmission_amplitude(kind, point, p)) ** 2 < 1 - self.TOLERANCE:
                out.wrong.append(f"{kind.value}: |t|^2 at unity point {point:.6g} not 1")
        return out


WORKLOADS = {w.name: w for w in (EstimateNoisy(), SweepFitted(), SynthArtifacts(),
                                 ForwardBatch())}
