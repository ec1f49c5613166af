"""The package namespace re-exports each model-side module's ``__all__``,
and every name in a module's ``__all__`` is bound; the documented
argument checks of the package's public functions raise ValueError;
every import and private module-level name in the package is read;
scipy is loaded only by the commands that use it; and on glibc, repeated
large spectra reuse the freed heap unless the user configured malloc."""

import ast
import ctypes
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import qspectra
from qspectra import classical, constants, estimate, io, models, params, squid, svg

_SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(pathlib.Path(qspectra.__file__).parent.glob("*.py"))}


@pytest.mark.parametrize("module", [constants, params, models, squid, classical, estimate],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_module_public_names_are_package_names(module):
    missing = [name for name in module.__all__
               if getattr(qspectra, name, None) is not getattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", [io, svg],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_output_module_public_names_are_bound(module):
    # nothing star-imports these modules, so a stale name would go unseen
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


_CIRCUIT = dict(capacitance=1.7e-14, inductance=6e-9, critical_current=1e-7, bias_flux=1e-15)
_MECHANICAL = dict(mass=1e-18, omega_b=2e9, length=1e-5, field=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: qspectra.ClassicalHOParams(mass=1e-18, omega_b=0.0, gamma=1e6),
     "omega_b must be > 0"),
    (lambda: qspectra.ClassicalHOParams(mass=1e-18, omega_b=-2e9, gamma=1e6),
     "omega_b must be > 0"),
    (lambda: qspectra.ClassicalHOParams(mass=1e-18, omega_b=2e9, gamma=-1.0),
     "gamma must be >= 0"),
    (lambda: qspectra.CircuitSpec(**_CIRCUIT, flux_window=0.0), "flux_window must be > 0"),
    (lambda: qspectra.MechanicalSpec(**{**_MECHANICAL, "field": 0.0}), "field must be > 0"),
    (lambda: qspectra.MechanicalSpec(**{**_MECHANICAL, "field": -0.1}), "field must be > 0"),
    (lambda: qspectra.MechanicalSpec(**_MECHANICAL, amplitude_c=-1e-9),
     "amplitude_c must be >= 0"),
    (lambda: qspectra.qnmr_coupling(qspectra.MechanicalSpec(**_MECHANICAL), 0.0),
     "persistent current must be nonzero"),
    (lambda: qspectra.stlr_qubit_coupling(1e-7, 0.0, 1e-2, 1e-12, 2e9),
     "mutual_inductance must be > 0"),
    (lambda: qspectra.stlr_qubit_coupling(1e-7, 1e-12, 1e-2, 1e-12, -2e9),
     "omega_r must be > 0"),
    (lambda: qspectra.qubit_truncation_check(
        qspectra.EigenSolution(spec=qspectra.CircuitSpec(**_CIRCUIT), energies=np.zeros(1),
                               wavefunctions=np.zeros((1, 3)), flux_grid=np.arange(3.0),
                               flux_step=1.0, omega0=0.0, persistent_current=0.0,
                               current_diag_0=0.0, current_diag_1=0.0)),
     "need at least two states"),
    (lambda: qspectra.phonon_number_from_dip(2.1e9, 2.1e9, 3e7, 0.0),
     "phonon readout needs a nonzero detuning"),
    (lambda: qspectra.phonon_number_from_dip(2.1e9, 2.1e9, 1e-200, 1e8),
     "phonon ladder spacing g_q**2/delta = 0 gives no finite rung count"),
    (lambda: qspectra.dispersive_dip_frequency(
        qspectra.ModelParams(omega0=2.1e9, omega_b=2.0e9, g_q=3e7)),
     "mean phonon number not set"),
    # a derived field that leaves the float range, and couplings whose square does
    (lambda: qspectra.ModelParams(gamma_c=1e300, v_g=1e300),
     "parameter 'v1' = sqrt(gamma_c * v_g) must be finite, got inf"),
    (lambda: qspectra.ModelParams(v1=1e150, v_g=1e-300),
     "parameter 'gamma_c' = v1**2/v_g must be finite, got inf"),
    (lambda: qspectra.ModelParams(v1=1e160, v_g=3e8), "parameter 'v1' = 1e+160 is out of range"),
    (lambda: qspectra.ModelParams(v2=2e154), "parameter 'v2' = 2e+154 is out of range"),
    (lambda: qspectra.ModelParams(g_q=1e300), "parameter 'g_q' = 1e+300 is out of range"),
    (lambda: qspectra.ModelParams(g_c=1e155), "parameter 'g_c' = 1e+155 is out of range"),
    (lambda: qspectra.ModelParams(omega0=2.1e9).replace(g_rq=1e200),
     "parameter 'g_rq' = 1e+200 is out of range"),
])
def test_documented_value_errors(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def _loaded_names(tree) -> set:
    """Every name a module reads: bare names, attribute names and the
    names it imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", list(_SOURCES))
def test_every_import_is_used(name):
    """A name a module imports is read in that module, so code deleted
    around an import takes the import with it."""
    tree = _SOURCES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    assert sorted(imported - used) == []


def test_every_private_name_is_referenced():
    """Each private module-level name is read somewhere in the package
    (cli reads io._write_csv and io._write_sweep_csv, for example), so a
    helper whose last caller goes does not stay behind."""
    loaded = set().union(*map(_loaded_names, _SOURCES.values()))
    unread = []
    for name, tree in _SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name}:{d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in loaded]
    assert unread == []


_IMPORT_STEPS = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
steps = {}
import qspectra, qspectra.cli, qspectra.io, qspectra.svg
from qspectra.cli import main
steps["import"] = scipy_modules()
# no find_library, which runs ldconfig in a subprocess
helpers = sorted({"subprocess", "ctypes.util"} & set(sys.modules))
qnmr = ["--model", "qubit-qnmr", "--omega0", "2.1e9", "--omega-b", "2.0e9",
        "--gamma-c", "3.3e7", "--g-q", "1e8"]
codes = [
    main(["spectrum", *qnmr, "--grid", "1.8e9:2.3e9:401", "--noise-sigma", "0.01",
          "--seed", "1", "--output", out + "/noisy.csv"]),
    main(["sweep", *qnmr, "--param", "g_q", "--start", "5e7", "--stop", "1e8",
          "--steps", "3", "--output", out + "/sweep.csv"]),
    main(["figures", "--which", "fig3", "--outdir", out]),
]
steps["forward"] = scipy_modules()
codes.append(main(["squid", "--output-json", out + "/squid.json"]))
steps["squid"] = scipy_modules()
codes.append(main(["sweep", *qnmr, "--param", "g_q", "--start", "5e7", "--stop", "1e8",
                   "--steps", "3", "--grid", "1.8e9:2.3e9:401",
                   "--output", out + "/sweep-grid.csv"]))
steps["sweep-grid"] = scipy_modules()
codes.append(main(["estimate", out + "/noisy.csv", "--output", out + "/report.json"]))
steps["estimate"] = scipy_modules()
from qspectra.estimate import classify, detect_unity_points
from qspectra.io import read_spectrum_csv
spectrum, _ = read_spectrum_csv(out + "/noisy.csv")
library = [classify(spectrum, unity_tol=0.04).value, len(detect_unity_points(spectrum, 0.04))]
steps["library"] = scipy_modules()
print(json.dumps({"codes": codes, "library": library, "steps": steps, "helpers": helpers}))
"""


def _run_fresh(script, *args, **env_vars):
    """The last stdout line of script, run as JSON in a fresh interpreter
    that imports this checkout's package, with no malloc settings but
    env_vars."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    src = str(pathlib.Path(qspectra.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, *args], env={**env, **env_vars},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_scipy_is_imported_by_the_commands_that_use_it(tmp_path):
    """In a fresh interpreter, importing the package and running the
    forward commands (spectrum with noise, sweep without --grid, a
    spectrum figure) load no scipy; squid loads scipy.linalg alone of
    the two scipy modules the package uses; sweep --grid, which fits
    dips, adds scipy.optimize; and estimate, then the library's classify
    and detect_unity_points, load nothing more: no step loads
    scipy.signal.  The import loads neither subprocess nor ctypes.util."""
    result = _run_fresh(_IMPORT_STEPS, str(tmp_path))
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    assert result["library"][0] == "quantum-nmr" and result["library"][1] > 0
    assert result["helpers"] == []
    steps = result["steps"]
    assert steps["import"] == [] and steps["forward"] == []
    assert "scipy.linalg" in steps["squid"]
    assert "scipy.optimize" not in steps["squid"]
    assert "scipy.optimize" in steps["sweep-grid"]
    # estimate and the library calls load nothing that sweep --grid did not
    assert steps["estimate"] == steps["library"] == steps["sweep-grid"]
    assert not any(m.startswith("scipy.signal") for m in steps["estimate"])


_FAULTS_PER_CALL = r"""
import resource
from qspectra import (ModelKind, ModelParams, add_measurement_noise, compute_spectrum,
                      make_frequency_grid)

params = ModelParams(omega0=2.1e9, omega_b=2.0e9, gamma_c=3.3e7, g_q=1e8)
freqs = make_frequency_grid(1.8e9, 2.3e9, 100001)

def call(seed):
    add_measurement_noise(compute_spectrum(ModelKind.QUBIT_QNMR, params, freqs), 0.01, seed)

for seed in range(3):
    call(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(20):
    call(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
@pytest.mark.parametrize("env_vars, low, high", [
    ({}, 0, 10),
    # glibc's own settings win: a fixed 128 KiB threshold maps every large array
    ({"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}, 500, math.inf),
], ids=["package-thresholds", "user-malloc-env"])
def test_large_spectra_reuse_freed_memory(env_vars, low, high):
    """After warm-up, a 100001-point compute_spectrum +
    add_measurement_noise takes at most 10 minor page faults per call,
    where glibc's dynamic thresholds took about 1335; with glibc's
    MALLOC_* variables set the package leaves malloc alone."""
    assert low <= _run_fresh(_FAULTS_PER_CALL, **env_vars) <= high


def _no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr, tunables, exports_mallopt, calls", [
    (lambda name: "glibc 2.36", "", True, [(-3, 32 << 20), (-1, 64 << 20)]),
    (lambda name: None, "", True, []),
    (_no_confstr, "", True, []),
    (None, "", True, []),
    (lambda name: "glibc 2.36", "glibc.malloc.mmap_threshold=131072", True, []),
    (lambda name: "glibc 2.36", "", False, []),
], ids=["glibc", "no-libc-version", "unknown-confstr-name", "no-confstr",
        "malloc-tunables", "no-mallopt"])
def test_keep_freed_buffers_opt_outs(confstr, tunables, exports_mallopt, calls, monkeypatch):
    """In process, with a libc that records its mallopt calls:
    _keep_freed_buffers sets the mmap and then the trim threshold on
    glibc, and calls no mallopt off glibc (no glibc version, an unknown
    confstr name, no os.confstr), when GLIBC_TUNABLES configures
    glibc.malloc, or when libc exports no mallopt."""
    made = []

    class Libc:
        def __init__(self, name):
            if exports_mallopt:
                self.mallopt = lambda param, value: made.append((param, value)) or 1

    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("GLIBC_TUNABLES", tunables)
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", Libc)
    qspectra._keep_freed_buffers()
    assert made == calls
