"""The demo scripts run as published.

Each demo is copied into a temporary directory and run there, so the
files it writes land in that directory's output/ and not in the repo.
"""

import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
FAST_DEMOS = ["01_qubit_dip.py", "02_quantum_or_classical.py", "03_phonon_counting.py",
              "04_transparency_windows.py", "05_circuit_groundwork.py",
              "07_classical_baseline.py"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert any((tmp_path / "output").iterdir())
    printed = capsys.readouterr().out
    if name.startswith("02"):
        assert "classified as: quantum-nmr" in printed
        assert "classified as: classical-nmr" in printed


def test_noisy_estimation_demo(tmp_path, capsys):
    # the 100-draw study writes no files; its printed tally is the result
    script = tmp_path / "06_noisy_estimation.py"
    shutil.copy(DEMOS / script.name, script)
    runpy.run_path(str(script), run_name="__main__")
    printed = capsys.readouterr().out
    assert "runs classified as quantum mechanics: 100/100" in printed
    assert "within 3 sigma: 100/100" in printed
