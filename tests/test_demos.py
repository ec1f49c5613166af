"""The demo scripts run as published.

Each demo is copied into a temporary directory and run there, so the
files it writes land in that directory's output/ and not in the repo.
Demo 06 (the 100-draw noisy-estimation study) is left out for its
running time.
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
