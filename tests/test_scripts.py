"""Smoke tests of the user scripts under scripts/: each runs as its own
process at a small size, exits 0 and prints what its docstring promises.
Outputs go to the test's temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

from svextremes import PRESET_NAMES

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, name, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_reproduce_figures(tmp_path):
    out = run_script(tmp_path, "reproduce_figures.py", "--out", "figs")
    for name in PRESET_NAMES:
        assert f"{name} {{\"threshold_low\"" in out
        assert "errors" not in out
        for artifact in ("path.csv", "figure.csv", "extremogram.csv",
                         "report.json"):
            assert (tmp_path / "figs" / name / artifact).is_file()


def test_theory_vs_simulation(tmp_path):
    out = run_script(tmp_path, "theory_vs_simulation.py", "--n", "5000",
                     "--mc-reps", "20000")
    for line in ("kesten index", "theta_sigma", "theta_x m-sequence",
                 "theta_x_ma formula"):
        assert line in out


def test_threshold_sensitivity(tmp_path):
    out = run_script(tmp_path, "threshold_sensitivity.py", "--n", "20000")
    assert "Hill on |x|" in out
    assert "q = 0.9999" in out


def test_stderr_calibration(tmp_path):
    out = run_script(tmp_path, "stderr_calibration.py", "--model", "fig2-sv",
                     "--n", "5000", "--seeds", "300:303")
    assert out.startswith("fig2-sv, n = 5000, seeds 300-302, q = 0.995")
    for name in ("runs", "blocks", "intervals"):
        assert f"| {name} |" in out
