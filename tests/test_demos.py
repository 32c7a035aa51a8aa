import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_model_walkthrough_demo_runs_and_prints_gradcheck_summary():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_model_walkthrough.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines() if line.startswith("max rel err")]
    assert [words[3] for words in lines] == ["W", "U", "beta", "log_rho"]
    assert all(len(words) == 5 and float(words[4]) >= 0.0 for words in lines)
