"""Smoke tests of the scripts README documents, each run as its own process."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_double_descent_script_marks_one_peak(tmp_path):
    done = run_script("run_double_descent.py", "--replicates", "1",
                      "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv").is_file()
    assert sum(line.endswith("<- peak") for line in done.stdout.splitlines()) == 1


def test_concentration_script_prints_six_verdicts():
    done = run_script("run_concentration_lab.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    assert all(re.fullmatch(r"\S+\s+trials=\d+\s+(assert-pass|report-only)", line)
               for line in lines)
