"""Smoke test of the narrative demos: each runs in a fresh interpreter and
its stdout must equal the text recorded under ``tests/golden/demos/``.

Regenerate the recorded text after an intended output change with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tests", "golden", "demos")
DEMOS = ("01_graded_algebras", "02_semiprimeness", "03_graded_core",
         "04_maximal_quotients", "05_jordan_pairs", "06_matrix_involutions")


def _run_demo(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name + ".py")],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_unchanged(name):
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(EXPECTED, name + ".out")) as fh:
        assert proc.stdout == fh.read()


if __name__ == "__main__":
    os.makedirs(EXPECTED, exist_ok=True)
    for demo in DEMOS:
        with open(os.path.join(EXPECTED, demo + ".out"), "w") as fh:
            fh.write(_run_demo(demo).stdout)
