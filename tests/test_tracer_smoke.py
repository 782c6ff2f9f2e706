"""The traced benchmark run (``perfbench/run.py --trace``) wraps gradlie
functions by module and name, so renaming or deleting one of them breaks
only the traced runs.  This smoke test installs perfbench's tracer in a
fresh interpreter, asks one traced Jordan pair question, and checks that
every patched name was found and that the pair predicate took the TKK
route: its span is recorded and the pair principal-ideal scan walked no
point.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import tracer
import gradlie
from gradlie.gallery import pair_padded, pair_rect
from gradlie.scalars import GF

t = tracer.Tracer()
t.install()
t.active = True
verdicts = [gradlie.pair_is_semiprime(pair_rect(1, 2, GF(5))),
            gradlie.pair_is_semiprime(pair_padded(GF(5)))]
t.active = False
print(json.dumps({"verdicts": verdicts, "spans": t.names,
                  "counts": dict(t.counts)}))
"""


def test_perfbench_tracer_installs_and_traces_a_pair_question():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["verdicts"] == [True, False]
    assert "jordan.pair_scan" in got["spans"]
    assert got["counts"].get("jordan.pair_scan.points", 0) == 0
