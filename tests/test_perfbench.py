"""The benchmark's layer trace (``perfbench/layers.py``) wraps functions and
``Store`` methods of the package by name, so a rename or a deletion of one
of them fails every traced benchmark run.  This test installs the trace
against this source tree in a fresh interpreter, since the trace patches
the package for the life of its process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
import mutopo
trace = layers.Trace()
layers.install(trace)
a2 = mutopo.build(2, 0, [[0, 1], [-1, 0]])
a3 = mutopo.build(3, 0, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
assert mutopo.embeds(a2, a3, store=mutopo.Store()).verdict is mutopo.Verdict.YES
assert trace.spans["embed.embeds"][0] == 1 and trace.spans["store.open"][0] == 1
"""


def test_the_benchmark_trace_installs_on_this_source():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
