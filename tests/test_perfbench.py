"""The benchmark's layer trace (``perfbench/layers.py``) wraps functions and
``Store`` methods of the package by name, so a rename or a deletion of one
of them fails every traced benchmark run.  These tests install the trace
against this source tree in a fresh interpreter, since the trace patches
the package for the life of its process."""

import json
import subprocess
import sys
from pathlib import Path

from mutopo import build_universe, dump_universe, to_json_dict

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


# A traced CLI call installs the trace before it imports mutopo.cli, and the
# verbs import store and universe when they run: their spans must count.
CLI_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
trace = layers.Trace()
layers.install(trace)
import mutopo.cli
cache = ["--cache-dir", {cache!r}]
assert mutopo.cli.main(["embeds", {a2!r}, {a3!r}, "--json", *cache]) == 0
assert mutopo.cli.main(["closure", {universe!r}, {a2!r}, "--json", *cache]) == 0
for span in ("embed.embeds", "store.open", "universe.topology"):
    assert trace.spans[span][0] >= 1, span
"""


# The class BFS calls mutate and canonical_form through the bindings in
# mutopo.classes, which the trace replaces: a traced BFS records every call
# an untraced one makes, counted here by code object under a profile hook.
BFS_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
import mutopo
from mutopo import canonical, matrix
e6 = mutopo.build(6, 0, [[0, 1, 0, 0, 0, 0], [-1, 0, 1, 0, 0, 0], [0, -1, 0, 1, 0, 1],
                         [0, 0, -1, 0, 1, 0], [0, 0, 0, -1, 0, 0], [0, 0, -1, 0, 0, 0]])
codes = {{matrix.mutate.__code__: "matrix.mutate",
          canonical.canonical_form.__code__: "canonical.canonical_form.5-6"}}
untraced = dict.fromkeys(codes.values(), 0)
def count(frame, event, arg):
    if event == "call" and frame.f_code in codes:
        untraced[codes[frame.f_code]] += 1
sys.setprofile(count)
enum = mutopo.enumerate_class(e6)
sys.setprofile(None)
assert enum.count == 67 and enum.status == "CLOSED"
trace = layers.Trace()
layers.install(trace)
assert mutopo.enumerate_class(e6).members == enum.members
traced = {{name: trace.spans[name][0] for name in untraced}}
assert traced == untraced, (traced, untraced)
# one canonical form for the seed and one for each child the BFS mutates to
assert traced["canonical.canonical_form.5-6"] == traced["matrix.mutate"] + 1 > 1, traced
"""


def _run(script):
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_the_benchmark_trace_installs_on_this_source():
    _run(SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench")))


def test_the_benchmark_trace_counts_cli_calls(tmp_path, a2, a3):
    paths = {"a2": tmp_path / "a2.json", "a3": tmp_path / "a3.json",
             "universe": tmp_path / "u21.json"}
    paths["a2"].write_text(json.dumps(to_json_dict(a2)))
    paths["a3"].write_text(json.dumps(to_json_dict(a3)))
    paths["universe"].write_text(dump_universe(build_universe(2, 1)) + "\n")
    _run(CLI_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                           cache=str(tmp_path / "cache"),
                           **{name: str(path) for name, path in paths.items()}))


def test_the_benchmark_trace_counts_every_class_bfs_call():
    _run(BFS_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench")))
