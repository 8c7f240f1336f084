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
# No member of E6 needs the entry-cap test; most of the wild rank-4 class do.
BFS_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import layers
import mutopo
from mutopo import canonical, matrix
e6 = mutopo.build(6, 0, [[0, 1, 0, 0, 0, 0], [-1, 0, 1, 0, 0, 0], [0, -1, 0, 1, 0, 1],
                         [0, 0, -1, 0, 1, 0], [0, 0, 0, -1, 0, 0], [0, 0, -1, 0, 0, 0]])
wild = mutopo.build(4, 0, [[0, -1, -1, -1], [1, 0, -1, 1], [1, 1, 0, -1], [1, -1, 1, 0]])
cases = {{"e6": (e6, "5-6"), "wild": (wild, "le4")}}
enums, untraced = {{}}, {{}}
for name, (B, bucket) in cases.items():
    codes = {{matrix.mutate.__code__: "matrix.mutate",
              canonical.canonical_form.__code__: "canonical.canonical_form." + bucket}}
    calls = untraced[name] = dict.fromkeys(codes.values(), 0)
    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1
    sys.setprofile(count)
    enums[name] = mutopo.enumerate_class(B)
    sys.setprofile(None)
assert enums["e6"].count == 67 and enums["e6"].status == "CLOSED"
assert enums["wild"].count == 1351 and enums["wild"].tripped == {{"entry"}}
trace = layers.Trace()
layers.install(trace)
for name, (B, _) in cases.items():
    before = {{span: trace.spans.get(span, [0])[0] for span in untraced[name]}}
    assert mutopo.enumerate_class(B) == enums[name]
    traced = {{span: trace.spans[span][0] - before[span] for span in untraced[name]}}
    assert traced == untraced[name], (name, traced, untraced[name])
# the seed's form and one for each child not met round a closed face, and a
# mutation for each of those children and each better witness found by one;
# of the wild class's children over the entry cap only the first is built
assert untraced == {{
    "e6": {{"matrix.mutate": 99, "canonical.canonical_form.5-6": 79}},
    "wild": {{"matrix.mutate": 1492, "canonical.canonical_form.le4": 1356}},
}}, untraced
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
