"""Answer-checked, layer-traced benchmark of mutopo.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``dynkin-enum``, ``universe-r4w1``, ``cli-warm`` (see
``perfbench/README.md``).  Every operation runs in a fresh interpreter, one
at a time, and every answer is checked.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Scratch files go under ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pinned
from sampler import rescale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
CLI_ENTRY = BENCH_DIR / "cli_entry.py"
RUN_LIMIT_S = 170  # every child is killed once the run is this old


# --- child processes -------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Outcome:
    """One operation: its time, the child's peak memory, and its answer check.

    ``wall_s`` is the operation's wall time less the sampler's own, and
    ``op_s`` is the time rescaled to a fixed host speed (``sampler.py``).
    """

    op_s: float | None
    rss_mb: float
    ok: bool
    resolved: float  # share of the operation's answers that are not UNKNOWN
    trace_file: Path | None = None
    key: object = None  # what the operation asked: a class name or a question index
    reply: tuple | None = None
    wall_s: float | None = None


class Context:
    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "MUTOPO_CACHE_DIR": str(work / "default-cache"),
        }
        self._files = 0

    def path(self, stem: str) -> Path:
        """A fresh path in the run's scratch directory."""
        self._files += 1
        return self.work / f"{stem}-{self._files}"

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(str(v) for v in (self.seed,) + salt))

    def spawn(self, argv, stamp: bool = False) -> Child:
        """Run one child to completion; wall time is spawn to exit."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env = dict(self.env)
            start = time.perf_counter()
            if stamp:
                env["PERFBENCH_SPAWN_TIME"] = repr(time.time())
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            wall, proc.returncode, usage.ru_maxrss / 1024,
            out_path.read_bytes(), err_path.read_bytes(),
        )
        out_path.unlink()
        err_path.unlink()
        if child.code != 0 and child.stderr:
            sys.stderr.write(child.stderr.decode("utf-8", "replace")[-2000:])
        return child

    def worker(self, spec: dict) -> tuple[Child, dict | None]:
        """Run ``worker.py`` on a spec; returns the child and its result, if any."""
        spec = {**spec, "result": str(self.path("result"))}
        spec_path = self.path("spec")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        child = self.spawn([sys.executable, str(WORKER), str(spec_path)])
        spec_path.unlink()
        result_path = Path(spec["result"])
        if child.code != 0 or not result_path.exists():
            return child, None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return child, result


# --- answer checks -----------------------------------------------------------------


def check_universe(text: str) -> tuple[bool, int, list[tuple[int, int]]]:
    """Compare a universe file with the pinned r4 w1 universe.

    Returns (ok, U cells, cells that went from U to Y).  Y and N cells must
    match; a U cell may become N, or Y if its witness replays, which the
    caller checks separately.
    """
    try:
        obj = json.loads(text)
        hashes = tuple(cls["hash"] for cls in obj["classes"])
        relation = ["".join(row) for row in obj["relation"]]
        params = obj["params"]
    except (ValueError, KeyError, TypeError):
        return False, 0, []
    ok = (
        hashes == pinned.UNIVERSE_R4W1_CLASSES
        and (params["r"], params["w"]) == (4, 1)
        and len(relation) == len(hashes)
    )
    unknown = sum(row.count("U") for row in relation)
    to_yes = []
    for i, (got, want) in enumerate(zip(relation, pinned.UNIVERSE_R4W1_RELATION)):
        if len(got) != len(want):
            return False, unknown, []
        for j, (g, w) in enumerate(zip(got, want)):
            if g == w:
                continue
            if w != "U" or g not in "YN":
                ok = False
            elif g == "Y":
                to_yes.append((i, j))
    return ok, unknown, to_yes


def replay_cells(ctx: Context, universe_file: Path, cells) -> bool:
    """Recompute U cells that became Y and replay their witnesses."""
    if not cells:
        return True
    child, result = ctx.worker(
        {"kind": "replay", "universe": str(universe_file), "cells": list(cells)}
    )
    return result is not None and all(result["replayed"])


# --- matrices the benchmark generates (plain lists, no library code) ---------------


def relabel(rows, rng):
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def mutate(rows, k):
    """Quiver mutation at vertex k (0-based) of a skew-symmetric matrix."""
    n = len(rows)
    out = [row[:] for row in rows]
    for i in range(n):
        for j in range(n):
            if k in (i, j):
                out[i][j] = -rows[i][j]
            elif rows[i][k] * rows[k][j] > 0:
                sign = 1 if rows[i][k] > 0 else -1
                out[i][j] = rows[i][j] + sign * rows[i][k] * rows[k][j]
    return out


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


# name, rank, edges of the Dynkin tree
DYNKIN_TREES = (
    ("A7", 7, _path(7)),
    ("D7", 7, [(0, 2), (1, 2)] + _path(7)[2:]),
    ("E6", 6, _path(5) + [(2, 5)]),
    ("E7", 7, _path(6) + [(2, 6)]),
    ("A8", 8, _path(8)),
)


def quiver(n, arrows):
    rows = [[0] * n for _ in range(n)]
    for a, b in arrows:
        rows[a][b], rows[b][a] = 1, -1
    return rows


# Every edge oriented as listed, the same for every seed: how long an
# enumeration takes depends on the orientation it starts from (A8: 4.1 to
# 6.5 s), so a seed-drawn orientation would make seeds incomparable.
DYNKIN_INPUTS = tuple((name, n, quiver(n, edges)) for name, n, edges in DYNKIN_TREES)


# --- workloads ------------------------------------------------------------------------


class Workload:
    """Set-up, then cycles of operations, then the checks that need them all."""

    setups = 5
    cycle = 1  # operations that always run together
    ops_per_unit = 1  # operations per unit of the per-layer figures

    def prepare(self, ctx):
        pass

    def finish(self, ctx, outcomes):
        pass

    def op_ms(self, outcomes):
        return 1000 * statistics.median(o.op_s for o in outcomes)

    def unknown_pairs(self):
        return 0


class DynkinEnum(Workload):
    """Cold ``enumerate_class`` of A7, D7, E6, E7 and A8, one per child.

    A cycle enumerates every class once, in an order and with vertex
    labellings drawn from the seed.
    """

    cycle = len(DYNKIN_INPUTS)
    ops_per_unit = cycle  # per-layer figures are per pass over the classes

    def _spec(self, ctx, i):
        order = list(range(self.cycle))
        ctx.rng("dynkin-order", i // self.cycle).shuffle(order)
        name, n, rows = DYNKIN_INPUTS[order[i % self.cycle]]
        return name, {"kind": "dynkin", "n": n, "rows": relabel(rows, ctx.rng("dynkin", i))}

    def setup(self, ctx, k):
        child, result = ctx.worker({**self._spec(ctx, k)[1], "setup_only": True})
        if result is None:
            return child.wall_s, False
        return rescale(child.wall_s, result), True

    def run(self, ctx, i, trace_file):
        name, spec = self._spec(ctx, i)
        if trace_file is not None:
            spec["trace_file"] = str(trace_file)
        child, result = ctx.worker(spec)
        if result is None:
            return Outcome(None, child.rss_mb, False, 0.0, key=name)
        closed = result["status"] == "CLOSED"
        ok = closed and result["members"] == pinned.DYNKIN_MEMBERS[name]
        return Outcome(result["op_s"], child.rss_mb, ok, float(closed), trace_file, name,
                       wall_s=result["wall_s"])

    def op_ms(self, outcomes):
        """One pass over the five classes: the sum of each class's median time."""
        by_class: dict[str, list[float]] = {}
        for o in outcomes:
            if o.op_s is not None:
                by_class.setdefault(o.key, []).append(o.op_s)
        if len(by_class) < len(DYNKIN_TREES):
            return None
        return 1000 * sum(statistics.median(v) for v in by_class.values())


class UniverseR4W1(Workload):
    """The library sequence behind ``mutopo universe -r 4 -w 1 -o``, cold."""

    def __init__(self):
        self.first_text: str | None = None
        self.first_file: Path | None = None
        self.unknown: list[int] = []
        self.to_yes: set = set()

    def setup(self, ctx, k):
        spec = {"kind": "universe", "shuffle": ctx.seed, "setup_only": True}
        child, result = ctx.worker(spec)
        if result is None:
            return child.wall_s, False
        return rescale(child.wall_s, result), True

    def run(self, ctx, i, trace_file):
        output, store_dir = ctx.path("universe.json"), ctx.path("store")
        spec = {
            "kind": "universe",
            "shuffle": ctx.rng("universe", i).getrandbits(64),
            "store_dir": str(store_dir),
            "output": str(output),
        }
        if trace_file is not None:
            spec["trace_file"] = str(trace_file)
        child, result = ctx.worker(spec)
        shutil.rmtree(store_dir, ignore_errors=True)
        if result is None or not output.exists():
            return Outcome(None, child.rss_mb, False, 0.0, key="r4w1")
        text = output.read_text(encoding="utf-8")
        ok, unknown, to_yes = check_universe(text)
        self.unknown.append(unknown)
        self.to_yes.update(to_yes)
        if self.first_text is None:
            self.first_text, self.first_file = text, output
        else:
            ok = ok and text == self.first_text  # identical for every seed order
            output.unlink()
        cells = len(pinned.UNIVERSE_R4W1_CLASSES) ** 2
        return Outcome(result["op_s"], child.rss_mb, ok, 1 - unknown / cells, trace_file, "r4w1",
                       wall_s=result["wall_s"])

    def finish(self, ctx, outcomes):
        if self.first_file is not None and not replay_cells(
            ctx, self.first_file, sorted(self.to_yes)
        ):
            for o in outcomes:
                o.ok = False

    def unknown_pairs(self):
        return statistics.median(self.unknown) if self.unknown else 0


CLI_COMMANDS = ("embeds", "class", "finite", "hasse", "closure")


def cli_answer(command: str, stdout: bytes):
    """The part of a ``--json`` reply that a cached call must share with ``--no-cache``."""
    try:
        obj = json.loads(stdout)
        if command == "embeds":
            return obj["verdict"]
        if command == "class":
            return [obj["status"], len(obj["members"]), obj["class_key"]]
        if command == "finite":
            return [obj["verdict"], obj["members"]]
        if command == "hasse":
            edges = sorted([e["lower"], e["upper"]] for e in obj["edges"])
            return [obj["vertices"], edges, sorted(obj["unknown"])]
        return obj["classes"]
    except (ValueError, KeyError, TypeError):
        return None


class CliWarm(Workload):
    """``mutopo`` calls against a freshly copied warm cache.

    A cycle is one call of each command in ``CLI_COMMANDS``.
    """

    setups = 3
    cycle = len(CLI_COMMANDS)

    def __init__(self):
        self.template: Path | None = None
        self.questions: dict[int, tuple[str, list[str]]] = {}

    def setup(self, ctx, k):
        """Warm a cache with ``mutopo universe -r 4 -w 1 -o``; keep the last one."""
        warm = ctx.path("warm")
        warm.mkdir()
        universe, figures = warm / "u41.json", warm / "sampler.json"
        child = ctx.spawn([
            sys.executable, str(CLI_ENTRY), "time", str(figures), "universe", "-r", "4",
            "-w", "1", "-o", str(universe), "--cache-dir", str(warm / "cache"),
        ])
        ok = child.code == 0 and universe.exists() and figures.exists()
        seconds = child.wall_s
        if ok:
            seconds = rescale(child.wall_s, json.loads(figures.read_text(encoding="utf-8")))
            ok, _, to_yes = check_universe(universe.read_text(encoding="utf-8"))
            ok = ok and replay_cells(ctx, universe, to_yes)
        if self.template is not None:
            shutil.rmtree(self.template)
        self.template = warm
        return seconds, ok

    def prepare(self, ctx):
        self.universe = self.template / "u41.json"
        obj = json.loads(self.universe.read_text(encoding="utf-8"))
        classes, relation = obj["classes"], obj["relation"]
        self.reps = [cls["matrix"]["b"] for cls in classes]
        count = len(classes)
        closed = [
            i for i, cls in enumerate(classes) if cls["status"] == "CLOSED" and cls["rank"] >= 2
        ]
        self.pairs = [
            (p, q) for p in closed for q in range(count)
            if classes[q]["rank"] > classes[p]["rank"] and relation[p][q] != "U"
        ]
        self.closed = closed
        self.closable = [i for i in closed if all(relation[k][i] != "U" for k in range(count))]
        # The timed and the traced calls each get their own fresh copy.
        self.caches = {}
        for name in ("timed", "traced"):
            self.caches[name] = ctx.path("cache")
            shutil.copytree(self.template / "cache", self.caches[name])

    def _matrix_file(self, ctx, rng, index, mutated):
        rows = self.reps[index]
        if mutated:
            for _ in range(rng.randint(1, 3)):
                rows = mutate(rows, rng.randrange(len(rows)))
        rows = relabel(rows, rng)
        path = ctx.path("matrix.json")
        path.write_text(json.dumps({"mutable": len(rows), "frozen": 0, "b": rows}))
        return str(path)

    def question(self, ctx, i):
        """Call i: the command cycles, and every other call asks about a
        mutated member rather than the class key, which the cache may lack."""
        if i not in self.questions:
            rng = ctx.rng("cli", i)
            command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
            mutated = i % 2 == 1
            universe = str(self.universe)
            if command == "embeds":
                p, q = rng.choice(self.pairs)
                args = [self._matrix_file(ctx, rng, p, mutated),
                        self._matrix_file(ctx, rng, q, False)]
            elif command == "hasse":
                args = [universe, "--partial"]
            elif command == "closure":
                args = [universe, self._matrix_file(ctx, rng, rng.choice(self.closable), mutated)]
            else:
                args = [self._matrix_file(ctx, rng, rng.choice(self.closed), mutated)]
            self.questions[i] = (command, [command, *args, "--json"])
        return self.questions[i]

    def run(self, ctx, i, trace_file):
        """One call, spawn to exit, rescaled by the figures of the sampler
        that ran inside the call."""
        command, args = self.question(ctx, i)
        if trace_file is None:
            out_file, mode, cache = ctx.path("sampler.json"), "time", self.caches["timed"]
        else:
            out_file, mode, cache = trace_file, "trace", self.caches["traced"]
        argv = [sys.executable, str(CLI_ENTRY), mode, str(out_file), *args,
                "--cache-dir", str(cache)]
        child = ctx.spawn(argv, stamp=trace_file is not None)
        wall_s = op_s = None
        if out_file.exists():
            figures = json.loads(out_file.read_text(encoding="utf-8"))
            if trace_file is None:
                out_file.unlink()
            wall_s = child.wall_s - figures["spent"]
            op_s = rescale(child.wall_s, figures)
        reply = (child.code, cli_answer(command, child.stdout))
        # ok is decided in finish(), against a --no-cache call of the same question
        return Outcome(op_s, child.rss_mb, False, float(child.code == 0), trace_file,
                       i, reply, wall_s)

    def finish(self, ctx, outcomes):
        """Ask every question again with ``--no-cache``; replies must agree."""
        references = {}
        for o in outcomes:
            if o.key not in references:
                command, args = self.question(ctx, o.key)
                child = ctx.spawn([sys.executable, "-m", "mutopo", *args, "--no-cache"])
                references[o.key] = (child.code, cli_answer(command, child.stdout))
            o.ok = o.op_s is not None and o.reply[1] is not None and o.reply == references[o.key]


WORKLOADS = {"dynkin-enum": DynkinEnum, "universe-r4w1": UniverseR4W1, "cli-warm": CliWarm}


# --- measuring ----------------------------------------------------------------------


def log(o: Outcome, i: int):
    """One line per operation on standard error, for reading a run afterwards."""
    op = f"{o.op_s:.4f}s wall={o.wall_s:.4f}s" if o.op_s is not None else "failed"
    kind = "traced" if o.trace_file is not None else "timed"
    print(f"op {i} {o.key} {kind} {op} rss={o.rss_mb:.1f}MB", file=sys.stderr, flush=True)


def measure(workload, ctx: Context, traced: bool):
    """Set up, then run whole cycles of operations for ``--seconds``.

    The first cycle always runs; another starts while at least half of the
    last one would still fit, so a run ends within half a cycle of
    ``--seconds``.  Untraced, every operation is timed.  Traced, each operation
    runs once untraced and then once traced, so the pairs give the tracing
    overhead.
    """
    setups, setup_ok = [], True
    for k in range(workload.setups):
        seconds, ok = workload.setup(ctx, k)
        setups.append(seconds)
        setup_ok = setup_ok and ok
    workload.prepare(ctx)
    plain, traced_ops = [], []
    start = time.monotonic()
    i = 0
    while time.monotonic() < ctx.deadline - 60:
        cycle_start = time.monotonic()
        for _ in range(workload.cycle):
            plain.append(workload.run(ctx, i, None))
            log(plain[-1], i)
            if traced:
                traced_ops.append(workload.run(ctx, i, ctx.path("trace.json")))
                log(traced_ops[-1], i)
            i += 1
        now = time.monotonic()
        if now - start + (now - cycle_start) / 2 > ctx.seconds:
            break
    workload.finish(ctx, plain + traced_ops)
    return setups, setup_ok, plain, traced_ops


def end_to_end(workload, setups, plain) -> dict:
    ok = [o for o in plain if o.op_s is not None]
    return {
        "op_ms": workload.op_ms(ok) if ok else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o.rss_mb for o in plain),
        "resolved_frac": statistics.fmean(o.resolved for o in plain),
        "ok_frac": sum(o.ok for o in plain) / len(plain),
    }


def per_layer(workload, plain, traced_ops) -> tuple[dict, bool]:
    """Per-layer figures per unit of work, from the traced operations.

    Counts and times are per unit (a pass of five enumerations, a universe
    build, or one CLI call); fractions are ratios of the run's totals.  The
    second value says whether every process's self times summed to its root.
    """
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    sums_ok = True
    for o in traced_ops:
        if o.trace_file is None or not o.trace_file.exists():
            sums_ok = False
            continue
        trace = json.loads(o.trace_file.read_text(encoding="utf-8"))
        root_total = trace["spans"][trace["root"]][1]
        self_total = sum(stat[2] for stat in trace["spans"].values())
        sums_ok = sums_ok and abs(self_total - root_total) <= 1e-6 * max(root_total, 1e-3)
        scale = trace["scale"]  # times are rescaled like op_s
        for name, (calls, total, own) in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * scale
            acc[2] += own * scale
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value * (scale if name == "cli.start_s" else 1)
    units = max(len(traced_ops) / workload.ops_per_unit, 1)

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field] / units

    def count(name):
        return counts.get(name, 0) / units

    def frac(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    buckets = ("le4", "5-6", "ge7")
    form = ["canonical.canonical_form." + b for b in buckets]
    gets = spans.get("store.get", [0])[0]
    base = sum(o.op_s for o in plain if o.op_s is not None)
    with_trace = sum(o.op_s for o in traced_ops if o.op_s is not None)
    metrics = {
        "canonical.canonical_form.calls": sum(span(n, 0) for n in form),
        "canonical.canonical_form.self_s": sum(span(n, 2) for n in form),
        **{f"canonical.canonical_form.self_s.{b}": span(n, 2) for b, n in zip(buckets, form)},
        "canonical.canonical_form.repeat_frac": frac(
            "canonical.canonical_form.repeats", "canonical.canonical_form.calls_seen"
        ),
        "classes.enumerate_class.repeat_frac": frac(
            "classes.enumerate_class.repeats", "classes.enumerate_class.calls_seen"
        ),
        "classes.members": count("classes.members"),
        "classes.truncated": count("classes.truncated"),
        "embed.subsets_scanned": count("embed.subsets_scanned"),
        "embed.scan_hit_frac": frac("embed.scan_hits", "embed.subsets_scanned"),
        **{f"embed.verdicts.{v}": count(f"embed.verdicts.{v}") for v in "YNU"},
        "universe.unknown_pairs": workload.unknown_pairs(),
        "store.open.wall_s": span("store.open", 1),
        "store.file_bytes": count("store.file_bytes"),
        "store.get.calls": span("store.get", 0),
        "store.get.hit_frac": counts.get("store.get.hits", 0) / gets if gets else 0.0,
        "store.put.calls": span("store.put", 0),
        "cli.start_s": count("cli.start_s"),
        "trace.overhead_frac": with_trace / base - 1 if base else 0.0,
    }
    for name in ("matrix.build", "matrix.mutate", "matrix.restrict",
                 "classes.enumerate_class", "embed.embeds"):
        metrics[name + ".calls"] = span(name, 0)
        metrics[name + ".self_s"] = span(name, 2)
    for name in ("universe.collect_classes", "universe.build_universe",
                 "universe.load_universe", "universe.topology",
                 "store.open", "store.put", "cli.main"):
        metrics[name + ".self_s"] = span(name, 2)
    return metrics, sums_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mutopo" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: no mutopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = Context(args.seed, args.seconds, work)
        workload = WORKLOADS[args.workload]()
        setups, correct, plain, traced_ops = measure(workload, ctx, bool(args.trace))
        if args.trace:
            values, sums_ok = per_layer(workload, plain, traced_ops)
            correct = correct and sums_ok
        else:
            values = end_to_end(workload, setups, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = plain + traced_ops
    failed = sum(not o.ok for o in ops)
    correct = correct and failed == 0
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    missing = [name for name, v in values.items() if v is None]
    correct = correct and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name] if values[name] is not None else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
