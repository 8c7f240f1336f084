"""One benchmark operation in a fresh interpreter.

Usage: ``python perfbench/worker.py SPEC.json``.  The spec names the
operation (``kind``), its inputs, whether to trace it and the file the
result is written to.  Input preparation happens before the timed region;
answer checks that need the library happen after it.  The result carries
``wall_s``, the operation's wall time less the sampler's, and ``op_s``,
the wall time rescaled by ``sampler.py``; a traced operation also writes
the sampler's figures into its trace.  A set-up-only spec runs the
preparation under the sampler and returns its figures.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from sampler import Sampler, rescale


def _prepare_dynkin(spec):
    import mutopo

    return mutopo.build(spec["n"], 0, spec["rows"])


def _prepare_universe(spec):
    import mutopo

    seeds = list(mutopo.iter_quiver_seeds(4, 1))
    random.Random(spec["shuffle"]).shuffle(seeds)
    return seeds


def _run_dynkin(B, spec):
    import mutopo

    enum = mutopo.enumerate_class(B)
    return {"members": enum.count, "status": enum.status}


def _run_universe(seeds, spec):
    import mutopo

    store = mutopo.Store(spec["store_dir"])
    try:
        u = mutopo.build_universe(4, 1, store=store, seeds=seeds)
        text = mutopo.dump_universe(u)
        Path(spec["output"]).write_text(text + "\n", encoding="utf-8")
    finally:
        store.close()
    return {}


def _replay(spec):
    """Recompute the listed universe cells and replay each YES witness."""
    import mutopo

    u = mutopo.load_universe(Path(spec["universe"]).read_text(encoding="utf-8"))
    replayed = []
    for i, j in spec["cells"]:
        P = u.classes[i].key.form.matrix
        Q = u.classes[j].key.form.matrix
        ev = mutopo.embeds(P, Q, u.budget)
        replayed.append(
            ev.verdict is mutopo.Verdict.YES and mutopo.replay_embedding(P, Q, ev)
        )
    return {"replayed": replayed}


OPERATIONS = {
    "dynkin": (_prepare_dynkin, _run_dynkin),
    "universe": (_prepare_universe, _run_universe),
}


def _sampled(fn, *args):
    """Call ``fn`` under the sampler; returns its result, wall time and sampler."""
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    sampler.stop()
    return result, wall, sampler


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    kind = spec["kind"]
    if kind == "replay":
        result = _replay(spec)
    elif spec.get("setup_only"):
        _, _, sampler = _sampled(OPERATIONS[kind][0], spec)
        result = sampler.figures()
    else:
        prepare, run = OPERATIONS[kind]
        inputs = prepare(spec)
        if spec.get("trace_file"):
            import layers

            trace = layers.Trace()
            layers.install(trace)
            result, wall, sampler = _sampled(trace.run_root, "bench.op", run, inputs, spec)
            trace.dump(spec["trace_file"], **sampler.figures())
        else:
            result, wall, sampler = _sampled(run, inputs, spec)
        result["wall_s"] = wall - sampler.spent
        result["op_s"] = rescale(wall, sampler.figures())
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
