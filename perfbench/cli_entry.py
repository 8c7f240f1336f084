"""``mutopo`` call, timed or traced.

Usage: ``python perfbench/cli_entry.py time|trace OUT_FILE ARGS...`` behaves
like ``python -m mutopo ARGS...``, run under ``sampler.py``.

- ``time``: writes the sampler's figures to ``OUT_FILE`` as JSON.
- ``trace``: installs the layer wrappers first and writes the trace, with
  the sampler's figures, to ``OUT_FILE``.  The ``PERFBENCH_SPAWN_TIME``
  environment variable carries the parent's ``time.time()`` just before the
  spawn, so the trace can report how long the process took to reach
  ``main``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from sampler import Sampler


def timed(out_file, argv) -> int:
    sampler = Sampler()
    sampler.start()
    try:
        import mutopo.cli

        return mutopo.cli.main(argv)
    finally:
        sys.stdout.flush()
        sampler.stop()
        with open(out_file, "w", encoding="utf-8") as out:
            json.dump(sampler.figures(), out)


def traced(out_file, argv) -> int:
    import layers

    trace = layers.Trace()
    layers.install(trace)
    import mutopo.cli

    trace.counts["cli.start_s"] = time.time() - float(os.environ["PERFBENCH_SPAWN_TIME"])
    sampler = Sampler()
    sampler.start()
    try:
        return trace.run_root("cli.main", mutopo.cli.main, argv)
    finally:
        sys.stdout.flush()
        sampler.stop()
        trace.dump(out_file, **sampler.figures())


def main() -> int:
    mode, out_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    return {"time": timed, "trace": traced}[mode](out_file, argv)


if __name__ == "__main__":
    sys.exit(main())
