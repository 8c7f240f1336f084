"""Host-speed sampler: rescales an operation's time to a fixed host speed.

The benchmark's host is shared.  Its speed drifts by up to 1.5 times over
spells of seconds to minutes, and the drift slows CPU time as much as wall
time, so neither reads steady.  While an operation runs, a timer signal
runs a small fixed reference loop every ``INTERVAL_S`` in the same process
and times it.  The loop is benchmark code and never calls the library, so
a faster library leaves it unchanged.

``scale`` is ``REFERENCE_S`` over the loop's mean time.  An operation's
wall time less the loop's own (``spent``), times ``scale``, is the time it
would take on the host running at the speed at which the loop takes
``REFERENCE_S``: about the host's best speed.  A process that is timed from
outside, spawn to exit, writes ``figures()`` out for ``rescale()``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 75e-6

_ROWS = [[(i * j) % 5 - 2 for j in range(7)] for i in range(7)]


def reference_loop():
    """Sort, build tuples and fill a set, like the library's hot loops do."""
    seen = set()
    for r in range(7):
        perm = sorted(range(7), key=lambda i: (sorted(_ROWS[i]), (i + r) % 7))
        seen.add(tuple(_ROWS[i][j] for i in perm for j in perm))
    return min(seen)


class Sampler:
    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        # A collection the loop's allocations trigger is the operation's
        # work, not the loop's; it runs after the loop instead.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.times.append(took)
        self.spent += took

    def start(self):
        reference_loop()  # the first call of a function is slower
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # an operation shorter than one interval
            self._tick(None, None)
            self.spent = 0.0

    def figures(self) -> dict:
        return {"spent": self.spent, "scale": REFERENCE_S / statistics.fmean(self.times)}


def rescale(wall_s: float, figures: dict) -> float:
    return (wall_s - figures["spent"]) * figures["scale"]
