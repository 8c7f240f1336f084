"""Spans and counters around the public functions of mutopo's layers.

The package's modules import each other's functions by name
(``classes.mutate``, ``embed.restrict``, ``canonical.build``, ...), so a
wrapper must replace every binding, not only the defining one.
:func:`install` does that for every loaded ``mutopo`` module and for the
``Store`` methods.  Nothing under ``src/`` changes.

Spans stay in memory as per-name aggregates (calls, total, self), where a
span's self time is its duration minus the durations of the spans opened
inside it.  The self times of one process therefore sum to its root span.
:meth:`Trace.dump` writes everything out once, when the process ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

_SIZE_BUCKETS = ((4, "le4"), (6, "5-6"))


def _size_bucket(size: int) -> str:
    for limit, name in _SIZE_BUCKETS:
        if size <= limit:
            return name
    return "ge7"


class Trace:
    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}
        self.root: str | None = None

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` timed as span ``name``; ``name`` may be a function of
        the call's arguments.  ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the span."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = name(args) if callable(name) else name
                stat = spans.get(key)
                if stat is None:
                    stat = spans[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def run_root(self, name, fn, *args, **kwargs):
        """Call ``fn`` as the root span every other span nests under."""
        self.root = name
        return self.wrap(name, fn)(*args, **kwargs)

    def repeat(self, name, key):
        """Count a call as a repeat when ``key`` was already seen in this process."""
        seen = self.seen.setdefault(name, set())
        self.counts[name + ".calls_seen"] += 1
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def dump(self, path, **extra):
        """Write the trace, with ``extra`` keys, as JSON."""
        payload = {"root": self.root, "spans": self.spans, "counts": dict(self.counts), **extra}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def install(trace: Trace) -> None:
    """Wrap the public functions of every layer at each of their bindings."""
    import mutopo  # noqa: F401  (loads every module whose bindings are replaced)
    from mutopo import canonical, classes, embed, matrix, store, universe

    counts = trace.counts

    def canonical_before(args, kwargs):
        trace.repeat("canonical.canonical_form", args[0])

    def enumerate_args(args, kwargs):
        budget = args[1] if len(args) > 1 else kwargs.get("budget", classes.DEFAULT_BUDGET)
        return args[0], budget

    def enumerate_before(args, kwargs):
        trace.repeat("classes.enumerate_class", enumerate_args(args, kwargs))

    distinct_enums: set = set()

    def enumerate_after(args, kwargs, enum):
        key = (enum.seed.hash, enum.budget.key())
        if key not in distinct_enums:
            distinct_enums.add(key)
            counts["classes.members"] += enum.count
            counts["classes.truncated"] += enum.status != classes.CLOSED

    scanned_before: list[int] = []  # subsets scanned when each open embeds span began

    def embeds_before(args, kwargs):
        scanned_before.append(counts["embed.subsets_scanned"])

    def embeds_after(args, kwargs, ev):
        scanned = counts["embed.subsets_scanned"] > scanned_before.pop()
        counts["embed.verdicts." + ev.verdict.value[0]] += 1
        if scanned and ev.verdict is classes.Verdict.YES:
            counts["embed.scan_hits"] += 1

    def restrict_after(args, kwargs, result):
        if scanned_before:
            counts["embed.subsets_scanned"] += 1

    def get_after(args, kwargs, result):
        counts["store.get.hits"] += result is not None

    def close_before(args, kwargs):
        path = args[0].path
        if os.path.exists(path):
            counts["store.file_bytes"] = os.path.getsize(path)

    functions = {
        matrix.build: trace.wrap("matrix.build", matrix.build),
        matrix.mutate: trace.wrap("matrix.mutate", matrix.mutate),
        matrix.restrict: trace.wrap("matrix.restrict", matrix.restrict, after=restrict_after),
        canonical.canonical_form: trace.wrap(
            lambda args: "canonical.canonical_form." + _size_bucket(args[0].size),
            canonical.canonical_form,
            before=canonical_before,
        ),
        classes.enumerate_class: trace.wrap(
            "classes.enumerate_class",
            classes.enumerate_class,
            before=enumerate_before,
            after=enumerate_after,
        ),
        embed.embeds: trace.wrap(
            "embed.embeds", embed.embeds, before=embeds_before, after=embeds_after
        ),
        universe.collect_classes: trace.wrap(
            "universe.collect_classes", universe.collect_classes
        ),
        universe.build_universe: trace.wrap("universe.build_universe", universe.build_universe),
        universe.load_universe: trace.wrap("universe.load_universe", universe.load_universe),
        universe.closure: trace.wrap("universe.topology", universe.closure),
        universe.open_set_generated: trace.wrap(
            "universe.topology", universe.open_set_generated
        ),
        universe.build_hasse: trace.wrap("universe.topology", universe.build_hasse),
    }
    by_id = {id(fn): wrapper for fn, wrapper in functions.items()}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mutopo" or name.startswith("mutopo.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    Store = store.Store
    Store.__init__ = trace.wrap("store.open", Store.__init__)
    Store.get_class = trace.wrap("store.get", Store.get_class, after=get_after)
    Store.get_embed = trace.wrap("store.get", Store.get_embed, after=get_after)
    Store.put_class = trace.wrap("store.put", Store.put_class)
    Store.put_embed = trace.wrap("store.put", Store.put_embed)
    Store.close = trace.wrap("store.close", Store.close, before=close_before)
