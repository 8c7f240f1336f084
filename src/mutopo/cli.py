"""Command-line interface.

Every library operation is exposed as a verb with stable, machine-readable
output: human-oriented text by default, JSON with --json (budgets always
included so recorded verdicts are reproducible), DOT for Hasse diagrams
with --dot.

Exit codes: 0 for a resolved result, 2 for UNKNOWN (or a truncated
enumeration), 1 for any error, usage errors included.

Each call is a fresh interpreter, so the cache (``store``), the topology
(``universe``) and the ``properties`` checkers are imported by the verbs
that use them, not here.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .classes import (
    CLOSED,
    Budget,
    Finiteness,
    Verdict,
    class_key,
    enumerate_class,
    is_mutation_finite,
)
from .embed import EmbedVerdict, density_witness, embeds, replay_embedding, witness_json
from .matrix import (
    ExchangeMatrix,
    apply_sequence,
    from_inline,
    from_json_dict,
    from_text,
    to_inline,
    to_json_dict,
    to_text,
)


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")


def _read_matrix(source: str) -> ExchangeMatrix:
    """The matrix in a file, or on stdin for '-': JSON or text."""
    text = _read_text(source)
    if text.lstrip().startswith("{"):
        return from_json_dict(json.loads(text))
    return from_text(text)


def _input(args) -> ExchangeMatrix:
    """The one matrix of a single-matrix verb: its file, or --matrix."""
    if args.matrix is not None:
        return from_inline(args.matrix, args.frozen or 0)
    return _read_matrix(args.input)


def _budget(args) -> Budget:
    return Budget(args.max_members, args.max_entry, args.max_depth)


def _open_store(args):
    from .store import Store, default_cache_dir

    if args.no_cache:
        return Store()  # in memory, for this call only
    directory = args.cache_dir or default_cache_dir()
    try:
        return Store(directory)
    except RuntimeError:
        # another writer holds the lock: fall back to read-only sharing
        return Store(directory, readonly=True)


def _print_json(payload: dict):
    # streamed: dumps() with indent holds every token of a large payload
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _verdict_exit(verdict: Verdict) -> int:
    return 2 if verdict is Verdict.UNKNOWN else 0


# --- subcommand handlers ------------------------------------------------------


def _cmd_mutate(args) -> int:
    B = _input(args)
    sequence = args.at or []
    result = apply_sequence(B, sequence)
    if args.json:
        _print_json({"matrix": to_json_dict(result), "sequence": sequence})
    else:
        print(to_text(result))
    return 0


def _cmd_class(args) -> int:
    B = _input(args)
    budget = _budget(args)
    with _open_store(args) as store:
        enum = enumerate_class(B, budget, store)
    key = enum.least.form
    if args.json:
        members = [
            {"hash": mem.form.hash, "matrix": to_json_dict(mem.form.matrix), "witness": list(mem.witness)}
            for mem in enum.members
        ]
        _print_json({"seed": enum.seed.hash, "status": enum.status, "class_key": key.hash,
                     "members": members, "budget": budget.to_json()})
    else:
        print(f"status={enum.status} members={enum.count} key={key.hash[:12]}")
        for mem in enum.members:
            seq = ",".join(str(k) for k in mem.witness)
            print(f"  {mem.form.hash[:12]} witness=[{seq}]")
    return 0 if enum.status == CLOSED else 2


def _cmd_finite(args) -> int:
    B = _input(args)
    budget = _budget(args)
    with _open_store(args) as store:
        fv = is_mutation_finite(B, budget, store=store)
    if args.json:
        _print_json(
            {
                "verdict": fv.kind.value,
                "members": fv.members,
                "witness": to_json_dict(fv.offender) if fv.offender is not None else None,
                "budget": budget.to_json(),
            }
        )
    elif fv.kind is Finiteness.FINITE:
        print(f"FINITE members={fv.members}")
    else:
        print(fv.kind.value)
    return 2 if fv.kind is Finiteness.UNKNOWN else 0


def _cmd_embeds(args) -> int:
    P, Q = _read_matrix(args.p), _read_matrix(args.q)
    budget = _budget(args)
    with _open_store(args) as store:
        ev = embeds(P, Q, budget, store=store)
    if args.json:
        _print_json(
            {
                "verdict": ev.verdict.value,
                "witness": witness_json(ev.witness),
                "budget": budget.to_json(),
            }
        )
    else:
        print(ev.verdict.value)
        if ev.witness is not None:
            w = ev.witness
            print(
                f"  q_sequence={list(w.q_sequence)} subset={list(w.subset)} "
                f"p_sequence={list(w.p_sequence)}"
            )
    return _verdict_exit(ev.verdict)


def _tri_valued(args, ask, **extra) -> int:
    """Answer a verdict verb: ``ask(budget, store=...)`` under the call's budget."""
    budget = _budget(args)
    with _open_store(args) as store:
        verdict = ask(budget, store=store)
    if args.json:
        _print_json({"verdict": verdict.value, "budget": budget.to_json(), **extra})
    else:
        print(verdict.value)
    return _verdict_exit(verdict)


def _cmd_avoid(args) -> int:
    from .properties import is_avoiding

    patterns = [_read_matrix(p) for p in args.patterns]
    return _tri_valued(args, partial(is_avoiding, _read_matrix(args.q), patterns),
                       patterns=len(patterns))


def _cmd_abundant(args) -> int:
    from .properties import is_N_abundant

    return _tri_valued(args, partial(is_N_abundant, _input(args), args.arrows),
                       arrows=args.arrows)


def _cmd_acyclic(args) -> int:
    from .properties import is_mutation_acyclic

    return _tri_valued(args, partial(is_mutation_acyclic, _input(args)))


def _cmd_universal(args) -> int:
    from .properties import is_k_universal_bounded

    return _tri_valued(args, partial(is_k_universal_bounded, _input(args), args.k, args.w),
                       k=args.k, w=args.w)


def _cmd_density_witness(args) -> int:
    P, Q = _read_matrix(args.p), _read_matrix(args.q)
    R, vp, vq = density_witness(P, Q)
    if args.json:
        _print_json(
            {
                "union": to_json_dict(R),
                "p": {"verdict": vp.verdict.value, "witness": witness_json(vp.witness)},
                "q": {"verdict": vq.verdict.value, "witness": witness_json(vq.witness)},
            }
        )
    else:
        print(to_text(R))
        print(f"P embeds: {vp.verdict.value} subset={list(vp.witness.subset)}")
        print(f"Q embeds: {vq.verdict.value} subset={list(vq.witness.subset)}")
    return 0


def _cmd_universe(args) -> int:
    from .universe import build_universe, dump_universe

    budget = _budget(args)
    with _open_store(args) as store:
        u = build_universe(args.r, args.w, budget, family=args.family, store=store)
    text = dump_universe(u)
    unknown = sum(row.count("U") for row in u.relation)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"classes={len(u.classes)} unknown_pairs={unknown} -> {args.output}")
    else:
        print(text)
    return 0


def _cmd_hasse(args) -> int:
    from .universe import build_hasse, hasse_to_dot, load_universe

    u = load_universe(_read_text(args.universe))
    h = build_hasse(u, partial=args.partial)
    if args.dot:
        print(hasse_to_dot(h))
    elif args.json:
        witnesses = {(i, j): w for i, j, w in u.witnesses}
        edges = []
        for i, j in h.edges:
            lo, hi = u.classes[i], u.classes[j]
            ev = EmbedVerdict(Verdict.YES, witnesses[i, j], u.budget)
            if not replay_embedding(lo.seed, hi.seed, ev):
                raise ValueError(f"the witness of {lo.hash[:12]} into {hi.hash[:12]} does not replay")
            edges.append({"lower": lo.hash, "upper": hi.hash, "witness": witness_json(ev.witness)})
        _print_json(
            {
                "vertices": [cls.hash for cls in u.classes],
                "edges": edges,
                "unknown": [
                    [u.classes[i].hash, u.classes[j].hash] for i, j in h.unknown
                ],
                "budget": u.budget.to_json(),
            }
        )
    else:
        for i, j in h.edges:
            print(f"{u.classes[i].hash[:12]} -> {u.classes[j].hash[:12]}")
        for i, j in h.unknown:
            print(f"{u.classes[i].hash[:12]} ?? {u.classes[j].hash[:12]}")
    return 0


def _select_classes(args, u) -> list[str]:
    selected = [u.find(prefix).hash for prefix in args.cls or []]
    sources = [(source, _read_matrix(source)) for source in args.members]
    if args.matrix is not None:
        sources.append(("--matrix", from_inline(args.matrix, args.frozen or 0)))
    if sources:
        with _open_store(args) as store:
            for source, B in sources:
                key = class_key(B, u.budget, store)
                if key.hash not in u.hashes:
                    raise KeyError(
                        f"class {key.hash[:12]} of {source} is not in the universe"
                    )
                selected.append(key.hash)
    if not selected:
        raise ValueError("no classes selected (use --class or matrix files)")
    return selected


def _cmd_class_set(args) -> int:
    from .universe import closure, load_universe, open_set_generated

    generate = closure if args.command == "closure" else open_set_generated
    u = load_universe(_read_text(args.universe))
    ordered = sorted(generate(u, _select_classes(args, u)), key=u.index_of)
    if args.json:
        _print_json({"classes": ordered, "budget": u.budget.to_json()})
    else:
        for hash_ in ordered:
            key = u.class_of(hash_).key
            mat = key.form.matrix
            print(f"{hash_[:12]} n={mat.n} m={mat.m} status={key.status} [{to_inline(mat)}]")
    return 0


def _cmd_cache(args) -> int:
    from .store import Store, default_cache_dir

    directory = args.cache_dir or default_cache_dir()
    # only compaction writes, so only it takes the writer lock
    with Store(directory, readonly=args.action != "compact") as store:
        stats = store.compact() if args.action == "compact" else store.stats()
    print(" ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any other error: exit 2 means UNKNOWN."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    json_flag = _Parser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    budget = _Parser(add_help=False)
    budget.add_argument("--max-members", type=int, default=Budget().max_members)
    budget.add_argument("--max-entry", type=int, default=Budget().max_entry)
    budget.add_argument("--max-depth", type=int, default=None)

    cache = _Parser(add_help=False)
    cache.add_argument("--cache-dir", default=None, help="cache directory (default: $MUTOPO_CACHE_DIR or ~/.cache/mutopo)")
    cache.add_argument("--no-cache", action="store_true", help="disable the persistent cache")

    single = _Parser(add_help=False)  # exactly one matrix: a file, '-', or --matrix
    one = single.add_mutually_exclusive_group(required=True)
    one.add_argument("input", nargs="?", help="matrix file (JSON or text), '-' for stdin")
    one.add_argument("--matrix", help="inline matrix, rows separated by ';', e.g. '0 1;-1 0'")
    single.add_argument("--frozen", type=int, help="freeze the last K indices of an inline matrix")

    parser = _Parser(
        prog="mutopo",
        description="Quiver and skew-symmetrizable matrix mutation, mutation classes, "
        "the embedding poset, and the mutation class topology on finite universes.",
    )
    parser.add_argument("--version", action="version", version=f"mutopo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", parents=[single, json_flag], help="apply a mutation sequence")
    p.add_argument("--at", type=int, action="append", help="mutable index to mutate at (repeatable)")
    p.set_defaults(func=_cmd_mutate)

    asks = [budget, cache, json_flag]
    verdicts = [single, *asks]
    sub.add_parser("class", parents=verdicts, help="enumerate the mutation class").set_defaults(func=_cmd_class)
    sub.add_parser("finite", parents=verdicts, help="mutation-finiteness verdict").set_defaults(func=_cmd_finite)

    p = sub.add_parser("embeds", parents=asks, help="does [P] embed into [Q]?")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_embeds)

    p = sub.add_parser("avoid", parents=asks, help="is [Q] avoiding every pattern class?")
    p.add_argument("q")
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("abundant", parents=verdicts, help="N-abundance verdict")
    p.add_argument("-N", "--arrows", type=int, required=True, help="minimum arrows per mutable pair")
    p.set_defaults(func=_cmd_abundant)

    sub.add_parser("acyclic", parents=verdicts, help="mutation-acyclicity verdict").set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("universal", parents=verdicts, help="bounded k-universality verdict")
    p.add_argument("-k", type=int, required=True, help="rank bound of the test classes")
    p.add_argument("-w", type=int, required=True, help="entry bound of the test class seeds")
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("density-witness", parents=[json_flag], help="common upper bound via disjoint union")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_density_witness)

    p = sub.add_parser("universe", parents=[budget, cache], help="build a finite universe of classes")
    p.add_argument("-r", type=int, required=True, help="maximum rank")
    p.add_argument("-w", type=int, required=True, help="maximum seed entry")
    p.add_argument("--family", choices=["quiver", "skew"], default="quiver")
    p.add_argument("-o", "--output", help="write the universe JSON here")
    p.set_defaults(func=_cmd_universe)

    # the cache flags are accepted, as by every verb that answers, and unused:
    # the universe file holds every answer hasse prints
    p = sub.add_parser("hasse", parents=[cache], help="Hasse diagram of a universe file")
    p.add_argument("universe")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    output.add_argument("--dot", action="store_true")
    p.add_argument("--partial", action="store_true",
                   help="emit unresolved pairs as dashed edges instead of failing")
    p.set_defaults(func=_cmd_hasse)

    for name in ("closure", "open-set"):
        p = sub.add_parser(name, parents=[cache, json_flag],
                           help=f"{name.replace('-', ' ')} of classes in a universe")
        p.add_argument("universe")
        p.add_argument("members", nargs="*", help="matrix files selecting classes")
        p.add_argument("--class", dest="cls", action="append",
                       help="class hash prefix (repeatable)")
        p.add_argument("--matrix", help="inline matrix selecting a class")
        p.add_argument("--frozen", type=int)
        p.set_defaults(func=_cmd_class_set)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=["stats", "compact"])
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_cache)

    for p in sub.choices.values():  # so main reports usage errors as the verb
        p.set_defaults(verb_parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "frozen", None) is not None and args.matrix is None:
        args.verb_parser.error("--frozen applies to an inline --matrix only: a file declares its own")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
