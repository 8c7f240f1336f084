"""Command-line interface.

Every library operation is exposed as a verb with stable, machine-readable
output: human-oriented text by default, JSON with --json (budgets always
included so recorded verdicts are reproducible), DOT for Hasse diagrams
with --dot.

Exit codes: 0 for a resolved result, 2 for UNKNOWN (or a truncated
enumeration), 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
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
from .embed import density_witness, embeds, witness_json
from .matrix import (
    ExchangeMatrix,
    apply_sequence,
    from_inline,
    from_json_dict,
    from_text,
    to_json_dict,
    to_text,
)
from .properties import (
    is_avoiding,
    is_k_universal_bounded,
    is_mutation_acyclic,
    is_N_abundant,
)
from .store import Store, default_cache_dir
from .universe import (
    build_hasse,
    build_universe,
    closure,
    dump_universe,
    hasse_to_dot,
    load_universe,
    open_set_generated,
)


def _read_matrix_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text(encoding="utf-8")


def _parse_matrix(text: str) -> ExchangeMatrix:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return from_text(text)


def _load_inputs(args, attr="input") -> list[ExchangeMatrix]:
    matrices = []
    for source in getattr(args, attr, []) or []:
        matrices.append(_parse_matrix(_read_matrix_text(source)))
    if getattr(args, "matrix", None):
        matrices.append(from_inline(args.matrix, getattr(args, "frozen", 0) or 0))
    if not matrices:
        raise ValueError("no matrix given (pass a file path or --matrix)")
    return matrices


def _budget(args) -> Budget:
    return Budget(args.max_members, args.max_entry, args.max_depth)


def _open_store(args) -> Store:
    if getattr(args, "no_cache", False):
        return Store()  # in memory, for this call only
    directory = getattr(args, "cache_dir", None) or default_cache_dir()
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
    B = _load_inputs(args)[0]
    sequence = args.at or []
    result = apply_sequence(B, sequence)
    if args.json:
        _print_json({"matrix": to_json_dict(result), "sequence": sequence})
    else:
        print(to_text(result))
    return 0


def _cmd_class(args) -> int:
    B = _load_inputs(args)[0]
    budget = _budget(args)
    with _open_store(args) as store:
        enum = enumerate_class(B, budget, store)
    key = enum.least().form
    if args.json:
        _print_json(
            {
                "seed": enum.seed.hash,
                "status": enum.status,
                "class_key": key.hash,
                "members": [
                    {
                        "hash": mem.form.hash,
                        "matrix": to_json_dict(mem.form.matrix),
                        "witness": list(mem.witness),
                    }
                    for mem in enum.members
                ],
                "budget": asdict(budget),
            }
        )
    else:
        print(f"status={enum.status} members={enum.count} key={key.hash[:12]}")
        for mem in enum.members:
            seq = ",".join(str(k) for k in mem.witness)
            print(f"  {mem.form.hash[:12]} witness=[{seq}]")
    return 0 if enum.status == CLOSED else 2


def _cmd_finite(args) -> int:
    B = _load_inputs(args)[0]
    budget = _budget(args)
    with _open_store(args) as store:
        fv = is_mutation_finite(
            B, budget, infinite_exit=not args.no_infinite_exit, store=store
        )
    if args.json:
        _print_json(
            {
                "verdict": fv.kind.value,
                "members": fv.members,
                "witness": to_json_dict(fv.offender) if fv.offender is not None else None,
                "budget": asdict(budget),
            }
        )
    elif fv.kind is Finiteness.FINITE:
        print(f"FINITE members={fv.members}")
    else:
        print(fv.kind.value)
    return 2 if fv.kind is Finiteness.UNKNOWN else 0


def _cmd_embeds(args) -> int:
    P = _parse_matrix(_read_matrix_text(args.p))
    Q = _parse_matrix(_read_matrix_text(args.q))
    budget = _budget(args)
    with _open_store(args) as store:
        ev = embeds(P, Q, budget, store=store)
    if args.json:
        _print_json(
            {
                "verdict": ev.verdict.value,
                "witness": witness_json(ev.witness),
                "budget": asdict(budget),
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


def _tri_valued(args, verdict: Verdict, extra: dict) -> int:
    if args.json:
        _print_json({"verdict": verdict.value, "budget": asdict(_budget(args)), **extra})
    else:
        print(verdict.value)
    return _verdict_exit(verdict)


def _cmd_avoid(args) -> int:
    matrices = [_parse_matrix(_read_matrix_text(args.q))]
    patterns = [_parse_matrix(_read_matrix_text(p)) for p in args.patterns]
    budget = _budget(args)
    with _open_store(args) as store:
        verdict = is_avoiding(matrices[0], patterns, budget, store=store)
    return _tri_valued(args, verdict, {"patterns": len(patterns)})


def _cmd_abundant(args) -> int:
    B = _load_inputs(args)[0]
    budget = _budget(args)
    with _open_store(args) as store:
        verdict = is_N_abundant(B, args.arrows, budget, store=store)
    return _tri_valued(args, verdict, {"arrows": args.arrows})


def _cmd_acyclic(args) -> int:
    B = _load_inputs(args)[0]
    budget = _budget(args)
    with _open_store(args) as store:
        verdict = is_mutation_acyclic(B, budget, store=store)
    return _tri_valued(args, verdict, {})


def _cmd_universal(args) -> int:
    B = _load_inputs(args)[0]
    budget = _budget(args)
    with _open_store(args) as store:
        verdict = is_k_universal_bounded(B, args.k, args.w, budget, store=store)
    return _tri_valued(args, verdict, {"k": args.k, "w": args.w})


def _cmd_density_witness(args) -> int:
    P = _parse_matrix(_read_matrix_text(args.p))
    Q = _parse_matrix(_read_matrix_text(args.q))
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
    budget = _budget(args)
    with _open_store(args) as store:
        u = build_universe(args.r, args.w, budget, family=args.family, store=store)
    text = dump_universe(u)
    unknown = sum(row.count("U") for row in u.relation)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"classes={len(u)} unknown_pairs={unknown} -> {args.output}")
    else:
        print(text)
    return 0


def _cmd_hasse(args) -> int:
    u = load_universe(_read_matrix_text(args.universe))
    h = build_hasse(u, partial=args.partial)
    if args.dot:
        print(hasse_to_dot(h))
    elif args.json:
        edges = []
        with _open_store(args) as store:
            for i, j in h.edges:
                lo, hi = u.classes[i], u.classes[j]
                ev = embeds(lo.seed, hi.seed, u.budget, store=store)
                edges.append(
                    {
                        "lower": lo.hash,
                        "upper": hi.hash,
                        "witness": witness_json(ev.witness),
                    }
                )
        _print_json(
            {
                "vertices": [cls.hash for cls in u.classes],
                "edges": edges,
                "unknown": [
                    [u.classes[i].hash, u.classes[j].hash] for i, j in h.unknown
                ],
                "budget": asdict(u.budget),
            }
        )
    else:
        for i, j in h.edges:
            print(f"{u.classes[i].hash[:12]} -> {u.classes[j].hash[:12]}")
        for i, j in h.unknown:
            print(f"{u.classes[i].hash[:12]} ?? {u.classes[j].hash[:12]}")
    return 0


def _select_classes(args, u) -> list[str]:
    selected = []
    for prefix in args.cls or []:
        selected.append(u.find(prefix).hash)
    if args.members or getattr(args, "matrix", None):
        with _open_store(args) as store:
            for source in args.members:
                B = _parse_matrix(_read_matrix_text(source))
                key = class_key(B, u.budget, store)
                if key.hash not in u.hashes:
                    raise KeyError(
                        f"class {key.hash[:12]} of {source} is not in the universe"
                    )
                selected.append(key.hash)
            if getattr(args, "matrix", None):
                B = from_inline(args.matrix, getattr(args, "frozen", 0) or 0)
                key = class_key(B, u.budget, store)
                if key.hash not in u.hashes:
                    raise KeyError(f"class {key.hash[:12]} is not in the universe")
                selected.append(key.hash)
    if not selected:
        raise ValueError("no classes selected (use --class or matrix files)")
    return selected


def _cmd_closure(args) -> int:
    u = load_universe(_read_matrix_text(args.universe))
    result = closure(u, _select_classes(args, u))
    return _emit_class_set(args, u, result)


def _cmd_open_set(args) -> int:
    u = load_universe(_read_matrix_text(args.universe))
    result = open_set_generated(u, _select_classes(args, u))
    return _emit_class_set(args, u, result)


def _emit_class_set(args, u, hashes) -> int:
    ordered = sorted(hashes, key=u.index_of)
    if args.json:
        _print_json({"classes": ordered, "budget": asdict(u.budget)})
    else:
        for hash_ in ordered:
            cls = u.class_of(hash_)
            mat = cls.key.form.matrix
            rows = ";".join(" ".join(str(v) for v in row) for row in mat.b)
            print(f"{hash_[:12]} n={mat.n} m={mat.m} status={cls.key.status} [{rows}]")
    return 0


def _cmd_cache(args) -> int:
    directory = args.cache_dir or default_cache_dir()
    # only compaction writes, so only it takes the writer lock
    with Store(directory, readonly=args.action != "compact") as store:
        stats = store.compact() if args.action == "compact" else store.stats()
    print(" ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


# --- parser -------------------------------------------------------------------


def _add_budget_flags(parser):
    parser.add_argument("--max-members", type=int, default=Budget().max_members)
    parser.add_argument("--max-entry", type=int, default=Budget().max_entry)
    parser.add_argument("--max-depth", type=int, default=None)


def _add_cache_flags(parser):
    parser.add_argument("--cache-dir", default=None, help="cache directory (default: $MUTOPO_CACHE_DIR or ~/.cache/mutopo)")
    parser.add_argument("--no-cache", action="store_true", help="disable the persistent cache")


def _add_input_flags(parser):
    parser.add_argument("input", nargs="*", help="matrix file (JSON or text), '-' for stdin")
    parser.add_argument("--matrix", help="inline matrix, rows separated by ';', e.g. '0 1;-1 0'")
    parser.add_argument("--frozen", type=int, default=0, help="freeze the last K indices of an inline matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutopo",
        description="Quiver and skew-symmetrizable matrix mutation, mutation classes, "
        "the embedding poset, and the mutation class topology on finite universes.",
    )
    parser.add_argument("--version", action="version", version=f"mutopo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="apply a mutation sequence")
    _add_input_flags(p)
    p.add_argument("--at", type=int, action="append", help="mutable index to mutate at (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("class", help="enumerate the mutation class")
    _add_input_flags(p)
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("finite", help="mutation-finiteness verdict")
    _add_input_flags(p)
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--no-infinite-exit", action="store_true",
                   help="disable the classification-based INFINITE early exit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("embeds", help="does [P] embed into [Q]?")
    p.add_argument("p")
    p.add_argument("q")
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_embeds)

    p = sub.add_parser("avoid", help="is [Q] avoiding every pattern class?")
    p.add_argument("q")
    p.add_argument("patterns", nargs="+")
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("abundant", help="N-abundance verdict")
    _add_input_flags(p)
    p.add_argument("-N", "--arrows", type=int, required=True, help="minimum arrows per mutable pair")
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_abundant)

    p = sub.add_parser("acyclic", help="mutation-acyclicity verdict")
    _add_input_flags(p)
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("universal", help="bounded k-universality verdict")
    _add_input_flags(p)
    p.add_argument("-k", type=int, required=True, help="rank bound of the test classes")
    p.add_argument("-w", type=int, required=True, help="entry bound of the test class seeds")
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("density-witness", help="common upper bound via disjoint union")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_density_witness)

    p = sub.add_parser("universe", help="build a finite universe of classes")
    p.add_argument("-r", type=int, required=True, help="maximum rank")
    p.add_argument("-w", type=int, required=True, help="maximum seed entry")
    p.add_argument("--family", choices=["quiver", "skew"], default="quiver")
    p.add_argument("-o", "--output", help="write the universe JSON here")
    _add_budget_flags(p)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_universe)

    p = sub.add_parser("hasse", help="Hasse diagram of a universe file")
    p.add_argument("universe")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--partial", action="store_true",
                   help="emit unresolved pairs as dashed edges instead of failing")
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_hasse)

    for name, handler in (("closure", _cmd_closure), ("open-set", _cmd_open_set)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} of classes in a universe")
        p.add_argument("universe")
        p.add_argument("members", nargs="*", help="matrix files selecting classes")
        p.add_argument("--class", dest="cls", action="append",
                       help="class hash prefix (repeatable)")
        p.add_argument("--matrix", help="inline matrix selecting a class")
        p.add_argument("--frozen", type=int, default=0)
        _add_cache_flags(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=handler)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=["stats", "compact"])
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
