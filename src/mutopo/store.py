"""The one memo of class enumerations and embedding verdicts.

A :class:`Store` keeps one index per record kind: seed hash -> budget ->
enumeration, and (P hash, Q hash, budget) -> verdict.  ``Store()`` lives in
memory only; ``Store(directory)`` also persists every class enumeration to
``cache.jsonl`` in that directory.  Verdicts are kept in memory only, for
as long as the store lives: a YES or NO is recomputed from the served
enumerations of its two classes, and an UNKNOWN is never kept.

Format: one record per line, ``CRC<TAB>HEADER<TAB>MEMBERS``.  CRC is the
decimal CRC-32 of the bytes after the first tab; compact JSON holds no raw
tab, so the tabs split a line exactly.  HEADER is a JSON object with sorted
keys and compact separators, holding the fields a class record is indexed
by: its seed hash, ``shape`` [n, m], budget, status, tripped caps,
``stats`` (member count, largest entry, depth) and entry witness.  MEMBERS
is the JSON list of ``[canonical entries, witness]`` of each member in BFS
order, the seed first with witness ``[]``.  A line that begins with ``{``
is of an older format, and a line whose header has ``"kind":"embed"`` is an
older file's embedding verdict: open skips both and compaction drops them.
The file is append-only; compaction is explicit and rewrites it atomically
from the kept records: a record never decoded is verified and copied as
its line.

Keys are canonical-form hashes plus the exact budget, so isomorphic seeds
share entries and differing budgets never collide; a re-put of a key is a
no-op.  One order compares budgets: cap by cap, members, entry and depth,
where a depth of None is unbounded.  A CLOSED enumeration is additionally
served to any request its usage (member count, largest entry, depth + 1)
is at most in that order, because an untripped run is a function of the
seed alone; a TRUNCATED record is served only on an exact budget match,
which keeps warm and cold results bit-identical.  Compaction drops a
record whose budget is at most, and not equal to, another's for the same
seed.

Opening a store reads every line but decodes only its header: a class
record is indexed by the seed, budget, status and figures it claims, and
kept as its place in the file, which the store holds open.  Serving a
class record the first time checks the CRC of its line, refuses a JSON
boolean anywhere in it, builds the seed from the first member's entries
and checks its hash, replays each member's witness from the seed (one
mutation and one canonical form per member), whose canonical entries must
equal the stored ones, and checks its figures, the status among them:
CLOSED exactly when no cap tripped; so does compaction.  A failure raises
:class:`CorruptRecord` with the line number.

Concurrency: single writer (guarded by an advisory lock file), any number
of readers.  A trailing partial line is a torn write and reads as absent;
a writer cuts it off before its first append.
"""

from __future__ import annotations

import json
import operator
import os
import zlib
from collections import namedtuple
from pathlib import Path

from .canonical import canonical_form
from .classes import CLOSED, Budget, ClassEnumeration, Member, Verdict
from .matrix import ExchangeMatrix, build, from_json_dict, mutate, to_json_dict

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

CACHE_FILE = "cache.jsonl"
LOCK_FILE = "cache.lock"
ENV_CACHE_DIR = "MUTOPO_CACHE_DIR"


class CorruptRecord(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"cache line {line_no}: {reason}")
        self.line_no = line_no


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _record_line(header: dict, members) -> bytes:
    """``CRC<TAB>HEADER<TAB>MEMBERS`` and its newline.  The members are
    encoded one at a time: the encoder keeps every token of its input until
    it returns, many times the line's size."""
    body = _encode(header) + "\t[" + ",".join(map(_encode, members)) + "]"
    body = body.encode("ascii")  # the encoder escapes every non-ASCII character
    return b"%d\t%s\n" % (zlib.crc32(body), body)


def _body(line: bytes, line_no: int) -> bytes:
    """``HEADER<TAB>MEMBERS`` of a line, once its CRC matches them and it
    holds no JSON boolean, which would index and compare as 1 or 0 (no
    string of the format holds either word)."""
    crc, _, body = line.rstrip(b"\n").partition(b"\t")
    if crc != b"%d" % zlib.crc32(body):
        raise CorruptRecord(line_no, "checksum mismatch")
    if b"true" in body or b"false" in body:
        raise CorruptRecord(line_no, "a JSON boolean where an integer belongs")
    return body


# the errors a record that does not decode raises: a missing field, a
# witness index out of range, an invalid matrix, ...
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


def _malformed(line_no: int, exc: Exception) -> CorruptRecord:
    return CorruptRecord(line_no, f"malformed class record ({type(exc).__name__}: {exc})")


def _class_line(enum: ClassEnumeration) -> bytes:
    header = {
        "kind": "class",
        "seed": enum.seed.hash,
        "shape": [enum.seed.n, enum.seed.m],
        "budget": list(enum.budget.key()),
        "status": enum.status,
        "tripped": sorted(enum.tripped),
        "stats": [enum.count, enum.max_abs_entry, enum.depth],
        "entry_witness": (
            to_json_dict(enum.entry_witness) if enum.entry_witness is not None else None
        ),
    }
    return _record_line(header, [(mem.form.key, mem.witness) for mem in enum.members])


def _replay(seed_matrix: ExchangeMatrix, witnesses: list[tuple]) -> list[ExchangeMatrix]:
    """Matrices the witnesses reach from the seed, as ``apply_sequence`` would.

    Every reached prefix is memoized, so a witness that extends another
    member's witness by one step (as BFS witnesses do) costs one mutation.
    """
    reached: dict[tuple, ExchangeMatrix] = {(): seed_matrix}
    out = []
    for witness in witnesses:
        t = len(witness)
        while witness[:t] not in reached:
            t -= 1
        matrix = reached[witness[:t]]
        for t in range(t + 1, len(witness) + 1):
            matrix = mutate(matrix, witness[t - 1])
            reached[witness[:t]] = matrix
        out.append(matrix)
    return out


def _class_from_record(header: dict, members: list, line_no: int) -> ClassEnumeration:
    # the file is a boundary: the seed is built, not trusted
    n, m = header["shape"]
    seed_entries, seed_witness = members[0]
    size = n + m
    rows = [seed_entries[i : i + size] for i in range(0, len(seed_entries), size)]
    seed_matrix = build(n, m, rows)
    seed = canonical_form(seed_matrix)
    if seed_witness != [] or seed.hash != header["seed"]:
        raise CorruptRecord(line_no, "the first member is not the seed")
    witnesses = [tuple(witness) for _, witness in members]
    replayed = _replay(seed_matrix, witnesses)
    out = []
    for (entries, _), witness, reached in zip(members, witnesses, replayed):
        # the stored entries must be the canonical form of what the witness
        # reaches from the seed
        form = canonical_form(reached)
        if list(form.key) != entries:
            raise CorruptRecord(line_no, f"member {len(out) + 1} fails witness replay")
        out.append(Member(form, witness, reached))
    entry_witness = header["entry_witness"]
    return ClassEnumeration(
        seed=seed,
        members=tuple(out),
        tripped=frozenset(header["tripped"]),
        entry_witness=None if entry_witness is None else from_json_dict(entry_witness),
        budget=Budget(*header["budget"]),
    )


# A class record not yet served: where its line is, and the figures it
# claims, which Store.get_class matches budgets against.
_Indexed = namedtuple("_Indexed", "offset line_no seed budget status count max_abs_entry depth")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(base).expanduser() / "mutopo"


def _at_most(a: tuple, b: tuple) -> bool:
    """The one budget order: is each cap of the ``(members, entry, depth)``
    triple ``a`` at most the same cap of ``b``?  A depth of None is
    unbounded."""
    (am, ae, ad), (bm, be, bd) = a, b
    return am <= bm and ae <= be and (bd is None or (ad is not None and ad <= bd))


class Store:
    """The memo of class enumerations and embedding verdicts.

    ``Store()`` keeps records in memory only: no file and no lock.
    ``Store(directory)`` also loads ``cache.jsonl`` from that directory and
    appends every new class enumeration to it; the advisory lock file
    rejects a second concurrent writer.  Open with ``readonly=True`` to
    share a cache that another process may be writing: new enumerations are
    then kept in memory only.  Verdicts are always kept in memory only.
    """

    def __init__(self, directory=None, readonly: bool = False):
        self.directory = None if directory is None else Path(directory)
        self.path = None if directory is None else self.directory / CACHE_FILE
        self.readonly = readonly
        self._lock_handle = None
        # the cache file as opened: indexed class records are read back
        # from it, even after a compaction replaced the file
        self._file = None
        # where a torn final line starts, cut off before the first append
        self._torn_at = None
        # seed hash -> budget key -> enumeration, or where its line is until
        # first served
        self._classes: dict[str, dict[tuple, ClassEnumeration | _Indexed]] = {}
        # (seed hash, budget key) -> a CLOSED record served to a wider budget
        self._widened: dict[tuple[str, tuple], ClassEnumeration] = {}
        # (P hash, Q hash, budget key) -> verdict, in memory only
        self._embeds = {}
        # lines open read but left out of the index: lines of an older
        # format, an older file's embed verdicts and the later lines of a
        # repeated key
        self._skipped = 0
        if self.directory is None:
            return
        if not readonly:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
        try:
            self._load()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -------------------------------------------------------

    def _acquire_lock(self):
        handle = open(self.directory / LOCK_FILE, "w")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise RuntimeError(
                    f"cache at {self.directory} is locked by another writer"
                ) from None
        self._lock_handle = handle

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._lock_handle is not None:
            if fcntl is not None:
                fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            self._lock_handle.close()
            self._lock_handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- loading ---------------------------------------------------------

    def _load(self):
        if not self.path.exists():
            return
        self._file = open(self.path, "rb")
        offset = 0
        for line_no, line in enumerate(self._file, start=1):
            if not line.endswith(b"\n"):  # a torn final write reads as absent
                self._torn_at = offset
                break
            self._ingest(line, line_no, offset)
            offset += len(line)

    def _ingest(self, line: bytes, line_no: int, offset: int):
        if line.startswith(b"{"):  # an older format's line: compaction drops it
            self._skipped += 1
            return
        header = line.partition(b"\t")[2].partition(b"\t")[0].rstrip(b"\n")
        try:
            obj = json.loads(header)
        except ValueError as exc:  # also a UnicodeDecodeError
            reason = f"header is not valid JSON ({getattr(exc, 'msg', exc)})"
            raise CorruptRecord(line_no, reason) from None
        if not isinstance(obj, dict):
            raise CorruptRecord(line_no, "header is not a JSON object")
        kind = obj.get("kind")
        if kind == "embed":  # an older file's verdict: verdicts stay in memory
            self._skipped += 1
            return
        if kind != "class":
            raise CorruptRecord(line_no, f"unknown record kind {kind!r}")
        try:  # indexed only: checked when first served
            budget = Budget(*obj["budget"]).key()
            stats = map(operator.index, obj["stats"])
            entry = _Indexed(offset, line_no, obj["seed"], budget, obj["status"], *stats)
            by_budget = self._classes.setdefault(entry.seed, {})
        except _MALFORMED as exc:
            raise _malformed(line_no, exc) from None
        if budget in by_budget:
            self._skipped += 1
        else:
            by_budget[budget] = entry

    # -- class records -----------------------------------------------------

    def get_class(self, seed_hash: str, budget: Budget) -> ClassEnumeration | None:
        by_budget = self._classes.get(seed_hash, {})
        key = budget.key()
        if key in by_budget:
            return self._decoded(by_budget, key)
        if (seed_hash, key) in self._widened:
            return self._widened[seed_hash, key]
        for other, enum in by_budget.items():
            # a CLOSED run of depth d tried every sequence of length d + 1
            usage = (enum.count, enum.max_abs_entry, enum.depth + 1)
            if enum.status == CLOSED and _at_most(usage, key):
                served = self._decoded(by_budget, other)
                widened = served._replace(budget=budget)
                self._widened[seed_hash, key] = widened
                return widened
        return None

    def _line(self, entry: _Indexed) -> bytes:
        self._file.seek(entry.offset)
        return self._file.readline()

    def _decoded(self, by_budget: dict, key: tuple) -> ClassEnumeration:
        enum = by_budget[key]
        if isinstance(enum, _Indexed):
            enum = by_budget[key] = self._verified(enum, self._line(enum))
        return enum

    def _verified(self, entry: _Indexed, line: bytes) -> ClassEnumeration:
        """Decode ``entry``'s ``line`` through its CRC, seed, member replay and figures checks."""
        header, _, members = _body(line, entry.line_no).partition(b"\t")
        try:
            # MEMBERS holds integers only, and int() refuses the text of a float
            members = json.loads(members, parse_float=int)
            enum = _class_from_record(json.loads(header), members, entry.line_no)
        except CorruptRecord:
            raise
        except _MALFORMED as exc:
            raise _malformed(entry.line_no, exc) from None
        figures = (enum.seed.hash, enum.budget.key(), enum.status, enum.count,
                   enum.max_abs_entry, enum.depth)
        if figures != entry[2:]:
            raise CorruptRecord(entry.line_no, "figures differ from its members")
        return enum

    def put_class(self, enum: ClassEnumeration):
        by_budget = self._classes.setdefault(enum.seed.hash, {})
        if enum.budget.key() not in by_budget:  # a re-put is idempotent
            by_budget[enum.budget.key()] = enum
            self._append(enum)

    def _append(self, enum: ClassEnumeration):
        if self.path is None or self.readonly:  # nothing to encode the record for
            return
        line = _class_line(enum)
        with open(self.path, "ab") as f:
            if self._torn_at is not None:
                f.truncate(self._torn_at)
                self._torn_at = None
            f.write(line)

    # -- embedding verdicts, in memory only ---------------------------------

    def get_embed(self, p_hash: str, q_hash: str, budget: Budget):
        """The verdict on whether [P] embeds into [Q] under ``budget``, or None."""
        return self._embeds.get((p_hash, q_hash, budget.key()))

    def put_embed(self, p_hash: str, q_hash: str, ev):
        if ev.verdict is not Verdict.UNKNOWN:  # which budget tripped first is no fact
            self._embeds.setdefault((p_hash, q_hash, ev.budget.key()), ev)

    # -- maintenance --------------------------------------------------------

    def compact(self) -> dict:
        """Drop class records whose budget another record for the same seed
        strictly dominates, then rewrite the file atomically from the index; a
        class line never served is checked (and decoded) first.  The lines
        open skipped count among the records and the dropped."""
        records = self.stats()["records"] + self._skipped
        self._classes = {
            seed: {key: rec for key, rec in by_budget.items()
                   if not any(other != key and _at_most(key, other) for other in by_budget)}
            for seed, by_budget in self._classes.items()
        }
        before = self._file_bytes()
        if self.path is not None and not self.readonly:
            tmp = self.path.with_suffix(".jsonl.tmp")
            lines = []
            for by_budget in self._classes.values():
                for enum in by_budget.values():
                    if isinstance(enum, _Indexed):  # checked, then dropped: memory stays flat
                        lines.append(self._line(enum))
                        self._verified(enum, lines[-1])
                    else:
                        lines.append(_class_line(enum))
            tmp.write_bytes(b"".join(lines))
            os.replace(tmp, self.path)
            self._torn_at = None
            self._skipped = 0
        kept = self.stats()["records"]
        return {
            "records": records,
            "kept": kept,
            "dropped": records - kept,
            "bytes_before": before,
            "bytes_after": self._file_bytes(),
        }

    def _file_bytes(self) -> int:
        return self.path.stat().st_size if self.path is not None and self.path.exists() else 0

    def stats(self) -> dict:
        return {
            "records": sum(map(len, self._classes.values())),
            "skipped": self._skipped,
            "path": None if self.path is None else str(self.path),
        }
