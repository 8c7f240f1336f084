"""The one memo of class enumerations and embedding verdicts.

A :class:`Store` keeps one index per record kind: seed hash -> budget ->
enumeration, and (P hash, Q hash) -> budget -> verdict.  ``Store()`` lives
in memory only; ``Store(directory)`` also persists every record to
``cache.jsonl`` in that directory.

It keeps only facts that took an enumeration: class enumerations, and the
YES and NO embedding verdicts that read one.  An UNKNOWN records only which
budget tripped first under the rules of its day: it is never kept, and the
UNKNOWN lines an older file holds are skipped at open.

Format: one JSON object per line, serialized with sorted keys and compact
separators, each carrying a ``crc`` field: the CRC-32 of the line's bytes
with its ``,"crc":N`` field cut out, so a line in any other encoding fails
it.  The file is append-only; compaction is explicit and rewrites it
atomically from the kept records: a record never decoded is verified and
copied as its line.

Keys are canonical-form hashes plus the exact budget, so isomorphic seeds
share entries and differing budgets never collide; a re-put of a key is a
no-op.  A CLOSED enumeration is additionally served to any request whose
budget its recorded usage fits inside, because an untripped run is a
function of the seed alone; a TRUNCATED record is served only on an exact
budget match, which keeps warm and cold results bit-identical.

Opening a store reads every line but parses a class record without its
member array, which it never decodes there: the record is indexed by the
seed, budget, status and figures it claims, and kept as its place in the
file, which the store holds open.  Embed records, which are small, are
checked against their CRC and decoded.  Serving a class record the first
time checks the CRC of its line, replays each member's witness from the
seed (one mutation and one canonical form per member) against the stored
hash and matrix, and checks its figures; so does compaction.  A failure
raises :class:`CorruptRecord` with the line number.

Concurrency: single writer (guarded by an advisory lock file), any number
of readers.  A trailing partial line is a torn write and reads as absent;
a writer cuts it off before its first append.
"""

from __future__ import annotations

import json
import operator
import os
import re
import zlib
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

from .canonical import CanonicalForm, canonical_form
from .classes import CLOSED, Budget, ClassEnumeration, Member, Verdict
from .embed import EmbedVerdict, EmbedWitness, witness_json
from .matrix import ExchangeMatrix, from_json_dict, mutate, to_json_dict

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


def _canonical_line(record: dict) -> str:
    """``json.dumps(record, sort_keys=True, separators=(",", ":"))``, with
    the members of a class record encoded one at a time: the encoder keeps
    every token of its input until it returns, many times the line's size."""
    return "{" + ",".join(
        _encode(key) + ":"
        + (
            "[" + ",".join(map(_encode, value)) + "]"
            if key == "members" and isinstance(value, list)
            else _encode(value)
        )
        for key, value in sorted(record.items())
    ) + "}"


_CRC_FIELD = re.compile(rb',"crc":(\d+)')


def _cut_crc(line: bytes):
    """``(rest, at, crc)``: the line without its ``,"crc":N`` field, the
    offset the field was cut at, and N; None for a line without one."""
    field = _CRC_FIELD.search(line)
    if field is not None:
        return line[: field.start()] + line[field.end():], field.start(), int(field[1])


def _with_crc(record: dict) -> bytes:
    """The record's line, encoded once: a placeholder ``crc`` field lands in
    its sorted-key place and is replaced by the CRC-32 of the rest."""
    rest, at, _ = _cut_crc(_canonical_line({**record, "crc": 0}).encode("utf-8"))
    return b'%s,"crc":%d%s' % (rest[:at], zlib.crc32(rest), rest[at:])


def _check_crc(line: bytes, line_no: int) -> bytes:
    """The line, checked: cut of its ``,"crc":N`` field, its CRC-32 is N."""
    cut = _cut_crc(line)
    if cut is None or zlib.crc32(cut[0]) != cut[2]:
        raise CorruptRecord(line_no, "checksum mismatch")
    return line


def _index_fields(line: bytes) -> bytes:
    """The line with a class record's member array cut out, which leaves
    the fields open indexes it by; any other line as it is."""
    head = line.find(b',"members":[')
    tail = line.rfind(b'],"seed":')
    return line[:head] + line[tail + 1:] if 0 <= head < tail else line


class _malformed_is_corrupt:
    """A record that does not decode (a missing field, a witness index out
    of range, an invalid matrix, ...) raises :class:`CorruptRecord`.  A
    class, not a generator, because open enters one per line."""

    malformed = (KeyError, IndexError, TypeError, ValueError)

    def __init__(self, line_no: int, kind):
        self.line_no, self.kind = line_no, kind

    def __enter__(self):
        pass

    def __exit__(self, _type, exc, _tb):
        if isinstance(exc, self.malformed) and not isinstance(exc, CorruptRecord):
            raise CorruptRecord(
                self.line_no, f"malformed {self.kind} record ({type(exc).__name__}: {exc})"
            ) from None


def _budget_list(budget: Budget) -> list:
    return [budget.max_members, budget.max_entry, budget.max_depth]


def _form_json(form: CanonicalForm) -> dict:
    """``to_json_dict(form.matrix)``, keeping no matrix on a stored member's form."""
    return to_json_dict(ExchangeMatrix(form.n, form.m, form.rows()))


def _class_record(enum: ClassEnumeration) -> dict:
    return {
        "kind": "class",
        "seed": enum.seed.hash,
        "budget": _budget_list(enum.budget),
        "status": enum.status,
        "tripped": sorted(enum.tripped),
        "class_key": enum.least().form.hash,
        "stats": [enum.count, enum.max_abs_entry, enum.depth],
        "members": [
            [mem.form.hash, _form_json(mem.form), mem.witness]
            for mem in enum.members
        ],
        "entry_witness": (
            to_json_dict(enum.entry_witness) if enum.entry_witness is not None else None
        ),
    }


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


def _class_from_record(record: dict, line_no: int) -> ClassEnumeration:
    seed_hash = record["seed"]
    seed_matrix = None
    for hash_, matrix_obj, _ in record["members"]:
        if hash_ == seed_hash:
            seed_matrix = from_json_dict(matrix_obj)
            break
    if seed_matrix is None:
        raise CorruptRecord(line_no, "seed hash is not among the members")
    witnesses = [tuple(witness) for _, _, witness in record["members"]]
    members = []
    for (hash_, matrix_obj, _), witness, reached in zip(
        record["members"], witnesses, _replay(seed_matrix, witnesses)
    ):
        # the stored hash and matrix must both be the canonical form of
        # what the witness reaches from the seed
        form = canonical_form(reached)
        if form.hash != hash_ or _form_json(form) != matrix_obj:
            raise CorruptRecord(line_no, f"member {hash_[:12]} fails witness replay")
        members.append(Member(form, witness, reached))
    entry_witness = record.get("entry_witness")
    entry_witness = None if entry_witness is None else from_json_dict(entry_witness)
    return ClassEnumeration(
        seed=canonical_form(seed_matrix),
        members=tuple(members),
        status=record["status"],
        tripped=frozenset(record["tripped"]),
        entry_witness=entry_witness,
        budget=Budget(*record["budget"]),
    )


def _embed_record(p_hash: str, q_hash: str, ev: EmbedVerdict) -> dict:
    return {
        "kind": "embed",
        "p": p_hash,
        "q": q_hash,
        "budget": _budget_list(ev.budget),
        "verdict": ev.verdict.value,
        "witness": witness_json(ev.witness),
    }


def _embed_from_record(record: dict) -> EmbedVerdict:
    w = record.get("witness")
    witness = None if w is None else EmbedWitness(
        tuple(w["q_sequence"]), tuple(w["subset"]), tuple(w["p_sequence"])
    )
    return EmbedVerdict(Verdict(record["verdict"]), witness, Budget(*record["budget"]))


# A class record not yet served: where its line is, and the figures it
# claims, which Store.get_class matches budgets against.
_Indexed = namedtuple("_Indexed", "offset line_no seed budget status count max_abs_entry depth")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(base).expanduser() / "mutopo"


def _dominated(budget: tuple, others) -> bool:
    """Is ``budget`` strictly below one of ``others``, componentwise?  A
    depth of None is unbounded."""
    am, ae, ad = budget
    for bm, be, bd in others:
        le = am <= bm and ae <= be and (bd is None or (ad is not None and ad <= bd))
        if le and (am, ae, ad) != (bm, be, bd):
            return True
    return False


class Store:
    """The memo of class enumerations and embedding verdicts.

    ``Store()`` keeps records in memory only: no file and no lock.
    ``Store(directory)`` also loads ``cache.jsonl`` from that directory and
    appends every new record to it; the advisory lock file rejects a second
    concurrent writer.  Open with ``readonly=True`` to share a cache that
    another process may be writing: new records are then kept in memory
    only.
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
        # (P hash, Q hash) -> budget key -> verdict
        self._embeds: dict[tuple[str, str], dict[tuple, EmbedVerdict]] = {}
        # lines open read but left out of the indexes: an older file's
        # UNKNOWN verdicts and the later lines of a repeated key
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
        try:
            obj = json.loads(_index_fields(line).decode("utf-8"))
        except ValueError as exc:  # also a UnicodeDecodeError
            raise CorruptRecord(line_no, f"not valid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(obj, dict) or "crc" not in obj:
            raise CorruptRecord(line_no, "missing crc field")
        kind = obj.get("kind")
        with _malformed_is_corrupt(line_no, kind):
            if kind == "class":  # indexed only: checked when first served
                budget = Budget(*obj["budget"]).key()
                stats = map(operator.index, obj["stats"])
                entry = _Indexed(offset, line_no, obj["seed"], budget, obj["status"], *stats)
                by_budget = self._classes.setdefault(entry.seed, {})
            elif kind == "embed":
                _check_crc(line[:-1], line_no)
                entry = _embed_from_record(obj)
                budget = entry.budget.key()
                by_budget = (
                    None  # an older file's UNKNOWN: never served
                    if entry.verdict is Verdict.UNKNOWN
                    else self._embeds.setdefault((obj["p"], obj["q"]), {})
                )
            else:
                raise CorruptRecord(line_no, f"unknown record kind {kind!r}")
            if by_budget is None or budget in by_budget:
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
            fits = (
                enum.status == CLOSED
                and enum.count <= budget.max_members
                and enum.max_abs_entry <= budget.max_entry
                and (budget.max_depth is None or enum.depth + 1 <= budget.max_depth)
            )
            if fits:
                widened = replace(self._decoded(by_budget, other), budget=budget)
                self._widened[seed_hash, key] = widened
                return widened
        return None

    def _line(self, entry: _Indexed) -> bytes:
        self._file.seek(entry.offset)
        return self._file.readline().rstrip(b"\n")

    def _decoded(self, by_budget: dict, key: tuple) -> ClassEnumeration:
        enum = by_budget[key]
        if isinstance(enum, _Indexed):
            enum = by_budget[key] = self._verified(enum)
        return enum

    def _verified(self, entry: _Indexed) -> ClassEnumeration:
        """Decode a record through its CRC, member replay and figures checks."""
        line = _check_crc(self._line(entry), entry.line_no)
        with _malformed_is_corrupt(entry.line_no, "class"):
            enum = _class_from_record(json.loads(line), entry.line_no)
        figures = (enum.seed.hash, enum.budget.key(), enum.status, enum.count,
                   enum.max_abs_entry, enum.depth)
        if figures != entry[2:]:
            raise CorruptRecord(entry.line_no, "figures differ from its members")
        return enum

    def put_class(self, enum: ClassEnumeration):
        by_budget = self._classes.setdefault(enum.seed.hash, {})
        if enum.budget.key() not in by_budget:  # a re-put is idempotent
            by_budget[enum.budget.key()] = enum
            self._append(_class_record, enum)

    # -- embed records ------------------------------------------------------

    def get_embed(self, p_hash: str, q_hash: str, budget: Budget) -> EmbedVerdict | None:
        return self._embeds.get((p_hash, q_hash), {}).get(budget.key())

    def put_embed(self, p_hash: str, q_hash: str, ev: EmbedVerdict):
        if ev.verdict is Verdict.UNKNOWN:  # which budget tripped first is no fact
            return
        by_budget = self._embeds.setdefault((p_hash, q_hash), {})
        if ev.budget.key() not in by_budget:  # a re-put is idempotent
            by_budget[ev.budget.key()] = ev
            self._append(_embed_record, p_hash, q_hash, ev)

    def _append(self, record_of, *args):
        if self.path is None or self.readonly:  # nothing to encode the record for
            return
        line = _with_crc(record_of(*args)) + b"\n"
        with open(self.path, "ab") as f:
            if self._torn_at is not None:
                f.truncate(self._torn_at)
                self._torn_at = None
            f.write(line)

    # -- maintenance --------------------------------------------------------

    def compact(self) -> dict:
        """Drop records whose budget another record for the same key strictly
        dominates, then rewrite the file atomically from the index, which holds
        no UNKNOWN; a class line never served is checked (and decoded) first.
        The lines open skipped count among the records and the dropped."""
        records = self.stats()["records"] + self._skipped
        self._classes, self._embeds = (
            {at: {key: rec for key, rec in by_budget.items() if not _dominated(key, by_budget)}
             for at, by_budget in index.items()}
            for index in (self._classes, self._embeds)
        )
        before = self._file_bytes()
        if self.path is not None and not self.readonly:
            tmp = self.path.with_suffix(".jsonl.tmp")
            lines = []
            for by_budget in self._classes.values():
                for enum in by_budget.values():
                    if isinstance(enum, _Indexed):
                        self._verified(enum)  # then dropped: memory stays flat
                        lines.append(self._line(enum))
                    else:
                        lines.append(_with_crc(_class_record(enum)))
            lines.extend(
                _with_crc(_embed_record(p, q, ev))
                for (p, q), by_budget in self._embeds.items() for ev in by_budget.values()
            )
            tmp.write_bytes(b"".join(line + b"\n" for line in lines))
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
        classes, embeds = (sum(map(len, index.values())) for index in (self._classes, self._embeds))
        return {
            "records": classes + embeds,
            "classes": classes,
            "embeds": embeds,
            "path": str(self.path),
        }
