import json
import shutil
import zlib
from pathlib import Path

import pytest

import mutopo.classes
import mutopo.store
from conftest import quiver, weighted_pair
from mutopo import (
    Budget,
    CorruptRecord,
    EmbedVerdict,
    Store,
    Verdict,
    build,
    build_universe,
    canonical_form,
    default_cache_dir,
    embeds,
    enumerate_class,
    is_avoiding,
    is_k_universal_bounded,
)
from mutopo.canonical import CanonicalForm
from mutopo.cli import main
from mutopo.store import _class_line, _record_line

DATA = Path(__file__).parent / "data"
# the cache.jsonl of `mutopo universe -r 3 -w 1`: 7 class records.
# Regenerate it with `mutopo universe -r 3 -w 1 --cache-dir DIR` and copy
# DIR/cache.jsonl here.
GOLDEN = DATA / "cache_r3w1.jsonl"
# the same command's cache from before verdicts were kept in memory only:
# the same 7 class lines, and 13 embed lines (header only, no MEMBERS)
GOLDEN_V2 = DATA / "cache_r3w1_v2.jsonl"
# the same command's cache in an older format, one JSON object a line with
# its CRC inside and each member as a hash and a matrix: 7 class and 49
# embed records, from before verdicts that need no enumeration went unstored
GOLDEN_V1 = DATA / "cache_r3w1_v1.jsonl"


def _parse(line: bytes) -> dict:
    """A cache line's header fields, with its members under "members"."""
    _, header, *members = line.rstrip(b"\n").split(b"\t")
    record = json.loads(header)
    if members:
        record["members"] = json.loads(members[0])
    return record


def _unparse(record: dict) -> bytes:
    """The line of a record as :func:`_parse` returns it, with a fresh CRC."""
    header = {key: value for key, value in record.items() if key != "members"}
    return _record_line(header, record["members"])


def _embed_line(p: str, q: str, budget: Budget, verdict: Verdict) -> bytes:
    """An embed line as an older file holds it: ``CRC<TAB>HEADER``."""
    header = {"kind": "embed", "p": p, "q": q, "budget": list(budget.key()),
              "verdict": verdict.value, "witness": None}
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"%d\t%s\n" % (zlib.crc32(body), body)


def test_get_on_empty_cache_is_absent(tmp_path, a3):
    with Store(tmp_path) as store:
        assert store.get_class(canonical_form(a3).hash, Budget()) is None
        assert store.get_embed("00", "11", Budget()) is None


def test_class_round_trip_is_identical(tmp_path, a3):
    enum = enumerate_class(a3)
    with Store(tmp_path) as store:
        store.put_class(enum)
    before = (tmp_path / "cache.jsonl").read_bytes()
    with Store(tmp_path) as store:
        again = store.get_class(enum.seed.hash, enum.budget)
        assert again == enum
        store.put_class(again)  # idempotent re-put
    assert (tmp_path / "cache.jsonl").read_bytes() == before


def test_embed_round_trip(tmp_path, a2, a3):
    p, q = canonical_form(a2).hash, canonical_form(a3).hash
    with Store(tmp_path) as store:
        fresh = embeds(a2, a3, store=store)
        assert store.get_embed(p, q, Budget()) is fresh  # kept while the store lives
    with Store(tmp_path) as store:  # the file holds the two classes, and no verdict
        assert store.stats()["records"] == 2 and store.get_embed(p, q, Budget()) is None
        cached = embeds(a2, a3, store=store)
    assert cached == fresh


def test_cached_equals_fresh_recomputation(tmp_path, a2, a3, markov):
    pairs = [(a2, a3), (weighted_pair(3), markov), (a3, a3)]
    with Store(tmp_path) as store:
        warm = [embeds(p, q, store=store) for p, q in pairs]
    cold = [embeds(p, q) for p, q in pairs]
    assert warm == cold


def test_closed_record_served_for_fitting_budgets(tmp_path, a3):
    enum = enumerate_class(a3)  # closes with 4 members, max entry 1, depth 1
    with Store(tmp_path) as store:
        store.put_class(enum)
        seed = enum.seed.hash
        assert store.get_class(seed, Budget(max_members=4, max_entry=1)) is not None
        assert store.get_class(seed, Budget(max_members=3)) is None
        assert store.get_class(seed, Budget(max_entry=1, max_depth=2)) is not None
        assert store.get_class(seed, Budget(max_depth=1)) is None


def test_a_closed_record_of_depth_d_is_served_from_max_depth_d_plus_one(tmp_path, a4):
    enum = enumerate_class(a4)
    d = enum.depth
    with Store(tmp_path) as store:
        store.put_class(enum)
        seed = enum.seed.hash
        assert store.get_class(seed, Budget(max_depth=d + 1)).members == enum.members
        assert store.get_class(seed, Budget(max_depth=d)) is None
        fits = Budget(enum.count, enum.max_abs_entry, d + 1)  # every cap at its usage
        assert store.get_class(seed, fits).members == enum.members
        for tighter in (fits._replace(max_members=enum.count - 1),
                        fits._replace(max_entry=enum.max_abs_entry - 1)):
            assert store.get_class(seed, tighter) is None


@pytest.mark.parametrize(
    "budgets, kept",
    [
        ((Budget(max_depth=3), Budget()), [Budget()]),
        ((Budget(), Budget(max_depth=3)), [Budget()]),
        ((Budget(max_members=2), Budget(max_members=1000, max_depth=3)),
         [Budget(max_members=2), Budget(max_members=1000, max_depth=3)]),
        ((Budget(max_members=2, max_depth=2), Budget(max_depth=3)), [Budget(max_depth=3)]),
    ],
    ids=["finite-below-none", "none-above-finite", "none-beside-finite", "both-finite"],
)
def test_compact_orders_depths_with_none_unbounded(tmp_path, a3, budgets, kept):
    with Store(tmp_path) as store:
        for budget in budgets:
            store.put_class(enumerate_class(a3, budget))
        stats = store.compact()
    assert stats["kept"] == len(kept) and stats["dropped"] == len(budgets) - len(kept)
    with Store(tmp_path) as store:
        assert sorted(store._classes[canonical_form(a3).hash]) == sorted(b.key() for b in kept)


def test_truncated_record_needs_exact_budget(tmp_path, w333):
    budget = Budget(max_entry=6)
    enum = enumerate_class(w333, budget)
    assert enum.status == "TRUNCATED"
    with Store(tmp_path) as store:
        store.put_class(enum)
        seed = enum.seed.hash
        assert store.get_class(seed, budget) == enum
        assert store.get_class(seed, Budget(max_entry=7)) is None


def test_corrupt_crc_reported_with_line_number(tmp_path, a2, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
        store.put_class(enumerate_class(a3))
    path = tmp_path / "cache.jsonl"
    lines = path.read_text().splitlines()
    # content no longer matches the checksum
    lines[0] = lines[0].replace('"status":"CLOSED"', '"status":"TRUNCATED"')
    path.write_text("\n".join(lines) + "\n")
    with Store(tmp_path) as store:  # open indexes class records unchecked
        assert store.get_class(canonical_form(a3).hash, Budget()) == enumerate_class(a3)
        for _ in range(2):  # every request that would serve it fails
            with pytest.raises(CorruptRecord) as err:
                store.get_class(canonical_form(a2).hash, Budget())
            assert err.value.line_no == 1


def test_tampered_member_fails_replay_validation(tmp_path, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a3))
    _rewrite_record(tmp_path / "cache.jsonl", 0, _witness_to_seed)
    with Store(tmp_path) as store:
        with pytest.raises(CorruptRecord) as err:
            store.get_class(canonical_form(a3).hash, Budget())
    assert err.value.line_no == 1


def test_trailing_partial_line_is_tolerated(tmp_path, a2, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
        store.put_class(enumerate_class(a3))
    path = tmp_path / "cache.jsonl"
    text = path.read_text()
    first_line = text.splitlines()[0]
    path.write_text(text + '{"kind":"class","seed":"dead')  # torn write, no newline
    with Store(tmp_path, readonly=True) as store:
        assert store.get_class(canonical_form(a2).hash, Budget()) is not None
    # but a corrupt line in the middle is never skipped
    path.write_text(first_line[: len(first_line) // 2] + "\n" + text)
    with pytest.raises(CorruptRecord) as err:
        Store(tmp_path, readonly=True)
    assert err.value.line_no == 1


def test_compact_drops_dominated_budgets(tmp_path, a3):
    small = enumerate_class(a3, Budget(max_members=2))
    full = enumerate_class(a3, Budget())
    with Store(tmp_path) as store:
        store.put_class(small)
        store.put_class(full)
        assert store.stats()["records"] == 2
        original = (tmp_path / "cache.jsonl").read_text().splitlines()
        stats = store.compact()
    assert stats["dropped"] == 1
    assert stats["kept"] == 1
    compacted = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(compacted) == 1
    assert all(line in original for line in compacted)
    with Store(tmp_path) as store:
        assert store.get_class(full.seed.hash, Budget()) == full
        assert store.get_class(small.seed.hash, Budget(max_members=2)) is None


def test_class_records_decode_when_first_requested(tmp_path, monkeypatch, a2, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
        store.put_class(enumerate_class(a3))
    decodes = []
    decode = mutopo.store._class_from_record

    def counted(header, members, line_no):
        decodes.append(line_no)
        return decode(header, members, line_no)

    monkeypatch.setattr(mutopo.store, "_class_from_record", counted)
    with Store(tmp_path, readonly=True) as store:
        assert decodes == []  # open only indexes class records
        seed = canonical_form(a3).hash
        first = store.get_class(seed, Budget())
        assert first == enumerate_class(a3)
        assert store.get_class(seed, Budget()) is first
        wide = store.get_class(seed, Budget(max_members=50))
        assert wide.members is first.members
        assert store.get_class(seed, Budget(max_members=50)) is wide
    assert decodes == [2]  # checked once, however often it is served


def test_compact_keeps_lines_of_records_never_decoded(tmp_path, a3):
    small = enumerate_class(a3, Budget(max_members=2))
    full = enumerate_class(a3)
    with Store(tmp_path) as store:
        store.put_class(small)
        store.put_class(full)
    original = (tmp_path / "cache.jsonl").read_text().splitlines()
    with Store(tmp_path, readonly=True) as reader:
        with Store(tmp_path) as writer:
            assert writer.compact()["dropped"] == 1
        # the reader still reads the file it verified, not the compacted one
        assert reader.get_class(small.seed.hash, small.budget) == small
    assert (tmp_path / "cache.jsonl").read_text().splitlines() == original[1:]


def test_class_line_is_crc_header_and_members(a3, w333):
    for enum in (enumerate_class(a3), enumerate_class(w333, Budget(max_entry=6))):
        line = _class_line(enum)
        crc, header, members = line.removesuffix(b"\n").split(b"\t")
        assert int(crc) == zlib.crc32(header + b"\t" + members)
        obj = json.loads(header)
        assert header == json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        assert (obj["seed"], obj["shape"]) == (enum.seed.hash, [enum.seed.n, enum.seed.m])
        assert members == json.dumps(
            [[list(mem.form.key), list(mem.witness)] for mem in enum.members],
            separators=(",", ":"),
        ).encode()


def test_compact_keeps_incomparable_budgets(tmp_path, w333):
    a = enumerate_class(w333, Budget(max_members=5, max_entry=50))
    b = enumerate_class(w333, Budget(max_members=1000, max_entry=6))
    with Store(tmp_path) as store:
        store.put_class(a)
        store.put_class(b)
        stats = store.compact()
    assert stats["dropped"] == 0 and stats["kept"] == 2


def test_a_stale_unknown_is_never_served(tmp_path, pt, i2, w333):
    # a cache written before a rule decided a cell holds its UNKNOWN; opening
    # the file skips that line, so the first call answers under today's rules
    budget = Budget(max_members=200)
    p, q = canonical_form(i2).hash, canonical_form(w333).hash
    with Store(tmp_path) as store:  # a verdict that reads both enumerations
        assert embeds(pt, w333, budget, store).verdict is Verdict.YES
    path = tmp_path / "cache.jsonl"
    path.write_bytes(path.read_bytes() + _embed_line(p, q, budget, Verdict.UNKNOWN))
    with Store(tmp_path) as store:
        assert store.get_embed(p, q, budget) is None
        assert embeds(i2, w333, budget, store).verdict is Verdict.NO
        assert store.get_embed(p, q, budget).verdict is Verdict.NO
    with Store(tmp_path, readonly=True) as store:  # the verdict was kept in memory only
        assert store.get_embed(p, q, budget) is None
        assert embeds(i2, w333, budget, store).verdict is Verdict.NO
    assert embeds(i2, w333, budget).verdict is Verdict.NO


def test_verdicts_that_need_no_enumeration_are_not_stored(
    tmp_path, monkeypatch, i2, a2, a3, w333
):
    lookups = []
    get_embed = Store.get_embed
    monkeypatch.setattr(Store, "get_embed", lambda *a: lookups.append(a[1:]) or get_embed(*a))
    b2 = build(2, 0, [[0, 2], [-1, 0]])
    pairs = {
        "shape": (a3, a2),
        "identity": (a3, a3),
        "fingerprint": (i2, a2),
        "gcd": (a2, w333),  # entry gcd 1 into entry gcd 3, at different rank
        "skew": (b2, a3),  # a skew-symmetrizable matrix into a quiver
    }
    with Store(tmp_path) as store:
        verdicts = {rule: embeds(p, q, store=store).verdict for rule, (p, q) in pairs.items()}
        assert store.stats()["records"] == 0
    assert verdicts == {rule: Verdict.YES if rule == "identity" else Verdict.NO for rule in pairs}
    assert lookups == [] and not (tmp_path / "cache.jsonl").exists()
    with Store(tmp_path) as store:  # a verdict that reads an enumeration is kept
        assert embeds(a2, a3, store=store).verdict is Verdict.YES
        assert len(lookups) == 1
        assert store.get_embed(*lookups[0]).verdict is Verdict.YES


@pytest.mark.parametrize("directory", [True, False], ids=["file", "memory"])
def test_put_embed_ignores_an_unknown(tmp_path, a2, a3, directory):
    p, q = canonical_form(a2).hash, canonical_form(a3).hash
    budget = Budget(max_members=7)
    with Store(tmp_path if directory else None) as store:
        embeds(a2, a3, store=store)
        before = store.stats(), store._file_bytes()
        store.put_embed(p, q, EmbedVerdict(Verdict.UNKNOWN, None, budget))
        assert (store.stats(), store._file_bytes()) == before
        assert store.get_embed(p, q, budget) is None


def _stale_unknown_line(lines):
    """An UNKNOWN embed line, as an older file holds, for a golden pair, and
    its pair and budget, which no golden budget dominates."""
    p, q = lines[1][1]["seed"], lines[-1][1]["seed"]
    budget = Budget(max_members=200, max_entry=100)
    return _embed_line(p, q, budget, Verdict.UNKNOWN), (p, q), budget


def test_an_older_unknown_line_is_skipped_and_compacted_away(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines, _ = _golden_records()
    stale, pair, budget = _stale_unknown_line(lines)
    path.write_bytes(GOLDEN.read_bytes() + stale)
    with Store(tmp_path, readonly=True) as store:
        assert store.stats()["records"] == len(lines)
        assert store.get_embed(*pair, budget) is None
    assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_compact_counts_the_lines_open_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines, _ = _golden_records()
    stale, _, _ = _stale_unknown_line(lines)
    repeats = [lines[0][0], lines[-1][0]]  # two class keys' lines, again
    for tail, counts in (([stale], (8, 7, 1)), ([stale, *repeats], (10, 7, 3))):
        path.write_bytes(GOLDEN.read_bytes() + b"".join(tail))
        with Store(tmp_path) as store:
            stats = store.compact()
            assert (stats["records"], stats["kept"], stats["dropped"]) == counts
            assert store.compact()["dropped"] == 0  # the rewritten file skips nothing
        assert path.read_bytes() == GOLDEN.read_bytes()


def test_single_writer_lock(tmp_path):
    with Store(tmp_path):
        with pytest.raises(RuntimeError):
            Store(tmp_path)
        Store(tmp_path, readonly=True)  # readers are always welcome
    Store(tmp_path).close()  # lock released on close


def test_enumerate_class_uses_the_store(tmp_path, a3):
    with Store(tmp_path) as store:
        first = enumerate_class(a3, store=store)
    with Store(tmp_path, readonly=True) as store:
        second = enumerate_class(a3, store=store)
    assert first == second
    assert (tmp_path / "cache.jsonl").exists()


def _rewrite_record(path, line_index, edit):
    """Apply `edit` to one record of the cache file and recompute its CRC."""
    lines = path.read_bytes().splitlines(keepends=True)
    obj = _parse(lines[line_index])
    edit(obj)
    lines[line_index] = _unparse(obj)
    path.write_bytes(b"".join(lines))


def _drop_status(obj):
    del obj["status"]


def _witness_out_of_range(obj):
    obj["members"][1][1] = [99]


def _float_entries(obj):
    obj["members"][1][0] = [float(v) for v in obj["members"][1][0]]  # equal, but not integers


def _invalid_seed_matrix(obj):
    n, m = obj["shape"]
    entries = obj["members"][0][0]
    entries[1] = entries[n + m] = 1  # b12 = b21 = 1 fails sign coherence


@pytest.mark.parametrize(
    "edit, at_open",
    [
        (_drop_status, True),
        (_witness_out_of_range, False),
        (_invalid_seed_matrix, False),
        (_float_entries, False),
    ],
    ids=["missing-field", "witness-out-of-range", "invalid-matrix", "float-entries"],
)
def test_malformed_record_reported_with_line_number(tmp_path, a2, a3, edit, at_open):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
        store.put_class(enumerate_class(a3))
    path = tmp_path / "cache.jsonl"
    _rewrite_record(path, 1, edit)
    if at_open:  # the index needs the status
        with pytest.raises(CorruptRecord) as err:
            Store(tmp_path, readonly=True)
    else:
        with Store(tmp_path, readonly=True) as store:
            assert store.get_class(canonical_form(a2).hash, Budget()) is not None
            with pytest.raises(CorruptRecord) as err:
                store.get_class(canonical_form(a3).hash, Budget())
    assert err.value.line_no == 2
    # without its newline the same line reads as a torn final write
    path.write_text(path.read_text().rstrip("\n"))
    with Store(tmp_path, readonly=True) as store:
        assert store.get_class(canonical_form(a2).hash, Budget()) is not None
        assert store.get_class(canonical_form(a3).hash, Budget()) is None


@pytest.mark.parametrize("part", [0, 1], ids=["member-entry", "witness-index"])
def test_a_json_boolean_fails_when_served_and_compacted(tmp_path, capsys, a3, part):
    # json reads true as True, which equals 1: without the check the line
    # is served, and a true witness index replays as index 1
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a3))
    path = tmp_path / "cache.jsonl"

    def one_to_true(obj):
        values = next(mem[part] for mem in obj["members"] if 1 in mem[part])
        values[values.index(1)] = True

    _rewrite_record(path, 0, one_to_true)
    before = path.read_bytes()
    assert b"true" in before
    with Store(tmp_path, readonly=True) as store:
        with pytest.raises(CorruptRecord) as err:
            store.get_class(canonical_form(a3).hash, Budget())
        assert err.value.line_no == 1 and "boolean" in str(err.value)
    assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 1
    assert "cache line 1:" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_relabelled_member_matrix_fails_validation(tmp_path, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a3))
    path = tmp_path / "cache.jsonl"

    def relabel(obj):
        # reverse the index order of a non-seed member that is not symmetric
        # under it, which reverses its row-major entries: its witness still
        # reaches an isomorphic matrix, but not these entries
        for mem in obj["members"][1:]:
            flipped = mem[0][::-1]
            if flipped != mem[0]:
                mem[0] = flipped
                return
        raise AssertionError("every member is invariant under reversal")

    _rewrite_record(path, 0, relabel)
    with Store(tmp_path) as store:
        with pytest.raises(CorruptRecord) as err:
            store.get_class(canonical_form(a3).hash, Budget())
    assert err.value.line_no == 1


def _seed_second(obj):
    obj["members"][:2] = obj["members"][1::-1]


def _seed_with_a_witness(obj):
    obj["members"][0][1] = [1]


@pytest.mark.parametrize(
    "edit", [_seed_second, _seed_with_a_witness], ids=["another-member", "seed-witness"]
)
def test_first_member_that_is_not_the_seed_fails_when_served(tmp_path, a2, a3, edit):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
        store.put_class(enumerate_class(a3))
    _rewrite_record(tmp_path / "cache.jsonl", 1, edit)
    with Store(tmp_path) as store:
        assert store.get_class(canonical_form(a2).hash, Budget()) == enumerate_class(a2)
        with pytest.raises(CorruptRecord) as err:
            store.get_class(canonical_form(a3).hash, Budget())
    assert err.value.line_no == 2 and "not the seed" in str(err.value)


def test_the_default_cache_dir_falls_back_to_xdg_then_home(tmp_path, monkeypatch):
    monkeypatch.delenv("MUTOPO_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "mutopo"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert default_cache_dir() == tmp_path / "home" / ".cache" / "mutopo"


def test_in_memory_store_round_trips_without_a_file(tmp_path, monkeypatch, a2, a3):
    monkeypatch.chdir(tmp_path)
    small = enumerate_class(a3, Budget(max_members=2))
    full = enumerate_class(a3)
    store = Store()
    store.put_class(small)
    store.put_class(full)
    ev = embeds(a2, a3, store=store)
    assert store.get_class(full.seed.hash, full.budget) == full
    assert store.get_embed(canonical_form(a2).hash, canonical_form(a3).hash, Budget()) == ev
    stats = store.compact()  # the embed call also put the class of a2
    assert (stats["records"], stats["kept"], stats["dropped"]) == (3, 2, 1)
    assert (stats["bytes_before"], stats["bytes_after"]) == (0, 0)
    assert store.get_class(small.seed.hash, small.budget) is None
    assert store.get_class(full.seed.hash, full.budget) == full
    store.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_universe(3, 2),
        lambda: is_avoiding(
            quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]),
            [quiver([[0, 0], [0, 0]]), weighted_pair(3), weighted_pair(4)],
        ),
        lambda: is_k_universal_bounded(quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]), 2, 1),
    ],
    ids=["build_universe", "is_avoiding", "is_k_universal_bounded"],
)
def test_one_bfs_per_seed_and_budget_without_a_store(monkeypatch, call):
    runs = []
    run_bfs = mutopo.classes._run_bfs

    def counted(seed, budget):
        runs.append((seed.hash, budget.key()))
        return run_bfs(seed, budget)

    monkeypatch.setattr(mutopo.classes, "_run_bfs", counted)
    call()
    assert runs
    assert len(runs) == len(set(runs))


@pytest.fixture(scope="module")
def r3w2_cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("r3w2")
    with Store(directory) as store:
        build_universe(3, 2, store=store)
    return directory


def _class_lines(directory):
    """(line number, record) of every class record in a cache file."""
    lines = (directory / "cache.jsonl").read_bytes().splitlines()
    return [
        (k, obj)
        for k, obj in enumerate(map(_parse, lines), start=1)
        if obj["kind"] == "class"
    ]


def test_open_replays_nothing(monkeypatch, r3w2_cache):
    calls = []
    for name in ("canonical_form", "mutate", "build"):
        real = getattr(mutopo.store, name)
        monkeypatch.setattr(
            mutopo.store, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    with Store(r3w2_cache, readonly=True) as store:
        assert store.stats()["records"] == len(_class_lines(r3w2_cache)) > 1
        assert calls == []
        for _, obj in _class_lines(r3w2_cache):  # serving replays and checks
            assert store.get_class(obj["seed"], Budget(*obj["budget"])) is not None
    assert {"canonical_form", "mutate", "build"} <= set(calls)


def _witness_to_seed(obj):
    obj["members"][1][1] = [1, 1]  # a witness that replays to the wrong member


def _three_members(obj):
    obj["stats"][0] = 3


def test_tampered_record_fails_only_when_served(tmp_path, r3w2_cache):
    records = _class_lines(r3w2_cache)
    k, tampered = next(
        (k, obj) for k, obj in records[1:] if obj["status"] == "CLOSED" and obj["stats"][0] > 1
    )
    path = tmp_path / "cache.jsonl"
    path.write_bytes((r3w2_cache / "cache.jsonl").read_bytes())
    _rewrite_record(path, k - 1, _witness_to_seed)
    with Store(r3w2_cache, readonly=True) as clean, Store(tmp_path, readonly=True) as store:
        for _, obj in records:
            if obj is not tampered:
                budget = Budget(*obj["budget"])
                assert store.get_class(obj["seed"], budget) == clean.get_class(obj["seed"], budget)
        wider = (Budget(max_members=50000), Budget(max_entry=99))
        for budget in (Budget(*tampered["budget"]), *wider):
            with pytest.raises(CorruptRecord) as err:
                store.get_class(tampered["seed"], budget)
            assert err.value.line_no == k


def test_lying_stats_fail_when_served(tmp_path, a3):
    enum = enumerate_class(a3)  # CLOSED with 4 members
    with Store(tmp_path) as store:
        store.put_class(enum)
    _rewrite_record(tmp_path / "cache.jsonl", 0, _three_members)
    with Store(tmp_path) as store:
        # the claimed 3 members would fit this budget; the real 4 do not
        with pytest.raises(CorruptRecord) as err:
            store.get_class(enum.seed.hash, Budget(max_members=3))
        assert err.value.line_no == 1
        with pytest.raises(CorruptRecord):
            store.get_class(enum.seed.hash, Budget())


def _claim_closed(obj):
    obj["status"] = "CLOSED"


def test_a_status_that_contradicts_its_caps_fails_when_served(tmp_path, a3, w333):
    budget = Budget(max_entry=6)
    enum = enumerate_class(w333, budget)
    assert (enum.status, enum.tripped) == ("TRUNCATED", {"entry"})
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a3))
        store.put_class(enum)
    _rewrite_record(tmp_path / "cache.jsonl", 1, _claim_closed)  # tripped stays ["entry"]
    with Store(tmp_path) as store:
        # a CLOSED claim would also be served to a wider budget
        for wanted in (budget, Budget(max_entry=99)):
            with pytest.raises(CorruptRecord) as err:
                store.get_class(enum.seed.hash, wanted)
            assert err.value.line_no == 2
        assert store.get_class(canonical_form(a3).hash, Budget()) == enumerate_class(a3)


@pytest.mark.parametrize(
    "edit, message",
    [(_seed_second, "the first member is not the seed"),
     (_witness_to_seed, "member 2 fails witness replay")],
    ids=["not-the-seed", "replay"],
)
def test_a_record_check_keeps_its_own_message(tmp_path, a3, edit, message):
    # a CorruptRecord from the record's own checks is not reworded as malformed
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a3))
    _rewrite_record(tmp_path / "cache.jsonl", 0, edit)
    with Store(tmp_path) as store:
        with pytest.raises(CorruptRecord) as err:
            store.get_class(canonical_form(a3).hash, Budget())
    assert str(err.value) == f"cache line 1: {message}"


def test_wider_budget_shares_one_view(tmp_path, a4):
    with Store(tmp_path) as store:
        enumerate_class(a4, store=store)
    before = (tmp_path / "cache.jsonl").read_bytes()
    wide = Budget(max_members=50000)
    with Store(tmp_path) as store:
        stats = store.stats()
        first = store.get_class(canonical_form(a4).hash, wide)
        assert first.budget == wide and first.status == "CLOSED"
        assert store.get_class(canonical_form(a4).hash, wide) is first
        assert store.stats() == stats
        assert store.compact()["kept"] == stats["records"]
    assert (tmp_path / "cache.jsonl").read_bytes() == before


def test_torn_final_line_is_cut_before_the_first_append(tmp_path, a2, a3):
    with Store(tmp_path) as store:
        store.put_class(enumerate_class(a2))
    path = tmp_path / "cache.jsonl"
    torn = path.read_bytes()[:-1]  # the A2 record without its newline
    path.write_bytes(torn)
    with Store(tmp_path, readonly=True) as store:  # a reader never cuts
        enumerate_class(a3, store=store)
    assert path.read_bytes() == torn
    with Store(tmp_path) as store:
        assert path.read_bytes() == torn  # nor does a writer that appends nothing
        enumerate_class(a3, store=store)
    for _ in range(2):
        with Store(tmp_path) as store:
            assert store.get_class(canonical_form(a3).hash, Budget()) == enumerate_class(a3)
            assert store.get_class(canonical_form(a2).hash, Budget()) is None
    assert path.read_bytes().count(b"\n") == 1


def _golden_records():
    """(line, record) of every line of the golden cache, and the seed
    matrix of every class in it by seed hash."""
    lines = GOLDEN.read_bytes().splitlines(keepends=True)
    records = [_parse(line) for line in lines]
    seeds = {
        obj["seed"]: CanonicalForm(*obj["shape"], tuple(obj["members"][0][0])).matrix
        for obj in records
        if obj["kind"] == "class"
    }
    return list(zip(lines, records)), seeds


def _serves_fresh_classes(store, lines, seeds):
    for _, obj in lines:
        budget = Budget(*obj["budget"])
        assert store.get_class(obj["seed"], budget) == enumerate_class(seeds[obj["seed"]], budget)


def test_golden_cache_serves_fresh_results(tmp_path):
    shutil.copy(GOLDEN, tmp_path / "cache.jsonl")
    lines, seeds = _golden_records()
    assert [obj["kind"] for _, obj in lines] == ["class"] * 7
    with Store(tmp_path, readonly=True) as store:
        _serves_fresh_classes(store, lines, seeds)


def test_golden_cache_lines_are_written_byte_for_byte(tmp_path):
    shutil.copy(GOLDEN, tmp_path / "cache.jsonl")
    lines, _ = _golden_records()
    with Store(tmp_path, readonly=True) as store:
        for line, obj in lines:
            assert _class_line(store.get_class(obj["seed"], Budget(*obj["budget"]))) == line
    with Store(tmp_path) as store:  # and so does compaction
        assert store.compact()["dropped"] == 0
    assert (tmp_path / "cache.jsonl").read_bytes() == GOLDEN.read_bytes()


def test_an_older_format_file_serves_nothing(tmp_path):
    shutil.copy(GOLDEN_V1, tmp_path / "cache.jsonl")
    lines, _ = _golden_records()  # the same universe, so the same keys
    with Store(tmp_path, readonly=True) as store:
        stats = store.stats()
        assert (stats["records"], stats["skipped"]) == (0, 56)
        for _, obj in lines:
            assert store.get_class(obj["seed"], Budget(*obj["budget"])) is None


def test_a_universe_over_an_older_file_matches_a_cold_build(tmp_path):
    older, cold = tmp_path / "older", tmp_path / "cold"
    older.mkdir()
    shutil.copy(GOLDEN_V1, older / "cache.jsonl")
    for directory in (older, cold):
        argv = ["universe", "-r", "3", "-w", "1", "--cache-dir", str(directory)]
        assert main([*argv, "-o", str(directory / "u.json")]) == 0
    assert (older / "u.json").read_bytes() == (cold / "u.json").read_bytes()
    assert main(["cache", "compact", "--cache-dir", str(older)]) == 0
    # the older lines are gone, and the new ones are the golden's
    assert (older / "cache.jsonl").read_bytes() == GOLDEN.read_bytes()


def test_a_cache_with_embed_lines_serves_its_classes_and_no_verdict(tmp_path):
    shutil.copy(GOLDEN_V2, tmp_path / "cache.jsonl")
    lines, seeds = _golden_records()  # the v2 file's class lines are the golden's
    embed_lines = [_parse(line) for line in GOLDEN_V2.read_bytes().splitlines()[len(lines):]]
    assert [obj["kind"] for obj in embed_lines] == ["embed"] * 13
    with Store(tmp_path, readonly=True) as store:
        stats = store.stats()
        assert (stats["records"], stats["skipped"]) == (7, 13)
        assert set(stats) == {"records", "skipped", "path"}
        _serves_fresh_classes(store, lines, seeds)
        for obj in embed_lines:
            assert store.get_embed(obj["p"], obj["q"], Budget(*obj["budget"])) is None


def test_a_universe_over_a_cache_with_embed_lines_matches_a_cold_build(tmp_path):
    v2, cold = tmp_path / "v2", tmp_path / "cold"
    v2.mkdir()
    shutil.copy(GOLDEN_V2, v2 / "cache.jsonl")
    for directory in (v2, cold):
        argv = ["universe", "-r", "3", "-w", "1", "--cache-dir", str(directory)]
        assert main([*argv, "-o", str(directory / "u.json")]) == 0
    assert (v2 / "u.json").read_bytes() == (cold / "u.json").read_bytes()
    assert (v2 / "cache.jsonl").read_bytes() == GOLDEN_V2.read_bytes()  # nothing appended
    assert main(["cache", "compact", "--cache-dir", str(v2)]) == 0
    assert (v2 / "cache.jsonl").read_bytes() == GOLDEN.read_bytes()  # the 7 class lines


def test_open_parses_no_member_array(tmp_path, monkeypatch, w333):
    shutil.copy(GOLDEN, tmp_path / "cache.jsonl")
    with Store(tmp_path) as store:  # a TRUNCATED record whose tail names "members"
        assert "members" in enumerate_class(w333, Budget(max_members=3), store=store).tripped
    texts = []
    loads = json.loads
    monkeypatch.setattr(mutopo.store.json, "loads", lambda s: texts.append(s) or loads(s))
    with Store(tmp_path, readonly=True) as store:
        assert store.stats()["records"] == 8
    assert len(texts) == 8
    lines = (tmp_path / "cache.jsonl").read_bytes().splitlines()
    assert texts == [line.split(b"\t")[1] for line in lines]  # HEADER fields only


def _garble_members(line: bytes) -> bytes:
    """The line with bytes in the middle of its member array overwritten."""
    head, tail = line.rindex(b"\t") + 1, len(line.rstrip(b"\n"))
    middle = (head + tail) // 2
    return line[:middle] + b'#"{' + line[middle + 3:]


def test_garbled_member_list_fails_when_served_and_compacted(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    lines = GOLDEN.read_bytes().splitlines(keepends=True)
    records = [_parse(line) for line in lines]
    k, obj = next(
        (k, obj) for k, obj in enumerate(records, start=1)
        if obj["kind"] == "class" and obj["stats"][0] == 4
    )
    lines[k - 1] = _garble_members(lines[k - 1])
    with pytest.raises(ValueError):
        _parse(lines[k - 1])
    path.write_bytes(b"".join(lines))
    before = path.read_bytes()
    with Store(tmp_path, readonly=True) as store:  # the index fields are intact
        with pytest.raises(CorruptRecord) as err:
            store.get_class(obj["seed"], Budget(*obj["budget"]))
        assert err.value.line_no == k
    assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 1
    assert f"cache line {k}:" in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.mark.parametrize("header, reason", [
    (b"[1,2]", "header is not a JSON object"),
    (b'{"kind":"note"}', "unknown record kind 'note'"),
], ids=["array", "unknown-kind"])
def test_a_header_that_is_no_record_fails_at_open(tmp_path, header, reason):
    (tmp_path / "cache.jsonl").write_bytes(b"0\t" + header + b"\t[]\n")
    with pytest.raises(CorruptRecord) as err:
        Store(tmp_path, readonly=True)
    assert str(err.value) == f"cache line 1: {reason}"


def test_record_in_another_encoding_fails_its_checksum(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = GOLDEN.read_text().splitlines()
    k = 1
    # the header is re-encoded; the CRC is still the CRC-32 of the record's fields
    crc, header, members = lines[k - 1].split("\t")
    obj = json.loads(header)
    lines[k - 1] = "\t".join([crc, json.dumps(obj, sort_keys=True, separators=(", ", ":")), members])
    path.write_text("\n".join(lines) + "\n")
    with Store(tmp_path, readonly=True) as store:
        with pytest.raises(CorruptRecord) as err:
            store.get_class(obj["seed"], Budget(*obj["budget"]))
    assert err.value.line_no == k and "checksum" in str(err.value)
