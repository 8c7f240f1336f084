import io
import json
from itertools import combinations
from pathlib import Path

import pytest

from conftest import fresh_python, quiver, weighted_pair
from mutopo import (
    EmbedVerdict,
    EmbedWitness,
    Store,
    Verdict,
    build_hasse,
    build_universe,
    canonical_form,
    class_key,
    disjoint_union,
    dump_universe,
    load_universe,
    replay_embedding,
    to_json_dict,
    to_text,
)
from mutopo.cli import main


@pytest.fixture
def files(tmp_path, a2, a3, markov, w333, cycle321, pt, i2):
    out = {}
    for name, B in [
        ("a2", a2), ("a3", a3), ("markov", markov), ("w333", w333),
        ("cycle321", cycle321), ("pt", pt), ("i2", i2),
        ("w3", weighted_pair(3)), ("w5", weighted_pair(5)),
        ("w333_pt", disjoint_union(w333, pt)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(to_json_dict(B)))
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(["--no-cache" if a == "NC" else a for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMutate:
    def test_a3_at_two_prints_the_cycle(self, capsys, files):
        code, out, _ = run(capsys, "mutate", "--at", "2", files["a3"])
        assert code == 0
        assert out == "3 0\n0 -1 1\n1 0 -1\n-1 1 0\n"

    def test_text_input_and_sequences(self, capsys, tmp_path, a3):
        path = tmp_path / "a3.txt"
        path.write_text(to_text(a3))
        code, out, _ = run(capsys, "mutate", "--at", "2", "--at", "2", str(path))
        assert code == 0
        assert out.strip() == to_text(a3)

    def test_inline_matrix(self, capsys):
        code, out, _ = run(capsys, "mutate", "--matrix", "0 1;-1 0", "--at", "1")
        assert code == 0
        assert out == "2 0\n0 -1\n1 0\n"

    def test_json_output_round_trips(self, capsys, files, tmp_path):
        code, out, _ = run(capsys, "mutate", "--at", "2", "--json", files["a3"])
        assert code == 0
        payload = json.loads(out)
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(payload["matrix"]))
        code, out2, _ = run(capsys, "mutate", "--at", "2", str(path))
        assert code == 0
        assert out2.strip() == to_text(quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]))

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mutable": 2, "frozen": 0, "b": [[0, 1], [1, 0]]}')
        code, _, err = run(capsys, "mutate", "--at", "1", str(bad))
        assert code == 1
        assert err.startswith("error:")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "mutate", "--at", "1", "/no/such/file.json")
        assert code == 1
        assert "error:" in err


class TestClassAndFinite:
    def test_class_closed(self, capsys, files):
        code, out, _ = run(capsys, "class", "NC", files["a3"])
        assert code == 0
        assert out.startswith("status=CLOSED members=4")

    def test_class_json_dump_format(self, capsys, files, a3):
        code, out, _ = run(capsys, "class", "NC", "--json", files["a3"])
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert payload["status"] == "CLOSED"
        assert payload["seed"] == canonical_form(a3).hash
        assert len(payload["members"]) == 4
        assert {"hash", "matrix", "witness"} <= set(payload["members"][0])
        assert payload["budget"]["max_entry"] == 64

    def test_class_truncated_exits_two(self, capsys, files):
        code, out, _ = run(capsys, "class", "NC", "--max-entry", "6", files["w333"])
        assert code == 2
        assert "TRUNCATED" in out

    def test_finite_markov(self, capsys, files):
        code, out, _ = run(capsys, "finite", "NC", files["markov"])
        assert code == 0
        assert out.strip() == "FINITE members=1"

    def test_finite_infinite(self, capsys, files):
        code, out, _ = run(capsys, "finite", "NC", files["w333"])
        assert code == 0
        assert out.strip() == "INFINITE"

    def test_finite_unknown_exits_two(self, capsys, files):
        # disconnected, so the classification gives no INFINITE
        code, out, _ = run(capsys, "finite", "NC", "--max-members", "50", files["w333_pt"])
        assert code == 2
        assert out.strip() == "UNKNOWN"


class TestInput:
    def test_stdin_for_class(self, capsys, files, monkeypatch):
        expected = run(capsys, "class", "NC", files["a3"])
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(files["a3"]).read_text()))
        assert run(capsys, "class", "NC", "-") == expected

    def test_stdin_for_embeds(self, capsys, files, monkeypatch):
        expected = run(capsys, "embeds", "NC", "--json", files["a2"], files["a3"])
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(files["a3"]).read_text()))
        assert run(capsys, "embeds", "NC", "--json", files["a2"], "-") == expected

    @pytest.mark.parametrize("argv", [
        ["embeds", "NC", "a2"],  # q is missing
        ["class", "NC", "--bogus", "a3"],
        ["class", "NC", "a3", "a2"],  # two matrices to a single-matrix verb
        ["class", "NC", "a3", "--matrix", "0 2;-2 0"],
        ["finite", "NC"],  # no matrix at all
    ])
    def test_usage_errors_exit_one(self, capsys, files, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *(files.get(a, a) for a in argv))
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and "usage:" in captured.err

    @pytest.mark.parametrize("argv", [
        ["mutate", "--at", "1", "a3", "--frozen", "2"],
        ["acyclic", "NC", "a3", "--frozen", "1"],
    ])
    def test_frozen_without_matrix_is_a_usage_error(self, capsys, files, argv):
        # a matrix file declares its own frozen count
        with pytest.raises(SystemExit) as exc:
            run(capsys, *(files.get(a, a) for a in argv))
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and "--frozen" in captured.err and "usage:" in captured.err

    def test_frozen_usage_error_shows_the_verbs_usage(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mutate", "--at", "1", files["a3"], "--frozen", "2")
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: mutopo mutate ") and "[--at AT]" in err
        assert "mutopo mutate: error: --frozen applies to an inline --matrix only" in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert "mutopo" in capsys.readouterr().out


class TestEmbeds:
    def test_yes_with_witness(self, capsys, files):
        code, out, _ = run(capsys, "embeds", "NC", files["a2"], files["a3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert "subset=[1, 2]" in lines[1]

    def test_exhaustive_no(self, capsys, files):
        code, out, _ = run(capsys, "embeds", "NC", files["w3"], files["markov"])
        assert code == 0
        assert out.strip() == "NO"

    def test_unknown_exits_two(self, capsys, files):
        # insufficient budget on a mutation-infinite Q: the weight-5 member
        # one mutation away is never discovered
        code, out, _ = run(
            capsys, "embeds", "NC", "--max-members", "1", files["w5"], files["cycle321"],
        )
        assert code == 2
        assert out.strip() == "UNKNOWN"

    def test_json_includes_budget(self, capsys, files):
        code, out, _ = run(capsys, "embeds", "NC", "--json", files["a2"], files["a3"])
        payload = json.loads(out)
        assert payload["verdict"] == "YES"
        assert payload["witness"]["subset"] == [1, 2]
        assert payload["budget"]["max_members"] == 100000


class TestPropertyVerbs:
    def test_avoid(self, capsys, files):
        code, out, _ = run(capsys, "avoid", "NC", files["markov"], files["i2"])
        assert (code, out.strip()) == (0, "YES")
        code, out, _ = run(capsys, "avoid", "NC", files["a3"], files["i2"])
        assert (code, out.strip()) == (0, "NO")

    def test_abundant(self, capsys, files):
        code, out, _ = run(capsys, "abundant", "NC", "-N", "2", files["markov"])
        assert (code, out.strip()) == (0, "YES")
        code, out, _ = run(capsys, "abundant", "NC", "-N", "1", files["a3"])
        assert (code, out.strip()) == (0, "NO")

    def test_acyclic(self, capsys, files):
        code, out, _ = run(capsys, "acyclic", "NC", files["markov"])
        assert (code, out.strip()) == (0, "NO")

    def test_universal(self, capsys, files):
        code, out, _ = run(capsys, "universal", "NC", "-k", "2", "-w", "2", files["a3"])
        assert (code, out.strip()) == (0, "NO")

    def test_universal_rejects_a_negative_entry_cap(self, capsys):
        code, out, err = run(capsys, "universal", "NC", "-k", "2", "-w", "-1",
                             "--matrix", "0 1 0;-1 0 1;0 -1 0")
        assert (code, out) == (1, "")
        assert "entry cap is -1, not an integer >= 0" in err

    def test_density_witness(self, capsys, files):
        code, out, _ = run(capsys, "density-witness", files["markov"], files["a3"])
        assert code == 0
        assert out.startswith("6 0\n")
        assert "P embeds: YES" in out and "Q embeds: YES" in out

    def test_density_witness_json(self, capsys, files, markov, a3):
        code, out, _ = run(capsys, "density-witness", files["markov"], files["a3"], "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"union", "p", "q"}
        assert payload["union"] == to_json_dict(disjoint_union(markov, a3))
        for side, factor in (("p", markov), ("q", a3)):
            assert payload[side]["verdict"] == "YES"
            assert len(payload[side]["witness"]["subset"]) == factor.size


class TestUniversePipeline:
    def test_build_hasse_closure(self, capsys, files, a3):
        target = files["dir"] / "u.json"
        code, out, _ = run(
            capsys, "universe", "-r", "3", "-w", "1", "-o", str(target),
            "--cache-dir", str(files["dir"] / "cache"),
        )
        assert code == 0
        assert "classes=" in out and str(target) in out

        code, out, _ = run(capsys, "hasse", str(target), "--dot", "NC")
        assert code == 0
        assert out.startswith("digraph") and "->" in out

        code, out, _ = run(capsys, "hasse", str(target), "--json", "NC")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] and payload["edges"]
        assert all(e["witness"] is not None for e in payload["edges"])

        code, out, _ = run(
            capsys, "closure", str(target), files["a3"],
            "--cache-dir", str(files["dir"] / "cache"),
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # a3, a2, i2, pt

        key = class_key(a3).hash
        code, out_json, _ = run(
            capsys, "closure", str(target), "--class", key[:10], "--json", "NC",
        )
        assert code == 0
        assert len(json.loads(out_json)["classes"]) == 4

        code, out, _ = run(
            capsys, "open-set", str(target), files["pt"],
            "--cache-dir", str(files["dir"] / "cache"),
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7  # the whole universe

    def test_hasse_witnesses_replay_from_the_seeds(self, capsys, files):
        target = files["dir"] / "u32.json"
        cache = str(files["dir"] / "cache32")
        code, _, _ = run(capsys, "universe", "-r", "3", "-w", "2", "-o", str(target),
                         "--cache-dir", cache)
        assert code == 0
        cache_file = files["dir"] / "cache32" / "cache.jsonl"
        size = cache_file.stat().st_size
        code, out, _ = run(capsys, "hasse", str(target), "--json", "--cache-dir", cache)
        assert code == 0
        assert cache_file.stat().st_size == size  # the witnesses are the universe file's
        new = files["dir"] / "new"
        assert run(capsys, "hasse", str(target), "--json", "--cache-dir", str(new))[1] == out
        assert run(capsys, "hasse", str(target), "--json", "NC")[1] == out
        assert not new.exists()  # hasse opens no cache
        edges = json.loads(out)["edges"]
        u = load_universe(target.read_text(encoding="utf-8"))
        assert edges
        for edge in edges:
            w = edge["witness"]
            ev = EmbedVerdict(
                Verdict.YES,
                EmbedWitness(tuple(w["q_sequence"]), tuple(w["subset"]), tuple(w["p_sequence"])),
                u.budget,
            )
            lo, hi = u.class_of(edge["lower"]), u.class_of(edge["upper"])
            assert replay_embedding(lo.seed, hi.seed, ev)

    def test_a_false_witness_fails_hasse_and_names_both_classes(self, capsys, files, u31_file):
        obj = json.loads(Path(u31_file).read_text(encoding="utf-8"))
        u = load_universe(json.dumps(obj))

        witnesses = {(i, j): w for i, j, w in u.witnesses}

        def replays(lo, hi, subset):
            ev = EmbedVerdict(Verdict.YES, witnesses[lo, hi]._replace(subset=subset), u.budget)
            return replay_embedding(u.classes[lo].seed, u.classes[hi].seed, ev)

        # a cover edge's witness with another subset of the right size: well
        # formed, but the restriction is not a member of the lower class
        lo, hi, subset = next(
            (lo, hi, subset) for lo, hi in build_hasse(u).edges
            for subset in combinations(range(1, u.classes[hi].rank + 1), u.classes[lo].rank)
            if not replays(lo, hi, subset)
        )
        next(w for i, j, w in obj["witnesses"] if (i, j) == (lo, hi))["subset"] = list(subset)
        bad = files["dir"] / "false.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "hasse", str(bad), "--json", "NC")
        assert (code, out) == (1, "")
        assert u.classes[lo].hash[:12] in err and u.classes[hi].hash[:12] in err
        assert run(capsys, "hasse", str(bad), "NC")[0] == 0  # only --json reads witnesses

    def test_universe_without_output_prints_the_file(self, capsys):
        code, out, _ = run(capsys, "universe", "-r", "2", "-w", "1", "NC")
        assert code == 0
        assert len(load_universe(out).classes) == 3

    def test_partial_hasse_text_prints_each_unknown_pair(self, capsys, files):
        target = files["dir"] / "u41.json"
        code, _, _ = run(capsys, "universe", "-r", "4", "-w", "1", "-o", str(target), "NC")
        assert code == 0
        cells = sum(row.count("U") for row in load_universe(target.read_text()).relation)
        code, out, _ = run(capsys, "hasse", str(target), "--partial", "NC")
        assert code == 0
        assert sum(" ?? " in line for line in out.splitlines()) == cells == 19

    def test_closure_without_a_selection_is_an_error(self, capsys, u31_file):
        code, out, err = run(capsys, "closure", u31_file, "NC")
        assert (code, out) == (1, "") and "no classes selected" in err

    def test_unknown_relation_blocks_hasse(self, capsys, files):
        target = files["dir"] / "u33.json"
        code, _, _ = run(
            capsys, "universe", "-r", "3", "-w", "3", "-o", str(target),
            "--cache-dir", str(files["dir"] / "cache33"),
        )
        assert code == 0
        code, _, err = run(capsys, "hasse", str(target), "NC")
        assert code == 1 and "unresolved" in err
        code, out, _ = run(capsys, "hasse", str(target), "--dot", "--partial", "NC")
        assert code == 0
        assert "style=dashed" in out


@pytest.fixture(scope="module")
def u31_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("u31") / "u31.json"
    path.write_text(dump_universe(build_universe(3, 1)) + "\n")
    return str(path)


def test_hasse_takes_one_output_format(capsys, u31_file):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "hasse", u31_file, "--dot", "--json", "NC")
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == "" and "not allowed with" in captured.err


@pytest.mark.parametrize(
    "fields",
    [
        {"b": [[0, 1.5], [-1.5, 0]]},
        {"b": [[0, "1"], ["-1", 0]]},
        {"b": 5},
        {"b": [0, 0]},
        {"b": "01"},
        {"b": [[0, True], [-1, 0]]},  # JSON true, which operator.index reads as 1
        {"mutable": True, "frozen": 1},
    ],
    ids=["float-entry", "string-entry", "int-b", "int-rows", "string-b", "bool-entry",
         "bool-count"],
)
def test_a_matrix_file_of_non_integers_is_an_error(capsys, tmp_path, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mutable": 2, "frozen": 0, "b": [[0, 1], [-1, 0]], **fields}))
    code, out, err = run(capsys, "class", str(bad), "NC")
    assert (code, out) == (1, "") and err.startswith("error:")


def _float_cap(obj):
    obj["params"]["budget"]["max_members"] = 1.5


def _float_entry(obj):
    obj["classes"][-1]["matrix"]["b"][0][1] = 1.5


def _bool_cap(obj):
    obj["params"]["budget"]["max_entry"] = True  # would read as cap 1


def _bool_entry(obj):
    obj["classes"][1]["seed"]["b"][1][0] = True  # an entry that is 1: the matrix stays valid


@pytest.mark.parametrize(
    "edit",
    [_float_cap, _float_entry, _bool_cap, _bool_entry],
    ids=["budget", "class-matrix", "bool-budget", "bool-class-seed"],
)
def test_a_universe_file_with_a_float_is_an_error(capsys, tmp_path, u31_file, edit):
    obj = json.loads(Path(u31_file).read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hasse", str(bad), "NC")
    assert (code, out) == (1, "") and err.startswith("error:")


@pytest.mark.parametrize("params", [{"r": "four"}, {"family": 5}], ids=["r", "family"])
def test_a_universe_file_with_bad_params_is_an_error(capsys, tmp_path, u31_file, params):
    obj = json.loads(Path(u31_file).read_text())
    obj["params"].update(params)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hasse", str(bad), "--partial", "--json", "NC")
    assert (code, out) == (1, "") and err.startswith("error: universe ")


def test_a_universe_file_with_a_missing_relation_row_is_an_error(capsys, tmp_path, u31_file):
    obj = json.loads(Path(u31_file).read_text())
    obj["relation"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hasse", str(bad), "--partial", "NC")
    assert (code, out) == (1, "")
    assert "universe relation shape does not match the class list" in err


def test_every_json_budget_is_one_object(capsys, files, u31_file):
    asked = {"max_members": 500, "max_entry": 9, "max_depth": None}
    caps = ["--max-members", "500", "--max-entry", "9", "NC", "--json"]
    for argv in (["class", files["a3"]], ["finite", files["a3"]], ["acyclic", files["a3"]],
                 ["abundant", "-N", "1", files["a3"]], ["universal", "-k", "2", "-w", "1", files["a3"]],
                 ["avoid", files["a3"], files["a2"]], ["embeds", files["a2"], files["a3"]]):
        code, out, _ = run(capsys, *argv, *caps)
        assert code in (0, 2) and json.loads(out)["budget"] == asked, argv
    default = {"max_members": 100000, "max_entry": 64, "max_depth": None}
    for argv in (["hasse", u31_file], ["closure", u31_file, files["a3"]],
                 ["open-set", u31_file, files["a3"]]):
        code, out, _ = run(capsys, *argv, "NC", "--json")
        assert code == 0 and json.loads(out)["budget"] == default, argv
    code, out, _ = run(capsys, "embeds", files["a2"], files["a3"], "NC", "--json")
    assert json.loads(out)["witness"] == {"q_sequence": [], "subset": [1, 2], "p_sequence": []}


def _repeated_class(obj):
    obj["classes"][2] = obj["classes"][1]
    return obj["classes"][1]["hash"]


def _bent_status(obj):
    obj["classes"][1]["status"] = "WHATEVER"
    return obj["classes"][1]["hash"]


def _reshaped_seed(obj):
    # a rank-3 seed in a rank-2 class, whose witnesses are range-checked against it
    low = next(c for c in obj["classes"] if c["rank"] == 2)
    low["seed"] = next(c for c in obj["classes"] if c["rank"] == 3)["seed"]
    return low["hash"]


@pytest.mark.parametrize("edit", [_repeated_class, _bent_status, _reshaped_seed],
                         ids=["repeated", "status", "seed-shape"])
def test_a_universe_file_with_a_bad_class_names_it(capsys, tmp_path, u31_file, edit):
    obj = json.loads(Path(u31_file).read_text())
    hash_ = edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for argv in (["hasse", str(bad)], ["closure", str(bad), "--class", hash_[:12]]):
        code, out, err = run(capsys, *argv, "NC")
        assert (code, out) == (1, "") and err.startswith(f"error: universe class {hash_[:12]}")


class TestClassSelection:
    def test_inline_matrix_selects_a_class(self, capsys, files, u31_file):
        by_file = run(capsys, "closure", u31_file, files["a3"], "NC")
        assert by_file[0] == 0 and len(by_file[1].splitlines()) == 4
        assert run(capsys, "closure", u31_file, "--matrix", "0 1 0;-1 0 1;0 -1 0", "NC") == by_file

    def test_stdin_selects_a_class(self, capsys, files, u31_file, monkeypatch):
        by_file = run(capsys, "open-set", u31_file, files["pt"], "--json", "NC")
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(files["pt"]).read_text()))
        assert run(capsys, "open-set", u31_file, "-", "--json", "NC") == by_file

    def test_files_and_matrix_select_together(self, capsys, files, u31_file, a2, i2, pt):
        code, out, _ = run(capsys, "closure", u31_file, files["i2"], "--matrix", "0 1;-1 0",
                           "--json", "NC")
        assert code == 0
        assert set(json.loads(out)["classes"]) == {class_key(B).hash for B in (a2, i2, pt)}

    @pytest.mark.parametrize("verb", ["closure", "open-set"])
    def test_frozen_without_matrix_is_a_usage_error(self, capsys, files, u31_file, verb):
        with pytest.raises(SystemExit) as exc:
            run(capsys, verb, u31_file, files["a3"], "--frozen", "1", "NC")
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and "--frozen" in captured.err and "usage:" in captured.err

    def test_class_outside_the_universe_names_its_source(self, capsys, files, u31_file):
        code, _, err = run(capsys, "closure", u31_file, "--matrix", "0 2;-2 0", "NC")
        assert code == 1 and "of --matrix is not in the universe" in err
        code, _, err = run(capsys, "open-set", u31_file, files["markov"], "NC")
        assert code == 1 and f"of {files['markov']} is not in the universe" in err


def _break_checksum(path, seed_hash):
    """Edit the header of the class record of seed_hash without updating its
    CRC; return its line number."""
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines, start=1):
        crc, header, *members = line.split("\t")
        obj = json.loads(header)
        if obj["kind"] == "class" and obj["seed"] == seed_hash:
            obj["tripped"] = ["entry"]
            header = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            lines[k - 1] = "\t".join([crc, header, *members])
            path.write_text("\n".join(lines) + "\n")
            return k
    raise AssertionError("no class record for that seed")


class TestCache:
    def test_stats_and_compact(self, capsys, files):
        cache_dir = str(files["dir"] / "cache2")
        run(capsys, "class", files["a3"], "--cache-dir", cache_dir)
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "records=1" in out
        code, out, _ = run(capsys, "cache", "compact", "--cache-dir", cache_dir)
        assert code == 0
        assert "kept=1" in out

    def test_stats_needs_no_lock_and_creates_nothing(self, capsys, files):
        cache_dir = files["dir"] / "cache7"
        run(capsys, "class", files["a3"], "--cache-dir", str(cache_dir))
        with Store(cache_dir):  # another writer holds the lock
            code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert code == 0 and "records=1 skipped=0" in out
        missing = files["dir"] / "missing"
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(missing))
        assert code == 0 and "records=0" in out
        assert not missing.exists()

    def test_a_call_falls_back_to_reading_when_another_writer_holds_the_lock(self, capsys, files):
        cache_dir = files["dir"] / "cache9"
        with Store(cache_dir):  # another writer holds the lock
            before = sorted(p.name for p in cache_dir.iterdir())
            code, out, _ = run(capsys, "class", files["a3"], "--cache-dir", str(cache_dir))
            assert code == 0 and out.startswith("status=CLOSED")
            assert sorted(p.name for p in cache_dir.iterdir()) == before
        assert not (cache_dir / "cache.jsonl").exists()

    def test_stats_counts_the_lines_compact_drops(self, capsys, files):
        cache_dir = files["dir"] / "cache8"
        cache_dir.mkdir()
        older = Path(__file__).parent / "data" / "cache_r3w1_v1.jsonl"
        (cache_dir / "cache.jsonl").write_bytes(older.read_bytes())  # an older format
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert code == 0 and "records=0 skipped=56" in out
        code, out, _ = run(capsys, "cache", "compact", "--cache-dir", str(cache_dir))
        assert code == 0 and "records=56 kept=0 dropped=56" in out
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert code == 0 and "records=0 skipped=0" in out

    def test_warm_cache_repeats_output(self, capsys, files):
        cache_dir = str(files["dir"] / "cache3")
        first = run(capsys, "embeds", files["a2"], files["a3"], "--json",
                    "--cache-dir", cache_dir)
        second = run(capsys, "embeds", files["a2"], files["a3"], "--json",
                     "--cache-dir", cache_dir)
        assert first == second

    def test_tampered_record_fails_only_the_call_that_reads_it(self, capsys, files, markov):
        cache_dir = str(files["dir"] / "cache5")
        for name in ("markov", "a2", "a3"):
            run(capsys, "class", files[name], "--cache-dir", cache_dir)
        k = _break_checksum(files["dir"] / "cache5" / "cache.jsonl", canonical_form(markov).hash)
        warm = run(capsys, "embeds", files["a2"], files["a3"], "--json", "--cache-dir", cache_dir)
        assert warm == run(capsys, "embeds", "NC", files["a2"], files["a3"], "--json")
        code, out, err = run(capsys, "class", files["markov"], "--cache-dir", cache_dir)
        assert (code, out) == (1, "") and f"cache line {k}:" in err

    def test_compact_checks_records_no_call_read(self, capsys, files, markov):
        cache_dir = str(files["dir"] / "cache6")
        for name in ("a2", "markov"):
            run(capsys, "class", files[name], "--cache-dir", cache_dir)
        path = files["dir"] / "cache6" / "cache.jsonl"
        k = _break_checksum(path, canonical_form(markov).hash)
        before = path.read_bytes()
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0 and "records=2" in out
        code, out, err = run(capsys, "cache", "compact", "--cache-dir", cache_dir)
        assert (code, out) == (1, "") and f"cache line {k}:" in err
        assert path.read_bytes() == before

    def test_env_var_selects_directory(self, capsys, files, monkeypatch):
        cache_dir = files["dir"] / "cache4"
        monkeypatch.setenv("MUTOPO_CACHE_DIR", str(cache_dir))
        code, _, _ = run(capsys, "class", files["a3"])
        assert code == 0
        assert (cache_dir / "cache.jsonl").exists()


def test_a_closed_stdout_ends_the_call_with_1(capsys, files, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["mutate", "--at", "2", files["a3"]]) == 1
    assert capsys.readouterr().err == ""


def test_module_entry_point(files):
    proc = fresh_python("-m", "mutopo", "finite", "--no-cache", files["markov"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "FINITE members=1"


def test_start_up_imports_no_dataclasses(files, u31_file):
    # every CLI call is a fresh interpreter: dataclasses, with the inspect it
    # loads, cost about 9 ms of each call's start-up and no answer needs them.
    # The cache, the topology, the checkers and hashlib (which maps OpenSSL)
    # load only in a call that uses them.
    never = {"dataclasses", "inspect"}
    lazy = {"mutopo.store", "mutopo.universe", "mutopo.properties"}
    call = "from mutopo.cli import main; assert main({!r}) == 0".format
    absent_after = {
        "import mutopo": never | lazy | {"hashlib", "_hashlib", "json"},
        "import mutopo.cli": never | lazy | {"hashlib", "_hashlib"},
        call(["class", "--no-cache", files["a3"], "--json"]):
            never | {"mutopo.universe", "mutopo.properties"},
        call(["hasse", "--partial", u31_file, "--json"]): never | {"mutopo.store"},
    }
    for code, absent in absent_after.items():
        proc = fresh_python("-c", f"import sys; {code}; "
                                  f"print(sorted(sys.modules.keys() & {absent!r}))")
        assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["[]"]), (code, proc.stderr)
    proc = fresh_python("-m", "mutopo", "--version")
    assert proc.returncode == 0 and proc.stdout.startswith("mutopo "), proc.stderr
