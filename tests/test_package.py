"""The package namespace: ``import mutopo`` loads ``matrix``, ``canonical``,
``classes`` and ``embed`` and resolves ``store``, ``universe`` and
``properties``, with their names, on first access.  Either way it offers
the same 75 names, each the defining module's object.  The checks of the
names run in a fresh interpreter, where nothing has touched them yet.  Each
module parses with the oldest grammar the package supports."""

import ast
import json
from pathlib import Path

import pytest

import mutopo
from conftest import fresh_python

PUBLIC = {
    "matrix": [
        "EmptySubset", "ExchangeMatrix", "FrozenMutation", "NotSkewSymmetrizable",
        "apply_sequence", "build", "disjoint_union", "from_inline", "from_json_dict",
        "from_text", "is_acyclic", "mutate", "restrict", "to_inline", "to_json_dict", "to_text",
    ],
    "canonical": [
        "CanonicalForm", "canonical_form", "canonical_relabeling", "content_hash",
        "is_isomorphic",
    ],
    "classes": [
        "Budget", "ClassEnumeration", "ClassKey", "DEFAULT_BUDGET", "Finiteness",
        "FinitenessVerdict", "Member", "Verdict", "class_key", "enumerate_class",
        "is_mutation_finite", "mutation_fingerprint", "seeds_separate",
    ],
    "embed": [
        "EmbedVerdict", "EmbedWitness", "density_witness", "embeds", "replay_embedding",
        "same_class",
    ],
    "properties": [
        "in_E_N", "is_N_abundant", "is_avoiding", "is_k_universal_bounded",
        "is_mutation_acyclic", "isolated_quiver",
    ],
    "universe": [
        "HasseDiagram", "Universe", "UniverseClass", "UnresolvedRelation", "build_hasse",
        "build_universe", "closure", "collect_classes", "dump_universe", "hasse_to_dot",
        "is_clopen", "is_closed", "is_open", "iter_quiver_seeds", "iter_skew_seeds",
        "load_universe", "open_set_generated", "universe_from_json", "universe_to_json",
    ],
    "store": ["CorruptRecord", "Store", "default_cache_dir"],
}

# Each script prints the names whose check fails, as a JSON list.
CHECKS = {
    "attribute": """
import importlib, mutopo
bad = [name for module, names in PUBLIC.items() for name in names
       if getattr(mutopo, name) is not getattr(importlib.import_module("mutopo." + module), name)]
bad += [module for module in PUBLIC if getattr(mutopo, module) is not sys.modules["mutopo." + module]]
""",
    "star import": """
namespace = {}
exec("from mutopo import *", namespace)
import importlib
bad = [name for module, names in PUBLIC.items() for name in names
       if namespace[name] is not getattr(importlib.import_module("mutopo." + module), name)]
bad += [module for module in PUBLIC if namespace[module] is not sys.modules["mutopo." + module]]
bad += sorted(set(namespace) - {"__builtins__"} - set(ALL))
""",
    "dir": """
import mutopo
bad = sorted(set(ALL) - set(dir(mutopo)))
""",
    "submodule after a bare import": """
import mutopo
assert "mutopo.store" not in sys.modules
bad = [] if mutopo.store is sys.modules["mutopo.store"] else ["store"]
""",
}


ALL = sorted([name for names in PUBLIC.values() for name in names] + list(PUBLIC))


@pytest.mark.parametrize("check", CHECKS)
def test_every_public_name_is_the_defining_modules_object(check):
    script = (f"import json, sys\nPUBLIC = {PUBLIC!r}\nALL = {ALL!r}\n"
              f"{CHECKS[check]}\nprint(json.dumps(bad))")
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []


def test_all_is_the_public_names_and_the_submodules():
    assert len(ALL) == 75
    assert mutopo.__all__ == ALL


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        mutopo.nosuch
    # so `from mutopo import nosuch` falls back to a submodule import, and fails
    with pytest.raises(ImportError):
        from mutopo import nosuch  # noqa: F401


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is left out: its imports are the package's re-exports
    unused = []
    for path in sorted(Path(mutopo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_module_parses_as_python_3_10():
    """pyproject.toml declares Python >= 3.10: each module must parse with the
    3.10 grammar, so no ``except*`` or other newer syntax.  This checks
    grammar only, not calls into library functions new in 3.11."""
    for path in sorted(Path(mutopo.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
