"""The records of the package are namedtuples, so plain immutable values:
records with equal fields compare and hash equal, assigning a field or a
new attribute raises AttributeError, and the repr is
``Name(field=value, ...)``.  Their JSON encodings are objects, though
``json`` writes a tuple, and so a namedtuple, as a list."""

import json

import pytest

from conftest import quiver, type_a
from mutopo import (
    Budget,
    EmbedWitness,
    build_hasse,
    build_universe,
    class_key,
    embeds,
    enumerate_class,
    is_mutation_finite,
    mutate,
)
from mutopo.embed import witness_json

A3 = type_a(3)
SMALL = Budget(max_members=2)
WILD = quiver([[0, 3, -3], [-3, 0, 3], [3, -3, 0]])  # an entry above 2: INFINITE
MARKOV = quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])

# name, fields, a factory of fresh equal records, a record that differs
CASES = [
    ("ExchangeMatrix", ("n", "m", "b"), lambda: type_a(3), lambda: mutate(A3, 2)),
    ("Budget", ("max_members", "max_entry", "max_depth"),
     lambda: Budget(50, 8), lambda: Budget(50, 8, 3)),
    ("Member", ("form", "witness", "reached"),
     lambda: enumerate_class(A3).members[1], lambda: enumerate_class(A3).members[2]),
    ("ClassEnumeration", ("seed", "members", "tripped", "entry_witness", "budget"),
     lambda: enumerate_class(A3), lambda: enumerate_class(A3, SMALL)),
    ("ClassKey", ("form", "status"), lambda: class_key(A3), lambda: class_key(A3, SMALL)),
    ("FinitenessVerdict", ("kind", "enumeration", "offender", "budget"),
     lambda: is_mutation_finite(A3), lambda: is_mutation_finite(WILD)),
    ("EmbedWitness", ("q_sequence", "subset", "p_sequence"),
     lambda: embeds(type_a(2), A3).witness, lambda: EmbedWitness((1,), (1, 2), ())),
    ("EmbedVerdict", ("verdict", "witness", "budget"),
     lambda: embeds(type_a(2), A3), lambda: embeds(type_a(2), A3, SMALL)),
    ("UniverseClass", ("key", "seed"),
     lambda: build_universe(2, 1).classes[1], lambda: build_universe(2, 1).classes[2]),
    ("Universe", ("rank_cap", "entry_cap", "budget", "family", "classes", "relation",
                  "witnesses"),
     lambda: build_universe(2, 1), lambda: build_universe(1, 0)),
    ("HasseDiagram", ("universe", "edges", "unknown"),
     lambda: build_hasse(build_universe(2, 1)), lambda: build_hasse(build_universe(1, 0))),
]

parametrize = pytest.mark.parametrize(
    "name, fields, make, other", CASES, ids=[case[0] for case in CASES]
)


@parametrize
def test_equal_records_compare_and_hash_equal(name, fields, make, other):
    x, y = make(), make()
    assert type(x).__name__ == name and x is not y
    assert isinstance(x, tuple) and x._fields == fields
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != other()


@parametrize
def test_assigning_a_field_raises(name, fields, make, other):
    x = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.note = "no record takes a new attribute"


@parametrize
def test_repr_names_every_field(name, fields, make, other):
    x = make()
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in fields) + ")"


def test_derived_state_is_kept_beside_the_fields():
    enum = enumerate_class(A3)
    # a cached property still caches
    assert enum.relabelings is enum.relabelings and enum.least is enum.least
    assert enum.member_for(enum.seed).witness == ()
    assert enum.thinnest == 0  # A3 has no arrow between its ends
    assert enumerate_class(MARKOV).thinnest == 2
    assert enumerate_class(quiver([[0]])).thinnest is None  # no pair at rank 1


def test_witness_and_budget_encode_as_objects():
    witness = EmbedWitness((2, 1), (1, 3), ())
    assert json.dumps(witness_json(witness), sort_keys=True) == (
        '{"p_sequence": [], "q_sequence": [2, 1], "subset": [1, 3]}'
    )
    assert witness_json(None) is None
    assert json.dumps(Budget(50, 8).to_json(), sort_keys=True) == (
        '{"max_depth": null, "max_entry": 8, "max_members": 50}'
    )
