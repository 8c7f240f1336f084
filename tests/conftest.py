from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mutopo
from mutopo import build


def fresh_python(*argv):
    """Run a fresh interpreter that imports the same mutopo as this process,
    installed or not."""
    src = str(Path(mutopo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def quiver(rows):
    return build(len(rows), 0, rows)


def weighted_pair(w):
    return quiver([[0, w], [-w, 0]])


def member_hashes(enum):
    """The canonical hashes of a class enumeration's members."""
    return frozenset(mem.form.hash for mem in enum.members)


def tree_quiver(size, edges):
    """Quiver of a tree with every edge (i, j) oriented i -> j, 1-based."""
    rows = [[0] * size for _ in range(size)]
    for i, j in edges:
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    return quiver(rows)


def type_a(n):
    return tree_quiver(n, [(i, i + 1) for i in range(1, n)])


def type_d(n):
    return tree_quiver(n, [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)])


def type_e(n):
    return tree_quiver(n, [(i, i + 1) for i in range(1, n - 1)] + [(3, n)])


@pytest.fixture
def pt():
    return quiver([[0]])


@pytest.fixture
def i2():
    return quiver([[0, 0], [0, 0]])


@pytest.fixture
def a2():
    return weighted_pair(1)


@pytest.fixture
def a3():
    return quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


@pytest.fixture
def a4():
    return quiver(
        [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
    )


@pytest.fixture
def markov():
    return quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


@pytest.fixture
def w333():
    return quiver([[0, 3, -3], [-3, 0, 3], [3, -3, 0]])


@pytest.fixture
def cycle321():
    # 1 -> 3 with weight 3, 3 -> 2 with weight 2, 2 -> 1 with weight 1
    return quiver([[0, -1, 3], [1, 0, -2], [-3, 2, 0]])


def random_quiver(rng, size, max_entry):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-max_entry, max_entry)
            rows[i][j] = v
            rows[j][i] = -v
    return quiver(rows)


def random_skew(rng, n, m, max_ratio=3, max_weight=2):
    """Random valid skew-symmetrizable matrix: b[i][j] = s[i][j] * d[j] for a
    random skew-symmetric s and positive d."""
    size = n + m
    d = [rng.randint(1, max_ratio) for _ in range(size)]
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            s = rng.randint(-max_weight, max_weight)
            rows[i][j] = s * d[j]
            rows[j][i] = -s * d[i]
    return build(n, m, rows)
