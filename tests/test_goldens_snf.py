"""Entry-for-entry goldens for the Smith normal form and the solver's systems.

`smith_normal_form` promises more than a diagonal D: callers (kernel bases,
homology generators, the convolution solver) read U and V, so the exact
sequence of elementary operations is part of its contract.  The file
tests/goldens/snf.json was written by the dense implementation before the
factorization moved to sparse rows; it holds (U, D, V) for 200 seeded small
matrices and sha256 digests for the four systems that the convolution solver
factors in build_qn(3, 24).  Reordering any elementary operation changes U or
V and fails here.  Regenerate (only when a change is meant to alter these
outputs) with

    PYTHONPATH=src python tests/test_goldens_snf.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import catsl2.homology as homology
from catsl2.homology import smith_normal_form
from catsl2.projectors import build_qn

GOLDEN = Path(__file__).parent / "goldens" / "snf.json"
QN3_W24_SHAPES = [(79, 35), (129, 69), (149, 69), (189, 69)]


def _random_matrix(rng: random.Random, kind: int) -> list[list[int]]:
    """Small matrices in [-9, 9] that reach every branch of the reduction:
    dense, sparse, non-unit pivots, zero rows and columns, and non-dividing
    diagonals (the divisibility "culprit" step)."""
    r, c = rng.randrange(1, 9), rng.randrange(1, 9)
    if kind == 0:
        return [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
    if kind == 1:
        return [[rng.randrange(-9, 10) if rng.random() < 0.25 else 0
                 for _ in range(c)] for _ in range(r)]
    if kind == 2:
        g = rng.choice((2, 3))
        return [[g * rng.randrange(-9 // g, 9 // g + 1) for _ in range(c)]
                for _ in range(r)]
    if kind == 3:
        m = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randrange(0, r)):
            m[i] = [0] * c
        for j in rng.sample(range(c), rng.randrange(0, c)):
            for row in m:
                row[j] = 0
        return m
    m = [[0] * c for _ in range(r)]
    for i in range(min(r, c)):
        m[i][i] = rng.choice((2, 3, 4, 5, 6, 9, -2, -3, -4, -6))
    for _ in range(rng.randrange(0, 4)):
        i, j = rng.randrange(r), rng.randrange(c)
        m[i][j] = rng.choice((2, 4, 6, -2, -4, 3, -3))
    rows, cols = list(range(r)), list(range(c))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


def random_cases() -> list[list[list[int]]]:
    rng = random.Random(5051)
    cases = [[], [[], []], [[0]], [[0, 0], [0, 0]], [[2, 0], [0, 3]],
             [[-4]], [[6, 10, 15]], [[6], [10], [15]]]
    cases += [_random_matrix(rng, idx % 5) for idx in range(200 - len(cases))]
    return cases


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solver_systems() -> list[dict]:
    """The integer systems build_qn(3, 24) hands to `solve_integer`, in order."""
    seen = []
    original = homology.solve_integer

    def spy(rows, cols, rhs_list):  # recorded dense, as the digests were taken
        seen.append(([[row.get(c, 0) for c in range(cols)] for row in rows], rhs_list[0]))
        return original(rows, cols, rhs_list)

    homology.solve_integer = spy
    try:
        build_qn(3, 24)
    finally:
        homology.solve_integer = original
    return [{"shape": [len(m), len(m[0])], "system": _digest([m, rhs]),
             "snf": _digest(list(smith_normal_form(m)))} for m, rhs in seen]


def golden_text() -> str:
    def lines(items):
        return ",\n".join(json.dumps(x, sort_keys=True, separators=(",", ":"))
                          for x in items)
    cases = [{"m": m, "udv": list(smith_normal_form(m))} for m in random_cases()]
    return ('{"random": [\n' + lines(cases) + '\n],\n"qn3_w24_systems": [\n'
            + lines(solver_systems()) + "\n]}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_snf_golden_random(golden):
    recorded = golden["random"]
    for idx, case in enumerate(recorded):
        assert list(smith_normal_form(case["m"])) == case["udv"], idx


def test_solver_systems_golden(golden):
    systems = solver_systems()
    assert [tuple(s["shape"]) for s in systems] == QN3_W24_SHAPES
    assert systems == golden["qn3_w24_systems"]


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
