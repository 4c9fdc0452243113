"""Byte-for-byte goldens for the gluing primitives and the products built on them.

The files under tests/goldens/ were written by the engine before gluing,
relabelling, the sheet constructors and the products of complexes were each
folded into one code path, and colored_unknot3.json before delooping read its
entries off the dot masks; none of these outputs may change.  Regenerate
(only when a change is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens_gluing.py
"""

import contextlib
import io
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from catsl2.cli import main
from catsl2.cobordism import (CobMorphism, FlatTangle, compose, dual, glue,
                              juxtapose, partial_trace, stack)
from catsl2.homology import u_action_on_homology
from catsl2.projectors import truncated_pn
from catsl2.tl import all_matchings
from conftest import todays_pivot_key

GOLDENS = Path(__file__).parent / "goldens"
SEED = 20261017
CASES_PER_OP = 40

COLORED = {
    "colored_trefoil2.json": {"braid": {"strands": 2, "word": [1, 1, 1]},
                              "colors": [2], "family": {"2": {"indices": [2]}}},
    "colored_figure_eight.json": {"braid": {"strands": 3, "word": [1, -2, 1, -2]},
                                  "colors": [1]},
    "colored_plat_trefoil.json": {"braid": {"strands": 4, "word": [2, 2, 2]},
                                  "closure": "plat", "colors": [1]},
    # the one-crossing unknot colored 3, boxed by Q3: the heaviest delooping
    "colored_unknot3.json": {"braid": {"strands": 2, "word": [1]},
                             "colors": [3], "family": {"3": {"indices": [3]}}},
}
WINDOW = {"colored_unknot3.json": 8}


def _tangle(rng, n):
    return FlatTangle(n, rng.choice(all_matchings(n)), rng.randrange(2))


def _morphism(rng, src, tgt):
    """One or two dotted-disk terms of a common dot count, random coefficients."""
    nc = len(glue(src, tgt))
    masks = [sum(1 << c for c in combo)
             for combo in combinations(range(nc), rng.randrange(nc + 1))]
    chosen = rng.sample(masks, min(len(masks), rng.randrange(1, 3)))
    return CobMorphism(src, tgt, {m: rng.choice([1, -1, 2, -3]) for m in chosen})


def _identity_or_random(rng, src, tgt):
    if src == tgt and rng.random() < 0.3:
        return CobMorphism.identity(src).scale(rng.choice([1, -1, 2]))
    return _morphism(rng, src, tgt)


def _where(rng, t):
    """A random sheet selector for dotted_identity: point, arc or circle."""
    options = list(range(2 * t.n)) + t.matching.arcs()
    options += [("circle", i) for i in range(t.circles)]
    return rng.choice(options)


def _where_json(where):
    if isinstance(where, int):
        return {"point": where}
    if isinstance(where, frozenset):
        return {"arc": sorted(where)}
    return {"circle": where[1]}


def cobordism_cases() -> list[dict]:
    rng = random.Random(SEED)
    out = []

    def record(op, args, result):
        out.append({"op": op, "args": args, "result": result.to_json()})

    for _ in range(CASES_PER_OP):
        n = rng.randrange(2, 4)
        a, b, c = (_tangle(rng, n) for _ in range(3))
        if rng.random() < 0.3:
            b = FlatTangle(n, b.matching, 0)
        f, g = _identity_or_random(rng, a, b), _identity_or_random(rng, b, c)
        record("compose", [g.to_json(), f.to_json()], compose(g, f))
    for _ in range(CASES_PER_OP):
        n = rng.randrange(2, 4)
        f = _morphism(rng, _tangle(rng, n), _tangle(rng, n))
        g = _morphism(rng, _tangle(rng, n), _tangle(rng, n))
        record("stack", [f.to_json(), g.to_json()], stack(f, g))
    for _ in range(CASES_PER_OP):
        n1 = rng.randrange(1, 3)
        n2 = rng.randrange(1, 4 - n1)
        f = _morphism(rng, _tangle(rng, n1), _tangle(rng, n1))
        g = _morphism(rng, _tangle(rng, n2), _tangle(rng, n2))
        record("juxtapose", [f.to_json(), g.to_json()], juxtapose(f, g))
    # the file was recorded with reflect and rotate cases here; their inputs
    # are still drawn, so the records after them keep theirs
    for op, fn in (("partial_trace", partial_trace), ("reflect", None),
                   ("dual", dual), ("rotate", None)):
        for _ in range(CASES_PER_OP):
            n = rng.randrange(2, 4)
            f = _morphism(rng, _tangle(rng, n), _tangle(rng, n))
            if fn:
                record(op, [f.to_json()], fn(f))
    for _ in range(CASES_PER_OP // 4):
        t = _tangle(rng, rng.randrange(2, 4))
        record("identity", [t.matching.pairing, t.circles], CobMorphism.identity(t))
        where = _where(rng, t)
        record("dotted_identity", [t.matching.pairing, t.circles, _where_json(where)],
               CobMorphism.dotted_identity(t, where))
        t1 = FlatTangle(t.n, t.matching, 1 + rng.randrange(2))
        dotted = rng.random() < 0.5
        record("cap_circle", [t1.matching.pairing, t1.circles, dotted],
               CobMorphism.cap_circle(t1, dotted))
        record("cup_circle", [t1.matching.pairing, t1.circles, dotted],
               CobMorphism.cup_circle(t1, dotted))
    return out


def cobordism_text() -> str:
    return json.dumps(cobordism_cases(), indent=1, sort_keys=True) + "\n"


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def tensor_text(tmp: Path) -> str:
    path = tmp / "q2.json"
    path.write_text(_cli(["proj", "q2"]))
    return _cli(["complex", "tensor", str(path), str(path)])


def colored_text(tmp: Path, name: str) -> str:
    path = tmp / name
    path.write_text(json.dumps(COLORED[name]))
    return _cli(["--window", str(WINDOW.get(name, 12)), "colored", "homology", str(path)])


def u_action_text() -> str:
    groups, action = u_action_on_homology(truncated_pn(2, 8), 2)
    payload = {"groups": groups.to_json(),
               "action": [{"h": h, "q": q, "cols": cols, "src_orders": so,
                           "tgt_orders": to}
                          for (h, q), (cols, so, to) in sorted(action.items())]}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_cobordism_ops_golden():
    assert cobordism_text() == (GOLDENS / "cobordism_ops.json").read_text()


def test_cli_tensor_golden(tmp_path):
    assert tensor_text(tmp_path) == (GOLDENS / "tensor_q2_q2.json").read_text()


@pytest.mark.parametrize("name", sorted(COLORED))
def test_colored_homology_golden(name, tmp_path):
    assert colored_text(tmp_path, name) == (GOLDENS / name).read_text()


@pytest.mark.parametrize("name", sorted(COLORED))
def test_colored_homology_golden_under_todays_pivot_key(name, tmp_path):
    # homology must not depend on the elimination order: the bracket's fold
    # takes the fill-in key, and today's key must print the same bytes
    with todays_pivot_key():
        assert colored_text(tmp_path, name) == (GOLDENS / name).read_text()


def test_u_action_golden():
    assert u_action_text() == (GOLDENS / "u_action_p2_w8.json").read_text()


if __name__ == "__main__":
    import tempfile
    (GOLDENS / "cobordism_ops.json").write_text(cobordism_text())
    (GOLDENS / "u_action_p2_w8.json").write_text(u_action_text())
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDENS / "tensor_q2_q2.json").write_text(tensor_text(Path(tmp)))
        for name in COLORED:
            (GOLDENS / name).write_text(colored_text(Path(tmp), name))
