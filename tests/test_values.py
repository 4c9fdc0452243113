"""Morphism values: interned tangles and the canonical-terms constructor.

`Matching` and `FlatTangle` keep one live instance per value in a weak
interning table (`tl.interned`), which no cache clear touches (the
benchmark clears every catsl2 cache before each op), so equality and
hashing are identity and a value is checked once while an instance lives;
and morphisms built by the private `CobMorphism._from_canonical` must be
exactly what the public constructor builds from the same terms.
"""

import copy
import gc
import json
import pickle
import sys

import pytest

from catsl2 import cobordism, tl
from catsl2.cobordism import (CobMorphism, FlatTangle, InvariantError, compose,
                              partial_trace, stack)
from catsl2.complexes import tensor
from catsl2.projectors import truncated_pn
from catsl2.tl import Matching, all_matchings
from test_cobordism import rand_multi, rand_tangle


def clear_catsl2_caches() -> list:
    """Clear every functools cache of the catsl2 modules and their classes,
    found by the same introspection as `find_caches` in perfbench/run.py."""
    found: dict[int, object] = {}

    def visit(obj):
        if callable(getattr(obj, "cache_clear", None)) and \
                callable(getattr(obj, "cache_info", None)):
            found.setdefault(id(obj), obj)

    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "catsl2" or name.startswith("catsl2.")):
            continue
        for val in vars(mod).values():
            visit(val)
            if isinstance(val, type) and val.__module__.startswith("catsl2"):
                for attr in vars(val).values():
                    visit(getattr(attr, "__func__", attr))
    for cache in found.values():
        cache.cache_clear()
    return list(found.values())


def dump(c) -> str:
    return json.dumps(c.to_json(), sort_keys=True)


def test_each_pairing_is_validated_once(monkeypatch):
    clear_catsl2_caches()
    pairing = Matching.e(4, 7).pairing  # its instance goes at once
    gc.collect()
    key = (7, pairing)
    assert key not in tl._matching.table
    checked = []
    planar = tl.is_planar_matching
    monkeypatch.setattr(tl, "is_planar_matching",
                        lambda p: checked.append(p) or planar(p))
    first = Matching(7, pairing)
    assert Matching(7, pairing) is first and Matching.e(4, 7) is first
    clear_catsl2_caches()  # leaves the live instance in the table
    assert Matching(7, pairing) is first and checked == [pairing]
    del first
    gc.collect()
    assert key not in tl._matching.table
    again = Matching(7, pairing)
    assert checked == [pairing, pairing] and tl._matching.table[key] is again


def test_copies_and_pickles_are_the_interned_value():
    t = FlatTangle(3, Matching.e(1, 3), 1)
    for same in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert same(t) is t and same(t.matching) is t.matching
    data = pickle.dumps(t)
    clear_catsl2_caches()
    assert pickle.loads(data) is t  # t lives, so it is the value's instance


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_bad_values_raise_before_and_after_a_cache_clear(run_python, optimize):
    script = """
import gc
from catsl2 import cobordism, tl
from catsl2.cobordism import FlatTangle, InvariantError
from catsl2.tl import Matching, all_matchings
for _ in range(2):
    for pairing in ((1, 0, 3, 2, 0), (3, 2, 1, 0)):
        try:
            Matching(2, pairing)
            print("accepted")
        except ValueError as exc:
            print("rejected:", exc)
    try:
        FlatTangle(3, Matching.identity(2))
        print("accepted")
    except InvariantError:
        print("rejected tangle")
    for mod in (tl, cobordism):
        for val in vars(mod).values():
            if hasattr(val, "cache_clear"):
                val.cache_clear()
    gc.collect()
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rejected: pairing length must be 2n",
        "rejected: non-planar pairing (3, 2, 1, 0)",
        "rejected tangle"] * 2


def test_one_instance_per_value_across_a_cache_clear():
    caches = clear_catsl2_caches()
    assert tl._matching not in caches and cobordism._flat_tangle not in caches
    before = truncated_pn(2, 6).complex
    reference = dump(tensor(before, before))
    clear_catsl2_caches()
    after = truncated_pn(2, 6).complex
    assert after is not before  # rebuilt, from the live tangles
    for objs, objs_after in zip(before.objects.values(), after.objects.values()):
        for o, o_after in zip(objs, objs_after):
            assert o_after.tangle is o.tangle and o_after == o
    t = before.objects[0][0].tangle
    assert FlatTangle(t.n, t.matching, t.circles) is t
    assert Matching(t.n, t.matching.pairing) is t.matching
    assert dump(after) == dump(before)
    assert dump(tensor(before, after)) == reference
    assert dump(tensor(after, before)) == reference


def test_collected_values_leave_the_table():
    clear_catsl2_caches()
    pairing = Matching.e(2, 6).pairing
    gc.collect()
    t = FlatTangle(6, Matching(6, pairing), 2)
    clear_catsl2_caches()
    assert FlatTangle(6, Matching(6, pairing), 2) is t
    assert Matching(6, pairing) is t.matching
    assert cobordism._flat_tangle.table[(6, t.matching, 2)] is t
    del t
    gc.collect()
    assert (6, pairing) not in tl._matching.table
    assert not [key for key in cobordism._flat_tangle.table
                if key[0] == 6 and key[1].pairing == pairing and key[2] == 2]
    # distinct values are distinct instances, equal ones the same
    tangles = [FlatTangle(n, mt, c) for n in (1, 2, 3)
               for mt in all_matchings(n) for c in (0, 2)]
    again = [FlatTangle(x.n, Matching(x.n, x.matching.pairing), x.circles)
             for x in tangles]
    assert all(y is x for x, y in zip(tangles, again))
    assert len(set(tangles)) == len(tangles) == 2 * (1 + 2 + 5)
    assert len({t.matching for t in tangles if t.n == 3}) == 5


def test_flat_tangle_identity_is_invisible():
    m = Matching.e(1, 2)
    t = FlatTangle(2, m, 1)
    assert {t: "x"}[FlatTangle(2, Matching.e(1, 2), 1)] == "x"
    # hashes follow memory addresses; repr, order and JSON read the fields
    assert repr(t) == f"FlatTangle(n=2, matching={m!r}, circles=1)"
    assert repr(m) == "Matching(n=2, pairing=(1, 0, 3, 2))"
    data = json.dumps(CobMorphism.canonical(t, t).to_json())
    assert json.loads(data)["source"] == {"matching": [1, 0, 3, 2], "circles": 1}
    assert str(hash(t)) not in data and str(hash(m)) not in data
    tangles = [FlatTangle(n, mt, c) for n in (1, 2, 3)
               for mt in all_matchings(n) for c in (0, 1)]
    fields = {t: (t.n, t.matching.pairing, t.circles) for t in tangles}
    for x in tangles:
        for y in tangles:
            fx, fy = fields[x], fields[y]
            assert (x < y) == (fx < fy) and (x <= y) == (fx <= fy)
            assert (x == y) == (fx == fy) and (x.matching < y.matching) == (fx[:2] < fy[:2])


def canonical_form(m: CobMorphism) -> CobMorphism:
    """What the public constructor builds from m's terms."""
    return CobMorphism(m.src, m.tgt, dict(m.terms))


def assert_canonical(m: CobMorphism):
    ref = canonical_form(m)
    assert list(m.terms.items()) == list(ref.terms.items())
    assert list(m.terms) == sorted(m.terms) and all(m.terms.values())
    assert len({mask.bit_count() for mask in m.terms}) <= 1
    assert (m.src, m.tgt) == (ref.src, ref.tgt)


def test_every_constructor_gives_canonical_terms(rng):
    for _ in range(300):
        n = rng.randrange(1, 4)
        a, b, c = (rand_tangle(rng, n) for _ in range(3))
        f, g, h = rand_multi(rng, a, b), rand_multi(rng, b, c), rand_multi(rng, c, a)
        k = rng.choice([1, -1, 2, -3])
        scaled = f.scale(k)
        assert scaled is not f and scaled.terms == {m: k * x for m, x in f.terms.items()}
        for m in (scaled, f.scale(0), -f, compose(g, f), stack(f, h),
                  partial_trace(f), f + f.scale(-1), f - f):
            assert_canonical(m)


def test_mixed_dot_counts_raise_through_both_public_paths():
    one2 = FlatTangle.identity(2)
    with pytest.raises(InvariantError, match="bihomogeneous"):
        CobMorphism(one2, one2, {0: 1, 1: 1})
    with pytest.raises(InvariantError, match="bihomogeneous"):
        CobMorphism(one2, one2, {3: 2, 1: 0, 0: -1})
    with pytest.raises(InvariantError, match="bihomogeneous"):
        CobMorphism.identity(one2) + CobMorphism.dotted_identity(one2, 0)
    # a single term skips the sort but not the zero filter
    assert CobMorphism(one2, one2, {1: 0}).is_zero()
    assert CobMorphism(one2, one2, {1: 0, 0: 0}).is_zero()
