"""Morphism values: interned tangles and the canonical-terms constructor.

`Matching` and `FlatTangle` are interned through lru_caches that can be
cleared at any time (the benchmark clears every catsl2 cache before each
op), so equal but distinct instances must still behave as one value; and
morphisms built by the private `CobMorphism._from_canonical` must be
exactly what the public constructor builds from the same terms.
"""

import copy
import json
import pickle
import sys

import pytest

from catsl2 import cobordism, tl
from catsl2.cobordism import (CobMorphism, FlatTangle, InvariantError, compose,
                              partial_trace, stack)
from catsl2.complexes import tensor
from catsl2.projectors import truncated_pn
from catsl2.tl import Matching
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
    pairing = Matching.identity(3).pairing
    tl._matching.cache_clear()
    checked = []
    planar = tl.is_planar_matching
    monkeypatch.setattr(tl, "is_planar_matching",
                        lambda p: checked.append(p) or planar(p))
    first = Matching(3, pairing)
    assert Matching(3, pairing) is first and Matching.identity(3) is first
    assert checked == [pairing]
    tl._matching.cache_clear()
    again = Matching(3, pairing)
    assert again is not first and again == first and hash(again) == hash(first)
    assert checked == [pairing, pairing]


def test_copies_and_pickles_are_the_interned_value():
    clear_catsl2_caches()  # so that t.matching is the interned matching
    t = FlatTangle(3, Matching.e(1, 3), 1)
    for same in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert same(t) is t and same(t.matching) is t.matching
    data = pickle.dumps(t)
    clear_catsl2_caches()
    again = pickle.loads(data)
    assert again is not t and again == t and hash(again) == hash(t)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_bad_values_raise_before_and_after_a_cache_clear(run_python, optimize):
    script = """
from catsl2 import cobordism, tl
from catsl2.cobordism import FlatTangle, InvariantError
from catsl2.tl import Matching
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
    tl._matching.cache_clear()
    cobordism._flat_tangle.cache_clear()
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rejected: pairing length must be 2n",
        "rejected: non-planar pairing (3, 2, 1, 0)",
        "rejected tangle"] * 2


def test_mixed_instances_after_a_cache_clear():
    caches = clear_catsl2_caches()
    assert tl._matching in caches and cobordism._flat_tangle in caches
    before = truncated_pn(2, 6).complex
    reference = dump(tensor(before, truncated_pn(2, 6).complex))
    clear_catsl2_caches()
    after = truncated_pn(2, 6).complex
    top, top_after = before.objects[0][0].tangle, after.objects[0][0].tangle
    assert top_after is not top and top_after == top
    assert top_after.matching is not top.matching
    assert dump(after) == dump(before)
    # equality falls back to the fields wherever `is` fails
    assert dump(tensor(before, after)) == reference
    assert dump(tensor(after, before)) == reference


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
