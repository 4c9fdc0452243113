import itertools
import json

import pytest

from catsl2 import cobordism, tl
from catsl2.cobordism import (CobMorphism, FlatTangle, InvariantError,
                              _compose_plan, _merge, _merged_plan, _stack_plan,
                              _trace_plan, compose, dual, glue, juxtapose,
                              partial_trace, reduce_components, reflect,
                              rotate, stack, stack_tangles, trace_tangle)
from catsl2.tl import Matching, all_matchings, stack_matchings, trace_matching


def rand_tangle(rng, n, circ_max=1):
    return FlatTangle(n, rng.choice(all_matchings(n)), rng.randrange(circ_max + 1))


def rand_basis(rng, src, tgt):
    mask = 0
    for i in range(len(glue(src, tgt))):
        if rng.random() < 0.35:
            mask |= 1 << i
    return CobMorphism(src, tgt, {mask: rng.choice([1, -1, 2])})


def rand_multi(rng, src, tgt, max_terms=3):
    """A bihomogeneous morphism with up to max_terms basis terms."""
    curves = len(glue(src, tgt))
    k = rng.randrange(curves + 1)
    masks = {sum(1 << i for i in rng.sample(range(curves), k))
             for _ in range(max_terms)}
    return CobMorphism(src, tgt, {m: rng.choice([1, -1, 2, 3]) for m in masks})


def test_glue_curves_examples():
    # curves of bottom u mirror(top) are numbered by their smallest point
    one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    assert glue(one2, one2).point_curve == {0: 0, 2: 0, 1: 1, 3: 1}
    assert glue(e, e).point_curve == {0: 0, 1: 0, 2: 1, 3: 1}
    assert glue(e, one2).point_curve == {0: 0, 1: 0, 2: 0, 3: 0}
    with pytest.raises(InvariantError):
        glue(one2, FlatTangle.identity(3))


# layer keys and circle lookups of the provenance that stack_tangles and
# trace_tangle return
TOP, BOTTOM = 0, 1


def stacked_circle(st, layer, i):
    return st.circle_map[(layer, i)]


def traced_circle(tr, i):
    return tr.circle_map[0, i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_glue_against_union_find_oracle(n):
    """Curves of glue(S, T) against the classes of the boundary points under
    the arcs of both matchings, ordered by smallest point, then S's circles,
    then T's circles."""
    tangles = [FlatTangle(n, mt, c) for mt in all_matchings(n) for c in (0, 1)]
    for s, t in itertools.product(tangles, repeat=2):
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for pairing in (s.matching.pairing, t.matching.pairing):
            for p, q in enumerate(pairing):
                parent[find(p)] = find(q)
        classes: dict[int, list[int]] = {}
        for p in range(2 * n):
            classes.setdefault(find(p), []).append(p)
        curves = sorted(classes.values())
        index = {p: k for k, pts in enumerate(curves) for p in pts}
        k = len(curves)
        info = glue(s, t)
        assert len(info) == k + s.circles + t.circles
        assert info.point_curve == index
        assert info.arc_src_curve == {a: index[min(a)] for a in s.matching.arcs()}
        assert info.arc_tgt_curve == {a: index[min(a)] for a in t.matching.arcs()}
        assert info.circle_src_curve == {i: k + i for i in range(s.circles)}
        assert info.circle_tgt_curve == {i: k + s.circles + i
                                         for i in range(t.circles)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_and_traced_tangles_keep_matching_provenance(n):
    """A stacked tangle's circles are the middle loops, then the bottom's
    circles, then the top's; a traced tangle's are the closed strand, if
    any, then the old ones.  Arcs go where the matchings' provenance says."""
    tangles = [FlatTangle(n, mt, c) for mt in all_matchings(n) for c in (0, 1)]
    for top, bottom in itertools.product(tangles, repeat=2):
        st = stack_tangles(top, bottom)
        info = stack_matchings(top.matching, bottom.matching)
        loops = info.circles
        assert st.tangle == FlatTangle(n, info.result,
                                       loops + bottom.circles + top.circles)
        assert dict(st.arc_map) == dict(info.arc_map)
        for i in range(bottom.circles):
            assert stacked_circle(st, BOTTOM, i) == loops + i
        for i in range(top.circles):
            assert stacked_circle(st, TOP, i) == loops + bottom.circles + i
        assert len(st.circle_map) == bottom.circles + top.circles
    for t in tangles:
        tr, info = trace_tangle(t), trace_matching(t.matching)
        closed = int(("circle", 0) in info.arc_map.values())
        assert tr.tangle == FlatTangle(n - 1, info.result, t.circles + closed)
        assert dict(tr.arc_map) == dict(info.arc_map)
        assert [traced_circle(tr, i) for i in range(t.circles)] == \
            [closed + i for i in range(t.circles)]
        assert len(tr.circle_map) == t.circles


def test_reduce_neck_cutting_rules():
    # undotted cylinder between two curves
    assert reduce_components([((0, 1), 0, 0)]) == [(0b10, 1), (0b01, 1)]
    # two dots annihilate
    assert reduce_components([((0,), 2, 1)]) == []
    # undotted pants on three curves: all assignments with exactly two dots
    out = reduce_components([((0, 1, 2), 0, -1)])
    assert sorted(out) == [(0b011, 1), (0b101, 1), (0b110, 1)]
    # spheres
    assert reduce_components([((), 0, 2)]) == []
    assert reduce_components([((), 1, 2)]) == [(0, 1)]
    # torus evaluates to 2
    assert reduce_components([((), 0, 0)]) == [(0, 2)]
    # genus adds a dot and a factor 2
    assert reduce_components([((0,), 0, -1)]) == [(0b1, 2)]


def test_neck_cutting_and_sphere_relations():
    one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    hs = CobMorphism.canonical(one2, e)
    isad = CobMorphism.canonical(e, one2)
    td = CobMorphism.dotted_identity(e, 2)
    bd = CobMorphism.dotted_identity(e, 0)
    assert compose(hs, isad) == td + bd          # neck cutting through 1_2
    dl = CobMorphism.dotted_identity(one2, 0)
    dr = CobMorphism.dotted_identity(one2, 1)
    assert compose(isad, hs) == dl + dr          # neck cutting through e
    assert compose(td, td).is_zero()             # two dots on one sheet
    t_o = FlatTangle(0, Matching(0, ()), 1)
    cup = CobMorphism.cup_circle(t_o, False)
    cap = CobMorphism.cap_circle(t_o, False)
    cupd = CobMorphism.cup_circle(t_o, True)
    capd = CobMorphism.cap_circle(t_o, True)
    assert compose(cap, cup).is_zero()           # sphere = 0
    assert compose(capd, cup).terms == {0: 1}    # dotted sphere = 1
    assert compose(capd, cupd).is_zero()         # two dots
    assert compose(cupd, cap) + compose(cup, capd) == CobMorphism.identity(t_o)


def test_identity_is_neutral(rng):
    for _ in range(200):
        n = rng.randrange(1, 4)
        s, t = rand_tangle(rng, n), rand_tangle(rng, n)
        f = rand_basis(rng, s, t)
        assert compose(CobMorphism.identity(t), f) == f
        assert compose(f, CobMorphism.identity(s)) == f


def test_compose_associative_and_degree_additive(rng):
    for _ in range(1500):
        n = rng.randrange(1, 4)
        a, b, c, d = (rand_tangle(rng, n) for _ in range(4))
        f, g, h = rand_basis(rng, a, b), rand_basis(rng, b, c), rand_basis(rng, c, d)
        gf = compose(g, f)
        assert compose(h, gf) == compose(compose(h, g), f)
        if not gf.is_zero():
            assert gf.deg_raw() == g.deg_raw() + f.deg_raw()


def test_stack_interchange_and_identities(rng):
    for _ in range(600):
        n = rng.randrange(1, 4)
        a, b, c = (rand_tangle(rng, n, 0) for _ in range(3))
        d, e2, f2 = (rand_tangle(rng, n, 0) for _ in range(3))
        f, fp = rand_basis(rng, a, b), rand_basis(rng, b, c)
        g, gp = rand_basis(rng, d, e2), rand_basis(rng, e2, f2)
        assert stack(compose(fp, f), compose(gp, g)) == \
            compose(stack(fp, gp), stack(f, g))
        s = stack(f, g)
        if not s.is_zero():
            assert s.deg_raw() == f.deg_raw() + g.deg_raw()
    for m1 in all_matchings(2):
        for m2 in all_matchings(2):
            t1, t2 = FlatTangle(2, m1), FlatTangle(2, m2)
            st = stack_tangles(t1, t2)
            assert stack(CobMorphism.identity(t1), CobMorphism.identity(t2)) \
                == CobMorphism.identity(st.tangle)


def test_juxtapose_functorial(rng):
    for _ in range(400):
        n1, n2 = rng.randrange(1, 3), rng.randrange(1, 3)
        a1, b1, c1 = (rand_tangle(rng, n1) for _ in range(3))
        a2, b2, c2 = (rand_tangle(rng, n2) for _ in range(3))
        f1, g1 = rand_basis(rng, a1, b1), rand_basis(rng, b1, c1)
        f2, g2 = rand_basis(rng, a2, b2), rand_basis(rng, b2, c2)
        assert juxtapose(compose(g1, f1), compose(g2, f2)) == \
            compose(juxtapose(g1, g2), juxtapose(f1, f2))
        j = juxtapose(f1, f2)
        if not j.is_zero():
            assert j.deg_raw() == f1.deg_raw() + f2.deg_raw()


def test_partial_trace_functorial(rng):
    for _ in range(500):
        n = rng.randrange(1, 4)
        a, b, c = (rand_tangle(rng, n) for _ in range(3))
        f, g = rand_basis(rng, a, b), rand_basis(rng, b, c)
        assert partial_trace(compose(g, f)) == \
            compose(partial_trace(g), partial_trace(f))
        tf = partial_trace(f)
        if not tf.is_zero():
            assert tf.deg_raw() == f.deg_raw()


def fresh_glue(build, tangles, f, g=None) -> dict[int, int]:
    """Reference gluing without any memo: a freshly merged plan, and every
    term pair of f and g run through its pieces and reduce_components."""
    n_f, unions, incidences = build(*tangles)
    pieces = _merge(unions, incidences)
    acc: dict[int, int] = {}
    for mf, cf in f.terms.items():
        for mg, cg in (g.terms.items() if g is not None else [(0, 1)]):
            dots = mf | mg << n_f
            comps = [(outer, (dots & disks).bit_count(), chi)
                     for outer, disks, chi in pieces]
            for mask, c in reduce_components(comps):
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    return acc


def test_glue_memo_matches_fresh_reduction(rng):
    for _ in range(150):
        n = rng.randrange(1, 4)
        a, b, c, d = (rand_tangle(rng, n) for _ in range(4))
        _merged_plan.cache_clear()
        assert _merged_plan(_compose_plan, a, b, c)[2] == {}
        stacked = (stack_tangles(a, c).tangle, stack_tangles(b, d).tangle)
        traced = (trace_tangle(a).tangle, trace_tangle(b).tangle)
        triples = [(rand_multi(rng, a, b), rand_multi(rng, b, c),
                    rand_multi(rng, c, d)) for _ in range(3)]
        # the first triple meets cold plans; the others, and the first once
        # more, meet the same plans with other term pairs in their memos
        for f, g, h in triples + triples[:1]:
            assert compose(g, f) == CobMorphism(
                a, c, fresh_glue(_compose_plan, (a, b, c), f, g))
            assert stack(f, h) == CobMorphism(
                *stacked, fresh_glue(_stack_plan, (a, b, c, d), f, h))
            assert partial_trace(f) == CobMorphism(
                *traced, fresh_glue(_trace_plan, (a, b), f))
        assert _merged_plan(_trace_plan, a, b)[2]


def test_terms_are_read_only_and_identities_shared():
    e, looped = FlatTangle.e(1, 2), FlatTangle(2, Matching.identity(2), 1)
    for t in (e, looped):
        ident = CobMorphism.identity(t)
        assert ident is CobMorphism.identity(t)
        assert CobMorphism.dotted_identity(t, 0) is CobMorphism.dotted_identity(t, 0)
        with pytest.raises(TypeError):
            ident.terms[0] = 5
        before = dict(ident.terms)
        dot = CobMorphism.dotted_identity(t, 0)
        for m in (ident + ident, ident - ident, -ident, ident.scale(3),
                  ident.scale(0), compose(ident, ident), compose(dot, ident),
                  compose(ident, dot), stack(ident, ident)):
            assert m is not ident
        assert dict(ident.terms) == before
        assert CobMorphism.identity(t).terms == before
    circle = FlatTangle(0, Matching(0, ()), 1)
    assert CobMorphism.cap_circle(circle, True) is CobMorphism.cap_circle(circle, True)
    assert CobMorphism.cup_circle(circle, False) is CobMorphism.cup_circle(circle, False)


def test_cached_provenance_is_read_only():
    e1, e2 = FlatTangle.e(1, 3), FlatTangle(3, Matching.e(2, 3), 1)
    st, tr = stack_tangles(e1, e2), trace_tangle(e2)
    assert st is stack_tangles(e1, e2) and tr is trace_tangle(e2)
    # the tangle-level arc maps are the matchings' cached ones, not copies
    assert st.arc_map is stack_matchings(e1.matching, e2.matching).arc_map
    assert tr.arc_map is trace_matching(e2.matching).arc_map
    for mapping in (st.arc_map, st.circle_map, tr.arc_map, tr.circle_map):
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[0, frozenset((0, 1))] = ("circle", 9)
        assert dict(mapping) == before


def clear_intern_caches():
    tl._matching.cache_clear()
    cobordism._flat_tangle.cache_clear()


def test_flat_tangle_hash_is_cached_and_invisible():
    m = Matching.e(1, 2)
    t1 = FlatTangle(2, m, 1)
    # equal values built while the intern caches live are one object
    assert FlatTangle(2, Matching.e(1, 2), 1) is t1
    # an equal twin from fresh caches is a distinct instance
    clear_intern_caches()
    t2 = FlatTangle(2, Matching.e(1, 2), 1)
    assert t1 is not t2 and t1 == t2 and hash(t1) == hash(t2)
    assert {t1: "x"}[t2] == "x"
    assert repr(t1) == f"FlatTangle(n=2, matching={m!r}, circles=1)"
    # a different cached value changes the hash and nothing else; clear the
    # caches first, so that no later build is handed the corrupted instance
    clear_intern_caches()
    object.__setattr__(t2, "_hash", hash(t1) + 1)
    assert t1 == t2 and t1 <= t2 and t2 <= t1 and not t1 < t2 and not t2 < t1
    assert repr(t2) == repr(t1)
    m1, m2 = CobMorphism.canonical(t1, t1), CobMorphism.canonical(t2, t2)
    assert m1 == m2 and json.dumps(m1.to_json()) == json.dumps(m2.to_json())
    assert str(hash(t1)) not in json.dumps(m1.to_json())
    tangles = [FlatTangle(n, mt, c) for n in (1, 2, 3)
               for mt in all_matchings(n) for c in (0, 1)]
    for x in tangles:
        twin = FlatTangle(x.n, Matching(x.n, x.matching.pairing), x.circles)
        assert twin is x and twin == x and hash(twin) == hash(x)
        for y in tangles:
            fx, fy = (x.n, x.matching, x.circles), (y.n, y.matching, y.circles)
            assert (x < y) == (fx < fy) and (x == y) == (fx == fy)


def test_symmetries(rng):
    one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    sad = CobMorphism.canonical(e, one2)
    assert reflect(sad) == CobMorphism.canonical(one2, e)
    assert reflect(CobMorphism.identity(e)) == CobMorphism.identity(e)
    for _ in range(400):
        n = rng.randrange(1, 4)
        f = rand_basis(rng, rand_tangle(rng, n), rand_tangle(rng, n))
        assert reflect(reflect(f)) == f
        assert rotate(rotate(f)) == f
        assert dual(dual(f)) == f
    for _ in range(400):
        n = rng.randrange(1, 4)
        a, b, c = (rand_tangle(rng, n) for _ in range(3))
        f, g = rand_basis(rng, a, b), rand_basis(rng, b, c)
        assert reflect(compose(g, f)) == compose(reflect(f), reflect(g))
        assert rotate(compose(g, f)) == compose(rotate(g), rotate(f))


def test_end_of_single_strand_has_sheet_and_dotted_sheet():
    one1 = FlatTangle.identity(1)
    info = glue(one1, one1)
    assert len(info) == 1
    ident = CobMorphism.identity(one1)
    dot = CobMorphism.dotted_identity(one1, 0)
    assert ident.deg_raw() == 0
    assert dot.deg_raw() == 2
    assert compose(dot, dot).is_zero()


def test_bihomogeneity_enforced():
    one2 = FlatTangle.identity(2)
    with pytest.raises(AssertionError):
        CobMorphism(one2, one2, {0: 1, 1: 1})  # identity plus dot


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_adding_cobordisms_with_different_ends_raises_under_optimize_flag(
        run_python, optimize):
    # 1_2 -> 1_2 plus e_1 -> e_1 once returned the 1_2 -> 1_2 morphism {0: 2}
    # when python -O stripped the endpoint check
    script = """
from catsl2.cobordism import CobMorphism, FlatTangle, InvariantError
one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
try:
    print(CobMorphism.identity(one2) + CobMorphism.canonical(e, e))
except InvariantError as exc:
    print("rejected:", exc)
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: adding cobordisms with different ends"


def test_morphism_json_roundtrip_shape():
    e = FlatTangle.e(1, 2)
    td = CobMorphism.dotted_identity(e, 2)
    data = td.to_json()
    assert data["terms"] == [{"dots": [1], "coeff": 1}]
    assert data["source"]["matching"] == [1, 0, 3, 2]
