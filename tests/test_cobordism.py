import itertools

import pytest

from catsl2.cobordism import (CobMorphism, FlatTangle, InvariantError,
                              _compose_plan, _merged_plan, _stack_plan,
                              _trace_plan, compose, dual, glue, juxtapose,
                              partial_trace, reduce_components, stack,
                              stack_tangles, trace_tangle)
from catsl2.tl import Arc, Matching, all_matchings, stack_matchings, trace_matching


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
    assert glue(one2, one2).src == [0, 1, 0, 1]
    assert glue(e, e).src == [0, 0, 1, 1]
    assert glue(e, one2).src == [0, 0, 0, 0]
    with pytest.raises(InvariantError):
        glue(one2, FlatTangle.identity(3))


# layer keys and circle lookups of the provenance that stack_tangles and
# trace_tangle return: circle i of a layer lands on port circle_base + i
TOP, BOTTOM = 0, 1


def stacked_circle(st, layer, i):
    return st.circle_base[layer] + i - 2 * st.tangle.n


def traced_circle(tr, i):
    return tr.circle_base[0] + i - 2 * tr.tangle.n


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
        points = [index[p] for p in range(2 * n)]
        assert info.src == points + [k + i for i in range(s.circles)]
        assert info.tgt == points + [k + s.circles + i for i in range(t.circles)]
        # both ends of an arc lie on the curve of its smaller end
        for side, tangle in ((info.src, s), (info.tgt, t)):
            for arc in tangle.matching.arcs():
                assert {side[p] for p in arc} == {index[min(arc)]}


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
        assert st.lands == info.lands
        for i in range(bottom.circles):
            assert stacked_circle(st, BOTTOM, i) == loops + i
        for i in range(top.circles):
            assert stacked_circle(st, TOP, i) == loops + bottom.circles + i
        assert len(st.circle_base) == 2
    for t in tangles:
        tr, info = trace_tangle(t), trace_matching(t.matching)
        closed = int(2 * (n - 1) in info.lands)
        assert tr.tangle == FlatTangle(n - 1, info.result, t.circles + closed)
        assert tr.lands == info.lands
        assert [traced_circle(tr, i) for i in range(t.circles)] == \
            [closed + i for i in range(t.circles)]
        assert len(tr.circle_base) == 1


def test_reduce_neck_cutting_rules():
    # each piece's outer curves are a bit mask
    # undotted cylinder between two curves
    assert reduce_components([(0b11, 0, 0)]) == [(0b10, 1), (0b01, 1)]
    # two dots annihilate
    assert reduce_components([(0b1, 2, 1)]) == []
    # undotted pants on three curves: all assignments with exactly two dots
    out = reduce_components([(0b111, 0, -1)])
    assert sorted(out) == [(0b011, 1), (0b101, 1), (0b110, 1)]
    # spheres
    assert reduce_components([(0, 0, 2)]) == []
    assert reduce_components([(0, 1, 2)]) == [(0, 1)]
    # torus evaluates to 2
    assert reduce_components([(0, 0, 0)]) == [(0, 2)]
    # genus adds a dot and a factor 2
    assert reduce_components([(0b1, 0, -1)]) == [(0b1, 2)]


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


def _landing(glued, layer, port, m):
    """The port of a stacked or traced tangle that port `port` of a layer of
    m points lands on."""
    if port < m:
        return glued.lands[layer * m + port]
    return glued.circle_base[layer] + port - m


def reference_plan(op, tangles):
    """(n_f, unions, incidences) of a gluing, built disk by disk: unions
    [(a, b, chi cost)] join the factors' disks along shared boundary (an
    arc costs 1, a circle 0), and incidences[d] is the set of output
    curves disk d meets, read port by port off the factor sides."""
    if op == "compose":
        src, mid, tgt = tangles
        f, g, out = glue(src, mid), glue(mid, tgt), glue(src, tgt)
        m, nf = 2 * src.n, len(f)
        unions = [(f.tgt[min(arc)], nf + g.src[min(arc)], 1)
                  for arc in mid.matching.arcs()]
        unions += [(f.tgt[m + i], nf + g.src[m + i], 0) for i in range(mid.circles)]
        incidences = [set() for _ in range(nf + len(g))]
        for p, k in enumerate(f.src):
            incidences[k].add(out.src[p])
        for p, k in enumerate(g.tgt):
            incidences[nf + k].add(out.tgt[p])
        return nf, unions, incidences
    if op == "stack":
        f_src, f_tgt, g_src, g_tgt = tangles
        sides = (stack_tangles(f_src, g_src), stack_tangles(f_tgt, g_tgt))
        factors = (glue(f_src, f_tgt), glue(g_src, g_tgt))
    else:
        sides = (trace_tangle(tangles[0]), trace_tangle(tangles[1]))
        factors = (glue(*tangles),)
    n = tangles[0].n
    out = glue(sides[0].tangle, sides[1].tangle)
    nf = len(factors[0])
    if op == "stack":  # f's bottom point p meets g's top point n + p
        unions = [(factors[0].src[p], nf + factors[1].src[n + p], 1) for p in range(n)]
    else:  # point n-1 meets point 2n-1
        unions = [(factors[0].src[n - 1], factors[0].src[2 * n - 1], 1)]
    incidences = [set() for _ in range(sum(map(len, factors)))]
    for layer, info in enumerate(factors):
        shift = layer * nf
        for ports, glued, out_ports in ((info.src, sides[0], out.src),
                                        (info.tgt, sides[1], out.tgt)):
            for p, k in enumerate(ports):
                incidences[shift + k].add(out_ports[_landing(glued, layer, p, 2 * n)])
    return nf, unions, incidences


def reference_pieces(op, tangles):
    """n_f and the pieces of a gluing from `reference_merge`, outer curves
    as bit masks."""
    n_f, unions, incidences = reference_plan(op, tangles)
    return n_f, [(sum(1 << c for c in outer), disks, chi)
                 for outer, disks, chi in reference_merge(unions, incidences)]


def fresh_glue(op, tangles, f, g=None) -> dict[int, int]:
    """Reference gluing without any memo: the reference pieces, and every
    term pair of f and g run through them and reduce_components."""
    n_f, pieces = reference_pieces(op, tangles)
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
    # up to 4 strands and 2 circles on every side, so the plans' circle
    # pieces (which no benchmark plan has) are reached
    for _ in range(150):
        n = rng.randrange(1, 5)
        a, b, c, d = (rand_tangle(rng, n, 2) for _ in range(4))
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
                a, c, fresh_glue("compose", (a, b, c), f, g))
            assert stack(f, h) == CobMorphism(
                *stacked, fresh_glue("stack", (a, b, c, d), f, h))
            assert partial_trace(f) == CobMorphism(
                *traced, fresh_glue("trace", (a, b), f))
        assert _merged_plan(_trace_plan, a, b)[2]


def reference_merge(unions, incidences):
    """The set-based union-find merge: each disk meets a set of outer
    curves, and a piece's outer curves come out as a sorted tuple."""
    parent = list(range(len(incidences)))

    def find(d):
        while parent[d] != d:
            d = parent[d]
        return d

    for a, b, _ in unions:
        parent[find(b)] = find(a)
    pieces = {}
    for d, curves in enumerate(incidences):
        piece = pieces.setdefault(find(d), [set(), 0, 0])
        piece[0].update(curves)
        piece[1] |= 1 << d
        piece[2] += 1
    for a, _, cost in unions:
        pieces[find(a)][2] -= cost
    return [(tuple(sorted(outer)), disks, chi) for outer, disks, chi in pieces.values()]


def test_plan_pieces_match_set_based_reference(rng):
    # the one-walk pieces of each plan builder against the union-find over
    # sets, as multisets (the walk's piece order is its own)
    builders = {"compose": _compose_plan, "stack": _stack_plan, "trace": _trace_plan}
    for _ in range(150):
        n = rng.randrange(5)
        a, b, c, d = (rand_tangle(rng, n, 2) for _ in range(4))
        for op, tangles in (("compose", (a, b, c)), ("stack", (a, b, c, d)),
                            ("trace", (a, b))):
            if op == "trace" and n == 0:
                continue
            n_f, pieces = builders[op](*tangles)
            ref_n_f, reference = reference_pieces(op, tangles)
            assert n_f == ref_n_f
            assert sorted(pieces) == sorted(reference)


def test_stack_against_a_collar_returns_the_other_factor(rng):
    for _ in range(80):
        n = rng.randrange(4)
        one = FlatTangle.identity(n)
        collar = CobMorphism.identity(one)
        assert one._bare_identity and collar.terms == {0: 1}
        a, b = rand_tangle(rng, n), rand_tangle(rng, n)
        m = rand_multi(rng, a, b) if len(glue(a, b)) else CobMorphism(a, b, {0: 3})
        for top, bottom in ((collar, m), (m, collar), (collar.scale(2), m),
                            (m, CobMorphism.dotted_identity(one, 0) if n else m)):
            stacked = (stack_tangles(top.src, bottom.src).tangle,
                       stack_tangles(top.tgt, bottom.tgt).tangle)
            expected = CobMorphism(*stacked, fresh_glue(
                "stack", (top.src, top.tgt, bottom.src, bottom.tgt), top, bottom))
            assert stack(top, bottom) == expected
        assert stack(collar, m) is m and stack(m, collar) is m
    # a circle or another matching is no collar
    assert not FlatTangle(2, Matching.identity(2), 1)._bare_identity
    assert not FlatTangle.e(1, 2)._bare_identity


def test_glued_terms_are_canonical(rng):
    # compose, stack and partial_trace wrap `_glue_terms` unchecked, so its
    # terms must be what the public constructor makes of them
    for _ in range(120):
        n = rng.randrange(1, 4)
        a, b, c, d = (rand_tangle(rng, n) for _ in range(4))
        f, g, h = rand_multi(rng, a, b), rand_multi(rng, b, c), rand_multi(rng, c, d)
        glued = (compose(g, f), stack(f, h), partial_trace(f),
                 compose(f, CobMorphism.identity(a)))
        for r in glued:
            shuffled = list(r.terms.items())
            rng.shuffle(shuffled)
            canonical = CobMorphism(r.src, r.tgt, dict(shuffled + [(1 << 20, 0)]))
            assert list(r.terms.items()) == list(canonical.terms.items())


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
    # the tangle-level point arrays are the matchings' cached ones, not copies
    assert st.lands is stack_matchings(e1.matching, e2.matching).lands
    assert tr.lands is trace_matching(e2.matching).lands
    for array in (st.lands, st.circle_base, tr.lands, tr.circle_base):
        before = tuple(array)
        with pytest.raises(TypeError):
            array[0] = 9
        assert tuple(array) == before


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dotted_identity_at_the_public_edge(n):
    """A point, either end of an Arc and the Arc itself dot the same sheet;
    ('circle', i) dots circle i's cylinder; anything else is rejected."""
    for mt in all_matchings(n):
        for circles in (0, 1, 2):
            t = FlatTangle(n, mt, circles)
            info = glue(t, t)
            for a, b in (sorted(arc) for arc in mt.arcs()):
                dotted = CobMorphism.dotted_identity(t, a)
                assert CobMorphism.dotted_identity(t, b) == dotted
                assert CobMorphism.dotted_identity(t, Arc((a, b))) == dotted
                assert dotted.deg_raw() == CobMorphism.identity(t).deg_raw() + 2
            for i in range(circles):
                dotted = CobMorphism.dotted_identity(t, ("circle", i))
                cylinder = 1 << info.src[2 * n + i] | 1 << info.tgt[2 * n + i]
                assert dotted.terms and all(m & cylinder == cylinder
                                            for m in dotted.terms)
            bad = [2 * n, -1, ("circle", circles), ("circle", -1)]
            bad += [Arc((p, q)) for p in range(2 * n) for q in range(p + 1, 2 * n)
                    if mt.pairing[p] != q]
            for where in bad:
                with pytest.raises(ValueError):
                    CobMorphism.dotted_identity(t, where)


def test_symmetries(rng):
    for _ in range(400):
        n = rng.randrange(1, 4)
        f = rand_basis(rng, rand_tangle(rng, n), rand_tangle(rng, n))
        assert dual(dual(f)) == f
    for _ in range(400):  # contravariant
        n = rng.randrange(1, 4)
        a, b, c = (rand_tangle(rng, n) for _ in range(3))
        f, g = rand_basis(rng, a, b), rand_basis(rng, b, c)
        assert dual(compose(g, f)) == compose(dual(f), dual(g))


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
