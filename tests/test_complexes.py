import json
from collections import Counter
from itertools import combinations, product

import pytest

from catsl2.cobordism import (CobMorphism, FlatTangle, GradedObject, InvariantError,
                              _compose_terms, compose, glue, juxtapose,
                              juxtapose_tangles, partial_trace, stack, stack_tangles)
from catsl2.complexes import (ChainMap, Complex, SDRData, ZComplex, _Workspace,
                              _assemble, _hom_basis, _hom_columns, _lines,
                              _product, _product_complex, _starts, closure, cone,
                              convolution_complete, deloop, differential_map,
                              direct_sum, dual, gauss, hom_complex,
                              juxtapose_complexes, partial_trace_complex, shift,
                              simplify, tautological_complex, tensor,
                              tensor_indexed)
from catsl2.homology import integer_homology
from catsl2.projectors import (DEPTH_MARGIN, braid_letter_complex, pad_columns, q1,
                               q2, q3, symmetric_sequence, truncated_pn)
from catsl2.series import TruncatedSeries
from catsl2.tl import all_matchings, euler_characteristic, jw, TLElement


def xplus():
    return braid_letter_complex(1, True)


def xminus_parallel():
    return braid_letter_complex(-1, True)


def random_braid_complex(rng, n, length):
    c = Complex.identity_complex(n)
    for _ in range(length):
        i = rng.randrange(1, n)
        eps = rng.choice([1, -1])
        c = tensor(pad_columns(braid_letter_complex(eps, True), i, n), c)
    return c


def test_crossing_complexes_match_stated_objects():
    # the positive crossing is sigma on parallel strands, the negative one
    # sigma on antiparallel strands
    xp = braid_letter_complex(1, parallel=True)
    assert xp.graded_ranks() == {(-1, 2): 1, (0, 1): 1}
    assert xp.objects[-1][0].tangle == FlatTangle.e(1, 2)
    xm = braid_letter_complex(1, parallel=False)
    assert xm.graded_ranks() == {(0, -1): 1, (1, -2): 1}
    assert xm.objects[0][0].tangle == FlatTangle.e(1, 2)


def test_reidemeister_two_simplifies_to_identity():
    for a, b in ((xplus(), xminus_parallel()), (xminus_parallel(), xplus())):
        s, _ = simplify(tensor(a, b))
        assert s.graded_ranks() == {(0, 0): 1}
        assert s.objects[0][0].tangle == FlatTangle.identity(2)


def test_tensor_with_identity_is_identity():
    a = xplus()
    t = tensor(Complex.identity_complex(2), a)
    assert t.graded_ranks() == a.graded_ranks()
    t2 = tensor(a, Complex.identity_complex(2))
    assert t2.graded_ranks() == a.graded_ranks()


def test_tensor_multiplicative_euler_characteristic(rng):
    for _ in range(20):
        n = rng.randrange(2, 4)
        a = random_braid_complex(rng, n, rng.randrange(1, 3))
        b = random_braid_complex(rng, n, rng.randrange(1, 3))
        t = tensor(a, b)
        t.check()
        assert euler_characteristic(t) == \
            euler_characteristic(a) * euler_characteristic(b)


def test_juxtapose_euler_characteristic(rng):
    from catsl2.tl import juxtapose_tl
    a = random_braid_complex(rng, 2, 2)
    b = random_braid_complex(rng, 2, 1)
    j = juxtapose_complexes(a, b)
    j.check()
    assert euler_characteristic(j) == \
        juxtapose_tl(euler_characteristic(a), euler_characteristic(b))


@pytest.mark.parametrize("product, op", [(tensor_indexed, stack),
                                         (juxtapose_complexes, juxtapose)],
                         ids=["stacked", "juxtaposed"])
def test_product_differential_is_sum_of_factor_maps(product, op):
    # d = d_a (x) 1 + (-1)^ha 1 (x) d_b; the right factor's map has odd dh,
    # which no u-map golden reaches
    xp, xm = xplus(), xminus_parallel()
    for a, b in [(q2(), xp), (xm, shift(q2(), 1, 2)), (q2(), q2())]:
        c = product(a, b)
        assert c.total_objects() == a.total_objects() * b.total_objects()
        c.check()  # the Koszul sign makes d^2 = 0
        start = _starts(a, b)
        d = (ChainMap(c, c, 1, 0, _product(op, a, b, start, differential_map(a)))
             + ChainMap(c, c, 1, 0, _product(op, a, b, start, None, differential_map(b))))
        assert d == differential_map(c)
        assert not d.is_zero()


def test_partial_trace_examples():
    t = deloop(partial_trace_complex(Complex.identity_complex(3)))[0]
    assert t.graded_ranks() == {(0, 1): 1, (0, -1): 1}
    t2 = partial_trace_complex(Complex.generator_complex(2, 3))
    assert t2.graded_ranks() == {(0, 0): 1}
    assert t2.objects[0][0].tangle == FlatTangle.identity(2)
    with pytest.raises(ValueError):
        partial_trace_complex(Complex.empty_diagram())


def test_partial_trace_euler_characteristic(rng):
    from catsl2.tl import partial_trace_tl
    a = random_braid_complex(rng, 3, 2)
    assert euler_characteristic(partial_trace_complex(a)) == \
        partial_trace_tl(euler_characteristic(a))


def reference_closure(c, maps):
    """Reference: close the rightmost strand of c and of each map, deloop,
    and repeat per strand; then the q^n shift."""
    n = c.n
    for _ in range(n):
        raw = partial_trace_complex(c)
        traced = [ChainMap(raw, raw, f.dh, f.dq,
                           {h: {k: partial_trace(m) for k, m in e.items()}
                            for h, e in f.components.items()})
                  for f in maps]
        c, maps = deloop(raw, traced)
    return shift(c, 0, n), maps


def _with_u(proj, ks):
    return proj.complex, [proj.u_maps[k] for k in ks]


# no golden covers these; delooping once after all the traces reorders the
# closures and flips the sign of P_2's u_1 at (-9, 16) and (0, -2)
CLOSURE_CASES = {"q3": lambda: (q3(), []),
                 "p3_w2_u123": lambda: _with_u(truncated_pn(3, 2), (1, 2, 3)),
                 "p2_w6_u1": lambda: _with_u(truncated_pn(2, 6), (1,))}


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_closure_deloops_each_strand_before_the_next(name):
    c, maps = CLOSURE_CASES[name]()
    closed, carried = closure(c, maps)
    ref, ref_maps = reference_closure(c, maps)
    assert closed.to_json() == ref.to_json()
    assert [list(e) for e in closed.diff.values()] == [list(e) for e in ref.diff.values()]
    assert [map_json(f) for f in carried] == [map_json(f) for f in ref_maps]
    assert all(f.src is closed and f.tgt is closed for f in carried)


def reference_deloop(c):
    """Reference: the delooping glued from cap and cup chains, and its
    retract.  pi caps the circles from the last down to index 0 (undotted
    into the q+1 summand, dotted into q-1), sigma cups them back (dotted from
    the q+1 summand), and each delooped entry is pi o m o sigma."""
    if all(o.tangle.circles == 0 for objs in c.objects.values() for o in objs):
        return c, SDRData.identity(c)
    new_objects, expansion = {}, {}
    for h, objs in c.objects.items():
        new_objects[h], expansion[h] = [], []
        for obj in objs:
            t = obj.tangle
            if t.circles == 0:
                expansion[h].append([(len(new_objects[h]), CobMorphism.identity(t),
                                      CobMorphism.identity(t))])
                new_objects[h].append(obj)
                continue
            exp = []
            for signs in product((1, -1), repeat=t.circles):
                pi, cur = None, t
                for k in range(t.circles - 1, -1, -1):
                    cap = CobMorphism.cap_circle(cur, dotted=(signs[k] == -1))
                    pi = cap if pi is None else compose(cap, pi)
                    cur = cur.drop_circle()
                sigma, cur = None, FlatTangle(t.n, t.matching, 0)
                for k in range(t.circles):
                    grown = FlatTangle(cur.n, cur.matching, cur.circles + 1)
                    cup = CobMorphism.cup_circle(grown, dotted=(signs[k] == 1))
                    sigma = cup if sigma is None else compose(cup, sigma)
                    cur = grown
                exp.append((len(new_objects[h]), pi, sigma))
                new_objects[h].append(GradedObject(FlatTangle(t.n, t.matching, 0),
                                                   obj.qshift + sum(signs)))
            expansion[h].append(exp)
    new_diff = {}
    for h, entries in c.diff.items():
        out = new_diff[h] = {}
        for (i, j), m in entries.items():
            for aj, _, sig in expansion[h][j]:
                for bi, pi, _ in expansion[h + 1][i]:
                    r = compose(pi, compose(m, sig))
                    if not r.is_zero():
                        out[(bi, aj)] = r
    result = Complex(c.n, new_objects, new_diff)
    pi_comps = {h: {(idx, j): pi for j, exp in enumerate(rows) for idx, pi, _ in exp}
                for h, rows in expansion.items()}
    sg_comps = {h: {(j, idx): sg for j, exp in enumerate(rows) for idx, _, sg in exp}
                for h, rows in expansion.items()}
    return result, SDRData(ChainMap(c, result, 0, 0, pi_comps),
                           ChainMap(result, c, 0, 0, sg_comps),
                           ChainMap.zero(c, c, -1, 0))


def conjugate(f, sdr):
    """Reference: an endomorphism f carried through a retract, sigma o f o pi."""
    return sdr.sigma.then(f).then(sdr.pi)


def map_json(f):
    """A map's bidegree and its entries in sorted order, as JSON text."""
    return json.dumps({"dh": f.dh, "dq": f.dq,
                       "components": [{"h": h, "row": i, "col": j,
                                       "morphism": m.to_json()}
                                      for h, entries in sorted(f.components.items())
                                      for (i, j), m in sorted(entries.items())]},
                      sort_keys=True)


def assert_deloop_matches_reference(c, rng=None):
    """deloop(c) equals the reference, in entry order too; so do the
    identity, the differential and random maps carried through it."""
    maps = [ChainMap.identity(c), differential_map(c)]
    if rng is not None:
        maps += [random_map(rng, c, c, dh, dq) for dh, dq in ((0, 2), (-1, 0), (2, -2))]
    d, carried = deloop(c, maps)
    ref, ref_sdr = reference_deloop(c)
    assert d.to_json() == ref.to_json()
    assert [list(e) for e in d.diff.values()] == [list(e) for e in ref.diff.values()]
    for f, mine in zip(maps, carried):
        assert mine.src is d and mine.tgt is d
        assert map_json(mine) == map_json(conjugate(f, ref_sdr))
    ref_sdr.verify()
    return d


def random_circled_complex(rng):
    """Three degrees of random tangles with 0-3 circles each, and a random
    bihomogeneous combination of dotted-disk terms in most entries."""
    n = rng.randrange(1, 3)
    objects = {h: [GradedObject(FlatTangle(n, rng.choice(all_matchings(n)),
                                           rng.randrange(4)), rng.randrange(-3, 4))
                   for _ in range(rng.randrange(1, 4))] for h in range(3)}
    diff = {}
    for h in (0, 1):
        diff[h] = {}
        for (i, b), (j, a) in product(enumerate(objects[h + 1]), enumerate(objects[h])):
            if rng.random() < 0.2:
                continue
            nc = len(glue(a.tangle, b.tangle))
            masks = [sum(1 << k for k in combo)
                     for combo in combinations(range(nc), rng.randrange(nc + 1))]
            chosen = rng.sample(masks, min(len(masks), rng.randrange(1, 7)))
            diff[h][(i, j)] = CobMorphism(a.tangle, b.tangle,
                                          {m: rng.choice([1, -1, 2, -3]) for m in chosen})
    return Complex(n, objects, diff)


def test_deloop_matches_reference_on_random_circled_complexes(rng):
    seen = set()
    for _ in range(40):
        c = random_circled_complex(rng)
        assert_deloop_matches_reference(c, rng)
        seen |= {(m.src.circles > 0, m.tgt.circles > 0)
                 for entries in c.diff.values() for m in entries.values()}
    # entries with circles on the source only, the target only, both, neither
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


def test_deloop_matches_reference_on_braid_products(rng):
    most = 0
    for _ in range(4):
        a, b = random_braid_complex(rng, 3, 2), random_braid_complex(rng, 3, 1)
        prod = tensor_indexed(a, b)
        for raw in (prod, partial_trace_complex(prod)):
            d = assert_deloop_matches_reference(raw, rng)
            d.check()
            most = max(most, max(o.tangle.circles for objs in raw.objects.values()
                                 for o in objs))
    assert most >= 2


def test_deloop_object_with_circle():
    # k circles deloop into (q + q^-1)^k, with the reference's pi and sigma
    # on every matching of up to 3 strands
    for k, ranks in ((1, {(0, 1): 1, (0, -1): 1}),
                     (2, {(0, 2): 1, (0, 0): 2, (0, -2): 1}),
                     (3, {(0, 3): 1, (0, 1): 3, (0, -1): 3, (0, -3): 1})):
        for n in (1, 2, 3):
            for matching in all_matchings(n):
                c = Complex.from_object(GradedObject(FlatTangle(n, matching, k), 0), n)
                d = assert_deloop_matches_reference(c)
                assert d.graded_ranks() == ranks
    # circle-free input and its maps are unchanged, and the reference
    # retract is the identity
    c2 = Complex.identity_complex(2)
    f = ChainMap.identity(c2)
    d2, carried = deloop(c2, [f])
    assert d2 is c2 and carried == [f] and carried[0] is f
    ref2, sdr2 = reference_deloop(c2)
    assert ref2 is c2
    sdr2.verify()
    assert sdr2.homotopy.is_zero()
    with pytest.raises(InvariantError):  # a carried map must be on c
        deloop(c2, [ChainMap.identity(Complex.identity_complex(1))])


def reference_add(slot, key, m):
    """Reference: slot[key] += m with `+`, dropping an entry whose sum
    cancels (a later composite there comes back at the end)."""
    if key in slot:
        m = slot[key] + m
    if m.is_zero():
        slot.pop(key, None)
    else:
        slot[key] = m


def reference_block_product(g, f, f_dh):
    """Reference: g o f for sparse blocks {h: {(i, j): m}}, keyed by f's
    degrees, with one `compose` per composite summed by `reference_add`."""
    g_cols = {}
    for h, entries in g.items():
        for (i, j), m in entries.items():
            g_cols.setdefault(h, {}).setdefault(j, {})[i] = m
    out = {}
    for h, entries in f.items():
        cols = g_cols.get(h + f_dh, {})
        slot = {}
        for (i, j), m in entries.items():
            for k, m2 in cols.get(i, {}).items():
                reference_add(slot, (k, j), compose(m2, m))
        if slot:
            out[h] = slot
    return out


def reference_then(f, g):
    return ChainMap(f.src, g.tgt, f.dh + g.dh, f.dq + g.dq,
                    reference_block_product(g.components, f.components, f.dh))


def reference_index(a, b):
    """(ha, ia, hb, ib) -> the position at degree ha + hb of the product of
    those objects of a and b, whose objects are ordered by (ha, ia, ib)."""
    index, size = {}, Counter()
    for ha, hb in sorted(product(a.objects, b.objects)):
        for ia, ib in product(range(len(a.objects[ha])), range(len(b.objects[hb]))):
            index[(ha, ia, hb, ib)] = size[ha + hb]
            size[ha + hb] += 1
    return index


def reference_product(n, a, b, left=None, right=None):
    """Reference: the components of f (x) 1 + 1 (x) g on the product of a
    and b (see `_product`), one stack or juxtaposition per entry."""
    op = stack if a.n == b.n == n else juxtapose
    index = reference_index(a, b)
    tgt_index = reference_index(left.tgt if left else a, right.tgt if right else b)
    comps = {}
    for (ha, ia, hb, ib), idx in index.items():
        slot = comps.setdefault(ha + hb, {})
        for (i2, j), m in (left.components.get(ha, {}) if left else {}).items():
            if j == ia:
                ob = b.objects[hb][ib].tangle
                reference_add(slot, (tgt_index[(ha + left.dh, i2, hb, ib)], idx),
                              op(m, CobMorphism.identity(ob)))
        sign = -1 if right and (ha * right.dh) % 2 else 1
        for (i2, j), m in (right.components.get(hb, {}) if right else {}).items():
            if j == ib:
                oa = a.objects[ha][ia].tangle
                reference_add(slot, (tgt_index[(ha, ia, hb + right.dh, i2)], idx),
                              op(CobMorphism.identity(oa), m).scale(sign))
    return comps


def block_json(block):
    """A block {h: {(i, j): m}} in its degree and entry order, as JSON."""
    return [(h, [(k, m.to_json()) for k, m in entries.items()])
            for h, entries in block.items()]


def random_map(rng, src, tgt, dh, dq):
    """Random components src -> tgt of bidegree (dh, dq): most pairs of
    objects with room for that degree get a combination of basis terms."""
    comps = {}
    for h, objs in src.objects.items():
        for (i, b), (j, a) in product(enumerate(tgt.objects.get(h + dh, [])),
                                      enumerate(objs)):
            nc = len(glue(a.tangle, b.tangle))
            dots2 = a.qshift + dq - b.qshift - src.n + nc
            if dots2 % 2 or not 0 <= dots2 // 2 <= nc or rng.random() < 0.3:
                continue
            masks = [sum(1 << k for k in combo)
                     for combo in combinations(range(nc), dots2 // 2)]
            chosen = rng.sample(masks, min(len(masks), rng.randrange(1, 4)))
            comps.setdefault(h, {})[(i, j)] = CobMorphism(
                a.tangle, b.tangle, {m: rng.choice([1, -1, 2]) for m in chosen})
    return ChainMap(src, tgt, dh, dq, comps)


def test_then_matches_reference_block_product(rng):
    composed = 0
    for _ in range(6):
        c = random_braid_complex(rng, 3, 3)
        s, sdr, _ = folded_retract(c)
        d_c, d_s = differential_map(c), differential_map(s)
        pairs = [(sdr.sigma, sdr.pi), (sdr.pi, sdr.sigma), (sdr.homotopy, d_c),
                 (d_c, sdr.homotopy), (sdr.homotopy, sdr.homotopy),
                 (sdr.sigma, sdr.homotopy), (d_c, d_c), (sdr.pi, d_s)]
        for dh, dq in product((-1, 0, 1), (-2, 0, 2)):
            r = random_map(rng, c, c, dh, dq)
            pairs += [(r, d_c), (d_c, r), (r, sdr.pi), (sdr.sigma, r),
                      (r, random_map(rng, c, c, -dh, 0)), (r, r)]
        for f, g in pairs:
            mine, ref = f.then(g), reference_then(f, g)
            assert (mine.dh, mine.dq) == (ref.dh, ref.dq)
            assert block_json(mine.components) == block_json(ref.components)
            composed += not mine.is_zero()
        sdr.verify()
        # the retract's identities, summed by the reference, are exact
        one_c, one_s = ChainMap.identity(c), ChainMap.identity(s)
        assert (reference_then(sdr.sigma, sdr.pi) - one_s).is_zero()
        assert (one_c - reference_then(sdr.pi, sdr.sigma)
                - reference_then(sdr.homotopy, d_c)
                - reference_then(d_c, sdr.homotopy)).is_zero()
        for f, g in ((sdr.homotopy, sdr.pi), (sdr.sigma, sdr.homotopy),
                     (sdr.homotopy, sdr.homotopy)):
            assert reference_then(f, g).is_zero()
    assert composed > 50


def test_block_sums_that_cancel_match_reference():
    # one object A, three middle objects and two outputs: into output 0 the
    # composites are y x, -y x and then y' x, so the reference drops that
    # entry and adds it back after output 1's; through a circle, g o f
    # has glued terms that sum to zero
    one = FlatTangle.identity(2)
    cup = FlatTangle.e(1, 2)
    a = Complex(2, {0: [GradedObject(one, 0)]}, {})
    mid = Complex(2, {0: [GradedObject(one, 0)] * 3}, {})
    tgt = Complex(2, {0: [GradedObject(one, 0), GradedObject(cup, 1)]}, {})
    x = CobMorphism.identity(one)
    y = CobMorphism.dotted_identity(one, 0)
    z = CobMorphism.canonical(one, cup)
    f = ChainMap(a, mid, 0, 0, {0: {(0, 0): x, (1, 0): x, (2, 0): x}})
    g = ChainMap(mid, tgt, 0, 0, {0: {(0, 0): y, (0, 1): -y, (1, 1): z,
                                       (0, 2): CobMorphism.dotted_identity(one, 1)}})
    mine, ref = f.then(g), reference_then(f, g)
    assert list(ref.components[0]) == [(1, 0), (0, 0)]
    assert block_json(mine.components) == block_json(ref.components)
    g2 = ChainMap(mid, tgt, 0, 0, {0: {(0, 0): y, (0, 1): -y}})
    assert f.then(g2).is_zero() and reference_then(f, g2).is_zero()
    strand = FlatTangle.identity(1)
    circled = FlatTangle(1, strand.matching, 1)
    s1 = Complex(1, {0: [GradedObject(strand, 0)]}, {})
    s2 = Complex(1, {0: [GradedObject(circled, 0)]}, {})
    f3 = ChainMap(s1, s2, 0, 0, {0: {(0, 0): CobMorphism(strand, circled,
                                                         {0b01: 1, 0b10: -1})}})
    g3 = ChainMap(s2, s1, 0, 0, {0: {(0, 0): CobMorphism(circled, strand,
                                                         {0b01: 1, 0b10: 1})}})
    assert f3.then(g3).is_zero() and reference_then(f3, g3).is_zero()


def test_check_matches_reference_block_product(rng):
    # braid complexes pass; with one entry scaled by -1 or 2, most fail at
    # the first entry of d o d that the reference finds
    failed = 0
    for _ in range(12):
        c = random_braid_complex(rng, 3, 3)
        assert not reference_block_product(c.diff, c.diff, 1)
        c.check()
        diff = {h: dict(e) for h, e in c.diff.items()}
        h = rng.choice(list(diff))
        key = rng.choice(list(diff[h]))
        diff[h][key] = diff[h][key].scale(rng.choice([-1, 2]))
        c = Complex(c.n, c.objects, diff)
        bad = reference_block_product(c.diff, c.diff, 1)
        if not bad:
            c.check()
            continue
        h, entries = next(iter(bad.items()))
        key, m = next(iter(entries.items()))
        with pytest.raises(InvariantError) as exc:
            c.check()
        assert str(exc.value) == f"d^2 != 0 at h={h} {key}: {m}"
        failed += 1
    assert failed > 5


def test_product_maps_match_reference(rng):
    xp, xm = xplus(), xminus_parallel()
    cases = [(q2(), xp), (xm, shift(q2(), 1, 2)), (q2(), q2()),
             (random_braid_complex(rng, 2, 2), random_braid_complex(rng, 2, 1))]
    for a, b in cases:
        for n in (a.n, a.n + b.n):
            maps = [(differential_map(a), differential_map(b))]
            for dh, dq in product((-1, 0, 1, 2), (-2, 0, 2)):
                maps += [(random_map(rng, a, a, dh, dq), None),
                         (None, random_map(rng, b, b, dh, dq)),
                         (None, random_map(rng, b, shift(b, 1, 0), dh, dq))]
            objects = _product_complex(n, a, b).objects
            op = stack if a.n == b.n == n else juxtapose
            tangle_op = ((lambda s, t: stack_tangles(s, t).tangle) if op is stack
                         else (lambda s, t: juxtapose_tangles(s, t)[0]))
            for (ha, ia, hb, ib), idx in reference_index(a, b).items():
                oa, ob = a.objects[ha][ia], b.objects[hb][ib]
                assert objects[ha + hb][idx] == GradedObject(
                    tangle_op(oa.tangle, ob.tangle), oa.qshift + ob.qshift)
            for left, right in maps:
                mine = _product(op, a, b, _starts(a, b), left, right)
                ref = reference_product(n, a, b, left, right)
                assert block_json(mine) == block_json(ref)


def test_is_cycle_koszul_sign_on_both_parities(rng):
    # odd dh: the identity c -> t c, whose differential is -d, is a cycle
    # since d_tgt f - (-1)^dh f d_src = -d + d; negating one component
    # that meets the differential breaks it
    for c in (q2(), random_braid_complex(rng, 3, 2)):
        t = shift(c, 1, 0)
        comps = {h: {(i, i): CobMorphism.identity(o.tangle)
                     for i, o in enumerate(objs)}
                 for h, objs in c.objects.items()}
        f = ChainMap(c, t, 1, 0, comps)
        assert f.is_cycle()
        (i, j), _ = next(iter(c.diff[c.h_min()].items()))
        comps[c.h_min()][(j, j)] = comps[c.h_min()][(j, j)].scale(-1)
        assert not ChainMap(c, t, 1, 0, comps).is_cycle()
    # a retract's homotopy has dh = -1 and [d, h] = dh + hd = 1 - sigma pi,
    # which is not zero; 1 - sigma pi itself (dh = 0) is a cycle
    c = random_braid_complex(rng, 3, 3)
    s, sdr, _ = folded_retract(c)
    rest = ChainMap.identity(c) - sdr.pi.then(sdr.sigma)
    assert not rest.is_zero() and not sdr.homotopy.is_zero()
    assert not sdr.homotopy.is_cycle()
    assert rest.is_cycle() and sdr.pi.is_cycle() and sdr.sigma.is_cycle()


def reference_pivot(c, fill_in=False):
    """Brute-force scan: the +-identity entry (h, i, j) of lowest degree,
    then lowest (j, i), in the current indices of c; with fill_in, lowest
    (cost, j, i) for Markowitz's cost (|column j| - 1)(|row i| - 1)."""
    for h, entries in c.diff.items():
        cols = Counter(j for _, j in entries)
        rows = Counter(i for i, _ in entries)
        keys = [((cols[j] - 1) * (rows[i] - 1) if fill_in else 0, j, i)
                for (i, j), m in entries.items() if m.is_identity_entry()]
        if keys:
            _, j, i = min(keys)
            return h, i, j
    return None


def one_step(c, h, i, j):
    """One gauss on a workspace over c: the complex left, and the reference
    one-step retract onto it.  With eps the pivot's unit, a_s = d[i, s] and
    b_t = d[t, j], pi is 1 on survivors plus -eps b_t at (t, i), sigma is 1
    on survivors plus -eps a_s at (j, s), and the homotopy is eps 1 from
    i@h+1 to j@h."""
    ws = _Workspace(c)
    gauss(ws, h, i, j)
    out, _ = ws.export()
    eps = c.diff[h][(i, j)].terms[0]
    pos = {k: {x: p for p, x in enumerate(ids)} for k, ids in ws.objects.items()}
    pi, sigma = {}, {}
    for k, ids in pos.items():
        for x, p in ids.items():
            ident = CobMorphism.identity(c.objects[k][x].tangle)
            pi.setdefault(k, {})[(p, x)] = ident
            sigma.setdefault(k, {})[(x, p)] = ident
    for (t, s), m in c.diff[h].items():
        if s == j and t != i:
            pi[h + 1][(pos[h + 1][t], i)] = m.scale(-eps)
        if t == i and s != j:
            sigma[h][(j, pos[h][s])] = m.scale(-eps)
    homotopy = {h + 1: {(j, i): CobMorphism.identity(c.objects[h][j].tangle).scale(eps)}}
    return out, SDRData(ChainMap(c, out, 0, 0, pi), ChainMap(out, c, 0, 0, sigma),
                        ChainMap(c, c, -1, 0, homotopy))


def test_gauss_cancels_identity_pair():
    one2 = FlatTangle.identity(2)
    c = Complex(2, {0: [GradedObject(one2, 0)], 1: [GradedObject(one2, 0)]},
                {0: {(0, 0): CobMorphism.identity(one2)}})
    out, sdr = one_step(c, 0, 0, 0)
    assert out.is_zero()
    sdr.verify()


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_gauss_rejects_non_unit_pivot_even_under_optimize_flag(run_python, optimize):
    # cancelling Z --2--> Z would lose the Z/2 in homology; the pivot check
    # must still fire when python -O strips assert statements
    script = """
from catsl2.cobordism import CobMorphism, FlatTangle, GradedObject
from catsl2.complexes import Complex, InvariantError, _Workspace, gauss
one2 = FlatTangle.identity(2)
c = Complex(2, {0: [GradedObject(one2, 0)], 1: [GradedObject(one2, 0)]},
            {0: {(0, 0): CobMorphism.identity(one2).scale(2)}})
try:
    gauss(_Workspace(c), 0, 0, 0)
except InvariantError as exc:
    print("rejected:", exc)
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: pivot entry is not +-identity"


def test_gauss_preserves_d_squared_and_chi(rng):
    for _ in range(15):
        c = random_braid_complex(rng, 3, 3)
        chi = euler_characteristic(c)
        # run a few elimination steps by hand and validate after each
        for _ in range(4):
            pivot = reference_pivot(c)
            if pivot is None:
                break
            c, sdr = one_step(c, *pivot)
            c.check()
            sdr.verify()
        assert euler_characteristic(c) == chi


def folded_retract(c, fill_in=False):
    """Reference: what simplify(c, fill_in=fill_in) computes, with the
    retract c -> result that folds the delooping retract and every one-step
    gauss retract by SDRData.then; also how many steps had both an a_s and
    a b_t."""
    cur, sdr = reference_deloop(c)
    both = 0
    while (pivot := reference_pivot(cur, fill_in)) is not None:
        h, i, j = pivot
        keys = [k for k in cur.diff[h] if (k[0] == i) != (k[1] == j)]
        both += len({k[0] == i for k in keys}) == 2
        cur, step = one_step(cur, h, i, j)
        sdr = sdr.then(step)
    return cur, sdr, both


def test_reference_retract_of_simplify_verifies(rng):
    c = tensor(xplus(), xminus_parallel())
    s, sdr, _ = folded_retract(c)
    sdr.verify()
    assert s.to_json() == simplify(c)[0].to_json()
    assert sdr.pi.src is c
    assert sdr.pi.tgt.graded_ranks() == s.graded_ranks()


def test_simplify_carries_maps_as_the_folded_retract(rng):
    # every carried map is sigma o f o pi for the reference retract, entry
    # for entry, under either pivot key: the identity (dh 0), the
    # differential (dh 1, the only degree where b f[i, j] a counts; it comes
    # out as the new differential), random maps of other degrees, and the
    # periodic model's u-maps (dh -2, -4), whose eliminations sit next to
    # their entries
    from catsl2.projectors import _periodic_model
    cases = [_periodic_model(q2(), 2, 6), _periodic_model(q3(), 3, 3)]
    for _ in range(3):
        c = random_braid_complex(rng, 3, 4)
        cases += [(c, random_map(rng, c, c, 1, 2)),
                  (partial_trace_complex(c), None)]
    cases = [(c, [ChainMap.identity(c), differential_map(c)]
              + ([u] if u is not None else [random_map(rng, c, c, dh, dq)
                                            for dh, dq in ((0, 2), (-1, 0), (2, -2))]))
             for c, u in cases]
    results = {}
    for fill_in in (False, True):
        fill_ins = 0
        for c, maps in cases:
            ref_c, ref, both = folded_retract(c, fill_in)
            ref.verify()
            s, carried = simplify(c, maps, fill_in)
            assert s.to_json() == ref_c.to_json()
            results.setdefault(fill_in, []).append(s.to_json())
            assert len(carried) == len(maps)
            for f, mine in zip(maps, carried):
                assert mine.src is s and mine.tgt is s
                assert map_json(mine) == map_json(conjugate(f, ref))
            assert carried[0] == ChainMap.identity(s)
            assert carried[1] == differential_map(s)
            fill_ins += both
        assert fill_ins > 20
    assert results[False] != results[True]  # the keys part on some case


def test_workspace_pivots_follow_reference_scan(rng):
    check_pivots_against_scan(rng, fill_in=False)


def test_fill_in_pivots_follow_markowitz_scan(rng):
    # each degree's heap is built when the pivot first reaches it and gauss
    # re-keys only lines at its own degree, read off the lines themselves;
    # the sequence must still be the one an exhaustive scan with current
    # costs picks
    check_pivots_against_scan(rng, fill_in=True)


def check_pivots_against_scan(rng, fill_in):
    from catsl2.projectors import _periodic_model
    cases = [_periodic_model(q2(), 2, 6)[0], _periodic_model(q3(), 3, 3)[0]]
    for _ in range(6):
        c = random_braid_complex(rng, 3, 4)
        cases += [c, partial_trace_complex(c)]
    from_fill_in = rekeyed = 0
    for c in cases:
        start, _ = deloop(c)
        ws = _Workspace(start, fill_in=fill_in)
        recorded = {}  # each heap's (j, i) -> cost when `pivot` first reached it
        while True:
            pivot = ws.pivot()
            ref = reference_pivot(ws.export()[0], fill_in)
            for h in ws.heaps.keys() - recorded.keys():
                recorded[h] = {(j, i): cost for cost, j, i in ws.heaps[h]}
            if pivot is None:
                assert ref is None
                break
            h, i, j = pivot
            ids = list(ws.objects[h + 1]), list(ws.objects[h])
            assert ref == (h, ids[0].index(i), ids[1].index(j))
            # ids are the indices of `start`: an entry that was not +-identity
            # there became one by fill-in at degree h
            m = start.diff[h].get((i, j))
            from_fill_in += m is None or not m.is_identity_entry()
            # a recorded candidate taken at another cost came from a re-push
            cost = recorded[h].get((j, i))
            rekeyed += cost is not None and cost != ws.cost(h, i, j)
            gauss(ws, h, i, j)
        assert ws.export()[0].to_json() == simplify(c, fill_in=fill_in)[0].to_json()
    assert from_fill_in
    assert rekeyed or not fill_in


def test_tracer_counts_every_elimination():
    # the benchmark's tracer rebinds `complexes.gauss` by identity; every
    # elimination must go through that global for its counts to hold
    import importlib.util
    from pathlib import Path
    from catsl2 import complexes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    c = partial_trace_complex(tensor(xplus(), tensor(xplus(), xplus())))
    delooped = deloop(c)[0].total_objects()
    tracer = spans.Tracer()
    tracer.install("simplify")
    try:
        s, _ = complexes.simplify(c)
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    assert delooped > s.total_objects() > 0
    assert counts["complexes.gauss.calls"] == (delooped - s.total_objects()) // 2
    assert counts["complexes.peak_objects"] == delooped


def test_simplify_preserves_homology_of_closures(rng):
    # trefoil cube without any simplification versus fully simplified
    raw = Complex.identity_complex(2)
    for _ in range(3):
        raw = tensor_indexed(xplus(), raw)
    raw = deloop(raw)[0]
    closed_raw = raw
    while closed_raw.n:
        closed_raw = deloop(partial_trace_complex(closed_raw))[0]
    h_raw = integer_homology(tautological_complex(closed_raw))
    simp, _ = simplify(raw)
    closed_s = simp
    while closed_s.n:
        closed_s, _ = simplify(partial_trace_complex(closed_s))
    h_s = integer_homology(tautological_complex(closed_s))
    assert h_raw == h_s
    assert h_raw.groups[(-2, 7)] == (0, (2,))  # trefoil torsion


def test_shift_dual_sum():
    a = xplus()
    assert shift(shift(a, 1, 0), -1, 0).graded_ranks() == a.graded_ranks()
    chi = euler_characteristic(a)
    chi_shift = euler_characteristic(shift(a, 1, 2))
    assert chi_shift == chi.scale(TruncatedSeries.monomial(2, -1))
    d = dual(dual(a))
    assert d.graded_ranks() == a.graded_ranks()
    dual(a).check()
    s = direct_sum(a, shift(a, 0, 1))
    s.check()
    assert s.total_objects() == 2 * a.total_objects()


def _shifted_reference(c, dh, dq):
    """t^dh q^dq of c written out: objects moved and q-shifted, and the
    differential's morphisms negated for odd dh."""
    objects = {h + dh: [GradedObject(o.tangle, o.qshift + dq) for o in objs]
               for h, objs in c.objects.items()}
    diff = {h + dh: {k: m.scale(-1) if dh % 2 else m for k, m in entries.items()}
            for h, entries in c.diff.items()}
    return Complex(c.n, objects, diff)


def _assembled_reference(n, parts, blocks):
    """Each part shifted first, then placed object by object: degree by
    degree in part order, with each shifted part's differential and the
    blocks between them."""
    shifted = [_shifted_reference(*part) for part in parts]
    objects, place, diff = {}, {}, {}
    for p, part in enumerate(shifted):
        for h, objs in part.objects.items():
            for idx, o in enumerate(objs):
                lst = objects.setdefault(h, [])
                place[(p, h, idx)] = len(lst)
                lst.append(o)
    for k2, k1, comps in [(p, p, c.diff) for p, c in enumerate(shifted)] + blocks:
        for h, entries in comps.items():
            for (i, j), m in entries.items():
                slot = diff.setdefault(h, {})
                key = (place[(k2, h + 1, i)], place[(k1, h, j)])
                slot[key] = slot[key] + m if key in slot else m
    return Complex(n, objects, diff)


def _layout(c):
    """A complex's JSON and the order of its differential's entries."""
    return c.to_json(), [(h, list(entries)) for h, entries in c.diff.items()]


def test_assemble_matches_shift_then_place(rng):
    # _assemble shifts each part as it places it; a reference that shifts
    # first and places afterwards gives the same complex, with the blocks'
    # degrees read in the sum's grading
    seen = Counter()
    for _ in range(12):
        m = rng.randrange(1, 4)
        parts = [(random_braid_complex(rng, 3, rng.randrange(1, 3)),
                  rng.randrange(-2, 3), rng.randrange(-3, 4)) for _ in range(m)]
        blocks = []
        for k1, k2 in combinations(range(m), 2):
            (c1, dh1, dq1), (c2, dh2, dq2) = parts[k1], parts[k2]
            f = random_map(rng, c1, c2, dh1 + 1 - dh2, dq1 - dq2)
            blocks.append((k2, k1, {h + dh1: e for h, e in f.components.items()}))
        out, at = _assemble(3, parts, blocks)
        assert _layout(out) == _layout(_assembled_reference(3, parts, blocks))
        for p, (c, dh, dq) in enumerate(parts):
            for h, objs in c.objects.items():
                start = at[(p, h + dh)]
                assert out.objects[h + dh][start:start + len(objs)] == [
                    GradedObject(o.tangle, o.qshift + dq) for o in objs]
            assert _layout(shift(c, dh, dq)) == _layout(_shifted_reference(c, dh, dq))
            seen["odd dh"] += dh % 2
            seen["even dh"] += 1 - dh % 2
            seen["dq"] += dq != 0
        seen["block"] += any(b[2] for b in blocks)
    assert min(seen.values()) > 0, seen


def test_cone_examples():
    a = Complex.identity_complex(2)
    ident = ChainMap.identity(a)
    assert ident == ChainMap.identity(a) and ident != ident.scale(2)
    # maps of different shape compare unequal instead of raising
    assert ChainMap.identity(q2()) != ChainMap.identity(q3())
    assert ident != ChainMap.identity(shift(a, 0, 1)) and ident != differential_map(a)
    c = cone(ident)
    s, _ = simplify(c)
    assert s.is_zero()
    zero_map = ChainMap.zero(a, shift(a, 0, 3))
    cz = cone(zero_map)
    assert cz.total_objects() == 2
    assert not cz.diff
    # cone of the dotted identity is the 1-strand quasi-idempotent block
    q = q1()
    assert q.graded_ranks() == {(-1, 2): 1, (0, 0): 1}
    assert euler_characteristic(q) == TLElement.identity(1).scale(
        TruncatedSeries.one() - TruncatedSeries.monomial(2))


def test_cone_of_homotopic_maps_same_closure_homology(rng):
    # f and f + [d, h] have cones with equal closure homology
    a = q2()
    one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    f = ChainMap(a, a, 0, 2,
                 {h: {(i, i): CobMorphism.dotted_identity(o.tangle, 0)
                      for i, o in enumerate(objs)}
                  for h, objs in a.objects.items()})
    assert f.is_cycle()
    h = ChainMap(a, a, -1, 2, {0: {(0, 0): CobMorphism.canonical(one2, e)}})
    from catsl2.complexes import differential_map
    boundary = h.then(differential_map(a)) + differential_map(a).then(h)
    f2 = f + boundary
    assert f2.is_cycle()
    assert not (f2 - f).is_zero()
    h1 = integer_homology(tautological_complex(closure(cone(f))[0]))
    h2 = integer_homology(tautological_complex(closure(cone(f2))[0]))
    assert h1 == h2


def test_hom_complex_end_of_identity_strand():
    one = Complex.identity_complex(1)
    z = hom_complex(one, one)
    assert {k: len(v) for k, v in z.groups.items()} == {(0, 0): 1, (0, 2): 1}
    assert not z.diffs
    h = integer_homology(z)
    assert h.groups == {(0, 0): (1, ()), (0, 2): (1, ())}


def test_hom_complex_with_zero_target():
    z = hom_complex(Complex.identity_complex(1), Complex(1, {}, {}))
    assert not z.groups


def test_hom_columns_leaves_zero_composites_untouched():
    # a dot on either strand of 1_2 slides onto the one curve that the
    # undotted disk x between e and 1_2 has there, so with g = x_1 - x_2 the
    # glued terms of g o x and of x o g cancel (the glued terms are
    # canonical, so the zero is dropped before it reaches the columns); a
    # dot composed with a dot has no terms at all
    cup_cap, two, strand = FlatTangle.e(1, 2), FlatTangle.identity(2), FlatTangle.identity(1)
    g = CobMorphism(two, two, {0b01: 1, 0b10: -1})
    dot = CobMorphism.dotted_identity(strand, 0)
    up, down = CobMorphism(cup_cap, two, {0: 1}), CobMorphism(two, cup_cap, {0: 1})
    assert _compose_terms(g, up) == ({}, None) and compose(g, up).is_zero()
    assert _compose_terms(down, g) == ({}, None) and compose(down, g).is_zero()
    assert compose(dot, dot).is_zero()

    def one(t, degrees=(0,)):
        return Complex(t.n, {h: [GradedObject(t, 0)] for h in degrees}, {})

    cases = [  # (a, b, basis label, after lines, before lines, row label prefix)
        (one(cup_cap), one(two), (0, 0, 0, 0), {0: {0: {0: g}}}, {}, (0, 0)),
        (one(two, (-1, 0)), one(cup_cap), (0, 0, 0, 0), {}, {-1: {0: {0: g}}},
         (-1, 0)),
        (one(strand), one(strand), (0, 0, 0, 1), {0: {0: {0: dot, 1: dot}}}, {},
         (0, 0)),
    ]
    for a, b, label, after, before, prefix in cases:
        rows = {(*prefix, idx, mask): idx for idx in range(2) for mask in range(2)}
        matrix = [{} for _ in range(2)]
        assert not _hom_columns(matrix, 1, a, b, 0, [label], [(after, rows, 3)],
                                [(before, rows, 3)], {})
        assert matrix == [{}, {}]


def reference_hom_columns(n_rows, col0, a, b, i, basis, after, before):
    """`_hom_columns` label by label: each label's one-term morphism x
    composed with every line entry through the public `compose`, each term
    added at the row its label names.  Returns (matrix, touched)."""
    matrix, touched = [{} for _ in range(n_rows)], False
    for c, (k, ia, ib, mask) in enumerate(basis, col0):
        x = CobMorphism(a.objects[k][ia].tangle, b.objects[k + i][ib].tangle, {mask: 1})
        composites = [((k, ia, i2), rows, scale, compose(g, x))
                      for lines, rows, scale in after
                      for i2, g in lines.get(k + i, {}).get(ib, {}).items()]
        composites += [((k - 1, j2, ib), rows, scale, compose(x, g))
                       for lines, rows, scale in before
                       for j2, g in lines.get(k - 1, {}).get(ia, {}).items()]
        for head, rows, scale, m in composites:
            for mask2, coeff in m.terms.items():
                r = rows.get((*head, mask2))
                if r is not None:
                    matrix[r][c] = matrix[r].get(c, 0) + scale * coeff
                    touched = True
    return matrix, touched


def random_hom_sides(rng, a, b):
    """Lines after (d_b) and before (d_a) x as `hom_complex` gives them, plus
    +-identity and dotted-identity entries on either side (on fresh line
    indices 10 and up), and one row table over every label a composite can
    name, with about a fifth of them missing."""
    after, before = _lines(b.diff), _lines(a.diff, by_row=True)
    for lines, c in ((after, b), (before, a)):
        for h, objs in c.objects.items():
            for idx, o in enumerate(objs):
                if rng.random() < 0.5:
                    ident = CobMorphism.identity(o.tangle)
                    extra = {10: ident, 11: ident.scale(-1)}
                    if not o.tangle.circles and rng.random() < 0.5:
                        extra[12] = CobMorphism.dotted_identity(o.tangle, 0)
                    side_h = h if lines is after else h - 1
                    lines.setdefault(side_h, {}).setdefault(idx, {}).update(extra)
    labels = set()
    for k, objas in a.objects.items():
        for ia, oa in enumerate(objas):
            for kb, objbs in b.objects.items():
                for ib, ob in enumerate(objbs):
                    for i2, g in after.get(kb, {}).get(ib, {}).items():
                        labels |= {(k, ia, i2, m) for m in range(1 << len(glue(oa.tangle, g.tgt)))}
                    for j2, g in before.get(k - 1, {}).get(ia, {}).items():
                        labels |= {(k - 1, j2, ib, m)
                                   for m in range(1 << len(glue(g.src, ob.tangle)))}
    kept = [lab for lab in sorted(labels) if rng.random() < 0.8]
    return after, before, {lab: r for r, lab in enumerate(kept)}


def test_hom_columns_matches_composing_label_by_label(rng):
    # random objects with circles, multi-term entries, +-identities on both
    # sides, missing rows, the full groups (one `seen` for all of them, as
    # hom_complex passes it, and a fresh one per call) and only=(i, j); the
    # after side given twice at opposite scales leaves its entries stored as 0.
    # In HOM(a, a) at i = -1 one entry of d_a meets one pair of ends on both
    # sides, where g o x and x o g differ.
    groups_seen = cancelled = 0
    for t in range(8):
        a = b = random_circled_complex(rng)
        while t % 2 and b is a or b.n != a.n:
            b = random_circled_complex(rng)
        after, before, rows = random_hom_sides(rng, a, b)
        seen = {}
        for (i, j), basis in _hom_basis(a, b).items():
            only = _hom_basis(a, b, (i, j))
            for labels, memo, sides in (
                    (basis, seen, ([(after, rows, 3)], [(before, rows, -2)])),
                    (basis, {}, ([(after, rows, 1)], [(before, rows, 1)])),
                    (only, {}, ([(after, rows, 3), (after, rows, -3)], ()))):
                want = reference_hom_columns(len(rows), 2, a, b, i, labels, *sides)
                matrix = [{} for _ in rows]
                touched = _hom_columns(matrix, 2, a, b, i, labels, *sides, memo)
                assert (matrix, touched) == want
            groups_seen += 1
            cancelled += sum(not x for row in want[0] for x in row.values())
    assert groups_seen > 50 and cancelled


def test_hom_columns_keeps_the_boundary_check():
    # a line entry whose end is not x's raises, on either side, as compose does
    one, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    a = b = Complex(2, {0: [GradedObject(one, 0)], 1: [GradedObject(one, 0)]}, {})
    stray = CobMorphism.identity(e)
    with pytest.raises(ValueError, match="boundary mismatch"):
        compose(stray, CobMorphism.identity(one))
    lines = [({0: {0: {0: stray}}}, {}, 1)]
    for i, basis, after, before in ((0, [(0, 0, 0, 0)], lines, ()),
                                    (-1, [(1, 0, 0, 0)], (), lines)):
        with pytest.raises(ValueError, match="boundary mismatch"):
            _hom_columns([{}], 0, a, b, i, basis, after, before, {})


def test_hom_basis_of_one_bidegree_is_that_group(rng):
    # only=(i, j) reads one target degree per source degree and, per object
    # pair, only the masks of its dot count; the group must be the full
    # enumeration's, in the same order, and empty off its keys (odd q
    # offset, more dots than curves or fewer than none, degrees past either
    # end)
    pieces, _ = symmetric_sequence(truncated_pn(2, 4 + DEPTH_MARGIN).complex, 3)
    p26 = truncated_pn(2, 6).complex
    pairs = [(random_braid_complex(rng, 3, 2), random_braid_complex(rng, 3, 2))
             for _ in range(3)]
    pairs += [(a, b) for a in pieces for b in pieces]
    pairs += [(q2(), q2()), (q3(), q3()), (p26, p26), (tensor(q2(), q2()), p26)]
    for a, b in pairs:
        groups = _hom_basis(a, b)
        assert groups
        js = [j for _, j in groups]
        far = max(js) - min(js) + 2  # even, past every group
        keys = set(groups) | {(i + di, j + dj) for i, j in groups
                              for di, dj in ((0, 1), (1, 0), (-1, 0), (-50, 0),
                                             (0, far), (0, -far))}
        for key in keys:
            assert _hom_basis(a, b, key) == groups.get(key, []), key


def test_hom_complex_differential_squares_to_zero(rng):
    for _ in range(5):
        a = random_braid_complex(rng, 2, 2)
        b = random_braid_complex(rng, 2, 2)
        z = hom_complex(a, b)
        z.check()


def test_zcomplex_check_sums_over_the_middle_degree():
    # Z --(1, 1)--> Z^2 --(1 -1)--> Z: both products are nonzero, their sum is
    # not; with (1 1) instead the composite is 2 and the check names (0, 2)
    groups = {(0, 2): ["a"], (1, 2): ["b", "c"], (2, 2): ["d"], (5, 0): ["e"]}
    ZComplex(groups, {(0, 2): [{0: 1}, {0: 1}], (1, 2): [{0: 1, 1: -1}]}).check()
    with pytest.raises(InvariantError, match=r"d\^2 != 0 at \(0, 2\)"):
        ZComplex(groups, {(0, 2): [{0: 1}, {0: 1}], (1, 2): [{0: 1, 1: 1}]}).check()


def test_convolution_two_term_is_cone():
    a = Complex.identity_complex(2, 2)
    b = Complex.identity_complex(2)
    e = FlatTangle.identity(2)
    f = ChainMap(a, b, 0, 0,
                 {0: {(0, 0): CobMorphism.dotted_identity(e, 0)}})
    conv = convolution_complete([a, b], [f])
    assert conv.graded_ranks() == cone(f).graded_ranks()
    conv.check()


def test_from_json_rejects_a_repeated_entry_or_term():
    # d = 1 + 1 listed as two entries, or as two terms, is not read as d = 1
    def repeated(kind):
        data = q2().to_json()
        row = data["differential"][1]
        if kind == "entry":
            row["entries"].append(row["entries"][0])
        else:
            terms = row["entries"][0]["morphism"]["terms"]
            terms.append(terms[1])
        return data
    with pytest.raises(ValueError, match=r"entry \(0,0\) at h=-2 is listed twice"):
        Complex.from_json(repeated("entry"))
    with pytest.raises(ValueError, match=r"entry \(0,0\) at h=-2 lists the term "
                                         r"with dots \[1\] twice"):
        Complex.from_json(repeated("term"))
    assert Complex.from_json(q2().to_json()).to_json() == q2().to_json()


def test_json_roundtrip():
    import json
    c = tensor(xplus(), xplus())
    data = json.loads(json.dumps(c.to_json()))
    c2 = Complex.from_json(data)
    assert c2.graded_ranks() == c.graded_ranks()
    c2.check()
    s1, _ = simplify(c)
    s2, _ = simplify(c2)
    assert s1.graded_ranks() == s2.graded_ranks()
