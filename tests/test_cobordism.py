import pytest

from catsl2.cobordism import (CobMorphism, FlatTangle, compose, dual, glue,
                              glue_curves, juxtapose, partial_trace,
                              reduce_components, reflect, rotate, stack,
                              stack_tangles)
from catsl2.tl import Matching, all_matchings


def rand_tangle(rng, n, circ_max=1):
    return FlatTangle(n, rng.choice(all_matchings(n)), rng.randrange(circ_max + 1))


def rand_basis(rng, src, tgt):
    mask = 0
    for i in range(len(glue(src, tgt))):
        if rng.random() < 0.35:
            mask |= 1 << i
    return CobMorphism(src, tgt, {mask: rng.choice([1, -1, 2])})


def test_glue_curves_examples():
    one2, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    assert glue_curves(one2, one2) == [[0, 2], [1, 3]]
    assert glue_curves(e, e) == [[0, 1], [2, 3]]
    assert glue_curves(e, one2) == [[0, 1, 2, 3]]
    with pytest.raises(AssertionError):
        glue_curves(one2, FlatTangle.identity(3))


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
