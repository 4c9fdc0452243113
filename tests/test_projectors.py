import itertools

import pytest

from catsl2.cobordism import (CobMorphism, FlatTangle, GradedObject, glue,
                              juxtapose_tangles, stack_tangles)
from catsl2.complexes import (ChainMap, Complex, ObstructionError, Slice,
                              _hom_basis, closure, cone, deloop, fold,
                              juxtapose_complexes, product_map, simplify,
                              tautological_complex, tensor)
from catsl2.homology import integer_homology
from catsl2.projectors import (DEPTH_MARGIN, _hook_tangles, braid_letter_complex,
                               build_qn, pad_columns, q1, q2, q3, quasi_projector,
                               symmetric_sequence, truncated_pn, turnback_check)
from catsl2.series import TruncatedSeries
from catsl2.tl import all_matchings, euler_characteristic, jw


def one_minus_q2n(n, prec=30):
    return TruncatedSeries.one(prec) - TruncatedSeries.monomial(2 * n, 1, prec)


def bracket(n, *slices):
    """The slices stacked bottom to top over the n-strand identity."""
    return fold(Complex.identity_complex(n), [Slice(s) for s in slices])[0]


def test_crossing_complex_objects():
    xp = braid_letter_complex(1, parallel=True)
    assert xp.graded_ranks() == {(-1, 2): 1, (0, 1): 1}
    xm = braid_letter_complex(1, parallel=False)
    assert xm.graded_ranks() == {(0, -1): 1, (1, -2): 1}
    chi = euler_characteristic(xp)
    # q 1_2 - q^2 e
    from catsl2.tl import TLElement, Matching
    expect = TLElement.identity(2).scale(TruncatedSeries.monomial(1)) - \
        TLElement.generator(1, 2).scale(TruncatedSeries.monomial(2))
    assert chi == expect


@pytest.mark.parametrize("n", [2, 3, 4])
def test_padded_crossing_matches_hand_built_crossing(n):
    # sigma resolves as e_at -> 1_n, its inverse as 1_n -> e_at, one
    # canonical saddle either way; the crossing sign places the pair
    one = FlatTangle.identity(n)
    for at, eps, parallel in itertools.product(range(1, n), (1, -1), (True, False)):
        e = FlatTangle.e(at, n)
        b, a = (e, one) if eps > 0 else (one, e)
        if (eps if parallel else -eps) > 0:
            objs, h = {-1: [GradedObject(b, 2)], 0: [GradedObject(a, 1)]}, -1
        else:
            objs, h = {0: [GradedObject(b, -1)], 1: [GradedObject(a, -2)]}, 0
        expect = Complex(n, objs, {h: {(0, 0): CobMorphism.canonical(b, a)}})
        got = pad_columns(braid_letter_complex(eps, parallel), at, n)
        assert got.to_json() == expect.to_json()


def test_khovanov_bracket_single_crossing_and_r2():
    xp, xm = braid_letter_complex(1, True), braid_letter_complex(-1, True)
    assert bracket(2, xp).graded_ranks() == xp.graded_ranks()
    # Reidemeister II: sigma sigma^-1 folds to the identity
    r2 = bracket(2, xp, xm)
    assert r2.graded_ranks() == {(0, 0): 1}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_bad_crossing_index_is_value_error_under_optimize_flag(run_python, optimize):
    # a crossing placed off the strands, by slice or by braid word
    script = """
from catsl2.links import ColoredDiagram
from catsl2.projectors import braid_letter_complex, pad_columns
for place in (lambda: pad_columns(braid_letter_complex(1, True), 3, 2),
              lambda: ColoredDiagram(2, (3,))):
    try:
        place()
    except ValueError as exc:
        print("rejected:", exc)
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rejected: a 2-strand slice at column 3 does not fit in 2 strands",
        "rejected: braid generator 3 out of range for 2 strands"]


def test_khovanov_bracket_unknot_rank_two():
    c = bracket(2, braid_letter_complex(1, True))
    closed = closure(c)[0]
    h = integer_homology(tautological_complex(closed))
    assert sum(r for r, _ in h.groups.values()) == 2


def test_q2_structure():
    c = q2()
    c.check()
    assert c.graded_ranks() == {(-3, 4): 1, (-2, 3): 1, (-1, 1): 1, (0, 0): 1}
    assert turnback_check(c)["kills_turnbacks"]
    assert euler_characteristic(c) == jw(2).scale(one_minus_q2n(2))
    zero, _ = simplify(tensor(c, Complex.generator_complex(1, 2)))
    assert zero.is_zero()


def test_q3_structure():
    c = q3()
    c.check()
    assert c.graded_ranks() == {(-5, 6): 1, (-4, 5): 2, (-3, 4): 2,
                                (-2, 2): 2, (-1, 1): 2, (0, 0): 1}
    assert euler_characteristic(c) == jw(3).scale(one_minus_q2n(3))
    rep = turnback_check(c)
    assert rep["kills_turnbacks"]
    for i in (1, 2):
        zero, _ = simplify(tensor(c, Complex.generator_complex(i, 3)))
        assert zero.is_zero()
        zero, _ = simplify(tensor(Complex.generator_complex(i, 3), c))
        assert zero.is_zero()


def test_symmetric_sequence_shape():
    pieces, alphas = symmetric_sequence(Complex.identity_complex(1), 2)
    assert len(pieces) == 2 * 2 and len(alphas) == 3
    # the four columns of the 2-strand sequence: q^4 1, q^3 e, q e, 1
    shifts = [p.objects[0][0].qshift for p in pieces]
    assert shifts == [4, 3, 1, 0]
    tangles = [p.objects[0][0].tangle for p in pieces]
    assert tangles == [FlatTangle.identity(2), FlatTangle.e(1, 2),
                       FlatTangle.e(1, 2), FlatTangle.identity(2)]
    for a in alphas:
        assert a.is_cycle()
    # symmetry of shifts: the k-th and (2n-1-k)-th pieces differ only by the
    # q-shift q^{2n-k} versus q^k (same underlying complex)
    pieces3, alphas3 = symmetric_sequence(truncated_pn(2, 6).complex, 3)
    assert len(pieces3) == 6 and len(alphas3) == 5
    for k in range(3):
        left = pieces3[k].graded_ranks()       # shift q^{2n-k}
        right = pieces3[5 - k].graded_ranks()  # shift q^{2n-1-(5-k)} = q^k
        delta = (2 * 3 - k) - k
        assert {(h, q - delta): v for (h, q), v in left.items()} == right


def test_hook_stackings_close_no_circle():
    # symmetric_sequence needs no deloop: over every matching on n - 1
    # strands u 1 and every hook of the cascade, no stacking closes a circle
    count = 0
    for n in range(2, 7):
        hooks, _ = _hook_tangles(n)
        for m in all_matchings(n - 1):
            top = juxtapose_tangles(FlatTangle(n - 1, m), FlatTangle.identity(1))[0]
            for hook in hooks:
                assert stack_tangles(top, hook).tangle.circles == 0
                count += 1
    assert count == 350


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_symmetric_sequence_rejects_a_circled_piece(run_python, optimize):
    # a cascade whose deepest hook carries a circle makes a circled piece
    script = """
from catsl2 import projectors
from catsl2.cobordism import FlatTangle
from catsl2.complexes import Complex, InvariantError
circled = FlatTangle(2, FlatTangle.e(1, 2).matching, 1)
projectors._hook_tangles = lambda n: ([FlatTangle.identity(2), circled], None)
try:
    projectors.symmetric_sequence(Complex.identity_complex(1), 2)
    print("accepted")
except InvariantError as exc:
    print("rejected:", exc)
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rejected: a symmetric-sequence piece has a circle"]


def _entries(f):
    """A map's entries in their order, each morphism as JSON."""
    return [(h, key, m.to_json()) for h, entries in f.components.items()
            for key, m in entries.items()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_sequence_alphas_are_product_maps(n):
    # each alpha_k is id (x) g_k as product_map builds it, after that
    # function's check that the pieces are the factors' products; the
    # pieces are their own delooping
    k_complex = truncated_pn(n - 1, 2).complex
    pieces, alphas = symmetric_sequence(k_complex, n)
    k1 = juxtapose_complexes(k_complex, Complex.identity_complex(1))
    hooks, cap = _hook_tangles(n)
    depth = [min(k, 2 * n - 1 - k) for k in range(2 * n)]
    ends = [Complex.from_object(GradedObject(hooks[d], 2 * n - k if k < n else d), n)
            for k, d in enumerate(depth)]
    for p in pieces:
        assert deloop(p)[0] is p
    for k, alpha in enumerate(alphas):
        hook, nxt = hooks[depth[k]], hooks[depth[k + 1]]
        g = (CobMorphism.canonical(hook, nxt) if hook != nxt else
             CobMorphism.dotted_identity(hook, cap) - CobMorphism.dotted_identity(hook, 0))
        g_k = ChainMap(ends[k], ends[k + 1], 0, 0, {0: {(0, 0): g}})
        ref = product_map(pieces[k], pieces[k + 1], k1, g_k)
        assert alpha.src is pieces[k] and alpha.tgt is pieces[k + 1]
        assert (alpha.dh, alpha.dq) == (0, 0)
        assert _entries(alpha) == _entries(ref)
        assert alpha.is_cycle()


def test_build_qn2_is_exact():
    built = build_qn(2)
    assert built.valid_h_min is None
    assert built.complex.to_json() == q2().to_json()


def test_build_qn3_simplifies_to_q3_ranks():
    built = build_qn(3, window=8)
    s, _ = simplify(built.complex)
    window_ranks = {k: v for k, v in s.graded_ranks().items()
                    if k[0] > built.valid_h_min}
    assert window_ranks == q3().graded_ranks()


def test_solver_unknowns_are_every_degree_zero_dotting():
    # the convolution solver's unknowns between two objects, the (0, 0)
    # basis of HOM between them, are all dottings of the glued curves whose
    # cobordism has degree zero, in mask order; enumerate them
    # independently for every object pair of build_qn(3, 4)
    pieces, _ = symmetric_sequence(truncated_pn(2, 4 + DEPTH_MARGIN).complex, 3)
    objs = {o for p in pieces for lst in p.objects.values() for o in lst}
    for oa, ob in itertools.product(objs, repeat=2):
        curves = range(len(glue(oa.tangle, ob.tangle)))
        masks = [sum(1 << i for i in dots) for k in range(len(curves) + 1)
                 for dots in itertools.combinations(curves, k)]
        want = [mask for mask in masks
                if CobMorphism(oa.tangle, ob.tangle, {mask: 1}).deg_raw()
                == oa.qshift - ob.qshift]
        got = _hom_basis(Complex.from_object(oa, 3), Complex.from_object(ob, 3), (0, 0))
        assert got == [(0, 0, 0, mask) for mask in sorted(want)], (oa, ob)


def test_build_qn_rejects_large_n():
    with pytest.raises(ValueError):
        build_qn(5)


def test_truncated_p1():
    p1 = truncated_pn(1, 6)
    assert p1.complex.graded_ranks() == {(0, 0): 1}
    assert p1.u_maps[1].then(p1.u_maps[1]).is_zero()


def test_truncated_p2_normal_form_and_unit():
    p2 = truncated_pn(2, 9)
    ranks = p2.complex.graded_ranks()
    for k in range(0, 10):
        key = (0, 0) if k == 0 else (-k, 2 * k - 1)
        assert ranks.get(key) == 1
    assert p2.unit.is_cycle()
    assert euler_characteristic(p2.complex, precision=18) == jw(2, 18)
    assert turnback_check(p2.complex, valid_h_min=-7)["kills_turnbacks"]


def test_p2_window_grows_with_request():
    deep = truncated_pn(2, 15)
    assert deep.complex.h_min() <= -15


@pytest.mark.parametrize("n, window", [(2, 4), (2, 8), (3, 4), (3, 8)])
def test_stored_degrees_reach_below_the_window(n, window):
    # the window is where the truncation is exact; the stored whole copies
    # reach further down
    assert truncated_pn(n, window).complex.h_min() <= -window


def test_cone_of_u2_has_q2_ranks_in_window():
    p2 = truncated_pn(2, 9)
    c = cone(p2.u_maps[2])
    s, _ = simplify(c)
    in_window = {k: v for k, v in s.graded_ranks().items() if k[0] >= -5}
    assert in_window == q2().graded_ranks()


def test_truncated_p3():
    p3 = truncated_pn(3, 7)
    assert p3.complex.objects[0][0].tangle == FlatTangle.identity(3)
    assert euler_characteristic(p3.complex, precision=7) == jw(3, 7)
    assert turnback_check(p3.complex, valid_h_min=-5)["kills_turnbacks"]
    for k, u in p3.u_maps.items():
        assert u.is_cycle()


def test_quasi_projector_routes():
    # all-indices: bounded, no truncation caveat
    k2 = quasi_projector(2, (2,), 9)
    assert k2.valid_h_min is None
    assert k2.complex.graded_ranks() == q2().graded_ranks()
    k1 = quasi_projector(1, (1,), 6)
    assert k1.complex.graded_ranks() == q1().graded_ranks()
    # empty spec returns the truncated projector itself
    p = quasi_projector(2, (), 9)
    assert p.valid_h_min is not None
    assert p.complex.graded_ranks()[(0, 0)] == 1
    with pytest.raises(ValueError):
        quasi_projector(2, (3,), 6)


def test_quasi_projector_k3_is_bounded():
    built = quasi_projector(3, (2, 3), 8)
    assert built.valid_h_min is None
    ranks = built.complex.graded_ranks()
    assert min(h for h, _ in ranks) >= -9
    rep = turnback_check(built.complex)
    assert rep["kills_turnbacks"]
    # chi(K3) = (1-q^4)(1-q^6) jw(3)
    chi = euler_characteristic(built.complex)
    assert chi == jw(3).scale(one_minus_q2n(2) * one_minus_q2n(3))


def test_quasi_idempotency_closure_homology():
    qq, _ = simplify(tensor(q2(), q2()))
    h_qq = integer_homology(tautological_complex(closure(qq)[0]))
    h_q = integer_homology(tautological_complex(closure(q2())[0]))
    assert h_qq == h_q + h_q.shifted(-3, 4)


def test_turnback_check_reports_nonzero():
    rep = turnback_check(Complex.identity_complex(2))
    assert not rep["kills_turnbacks"]
    rep2 = turnback_check(braid_letter_complex(1, True))
    assert not rep2["kills_turnbacks"]


def test_partial_trace_of_p2_has_two_dot_tower():
    # closing the truncated projector leaves a tower of single-strand objects
    # whose connecting differentials are twice the dotted identity
    from catsl2.complexes import partial_trace_complex
    t, _ = simplify(partial_trace_complex(truncated_pn(2, 7).complex))
    two_dots = [m.terms for entries in t.diff.values() for m in entries.values()]
    assert two_dots and all(terms == {1: 2} for terms in two_dots)


@pytest.mark.parametrize("under", [False, True], ids=["over", "under"])
def test_fold_carries_accumulator_then_slice_maps(under):
    p2 = truncated_pn(2, 6)
    slice_ = Slice(q2(), under=under, maps=(ChainMap.identity(q2()),))
    c, (u2, ident) = fold(p2.complex, [slice_], [p2.u_maps[2]])
    assert (u2.dh, u2.dq) == (-2, 4) and u2.src is c and u2.is_cycle()
    # pi o sigma = 1, so the slice's identity arrives as the identity of c
    assert ident == ChainMap.identity(c)
    closed, (u2c,) = closure(c, [u2])
    assert closed.n == 0 and u2c.src is closed and u2c.is_cycle()


def test_cone_of_u3_has_q3_ranks_in_window():
    p3 = truncated_pn(3, 7)
    s, _ = simplify(cone(p3.u_maps[3]))
    in_window = {k: v for k, v in s.graded_ranks().items() if k[0] >= -5}
    assert in_window == q3().graded_ranks()


def test_projector_check_survives_optimize_flag():
    # a u-map with one entry doubled is no chain map; check() must still say
    # so when python -O strips assert statements
    import os
    import subprocess
    import sys
    from pathlib import Path

    import catsl2
    script = """
import dataclasses
from catsl2.complexes import ChainMap, InvariantError
from catsl2.projectors import truncated_pn
proj = truncated_pn(2, 4)
u = proj.u_maps[2]
comps = {h: dict(e) for h, e in u.components.items()}
comps[-3][(0, 0)] = comps[-3][(0, 0)].scale(2)
bad = dataclasses.replace(
    proj, u_maps={**proj.u_maps, 2: ChainMap(u.src, u.tgt, u.dh, u.dq, comps)})
proj.check()
try:
    bad.check()
except InvariantError as exc:
    print("rejected:", exc)
"""
    src = str(Path(catsl2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: u_2 is not a chain map"
