import importlib.util
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catsl2.links import (CabledWord, ColoredDiagram, bracket_colored, cable,
                          framing_check, full_twist_word, invariance_spotcheck,
                          link_homology, merging_check)
from catsl2.projectors import q2
from catsl2.series import TruncatedSeries
from catsl2.tl import closure_evaluate, jw


FAM1 = ((1, ()),)
FAM2 = ((2, (2,)),)


def unknot1(word=(), strands=1):
    return ColoredDiagram(strands, tuple(word), "trace", (1,), (0,), (1,), FAM1)


def test_components_and_validation():
    d = ColoredDiagram(2, (1, 1, 1), "trace", (1,), (0,), (1,), FAM1)
    assert d.components() == [[0, 1]]
    d2 = ColoredDiagram(2, (1, -1), "trace", (1, 1), (0, 0), (1, 1), FAM1)
    assert d2.components() == [[0], [1]]
    with pytest.raises(ValueError):
        ColoredDiagram(2, (1,), "trace", (1, 1), (0, 0), (1, 1), FAM1)
    with pytest.raises(ValueError):
        ColoredDiagram(1, (), "trace", (1,), (0,), (0,), FAM1)  # no mark


def test_cable_examples():
    # 1-colored sigma_1 is a single crossing
    w = cable(unknot1((1,), 2))
    assert [s for s in w.slices if s[0] == "x"] == [("x", 0, 1, True)]
    # 2-colored single strand with one mark: one box slot on 2 columns
    d = ColoredDiagram(1, (), "trace", (2,), (0,), (1,), FAM2)
    w = cable(d)
    assert w.total_width == 2
    assert w.slices == [("box", 0, 2)]
    # 2-colored sigma_1 expands to a 4-crossing block on 4 strands
    d2 = ColoredDiagram(2, (1,), "trace", (2,), (0,), (1,), FAM2)
    w2 = cable(d2)
    assert w2.total_width == 4
    assert sum(s[0] == "x" for s in w2.slices) == 4
    # alternating orientations: same-parity substrand pairs are parallel
    kinds = [(col, parallel) for (_, col, _, parallel) in
             [s for s in w2.slices if s[0] == "x"]]
    assert sorted(kinds) == [(0, True), (1, False), (1, False), (2, True)]


def test_full_twist_word():
    assert full_twist_word(2, 1) == [1, 1]
    assert full_twist_word(2, -1) == [-1, -1]
    assert full_twist_word(3, 1) == [1, 2, 1, 2, 1, 2]
    assert full_twist_word(1, 3) == []


def test_unknot_homology_three_ways():
    expected = {(0, -1): (1, ()), (0, 1): (1, ())}
    for d in (unknot1(), unknot1((1,), 2), unknot1((-1,), 2)):
        h, exact = link_homology(d)
        assert exact
        assert h.groups == expected


def test_trefoil_three_ways():
    words = [(2, (1, 1, 1)), (3, (1, 1, 1, 2)), (3, (2, 1, 1, 1))]
    homologies = []
    for strands, word in words:
        d = ColoredDiagram(strands, word, "trace", (1,), (3,), (1,), FAM1)
        h, _ = link_homology(d)
        homologies.append(h)
    assert homologies[0] == homologies[1] == homologies[2]
    assert homologies[0].groups[(-2, 7)] == (0, (2,))


def test_hopf_link():
    d = ColoredDiagram(2, (1, 1), "trace", (1, 1), (0, 0), (1, 1), FAM1)
    h, _ = link_homology(d)
    # unreduced Hopf link homology is free of total rank 4
    assert sum(r for r, _ in h.groups.values()) == 4
    assert all(not t for (_, t) in h.groups.values())


def test_two_colored_unknot_euler_characteristic():
    d = ColoredDiagram(1, (), "trace", (2,), (0,), (1,), FAM2)
    h, exact = link_homology(d)
    assert exact
    chi: dict[int, int] = {}
    for (hh, q), (r, _) in h.groups.items():
        chi[q] = chi.get(q, 0) + r * (-1 if hh % 2 else 1)
    chi = {q: c for q, c in chi.items() if c}
    target = closure_evaluate(jw(2).scale(
        TruncatedSeries.one() - TruncatedSeries.monomial(4)))
    assert chi == dict(target.coeffs.items())


def test_plat_closures_match_trace():
    trace1 = unknot1()
    plat0 = ColoredDiagram(2, (), "plat", (1,), (0,), (1,), FAM1)
    plat2 = ColoredDiagram(2, (1, -1), "plat", (1,), (0,), (1,), FAM1)
    h0, _ = link_homology(trace1)
    for d in (plat0, plat2):
        h, _ = link_homology(d)
        assert h == h0


def test_two_colored_plat_invariance():
    base = ColoredDiagram(1, (), "trace", (2,), (0,), (1,), FAM2)
    plat = ColoredDiagram(2, (1, -1), "plat", (2,), (0,), (1,), FAM2)
    rep = invariance_spotcheck(base, plat)
    assert rep["equal"] and rep["exact"]


def test_mark_slides_past_crossings():
    # same 2-colored unknot with the mark on either side of a twist pair
    d1 = ColoredDiagram(2, (1, -1), "plat", (2,), (0,), (1,), FAM2)
    d2 = ColoredDiagram(2, (-1, 1), "plat", (2,), (0,), (1,), FAM2)
    rep = invariance_spotcheck(d1, d2)
    assert rep["equal"]


def test_framing_shift_values():
    rep = framing_check(2, (2,))
    assert rep["matches"] and rep["shift"] == {"t": 2, "q": -4}
    rep = framing_check(1, (1,))
    assert rep["matches"] and rep["shift"] == {"t": 0, "q": 0}


def test_framed_two_colored_unknot_shifts_by_g2():
    d0 = ColoredDiagram(1, (), "trace", (2,), (0,), (1,), FAM2)
    d1 = ColoredDiagram(1, (), "trace", (2,), (1,), (1,), FAM2)
    h0, _ = link_homology(d0)
    h1, _ = link_homology(d1)
    assert h1 == h0.shifted(2, -4)
    dm = ColoredDiagram(1, (), "trace", (2,), (-1,), (1,), FAM2)
    hm, _ = link_homology(dm)
    assert hm == h0.shifted(-2, 4)


def test_merging_factors():
    rep = merging_check(2, (2,))
    assert rep["matches"]
    assert sorted(rep["factor_shifts"]) == [[-3, 4], [0, 0]]
    rep1 = merging_check(1, (1,))
    assert rep1["matches"]
    assert sorted(rep1["factor_shifts"]) == [[-1, 2], [0, 0]]
    # pure projector: factor 1 (idempotency), within the safe window
    rep_p = merging_check(2, (), window=9)
    assert rep_p["matches"]
    assert rep_p["factor_shifts"] == [[0, 0]]


def test_merging_with_spec_one():
    rep = merging_check(2, (1,), window=9)
    assert rep["matches"]
    assert sorted(rep["factor_shifts"]) == [[-1, 2], [0, 0]]


def test_truncated_p2_unknot_matches_w2_closure():
    # 2-colored unknot with the truncated projector: homology in the safe
    # window equals the small-dga model homology shifted by q^-2
    from catsl2.verify import _w2_oracle
    from catsl2.homology import integer_homology
    d = ColoredDiagram(1, (), "trace", (2,), (0,), (1,), ((2, ()),))
    h, exact = link_homology(d, window=9)
    assert not exact
    oracle = integer_homology(_w2_oracle(12)).shifted(0, -2)
    for key in {k for k in list(h.groups) + list(oracle.groups)
                if k[0] >= -9}:
        assert h.groups.get(key) == oracle.groups.get(key), key


def test_diagram_json_roundtrip():
    data = {"braid": {"strands": 2, "word": [1, 1, 1]}, "closure": "trace",
            "colors": [1], "framings": [3], "marks": [1],
            "family": {"1": {"indices": []}}}
    d = ColoredDiagram.from_json(data)
    assert d.word == (1, 1, 1) and d.colors == (1,) and d.framings == (3,)


def test_orientation_reversal_is_overall_shift():
    hopf = ColoredDiagram(2, (1, 1), "trace", (1, 1), (0, 0), (1, 1), FAM1)
    hopf_rev = ColoredDiagram(2, (1, 1), "trace", (1, 1), (0, 0), (1, 1),
                              FAM1, orientations=(1, -1))
    h1, _ = link_homology(hopf)
    h2, _ = link_homology(hopf_rev)
    shifts = {(dh, dq) for dh in range(-8, 9) for dq in range(-12, 13)
              if h1.shifted(dh, dq) == h2}
    assert shifts == {(2, -6)}


def test_two_colored_trefoil_categorifies_tl_invariant():
    """End-to-end: graded Euler characteristic of the 2-colored trefoil
    equals an independently folded Temperley-Lieb colored invariant."""
    from catsl2.tl import (TLElement, closure_evaluate, jw, juxtapose_tl,
                           tl_mul)

    fam = ((2, (2,)),)
    d = ColoredDiagram(2, (1, 1, 1), "trace", (2,), (0,), (1,), fam)
    h, exact = link_homology(d, window=12)
    assert exact
    chi: dict[int, int] = {}
    for (hh, q), (r, _) in h.groups.items():
        chi[q] = chi.get(q, 0) + r * (-1 if hh % 2 else 1)
    chi = {q: c for q, c in chi.items() if c}

    prec = 40

    def pad(elem, col, width):
        left, right = col, width - elem.n - col
        out = elem
        if left:
            out = juxtapose_tl(TLElement.identity(left, prec), out)
        if right:
            out = juxtapose_tl(out, TLElement.identity(right, prec))
        return out

    def letter_tl(eps, parallel):
        one = TLElement.identity(2, prec)
        e = TLElement.generator(1, 2, prec)
        s = eps if parallel else -eps
        if s > 0:
            return one.scale(TruncatedSeries.monomial(1, 1, prec)) - \
                e.scale(TruncatedSeries.monomial(2, 1, prec))
        return e.scale(TruncatedSeries.monomial(-1, 1, prec)) - \
            one.scale(TruncatedSeries.monomial(-2, 1, prec))

    w = cable(d)
    acc = TLElement.identity(w.total_width, prec)
    box = jw(2, prec).scale(TruncatedSeries.one(prec)
                            - TruncatedSeries.monomial(4, 1, prec))
    for sl in w.slices:
        if sl[0] == "x":
            _, col, eps, par = sl
            acc = tl_mul(pad(letter_tl(eps, par), col, w.total_width), acc)
        else:
            _, col, _ = sl
            acc = tl_mul(pad(box, col, w.total_width), acc)
    val = closure_evaluate(acc)
    assert chi == dict(val.coeffs.items())


@cache
def _tl_colored_invariant():
    """The benchmark's Temperley-Lieb fold (perfbench/oracles.py), by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.tl_colored_invariant


def _component_count(strands, word):
    perm = list(range(strands))
    for x in word:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for p in range(strands):
        count += p not in seen
        while p not in seen:
            seen.add(p)
            p = perm[p]
    return count


@st.composite
def small_trace_closures(draw):
    """At most 3 strands and 4 letters, colors at most 2, random orientations.

    The cable is at most 5 strands wide: a 3-strand knot colored 2 (width 6)
    takes 2-12 s, against at most about 0.8 s here."""
    strands = draw(st.integers(2, 3))
    word = tuple(draw(st.lists(st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i))), max_size=4)))
    k = _component_count(strands, word)
    colors = tuple(draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)))
    orientations = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=k,
                                       max_size=k)))
    d = ColoredDiagram(strands, word, "trace", colors, (0,) * k, (1,) * k,
                       tuple((c, (c,)) for c in sorted(set(colors))), orientations)
    assume(cable(d).total_width <= 5)
    return d


@given(small_trace_closures())
@settings(max_examples=40, deadline=None)
@example(ColoredDiagram(3, (2, 2, 2, 2), "trace", (1, 2, 2), (0, 0, 0), (1, 1, 1),
                        ((1, (1,)), (2, (2,))), (1, 1, 1)))
def test_euler_characteristic_is_the_tl_colored_invariant(d):
    groups, exact = link_homology(d)
    assert exact
    chi: dict[int, int] = {}
    for (h, q), (rank, _) in groups.groups.items():
        chi[q] = chi.get(q, 0) + (-rank if h % 2 else rank)
    chi = {q: c for q, c in chi.items() if c}
    # the oracle's series lose precision to negative q-powers: at its default
    # (40) the example above is known only up to q^26, while chi reaches q^27
    val = _tl_colored_invariant()(d, 60)
    assert max(chi, default=0) <= val.precision
    assert chi == dict(val.items())


def test_torus_links_stabilize_onto_projector_closure():
    """T(2,q) homologies form a direct system stabilizing, up to one overall
    shift, onto the homology of the closed truncated 2-strand projector."""
    from catsl2.homology import integer_homology, projector_end_complex
    from catsl2.projectors import truncated_pn

    hs = {}
    for q in (5, 7):
        d = ColoredDiagram(2, tuple([1] * q), "trace", (1,), (0,), (1,), FAM1)
        hs[q], _ = link_homology(d)
    shifts = [(dh, dq) for dh in range(-6, 7) for dq in range(-12, 13)
              if {k: v for k, v in hs[5].shifted(dh, dq).groups.items()
                  if k[0] >= -3}
              == {k: v for k, v in hs[7].groups.items() if k[0] >= -3}]
    assert shifts == [(0, 2)]
    w = integer_homology(projector_end_complex(truncated_pn(2, 9).complex))
    stable = [(dh, dq) for dh in range(-4, 5) for dq in range(-16, 17)
              if all(hs[7].groups.get((h + dh, qq + dq)) == v
                     for (h, qq), v in w.groups.items() if h >= -4)]
    assert stable == [(0, 5)]


def test_figure_eight_homology():
    # det(4_1) = 5: one exceptional pair plus two knight pairs, rank 6, with
    # the two Z/2 classes of the knight pairs
    d = ColoredDiagram(3, (1, -2, 1, -2), "trace", (1,), (0,), (1,), FAM1)
    h, _ = link_homology(d)
    assert h.groups == {(-2, 5): (1, ()), (-1, 1): (1, ()),
                        (-1, 3): (0, (2,)), (0, -1): (1, ()),
                        (0, 1): (1, ()), (1, -1): (1, ()),
                        (2, -5): (1, ()), (2, -3): (0, (2,))}
    # amphichiral: the free part is symmetric under (h, q) -> (-h, -q)
    free = {(hh, q): r for (hh, q), (r, _) in h.groups.items() if r}
    assert free == {(-hh, -q): r for (hh, q), r in free.items()}
