import itertools

import pytest

from catsl2.series import TruncatedSeries
from catsl2.tl import (Matching, TLElement, all_matchings, closure_evaluate,
                       euler_characteristic, is_planar_matching, jw,
                       juxtapose_tl, partial_trace_tl, stack_matchings,
                       through_degree, tl_mul, trace_matching)


# layer keys and lookups of the provenance that stack_matchings and
# trace_matching return
TOP, BOTTOM = 0, 1


def stack_where(info, layer, arc):
    return info.arc_map[(layer, arc)]


def trace_where(info, arc):
    return info.arc_map[0, arc]


def trace_loops(info):
    return info.circles


def union_find_oracle(layers, joins, ends, middle):
    """Independent gluing oracle: union-find over the points of all layers.

    Point p of layer i is node i * m + p (m points per layer); `joins` are
    the glued node pairs, `ends` the nodes that become result labels 0, 1,
    ... in order, and loops are numbered by the first node of `middle` they
    contain.  Returns (result pairing, loop count, where) with where(node)
    the ('arc', result arc) or ('circle', k) that node's strand lies in.
    """
    m = len(layers[0])
    parent = list(range(m * len(layers)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs = [(i * m + p, i * m + q) for i, pairing in enumerate(layers)
            for p, q in enumerate(pairing)]
    for a, b in arcs + list(joins):
        parent[find(a)] = find(b)
    labels: dict[int, list[int]] = {}
    for label, node in enumerate(ends):
        labels.setdefault(find(node), []).append(label)
    pairing = [None] * len(ends)
    for a, b in labels.values():
        pairing[a], pairing[b] = b, a
    loops = []
    for node in middle:
        root = find(node)
        if root not in labels and root not in loops:
            loops.append(root)

    def where(node):
        root = find(node)
        if root in labels:
            return ("arc", frozenset(labels[root]))
        return ("circle", loops.index(root))
    return tuple(pairing), len(loops), where


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacking_against_union_find_oracle(n):
    m = 2 * n
    for top, bottom in itertools.product(all_matchings(n), repeat=2):
        info = stack_matchings(top, bottom)
        # top's points are nodes 0..m-1 and bottom's m..2m-1; top's bottom
        # point j meets bottom's top point n + j, and the loops are numbered
        # by their smallest middle point j
        pairing, loops, where = union_find_oracle(
            (top.pairing, bottom.pairing), [(j, m + n + j) for j in range(n)],
            [m + p for p in range(n)] + [n + t for t in range(n)], range(n))
        assert info.result.pairing == pairing
        assert info.circles == loops
        assert len(info.arc_map) == 2 * n
        for layer, mt, base in ((TOP, top, 0), (BOTTOM, bottom, m)):
            for arc in mt.arcs():
                assert stack_where(info, layer, arc) == where(base + min(arc))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_against_union_find_oracle(n):
    lo, hi = n - 1, 2 * n - 1
    for mt in all_matchings(n):
        info = trace_matching(mt)
        # bottom point n-1 meets top point 2n-1; the others keep their order
        pairing, loops, where = union_find_oracle(
            (mt.pairing,), [(lo, hi)],
            [p for p in range(2 * n) if p not in (lo, hi)], [lo])
        assert info.result.pairing == pairing
        assert trace_loops(info) == loops
        assert len(info.arc_map) == n
        for arc in mt.arcs():
            assert trace_where(info, arc) == where(min(arc))


def test_matching_counts_are_catalan():
    assert [len(all_matchings(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    for m in all_matchings(4):
        assert is_planar_matching(m.pairing)


def test_generator_relations(rng):
    circle = TruncatedSeries.circle()
    for n in range(2, 5):
        one = TLElement.identity(n)
        for i in range(1, n):
            e = TLElement.generator(i, n)
            assert tl_mul(e, e) == e.scale(circle)
            assert tl_mul(one, e) == e == tl_mul(e, one)
            if i + 1 < n:
                e2 = TLElement.generator(i + 1, n)
                assert e * e2 * e == e
            for j in range(i + 2, n):
                assert e * TLElement.generator(j, n) == TLElement.generator(j, n) * e


def test_bad_matchings_raise_value_error_even_under_optimize_flag():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import catsl2
    with pytest.raises(ValueError, match="non-planar"):
        Matching(2, (3, 2, 1, 0))
    with pytest.raises(ValueError, match="length"):
        Matching(2, (1, 0, 3, 2, 0))
    script = """
from catsl2.tl import Matching
for pairing in ((1, 0, 3, 2, 0), (3, 2, 1, 0)):
    try:
        Matching(2, pairing)
    except ValueError:
        print("rejected")
"""
    src = str(Path(catsl2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["rejected", "rejected"], out.stderr


def test_mul_requires_matching_sizes():
    with pytest.raises(ValueError):
        tl_mul(TLElement.identity(2), TLElement.identity(3))


def test_associativity_on_random_triples(rng):
    for _ in range(300):
        n = rng.randrange(1, 5)
        a, b, c = (TLElement.from_matching(rng.choice(all_matchings(n)))
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_through_degree():
    assert through_degree(TLElement.identity(3)) == 3
    assert through_degree(TLElement.generator(1, 2)) == 0
    assert through_degree(jw(3) - TLElement.identity(3)) <= 2
    with pytest.raises(ValueError):
        through_degree(TLElement(2))


def test_jw_small_values():
    p2 = jw(2)
    coeff = p2.coefficient(Matching.e(1, 2))
    # -[1]/[2] = -(q - q^3 + q^5 - ...)
    expect = -TruncatedSeries.quantum_integer(2).inverse()
    assert coeff == expect
    assert p2.coefficient(Matching.identity(2)) == TruncatedSeries.one()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jw_axioms(n):
    p = jw(n)
    assert p.coefficient(Matching.identity(n)) == TruncatedSeries.one()
    for i in range(1, n):
        e = TLElement.generator(i, n)
        assert (p * e).is_zero()
        assert (e * p).is_zero()
    assert p * p == p


def test_jw_precision_guard():
    from catsl2.series import PrecisionError
    with pytest.raises(PrecisionError):
        jw(5, 4)


def test_closure_values():
    circle = TruncatedSeries.circle()
    assert closure_evaluate(TLElement.identity(2)) == circle * circle
    assert closure_evaluate(TLElement.generator(1, 2)) == circle
    assert closure_evaluate(jw(2)) == TruncatedSeries.quantum_integer(3)
    assert closure_evaluate(jw(3)) == TruncatedSeries.quantum_integer(4)


def test_partial_trace():
    circle = TruncatedSeries.circle()
    assert partial_trace_tl(TLElement.identity(3)) == \
        TLElement.identity(2).scale(circle)
    assert partial_trace_tl(TLElement.generator(2, 3)) == TLElement.identity(2)


def test_juxtapose_counts_strands():
    a = juxtapose_tl(TLElement.generator(1, 2), TLElement.identity(1))
    assert a.n == 3
    assert a == TLElement.generator(1, 3)


def test_euler_characteristic_of_zero_complex():
    from catsl2.complexes import Complex
    assert euler_characteristic(Complex(2, {}, {})).is_zero()
