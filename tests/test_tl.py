import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsl2.series import PrecisionError, TruncatedSeries
from catsl2.tl import (InvariantError, Matching, TLElement, all_matchings,
                       closure_evaluate, euler_characteristic, is_planar_matching, jw,
                       juxtapose_tl, partial_trace_tl, stack_matchings,
                       through_degree, tl_mul, trace_matching)


# layer keys and lookups of the provenance that stack_matchings and
# trace_matching return: the port a layer point lands on, read as
# ('arc', result arc) or ('circle', k)
TOP, BOTTOM = 0, 1


def _place(info, x):
    port, m = info.lands[x], len(info.result.pairing)
    if port >= m:
        return ("circle", port - m)
    # a strand lands on its smaller end
    assert port < info.result.pairing[port]
    return ("arc", frozenset((port, info.result.pairing[port])))


def stack_where(info, layer, p):
    return _place(info, layer * 2 * info.result.n + p)


def trace_where(info, p):
    return _place(info, p)


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
        assert len(info.lands) == 2 * m
        for layer, base in ((TOP, 0), (BOTTOM, m)):
            for p in range(m):
                assert stack_where(info, layer, p) == where(base + p)


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
        assert len(info.lands) == 2 * n
        for p in range(2 * n):
            assert trace_where(info, p) == where(p)


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


def test_constructor_sums_the_series_of_a_repeated_matching():
    e, one = Matching.e(1, 2), Matching.identity(2)
    x, y = TruncatedSeries.monomial(2, 3), TruncatedSeries.circle()
    pairs = [(e, x), (one, y), (e, y), (e, -x), (one, -y)]
    assert TLElement(2, pairs) == TLElement(2, {e: x + y + -x, one: y + -y})
    assert TLElement(2, pairs).terms == {e: y}


def test_constructor_rejects_a_matching_on_another_strand_count():
    with pytest.raises(InvariantError):
        TLElement(2, [(Matching.identity(2), TruncatedSeries.one()),
                      (Matching.identity(3), TruncatedSeries.one())])


def test_precision_mismatch_is_a_precision_error():
    # a ValueError, so a usage error (exit 2) at the CLI
    a, b = TLElement.identity(2, 12), TLElement.identity(2, 14)
    for op in (tl_mul, juxtapose_tl):
        with pytest.raises(PrecisionError):
            op(a, b)


# exact: every exponent a product or trace of these reaches stays far
# inside the window, so equality compares the whole of each series
LINEAR_PREC = 40


def tl_elements(n: int):
    series = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)
    return st.dictionaries(st.sampled_from(all_matchings(n)),
                           series.map(lambda d: TruncatedSeries(d, LINEAR_PREC)),
                           max_size=3).map(lambda t: TLElement(n, t, LINEAR_PREC))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[tl_elements(n)] * 4)),
       st.integers(1, 2).flatmap(tl_elements))
@settings(max_examples=60, deadline=None)
def test_products_and_trace_are_linear_in_each_argument(same_n, other):
    a, a2, b, b2 = same_n
    assert tl_mul(a + a2, b) == tl_mul(a, b) + tl_mul(a2, b)
    assert tl_mul(a, b + b2) == tl_mul(a, b) + tl_mul(a, b2)
    assert juxtapose_tl(a + a2, other) == juxtapose_tl(a, other) + juxtapose_tl(a2, other)
    assert juxtapose_tl(other, a + a2) == juxtapose_tl(other, a) + juxtapose_tl(other, a2)
    assert partial_trace_tl(a + a2) == partial_trace_tl(a) + partial_trace_tl(a2)
