import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catsl2.homology as homology
from catsl2.complexes import (ChainMap, Complex, ZComplex, closure, deloop,
                              hom_complex, partial_trace_complex, shift,
                              tautological_complex)
from catsl2.homology import (BigradedGroups, homology_mod_p,
                             homology_generators, induced_map_on_homology,
                             integer_homology, invariant_factors, kernel_basis,
                             poincare_polynomial, poincare_string,
                             projector_end_complex, smith_normal_form,
                             solve_integer, taut_chain_map,
                             u_action_on_homology)
from catsl2.projectors import braid_letter_complex, q2, q3, truncated_pn
from catsl2.series import TruncatedSeries
from catsl2.tl import closure_evaluate, euler_characteristic
from catsl2.verify import _w2_oracle
from test_complexes import random_braid_complex


def sparse(m: list[list[int]]) -> tuple[list[dict], int]:
    """A dense matrix as the engine takes it: sparse rows and a column count."""
    return [{c: x for c, x in enumerate(row) if x} for row in m], len(m[0]) if m else 0


def bareiss_det(m):
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


matrices = st.integers(0, 7).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                           min_size=r, max_size=r)))


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_snf_properties(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u, d, v = smith_normal_form(m)
    umv = [[sum(u[i][k] * m[k][l] for k in range(rows)) for l in range(cols)]
           for i in range(rows)]
    umv = [[sum(umv[i][k] * v[k][l] for k in range(cols)) for l in range(cols)]
           for i in range(rows)]
    assert umv == d
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        elif diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    if rows:
        assert abs(bareiss_det(u)) == 1
    if cols:
        assert abs(bareiss_det(v)) == 1


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]])[1] == [[1, 0], [0, 6]]
    assert smith_normal_form([[0, 0], [0, 0]])[1] == [[0, 0], [0, 0]]
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_snf_forty_by_forty(rng):
    m = [[rng.randrange(-20, 21) for _ in range(40)] for _ in range(40)]
    u, d, v = smith_normal_form(m)
    diag = [d[i][i] for i in range(40)]
    for i in range(39):
        if diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0


def reference_solver(matrix: list[list[int]]):
    """Solve M x = b over Z for any number of b, the way the engine did
    before its elimination carried right-hand sides along: the dense U and V
    of one Smith normal form, U b over the nonzeros of b, and free parameters
    zero.  Returns a function b -> one integer solution, or None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return lambda rhs: [0] * cols
    if cols == 0:
        return lambda rhs: None if any(rhs) else []
    u, d, v = smith_normal_form(matrix)
    u_cols: dict[int, list[tuple[int, int]]] = {}  # k -> nonzeros (i, U[i][k])

    def solve(rhs: list[int]) -> list[int] | None:
        ub = [0] * rows
        for k, x in enumerate(rhs):
            if x:
                if k not in u_cols:
                    u_cols[k] = [(i, row[k]) for i, row in enumerate(u) if row[k]]
                for i, y in u_cols[k]:
                    ub[i] += y * x
        y = [0] * cols
        for i in range(rows):
            di = d[i][i] if i < min(rows, cols) else 0
            if di:
                if ub[i] % di:
                    return None
                y[i] = ub[i] // di
            elif ub[i]:
                return None
        y_nz = [(k, x) for k, x in enumerate(y) if x]
        return [sum(v[i][k] * x for k, x in y_nz) for i in range(cols)]

    return solve


def assert_solves_like_reference(m, rhs_list):
    """solve_integer gives the reference's very solution (or None) for every
    b, and the invariant factors are the nonzero diagonal of D."""
    solve = reference_solver(m)
    assert solve_integer(*sparse(m), rhs_list) == [solve(b) for b in rhs_list]
    d = smith_normal_form(m)[1]
    assert invariant_factors(*sparse(m)) == [row[k] for k, row in enumerate(d)
                                             if k < len(row) and row[k]]


def test_solve_all_matches_reference_on_snf_goldens(rng):
    golden = json.loads((Path(__file__).parent / "goldens" / "snf.json").read_text())
    unsolvable = 0
    for case in golden["random"]:
        m = case["m"]
        rows, cols = len(m), len(m[0]) if m else 0
        rhs = [[sum(a * x for a, x in zip(row, xs)) for row in m]
               for xs in ([rng.randrange(-4, 5) for _ in range(cols)] for _ in range(3))]
        rhs += [[rng.randrange(-9, 10) for _ in range(rows)] for _ in range(2)]
        rhs += [[int(i == r) for i in range(rows)] for r in range(rows)]
        sols = solve_integer(*sparse(m), rhs)
        unsolvable += sols.count(None)
        for b, x in zip(rhs, sols):
            assert x is None or [sum(a * y for a, y in zip(row, x)) for row in m] == b
        assert_solves_like_reference(m, rhs)
    assert unsolvable > 300


def test_kernel_and_solve(rng):
    # one factorization serves many right-hand sides: square, wide and tall
    # matrices, rank-deficient ones (products through a smaller dimension)
    # and ones whose invariant factors are all > 1
    def rand(r, c, bound=5):
        return [[rng.randrange(-bound, bound + 1) for _ in range(c)] for _ in range(r)]

    def apply(m, x):
        return [sum(a * b for a, b in zip(row, x)) for row in m]

    def kernel(m, cols):  # the kernel vectors of m, dense
        return [[v.get(i, 0) for i in range(cols)] for v in kernel_basis(*sparse(m))]

    unsolvable = 0
    for idx in range(90):
        r, c = rng.randrange(1, 7), rng.randrange(1, 7)
        m, g = rand(r, c), 1
        if idx % 3 == 1:
            k = max(1, min(r, c) - 1)
            m = [apply(rand(k, c, 2), col) for col in rand(r, k, 2)]
        elif idx % 3 == 2:
            g = rng.choice((2, 3))
            m = [[g * x for x in row] for row in m]
        for v in kernel(m, c):
            assert not any(apply(m, v))
        images = [apply(m, [rng.randrange(-4, 5) for _ in range(c)]) for _ in range(4)]
        for b, sol in zip(images, solve_integer(*sparse(m), images)):
            assert sol is not None and apply(m, sol) == b
        # y with y^T M = 0 is no image: y.y = y.(M x) = 0 would force y = 0
        misses = kernel([list(col) for col in zip(*m)], r)
        for y in misses:
            assert not any(apply(list(zip(*m)), y))
        if g > 1:
            misses.append([1] + [0] * (r - 1))
        assert solve_integer(*sparse(m), misses) == [None] * len(misses)
        unsolvable += len(misses)
        assert_solves_like_reference(m, images + misses)
    assert unsolvable > 60
    assert solve_integer([{0: 2}], 1, [[1]]) == [None]


def test_solve_integer_on_sparse_rows_matches_solve_all(rng):
    # the convolution solver hands solve_integer sparse rows, int-defaulting
    # dicts that may hold zeros; it must give the reference's very answer on
    # the dense matrix, None included, kernel_basis must see the same matrix,
    # and both must leave the rows as they were
    def apply(m, x):
        return [sum(a * b for a, b in zip(row, x)) for row in m]

    fixed = [[[2, 0], [0, 3]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]],  # culprit
             [[6, 10, 15]], [[0, 0], [0, 0]], [[0]], [[2, 4], [6, 8], [0, 0]]]
    cases = [(m, len(m[0])) for m in fixed]
    for idx in range(150):
        r, c = rng.randrange(1, 25), rng.randrange(1, 18)
        scale = (1, 2, 3, 6)[idx % 4]  # non-unit pivots, and all of them
        m = [[scale * rng.randrange(-9, 10) if rng.random() < 0.15 else 0
              for _ in range(c)] for _ in range(r)]
        if idx % 5 == 0:  # a zero row and a zero column
            m[rng.randrange(r)] = [0] * c
            col = rng.randrange(c)
            for row in m:
                row[col] = 0
        cases.append((m, c))
    unsolvable = 0
    for m, c in cases:
        solve = reference_solver(m)
        rhs_list = [apply(m, [rng.randrange(-4, 5) for _ in range(c)]),
                    [rng.randrange(-3, 4) for _ in m], [0] * len(m)]
        for rhs in rhs_list:
            rows = []
            for dense in m:
                row = defaultdict(int)
                for col, x in enumerate(dense):
                    if x or rng.random() < 0.1:  # some stored zeros
                        row[col] += x
                rows.append(row)
            before = [dict(row) for row in rows]
            got, = solve_integer(rows, c, [rhs])
            assert got == solve(rhs)
            assert kernel_basis(rows, c) == kernel_basis(*sparse(m))
            assert [dict(row) for row in rows] == before
            if got is None:
                unsolvable += 1
            else:
                assert apply(m, got) == rhs
    assert unsolvable > 50
    # no equations: every unknown is free, and set to zero
    assert solve_integer([], 3, [[]]) == [[0, 0, 0]]
    assert solve_integer([{}, defaultdict(int, {1: 0})], 2, [[0, 1]]) == [None]


def test_integer_homology_toy_cases():
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [{0: 1}]})
    assert integer_homology(z).is_zero()
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [{0: 2}]})
    assert integer_homology(z).groups == {(1, 0): (0, (2,))}
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {})
    assert integer_homology(z).groups == {(0, 0): (1, ()), (1, 0): (1, ())}


def dense(z: ZComplex, key) -> list[list[int]] | None:
    """The differential out of bidegree key as a dense matrix, or None."""
    m = z.diffs.get(key)
    return m and [[row.get(c, 0) for c in range(z.rank(*key))] for row in m]


def reference_homology(z: ZComplex) -> BigradedGroups:
    """Kernel mod image in every bidegree, the way integer_homology computed it
    before it read the groups off invariant factors: a kernel basis of the
    outgoing differential, the incoming image solved inside it, and the orders
    from a second Smith normal form."""
    out = BigradedGroups()
    for (i, j) in sorted(z.groups):
        n = z.rank(i, j)
        kernel = kernel_basis(z.diffs.get((i, j), []), n)
        kb = [[v.get(r, 0) for v in kernel] for r in range(n)]
        kdim = len(kernel)
        a_in = dense(z, (i - 1, j))
        orders = [0] * kdim
        if kdim and a_in:
            solve = reference_solver(kb)
            x = [solve(list(col)) for col in zip(*a_in)]
            assert all(col is not None for col in x), "image not in kernel"
            d = smith_normal_form([[col[r] for col in x] for r in range(kdim)])[1]
            orders = [d[c][c] if c < min(kdim, len(x)) else 0 for c in range(kdim)]
        factors = [f for f in orders if f]
        out.set(i, j, len(orders) - len(factors), tuple(f for f in factors if f > 1))
    return out


def random_torsion_complex(rng):
    """A direct sum of pieces Z at (h, q) and Z --d--> Z from (h, q) to
    (h + 1, q), seen through a random unimodular change of basis in every
    bidegree, so d^2 = 0 by construction.  Returns the ZComplex and, per
    bidegree, the free rank and the product of the torsion orders."""
    basis: dict[tuple[int, int], list[str]] = {}
    arrows = []  # (h, q, source index, target index, d)
    expect: dict[tuple[int, int], list[int]] = {}
    for p in range(rng.randrange(3, 13)):
        h, q = rng.randrange(-1, 2), rng.choice((0, 2))
        src = basis.setdefault((h, q), [])
        src.append(f"p{p}")
        if rng.random() < 0.3:
            expect.setdefault((h, q), [0, 1])[0] += 1
            continue
        d = rng.choice((1, 1, 2, 3, 4, 6, 12))
        tgt = basis.setdefault((h + 1, q), [])
        tgt.append(f"p{p}'")
        arrows.append((h, q, len(src) - 1, len(tgt) - 1, d))
        expect.setdefault((h + 1, q), [0, 1])[1] *= d
    change = {}  # (h, q) -> (P, P^-1), built from elementary row operations
    for key, labels in basis.items():
        n = len(labels)
        pm = [[int(r == c) for c in range(n)] for r in range(n)]
        pinv = [row[:] for row in pm]
        for _ in range(2 * n if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            k = rng.choice((-2, -1, 1, 2))
            pm[b] = [x + k * y for x, y in zip(pm[b], pm[a])]  # row b += k row a
            for row in pinv:  # column a -= k column b
                row[a] -= k * row[b]
        change[key] = (pm, pinv)
    diffs = {}
    for (h, q), tgt in basis.items():
        src = basis.get((h - 1, q))
        if not src:
            continue
        m = [[0] * len(src) for _ in tgt]
        for h0, q0, s, t, d in arrows:
            if (h0 + 1, q0) == (h, q):
                m[t][s] = d
        pm, pinv = change[(h, q)][0], change[(h - 1, q)][1]
        pm_m = [[sum(pm[r][k] * m[k][c] for k in range(len(tgt)))
                 for c in range(len(src))] for r in range(len(tgt))]
        diffs[(h - 1, q)] = [{c: x for c in range(len(src))
                              if (x := sum(row[k] * pinv[k][c] for k in range(len(src))))}
                             for row in pm_m]
    return ZComplex(basis, diffs), expect


def test_integer_homology_agrees_with_kernel_mod_image_on_torsion_complexes(
        rng, monkeypatch):
    factor_calls = []
    eliminate = homology._eliminate
    monkeypatch.setattr(homology, "_eliminate",
                        lambda *args: factor_calls.append(1) or eliminate(*args))
    torsion_seen = 0
    for _ in range(80):
        z, expect = random_torsion_complex(rng)
        z.check()
        del factor_calls[:]
        got = integer_homology(z)
        assert len(factor_calls) == len(z.diffs)  # one per nonzero differential
        assert got.groups == reference_homology(z).groups
        for key in set(expect) | set(got.groups):
            rank, order = expect.get(key, (0, 1))
            assert got.groups.get(key, (0, ()))[0] == rank, key
            product = 1
            for f in got.groups.get(key, (0, ()))[1]:
                product *= f
            assert product == order, key
        torsion_seen += sum(len(t) > 0 for _, t in got.groups.values())
    assert torsion_seen > 40


def test_integer_homology_drops_rows_only_after_a_clean_successor(rng, monkeypatch):
    # per elimination: rows given, rank, clean; A = d_i loses exactly the
    # rows at B = d_(i+1)'s pivot columns when B's elimination was clean
    calls = []
    eliminate = homology._eliminate

    def spy(rows, *args):
        given = len(rows)
        _, _, rank, clean = out = eliminate(rows, *args)
        calls.append((given, rank, clean))
        return out
    monkeypatch.setattr(homology, "_eliminate", spy)
    branches = set()
    for _ in range(80):
        z, _ = random_torsion_complex(rng)
        del calls[:]
        got = integer_homology(z)
        # one elimination per differential, each q-degree from the top down
        seen = dict(zip(sorted(z.diffs, reverse=True), calls, strict=True))
        for (i, j), (given, _, _) in seen.items():
            succ = seen.get((i + 1, j))
            if succ:
                branches.add(succ[2])
            dropped = succ[1] if succ and succ[2] else 0
            assert given == len(z.diffs[(i, j)]) - dropped, (i, j)
        assert got == reference_homology(z)
    assert branches == {True, False}


def test_integer_homology_keeps_every_row_after_a_re_picked_pivot():
    # B = [2 3], A = [3, -2]^T: B's elimination re-picks its pivot (column 0,
    # then column 1), so dropping A's row 1 would leave [3] and report
    # H_1 = Z/3; A has gcd 1 and the complex is exact
    b, a = [{0: 2, 1: 3}], [{0: 3}, {0: -2}]
    _, col_at, rank, clean = homology._eliminate([dict(row) for row in b], 2)
    assert (col_at[:rank], clean) == ([1], False)
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b0", "b1"], (2, 0): ["c"]},
                 {(0, 0): a, (1, 0): b})
    assert integer_homology(z).is_zero()
    assert reference_homology(z).is_zero()


def test_integer_homology_agrees_with_kernel_mod_image_on_hom_complexes(rng):
    for n, length in ((2, 2), (2, 3), (3, 1), (3, 2)):
        z = hom_complex(random_braid_complex(rng, n, length),
                        random_braid_complex(rng, n, length))
        assert z.diffs
        assert integer_homology(z).groups == reference_homology(z).groups


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_integer_homology_rejects_a_non_complex_even_under_optimize_flag(
        run_python, optimize):
    # ranks and invariant factors alone would give H = 0 here: the d^2 check
    # must come first, and must survive python -O
    script = """
from catsl2.complexes import InvariantError, ZComplex
from catsl2.homology import integer_homology
z = ZComplex({(0, 0): ["a"], (1, 0): ["b"], (2, 0): ["c"]},
             {(0, 0): [{0: 1}], (1, 0): [{0: 1}]})
try:
    print("accepted:", integer_homology(z))
except InvariantError as exc:
    print("rejected:", exc)
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: d^2 != 0 at (0, 0)"


def test_unknot_via_unsimplified_cube():
    raw = braid_letter_complex(1, True)
    closed = raw
    while closed.n:
        closed = deloop(partial_trace_complex(closed))[0]
    h = integer_homology(tautological_complex(closed))
    assert h.groups == {(0, -1): (1, ()), (0, 1): (1, ())}


def test_ext_groups_of_identity_strand():
    one = Complex.identity_complex(1)
    h = integer_homology(hom_complex(one, one))
    assert h.groups == {(0, 0): (1, ()), (0, 2): (1, ())}


def test_adjunction_reduce_matches_direct_hom():
    # HOM(1_1 u 1, P) == HOM(1_1, q T(P)) == homology via direct hom_complex
    p2 = truncated_pn(2, 6)
    one2 = Complex.identity_complex(2)
    direct = integer_homology(hom_complex(one2, p2.complex))
    # q T(P): one strand closed and delooped, then the q-shift
    reduced_target = shift(deloop(partial_trace_complex(p2.complex))[0], 0, 1)
    once = integer_homology(hom_complex(Complex.identity_complex(1),
                                        reduced_target))
    taut = integer_homology(projector_end_complex(p2.complex))
    safe = p2.complex.h_min() + 2
    for groups in (direct, once):
        for key in {k for k in list(groups.groups) + list(taut.groups)
                    if k[0] >= safe}:
            assert groups.groups.get(key) == taut.groups.get(key), key


def test_ext_p2_values():
    p2 = truncated_pn(2, 9)
    ext = integer_homology(projector_end_complex(p2.complex))
    assert ext.groups.get((0, 0)) == (1, ())
    assert ext.groups.get((-2, 4)) == (1, ())
    safe = p2.complex.h_min() + 2
    for (h, q), v in ext.groups.items():
        if h >= safe:
            assert (h + q) not in (1, 3), ((h, q), v)


def test_torsion_sums_are_in_invariant_factor_form():
    def cyclic(*orders):
        g = BigradedGroups()
        g.set(0, 0, 0, orders)
        return g
    assert cyclic(2) + cyclic(3) == cyclic(6)
    assert (cyclic(2) + cyclic(3)).groups == {(0, 0): (0, (6,))}
    assert (cyclic(2) + cyclic(4)).groups == {(0, 0): (0, (2, 4))}
    assert (cyclic(6) + cyclic(4)).groups == {(0, 0): (0, (2, 12))}
    assert cyclic(3, 2).groups == {(0, 0): (0, (6,))}
    assert cyclic(1).is_zero()
    # equality reads any listing of the same group as its invariant factors
    assert BigradedGroups({(0, 0): (1, (3, 2))}) == BigradedGroups({(0, 0): (1, (6,))})
    assert cyclic(2) + cyclic(2) != cyclic(4)


def test_poincare_polynomial_and_chi_recovery():
    assert poincare_polynomial(BigradedGroups()) == {}
    assert poincare_string({}) == "0"
    c = closure(q2())[0]
    groups = integer_homology(tautological_complex(c))
    coeffs = poincare_polynomial(groups)
    # graded Euler characteristic at t = -1 equals the TL closure value
    chi: dict[int, int] = {}
    for (h, q), r in coeffs.items():
        chi[q] = chi.get(q, 0) + r * (-1 if h % 2 else 1)
    target = closure_evaluate(euler_characteristic(q2()).scale(
        TruncatedSeries.monomial(2)))  # closure complex carries q^2 from tracing
    assert {e: v for e, v in target.coeffs.items()} == \
        {q: v for q, v in chi.items() if v}


def test_homology_mod_two_counts_torsion():
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [{0: 2}]})
    dims = homology_mod_p(z, 2)
    assert dims == {(0, 0): 1, (1, 0): 1}


def uct_dims(groups: BigradedGroups, p: int) -> dict[tuple[int, int], int]:
    """F_p dimensions from the integer groups by universal coefficients: the
    differential raises h, so Tor(H^(h+1), F_p) lands in degree h."""
    dims: dict[tuple[int, int], int] = {}
    for (h, q), (rank, torsion) in groups.groups.items():
        tors = sum(1 for t in torsion if t % p == 0)
        for key, add in (((h, q), rank + tors), ((h - 1, q), tors)):
            if add:
                dims[key] = dims.get(key, 0) + add
    return dims


def test_homology_mod_p_agrees_with_universal_coefficients(rng):
    # HOM complexes with 2-torsion, the W_2 oracle (Z/2 in every free tower)
    # and random complexes with torsion orders 2, 3, 4, 6 and 12
    p26 = truncated_pn(2, 6).complex
    cases = [hom_complex(q3(), q3()), hom_complex(p26, p26),
             projector_end_complex(p26), _w2_oracle(6)]
    cases += [random_torsion_complex(rng)[0] for _ in range(40)]
    seen = {2: 0, 3: 0}
    for z in cases:
        groups = integer_homology(z)
        for p in (2, 3):
            dims = homology_mod_p(z, p)
            assert dims == uct_dims(groups, p)
            seen[p] += dims != poincare_polynomial(groups)
    assert seen[2] > 20 and seen[3] > 10  # the torsion shows in both fields


def test_u_action_matches_module_structure():
    p2 = truncated_pn(2, 9)
    groups, act1 = u_action_on_homology(p2, 1)
    _, act2 = u_action_on_homology(p2, 2)
    # u1 sends the unit class isomorphically onto (0, 2)
    cols, so, to = act1[(0, 0)]
    assert so == [0] and to == [0] and abs(cols[0][0]) == 1
    # u1^2 = 0: nothing lands at (0, 4)
    assert (0, 2) not in act1 or all(not any(c) for c in act1[(0, 2)][0])
    # u2 is an isomorphism along the free tower
    for b in range(3):
        cols, so, to = act2[(-2 * b, 4 * b)]
        assert so == [0] and to == [0] and abs(cols[0][0]) == 1
    # u2 maps the u1-class onto the Z/2 generator
    cols, so, to = act2[(0, 2)]
    assert so == [0] and to == [2] and cols[0][0] % 2 == 1


def test_induced_map_finds_each_generating_set_once(monkeypatch):
    # one homology_generators call per (complex, bidegree), and none for a
    # target whose source has no generators: 31 calls where recomputing per
    # matrix made 56 for 32 bidegrees
    calls = []
    find = homology.homology_generators
    monkeypatch.setattr(homology, "homology_generators",
                        lambda z, key: calls.append(key) or find(z, key))
    _, action = u_action_on_homology(truncated_pn(2, 12), 2)
    assert len(calls) == len(set(calls)) == 31
    # u_2 has bidegree (-2, 4): each source with generators, and its target
    assert set(action) | {(h - 2, q + 4) for h, q in action} <= set(calls)


def homotopic_to_identity(z: ZComplex, rng) -> dict:
    """The rows of id + d h + h d for a random h of degree -1 (a chain map
    homotopic to the identity, so it induces the identity on homology)."""
    def mul(a, b):
        return [[sum(x * b[k][c] for k, x in enumerate(row)) for c in range(len(b[0]))]
                for row in a]

    hom = {(h, q): [[rng.randrange(-2, 3) for _ in range(z.rank(h, q))]
                    for _ in range(z.rank(h - 1, q))] for h, q in z.groups}
    out = {}
    for (h, q) in z.groups:
        n = z.rank(h, q)
        f = [[int(r == c) for c in range(n)] for r in range(n)]
        d_in, d_out = dense(z, (h - 1, q)), dense(z, (h, q))
        for term in ([mul(d_in, hom[(h, q)])] if d_in else []) + \
                    ([mul(hom[(h + 1, q)], d_out)] if d_out else []):
            f = [[x + y for x, y in zip(a, b)] for a, b in zip(f, term)]
        out[(h, q)] = [{c: x for c, x in enumerate(row) if x} for row in f]
    return out


def test_homology_generators_are_cycles_of_the_integer_orders(rng):
    # on complexes with torsion 2, 3, 4, 6 and 12 and on HOM(q2, q2): every
    # generator is a cycle and no boundary, order d makes d times it a
    # boundary, the orders are integer_homology's free rank and torsion, and
    # the identity, and a map homotopic to it, induce literal unit columns
    # (coordinates come reduced modulo the orders)
    cases = [random_torsion_complex(rng)[0] for _ in range(40)]
    cases.append(hom_complex(q2(), q2()))
    torsion_seen = 0
    for z in cases:
        groups = integer_homology(z).groups
        for (h, q) in z.groups:
            gens, orders = homology_generators(z, (h, q))
            assert len(gens) == len(orders)
            a_in = dense(z, (h - 1, q))
            boundary = reference_solver(a_in) if a_in else lambda b: None if any(b) else []
            for gen, order in zip(gens, orders):
                assert len(gen) == z.rank(h, q)
                for row in z.diffs.get((h, q), []):
                    assert sum(x * gen[c] for c, x in row.items()) == 0, (h, q)
                assert boundary(gen) is None, (h, q)
                assert not order or boundary([order * x for x in gen]) is not None
            assert (orders.count(0), tuple(f for f in orders if f)) == \
                groups.get((h, q), (0, ())), (h, q)
            torsion_seen += any(orders)
        ident = {key: [{r: 1} for r in range(z.rank(*key))] for key in z.groups}
        for maps in (ident, homotopic_to_identity(z, rng)):
            action = induced_map_on_homology(z, z, maps, 0, 0)
            assert set(action) == set(groups)
            for key, (cols, src_orders, tgt_orders) in action.items():
                assert src_orders == tgt_orders == homology_generators(z, key)[1]
                assert cols == [[int(r == c) for r in range(len(cols))]
                                for c in range(len(cols))], key
    assert torsion_seen > 20


def test_taut_chain_map_keys_are_the_bidegrees_it_reaches():
    # a zero map reaches no bidegree; the identity reaches every one, as the
    # identity matrix
    closed = closure(q2())[0]
    z = tautological_complex(closed)
    assert taut_chain_map(ChainMap.zero(closed, closed), z, z) == {}
    ident = taut_chain_map(ChainMap.identity(closed), z, z)
    assert set(ident) == set(z.groups)
    for mat in ident.values():
        assert mat == [{r: 1} for r in range(len(mat))]
