import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catsl2.homology as homology
from catsl2.complexes import (CLOSE, ChainMap, Complex, ZComplex, deloop, fold,
                              hom_complex, partial_trace_complex, shift,
                              tautological_complex)
from catsl2.homology import (BigradedGroups, closure_complex, homology_mod_p,
                             integer_homology, invariant_factors, kernel_basis,
                             matrix_inverse_unimodular, poincare_polynomial,
                             poincare_string, projector_end_complex,
                             smith_normal_form, solve_all, solve_integer,
                             taut_chain_map, u_action_on_homology)
from catsl2.projectors import braid_letter_complex, q2, truncated_pn
from catsl2.series import TruncatedSeries
from catsl2.tl import closure_evaluate, euler_characteristic
from test_complexes import random_braid_complex


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
    """solve_all gives the reference's very solution (or None) for every b,
    and its invariant factors are the nonzero diagonal of D."""
    solve = reference_solver(m)
    assert solve_all(m, rhs_list) == [solve(b) for b in rhs_list]
    d = smith_normal_form(m)[1]
    assert invariant_factors(m) == [row[k] for k, row in enumerate(d)
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
        sols = solve_all(m, rhs)
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

    def columns(kb):
        return [list(col) for col in zip(*kb)]

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
        for v in columns(kernel_basis(m)):
            assert not any(apply(m, v))
        images = [apply(m, [rng.randrange(-4, 5) for _ in range(c)]) for _ in range(4)]
        for b, sol in zip(images, solve_all(m, images)):
            assert sol is not None and apply(m, sol) == b
        # y with y^T M = 0 is no image: y.y = y.(M x) = 0 would force y = 0
        misses = columns(kernel_basis([list(col) for col in zip(*m)]))
        for y in misses:
            assert not any(apply(list(zip(*m)), y))
        if g > 1:
            misses.append([1] + [0] * (r - 1))
        assert solve_all(m, misses) == [None] * len(misses)
        unsolvable += len(misses)
        assert_solves_like_reference(m, images + misses)
    assert unsolvable > 60
    assert solve_integer([[2]], [1]) is None


def test_unimodular_inverse():
    u = [[1, 2], [0, 1]]
    ui = matrix_inverse_unimodular(u)
    assert ui == [[1, -2], [0, 1]]


def test_integer_homology_toy_cases():
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [[1]]})
    assert integer_homology(z).is_zero()
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [[2]]})
    assert integer_homology(z).groups == {(1, 0): (0, (2,))}
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {})
    assert integer_homology(z).groups == {(0, 0): (1, ()), (1, 0): (1, ())}


def reference_homology(z: ZComplex) -> BigradedGroups:
    """Kernel mod image in every bidegree, the way integer_homology computed it
    before it read the groups off invariant factors: a kernel basis of the
    outgoing differential, the incoming image solved inside it, and the orders
    from a second Smith normal form."""
    out = BigradedGroups()
    for (i, j) in sorted(z.groups):
        b_out = z.diffs.get((i, j))
        kb = kernel_basis(b_out) if b_out else \
            [[int(r == c) for c in range(z.rank(i, j))] for r in range(z.rank(i, j))]
        kdim = len(kb[0]) if kb else 0
        a_in = z.diffs.get((i - 1, j))
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
        diffs[(h - 1, q)] = [[sum(row[k] * pinv[k][c] for k in range(len(src)))
                              for c in range(len(src))] for row in pm_m]
    return ZComplex(basis, diffs), expect


def test_integer_homology_agrees_with_kernel_mod_image_on_torsion_complexes(
        rng, monkeypatch):
    factor_calls = []
    factor = homology.invariant_factors
    monkeypatch.setattr(homology, "invariant_factors",
                        lambda m: factor_calls.append(1) or factor(m))
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
            assert got.rank(*key) == rank, key
            product = 1
            for f in got.groups.get(key, (0, ()))[1]:
                product *= f
            assert product == order, key
        torsion_seen += sum(len(t) > 0 for _, t in got.groups.values())
    assert torsion_seen > 40


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
             {(0, 0): [[1]], (1, 0): [[1]]})
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
    # q T(P): one strand closure of the fold, then the q-shift
    reduced_target = shift(fold(p2.complex, [CLOSE], cancel=False)[0], 0, 1)
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


def test_poincare_polynomial_and_chi_recovery():
    assert poincare_polynomial(BigradedGroups()) == {}
    assert poincare_string({}) == "0"
    c = closure_complex(q2())
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
    z = ZComplex({(0, 0): ["a"], (1, 0): ["b"]}, {(0, 0): [[2]]})
    dims = homology_mod_p(z, 2)
    assert dims == {(0, 0): 1, (1, 0): 1}


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


def test_taut_chain_map_keys_are_the_bidegrees_it_reaches():
    # a zero map reaches no bidegree; the identity reaches every one, as the
    # identity matrix
    closed = closure_complex(q2())
    z = tautological_complex(closed)
    assert taut_chain_map(ChainMap.zero(closed, closed), z, z) == {}
    ident = taut_chain_map(ChainMap.identity(closed), z, z)
    assert set(ident) == set(z.groups)
    for mat in ident.values():
        assert mat == [[int(r == c) for c in range(len(mat))] for r in range(len(mat))]
