"""Integer homological algebra: Smith normal form and bigraded homology.

Every factorization is one `_eliminate`, in place, over sparse rows of D:
dicts from column to nonzero Python int (arbitrary precision) plus a column
count, where swaps only permute position arrays.  HOM complexes stay sparse
rows from the composites on (see `ZComplex`): `invariant_factors` and
`solve_integer` take rows and a column count, and `homology_mod_p`
eliminates over rows too.  Dense lists of lists exist only at the entry
points `smith_normal_form`, `kernel_basis` and `solve_all`, which convert
once; `homology_generators` and `induced_map_on_homology` densify each
matrix they read at most once to call them.  The pivot is the smallest
nonzero |x| of the remaining block, ties going to the first row and then
the first column in the current order (to limit entry growth).  Pivots
depend on D alone; each row (column) operation also acts on that row's
(column's) companion, so callers carry only what they read:
`smith_normal_form` U's rows and V's columns, `invariant_factors` nothing,
`kernel_basis` V's columns, and `solve_all` and `solve_integer` V's
columns and the right-hand sides as row companions (U B without U).  U and
V stay exact results: the operations are those of the dense row-major
algorithm the sparse one replaced, in its order, and tests/goldens/snf.json
pins (U, D, V).

Bigraded homology comes from invariant factors: for C_{i-1} --A--> C_i --B-->
C_{i+1} with BA = 0, H_i = Z^(n_i - rank B - rank A) plus Z/d for each
invariant factor d > 1 of A, because ker B is a saturated sublattice that
contains im A.  `integer_homology` therefore factors a copy of each nonzero
differential's rows once.  Ranks and factors exist for any pair of
matrices, so it checks d^2 = 0 first.  `homology_generators`, which needs
generators and not only orders, takes kernel mod image in its one bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .complexes import (CLOSE, ChainMap, Complex, InvariantError, ZComplex,
                        _hom_columns, _lines, fold, shift,
                        tautological_complex)


def _add_to(dst: dict, src: dict, k: int) -> None:  # dst += k * src
    if not k:
        return
    for key, x in src.items():
        y = dst.get(key, 0) + k * x
        if y:
            dst[key] = y
        else:
            del dst[key]


def _sparse(matrix: list[list[int]]) -> tuple[list[dict], int]:
    """A dense matrix as the kernel takes it: sparse rows and a column count."""
    return ([{c: int(x) for c, x in enumerate(row) if x} for row in matrix],
            len(matrix[0]) if matrix else 0)


def _dense(rows: list[dict], cols: int) -> list[list[int]]:
    """Sparse rows with `cols` columns as a dense matrix."""
    return [[row.get(c, 0) for c in range(cols)] for row in rows]


def _eliminate(d: list[dict], cols: int, u: list[dict] | None = None,
               v: list[dict] | None = None):
    """Diagonalize, in place, the sparse rows d (dicts from column to nonzero
    entry; no stored zero) of a matrix with `cols` columns, d1 | d2 | ... .

    Step t moves the pivot to (t, t), clears row and column t against it by
    floor-quotient row and column additions (re-picking the pivot whenever a
    nonzero residue is left), then, if the pivot fails to divide the rest of
    the block, adds the first such row to row t and clears again.  Row r's
    operations also act on the companion u[r], column c's on v[c] (None:
    nothing rides along).  Returns (row_at, col_at, rank): the row and column
    at each position, and the number of pivots, which sit at
    d[row_at[t]][col_at[t]].
    """
    rows = len(d)
    row_at, col_at, col_pos = list(range(rows)), list(range(cols)), list(range(cols))

    def move_best_pivot(t: int) -> bool:
        # the dense row-major scan's first smallest entry of the block: the
        # first row holding the smallest |x|, there the leftmost such column
        best = None
        for i in range(t, rows):
            row = d[row_at[i]]
            if row:
                a = min(map(abs, row.values()))
                if best is None or a < best[0]:
                    j = min(col_pos[c] for c, x in row.items() if abs(x) == a)
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            return False
        _, i, j = best
        row_at[t], row_at[i] = row_at[i], row_at[t]
        col_at[t], col_at[j] = col_at[j], col_at[t]
        col_pos[col_at[t]], col_pos[col_at[j]] = t, j
        return True

    t = 0
    while t < min(rows, cols):
        if not move_best_pivot(t):
            break
        r, c = row_at[t], col_at[t]
        while True:
            # each addition changes one row (one column) by row (column) t,
            # which it leaves alone, so the order of the additions is free
            pivot_row, pivot_u = d[r], u and u[r]
            p = pivot_row[c]
            support = [i for i in row_at[t + 1:] if c in d[i]]
            for i in support:  # row i += k * row t
                row = d[i]
                k = -(row[c] // p)
                if not k:
                    continue
                for j, x in pivot_row.items():
                    y = row.get(j, 0) + k * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                if pivot_u:
                    _add_to(u[i], pivot_u, k)
            col = [(d[i], d[i][c]) for i in [r, *support] if c in d[i]]
            dirty = len(col) > 1
            for j, x in list(pivot_row.items()):
                if j == c:
                    continue
                k = -(x // p)
                if k:
                    for row, y in col:  # column j += k * column c
                        z = row.get(j, 0) + k * y
                        if z:
                            row[j] = z
                        else:
                            del row[j]
                    if v is not None:
                        _add_to(v[j], v[c], k)
                dirty |= j in pivot_row
            if dirty:
                move_best_pivot(t)
                r, c = row_at[t], col_at[t]
                continue
            # pivot must divide the remaining block
            if abs(p) == 1:
                break
            culprit = next((i for i in row_at[t + 1:]
                            if any(x % p for x in d[i].values())), None)
            if culprit is None:
                break
            _add_to(pivot_row, d[culprit], 1)
            if u is not None:
                _add_to(u[r], u[culprit], 1)
        if d[r][c] < 0:
            d[r] = {j: -x for j, x in d[r].items()}
            if u is not None:
                u[r] = {k: -x for k, x in u[r].items()}
        t += 1
    return row_at, col_at, t


def smith_normal_form(matrix: list[list[int]]):
    """Return (U, D, V) with U*M*V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    d, cols = _sparse(matrix)
    rows = len(d)
    # U row r is keyed by U column; V column c is keyed by V row
    u = [{r: 1} for r in range(rows)]
    v = [{c: 1} for c in range(cols)]
    row_at, col_at, _ = _eliminate(d, cols, u, v)
    return ([[u[r].get(k, 0) for k in range(rows)] for r in row_at],
            [[d[r].get(c, 0) for c in col_at] for r in row_at],
            [[v[c].get(k, 0) for c in col_at] for k in range(cols)])


def invariant_factors(rows: list[dict], cols: int) -> list[int]:
    """The nonzero diagonal of the Smith normal form, d1 | d2 | ..., of M as
    sparse rows (no stored zero) with `cols` columns; it eliminates the rows
    in place, so a caller that keeps them passes copies."""
    row_at, col_at, rank = _eliminate(rows, cols)
    return [rows[row_at[t]][col_at[t]] for t in range(rank)]


def kernel_basis(matrix: list[list[int]]) -> list[list[int]]:
    """Columns generating ker(M) over Z (a primitive basis, via SNF)."""
    d, cols = _sparse(matrix)
    v = [{c: 1} for c in range(cols)]
    _, col_at, rank = _eliminate(d, cols, None, v)
    return [[v[col_at[j]].get(i, 0) for j in range(rank, cols)] for i in range(cols)]


def solve_all(matrix: list[list[int]], rhs_list: list[list[int]]) -> list[list[int] | None]:
    """For each b of `rhs_list`, one integer solution of M x = b, or None.

    One elimination serves every b.  With U M V = D, y = D^-1 U b has free
    parameters zero and x = V y; U b rides along as the row companions, V as
    sparse columns, so neither is formed densely.
    """
    return _solve(*_sparse(matrix), rhs_list)


def solve_integer(rows: list[dict], cols: int, rhs: list[int]) -> list[int] | None:
    """One integer solution of M x = b, or None; free parameters are zero.

    M comes as sparse rows, dicts from column to entry, with `cols` columns;
    zero entries are dropped and the rows are left as they are.
    """
    return _solve([{c: x for c, x in row.items() if x} for row in rows], cols, [rhs])[0]


def _solve(d: list[dict], cols: int, rhs_list: list[list[int]]) -> list[list[int] | None]:
    ub = [{s: b[r] for s, b in enumerate(rhs_list) if b[r]} for r in range(len(d))]
    v = [{c: 1} for c in range(cols)]
    row_at, col_at, rank = _eliminate(d, cols, ub, v)
    out = []
    for s in range(len(rhs_list)):
        x = [0] * cols
        for i, r in enumerate(row_at):
            b = ub[r].get(s)
            if b:
                di = d[r][col_at[i]] if i < rank else 0
                if not di or b % di:
                    x = None
                    break
                for k, vk in v[col_at[i]].items():
                    x[k] += vk * (b // di)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Bigraded homology
# ---------------------------------------------------------------------------

@dataclass
class BigradedGroups:
    """Per (h, q): free rank and torsion invariant factors (each > 1, dividing)."""

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def set(self, h: int, q: int, rank: int, torsion: tuple[int, ...] = ()):
        if rank or torsion:
            self.groups[(h, q)] = (rank, tuple(torsion))

    def is_zero(self) -> bool:
        return not self.groups

    def shifted(self, dh: int, dq: int) -> BigradedGroups:
        return BigradedGroups({(h + dh, q + dq): v for (h, q), v in self.groups.items()})

    def __add__(self, other: BigradedGroups) -> BigradedGroups:
        out = dict(self.groups)
        for key, (r, t) in other.groups.items():
            r0, t0 = out.get(key, (0, ()))
            out[key] = (r0 + r, tuple(sorted(t0 + t)))
        return BigradedGroups(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedGroups):
            return NotImplemented
        norm = lambda g: {k: (r, tuple(sorted(t))) for k, (r, t) in g.items()
                          if r or t}
        return norm(self.groups) == norm(other.groups)

    def restrict(self, keep) -> BigradedGroups:
        return BigradedGroups({k: v for k, v in self.groups.items() if keep(*k)})

    def to_json(self) -> list[dict]:
        return [{"h": h, "q": q, "rank": r, "torsion": list(t)}
                for (h, q), (r, t) in sorted(self.groups.items())]

    def __repr__(self):
        bits = []
        for (h, q), (r, t) in sorted(self.groups.items()):
            s = f"({h},{q}): Z^{r}" if r else f"({h},{q}):"
            for f in t:
                s += f" + Z/{f}"
            bits.append(s)
        return "{" + "; ".join(bits) + "}"


def integer_homology(z: ZComplex) -> BigradedGroups:
    """Homology per bidegree, read off the invariant factors of the differentials.

    For C_{i-1} --A--> C_i --B--> C_{i+1} with BA = 0, ker B is a saturated
    sublattice of C_i containing im A, so H_i = Z^(n_i - rank B - rank A)
    plus Z/d for each invariant factor d > 1 of A.  One Smith normal form per
    nonzero differential serves both bidegrees it touches.  The formula reads
    only ranks and factors, so it would return groups for a non-complex too:
    d^2 = 0 is checked first.
    """
    z.check()
    factors = {(i, j): invariant_factors([dict(row) for row in m], z.rank(i, j))
               for (i, j), m in z.diffs.items()}
    out = BigradedGroups()
    for (i, j) in sorted(z.groups):
        a, b = factors.get((i - 1, j), ()), factors.get((i, j), ())
        out.set(i, j, z.rank(i, j) - len(a) - len(b), tuple(f for f in a if f > 1))
    return out


def homology_mod_p(z: ZComplex, p: int) -> dict[tuple[int, int], int]:
    """Dimensions of homology with F_p coefficients."""
    def rank_mod(m) -> int:
        # echelon rows over F_p, keyed by their lowest column, pivot 1 there
        pivots: dict[int, dict[int, int]] = {}
        for row in m:
            row = {c: x % p for c, x in row.items() if x % p}
            while row:
                c = min(row)
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(row[c], -1, p)
                    pivots[c] = {k: x * inv % p for k, x in row.items()}
                    break
                f = row[c]
                for k, x in piv.items():  # row -= f * piv, which clears c
                    y = (row.get(k, 0) - f * x) % p
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        return len(pivots)

    dims = {}
    for (i, j) in z.groups:
        n = z.rank(i, j)
        r_out = rank_mod(z.diffs.get((i, j), []))
        r_in = rank_mod(z.diffs.get((i - 1, j), []))
        d = n - r_out - r_in
        if d:
            dims[(i, j)] = d
    return dims


def poincare_polynomial(groups: BigradedGroups) -> dict[tuple[int, int], int]:
    """Free ranks as a dict (h, q) -> coefficient of t^h q^q."""
    return {k: r for k, (r, _) in groups.groups.items() if r}


def poincare_string(coeffs: dict[tuple[int, int], int]) -> str:
    if not coeffs:
        return "0"
    bits = []
    for (h, q), c in sorted(coeffs.items()):
        term = ""
        if h:
            term += f"t^{h}"
        if q:
            term += f"q^{q}"
        if c != 1 or not term:
            term = f"{c}" + ("*" + term if term else "")
        bits.append(term)
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Ext groups and the partial-trace adjunction
# ---------------------------------------------------------------------------

def closure_complex(c: Complex) -> Complex:
    """q^n T^n(c): the HOM(1_n, c) computation pushed down to Cob_0."""
    return closure_with_transport(c, [])[0]


def closure_with_transport(c: Complex, maps: list[ChainMap]):
    """Close all strands while transporting endomorphisms of c along.

    One `fold` of c.n strand closures that deloop without cancelling, then
    the q^n as one shift at the end (a q-shift commutes with tracing and
    delooping); returns (closed complex, transported endomorphisms).
    """
    closed, fs = fold(c, [CLOSE] * c.n, maps, cancel=False)
    closed = shift(closed, 0, c.n)
    return closed, [ChainMap(closed, closed, f.dh, f.dq, f.components) for f in fs]


def u_action_on_homology(proj, k: int):
    """Induced action of u_k on the homology of the projector's closure.

    Returns (homology, action) where action maps (h, q) to (cols, src_orders,
    tgt_orders) in homology-generator coordinates.  The homology computed is
    that of the truncation; interpret bidegrees within the projector's safe
    window only.
    """
    u = proj.u_maps[k]
    closed, (uc,) = closure_with_transport(proj.complex, [u])
    z = tautological_complex(closed)
    mats = taut_chain_map(uc, z, z)
    groups = integer_homology(z)
    return groups, induced_map_on_homology(z, z, mats, u.dh, u.dq)


def projector_end_complex(c: Complex) -> ZComplex:
    """Integer complex computing HOM(1_n, c) via the partial-trace adjunction.
    Use it, valid when c kills turnbacks, for self-Ext of a window-truncated
    projector: there HOM(c, c) has cycles near the cut that corrupt fixed
    bidegrees for every window, while this is exact above the cut."""
    return tautological_complex(closure_complex(c))


@dataclass(frozen=True)
class SafeWindow:
    """Bidegrees (h, q) provably unaffected by a homological truncation at -N."""

    h_min: int

    def contains(self, h: int, q: int) -> bool:
        return h >= self.h_min

    def require(self, h: int, q: int) -> None:
        if not self.contains(h, q):
            raise ValueError(
                f"bidegree ({h},{q}) is outside the safe window h >= {self.h_min}")


# ---------------------------------------------------------------------------
# Induced maps on homology
# ---------------------------------------------------------------------------

def taut_chain_map(f: ChainMap, src_z: ZComplex, tgt_z: ZComplex):
    """Matrices of taut(f) between tautological complexes of Cob_0 complexes.

    Basis labels are (0, 0, ib, mask) as produced by hom_complex against the
    empty diagram; returns dict (i, j) -> matrix into (i + dh, j + dq), as
    sparse rows like a `ZComplex` differential's, for the bidegrees where
    some composite with f is nonzero.
    """
    empty = Complex.empty_diagram()
    f_cols = _lines(f.components)
    out: dict[tuple[int, int], list[dict[int, int]]] = {}
    seen: dict = {}
    for (i, j), basis in src_z.groups.items():
        tbasis = tgt_z.groups.get((i + f.dh, j + f.dq))
        if not tbasis:
            continue
        for k, *_ in basis:  # the chain lives at degree i of f.src
            if k != 0:
                raise InvariantError(f"basis label at degree {k}, not the empty diagram's 0")
        mat = [{} for _ in tbasis]
        rows = {lab: r for r, lab in enumerate(tbasis)}
        if _hom_columns(mat, 0, empty, f.src, i, basis, [(f_cols, rows, 1)], (), seen):
            out[(i, j)] = mat
    return out


def homology_generators(z: ZComplex, key: tuple[int, int]):
    """Generators of H at `key` as chain vectors plus their orders (0 = free).

    Kernel mod image: the columns of a kernel basis kb span the cycles; with
    the image solved inside them as kb X and U X V = D, the columns of
    kb U^-1 generate cyclic summands of orders diag(D) (1 = trivial, dropped).
    """
    i, j = key
    b_out = z.diffs.get((i, j))
    kb = kernel_basis(_dense(b_out or [{}], z.rank(i, j)))
    kdim = len(kb[0]) if kb else 0
    a_in = z.diffs.get((i - 1, j))
    orders = [0] * kdim
    if kdim and a_in:
        x = solve_all(kb, [list(col) for col in zip(*_dense(a_in, z.rank(i - 1, j)))])
        if any(col is None for col in x):
            raise InvariantError(f"image not contained in kernel at {key} (d^2 != 0?)")
        u, d, _ = smith_normal_form([[col[r] for col in x] for r in range(kdim)])
        orders = [d[c][c] if c < min(kdim, len(x)) else 0 for c in range(kdim)]
        uinv = matrix_inverse_unimodular(u)
        kb = [[sum(row[k] * uinv[k][c] for k in range(kdim)) for c in range(kdim)]
              for row in kb]
    gens = [[row[c] for row in kb] for c, dc in enumerate(orders) if dc != 1]
    return gens, [dc for dc in orders if dc != 1]


def matrix_inverse_unimodular(u: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix, from one Smith normal form:
    U' U V' = I gives U^-1 = V' U'."""
    n = len(u)
    left, d, right = smith_normal_form(u)
    if any(d[k][k] != 1 for k in range(n)):
        raise ValueError("matrix is not unimodular")
    return [[sum(right[r][k] * left[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def induced_map_on_homology(z_src: ZComplex, z_tgt: ZComplex,
                            matrices, dh: int, dq: int):
    """Induced action on homology classes, per bidegree.

    `matrices` maps (i, j) -> chain-level matrix into (i + dh, j + dq).
    Returns dict (i, j) -> (cols, src_orders, tgt_orders) where cols[c] are
    the coordinates of the image of the c-th source generator over the target
    generators (well-defined modulo the target orders; order 0 means free).
    """
    generators = cache(homology_generators)  # once per (complex, bidegree)
    out = {}
    for key, mat in matrices.items():
        key_t = (key[0] + dh, key[1] + dq)
        gens_s, ord_s = generators(z_src, key)
        if not gens_s:
            continue
        gens_t, ord_t = generators(z_tgt, key_t)
        n_t = z_tgt.rank(*key_t)
        a_in = z_tgt.diffs.get((key_t[0] - 1, key_t[1]))
        a_in = _dense(a_in, z_tgt.rank(key_t[0] - 1, key_t[1])) if a_in else [[]] * n_t
        g = len(gens_t)
        # img = sum y_i * G_i + boundary; generators + boundaries span cycles
        imgs = [[sum(x * gen[c] for c, x in row.items()) for row in mat]
                for gen in gens_s]
        sols = solve_all([[gen[r] for gen in gens_t] + a_in[r] for r in range(n_t)],
                         imgs)
        if any(sol is None for sol in sols):
            raise InvariantError("image of a cycle is not a cycle")
        out[key] = ([sol[:g] for sol in sols], ord_s, ord_t)
    return out
