"""Integer homological algebra: Smith normal form and bigraded homology.

Every factorization is one `_eliminate`, in place, over sparse rows of D:
dicts from column to nonzero Python int (arbitrary precision) plus a column
count, where swaps only permute position arrays.  Matrices stay sparse rows
throughout (see `ZComplex`): `invariant_factors`, `kernel_basis` and
`solve_integer` take rows and a column count, `homology_mod_p` eliminates
over rows too, and `homology_generators` and `induced_map_on_homology` read
the differentials' rows as they are.  Only `smith_normal_form`, whose
(U, D, V) tests/goldens/snf.json pins, takes and returns dense lists of
lists; nothing in the engine calls it.  The pivot is the smallest nonzero
|x| of the remaining block, ties going to the first row and then the first
column in the current order (to limit entry growth).  Pivots depend on D
alone; each row (column) operation also acts on that row's (column's)
companion, so callers carry only what they read: `smith_normal_form` U's
rows and V's columns, `invariant_factors` nothing, `kernel_basis` V's
columns, `homology_generators` U's rows, and `solve_integer` V's columns
and the right-hand sides as row companions (U B without U).  U and V stay
exact results: the operations are those of the dense row-major algorithm
the sparse one replaced, in its order.

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

from .complexes import (ChainMap, Complex, InvariantError, ZComplex,
                        _hom_columns, _lines, closure, tautological_complex)


def _add_to(dst: dict, src: dict, k: int) -> None:  # dst += k * src
    if not k:
        return
    for key, x in src.items():
        y = dst.get(key, 0) + k * x
        if y:
            dst[key] = y
        else:
            del dst[key]


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
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    d = [{c: int(x) for c, x in enumerate(row) if x} for row in matrix]
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


def kernel_basis(rows: list[dict], cols: int) -> list[dict]:
    """A primitive basis of ker(M) over Z, M as sparse rows with `cols`
    columns (left as given; stored zeros are dropped): the columns of V past
    the rank, each a dict from coordinate to nonzero entry."""
    v = [{c: 1} for c in range(cols)]
    _, col_at, rank = _eliminate([{c: x for c, x in row.items() if x} for row in rows],
                                 cols, None, v)
    return [v[col_at[j]] for j in range(rank, cols)]


def solve_integer(rows: list[dict], cols: int,
                  rhs_list: list[list[int]]) -> list[list[int] | None]:
    """For each b of `rhs_list`, one integer solution of M x = b, or None.

    M comes as sparse rows, dicts from column to entry, with `cols` columns;
    stored zeros are dropped and the rows are left as they are.  One
    elimination serves every b: with U M V = D, y = D^-1 U b has free
    parameters zero and x = V y, where U b rides along as the row
    companions and V as sparse columns, so neither is formed densely.
    """
    d = [{c: x for c, x in row.items() if x} for row in rows]
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

def _invariant_torsion(orders) -> tuple[int, ...]:
    """Cyclic orders as the group's invariant factors (each > 1, dividing)."""
    t = tuple(orders)
    if all(d > 1 for d in t) and all(b % a == 0 for a, b in zip(t, t[1:])):
        return t  # already in that form, as integer_homology's factors are
    factors = invariant_factors([{i: d} for i, d in enumerate(t)], len(t))
    return tuple(d for d in factors if d > 1)


@dataclass
class BigradedGroups:
    """Per (h, q): free rank and torsion invariant factors (each > 1, dividing)."""

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def set(self, h: int, q: int, rank: int, torsion: tuple[int, ...] = ()):
        torsion = _invariant_torsion(torsion) if torsion else ()
        if rank or torsion:
            self.groups[(h, q)] = (rank, torsion)

    def is_zero(self) -> bool:
        return not self.groups

    def shifted(self, dh: int, dq: int) -> BigradedGroups:
        return BigradedGroups({(h + dh, q + dq): v for (h, q), v in self.groups.items()})

    def __add__(self, other: BigradedGroups) -> BigradedGroups:
        out = dict(self.groups)
        for key, (r, t) in other.groups.items():
            r0, t0 = out.get(key, (0, ()))
            out[key] = (r0 + r, _invariant_torsion(t0 + t))
        return BigradedGroups(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedGroups):
            return NotImplemented
        norm = lambda g: {k: (r, _invariant_torsion(t)) for k, (r, t) in g.items()
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

def u_action_on_homology(proj, k: int):
    """Induced action of u_k on the homology of the projector's closure.

    Returns (homology, action) where action maps (h, q) to (cols, src_orders,
    tgt_orders) in homology-generator coordinates.  The homology computed is
    that of the truncation; interpret bidegrees within the projector's safe
    window only.
    """
    u = proj.u_maps[k]
    closed, (uc,) = closure(proj.complex, [u])
    z = tautological_complex(closed)
    mats = taut_chain_map(uc, z, z)
    groups = integer_homology(z)
    return groups, induced_map_on_homology(z, z, mats, u.dh, u.dq)


def projector_end_complex(c: Complex) -> ZComplex:
    """Integer complex computing HOM(1_n, c) via the partial-trace adjunction.
    Use it, valid when c kills turnbacks, for self-Ext of a window-truncated
    projector: there HOM(c, c) has cycles near the cut that corrupt fixed
    bidegrees for every window, while this is exact above the cut."""
    return tautological_complex(closure(c)[0])


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

    Kernel mod image on the differentials' rows: the kernel basis K of the
    outgoing one spans the cycles, one `solve_integer` writes the incoming
    image as K X, and U X V = D (an `_eliminate` carrying U) makes the
    columns of K U^-1 generators of cyclic summands of orders diag(D)
    (1 = trivial, dropped).  U is unimodular, so U^-1 is the one solution of
    U Y = I, from one more `solve_integer`.
    """
    i, j = key
    n = z.rank(i, j)
    kernel = kernel_basis(z.diffs.get((i, j), []), n)
    kdim = len(kernel)
    orders = [0] * kdim
    coords = [[int(r == c) for r in range(kdim)] for c in range(kdim)]  # over K
    a_in = z.diffs.get((i - 1, j))
    if kdim and a_in:
        k_rows = [{} for _ in range(n)]
        for c, vec in enumerate(kernel):
            for r, x in vec.items():
                k_rows[r][c] = x
        images = [[0] * n for _ in range(z.rank(i - 1, j))]  # the columns of A
        for r, row in enumerate(a_in):
            for s, x in row.items():
                images[s][r] = x
        x_cols = solve_integer(k_rows, kdim, images)
        if any(col is None for col in x_cols):
            raise InvariantError(f"image not contained in kernel at {key} (d^2 != 0?)")
        x_rows = [{s: col[r] for s, col in enumerate(x_cols) if col[r]}
                  for r in range(kdim)]
        u = [{r: 1} for r in range(kdim)]
        row_at, col_at, rank = _eliminate(x_rows, len(x_cols), u)
        orders[:rank] = [x_rows[row_at[t]][col_at[t]] for t in range(rank)]
        coords = solve_integer([u[r] for r in row_at], kdim, coords)
        if any(col is None for col in coords):
            raise InvariantError(f"the change of basis at {key} is not unimodular")
    gens = []
    for y, order in zip(coords, orders):
        if order != 1:
            gen = [0] * n
            for vec, yk in zip(kernel, y):
                if yk:
                    for r, x in vec.items():
                        gen[r] += x * yk
            gens.append(gen)
    return gens, [dc for dc in orders if dc != 1]


def induced_map_on_homology(z_src: ZComplex, z_tgt: ZComplex,
                            matrices, dh: int, dq: int):
    """Induced action on homology classes, per bidegree.

    `matrices` maps (i, j) -> chain-level matrix into (i + dh, j + dq).
    Returns dict (i, j) -> (cols, src_orders, tgt_orders) where cols[c] are
    the coordinates of the image of the c-th source generator over the target
    generators (order 0 means free).  A coordinate is defined modulo its
    target order and given reduced, in 0 .. order - 1, when that order is > 0.
    """
    generators = cache(homology_generators)  # once per (complex, bidegree)
    out = {}
    for key, mat in matrices.items():
        key_t = (key[0] + dh, key[1] + dq)
        gens_s, ord_s = generators(z_src, key)
        if not gens_s:
            continue
        gens_t, ord_t = generators(z_tgt, key_t)
        g, key_in = len(gens_t), (key_t[0] - 1, key_t[1])
        # img = sum y_i * G_i + boundary; generators + boundaries span cycles,
        # so the system's rows are the target generators', then d's shifted by g
        rows = [{c: gen[r] for c, gen in enumerate(gens_t) if gen[r]}
                for r in range(z_tgt.rank(*key_t))]
        for row, a_row in zip(rows, z_tgt.diffs.get(key_in, [])):
            row.update((g + s, x) for s, x in a_row.items())
        imgs = [[sum(x * gen[c] for c, x in row.items()) for row in mat]
                for gen in gens_s]
        sols = solve_integer(rows, g + z_tgt.rank(*key_in), imgs)
        if any(sol is None for sol in sols):
            raise InvariantError("image of a cycle is not a cycle")
        # zip stops at the g target generators' coordinates
        out[key] = ([[y % d if d else y for y, d in zip(sol, ord_t)]
                     for sol in sols], ord_s, ord_t)
    return out
