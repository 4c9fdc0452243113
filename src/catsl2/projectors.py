"""The named complexes: crossings, Q2, Q3, truncated projectors, quasi-projectors.

A truncated Cooper-Krushkal projector is materialized at whole-block
granularity: finitely many shifted copies of the bounded quasi-idempotent
block, glued by the connecting map -eta o eps (project to a copy's bottom
object, include into the next copy's top).  Cutting only at copy boundaries
keeps d^2 = 0 exact everywhere and keeps the stored ring-action maps u_k
exact cycles (the block shift vanishing on the deepest copy is a module
structure, not a brutal cutoff).  The recorded window is the range of
degrees in which the truncation agrees with the untruncated projector; the
deepest copy's own objects are truncation artifacts outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cobordism import CobMorphism, FlatTangle, GradedObject, stack_tangles
from .complexes import (ChainMap, Complex, InvariantError, Slice, _assemble,
                        _check_ceiling, cone, convolution_complete, deloop, fold,
                        juxtapose_complexes, object_ceiling, product_map, shift,
                        simplify, tensor, tensor_indexed, transport_endomorphism)

# extra projector depth used when feeding a truncated projector into the
# convolution solver, keeping the guarded equations clear of its artifacts
DEPTH_MARGIN = 8


# ---------------------------------------------------------------------------
# Crossings
# ---------------------------------------------------------------------------

def braid_letter_complex(eps: int, parallel: bool) -> Complex:
    """Khovanov complex of one braid letter on 2 strands, oriented as given;
    `pad_columns` places it among more strands.

    eps is the letter's chirality (+1 for sigma, -1 for its inverse); the
    crossing sign is eps for parallel strands and -eps for antiparallel.
    Sigma-letters resolve as (e, 1) with the saddle e -> 1; inverse letters
    swap the two resolutions.
    """
    if eps not in (1, -1):
        raise ValueError(f"braid letter chirality must be +1 or -1, not {eps!r}")
    e, one = FlatTangle.e(1, 2), FlatTangle.identity(2)
    b, a = (e, one) if eps > 0 else (one, e)
    sad = CobMorphism.canonical(b, a)
    sign = eps if parallel else -eps
    if sign > 0:
        objs = {-1: [GradedObject(b, 2)], 0: [GradedObject(a, 1)]}
        diff = {-1: {(0, 0): sad}}
    else:
        objs = {0: [GradedObject(b, -1)], 1: [GradedObject(a, -2)]}
        diff = {0: {(0, 0): sad}}
    return Complex(2, objs, diff)


def pad_columns(c: Complex, at: int, n: int) -> Complex:
    """Pad a complex to n strands so that it occupies columns at..at+width-1."""
    left, right = at - 1, n - c.n - (at - 1)
    if left < 0 or right < 0:
        raise ValueError(f"a {c.n}-strand slice at column {at} does not fit "
                         f"in {n} strands")
    out = c
    if left:
        out = juxtapose_complexes(Complex.identity_complex(left), out)
    if right:
        out = juxtapose_complexes(out, Complex.identity_complex(right))
    return out


# ---------------------------------------------------------------------------
# The bounded complexes Q2, Q3
# ---------------------------------------------------------------------------

def _dotted(t: FlatTangle, where) -> CobMorphism:
    return CobMorphism.dotted_identity(t, where)


@lru_cache(maxsize=None)
def q2() -> Complex:
    """q^4 1 -> q^3 e -> q e -> 1: saddle, cap-dot minus cup-dot, saddle."""
    one, e = FlatTangle.identity(2), FlatTangle.e(1, 2)
    objs = {-3: [GradedObject(one, 4)], -2: [GradedObject(e, 3)],
            -1: [GradedObject(e, 1)], 0: [GradedObject(one, 0)]}
    diff = {
        -3: {(0, 0): CobMorphism.canonical(one, e)},
        -2: {(0, 0): _dotted(e, 2) - _dotted(e, 0)},
        -1: {(0, 0): CobMorphism.canonical(e, one)},
    }
    c = Complex(2, objs, diff)
    c.check()
    return c


@lru_cache(maxsize=None)
def q3() -> Complex:
    """The bounded 3-strand quasi-idempotent, graded ranks 1,2,2,2,2,1."""
    one = FlatTangle.identity(3)
    e1, e2 = FlatTangle.e(1, 3), FlatTangle.e(2, 3)
    e12 = stack_tangles(e1, e2).tangle   # cup {1,2}, cap {3,4}, strand 0-5
    e21 = stack_tangles(e2, e1).tangle   # cup {0,1}, cap {4,5}, strand 2-3
    sad = CobMorphism.canonical
    objs = {
        -5: [GradedObject(one, 6)],
        -4: [GradedObject(e1, 5), GradedObject(e2, 5)],
        -3: [GradedObject(e12, 4), GradedObject(e21, 4)],
        -2: [GradedObject(e12, 2), GradedObject(e21, 2)],
        -1: [GradedObject(e1, 1), GradedObject(e2, 1)],
        0: [GradedObject(one, 0)],
    }
    diff = {
        -5: {(0, 0): sad(one, e1), (1, 0): sad(one, e2)},
        -4: {(0, 0): sad(e1, e12), (0, 1): -sad(e2, e12),
             (1, 0): -sad(e1, e21), (1, 1): sad(e2, e21)},
        -3: {(0, 0): _dotted(e12, 3) + _dotted(e12, 1), (0, 1): sad(e21, e12),
             (1, 0): sad(e12, e21), (1, 1): _dotted(e21, 4) + _dotted(e21, 0)},
        -2: {(0, 0): sad(e12, e1), (0, 1): -sad(e21, e1),
             (1, 0): -sad(e12, e2), (1, 1): sad(e21, e2)},
        -1: {(0, 0): sad(e1, one), (0, 1): sad(e2, one)},
    }
    c = Complex(3, objs, diff)
    c.check()
    return c


# ---------------------------------------------------------------------------
# Symmetric sequences and the convolution construction of Q_n
# ---------------------------------------------------------------------------

def _hook_tangles(n: int):
    """Cascades D_0 = 1_n, D_k = D_{k-1} over e_{n-k}; also the arcs of the
    deepest cascade carrying the middle dot map (innermost cap and cup)."""
    tangles = [FlatTangle.identity(n)]
    cap_arc = None
    for k in range(1, n):
        lo = n - k - 1  # 0-indexed left foot of the new hook
        hook = FlatTangle.e(n - k, n)
        st = stack_tangles(tangles[-1], hook)
        if k == n - 1:
            kind, val = st.arc_map[1, frozenset((n + lo, n + lo + 1))]
            if kind != "arc":
                raise InvariantError("the deepest hook's cap closed into a circle")
            cap_arc = val
        tangles.append(st.tangle)
    cup_arc = frozenset((0, 1))
    return tangles, cup_arc, cap_arc


def symmetric_sequence(k_complex: Complex, n: int):
    """The 2n-term homotopy chain complex relative to a turnback-killing
    complex K on n-1 strands: returns (pieces, alphas) in homological order,
    the last piece at shift zero.

    Piece k is (K u 1) over the hook cascade D_d, d = min(k, 2n-1-k),
    q-shifted, and delooped; alpha_k is id (x) g_k transported through the
    deloopings, with g_k the saddle between consecutive hooks or, between
    the two copies of the deepest hook, its cap-dot minus its cup-dot.
    """
    if k_complex.n != n - 1:
        raise InvariantError("a symmetric sequence needs K on n - 1 strands")
    hooks, cup_arc, cap_arc = _hook_tangles(n)
    k1 = juxtapose_complexes(k_complex, Complex.identity_complex(1))
    depth = [min(k, 2 * n - 1 - k) for k in range(2 * n)]
    ends = [Complex.from_object(GradedObject(hooks[d], 2 * n - k if k < n else d), n)
            for k, d in enumerate(depth)]
    raw = [tensor_indexed(k1, end) for end in ends]
    pieces, sdrs = zip(*(deloop(r, track_sdr=True) for r in raw))
    alphas = []
    for k in range(2 * n - 1):
        hook, nxt = hooks[depth[k]], hooks[depth[k + 1]]
        g = (CobMorphism.canonical(hook, nxt) if hook != nxt
             else _dotted(hook, cap_arc) - _dotted(hook, cup_arc))
        g_k = ChainMap(ends[k], ends[k + 1], 0, 0, {0: {(0, 0): g}})
        alpha = product_map(raw[k], raw[k + 1], k1, g_k)
        alphas.append(sdrs[k].sigma.then(alpha).then(sdrs[k + 1].pi))
    return list(pieces), alphas


@dataclass
class QnBuild:
    complex: Complex
    valid_h_min: int | None  # None: exact everywhere


def build_qn(n: int, window: int = 12) -> QnBuild:
    """A convolution of the symmetric sequence: exact for n = 2, window-valid
    for n = 3 (relative to a truncated 2-strand projector)."""
    if n == 2:
        pieces, alphas = symmetric_sequence(Complex.identity_complex(1), 2)
        out = convolution_complete(pieces, alphas)
        out.check()
        return QnBuild(out, None)
    if n == 3:
        proj = truncated_pn(2, window + DEPTH_MARGIN)
        pieces, alphas = symmetric_sequence(proj.complex, 3)
        guard = -(window + 2)
        out = convolution_complete(pieces, alphas, min_total_degree=guard)
        out = out.truncate_below(guard + 2)
        out.check()
        # the trim edge itself carries truncation artifacts
        return QnBuild(out, guard + 3)
    raise ValueError("build_qn supports n in {2, 3} at desk scale")


# ---------------------------------------------------------------------------
# Truncated projectors
# ---------------------------------------------------------------------------

@dataclass
class TruncatedProjector:
    n: int
    window: int                      # stored degrees reach down to -window
    complex: Complex
    unit: ChainMap                   # 1_n -> complex (inclusion of the top)
    u_maps: dict[int, ChainMap]      # k -> exact cycle of bidegree (2-2k, 2k)

    def check(self) -> None:
        self.complex.check()
        top = self.complex.objects.get(0, [])
        if not (len(top) == 1 and top[0].tangle == FlatTangle.identity(self.n)
                and top[0].qshift == 0):
            raise InvariantError("degree zero is not exactly 1_n")
        if not self.unit.is_cycle():
            raise InvariantError("unit is not a chain map")
        for k, u in self.u_maps.items():
            if (u.dh, u.dq) != (2 - 2 * k, 2 * k):
                raise InvariantError(f"u_{k} bidegree")
            u.check_degrees()
            if not u.is_cycle():
                raise InvariantError(f"u_{k} is not a chain map")


def _periodic_model(block: Complex, n: int, window: int):
    """Z[u_n]/(u^B) tensored with the block: shifted copies glued by -identity
    from each copy's bottom object into the next copy's top.

    Whole copies only: the u-shift map (zero on the deepest copy) then
    commutes with the differential exactly, and d^2 = 0 holds everywhere.
    """
    dh, dq = 2 - 2 * n, 2 * n
    # the deepest copy's own objects are truncation artifacts; overshoot so
    # that degrees >= -window agree with the untruncated projector
    copies = 1 + max(0, -(window // dh))
    _check_ceiling("periodic model", None, copies * block.total_objects(),
                   object_ceiling())
    bottom = block.objects[block.h_min()]
    if len(bottom) != 1:
        raise InvariantError("block bottom is not a single object")
    if block.h_max() + dh != block.h_min() + 1:
        raise InvariantError("connector degree mismatch")
    # copy b + 1's top object sits one degree above copy b's bottom object
    connector = {(0, 0): CobMorphism.identity(bottom[0].tangle).scale(-1)}
    shifted = [shift(block, b * dh, b * dq) for b in range(copies)]
    per, place = _assemble(n, shifted, [(b + 1, b, {block.h_min() + b * dh: connector})
                                        for b in range(copies - 1)])
    u_comps: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for b in range(copies - 1):
        for h, objs in shifted[b].objects.items():
            for idx, o in enumerate(objs):
                tgt = place.get((b + 1, h + dh, idx))
                if tgt is not None:
                    u_comps.setdefault(h, {})[(tgt, place[(b, h, idx)])] = \
                        CobMorphism.identity(o.tangle)
    return per, ChainMap(per, per, dh, dq, u_comps)


def _bare_unit(c: Complex, n: int) -> ChainMap:
    """Inclusion of the 1_n chain object at degree zero (always a chain map)."""
    ident = Complex.identity_complex(n)
    top = c.objects[0]
    idx = next(i for i, o in enumerate(top)
               if o.tangle == FlatTangle.identity(n) and o.qshift == 0)
    return ChainMap(ident, c, 0, 0,
                    {0: {(idx, 0): CobMorphism.identity(FlatTangle.identity(n))}})


def _u1_map(c: Complex) -> ChainMap:
    """Dot on the sheet at the bottom-left boundary point of every object."""
    comps = {h: {(i, i): _dotted(o.tangle, 0) for i, o in enumerate(objs)}
             for h, objs in c.objects.items()}
    return ChainMap(c, c, 0, 2, comps)


@lru_cache(maxsize=None)
def truncated_pn(n: int, window: int = 12) -> TruncatedProjector:
    """Truncated Cooper-Krushkal projector with unit and u-action maps."""
    if n == 1:
        c = Complex.identity_complex(1)
        proj = TruncatedProjector(1, window, c, _bare_unit(c, 1), {1: _u1_map(c)})
        proj.check()
        return proj
    if n == 2:
        per, u2per = _periodic_model(q2(), 2, window)
        simp, sdr = simplify(per, track_sdr=True)
        u2 = transport_endomorphism(u2per, sdr)
        proj = TruncatedProjector(2, window, simp, _bare_unit(simp, 2),
                                  {1: _u1_map(simp), 2: u2})
        proj.check()
        return proj
    if n == 3:
        p2 = truncated_pn(2, window)
        per3, u3per = _periodic_model(q3(), 3, window)
        strand = Complex.identity_complex(1)
        left = juxtapose_complexes(p2.complex, strand)
        u2left = product_map(left, left, p2.u_maps[2], strand)  # u_2 u 1
        simp, (u2, u3) = fold(left, [Slice(per3, under=True, maps=(u3per,))],
                              [u2left])
        proj = TruncatedProjector(3, window, simp, _bare_unit(simp, 3),
                                  {1: _u1_map(simp), 2: u2, 3: u3})
        proj.check()
        return proj
    raise ValueError("truncated_pn supports n <= 3 at desk scale")


# ---------------------------------------------------------------------------
# Quasi-projectors and turnback reports
# ---------------------------------------------------------------------------

def q1() -> Complex:
    """Cone of the dotted identity q^2 1_1 -> 1_1."""
    src = Complex.identity_complex(1, 2)
    tgt = Complex.identity_complex(1)
    dot = ChainMap(src, tgt, 0, 0,
                   {0: {(0, 0): _dotted(FlatTangle.identity(1), 0)}})
    return cone(dot)


def _q_piece(k: int, n: int) -> Complex:
    blocks = {1: q1, 2: q2, 3: q3}
    if k not in blocks:
        raise ValueError(f"no bounded quasi-idempotent block for k = {k}")
    return pad_columns(blocks[k](), 1, n)


def quasi_projector(n: int, indices: tuple[int, ...] | list[int],
                    window: int = 12) -> QnBuild:
    """P_n(i_1, ..., i_r): bounded when n appears among the indices.

    Realized as (Q_{i_1} u 1) (x) ... (x) (Q_{i_r} u 1) (x) P_n, with the
    projector factor absorbed when some index equals n; empty indices give
    the truncated projector itself.
    """
    indices = tuple(indices)
    if not all(1 <= i <= n for i in indices):
        raise ValueError(f"quasi-projector indices must lie in 1..{n}")
    if not indices:
        proj = truncated_pn(n, window)
        return QnBuild(proj.complex, None if n == 1 else -window + 2)
    # each piece goes under the product of those before it; the bounded
    # blocks have no +-identity entry, so the first piece needs no simplify
    pieces = [_q_piece(k, n) for k in indices]
    if n not in indices:
        pieces.append(truncated_pn(n, window).complex)
    cur, _ = fold(pieces[0], [Slice(p, under=True) for p in pieces[1:]])
    return QnBuild(cur, None if n in indices else -window + 4)


def turnback_check(c: Complex, valid_h_min: int | None = None) -> dict:
    """Simplify c (x) e_i and e_i (x) c for every generator; report residues."""
    report: dict = {"n": c.n, "valid_h_min": valid_h_min, "generators": {}}
    for i in range(1, c.n):
        gen = Complex.generator_complex(i, c.n)
        right, _ = simplify(tensor(c, gen))
        left, _ = simplify(tensor(gen, c))
        def summarize(s: Complex) -> dict:
            ranks = s.graded_ranks()
            if valid_h_min is not None:
                ranks = {k: v for k, v in ranks.items() if k[0] >= valid_h_min}
            return {"ranks": {f"{h},{q}": r for (h, q), r in sorted(ranks.items())},
                    "zero": not ranks}
        report["generators"][i] = {"right": summarize(right),
                                   "left": summarize(left)}
    report["kills_turnbacks"] = all(
        v["right"]["zero"] and v["left"]["zero"]
        for v in report["generators"].values()) if c.n > 1 else True
    return report
