"""Bar-Natan's dotted cobordism category in canonical form.

Objects are flat tangles (a crossingless matching plus transient closed
loops).  A morphism S -> T is an integer combination of canonical basis
cobordisms: disjoint unions of disks, one per closed curve of the glued
diagram S u mirror(T), each disk carrying 0 or 1 dot.  The local relations

    sphere = 0,  dotted sphere = 1,  two dots = 0,
    neck cutting: cylinder = disk(dot) x disk + disk x disk(dot),
    handle = 2 dots,

reduce every composite to this basis, which is what `reduce_components`
implements.  Composition, vertical stacking and partial trace are one gluing
computation: each builds a plan (a factor's curve count, the `unions` of
disks along shared boundary, the bit mask `incidences` of disks on output
curves), `_merge` turns it into connected pieces once per tangles, and
`_glue_terms` places each term pair's dots on the pieces and expands them
into canonical disk terms, memoized per plan by the pair's combined dot
mask.  A stack against a collar, the identity of the circle-free identity
tangle, is the other factor and builds no plan.  The curves of a glued
diagram (`glue`) and the provenance of stacked and traced tangles
(`GluedTangle`: where each (layer, arc) and (layer, circle) went) both come
from the one strand walker `tl.follow`, and `_incidences` reads every
stacked or traced side of a plan through that one format.
Juxtaposition and the symmetries only relabel curves (`_curve_table`,
`_remap`); the identity-like constructors share the cached `_sheets`.

Only the combinatorics of an embedded surface is tracked (component/curve
incidence, genus, dots).  For composites of the elementary pieces this engine
ever builds, the local relations make that combinatorial model faithful; this
is an explicit modelling assumption, see README.

The q-degree of a cobordism S: q^i T -> q^j T' is n + j - i - chi(S) + 2*dots;
`deg_raw` below is the shift-free part n - chi + 2*dots, so deg = deg_raw
+ j - i, and all stored morphisms are bihomogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from .tl import (Glued, InvariantError, Matching, follow, juxtapose_matchings,
                 stack_matchings, trace_matching)


@dataclass(frozen=True, order=True, init=False)
class FlatTangle:
    """A matching plus `circles` closed loops; interned like `Matching`
    (one instance per value while `_flat_tangle`'s cache lives, checked and
    hashed once), with equality rejecting on the hash and then falling back
    to the fields.  `_bare_identity` marks the circle-free identity tangle,
    found once per instance."""

    n: int
    matching: Matching
    circles: int = 0
    # the kernel's caches are keyed by tangles: hash each one once
    _hash: int = field(repr=False, compare=False)
    _bare_identity: bool = field(repr=False, compare=False)

    def __new__(cls, n: int, matching: Matching, circles: int = 0) -> FlatTangle:
        return _flat_tangle(n, matching, circles)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not FlatTangle:
            return NotImplemented
        if self._hash != other._hash:  # equal values hash alike
            return False
        return (self.n == other.n and self.circles == other.circles
                and self.matching == other.matching)

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # copies and unpickled values are interned too
        return FlatTangle, (self.n, self.matching, self.circles)

    @classmethod
    def identity(cls, n: int) -> FlatTangle:
        return cls(n, Matching.identity(n))

    @classmethod
    def e(cls, i: int, n: int) -> FlatTangle:
        return cls(n, Matching.e(i, n))

    def drop_circle(self) -> FlatTangle:
        if self.circles <= 0:
            raise InvariantError("no circle to drop")
        return FlatTangle(self.n, self.matching, self.circles - 1)


@lru_cache(maxsize=None)
def _flat_tangle(n: int, matching: Matching, circles: int) -> FlatTangle:
    """The interned FlatTangle(n, matching, circles), checked when first built."""
    if matching.n != n or circles < 0:
        raise InvariantError(f"bad flat tangle: {n} strands, "
                             f"{matching.n}-strand matching, {circles} circles")
    t = object.__new__(FlatTangle)
    # frozen; setting attributes one by one keeps the compact shared-key dict
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "matching", matching)
    object.__setattr__(t, "circles", circles)
    object.__setattr__(t, "_hash", hash((n, matching, circles)))
    object.__setattr__(t, "_bare_identity", circles == 0 and all(
        q == (p + n) % (2 * n) for p, q in enumerate(matching.pairing)))
    return t


@dataclass(frozen=True)
class GradedObject:
    tangle: FlatTangle
    qshift: int


class GlueInfo:
    """Curves of glue(S, T), canonically ordered, as lookup tables.

    Order: point-curves by smallest boundary point (the loops of `follow`
    started from each source point in turn), then source circles, then
    target circles.
    """

    __slots__ = ("src", "tgt", "size", "point_curve", "arc_src_curve",
                 "arc_tgt_curve", "circle_src_curve", "circle_tgt_curve")

    def __init__(self, src: FlatTangle, tgt: FlatTangle):
        if src.n != tgt.n:
            raise InvariantError("boundary mismatch")
        m = 2 * src.n
        self.src, self.tgt = src, tgt
        # source point p (layer 0) meets target point p (layer 1)
        _, loops, where = follow((src.matching.pairing, tgt.matching.pairing),
                                 [(p, m + p) for p in range(m)], (), range(m))
        sides = self.arc_src_curve, self.arc_tgt_curve = {}, {}
        for (layer, arc), (_, k) in where.items():
            sides[layer][arc] = k
        self.point_curve = {p: k for arc, k in self.arc_src_curve.items() for p in arc}
        self.circle_src_curve = {i: loops + i for i in range(src.circles)}
        self.circle_tgt_curve = {i: loops + src.circles + i for i in range(tgt.circles)}
        self.size = loops + src.circles + tgt.circles

    def __len__(self):
        return self.size


@lru_cache(maxsize=None)
def glue(src: FlatTangle, tgt: FlatTangle) -> GlueInfo:
    return GlueInfo(src, tgt)


# ---------------------------------------------------------------------------
# Reduction to the disk basis
# ---------------------------------------------------------------------------

def reduce_components(components) -> list[tuple[int, int]]:
    """Expand merged components into canonical dotted disks.

    `components` is a list of (outer, dots, chi) for the connected pieces of
    a glued surface, with outer the bit mask of the outer curves the piece
    meets, walked in ascending order.  Returns [(dot_mask, coefficient),
    ...]; an empty list means the whole term vanished.
    """
    factors: list[list[tuple[int, int]]] = []
    for outer, dots, chi in components:
        b = outer.bit_count()
        genus2 = 2 - chi - b
        if genus2 < 0 or genus2 % 2:
            raise InvariantError(f"bad component chi={chi} b={b}")
        genus = genus2 // 2
        coeff = 2 ** genus
        dots += genus
        if dots >= 2:
            return []
        if b == 0:
            if dots == 0:
                return []
            factors.append([(0, coeff)])  # dotted sphere = 1
            continue
        if dots == 1:
            factors.append([(outer, coeff)])
        else:
            factors.append([(outer & ~(1 << c), coeff)
                            for c in range(outer.bit_length()) if outer >> c & 1])
    out = [(0, 1)]
    for f in factors:
        out = [(m | m2, c * c2) for m, c in out for m2, c2 in f]
    return out


class CobMorphism:
    """Integer combination of canonical dotted-disk cobordisms src -> tgt.

    `terms` (dot mask -> coefficient) is a read-only view, so a morphism can
    be shared: the identity-like constructors return cached instances.  The
    public constructor puts any dict of terms in canonical form (masks in
    order, no zero coefficient) and checks bihomogeneity; `_from_canonical`
    skips both for terms that are canonical already.
    """

    __slots__ = ("src", "tgt", "terms")

    def __init__(self, src: FlatTangle, tgt: FlatTangle, terms: dict[int, int]):
        self.src, self.tgt = src, tgt
        items = sorted(terms.items()) if len(terms) > 1 else terms.items()
        self.terms = MappingProxyType({m: c for m, c in items if c})
        if len(self.terms) > 1 and len({m.bit_count() for m in self.terms}) > 1:
            raise InvariantError("morphism is not bihomogeneous")

    @classmethod
    def _from_canonical(cls, src: FlatTangle, tgt: FlatTangle,
                        terms: dict[int, int]) -> CobMorphism:
        """A morphism on `terms` as given: nonzero, ordered and homogeneous."""
        f = object.__new__(cls)
        f.src, f.tgt, f.terms = src, tgt, MappingProxyType(terms)
        return f

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, src: FlatTangle, tgt: FlatTangle) -> CobMorphism:
        return cls(src, tgt, {})

    @classmethod
    def identity(cls, t: FlatTangle) -> CobMorphism:
        return _sheets(t, t, None, None)

    @classmethod
    def canonical(cls, src: FlatTangle, tgt: FlatTangle) -> CobMorphism:
        """The all-undotted basis cobordism (one disk per glued curve)."""
        return cls(src, tgt, {0: 1})

    @classmethod
    def dotted_identity(cls, t: FlatTangle, where) -> CobMorphism:
        """Identity with one dot on the sheet containing `where`.

        `where` is a boundary point, an Arc of the matching, or ('circle', i)
        referring to a circle of t (the dot lands on the source-side sheet).
        """
        return _sheets(t, t, where, None)

    @classmethod
    def cap_circle(cls, src: FlatTangle, dotted: bool) -> CobMorphism:
        """Cap off the last circle of src: a morphism src -> src minus circle."""
        return _sheets(src, src.drop_circle(), None, dotted)

    @classmethod
    def cup_circle(cls, tgt: FlatTangle, dotted: bool) -> CobMorphism:
        """Birth of the last circle of tgt: a morphism tgt minus circle -> tgt."""
        return _sheets(tgt.drop_circle(), tgt, None, dotted)

    # -- linear structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: CobMorphism) -> CobMorphism:
        if self.src != other.src or self.tgt != other.tgt:
            raise InvariantError("adding cobordisms with different ends")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return CobMorphism(self.src, self.tgt, acc)

    def __sub__(self, other: CobMorphism) -> CobMorphism:
        return self + (-other)

    def __neg__(self) -> CobMorphism:
        return CobMorphism._from_canonical(self.src, self.tgt,
                                           {m: -c for m, c in self.terms.items()})

    def scale(self, k: int) -> CobMorphism:
        if k == 0:
            return CobMorphism.zero(self.src, self.tgt)
        return CobMorphism._from_canonical(self.src, self.tgt,
                                           {m: k * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CobMorphism):
            return NotImplemented
        return (self.src == other.src and self.tgt == other.tgt
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*disks(dots={m:b})" for m, c in self.terms.items())

    def deg_raw(self) -> int | None:
        """n - chi + 2*dots, the same for every term; None if zero."""
        if not self.terms:
            return None
        mask = next(iter(self.terms))
        return self.src.n - len(glue(self.src, self.tgt)) + 2 * mask.bit_count()

    def is_identity_entry(self) -> bool:
        """True when this is exactly +-1 times the identity on equal tangles.

        Between equal circle-free graded objects a degree-zero morphism is an
        integer multiple of the identity (dots would break homogeneity), so
        these are precisely the unimodular pivots for Gaussian elimination.
        """
        return (self.src == self.tgt and len(self.terms) == 1
                and self.terms.get(0) in (1, -1) and self.src.circles == 0)

    def to_json(self) -> dict:
        return {
            "source": {"matching": list(self.src.matching.pairing),
                       "circles": self.src.circles},
            "target": {"matching": list(self.tgt.matching.pairing),
                       "circles": self.tgt.circles},
            "terms": [{"dots": [i for i in range(len(glue(self.src, self.tgt)))
                                if m >> i & 1], "coeff": c}
                      for m, c in self.terms.items()],
        }


@lru_cache(maxsize=None)
def _sheets(src: FlatTangle, tgt: FlatTangle, dot, lone: bool | None) -> CobMorphism:
    """The identity-like cobordism src -> tgt, built sheet by sheet.

    One sheet per strand curve of glue(src, tgt), one cylinder per circle
    that src and tgt share and, when `lone` is not None, one disk (dotted if
    `lone`) on the last circle of the side that has one more.  `dot` (None:
    no dot) puts a dot on the sheet meeting a boundary point, an Arc of src,
    or ('circle', i) for circle i of src.  Cached, so the result is shared.
    """
    info = glue(src, tgt)
    if dot is not None:
        dot = {**info.point_curve, **info.arc_src_curve,
               **{("circle", i): c for i, c in info.circle_src_curve.items()}}[dot]
    comps = [(1 << idx, int(idx == dot), 1)
             for idx in range(len(info) - src.circles - tgt.circles)]
    for i in range(min(src.circles, tgt.circles)):
        pair = (info.circle_src_curve[i], info.circle_tgt_curve[i])
        comps.append((1 << pair[0] | 1 << pair[1], int(dot in pair), 0))
    if lone is not None:
        last = (info.circle_src_curve[src.circles - 1]
                if src.circles > tgt.circles
                else info.circle_tgt_curve[tgt.circles - 1])
        comps.append((1 << last, int(lone), 1))
    # the components meet disjoint curves, so no two products share a mask
    return CobMorphism(src, tgt, dict(reduce_components(comps)))


# ---------------------------------------------------------------------------
# The gluing engine
# ---------------------------------------------------------------------------

def _merge(unions, incidences):
    """Connected pieces of a glued surface, before any dots are placed.

    Disk d of the glued factors meets the outer curves in the bit mask
    incidences[d]; unions [(a, b, chi_cost)] join disks.  Returns
    [(outer, disks, chi)] with each piece's outer curves and disks as bit
    masks.
    """
    parent = list(range(len(incidences)))  # union-find forest of disks

    def find(d: int) -> int:
        while parent[d] != d:
            parent[d] = d = parent[parent[d]]
        return d

    for a, b, _ in unions:
        parent[find(b)] = find(a)
    # pieces in the order of their first disk: [outer curves, disks, chi]
    pieces: dict[int, list] = {}
    for d, curves in enumerate(incidences):
        piece = pieces.setdefault(find(d), [0, 0, 0])
        piece[0] |= curves
        piece[1] |= 1 << d
        piece[2] += 1
    # every gluing lies inside one piece and lowers its chi by its cost
    for a, _, cost in unions:
        pieces[find(a)][2] -= cost
    return [tuple(piece) for piece in pieces.values()]


@lru_cache(maxsize=None)
def _merged_plan(build, *tangles: FlatTangle):
    """Merge the plan `build(*tangles)` = (n_f, unions, incidences) into
    (n_f, pieces, memo); cached per builder and tangles.  `memo` maps the
    combined dot mask of a term pair to its expansion, filled by
    `_glue_terms`; it lives in this cache entry and is cleared with it."""
    n_f, unions, incidences = build(*tangles)
    return n_f, tuple(_merge(unions, incidences)), {}


def _glue_terms(plan, f: CobMorphism, g: CobMorphism | None = None) -> dict[int, int]:
    """Glue every term pair of f and g (f alone when g is None) along a
    merged plan; g's disks follow the n_f disks of f.  The terms come back
    canonical (masks in order, no zero coefficient): a glued product of
    bihomogeneous factors is bihomogeneous, so `_from_canonical` wraps them.
    Each memoized expansion is sorted and zero-free (its pieces meet
    disjoint curves), so a single term pair needs no sort."""
    n_f, pieces, memo = plan
    acc: dict[int, int] = {}
    g_terms = g.terms.items() if g is not None else ((0, 1),)
    for mf, cf in f.terms.items():
        for mg, cg in g_terms:
            dots = mf | mg << n_f
            expansion = memo.get(dots)
            if expansion is None:
                expansion = memo[dots] = tuple(sorted(reduce_components(
                    [(outer, (dots & disks).bit_count(), chi)
                     for outer, disks, chi in pieces])))
            for mask, c in expansion:
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    if len(f.terms) == 1 and len(g_terms) == 1:
        return acc
    return {mask: c for mask, c in sorted(acc.items()) if c}


# a side of a factor that carries over unchanged into the output tangle
_KEEP = ()


def _incidences(info: GlueInfo, out: GlueInfo, src_side, tgt_side) -> list[int]:
    """Output curves met by each curve of one factor's glued diagram `info`,
    as one bit mask per curve.

    A side is None when the factor is glued along it, `_KEEP` when it
    carries over unchanged, and otherwise (glued, layer): the output tangle
    on that side is the GluedTangle `glued`, with the factor's tangle there
    as its `layer`.
    """
    table = [0] * len(info)
    for side, arc_curve, circle_curve, out_arc, out_circle in (
            (src_side, info.arc_src_curve, info.circle_src_curve,
             out.arc_src_curve, out.circle_src_curve),
            (tgt_side, info.arc_tgt_curve, info.circle_tgt_curve,
             out.arc_tgt_curve, out.circle_tgt_curve)):
        if side is None:
            continue
        for arc, k in arc_curve.items():
            kind, val = side[0].arc_map[side[1], arc] if side else ("arc", arc)
            table[k] |= 1 << (out_arc[val] if kind == "arc" else out_circle[val])
        for i, k in circle_curve.items():
            table[k] |= 1 << out_circle[side[0].circle_map[side[1], i] if side else i]
    return table


def _compose_plan(src: FlatTangle, mid: FlatTangle, tgt: FlatTangle):
    info_f, info_g, out = glue(src, mid), glue(mid, tgt), glue(src, tgt)
    nf = len(info_f)
    unions = [(info_f.arc_tgt_curve[arc], nf + info_g.arc_src_curve[arc], 1)
              for arc in mid.matching.arcs()]
    unions += [(info_f.circle_tgt_curve[i], nf + info_g.circle_src_curve[i], 0)
               for i in range(mid.circles)]
    return (nf, unions, _incidences(info_f, out, _KEEP, None)
            + _incidences(info_g, out, None, _KEEP))


def _compose_terms(g: CobMorphism, f: CobMorphism):
    """The terms of g after f, as (terms, k): k times the canonical terms of
    a factor when the other is k times an identity, else the canonical
    glued terms with k None."""
    if f.tgt is not g.src and f.tgt != g.src:  # interned: mostly the same object
        raise ValueError("boundary mismatch in composition")
    mid = f.tgt
    if mid.circles == 0:
        # on a circle-free tangle the undotted disks (mask 0) are the identity
        if len(g.terms) == 1 and 0 in g.terms and g.tgt == mid:
            return f.terms, g.terms[0]
        if len(f.terms) == 1 and 0 in f.terms and f.src == mid:
            return g.terms, f.terms[0]
    return _glue_terms(_merged_plan(_compose_plan, f.src, mid, g.tgt), f, g), None


def compose(g: CobMorphism, f: CobMorphism) -> CobMorphism:
    """g after f (vertical gluing along the middle tangle f.tgt == g.src)."""
    terms, k = _compose_terms(g, f)
    if k is not None:
        terms = {m: k * c for m, c in terms.items()}
    return CobMorphism._from_canonical(f.src, g.tgt, terms)


def _stack_plan(f_src: FlatTangle, f_tgt: FlatTangle,
                g_src: FlatTangle, g_tgt: FlatTangle):
    n = f_src.n
    src, tgt = stack_tangles(f_src, g_src), stack_tangles(f_tgt, g_tgt)
    info_f, info_g = glue(f_src, f_tgt), glue(g_src, g_tgt)
    out = glue(src.tangle, tgt.tangle)
    nf = len(info_f)
    # glue at the n middle points: f's bottom point p meets g's top point n+p
    unions = [(info_f.point_curve[p], nf + info_g.point_curve[n + p], 1)
              for p in range(n)]
    return (nf, unions, _incidences(info_f, out, (src, 0), (tgt, 0))
            + _incidences(info_g, out, (src, 1), (tgt, 1)))


def _is_collar(m: CobMorphism) -> bool:
    """m is the identity of the circle-free identity tangle: the undotted
    sheets (mask 0, coefficient 1) on the identity matching."""
    return (m.src._bare_identity and m.tgt == m.src
            and len(m.terms) == 1 and m.terms.get(0) == 1)


def stack(f: CobMorphism, g: CobMorphism) -> CobMorphism:
    """Vertical stacking f (x) g with f on top of g (both in the same Cob_n).

    A collar factor changes nothing: the stacked tangles are the other
    factor's (interned, so the same objects) and so are its glued curves,
    so the other factor itself is returned and no plan is built.
    """
    if f.src.n != g.src.n:
        raise InvariantError("strand-count mismatch in stack")
    if _is_collar(g):
        return f
    if _is_collar(f):
        return g
    plan = _merged_plan(_stack_plan, f.src, f.tgt, g.src, g.tgt)
    return CobMorphism._from_canonical(stack_tangles(f.src, g.src).tangle,
                                       stack_tangles(f.tgt, g.tgt).tangle,
                                       _glue_terms(plan, f, g))


@dataclass(frozen=True, eq=False)
class GluedTangle:
    """A stacked or traced flat tangle, and where the parts of its layers
    went: `arc_map` (the matchings' `Glued.arc_map`) sends (layer, arc) to
    ('arc', arc) or ('circle', i), and `circle_map` sends (layer, circle)
    to a circle index.  Both are read-only views, since results are cached
    and shared.  Circles come in the order: new loops, then the circles of
    each layer from the last (the bottom) up.
    """

    tangle: FlatTangle
    arc_map: MappingProxyType
    circle_map: MappingProxyType

    @classmethod
    def of(cls, info: Glued, *layers: FlatTangle) -> GluedTangle:
        circle_map, k = {}, info.circles
        for layer in reversed(range(len(layers))):
            for i in range(layers[layer].circles):
                circle_map[layer, i], k = k, k + 1
        return cls(FlatTangle(info.result.n, info.result, k), info.arc_map,
                   MappingProxyType(circle_map))


@lru_cache(maxsize=None)
def stack_tangles(top: FlatTangle, bottom: FlatTangle) -> GluedTangle:
    """`top` (layer 0) on `bottom` (layer 1)."""
    return GluedTangle.of(stack_matchings(top.matching, bottom.matching), top, bottom)


def juxtapose(f: CobMorphism, g: CobMorphism) -> CobMorphism:
    """Horizontal disjoint union, f on the left.

    Both factors are relabelled into the curves of the juxtaposed diagram,
    which they share none of, so each term pair is the OR of its masks.
    """
    src, (map_l, map_r) = juxtapose_tangles(f.src, g.src)
    tgt, _ = juxtapose_tangles(f.tgt, g.tgt)
    out = glue(src, tgt)
    offsets = (f.src.circles, f.tgt.circles)
    left = _remap(f, src, tgt, _curve_table(glue(f.src, f.tgt), out, map_l))
    right = _remap(g, src, tgt, _curve_table(glue(g.src, g.tgt), out, map_r,
                                             circle_offsets=offsets))
    return CobMorphism(src, tgt, {mf | mg: cf * cg for mf, cf in left.terms.items()
                                  for mg, cg in right.terms.items()})


@lru_cache(maxsize=None)
def juxtapose_tangles(left: FlatTangle, right: FlatTangle):
    m, maps = juxtapose_matchings(left.matching, right.matching)
    tangle = FlatTangle(left.n + right.n, m, left.circles + right.circles)
    return tangle, (maps["L"], maps["R"])


def _trace_plan(f_src: FlatTangle, f_tgt: FlatTangle):
    n = f_src.n
    src, tgt = trace_tangle(f_src), trace_tangle(f_tgt)
    info = glue(f_src, f_tgt)
    unions = [(info.point_curve[n - 1], info.point_curve[2 * n - 1], 1)]
    return (len(info), unions,
            _incidences(info, glue(src.tangle, tgt.tangle), (src, 0), (tgt, 0)))


def partial_trace(f: CobMorphism) -> CobMorphism:
    """Close the rightmost strand of every tangle and of the cobordism."""
    if f.src.n < 1:
        raise InvariantError("partial trace needs at least one strand")
    plan = _merged_plan(_trace_plan, f.src, f.tgt)
    return CobMorphism._from_canonical(trace_tangle(f.src).tangle,
                                       trace_tangle(f.tgt).tangle, _glue_terms(plan, f))


@lru_cache(maxsize=None)
def trace_tangle(t: FlatTangle) -> GluedTangle:
    """`t` (layer 0) with its rightmost strand closed."""
    return GluedTangle.of(trace_matching(t.matching), t)


# ---------------------------------------------------------------------------
# Relabelling: symmetries and juxtaposition
# ---------------------------------------------------------------------------

def _curve_table(info: GlueInfo, info_out: GlueInfo, point_map=None,
                 swap_sides: bool = False, circle_offsets=(0, 0)) -> list[int]:
    """Where each curve of `info` lands among the curves of `info_out`.

    A point-curve goes to the curve of its boundary points under
    `point_map` (None: unchanged); source and target circles keep their
    index plus `circle_offsets`, and trade sides when `swap_sides`.
    """
    src_curve, tgt_curve = info_out.circle_src_curve, info_out.circle_tgt_curve
    if swap_sides:
        src_curve, tgt_curve = tgt_curve, src_curve
    table = [0] * len(info)
    for p, k in info.point_curve.items():
        table[k] = info_out.point_curve[point_map(p) if point_map else p]
    for i, k in info.circle_src_curve.items():
        table[k] = src_curve[i + circle_offsets[0]]
    for i, k in info.circle_tgt_curve.items():
        table[k] = tgt_curve[i + circle_offsets[1]]
    return table


def _remap(f: CobMorphism, new_src: FlatTangle, new_tgt: FlatTangle,
           curve_table: list[int]) -> CobMorphism:
    """Relabel f's curves by `curve_table`, a one-to-one map of curve indices."""
    return CobMorphism(new_src, new_tgt,
                       {sum(1 << t for i, t in enumerate(curve_table) if m >> i & 1): c
                        for m, c in f.terms.items()})


def reflect(f: CobMorphism) -> CobMorphism:
    """Flip the cobordism upside down: a morphism tgt -> src (same diagrams)."""
    table = _curve_table(glue(f.src, f.tgt), glue(f.tgt, f.src), swap_sides=True)
    return _remap(f, f.tgt, f.src, table)


def flip_tangle(t: FlatTangle) -> FlatTangle:
    return FlatTangle(t.n, t.matching.flip(), t.circles)


def dual(f: CobMorphism) -> CobMorphism:
    """Reflect diagrams about a horizontal axis and flip the cobordism.

    Contravariant: a morphism flip(tgt) -> flip(src).
    """
    n = f.src.n
    src2, tgt2 = flip_tangle(f.tgt), flip_tangle(f.src)
    table = _curve_table(glue(f.src, f.tgt), glue(src2, tgt2),
                         lambda p: p + n if p < n else p - n, swap_sides=True)
    return _remap(f, src2, tgt2, table)


def rotate_tangle(t: FlatTangle) -> FlatTangle:
    return FlatTangle(t.n, t.matching.rotate(), t.circles)


def rotate(f: CobMorphism) -> CobMorphism:
    """Rotate the picture by pi (covariant)."""
    n = f.src.n
    src2, tgt2 = rotate_tangle(f.src), rotate_tangle(f.tgt)
    table = _curve_table(glue(f.src, f.tgt), glue(src2, tgt2),
                         lambda p: 2 * n - 1 - p)
    return _remap(f, src2, tgt2, table)
