"""Bar-Natan's dotted cobordism category in canonical form.

Objects are flat tangles (a crossingless matching plus transient closed
loops).  A morphism S -> T is an integer combination of canonical basis
cobordisms: disjoint unions of disks, one per closed curve of the glued
diagram S u mirror(T), each disk carrying 0 or 1 dot.  The local relations

    sphere = 0,  dotted sphere = 1,  two dots = 0,
    neck cutting: cylinder = disk(dot) x disk + disk x disk(dot),
    handle = 2 dots,

reduce every composite to this basis, which is what `reduce_components`
implements.  Curves and provenance are int lists indexed by port (a
tangle's boundary points 0..2n-1, then its circles): `glue(S, T)` gives the
curve of each port of S and of T, and a stacked or traced `GluedTangle`
gives the port each layer point lands on, both from the one strand walker
`tl.follow`.  Composition, vertical stacking and partial trace each build
their connected pieces in one walk over the factor points (`_walk`; factor
circles are pieces of their own), once per tangles, and `_glue_terms`
places each term pair's dots on the pieces and expands them through
`_expand`, one cache shared by every plan, memoized per plan by the pair's
combined dot mask.  A stack against a collar, the identity of the
circle-free identity tangle, is the other factor and builds no plan.
Juxtaposition and the dual only relabel curves (`_curve_table`,
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
from typing import NamedTuple

from .tl import (Glued, InvariantError, Matching, follow, interned,
                 juxtapose_matchings, stack_matchings, trace_matching)


@dataclass(frozen=True, order=True, init=False)
class FlatTangle:
    """A matching plus `circles` closed loops; interned like `Matching`
    (one live instance per value, checked when built, with equality and
    hashing by identity and order by the fields).  `_bare_identity` marks
    the circle-free identity tangle, found once per instance."""

    n: int
    matching: Matching
    circles: int = 0
    _bare_identity: bool = field(repr=False, compare=False)
    __eq__ = object.__eq__  # one live instance per value
    __hash__ = object.__hash__

    def __new__(cls, n: int, matching: Matching, circles: int = 0) -> FlatTangle:
        return _flat_tangle(n, matching, circles)

    def __reduce__(self):  # copies and unpickled values are the live instance
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


@interned
def _flat_tangle(n: int, matching: Matching, circles: int) -> FlatTangle:
    """A new FlatTangle(n, matching, circles), checked."""
    if matching.n != n or circles < 0:
        raise InvariantError(f"bad flat tangle: {n} strands, "
                             f"{matching.n}-strand matching, {circles} circles")
    t = object.__new__(FlatTangle)
    # frozen; setting attributes one by one keeps the compact shared-key dict
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "matching", matching)
    object.__setattr__(t, "circles", circles)
    object.__setattr__(t, "_bare_identity", circles == 0 and all(
        q == (p + n) % (2 * n) for p, q in enumerate(matching.pairing)))
    return t


class GradedObject(NamedTuple):
    tangle: FlatTangle
    qshift: int


class GlueInfo:
    """Curves of glue(S, T), canonically ordered, as one int list per side.

    The ports of a flat tangle are its boundary points 0..2n-1, then its
    circles.  `src[i]` is the curve through port i of S and `tgt[j]` the
    curve through port j of T, so a point has the same curve on both sides.
    Order: point-curves by smallest boundary point (the loops of `follow`
    started from each source point in turn), then source circles, then
    target circles.
    """

    __slots__ = ("n", "src", "tgt", "size")

    def __init__(self, src: FlatTangle, tgt: FlatTangle):
        if src.n != tgt.n:
            raise InvariantError("boundary mismatch")
        m = 2 * src.n
        # source point p (layer 0) meets target point p (layer 1); with no
        # ends, the port a point lands on is its loop
        _, loops, lands = follow((src.matching.pairing, tgt.matching.pairing),
                                 [(p, m + p) for p in range(m)], (), range(m))
        points, cs = list(lands[:m]), loops + src.circles
        self.n, self.size = src.n, cs + tgt.circles
        self.src = points + list(range(loops, cs))
        self.tgt = points + list(range(cs, self.size))

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

        `where` is a boundary point, an Arc of the matching (the sheet of
        either end), or ('circle', i) referring to a circle of t (the dot
        lands on the source-side sheet).
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
        if self.src is not other.src or self.tgt is not other.tgt:
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
        return (self.src is other.src and self.tgt is other.tgt
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
        return (self.src is self.tgt and len(self.terms) == 1
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
    info, m = glue(src, tgt), 2 * src.n
    if dot is not None:  # the port it names: an Arc names its smaller end
        ports = {**{p: p for p in range(m)}, **{a: min(a) for a in src.matching.arcs()},
                 **{("circle", i): m + i for i in range(src.circles)}}
        if dot not in ports:
            raise ValueError(f"{dot!r} is no point, arc or circle of {src}")
        dot = info.src[ports[dot]]
    comps = [(1 << idx, int(idx == dot), 1)
             for idx in range(len(info) - src.circles - tgt.circles)]
    for a, b in zip(info.src[m:], info.tgt[m:]):
        comps.append((1 << a | 1 << b, int(dot in (a, b)), 0))
    if lone is not None:
        last = info.src[-1] if src.circles > tgt.circles else info.tgt[-1]
        comps.append((1 << last, int(lone), 1))
    # the components meet disjoint curves, so no two products share a mask
    return CobMorphism(src, tgt, dict(_expand(tuple(comps))))


# ---------------------------------------------------------------------------
# The gluing engine
# ---------------------------------------------------------------------------

def _walk(src, tgt, joins, disk, outer) -> list[tuple[int, int, int]]:
    """The connected pieces [(outer, disks, chi)] of a glued surface, in one
    walk over the points of its factors.  The pairings `src` and `tgt` are
    the arcs of the factors' sides, and `joins` pairs the points glued
    together (an unglued point is its own pair), one arc join per pair.
    Point x lies on the disks in the bit mask disk[x] and meets the output
    curves in the mask outer[x]; a piece ORs them, and chi = disks - joins.
    """
    seen = [False] * len(disk)
    pieces = []
    for start in range(len(disk)):
        if seen[start]:
            continue
        seen[start] = True
        todo, curves, disks, joined = [start], 0, 0, 0
        for x in todo:  # grows while the walk finds points
            curves |= outer[x]
            disks |= disk[x]
            y = src[x]
            if not seen[y]:
                seen[y] = True
                todo.append(y)
            y = tgt[x]
            if not seen[y]:
                seen[y] = True
                todo.append(y)
            y = joins[x]
            if y != x:
                joined += 1
                if not seen[y]:
                    seen[y] = True
                    todo.append(y)
        pieces.append((curves, disks, disks.bit_count() - joined // 2))
    return pieces


def _circles(m, *sides):
    """The factors' circles, each a piece alone: on a side (ports, shift,
    out, base), circle i is port m + i of a factor's GlueInfo side `ports`,
    its disk follows `shift` earlier disks, and it meets out[base + i]."""
    return [(1 << out[base + i], 1 << shift + k, 1)
            for ports, shift, out, base in sides for i, k in enumerate(ports[m:])]


@lru_cache(maxsize=None)
def _merged_plan(build, *tangles: FlatTangle):
    """(n_f, pieces, memo) for the plan build(*tangles) = (n_f, pieces),
    cached per builder and tangles.  `memo`, filled by `_glue_terms`, maps
    the combined dot mask of a term pair to its expansion; it lives in this
    cache entry and is cleared with it."""
    return (*build(*tangles), {})


@lru_cache(maxsize=None)
def _expand(components: tuple) -> tuple[tuple[int, int], ...]:
    """reduce_components of (outer, dots, chi) pieces, sorted; one cache for
    every plan and `_sheets`, since many plans meet the same dotted pieces."""
    return tuple(sorted(reduce_components(components)))


def _glue_terms(plan, f: CobMorphism, g: CobMorphism | None = None) -> dict[int, int]:
    """Glue every term pair of f and g (f alone when g is None) along a
    merged plan; g's disks follow the n_f disks of f.  The terms come back
    canonical (masks in order, no zero coefficient): a glued product of
    bihomogeneous factors is bihomogeneous, so `_from_canonical` wraps them.
    Each expansion is sorted and zero-free, so a single term pair needs no
    sort."""
    n_f, pieces, memo = plan
    acc: dict[int, int] = {}
    g_terms = g.terms.items() if g is not None else ((0, 1),)
    for mf, cf in f.terms.items():
        for mg, cg in g_terms:
            dots = mf | mg << n_f
            expansion = memo.get(dots)
            if expansion is None:
                expansion = memo[dots] = _expand(tuple(
                    [(outer, (dots & disks).bit_count(), chi)
                     for outer, disks, chi in pieces]))
            for mask, c in expansion:
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    if len(f.terms) == 1 and len(g_terms) == 1:
        return acc
    return {mask: c for mask, c in sorted(acc.items()) if c}


def _compose_plan(src: FlatTangle, mid: FlatTangle, tgt: FlatTangle):
    """f: src -> mid under g: mid -> tgt, glued along mid's arcs; each of
    mid's circles caps a disk of each factor off into a sphere."""
    f, g, out = glue(src, mid), glue(mid, tgt), glue(src, tgt)
    m, nf = 2 * src.n, len(f)
    pieces = _walk(src.matching.pairing, tgt.matching.pairing, mid.matching.pairing,
                   [1 << a | 1 << nf + b for a, b in zip(f.src[:m], g.src[:m])],
                   [1 << k for k in out.src[:m]])
    if src.circles + mid.circles + tgt.circles:
        pieces += _circles(m, (f.src, 0, out.src, m), (g.tgt, nf, out.tgt, m))
        pieces += [(0, 1 << a | 1 << nf + b, 2) for a, b in zip(f.tgt[m:], g.src[m:])]
    return nf, pieces


def _compose_terms(g: CobMorphism, f: CobMorphism):
    """The terms of g after f, as (terms, k): k times the canonical terms of
    a factor when the other is k times an identity, else the canonical
    glued terms with k None."""
    if f.tgt is not g.src:
        raise ValueError("boundary mismatch in composition")
    mid = f.tgt
    if mid.circles == 0:
        # on a circle-free tangle the undotted disks (mask 0) are the identity
        if len(g.terms) == 1 and 0 in g.terms and g.tgt is mid:
            return f.terms, g.terms[0]
        if len(f.terms) == 1 and 0 in f.terms and f.src is mid:
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
    """f (layer 0) on top of g (layer 1): f's bottom point p meets g's top
    point n + p, and a point meets the output curves its sides land on."""
    n, m = f_src.n, 2 * f_src.n
    src, tgt = stack_tangles(f_src, g_src), stack_tangles(f_tgt, g_tgt)
    f, g = glue(f_src, f_tgt), glue(g_src, g_tgt)
    out = glue(src.tangle, tgt.tangle)
    nf = len(f)
    pieces = _walk(
        [*f_src.matching.pairing, *[m + q for q in g_src.matching.pairing]],
        [*f_tgt.matching.pairing, *[m + q for q in g_tgt.matching.pairing]],
        [*range(m + n, 2 * m), *range(n, m + n), *range(n)],
        [1 << k for k in f.src[:m]] + [1 << nf + k for k in g.src[:m]],
        [1 << out.src[a] | 1 << out.tgt[b] for a, b in zip(src.lands, tgt.lands)])
    if f_src.circles + f_tgt.circles + g_src.circles + g_tgt.circles:
        pieces += _circles(m, (f.src, 0, out.src, src.circle_base[0]),
                           (f.tgt, 0, out.tgt, tgt.circle_base[0]),
                           (g.src, nf, out.src, src.circle_base[1]),
                           (g.tgt, nf, out.tgt, tgt.circle_base[1]))
    return nf, pieces


def _is_collar(m: CobMorphism) -> bool:
    """m is the identity of the circle-free identity tangle: the undotted
    sheets (mask 0, coefficient 1) on the identity matching."""
    return (m.src._bare_identity and m.tgt is m.src
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
    """A stacked or traced flat tangle, and where the ports of its layers
    went: `lands` (the matchings' `Glued.lands`) gives the port of `tangle`
    that each layer point lands on, and circle i of layer l lands on port
    circle_base[l] + i; circles come as new loops, then each layer's from
    the last (the bottom) up.  Tuples, since results are cached and shared.
    """

    tangle: FlatTangle
    lands: tuple[int, ...]
    circle_base: tuple[int, ...]

    @classmethod
    def of(cls, info: Glued, *layers: FlatTangle) -> GluedTangle:
        base, k = [0] * len(layers), info.circles
        for layer in reversed(range(len(layers))):
            base[layer], k = 2 * info.result.n + k, k + layers[layer].circles
        return cls(FlatTangle(info.result.n, info.result, k), info.lands, tuple(base))


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
    """f with its rightmost strand closed: point n-1 meets point 2n-1."""
    n, m = f_src.n, 2 * f_src.n
    src, tgt = trace_tangle(f_src), trace_tangle(f_tgt)
    info, out = glue(f_src, f_tgt), glue(src.tangle, tgt.tangle)
    closing = [*range(n - 1), m - 1, *range(n, m - 1), n - 1]
    pieces = _walk(f_src.matching.pairing, f_tgt.matching.pairing, closing,
                   [1 << k for k in info.src[:m]],
                   [1 << out.src[a] | 1 << out.tgt[b] for a, b in zip(src.lands, tgt.lands)])
    if f_src.circles + f_tgt.circles:
        pieces += _circles(m, (info.src, 0, out.src, src.circle_base[0]),
                           (info.tgt, 0, out.tgt, tgt.circle_base[0]))
    return len(info), pieces


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
# Relabelling: the dual and juxtaposition
# ---------------------------------------------------------------------------

def _curve_table(info: GlueInfo, info_out: GlueInfo, point_map=None,
                 swap_sides: bool = False, circle_offsets=(0, 0)) -> list[int]:
    """Where each curve of `info` lands among the curves of `info_out`.

    A point-curve goes to the curve of its boundary points under
    `point_map` (None: unchanged); source and target circles keep their
    index plus `circle_offsets`, and trade sides when `swap_sides`.
    """
    m, shift = 2 * info.n, 2 * info_out.n - 2 * info.n
    sides = (info_out.tgt, info_out.src) if swap_sides else (info_out.src, info_out.tgt)
    table = [0] * len(info)
    for ports, out, offset in zip((info.src, info.tgt), sides, circle_offsets):
        for p, k in enumerate(ports):  # points twice: both sides agree on them
            table[k] = out[(point_map(p) if point_map else p) if p < m else p + shift + offset]
    return table


def _remap(f: CobMorphism, new_src: FlatTangle, new_tgt: FlatTangle,
           curve_table: list[int]) -> CobMorphism:
    """Relabel f's curves by `curve_table`, a one-to-one map of curve indices."""
    return CobMorphism(new_src, new_tgt,
                       {sum(1 << t for i, t in enumerate(curve_table) if m >> i & 1): c
                        for m, c in f.terms.items()})


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
