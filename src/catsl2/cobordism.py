"""Bar-Natan's dotted cobordism category in canonical form.

Objects are flat tangles (a crossingless matching plus transient closed
loops).  A morphism S -> T is an integer combination of canonical basis
cobordisms: disjoint unions of disks, one per closed curve of the glued
diagram S u mirror(T), each disk carrying 0 or 1 dot.  The local relations

    sphere = 0,  dotted sphere = 1,  two dots = 0,
    neck cutting: cylinder = disk(dot) x disk + disk x disk(dot),
    handle = 2 dots,

reduce every composite to this basis, which is what `reduce_components`
implements.  Composition, vertical stacking, horizontal juxtaposition and
partial trace are all instances of one gluing computation: merge disks along
shared pieces of boundary (union-find), track Euler characteristic and dots
per merged component, then expand back into disks.

Only the combinatorics of an embedded surface is tracked (component/curve
incidence, genus, dots).  For composites of the elementary pieces this engine
ever builds, the local relations make that combinatorial model faithful; this
is an explicit modelling assumption, see README.

The q-degree of a cobordism S: q^i T -> q^j T' is n + j - i - chi(S) + 2*dots;
`deg_raw` below is the shift-free part n - chi + 2*dots, so deg = deg_raw
+ j - i, and all stored morphisms are bihomogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .tl import (Matching, juxtapose_matchings, stack_matchings,
                 trace_matching)


@dataclass(frozen=True, order=True)
class FlatTangle:
    n: int
    matching: Matching
    circles: int = 0

    def __post_init__(self):
        assert self.matching.n == self.n
        assert self.circles >= 0

    @classmethod
    def identity(cls, n: int) -> FlatTangle:
        return cls(n, Matching.identity(n))

    @classmethod
    def e(cls, i: int, n: int) -> FlatTangle:
        return cls(n, Matching.e(i, n))

    def drop_circle(self) -> FlatTangle:
        assert self.circles > 0
        return FlatTangle(self.n, self.matching, self.circles - 1)

    def add_circles(self, k: int) -> FlatTangle:
        return FlatTangle(self.n, self.matching, self.circles + k)


@dataclass(frozen=True)
class GradedObject:
    tangle: FlatTangle
    qshift: int

    def shifted(self, j: int) -> GradedObject:
        return GradedObject(self.tangle, self.qshift + j)


class Curve:
    """One closed curve of a glued diagram S u mirror(T)."""

    __slots__ = ("points", "arcs_src", "arcs_tgt", "ref")

    def __init__(self, points, arcs_src, arcs_tgt, ref):
        self.points = points        # frozenset of boundary labels (may be empty)
        self.arcs_src = arcs_src    # frozenset of arcs of the source matching
        self.arcs_tgt = arcs_tgt    # frozenset of arcs of the target matching
        self.ref = ref              # ('pts', min point) | ('S', i) | ('T', i)


class GlueInfo:
    """Curves of glue(S, T), canonically ordered, with lookup tables.

    Order: point-curves by smallest boundary point, then source circles,
    then target circles.
    """

    __slots__ = ("src", "tgt", "curves", "point_curve", "arc_src_curve",
                 "arc_tgt_curve", "circle_src_curve", "circle_tgt_curve")

    def __init__(self, src: FlatTangle, tgt: FlatTangle):
        assert src.n == tgt.n, "boundary mismatch"
        n = src.n
        sp, tp = src.matching.pairing, tgt.matching.pairing
        curves: list[Curve] = []
        seen = [False] * (2 * n)
        for start in range(2 * n):
            if seen[start]:
                continue
            pts, arcs_s, arcs_t = [], [], []
            p = start
            while not seen[p]:
                seen[p] = True
                q = sp[p]
                seen[q] = True
                arcs_s.append(frozenset((p, q)))
                pts.extend((p, q))
                r = tp[q]
                arcs_t.append(frozenset((q, r)))
                p = r
            curves.append(Curve(frozenset(pts), frozenset(arcs_s),
                                frozenset(arcs_t), ("pts", start)))
        for i in range(src.circles):
            curves.append(Curve(frozenset(), frozenset(), frozenset(), ("S", i)))
        for i in range(tgt.circles):
            curves.append(Curve(frozenset(), frozenset(), frozenset(), ("T", i)))

        self.src, self.tgt, self.curves = src, tgt, curves
        self.point_curve = {}
        self.arc_src_curve = {}
        self.arc_tgt_curve = {}
        self.circle_src_curve = {}
        self.circle_tgt_curve = {}
        for idx, c in enumerate(curves):
            for p in c.points:
                self.point_curve[p] = idx
            for a in c.arcs_src:
                self.arc_src_curve[a] = idx
            for a in c.arcs_tgt:
                self.arc_tgt_curve[a] = idx
            if c.ref[0] == "S":
                self.circle_src_curve[c.ref[1]] = idx
            elif c.ref[0] == "T":
                self.circle_tgt_curve[c.ref[1]] = idx

    def __len__(self):
        return len(self.curves)


@lru_cache(maxsize=None)
def glue(src: FlatTangle, tgt: FlatTangle) -> GlueInfo:
    return GlueInfo(src, tgt)


def glue_curves(bottom: FlatTangle, top: FlatTangle) -> list[list[int]]:
    """Curves of bottom u mirror(top), each as its sorted boundary-point set."""
    info = glue(bottom, top)
    return [sorted(c.points) for c in info.curves]


# ---------------------------------------------------------------------------
# Reduction to the disk basis
# ---------------------------------------------------------------------------

def reduce_components(components) -> list[tuple[int, int]]:
    """Expand merged components into canonical dotted disks.

    `components` is a list of (curve_indices, dots, chi) for the connected
    pieces of a glued surface, with curve_indices the sorted tuple of outer
    curves the piece meets.  Returns [(dot_mask, coefficient), ...]; an empty
    list means the whole term vanished.
    """
    factors: list[list[tuple[int, int]]] = []
    for curve_idxs, dots, chi in components:
        b = len(curve_idxs)
        genus2 = 2 - chi - b
        assert genus2 >= 0 and genus2 % 2 == 0, f"bad component chi={chi} b={b}"
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
        full = 0
        for c in curve_idxs:
            full |= 1 << c
        if dots == 1:
            factors.append([(full, coeff)])
        else:
            factors.append([(full & ~(1 << c), coeff) for c in curve_idxs])
    out = [(0, 1)]
    for f in factors:
        out = [(m | m2, c * c2) for m, c in out for m2, c2 in f]
    return out


def _popcount(x: int) -> int:
    return bin(x).count("1")


class CobMorphism:
    """Integer combination of canonical dotted-disk cobordisms src -> tgt."""

    __slots__ = ("src", "tgt", "terms")

    def __init__(self, src: FlatTangle, tgt: FlatTangle, terms: dict[int, int]):
        self.src, self.tgt = src, tgt
        self.terms = {m: c for m, c in sorted(terms.items()) if c}
        if __debug__ and len(self.terms) > 1:
            pops = {_popcount(m) for m in self.terms}
            assert len(pops) == 1, "morphism is not bihomogeneous"

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, src: FlatTangle, tgt: FlatTangle) -> CobMorphism:
        return cls(src, tgt, {})

    @classmethod
    def from_components(cls, src, tgt, components, coeff: int = 1) -> CobMorphism:
        terms: dict[int, int] = {}
        for mask, c in reduce_components(components):
            terms[mask] = terms.get(mask, 0) + c * coeff
        return cls(src, tgt, terms)

    @classmethod
    def identity(cls, t: FlatTangle) -> CobMorphism:
        info = glue(t, t)
        comps = []
        for idx, c in enumerate(info.curves):
            if c.ref[0] == "pts":
                comps.append(((idx,), 0, 1))  # one sheet per strand curve
        for i in range(t.circles):
            comps.append((tuple(sorted((info.circle_src_curve[i],
                                        info.circle_tgt_curve[i]))), 0, 0))
        return cls.from_components(t, t, comps)

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
        info = glue(t, t)
        if isinstance(where, int):
            target = info.point_curve[where]
        elif isinstance(where, frozenset):
            target = info.arc_src_curve[where]
        else:
            target = info.circle_src_curve[where[1]]
        comps = []
        for idx, c in enumerate(info.curves):
            if c.ref[0] == "pts":
                comps.append(((idx,), 1 if idx == target else 0, 1))
        for i in range(t.circles):
            pair = tuple(sorted((info.circle_src_curve[i], info.circle_tgt_curve[i])))
            comps.append((pair, 1 if target in pair else 0, 0))
        return cls.from_components(t, t, comps)

    @classmethod
    def cap_circle(cls, src: FlatTangle, dotted: bool) -> CobMorphism:
        """Cap off the last circle of src: a morphism src -> src minus circle."""
        tgt = src.drop_circle()
        info = glue(src, tgt)
        comps = []
        for idx, c in enumerate(info.curves):
            if c.ref[0] == "pts":
                comps.append(((idx,), 0, 1))
        for i in range(tgt.circles):
            comps.append((tuple(sorted((info.circle_src_curve[i],
                                        info.circle_tgt_curve[i]))), 0, 0))
        comps.append(((info.circle_src_curve[src.circles - 1],),
                      1 if dotted else 0, 1))
        return cls.from_components(src, tgt, comps)

    @classmethod
    def cup_circle(cls, tgt: FlatTangle, dotted: bool) -> CobMorphism:
        """Birth of the last circle of tgt: a morphism tgt minus circle -> tgt."""
        src = tgt.drop_circle()
        info = glue(src, tgt)
        comps = []
        for idx, c in enumerate(info.curves):
            if c.ref[0] == "pts":
                comps.append(((idx,), 0, 1))
        for i in range(src.circles):
            comps.append((tuple(sorted((info.circle_src_curve[i],
                                        info.circle_tgt_curve[i]))), 0, 0))
        comps.append(((info.circle_tgt_curve[tgt.circles - 1],),
                      1 if dotted else 0, 1))
        return cls.from_components(src, tgt, comps)

    # -- linear structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: CobMorphism) -> CobMorphism:
        assert self.src == other.src and self.tgt == other.tgt
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return CobMorphism(self.src, self.tgt, acc)

    def __sub__(self, other: CobMorphism) -> CobMorphism:
        return self + (-other)

    def __neg__(self) -> CobMorphism:
        return CobMorphism(self.src, self.tgt, {m: -c for m, c in self.terms.items()})

    def scale(self, k: int) -> CobMorphism:
        if k == 0:
            return CobMorphism.zero(self.src, self.tgt)
        return CobMorphism(self.src, self.tgt, {m: k * c for m, c in self.terms.items()})

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
        return self.src.n - len(glue(self.src, self.tgt)) + 2 * _popcount(mask)

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


# ---------------------------------------------------------------------------
# The gluing engine
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.extra_chi = [0] * size  # subtracted chi from internal gluings

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int, chi_cost: int):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            self.extra_chi[rx] += chi_cost
        else:
            self.parent[ry] = rx
            self.extra_chi[rx] += self.extra_chi[ry] + chi_cost


def _merge(n_f: int, n_g: int, unions, incidences, dots_f, dots_g):
    """Shared core: disks 0..n_f-1 from the first factor, then n_g more.

    unions: [(a, b, chi_cost)] over combined disk indices.
    incidences: combined disk index -> iterable of outer curve indices.
    Returns components [(outer_curves, dots, chi)].
    """
    total = n_f + n_g
    uf = _UnionFind(total)
    for a, b, cost in unions:
        uf.union(a, b, cost)
    groups: dict[int, list[int]] = {}
    for d in range(total):
        groups.setdefault(uf.find(d), []).append(d)
    comps = []
    for root, disks in groups.items():
        outer: set[int] = set()
        dots = 0
        for d in disks:
            outer.update(incidences[d])
            dots += dots_f[d] if d < n_f else dots_g[d - n_f]
        chi = len(disks) - uf.extra_chi[root]
        comps.append((tuple(sorted(outer)), dots, chi))
    return comps


def compose(g: CobMorphism, f: CobMorphism) -> CobMorphism:
    """g after f (vertical gluing along the middle tangle f.tgt == g.src)."""
    if f.tgt != g.src:
        raise ValueError("boundary mismatch in composition")
    mid = f.tgt
    if mid.circles == 0:
        # on a circle-free tangle the undotted disks (mask 0) are the identity
        if len(g.terms) == 1 and 0 in g.terms and g.tgt == mid:
            return f.scale(g.terms[0])
        if len(f.terms) == 1 and 0 in f.terms and f.src == mid:
            return g.scale(f.terms[0])
    info_f = glue(f.src, mid)
    info_g = glue(mid, g.tgt)
    info_out = glue(f.src, g.tgt)
    nf, ng = len(info_f), len(info_g)

    unions = []
    for arc in mid.matching.arcs():
        unions.append((info_f.arc_tgt_curve[arc],
                       nf + info_g.arc_src_curve[arc], 1))
    for i in range(mid.circles):
        unions.append((info_f.circle_tgt_curve[i],
                       nf + info_g.circle_src_curve[i], 0))

    incidences: list[set[int]] = []
    for c in info_f.curves:
        inc = {info_out.arc_src_curve[a] for a in c.arcs_src}
        if c.ref[0] == "S":
            inc.add(info_out.circle_src_curve[c.ref[1]])
        incidences.append(inc)
    for c in info_g.curves:
        inc = {info_out.arc_tgt_curve[a] for a in c.arcs_tgt}
        if c.ref[0] == "T":
            inc.add(info_out.circle_tgt_curve[c.ref[1]])
        incidences.append(inc)

    acc: dict[int, int] = {}
    for mf, cf in f.terms.items():
        dots_f = [mf >> i & 1 for i in range(nf)]
        for mg, cg in g.terms.items():
            dots_g = [mg >> i & 1 for i in range(ng)]
            comps = _merge(nf, ng, unions, incidences, dots_f, dots_g)
            for mask, c in reduce_components(comps):
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    return CobMorphism(f.src, g.tgt, acc)


def stack(f: CobMorphism, g: CobMorphism) -> CobMorphism:
    """Vertical stacking f (x) g with f on top of g (both in the same Cob_n)."""
    assert f.src.n == g.src.n, "strand-count mismatch"
    n = f.src.n
    src = stack_tangles(f.src, g.src)
    tgt = stack_tangles(f.tgt, g.tgt)
    info_f = glue(f.src, f.tgt)
    info_g = glue(g.src, g.tgt)
    info_out = glue(src.tangle, tgt.tangle)
    nf, ng = len(info_f), len(info_g)

    # glue at the n middle points: f's bottom point p meets g's top point n+p
    unions = [(info_f.point_curve[p], nf + info_g.point_curve[n + p], 1)
              for p in range(n)]

    def out_curve(stacked: "StackedTangle", is_f: bool,
                  which: str, c: Curve) -> set[int]:
        layer = "T" if is_f else "B"
        inc = set()
        arcs = c.arcs_src if which == "S" else c.arcs_tgt
        amap = (info_out.arc_src_curve if which == "S" else info_out.arc_tgt_curve)
        cmap = (info_out.circle_src_curve if which == "S" else info_out.circle_tgt_curve)
        for a in arcs:
            kind, val = stacked.arc_map[(layer, a)]
            inc.add(amap[val] if kind == "arc" else cmap[val])
        if c.ref[0] == "S" and which == "S":
            inc.add(cmap[stacked.circle_map[(layer, c.ref[1])]])
        if c.ref[0] == "T" and which == "T":
            inc.add(cmap[stacked.circle_map[(layer, c.ref[1])]])
        return inc

    incidences = []
    for c in info_f.curves:
        incidences.append(out_curve(src, True, "S", c) | out_curve(tgt, True, "T", c))
    for c in info_g.curves:
        incidences.append(out_curve(src, False, "S", c) | out_curve(tgt, False, "T", c))

    acc: dict[int, int] = {}
    for mf, cf in f.terms.items():
        dots_f = [mf >> i & 1 for i in range(nf)]
        for mg, cg in g.terms.items():
            dots_g = [mg >> i & 1 for i in range(ng)]
            comps = _merge(nf, ng, unions, incidences, dots_f, dots_g)
            for mask, c in reduce_components(comps):
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    return CobMorphism(src.tangle, tgt.tangle, acc)


@dataclass(frozen=True, eq=False)
class StackedTangle:
    """A stacked flat tangle plus provenance of its arcs and circles.

    arc_map: ('T'|'B', constituent arc) -> ('arc', arc) | ('circle', idx)
    circle_map: ('T'|'B', old circle idx) -> new circle idx
    """

    tangle: FlatTangle
    arc_map: dict
    circle_map: dict


@lru_cache(maxsize=None)
def stack_tangles(top: FlatTangle, bottom: FlatTangle) -> StackedTangle:
    info = stack_matchings(top.matching, bottom.matching)
    new_mid = info.circles
    circle_map = {}
    for i in range(bottom.circles):
        circle_map[("B", i)] = new_mid + i
    for i in range(top.circles):
        circle_map[("T", i)] = new_mid + bottom.circles + i
    tangle = FlatTangle(top.n, info.result, new_mid + bottom.circles + top.circles)
    return StackedTangle(tangle, dict(info.arc_map), circle_map)


def juxtapose(f: CobMorphism, g: CobMorphism) -> CobMorphism:
    """Horizontal disjoint union, f on the left."""
    src, lmaps = juxtapose_tangles(f.src, g.src)
    tgt, _ = juxtapose_tangles(f.tgt, g.tgt)
    info_f = glue(f.src, f.tgt)
    info_g = glue(g.src, g.tgt)
    info_out = glue(src, tgt)
    map_l, map_r = lmaps

    def translate(info: GlueInfo, point_map, circle_off: int):
        table = []
        for c in info.curves:
            if c.ref[0] == "pts":
                table.append(info_out.point_curve[point_map(c.ref[1])])
            elif c.ref[0] == "S":
                table.append(info_out.circle_src_curve[c.ref[1] + circle_off[0]])
            else:
                table.append(info_out.circle_tgt_curve[c.ref[1] + circle_off[1]])
        return table

    tf = translate(info_f, map_l, (0, 0))
    tg = translate(info_g, map_r, (f.src.circles, f.tgt.circles))

    acc: dict[int, int] = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            mask = 0
            for i in range(len(info_f)):
                if mf >> i & 1:
                    mask |= 1 << tf[i]
            for i in range(len(info_g)):
                if mg >> i & 1:
                    mask |= 1 << tg[i]
            acc[mask] = acc.get(mask, 0) + cf * cg
    return CobMorphism(src, tgt, acc)


@lru_cache(maxsize=None)
def juxtapose_tangles(left: FlatTangle, right: FlatTangle):
    m, maps = juxtapose_matchings(left.matching, right.matching)
    tangle = FlatTangle(left.n + right.n, m, left.circles + right.circles)
    return tangle, (maps["L"], maps["R"])


def partial_trace(f: CobMorphism) -> CobMorphism:
    """Close the rightmost strand of every tangle and of the cobordism."""
    n = f.src.n
    assert n >= 1
    src = trace_tangle(f.src)
    tgt = trace_tangle(f.tgt)
    info_f = glue(f.src, f.tgt)
    info_out = glue(src.tangle, tgt.tangle)
    nf = len(info_f)
    unions = [(info_f.point_curve[n - 1], info_f.point_curve[2 * n - 1], 1)]

    def mapped(tinfo: TracedTangle, arc, which: str) -> int:
        kind, val = tinfo.arc_map[arc]
        if kind == "arc":
            return (info_out.arc_src_curve if which == "S"
                    else info_out.arc_tgt_curve)[val]
        return (info_out.circle_src_curve if which == "S"
                else info_out.circle_tgt_curve)[val]

    incidences = []
    for c in info_f.curves:
        inc = set()
        for a in c.arcs_src:
            inc.add(mapped(src, a, "S"))
        for a in c.arcs_tgt:
            inc.add(mapped(tgt, a, "T"))
        if c.ref[0] == "S":
            inc.add(info_out.circle_src_curve[src.circle_map[c.ref[1]]])
        elif c.ref[0] == "T":
            inc.add(info_out.circle_tgt_curve[tgt.circle_map[c.ref[1]]])
        incidences.append(inc)

    acc: dict[int, int] = {}
    for mf, cf in f.terms.items():
        dots_f = [mf >> i & 1 for i in range(nf)]
        comps = _merge(nf, 0, unions, incidences, dots_f, [])
        for mask, c in reduce_components(comps):
            acc[mask] = acc.get(mask, 0) + c * cf
    return CobMorphism(src.tangle, tgt.tangle, acc)


@dataclass(frozen=True, eq=False)
class TracedTangle:
    tangle: FlatTangle
    arc_map: dict      # old arc -> ('arc', new arc) | ('circle', new idx)
    circle_map: dict   # old circle idx -> new circle idx


@lru_cache(maxsize=None)
def trace_tangle(t: FlatTangle) -> TracedTangle:
    info = trace_matching(t.matching)
    extra = 1 if info.closed_circle else 0
    arc_map = dict(info.arc_map)  # new circle, if any, already has index 0
    circle_map = {i: extra + i for i in range(t.circles)}
    tangle = FlatTangle(t.n - 1, info.result, t.circles + extra)
    return TracedTangle(tangle, arc_map, circle_map)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

def _remap(f: CobMorphism, new_src: FlatTangle, new_tgt: FlatTangle,
           curve_table: list[int]) -> CobMorphism:
    terms = {}
    for m, c in f.terms.items():
        mask = 0
        for i in range(len(curve_table)):
            if m >> i & 1:
                mask |= 1 << curve_table[i]
        terms[mask] = terms.get(mask, 0) + c
    return CobMorphism(new_src, new_tgt, terms)


def reflect(f: CobMorphism) -> CobMorphism:
    """Flip the cobordism upside down: a morphism tgt -> src (same diagrams)."""
    info = glue(f.src, f.tgt)
    info_out = glue(f.tgt, f.src)
    table = []
    for c in info.curves:
        if c.ref[0] == "pts":
            table.append(info_out.point_curve[c.ref[1]])
        elif c.ref[0] == "S":
            table.append(info_out.circle_tgt_curve[c.ref[1]])
        else:
            table.append(info_out.circle_src_curve[c.ref[1]])
    return _remap(f, f.tgt, f.src, table)


def flip_tangle(t: FlatTangle) -> FlatTangle:
    return FlatTangle(t.n, t.matching.flip(), t.circles)


def dual(f: CobMorphism) -> CobMorphism:
    """Reflect diagrams about a horizontal axis and flip the cobordism.

    Contravariant: a morphism flip(tgt) -> flip(src).
    """
    n = f.src.n
    phi = lambda p: p + n if p < n else p - n
    src2, tgt2 = flip_tangle(f.tgt), flip_tangle(f.src)
    info = glue(f.src, f.tgt)
    info_out = glue(src2, tgt2)
    table = []
    for c in info.curves:
        if c.ref[0] == "pts":
            table.append(info_out.point_curve[phi(c.ref[1])])
        elif c.ref[0] == "S":
            table.append(info_out.circle_tgt_curve[c.ref[1]])
        else:
            table.append(info_out.circle_src_curve[c.ref[1]])
    return _remap(f, src2, tgt2, table)


def rotate_tangle(t: FlatTangle) -> FlatTangle:
    return FlatTangle(t.n, t.matching.rotate(), t.circles)


def rotate(f: CobMorphism) -> CobMorphism:
    """Rotate the picture by pi (covariant)."""
    n = f.src.n
    rho = lambda p: 2 * n - 1 - p
    src2, tgt2 = rotate_tangle(f.src), rotate_tangle(f.tgt)
    info = glue(f.src, f.tgt)
    info_out = glue(src2, tgt2)
    table = []
    for c in info.curves:
        if c.ref[0] == "pts":
            table.append(info_out.point_curve[rho(c.ref[1])])
        elif c.ref[0] == "S":
            table.append(info_out.circle_src_curve[c.ref[1]])
        else:
            table.append(info_out.circle_tgt_curve[c.ref[1]])
    return _remap(f, src2, tgt2, table)
