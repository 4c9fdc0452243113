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
disks along shared boundary, the `incidences` of disks on output curves),
`_merge` turns it into connected pieces once per tangles, and `_glue_terms`
places each term pair's dots on the pieces and expands them into disks.
Juxtaposition and the symmetries only relabel curves (`_curve_table`,
`_remap`); the identity-like constructors share `CobMorphism._sheets`.

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
from .tl import (InvariantError, Matching, juxtapose_matchings, stack_matchings,
                 trace_matching)


@dataclass(frozen=True, order=True)
class FlatTangle:
    n: int
    matching: Matching
    circles: int = 0

    def __post_init__(self):
        if self.matching.n != self.n or self.circles < 0:
            raise InvariantError(f"bad flat tangle: {self.n} strands, "
                                 f"{self.matching.n}-strand matching, "
                                 f"{self.circles} circles")

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

    def add_circles(self, k: int) -> FlatTangle:
        return FlatTangle(self.n, self.matching, self.circles + k)


@dataclass(frozen=True)
class GradedObject:
    tangle: FlatTangle
    qshift: int

    def shifted(self, j: int) -> GradedObject:
        return GradedObject(self.tangle, self.qshift + j)


@dataclass(frozen=True, slots=True)
class Curve:
    """One closed curve of a glued diagram S u mirror(T)."""

    points: frozenset     # boundary labels (may be empty)
    arcs_src: frozenset   # arcs of the source matching
    arcs_tgt: frozenset   # arcs of the target matching
    ref: tuple            # ('pts', min point) | ('S', i) | ('T', i)


class GlueInfo:
    """Curves of glue(S, T), canonically ordered, with lookup tables.

    Order: point-curves by smallest boundary point, then source circles,
    then target circles.
    """

    __slots__ = ("src", "tgt", "curves", "point_curve", "arc_src_curve",
                 "arc_tgt_curve", "circle_src_curve", "circle_tgt_curve")

    def __init__(self, src: FlatTangle, tgt: FlatTangle):
        if src.n != tgt.n:
            raise InvariantError("boundary mismatch")
        sp, tp = src.matching.pairing, tgt.matching.pairing
        self.src, self.tgt = src, tgt
        self.curves: list[Curve] = []
        self.point_curve, self.arc_src_curve, self.arc_tgt_curve = {}, {}, {}
        for start in range(2 * src.n):
            if start in self.point_curve:
                continue
            idx = len(self.curves)
            arcs_s, arcs_t = [], []
            p = start
            while p not in self.point_curve:
                q = sp[p]
                self.point_curve[p] = self.point_curve[q] = idx
                arcs_s.append(frozenset((p, q)))
                p = tp[q]
                arcs_t.append(frozenset((q, p)))
            self.arc_src_curve.update(dict.fromkeys(arcs_s, idx))
            self.arc_tgt_curve.update(dict.fromkeys(arcs_t, idx))
            self.curves.append(Curve(frozenset().union(*arcs_s), frozenset(arcs_s),
                                     frozenset(arcs_t), ("pts", start)))
        first = len(self.curves)
        self.circle_src_curve = {i: first + i for i in range(src.circles)}
        self.circle_tgt_curve = {i: first + src.circles + i for i in range(tgt.circles)}
        refs = [("S", i) for i in range(src.circles)]
        refs += [("T", i) for i in range(tgt.circles)]
        self.curves += [Curve(frozenset(), frozenset(), frozenset(), ref) for ref in refs]

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


class CobMorphism:
    """Integer combination of canonical dotted-disk cobordisms src -> tgt."""

    __slots__ = ("src", "tgt", "terms")

    def __init__(self, src: FlatTangle, tgt: FlatTangle, terms: dict[int, int]):
        self.src, self.tgt = src, tgt
        self.terms = {m: c for m, c in sorted(terms.items()) if c}
        if len(self.terms) > 1 and len({m.bit_count() for m in self.terms}) > 1:
            raise InvariantError("morphism is not bihomogeneous")

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
    def _sheets(cls, src: FlatTangle, tgt: FlatTangle, dot=None,
                lone: bool | None = None) -> CobMorphism:
        """The identity-like cobordism src -> tgt, built sheet by sheet.

        One sheet per strand curve of glue(src, tgt), one cylinder per circle
        that src and tgt share and, when `lone` is not None, one disk (dotted
        if `lone`) on the last circle of the side that has one more.  `dot`
        puts a dot on the sheet meeting a boundary point, an Arc of src, or
        ('circle', i) for circle i of src.
        """
        info = glue(src, tgt)
        if dot is not None:
            dot = {**info.point_curve, **info.arc_src_curve,
                   **{("circle", i): c for i, c in info.circle_src_curve.items()}}[dot]
        comps = [((idx,), int(idx == dot), 1)
                 for idx, c in enumerate(info.curves) if c.ref[0] == "pts"]
        for i in range(min(src.circles, tgt.circles)):
            pair = tuple(sorted((info.circle_src_curve[i], info.circle_tgt_curve[i])))
            comps.append((pair, int(dot in pair), 0))
        if lone is not None:
            last = (info.circle_src_curve[src.circles - 1]
                    if src.circles > tgt.circles
                    else info.circle_tgt_curve[tgt.circles - 1])
            comps.append(((last,), int(lone), 1))
        return cls.from_components(src, tgt, comps)

    @classmethod
    def identity(cls, t: FlatTangle) -> CobMorphism:
        return cls._sheets(t, t)

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
        return cls._sheets(t, t, dot=where)

    @classmethod
    def cap_circle(cls, src: FlatTangle, dotted: bool) -> CobMorphism:
        """Cap off the last circle of src: a morphism src -> src minus circle."""
        return cls._sheets(src, src.drop_circle(), lone=dotted)

    @classmethod
    def cup_circle(cls, tgt: FlatTangle, dotted: bool) -> CobMorphism:
        """Birth of the last circle of tgt: a morphism tgt minus circle -> tgt."""
        return cls._sheets(tgt.drop_circle(), tgt, lone=dotted)

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


# ---------------------------------------------------------------------------
# The gluing engine
# ---------------------------------------------------------------------------

def _merge(unions, incidences):
    """Connected pieces of a glued surface, before any dots are placed.

    Disk d of the glued factors meets the outer curves incidences[d];
    unions [(a, b, chi_cost)] join disks.  Returns [(outer_curves, disks,
    chi)] with each piece's disks as a bit mask.
    """
    label = list(range(len(incidences)))  # disk -> its piece, per union
    for a, b, _ in unions:
        old, new = label[b], label[a]
        label = [new if x == old else x for x in label]
    groups: dict[int, list[int]] = {}
    for d, root in enumerate(label):
        groups.setdefault(root, []).append(d)
    pieces = []
    for root, disks in groups.items():
        outer = set().union(*(incidences[d] for d in disks))
        # every gluing lies inside one piece and lowers its chi by its cost
        chi = len(disks) - sum(c for a, _, c in unions if label[a] == root)
        pieces.append((tuple(sorted(outer)), sum(1 << d for d in disks), chi))
    return pieces


@lru_cache(maxsize=None)
def _merged_plan(build, *tangles: FlatTangle):
    """Merge the plan `build(*tangles)` = (n_f, unions, incidences) into
    (n_f, pieces); cached per builder and tangles."""
    n_f, unions, incidences = build(*tangles)
    return n_f, tuple(_merge(unions, incidences))


def _glue_terms(plan, f: CobMorphism, g: CobMorphism | None = None) -> dict[int, int]:
    """Glue every term pair of f and g (f alone when g is None) along a
    merged plan; g's disks follow the n_f disks of f."""
    n_f, pieces = plan
    acc: dict[int, int] = {}
    g_terms = g.terms.items() if g is not None else ((0, 1),)
    for mf, cf in f.terms.items():
        for mg, cg in g_terms:
            dots = mf | mg << n_f
            comps = [(outer, (dots & disks).bit_count(), chi)
                     for outer, disks, chi in pieces]
            for mask, c in reduce_components(comps):
                acc[mask] = acc.get(mask, 0) + c * cf * cg
    return acc


# a side of a factor that carries over unchanged into the output tangle
_KEEP = (lambda arc: ("arc", arc), lambda i: i)


def _incidences(info: GlueInfo, out: GlueInfo, src_side, tgt_side) -> list[set[int]]:
    """Output curves met by each curve of one factor's glued diagram `info`.

    A side is None when the factor is glued along it; otherwise it is a pair
    of lookups sending the factor's arcs on that side to ('arc', arc) or
    ('circle', i), and its circles there to circle indices, both in the
    output tangle on the same side.
    """
    table = []
    for c in info.curves:
        inc = set()
        for side, arcs, ref, arc_curve, circle_curve in (
                (src_side, c.arcs_src, "S", out.arc_src_curve, out.circle_src_curve),
                (tgt_side, c.arcs_tgt, "T", out.arc_tgt_curve, out.circle_tgt_curve)):
            if side is None:
                continue
            arc_map, circle_map = side
            for a in arcs:
                kind, val = arc_map(a)
                inc.add(arc_curve[val] if kind == "arc" else circle_curve[val])
            if c.ref[0] == ref:
                inc.add(circle_curve[circle_map(c.ref[1])])
        table.append(inc)
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
    plan = _merged_plan(_compose_plan, f.src, mid, g.tgt)
    return CobMorphism(f.src, g.tgt, _glue_terms(plan, f, g))


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

    def layer(st: StackedTangle, name: str):
        return (lambda a: st.arc_map[(name, a)], lambda i: st.circle_map[(name, i)])

    return (nf, unions,
            _incidences(info_f, out, layer(src, "T"), layer(tgt, "T"))
            + _incidences(info_g, out, layer(src, "B"), layer(tgt, "B")))


def stack(f: CobMorphism, g: CobMorphism) -> CobMorphism:
    """Vertical stacking f (x) g with f on top of g (both in the same Cob_n)."""
    if f.src.n != g.src.n:
        raise InvariantError("strand-count mismatch in stack")
    plan = _merged_plan(_stack_plan, f.src, f.tgt, g.src, g.tgt)
    return CobMorphism(stack_tangles(f.src, g.src).tangle,
                       stack_tangles(f.tgt, g.tgt).tangle,
                       _glue_terms(plan, f, g))


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
    return (len(info), unions, _incidences(info, glue(src.tangle, tgt.tangle),
                                              (src.arc_map.get, src.circle_map.get),
                                              (tgt.arc_map.get, tgt.circle_map.get)))


def partial_trace(f: CobMorphism) -> CobMorphism:
    """Close the rightmost strand of every tangle and of the cobordism."""
    if f.src.n < 1:
        raise InvariantError("partial trace needs at least one strand")
    plan = _merged_plan(_trace_plan, f.src, f.tgt)
    return CobMorphism(trace_tangle(f.src).tangle, trace_tangle(f.tgt).tangle,
                       _glue_terms(plan, f))


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
# Relabelling: symmetries and juxtaposition
# ---------------------------------------------------------------------------

def _curve_table(info: GlueInfo, info_out: GlueInfo, point_map=None,
                 swap_sides: bool = False, circle_offsets=(0, 0)) -> list[int]:
    """Where each curve of `info` lands among the curves of `info_out`.

    A point-curve goes to the curve of its smallest boundary point under
    `point_map` (None: unchanged); source and target circles keep their
    index plus `circle_offsets`, and trade sides when `swap_sides`.
    """
    src_curve, tgt_curve = info_out.circle_src_curve, info_out.circle_tgt_curve
    if swap_sides:
        src_curve, tgt_curve = tgt_curve, src_curve
    table = []
    for c in info.curves:
        kind, i = c.ref
        if kind == "pts":
            table.append(info_out.point_curve[point_map(i) if point_map else i])
        elif kind == "S":
            table.append(src_curve[i + circle_offsets[0]])
        else:
            table.append(tgt_curve[i + circle_offsets[1]])
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
