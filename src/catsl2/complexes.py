"""Chain complexes over the additive closure of the dotted cobordism category.

A Complex stores, per homological degree, an ordered list of GradedObjects
and a sparse differential matrix of CobMorphisms.  Shift conventions: the
upward shift t flips the sign of the differential, and tensor differentials
follow the Koszul rule d(a x b) = d(a) x b + (-1)^deg(a) a x d(b).

Everything here returns new complexes; their dicts are left unchanged by
convention.  The terms of their morphisms cannot be changed at all:
`CobMorphism.terms` is a read-only view, which is what lets complexes share
the cached identity-like morphisms.

Integer matrices over the dotted-disk basis (HOM complexes, the maps that
chain maps induce on them, the convolution solver's systems) are lists of
sparse rows, dicts from column to entry; they take their labels from
`_hom_basis` and their columns from `_hom_columns`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import groupby, product

from .cobordism import (CobMorphism, FlatTangle, GradedObject, InvariantError,
                        _compose_terms, dual as dual_morphism, glue,
                        juxtapose as juxtapose_morphism, juxtapose_tangles,
                        partial_trace as trace_morphism, flip_tangle, stack,
                        stack_tangles, trace_tangle)


class EngineLimitError(RuntimeError):
    """Object-count ceiling exceeded (see QPE_MAX_OBJECTS)."""


def object_ceiling() -> int:
    return int(os.environ.get("QPE_MAX_OBJECTS", "200000"))


def _check_ceiling(stage: str, h: int | None, count: int, ceiling: int) -> None:
    """Stop `stage` once it holds more than `ceiling` objects at degree h
    (in all, for h None), saying so on one line."""
    if count > ceiling:
        at = "" if h is None else f" at degree {h}"
        raise EngineLimitError(f"{stage} exceeded object ceiling{at} "
                               f"with {count} objects")


def _json_int(value, name: str) -> int:
    """An integer input field; a bool, float or string raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name}: expected an integer, got {value!r}")


class Complex:
    __slots__ = ("n", "objects", "diff")

    def __init__(self, n: int, objects: dict[int, list[GradedObject]],
                 diff: dict[int, dict[tuple[int, int], CobMorphism]]):
        self.n = n
        self.objects = {h: list(objs) for h, objs in sorted(objects.items()) if objs}
        self.diff = {}
        for h, entries in sorted(diff.items()):
            kept = {k: m for k, m in entries.items() if not m.is_zero()}
            if kept and h in self.objects and h + 1 in self.objects:
                self.diff[h] = kept

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_object(cls, obj: GradedObject, n: int, h: int = 0) -> Complex:
        return cls(n, {h: [obj]}, {})

    @classmethod
    def identity_complex(cls, n: int, qshift: int = 0) -> Complex:
        return cls.from_object(GradedObject(FlatTangle.identity(n), qshift), n)

    @classmethod
    def generator_complex(cls, i: int, n: int, qshift: int = 0) -> Complex:
        return cls.from_object(GradedObject(FlatTangle.e(i, n), qshift), n)

    @classmethod
    def empty_diagram(cls) -> Complex:
        return cls.identity_complex(0)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.objects

    def h_min(self) -> int:
        return min(self.objects) if self.objects else 0

    def h_max(self) -> int:
        return max(self.objects) if self.objects else 0

    def total_objects(self) -> int:
        return sum(len(o) for o in self.objects.values())

    def graded_ranks(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for h, objs in self.objects.items():
            for o in objs:
                out[(h, o.qshift)] = out.get((h, o.qshift), 0) + 1
        return out

    def check(self) -> None:
        """Validate entry endpoints and degrees, and d^2 = 0."""
        differential_map(self).check_degrees()
        for h, entries in _block_terms((self.diff, self.diff, 1, 1)).items():
            key, (src, tgt, terms) = next(iter(entries.items()))
            raise InvariantError(f"d^2 != 0 at h={h} {key}: "
                                 f"{CobMorphism(src, tgt, terms)}")

    def truncate_below(self, h_cut: int) -> Complex:
        """Brutal truncation keeping degrees >= h_cut (d^2 = 0 is preserved)."""
        objects = {h: objs for h, objs in self.objects.items() if h >= h_cut}
        diff = {h: dict(entries) for h, entries in self.diff.items() if h >= h_cut}
        return Complex(self.n, objects, diff)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degrees": [{"h": h, "objects": [{"matching": list(o.tangle.matching.pairing),
                                              "circles": o.tangle.circles,
                                              "qshift": o.qshift}
                                             for o in objs]}
                        for h, objs in self.objects.items()],
            "differential": [{"h": h, "entries": [{"row": i, "col": j,
                                                   "morphism": m.to_json()}
                                                  for (i, j), m in sorted(entries.items())]}
                             for h, entries in self.diff.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> Complex:
        """Read `to_json` output.  Non-integer n, h, qshift, circles, matching,
        row, col, dots or coeff, a degree listed twice, and entries that cannot be a differential's
        (indices out of range, no degree h+1, dots off the glued diagram,
        wrong degree) raise ValueError."""
        from .tl import Matching
        n = _json_int(data["n"], "n")
        objects = {}
        for row in data["degrees"]:
            h = _json_int(row["h"], "degree h")
            if h in objects:
                raise ValueError(f"degree h={h} is listed twice")
            objs = []
            for o in row["objects"]:
                circles = _json_int(o.get("circles", 0), "circles")
                if circles < 0:
                    raise ValueError("circles must be >= 0")
                pairing = tuple(_json_int(p, "matching") for p in o["matching"])
                tangle = FlatTangle(n, Matching(n, pairing), circles)
                objs.append(GradedObject(tangle, _json_int(o["qshift"], "qshift")))
            objects[h] = objs
        diff: dict[int, dict[tuple[int, int], CobMorphism]] = {}
        for row in data.get("differential", []):
            h = _json_int(row["h"], "differential h")
            if h in diff:
                raise ValueError(f"differential at h={h} is listed twice")
            if h not in objects or h + 1 not in objects:
                raise ValueError(f"differential at h={h} needs objects at h={h} "
                                 f"and h={h + 1}")
            entries = {}
            for e in row["entries"]:
                i, j = _json_int(e["row"], "row"), _json_int(e["col"], "col")
                if not (0 <= j < len(objects[h]) and 0 <= i < len(objects[h + 1])):
                    raise ValueError(f"entry ({i},{j}) at h={h} is out of range")
                src, tgt = objects[h][j], objects[h + 1][i]
                curves = len(glue(src.tangle, tgt.tangle))
                terms = {}
                for t in e["morphism"]["terms"]:
                    dots = {_json_int(c, "dots") for c in t["dots"]}
                    if not all(0 <= c < curves for c in dots):
                        raise ValueError(f"entry ({i},{j}) at h={h}: a dot is off "
                                         f"the {curves} curves of the glued diagram")
                    if n - curves + 2 * len(dots) != src.qshift - tgt.qshift:
                        raise ValueError(f"entry ({i},{j}) at h={h} has the wrong degree")
                    terms[sum(1 << c for c in dots)] = _json_int(t["coeff"], "coeff")
                entries[(i, j)] = CobMorphism(src.tangle, tgt.tangle, terms)
            diff[h] = entries
        return cls(n, objects, diff)


# ---------------------------------------------------------------------------
# Block matrices: one layout, one product
# ---------------------------------------------------------------------------

def _lines(block: dict, by_row: bool = False) -> dict[int, dict]:
    """Block entries {h: {(i, j): m}} grouped by column, {h: {j: {i: m}}},
    or by row, {h: {i: {j: m}}}; each line keeps the entry order."""
    out: dict[int, dict] = {}
    for h, entries in block.items():
        lines = out[h] = {}
        for (i, j), m in entries.items():
            a, b = (i, j) if by_row else (j, i)
            lines.setdefault(a, {})[b] = m
    return out


def _add_terms(acc: dict[int, int], g: CobMorphism, f: CobMorphism, k: int) -> dict:
    """acc += k (g o f), off `_compose_terms`; zero coefficients may stay."""
    terms, k2 = _compose_terms(g, f)
    k = k if k2 is None else k * k2
    for mask, c in terms.items():
        acc[mask] = acc.get(mask, 0) + k * c
    return acc


def _block_terms(*products) -> dict:
    """Sum products k (g o f) of sparse blocks {h: {(i, j): m}}, each given
    as (g, f, f_dh, k) with f out of degree h and g out of h + f_dh, into
    term sums {h: {(i, j): (src, tgt, terms)}} keyed by f's degrees; callers
    build morphisms only from the entries they keep.  g is grouped by source
    column once, so each entry of f meets only the entries of g it composes
    with.  An entry is dropped as soon as its terms cancel, so one that a
    later composite revives comes last, as when summing morphisms."""
    out: dict[int, dict] = {}
    for g, f, f_dh, k in products:
        g_cols = _lines(g)
        for h, entries in f.items():
            cols, slot = g_cols.get(h + f_dh, {}), out.setdefault(h, {})
            for (i, j), m in entries.items():
                for row, m2 in cols.get(i, {}).items():
                    entry = slot.setdefault((row, j), (m.src, m2.tgt, {}))
                    if not any(_add_terms(entry[2], m2, m, k).values()):
                        del slot[(row, j)]
    return {h: slot for h, slot in out.items() if slot}


def _assemble(n: int, parts: list[tuple[Complex, int, int]], blocks=()) -> tuple[Complex, dict]:
    """The direct sum of `parts`, each (complex, dh, dq) at t^dh q^dq, plus
    off-diagonal blocks in its differential; degrees are the sum's.

    Objects are placed degree by degree, in part order and then in index
    order; at[(p, h)] is where part p's objects at degree h start.  The
    differential is each part's own times (-1)^dh (shared when dh is even)
    plus every block (k2, k1, components), whose components[h][(i, j)] go
    from object j at degree h of part k1 to object i at h + 1 of part k2.
    """
    objects: dict[int, list[GradedObject]] = {}
    at: dict[tuple[int, int], int] = {}
    for p, (part, dh, dq) in enumerate(parts):
        for h, objs in part.objects.items():
            lst = objects.setdefault(h + dh, [])
            at[(p, h + dh)] = len(lst)
            lst += [GradedObject(o.tangle, o.qshift + dq) for o in objs] if dq else objs
    own = [(p, p, {h + dh: {k: -m for k, m in e.items()} if dh % 2 else e
                   for h, e in part.diff.items()}) for p, (part, dh, _) in enumerate(parts)]
    diff: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for k2, k1, comps in own + list(blocks):
        for h, entries in comps.items():
            slot, at2, at1 = diff.setdefault(h, {}), at[(k2, h + 1)], at[(k1, h)]
            for (i, j), m in entries.items():
                key = (at2 + i, at1 + j)
                slot[key] = slot[key] + m if key in slot else m
    return Complex(n, objects, diff), at


# ---------------------------------------------------------------------------
# Chain maps and deformation retracts
# ---------------------------------------------------------------------------

class ChainMap:
    """Bihomogeneous map of complexes; components[h][(i, j)] sends
    src.objects[h][j] to tgt.objects[h + dh][i]."""

    __slots__ = ("src", "tgt", "dh", "dq", "components")

    def __init__(self, src: Complex, tgt: Complex, dh: int, dq: int,
                 components: dict[int, dict[tuple[int, int], CobMorphism]]):
        self.src, self.tgt, self.dh, self.dq = src, tgt, dh, dq
        self.components = {}
        for h, entries in sorted(components.items()):
            kept = {k: m for k, m in entries.items() if not m.is_zero()}
            if kept:
                self.components[h] = kept

    @classmethod
    def zero(cls, src: Complex, tgt: Complex, dh: int = 0, dq: int = 0) -> ChainMap:
        return cls(src, tgt, dh, dq, {})

    @classmethod
    def identity(cls, c: Complex) -> ChainMap:
        comps = {h: {(i, i): CobMorphism.identity(o.tangle)
                     for i, o in enumerate(objs)}
                 for h, objs in c.objects.items()}
        return cls(c, c, 0, 0, comps)

    def check_degrees(self) -> None:
        for h, entries in self.components.items():
            for (i, j), m in entries.items():
                src = self.src.objects[h][j]
                tgt = self.tgt.objects[h + self.dh][i]
                if m.src is not src.tangle or m.tgt is not tgt.tangle:
                    raise InvariantError(f"component endpoints at h={h} ({i},{j})")
                if m.deg_raw() != src.qshift + self.dq - tgt.qshift:
                    raise InvariantError(f"component degree at h={h} ({i},{j})")

    def _shape(self) -> tuple:  # what maps must share to be added or equal
        return self.src, self.tgt, self.dh, self.dq

    def __add__(self, other: ChainMap) -> ChainMap:
        if self._shape() != other._shape():
            raise InvariantError("adding chain maps of different shape")
        comps = {h: dict(entries) for h, entries in self.components.items()}
        for h, entries in other.components.items():
            tgt = comps.setdefault(h, {})
            for k, m in entries.items():
                tgt[k] = tgt[k] + m if k in tgt else m
        return ChainMap(self.src, self.tgt, self.dh, self.dq, comps)

    def __neg__(self) -> ChainMap:
        return self.scale(-1)

    def __sub__(self, other: ChainMap) -> ChainMap:
        return self + (-other)

    def scale(self, k: int) -> ChainMap:
        return ChainMap(self.src, self.tgt, self.dh, self.dq,
                        {h: {key: m.scale(k) for key, m in entries.items()}
                         for h, entries in self.components.items()})

    def then(self, other: ChainMap) -> ChainMap:
        """other after self (self first)."""
        if not (self.tgt is other.src or self.tgt.objects == other.src.objects):
            raise InvariantError("composing chain maps through different complexes")
        block = _block_terms((other.components, self.components, self.dh, 1))
        return ChainMap(self.src, other.tgt, self.dh + other.dh, self.dq + other.dq,
                        {h: {key: CobMorphism(*entry) for key, entry in slot.items()}
                         for h, slot in block.items()})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return self._shape() == other._shape() and (self - other).is_zero()

    def is_cycle(self) -> bool:
        """Whether [d, f] = d_tgt o f - (-1)^dh f o d_src is zero, with both
        products summed as terms into one block."""
        sign = 1 if self.dh % 2 else -1
        return not _block_terms((self.tgt.diff, self.components, self.dh, 1),
                                (self.components, self.src.diff, 1, sign))


def differential_map(c: Complex) -> ChainMap:
    """The differential packaged as a bidegree (1, 0) map (not a chain map)."""
    return ChainMap(c, c, 1, 0, {h: dict(e) for h, e in c.diff.items()})


@dataclass
class SDRData:
    """Strong deformation retract: pi: M -> N, sigma: N -> M, h: M -> M (-1,0).

    The identities are pi sigma = 1, 1 - sigma pi = dh + hd, pi h = 0,
    h sigma = 0 and h^2 = 0, and `verify` checks all five.  The engine
    builds no retract: `deloop` and `gauss` move maps through directly.
    The tests build the delooping and one-step `gauss` retracts and fold
    them with `then`, as the reference that the carried maps must equal.
    """

    pi: ChainMap
    sigma: ChainMap
    homotopy: ChainMap

    def verify(self) -> None:
        m, n = self.pi.src, self.pi.tgt
        dh = differential_map(m)
        checks = (
            ((self.sigma.then(self.pi) - ChainMap.identity(n)), "pi o sigma = 1"),
            (ChainMap.identity(m) - self.pi.then(self.sigma)
             - self.homotopy.then(dh) - dh.then(self.homotopy),
             "Id - sigma pi = dh + hd"),
            (self.homotopy.then(self.pi), "pi o h = 0"),
            (self.sigma.then(self.homotopy), "h o sigma = 0"),
            (self.homotopy.then(self.homotopy), "h^2 = 0"),
        )
        for residue, name in checks:
            if not residue.is_zero():
                raise InvariantError(f"SDR identity fails: {name}")

    @classmethod
    def identity(cls, c: Complex) -> SDRData:
        ident = ChainMap.identity(c)
        return cls(ident, ident, ChainMap.zero(c, c, -1, 0))

    def then(self, other: SDRData) -> SDRData:
        """Compose retracts M -> N -> L."""
        return SDRData(self.pi.then(other.pi),
                       other.sigma.then(self.sigma),
                       self.homotopy + self.pi.then(other.homotopy).then(self.sigma))


# ---------------------------------------------------------------------------
# Delooping
# ---------------------------------------------------------------------------

def _expansion(c: Complex):
    """The delooped objects of c per degree, and per degree and object of c
    its circle-free tangle and [(new index, mask of the circles signed -1)]."""
    ceiling = object_ceiling()
    objects: dict[int, list[GradedObject]] = {}
    expansion: dict[int, list[tuple[FlatTangle, list[tuple[int, int]]]]] = {}
    for h, objs in c.objects.items():
        objects[h], expansion[h] = [], []
        for obj in objs:
            t = obj.tangle
            bare = FlatTangle(t.n, t.matching, 0) if t.circles else t
            exp = []
            for signs in product((1, -1), repeat=t.circles):
                exp.append((len(objects[h]),
                            sum(1 << k for k, s in enumerate(signs) if s < 0)))
                objects[h].append(GradedObject(bare, obj.qshift + sum(signs))
                                  if signs else obj)
            expansion[h].append((bare, exp))
        _check_ceiling("deloop", h, len(objects[h]), ceiling)
    return objects, expansion


def _split(block: dict, dh: int, exp: dict) -> dict:
    """The block {h: {(i, j): m}}, out of degree h into h + dh, between the
    delooped summands that exp lists (see `_expansion`).

    Entry (b, a) of m keeps the terms that dot source circle k exactly where
    a_k = -1 and target circle k exactly where b_k = +1, each as its mask
    below bit p with its coefficient; nothing is composed.
    """
    out_block: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for h, entries in block.items():
        out = out_block[h] = {}
        for (i, j), m in entries.items():
            (src, s_exp), (tgt, t_exp) = exp[h][j], exp[h + dh][i]
            cs, ct = m.src.circles, m.tgt.circles
            if cs == ct == 0:
                out[(t_exp[0][0], s_exp[0][0])] = m
                continue
            # the terms of m by their circle bits, source circles lowest (each
            # group is canonical: m's order, nonzero, one dot count)
            p = len(glue(m.src, m.tgt)) - cs - ct
            by_circles: dict[int, dict[int, int]] = {}
            for mask, coeff in m.terms.items():
                by_circles.setdefault(mask >> p, {})[mask & ((1 << p) - 1)] = coeff
            for aj, a_neg in s_exp:
                for bi, b_neg in t_exp:
                    terms = by_circles.get(a_neg | ((1 << ct) - 1 ^ b_neg) << cs)
                    if terms:
                        out[(bi, aj)] = CobMorphism._from_canonical(src, tgt, terms)
    return out_block


def _check_endomorphisms(c: Complex, maps) -> None:
    """Raise unless every map in `maps` goes from c (or its objects) to c."""
    for f in maps:
        if not all(x is c or x.objects == c.objects for x in (f.src, f.tgt)):
            raise InvariantError("a carried map must be an endomorphism of the complex")


def deloop(c: Complex, maps=()) -> tuple[Complex, list[ChainMap]]:
    """Replace every circle by the pair of q-shifted circle-free objects,
    carrying the endomorphisms `maps` of c along; returns (complex, maps).

    An object with circles 0..k-1 becomes one circle-free summand per sign
    vector s, in `product((1, -1), repeat=k)` order, q-shifted by sum(s).
    Nothing is glued: glue(src, tgt) orders its curves as the p point curves,
    the source circles, then the target circles, and in the disk basis each
    circle bounds its own disk, which the delooping's cap or cup closes to a
    sphere (1 with exactly one dot, else 0).  So the retract's pi dots
    circle k where s_k = -1 and its sigma where s_k = +1, and conjugating
    any morphism by them only selects terms (`_split`): the differential and
    each map are split by that one rule.
    """
    _check_endomorphisms(c, maps)
    if all(o.tangle.circles == 0 for objs in c.objects.values() for o in objs):
        return c, list(maps)
    objects, exp = _expansion(c)
    result = Complex(c.n, objects, _split(c.diff, 1, exp))
    return result, [ChainMap(result, result, f.dh, f.dq,
                             _split(f.components, f.dh, exp)) for f in maps]


# ---------------------------------------------------------------------------
# Gaussian elimination and the simplifier
# ---------------------------------------------------------------------------

class _Workspace:
    """A complex, and endomorphisms of it, simplified in place.

    Every object keeps a stable id, its index in the complex the workspace
    is built from; objects[h] maps ids to objects in id order, and deleting
    an id keeps the order of the rest, so the lowest (j, i) in ids is the
    lowest in current indices.  The differential at degree h is kept as
    columns out[h][j] = {i: d[i, j]} and rows into[h][i] = {j: d[i, j]}
    (see `_lines`), and each carried map f the same way, as
    maps[k] = (dh, dq, columns, rows) keyed by source degree.

    heaps[h] holds (cost, j, i) for the entries at degree h that were
    +-identity when pushed, with their cost then, and is built when `pivot`
    first reaches h; a candidate is checked when it reaches the top.  The
    cost is 0 under today's key.  Under the fill-in key it is Markowitz's
    (|column j| - 1)(|row i| - 1), the composites the elimination makes,
    and `gauss` re-pushes the +-identity entries it reads on the lines it
    changes at its degree (`rekey`).  Lines at a degree not reached yet
    need no re-push: their heap is built with the costs of that time.
    `export` builds one Complex and one ChainMap per map.
    """

    def __init__(self, c: Complex, maps=(), fill_in: bool = False):
        self.c, self.given, self.eliminated = c, list(maps), False
        self.fill_in, self.heaps = fill_in, {}
        self.objects = {h: dict(enumerate(objs)) for h, objs in c.objects.items()}
        self.out, self.into = _lines(c.diff), _lines(c.diff, by_row=True)
        self.maps = [(f.dh, f.dq, _lines(f.components), _lines(f.components, by_row=True))
                     for f in maps]

    def cost(self, h: int, i: int, j: int) -> int:
        """The key of entry (i, j) at degree h (0 unless `fill_in`)."""
        if not self.fill_in:
            return 0
        return (len(self.out[h][j]) - 1) * (len(self.into[h][i]) - 1)

    def rekey(self, h: int, cols, rows) -> None:
        """Push each +-identity entry of columns `cols` and rows `rows` at
        degree h with its current cost; `pivot` drops the stale copies."""
        keys = {(j, i) for j in cols for i, m in self.out[h][j].items() if m.is_identity_entry()}
        keys.update((j, i) for i in rows for j, m in self.into[h][i].items()
                    if m.is_identity_entry())
        for j, i in keys:
            heappush(self.heaps[h], (self.cost(h, i, j), j, i))

    def pivot(self) -> tuple[int, int, int] | None:
        """The +-identity entry (h, i, j) of lowest degree, then least
        (cost, j, i), dropping copies with a stale cost.  Eliminating at h
        adds entries only at h, so none appears below it."""
        for h in self.c.diff:
            heap = self.heaps.get(h)
            if heap is None:  # first visit: every +-identity entry, keyed now
                heap = self.heaps[h] = sorted((self.cost(h, i, j), j, i)
                                              for j, col in self.out[h].items()
                                              for i, m in col.items() if m.is_identity_entry())
            while heap:
                cost, j, i = heap[0]
                m = self.out[h].get(j, {}).get(i)
                if m is not None and m.is_identity_entry() and cost == self.cost(h, i, j):
                    return h, i, j
                heappop(heap)
        return None

    def export(self) -> tuple[Complex, list[ChainMap]]:
        """The simplified complex and maps (the inputs if none cancelled)."""
        if not self.eliminated:
            return self.c, self.given
        pos = {h: {x: k for k, x in enumerate(objs)} for h, objs in self.objects.items()}

        def block(cols: dict, dh: int) -> dict:
            return {h: {(pos[h + dh][x], pos[h][y]): m
                        for y, col in lines.items() for x, m in col.items()}
                    for h, lines in cols.items()}

        result = Complex(self.c.n, {h: list(objs.values())
                                    for h, objs in self.objects.items()},
                         block(self.out, 1))
        return result, [ChainMap(result, result, dh, dq, block(cols, dh))
                        for dh, dq, cols, _ in self.maps]


def _add_entry(col: dict, rows: dict, x: int, y: int, g: CobMorphism,
               f: CobMorphism, k: int) -> CobMorphism:
    """Entry (x, y) += k (g o f) of a block kept as lines (col is column y,
    rows the rows of the same degree), built as one morphism and returned;
    a zero sum removes the entry.  A new entry's terms are k times
    canonical ones, so they need no sorting."""
    old = col.get(x)
    if old is None:
        m = CobMorphism._from_canonical(f.src, g.tgt, _add_terms({}, g, f, k))
    else:
        m = CobMorphism(f.src, g.tgt, _add_terms(dict(old.terms), g, f, k))
    if m.terms:
        col[x] = rows.setdefault(x, {})[y] = m
    else:
        col.pop(x, None)
        rows.get(x, {}).pop(y, None)
    return m


def gauss(ws: _Workspace, h: int, i: int, j: int) -> None:
    """Cancel the invertible entry from object j@h to object i@h+1 of ws.

    With pivot eps (= +-1), a_s = d[i, s] for the other entries into row i
    and b_t = d[t, j] for the other entries out of column j, the surviving
    differential is d[t, s] - eps b_t a_s.  Each carried map f is conjugated
    by the one-step retract (pi adds -eps b_t o row i, sigma adds column j
    o -eps a_s): for survivors x, y,

        f'[x, y] = f[x, y] - eps b_x f[i, y]   (x at h+1)
                           - eps f[x, j] a_y   (y at h)
                           + b_x f[i, j] a_y   (both, and only for dh = 1),

    applied as the row update into column j as well, then the column update
    with that column j, so the last term costs no composite of its own.
    Once `pivot` has reached h, it pushes the new +-identity entries at h:
    under today's key as they are made (their cost 0 never changes), and
    under the fill-in key by re-keying every +-identity entry it reads on
    the lines whose cost moved, the columns that met row i and the rows that
    met column j (every new entry lies on one of them).  The rows it
    shortens at h+1 are keyed when `pivot` reaches h+1, and no +-identity
    entry is left below h.  Every elimination goes
    through this module-level function, so a tracer that rebinds
    `complexes.gauss` counts each one.
    """
    pivot = ws.out.get(h, {}).get(j, {}).get(i)
    if pivot is None or not pivot.is_identity_entry():
        raise InvariantError("pivot entry is not +-identity")
    eps = pivot.terms[0]  # +-1; the inverse is the same morphism scaled by eps
    out, into = ws.out[h], ws.into[h]
    outs, ins = out.pop(j), into.pop(i)
    del outs[i], ins[j]
    for t in outs:
        del into[t][j]
    for s in ins:
        del out[s][i]
    for s in ws.into.get(h - 1, {}).pop(j, ()):
        del ws.out[h - 1][s][j]
    for t in ws.out.get(h + 1, {}).pop(i, ()):
        del ws.into[h + 1][t][i]
    del ws.objects[h][j], ws.objects[h + 1][i]
    ws.eliminated = True

    for dh, _, cols, rows in ws.maps:
        # drop column i@h+1 and row j@h, then take out row i and column j
        for x in cols.get(h + 1, {}).pop(i, ()):
            del rows[h + 1][x][i]
        for y in rows.get(h - dh, {}).pop(j, ()):
            del cols[h - dh][y][j]
        row_i = rows.get(h + 1 - dh, {}).pop(i, {})
        for y, g in row_i.items():
            del cols[h + 1 - dh][y][i]
            col, lines = cols[h + 1 - dh][y], rows[h + 1 - dh]
            for x, b in outs.items():
                _add_entry(col, lines, x, y, b, g, -eps)
        col_j = cols.get(h, {}).pop(j, {})
        for x in col_j:
            del rows[h][x][j]
        for y, a in ins.items():
            col, lines = cols.setdefault(h, {}).setdefault(y, {}), rows.setdefault(h, {})
            for x, g in col_j.items():
                _add_entry(col, lines, x, y, g, a, -eps)

    heap = ws.heaps.get(h)  # None until `pivot` reaches h
    push = heap is not None and not ws.fill_in
    for s, a in ins.items():
        col = out[s]
        for t, b in outs.items():
            m = _add_entry(col, into, t, s, b, a, -eps)  # col[t] - eps b a
            if push and m.is_identity_entry():  # a new candidate at degree h
                heappush(heap, (0, s, t))
    if heap is not None and ws.fill_in:  # pushes the new candidates too
        ws.rekey(h, ins, outs)


def simplify(c: Complex, maps=(), fill_in: bool = False) -> tuple[Complex, list[ChainMap]]:
    """Deloop, then cancel +-identity entries until none remain, carrying
    the endomorphisms `maps` of c along; returns (complex, maps).

    Pivots are taken at the lowest degree first, then by key, from the heaps
    of one `_Workspace`; each goes through `gauss`, and the one Complex is
    built at the end (the delooped complex itself when nothing cancels).
    Today's key, the lowest (j, i), serves every caller that emits a
    complex or a map, so each gets the same one as before: `proj pn/qn/quasi`,
    `complex simplify`, `truncated_pn`, `build_qn` and `framing_check`.
    `fill_in` puts the least fill-in (|column| - 1)(|row| - 1) first: fewer
    composites, another complex, the same homology; the costs are read off
    the lines `gauss` changes, with no index beside them.  Only the fold of
    `links.bracket_colored` takes it, whose complex `link_homology` (so
    `colored homology`, `merging_check`, `invariance_spotcheck`) reads for
    its homology alone.  `deloop` splits each map and every `gauss`
    conjugates it, so it leaves as sigma o f o pi for the retract that
    folds the delooping's and every one-step retract with `SDRData.then`;
    no retract is built.
    """
    ws = _Workspace(*deloop(c, maps), fill_in=fill_in)
    while (pivot := ws.pivot()) is not None:
        gauss(ws, *pivot)
    return ws.export()


# ---------------------------------------------------------------------------
# Functors
# ---------------------------------------------------------------------------

def tensor(a: Complex, b: Complex) -> Complex:
    """Vertical stacking (a on top of b) with the Koszul sign on d_b,
    delooped; `tensor_indexed` is the undelooped product."""
    return deloop(tensor_indexed(a, b))[0]


def _starts(a: Complex, b: Complex) -> dict[tuple[int, int], int]:
    """The placement of the product of a and b: its objects of a degree are
    ordered by (ha, ia, ib), so the product of a's object ia at degree ha
    and b's ib at hb sits at start[(ha, hb)] + ia * len(b.objects[hb]) + ib."""
    start: dict[tuple[int, int], int] = {}
    size: dict[int, int] = {}
    for ha, objas in a.objects.items():
        for hb, objbs in b.objects.items():
            at = start[(ha, hb)] = size.get(ha + hb, 0)
            size[ha + hb] = at + len(objas) * len(objbs)
    return start


def _place(n: int, a: Complex, b: Complex):
    """The objects of the product of a and b on n strands, in `_starts`
    order, and its morphism_op.  It stacks (a on top) when a and b have n
    strands and juxtaposes (a on the left) when their counts add up to n;
    closed factors (n = 0), whose stacking and juxtaposition are both the
    disjoint union, are stacked, so b's circles come first.  The product
    of oa and ob is the product of their tangles, with q-shift qa + qb."""
    if a.n == b.n == n:
        tangle_op, morphism_op = (lambda s, t: stack_tangles(s, t).tangle), stack
    elif a.n + b.n == n:
        tangle_op, morphism_op = ((lambda s, t: juxtapose_tangles(s, t)[0]),
                                  juxtapose_morphism)
    else:
        raise ValueError(f"factors on {a.n} and {b.n} strands have no product "
                         f"on {n} strands")
    ceiling = object_ceiling()
    objects: dict[int, list[GradedObject]] = {}
    for ha, objas in a.objects.items():
        for hb, objbs in b.objects.items():
            lst = objects.setdefault(ha + hb, [])
            lst += [GradedObject(tangle_op(oa.tangle, ob.tangle), oa.qshift + ob.qshift)
                    for oa in objas for ob in objbs]
            _check_ceiling("product", ha + hb, len(lst), ceiling)
    return objects, morphism_op


def _product(morphism_op, a: Complex, b: Complex, start: dict,
             left: ChainMap | None = None, right: ChainMap | None = None) -> dict:
    """The components of f (x) 1 + 1 (x) g on the product of a and b placed
    by `start`, for `left` None or f out of a and `right` None or g out of
    b: a component m of f gives morphism_op(m, 1), one of g the
    Koszul-signed (-1)^(ha * g.dh) morphism_op(1, m).  The targets' product
    is placed by `start` unless a map's target is another complex."""
    tgt_a, tgt_b = left.tgt if left else a, right.tgt if right else b
    tgt_start = start if tgt_a is a and tgt_b is b else _starts(tgt_a, tgt_b)
    # components[h][(i, j)] of each side as cols[h][j] = {i: m}, in order
    cols_l, cols_r = (_lines(f.components) if f else {} for f in (left, right))
    # Each product with an identity is built once per (component, tangle,
    # sign; 0 for f) and shared; components stay alive in their maps, so
    # id() names them.  No entry gets two products: f lands at degrees
    # (ha + f.dh, hb), g at (ha, hb + g.dh), and both come only for the
    # differential, so summing would only filter zeros.
    made: dict[tuple, CobMorphism] = {}
    comps: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for (ha, hb), at in start.items():
        slot = comps.setdefault(ha + hb, {})
        objbs, cols_a, cols_b = b.objects[hb], cols_l.get(ha, {}), cols_r.get(hb, {})
        nb = len(objbs)
        # f sends (ia, ib) to (i2, ib), g to (ia, i2), as `_starts` places them
        if cols_a:
            at_f, nb_f = tgt_start[(ha + left.dh, hb)], len(tgt_b.objects[hb])
        if cols_b:
            at_g = tgt_start[(ha, hb + right.dh)]
            nb_g = len(tgt_b.objects[hb + right.dh])
        sign = -1 if right and (ha * right.dh) % 2 else 1
        for ia, oa in enumerate(a.objects[ha]):
            col_f = cols_a.get(ia, {})
            for ib, ob in enumerate(objbs):
                idx = at + ia * nb + ib
                for i2, m in col_f.items():
                    p = made.get(key := (id(m), ob.tangle, 0)) or made.setdefault(
                        key, morphism_op(m, CobMorphism.identity(ob.tangle)))
                    if p.terms:
                        slot[(at_f + i2 * nb_f + ib, idx)] = p
                for i2, m in cols_b.get(ib, {}).items():
                    p = made.get(key := (id(m), oa.tangle, sign)) or made.setdefault(
                        key, morphism_op(CobMorphism.identity(oa.tangle),
                                         m.scale(-1) if sign < 0 else m))
                    if p.terms:
                        slot[(at_g + ia * nb_g + i2, idx)] = p
    return comps


def _product_complex(n: int, a: Complex, b: Complex) -> Complex:
    objects, morphism_op = _place(n, a, b)
    return Complex(n, objects, _product(morphism_op, a, b, _starts(a, b),
                                        differential_map(a), differential_map(b)))


def tensor_indexed(a: Complex, b: Complex) -> Complex:
    """The undelooped tensor: a stacked on top of b."""
    if a.n != b.n:
        raise ValueError("strand-count mismatch in tensor")
    return _product_complex(a.n, a, b)


def product_map(src: Complex, tgt: Complex, left: Complex | ChainMap,
                right: Complex | ChainMap) -> ChainMap:
    """f (x) 1 or the Koszul-signed 1 (x) g, as a map src -> tgt.

    One of `left`, `right` is a ChainMap on that factor, the other a Complex
    standing for its identity.  src must be the undelooped product of the
    factors' sources (`tensor_indexed` or `juxtapose_complexes`) and tgt
    that of their targets; it stacks or juxtaposes as `_place` does for
    src's strand count.
    """
    f, g = (x if isinstance(x, ChainMap) else None for x in (left, right))
    if (f is None) == (g is None):
        raise InvariantError("product_map takes a map on exactly one factor")
    a, b = f.src if f else left, g.src if g else right
    tgt_a, tgt_b = f.tgt if f else a, g.tgt if g else b
    objects, morphism_op = _place(src.n, a, b)
    if objects != src.objects or tgt.objects != (
            objects if tgt_a is a and tgt_b is b else _place(src.n, tgt_a, tgt_b)[0]):
        raise InvariantError("product_map: src and tgt must be the products "
                             "of the factors' sources and targets")
    return ChainMap(src, tgt, (f or g).dh, (f or g).dq,
                    _product(morphism_op, a, b, _starts(a, b), f, g))


def juxtapose_complexes(a: Complex, b: Complex) -> Complex:
    """Horizontal disjoint union (a on the left), Koszul sign on the right
    factor; delooped, which changes nothing unless a factor has circles."""
    return deloop(_product_complex(a.n + b.n, a, b))[0]


def partial_trace_complex(c: Complex) -> Complex:
    """Close the rightmost strand of every object and entry; the circles
    this makes are kept (`deloop` removes them)."""
    if c.n < 1:
        raise ValueError("partial trace needs at least one strand")
    objects = {h: [GradedObject(trace_tangle(o.tangle).tangle, o.qshift)
                   for o in objs]
               for h, objs in c.objects.items()}
    diff = {h: {k: trace_morphism(m) for k, m in entries.items()}
            for h, entries in c.diff.items()}
    return Complex(c.n - 1, objects, diff)


@dataclass(frozen=True)
class Slice:
    """A `fold` step stacking `complex` over the accumulator, or under it
    when `under`, with endomorphisms `maps` of `complex` carried along."""

    complex: Complex
    under: bool = False
    maps: tuple[ChainMap, ...] = ()


CLOSE = "close"  # the `fold` step that closes the accumulator's rightmost strand


def fold(cur: Complex, steps, maps=(),
         fill_in: bool = False) -> tuple[Complex, list[ChainMap]]:
    """Apply `steps` to `cur` in order, carrying its endomorphisms `maps`.

    A `Slice` step takes the undelooped product with the slice on top,
    `tensor_indexed(slice, cur)`, or below it when `under`; a CLOSE step
    traces the rightmost strand (`_trace_strand`).  The result is
    simplified; each map moves as the product with the identity of the
    other factor, its components placed by the product's `_starts`, or is
    traced, then is carried through that same `simplify` call, on the
    fill-in pivot key when `fill_in` (set only by `links.bracket_colored`;
    see `simplify`).  Returns (complex, maps): the given maps, then the
    slices' maps in step order.  The engine functions are module globals
    looked up at each step, so a tracer that rebinds them sees every one.
    """
    maps = list(maps)
    for step in steps:
        if step is CLOSE:
            raw, maps = _trace_strand(cur, maps)
        else:
            _check_endomorphisms(cur, maps)
            _check_endomorphisms(step.complex, step.maps)
            factors = (cur, step.complex) if step.under else (step.complex, cur)
            raw, start = tensor_indexed(*factors), _starts(*factors)
            # (map on the left factor, map on the right factor) per map
            sides = [(f, None) for f in maps] + [(None, g) for g in step.maps]
            if not step.under:  # the accumulator is the right factor
                sides = [(g, f) for f, g in sides]
            maps = [ChainMap(raw, raw, (f or g).dh, (f or g).dq,
                             _product(stack, *factors, start, f, g))
                    for f, g in sides]
        cur, maps = simplify(raw, maps, fill_in)
    return cur, maps


def closure(c: Complex, maps=()) -> tuple[Complex, list[ChainMap]]:
    """q^n T^n(c), the HOM(1_n, c) computation pushed down to Cob_0, with
    the endomorphisms `maps` of c carried along; returns (complex, maps).
    Each strand is traced, then delooped, before the next (one deloop at
    the end orders the objects differently); the q^n is one shift at the
    end, since a q-shift commutes with tracing and delooping."""
    n = c.n
    for _ in range(n):
        c, maps = deloop(*_trace_strand(c, maps))
    closed = shift(c, 0, n)
    return closed, [ChainMap(closed, closed, f.dh, f.dq, f.components) for f in maps]


def _trace_strand(c: Complex, maps) -> tuple[Complex, list[ChainMap]]:
    """`partial_trace_complex(c)`, and each endomorphism in `maps` traced
    entry by entry to match; the circles made are kept."""
    raw = partial_trace_complex(c)
    return raw, [ChainMap(raw, raw, f.dh, f.dq,
                          {h: {k: trace_morphism(m) for k, m in e.items()}
                           for h, e in f.components.items()})
                 for f in maps]


def shift(c: Complex, dh: int, dq: int) -> Complex:
    """t^dh q^dq; the differential picks up (-1)^dh (see `_assemble`)."""
    return _assemble(c.n, [(c, dh, dq)])[0]


def direct_sum(a: Complex, b: Complex) -> Complex:
    if a.n != b.n:
        raise ValueError("strand-count mismatch in direct sum")
    return _assemble(a.n, [(a, 0, 0), (b, 0, 0)])[0]


def dual(c: Complex) -> Complex:
    """Reverse both gradings, flip diagrams and cobordisms."""
    objects = {-h: [GradedObject(flip_tangle(o.tangle), -o.qshift) for o in objs]
               for h, objs in c.objects.items()}
    diff = {-h - 1: {(j, i): dual_morphism(m) for (i, j), m in entries.items()}
            for h, entries in c.diff.items()}
    return Complex(c.n, objects, diff)


def cone(f: ChainMap) -> Complex:
    """Mapping cone of a cycle f; for bidegree (0,0) this is t^-1 src + tgt."""
    if not f.is_cycle():
        raise InvariantError("cone of a non-chain-map")
    block = {k + f.dh - 1: entries for k, entries in f.components.items()}
    out, _ = _assemble(f.src.n, [(f.src, f.dh - 1, f.dq), (f.tgt, 0, 0)],
                       [(1, 0, block)])
    out.check()
    return out


# ---------------------------------------------------------------------------
# HOM complexes of free abelian groups
# ---------------------------------------------------------------------------

class ZComplex:
    """Bigraded free Z-complex with differential of bidegree (1, 0).

    diffs[(i, j)] holds one sparse row per label of (i + 1, j), a dict from
    column (< rank(i, j)) to nonzero int; the constructor keeps the rows
    given, less stored zeros and all-zero matrices."""

    __slots__ = ("groups", "diffs")

    def __init__(self, groups: dict[tuple[int, int], list],
                 diffs: dict[tuple[int, int], list[dict[int, int]]]):
        self.groups = {k: list(v) for k, v in sorted(groups.items()) if v}
        self.diffs = {}
        for key, m in sorted(diffs.items()):
            rows = [row if all(row.values()) else {c: x for c, x in row.items() if x}
                    for row in m]
            if any(rows):
                self.diffs[key] = rows

    def rank(self, i: int, j: int) -> int:
        return len(self.groups.get((i, j), []))

    def check(self) -> None:
        """d^2 = 0: each row of the next matrix times the rows of this one."""
        for (i, j), m in self.diffs.items():
            for row in self.diffs.get((i + 1, j), ()):
                out: dict[int, int] = {}
                for r, y in row.items():
                    for c, x in m[r].items():
                        out[c] = out.get(c, 0) + y * x
                if any(out.values()):
                    raise InvariantError(f"d^2 != 0 at {(i, j)}")


def _masks(nc: int, dots: int):
    """The nc-bit masks with `dots` bits set, ascending (Gosper's hack)."""
    mask = (1 << dots) - 1
    while mask < 1 << nc:
        yield mask
        low = mask & -mask
        if not low:
            return
        high = mask + low
        mask = high | ((high ^ mask) >> 2) // low


def _hom_basis(a: Complex, b: Complex, only: tuple[int, int] | None = None):
    """Basis of HOM(a, b): labels (k, ia, ib, mask) grouped by bidegree (i, j),
    each group in label order; with only=(i, j), that group alone, read off
    degree k + i of b only and, per object pair, the masks of its dot count."""
    groups: dict[tuple[int, int], list] = {}
    found: list = []
    for k, objas in a.objects.items():
        targets = (b.objects.items() if only is None
                   else [(k + only[0], b.objects.get(k + only[0], ()))])
        for kb, objbs in targets:
            for ia, oa in enumerate(objas):
                for ib, ob in enumerate(objbs):
                    nc = len(glue(oa.tangle, ob.tangle))
                    # f in HOM^{i,j} maps q^j A -> B, so each component q^(j+qa)
                    # S -> q^(qb) T has deg_raw = n - nc + 2 dots = j + qa - qb
                    j0 = a.n - nc + ob.qshift - oa.qshift
                    if only is None:
                        for mask in range(1 << nc):
                            groups.setdefault((kb - k, j0 + 2 * mask.bit_count()),
                                              []).append((k, ia, ib, mask))
                        continue
                    dots, odd = divmod(only[1] - j0, 2)
                    if not odd and 0 <= dots <= nc:
                        found += [(k, ia, ib, mask) for mask in _masks(nc, dots)]
    return groups if only is None else found


def _hom_columns(matrix, col0: int, a: Complex, b: Complex, i: int, basis,
                 after, before, seen: dict) -> bool:
    """Add to column col0 + c of `matrix` (sparse rows, dicts from column to
    entry) the composites of the c-th label (k, ia, ib, mask) of HOM^i(a, b),
    read as a one-term morphism x.  Each side is (lines, rows, scale):
    `after` lines are block columns (see `_lines`), and each g on the one
    out of x's target adds scale (g o x) at rows (k, ia, row of g, mask);
    `before` lines are block rows, and each g on the one into x's source
    adds scale (x o g) at rows (k - 1, column of g, ib, mask).  Labels not
    in rows are skipped.  Returns whether any entry was touched.

    Terms come off `_compose_terms`, canonical, so a composite that cancels
    touches nothing.  A composite depends only on g, the side, x's ends and
    mask, and one g meets every object of the other complex, so `seen` (one
    dict for all of a caller's calls) keeps it by (id(g), id(src), id(tgt),
    side), then mask; a, b and the lines hold those objects.  Labels come in
    runs that share (k, ia, ib), and the lines are read once per run."""
    touched = False
    for (k, ia, ib), run in groupby(enumerate(basis, col0), key=lambda cl: cl[1][:3]):
        masks = [(c, lab[3]) for c, lab in run]
        src, tgt = a.objects[k][ia].tangle, b.objects[k + i][ib].tangle
        sides = [(k, ia, i2, rows, scale, g, True) for lines, rows, scale in after
                 for i2, g in lines.get(k + i, {}).get(ib, {}).items()]
        sides += [(k - 1, j2, ib, rows, scale, g, False) for lines, rows, scale in before
                  for j2, g in lines.get(k - 1, {}).get(ia, {}).items()]
        for h0, h1, h2, rows, scale, g, g_after in sides:
            outs = seen.get(key := (id(g), id(src), id(tgt), g_after))
            if outs is None:
                outs = seen[key] = {}
            for c, mask in masks:
                out = outs.get(mask)
                if out is None:
                    x = CobMorphism._from_canonical(src, tgt, {mask: 1})
                    terms, f = _compose_terms(g, x) if g_after else _compose_terms(x, g)
                    out = outs[mask] = list(terms.items()) if f is None else \
                        [(m, f * v) for m, v in terms.items()]
                for m, v in out:
                    r = rows.get((h0, h1, h2, m))
                    if r is not None:
                        row = matrix[r]
                        row[c] = row.get(c, 0) + scale * v
                        touched = True
    return touched


def hom_complex(a: Complex, b: Complex) -> ZComplex:
    """HOM(a, b) as sparse integer rows over the dotted-disk basis.

    The differential is f -> d_b o f - (-1)^deg_h(f) f o d_a.
    """
    groups = _hom_basis(a, b)
    b_cols, a_rows = _lines(b.diff), _lines(a.diff, by_row=True)
    diffs: dict[tuple[int, int], list[dict[int, int]]] = {}
    seen: dict = {}
    for (i, j), basis in groups.items():
        tgt = {lab: r for r, lab in enumerate(groups.get((i + 1, j), ()))}
        if not tgt:
            continue
        rows = [{} for _ in tgt]
        _hom_columns(rows, 0, a, b, i, basis, [(b_cols, tgt, 1)],
                     [(a_rows, tgt, 1 if i % 2 else -1)], seen)
        diffs[(i, j)] = rows
    return ZComplex(groups, diffs)


def tautological_complex(c: Complex) -> ZComplex:
    """HOM(empty diagram, c) for a fully delooped complex over Cob_0."""
    if c.n != 0:
        raise ValueError("tautological functor needs a closed diagram")
    return hom_complex(Complex.empty_diagram(), c)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

class ObstructionError(RuntimeError):
    """A Massey-product obstruction could not be solved."""

    def __init__(self, length: int, position: int, msg: str = ""):
        super().__init__(f"unsolvable obstruction at length {length}, "
                         f"position {position}{': ' + msg if msg else ''}")
        self.length = length
        self.position = position


def convolution_complete(pieces: list[Complex], alphas: list[ChainMap],
                         min_total_degree: int | None = None) -> Complex:
    """Build a convolution of E_0 -> E_1 -> ... -> E_{m-1} (last term at shift 0).

    E_k is placed at homological offset k - (m-1) with differential sign
    (-1)^offset; alphas[k]: E_k -> E_{k+1} must be degree-(0,0) chain maps
    whose consecutive composites are null-homotopic.  Pieces are attached
    right to left as iterated mapping cones: at each attachment all higher
    components out of the new piece are solved jointly as one integer linear
    system over the dotted-disk basis (`solve_integer`), so earlier greedy
    choices cannot obstruct later lengths within one attachment.

    With min_total_degree set, obstruction equations whose target lies below
    that total degree are skipped (used for window-truncated inputs); the
    caller is expected to truncate the result and re-check d^2 = 0.
    """
    m = len(pieces)
    if len(alphas) != m - 1:
        raise InvariantError("a convolution of m pieces needs m - 1 maps")
    offs = [k - (m - 1) for k in range(m)]
    comps: dict[tuple[int, int], dict[int, dict[tuple[int, int], CobMorphism]]] = {}
    for k, alpha in enumerate(alphas):
        if not (alpha.src is pieces[k] and alpha.tgt is pieces[k + 1]):
            raise InvariantError(f"alpha_{k} does not go from piece {k} to {k + 1}")
        if (alpha.dh, alpha.dq) != (0, 0):
            raise InvariantError(f"alpha_{k} is not of bidegree (0, 0)")
        comps[(k + 1, k)] = {h: dict(e) for h, e in alpha.components.items()}

    for k in range(m - 2, -1, -1):
        for j, block in _attach_piece(pieces, offs, comps, k, min_total_degree).items():
            comps[(j, k)] = block

    # the total complex: piece k at offset offs[k], where `_assemble`
    # supplies the sign (-1)^offset of its own differential
    blocks = [(k2, k1, {h + offs[k1]: e for h, e in block.items()})
              for (k2, k1), block in comps.items()]
    return _assemble(pieces[0].n, [(piece, off, 0) for piece, off in zip(pieces, offs)],
                     blocks)[0]


def _attach_piece(pieces, offs, comps, k, min_total_degree):
    """Solve jointly for all components D_{j,k}, j >= k+2, attaching E_k;
    returns the nonzero blocks {j: D_{j,k}}.

    The constraints are (D^2)_{j,k} = 0 for j = k+2..m-1:
        sign_j d X_j + sign_k X_j d + sum_{k<mid<j} D_{j,mid} X_{mid} = 0
    with X_{k+1} = alpha_k fixed.  Linear over Z in the X's: X_j runs over
    the HOM^{k+1-j,0}(E_k, E_j) basis and its equations over the
    HOM^{k+2-j,0} one from min_total_degree up, concatenated piece by piece.
    `_hom_columns` fills one sparse row per equation (a dict from unknown to
    coefficient), which `solve_integer` takes with the unknown count; no
    dense matrix is formed.
    """
    from .homology import solve_integer

    src, m = pieces[k], len(pieces)
    sign_k = -1 if offs[k] % 2 else 1
    unknowns, rows, n_rows = {}, {}, 0
    for j in range(k + 2, m):
        unknowns[j] = _hom_basis(src, pieces[j], (k + 1 - j, 0))
        eqs = [lab for lab in _hom_basis(src, pieces[j], (k + 2 - j, 0))
               if min_total_degree is None or lab[0] + offs[k] + 2 >= min_total_degree]
        rows[j] = {lab: n_rows + r for r, lab in enumerate(eqs)}
        n_rows += len(eqs)

    # fixed contribution: D_{j,k+1} o alpha_k, moved to the right-hand side
    rhs = [0] * n_rows
    for j in range(k + 2, m):
        fixed = _block_terms((comps.get((j, k + 1), {}), comps[(k + 1, k)], 0, 1))
        for h, entries in fixed.items():
            for (i, jj), (_, _, terms) in entries.items():
                for mask, coeff in terms.items():
                    row = rows[j].get((h, jj, i, mask))
                    if row is not None:
                        rhs[row] -= coeff
                    elif coeff and min_total_degree is None:
                        raise ObstructionError(j - k, offs[k], "obstruction outside basis")
    if not any(rhs):
        return {}

    # X_j meets d on E_j and each block D_{j2,j} after it, d on E_k before;
    # one sparse row per equation
    matrix = [{} for _ in range(n_rows)]
    src_rows = _lines(src.diff, by_row=True)
    col0, seen = 0, {}
    for j, basis in unknowns.items():
        after = [(_lines(pieces[j].diff), rows[j], -1 if offs[j] % 2 else 1)]
        after += [(_lines(comps[(j2, j)]), rows[j2], 1)
                  for j2 in range(j + 1, m) if (j2, j) in comps]
        _hom_columns(matrix, col0, src, pieces[j], k + 1 - j, basis, after,
                     [(src_rows, rows[j], sign_k)], seen)
        col0 += len(basis)
    sol = solve_integer(matrix, col0, [rhs])[0]
    if sol is None:
        raise ObstructionError(m - 1 - k, offs[k])
    out: dict[int, dict[int, dict[tuple[int, int], CobMorphism]]] = {}
    vals = iter(sol)
    for j, basis in unknowns.items():
        acc: dict[tuple[int, int, int], dict[int, int]] = {}
        for (h, ia, ib, mask), val in zip(basis, vals):
            if val:
                acc.setdefault((h, ia, ib), {})[mask] = val
        for (h, ia, ib), terms in acc.items():
            out.setdefault(j, {}).setdefault(h, {})[(ib, ia)] = CobMorphism(
                src.objects[h][ia].tangle, pieces[j].objects[h + k + 1 - j][ib].tangle,
                terms)
    return out
