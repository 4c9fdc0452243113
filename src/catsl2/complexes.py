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
chain maps induce on them, the convolution solver's systems) take their
labels from `_hom_basis` and their columns from `_hom_columns`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product

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

    def degrees(self) -> list[int]:
        return list(self.objects)

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

    def entry(self, h: int, i: int, j: int) -> CobMorphism | None:
        return self.diff.get(h, {}).get((i, j))

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


def _add_composite(line: dict, key, g: CobMorphism, f: CobMorphism, k: int) -> CobMorphism:
    """line[key] += k (g o f), built as one morphism and returned; a zero
    sum removes the entry."""
    old = line.get(key)
    m = CobMorphism(f.src, g.tgt, _add_terms(dict(old.terms) if old else {}, g, f, k))
    if m.terms:
        line[key] = m
    else:
        line.pop(key, None)
    return m


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


def _assemble(n: int, parts: list[Complex], blocks=()) -> tuple[Complex, dict]:
    """The direct sum of `parts`, plus off-diagonal blocks in its differential.

    Objects are placed degree by degree, in part order and then in index
    order; place[(p, h, idx)] is the position at degree h of object idx of
    part p.  The differential is each part's own plus every block
    (k2, k1, components), whose components[h][(i, j)] go from object j at
    degree h of part k1 to object i at degree h + 1 of part k2.
    """
    objects: dict[int, list[GradedObject]] = {}
    place: dict[tuple[int, int, int], int] = {}
    for p, part in enumerate(parts):
        for h, objs in part.objects.items():
            lst = objects.setdefault(h, [])
            for idx, o in enumerate(objs):
                place[(p, h, idx)] = len(lst)
                lst.append(o)
    diff: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    own = [(p, p, part.diff) for p, part in enumerate(parts)]
    for k2, k1, comps in own + list(blocks):
        for h, entries in comps.items():
            slot = diff.setdefault(h, {})
            for (i, j), m in entries.items():
                key = (place[(k2, h + 1, i)], place[(k1, h, j)])
                slot[key] = slot[key] + m if key in slot else m
    return Complex(n, objects, diff), place


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
                if m.src != src.tangle or m.tgt != tgt.tangle:
                    raise InvariantError(f"component endpoints at h={h} ({i},{j})")
                if m.deg_raw() != src.qshift + self.dq - tgt.qshift:
                    raise InvariantError(f"component degree at h={h} ({i},{j})")

    def __add__(self, other: ChainMap) -> ChainMap:
        if (self.src, self.tgt, self.dh, self.dq) != \
                (other.src, other.tgt, other.dh, other.dq):
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
        return ((self.dh, self.dq) == (other.dh, other.dq)
                and (self - other).is_zero())

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
    h sigma = 0 and h^2 = 0.  `simplify` carries its retract by local
    updates instead of `then`, with pi rows and sigma columns keyed by the
    stable object ids of its `_Workspace`: eliminating the pivot (h, i, j)
    of N with unit eps, a_s = d[i, s] and b_t = d[t, j], `gauss` does

        pi row t@h+1       += -eps b_t o (row i of pi at h+1)
        sigma column s@h   += -eps (column j of sigma at h) o a_s
        h                  += eps (column j of sigma at h) o (row i of pi at h+1)

    and drops rows j@h, i@h+1 of pi and the same columns of sigma; no other
    id moves.  This equals `self.then(step)` with `step` the one-step
    retract of the same `gauss` on a workspace started from the identity.
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


def transport_endomorphism(f: ChainMap, sdr: SDRData) -> ChainMap:
    """Conjugate an endomorphism of sdr's source through the retract."""
    return sdr.sigma.then(f).then(sdr.pi)


# ---------------------------------------------------------------------------
# Delooping
# ---------------------------------------------------------------------------

def deloop(c: Complex, track_sdr: bool = False) -> tuple[Complex, SDRData | None]:
    """Replace every circle by the pair of q-shifted circle-free objects.

    An object with circles 0..k-1 becomes one circle-free summand per sign
    vector s, in `product((1, -1), repeat=k)` order, q-shifted by sum(s).
    Nothing is glued: glue(src, tgt) orders its curves as the p point curves,
    the source circles, then the target circles, and in the disk basis each
    circle bounds its own disk, which the delooping's cap or cup closes to a
    sphere (1 with exactly one dot, else 0).  So pi is the one term dotting
    circle k where s_k = -1, sigma the one dotting it where s_k = +1, and
    entry (b, a) of the delooped differential keeps the terms of m that dot
    source circle k exactly where a_k = -1 and target circle k exactly where
    b_k = +1, each as its mask below bit p with its coefficient.
    """
    if all(o.tangle.circles == 0 for objs in c.objects.values() for o in objs):
        return c, (SDRData.identity(c) if track_sdr else None)

    ceiling = object_ceiling()
    new_objects: dict[int, list[GradedObject]] = {}
    # per degree, per old index: [(new index, mask of the circles signed -1)]
    expansion: dict[int, list[list[tuple[int, int]]]] = {}
    for h, objs in c.objects.items():
        new_objects[h], expansion[h] = [], []
        for obj in objs:
            t = obj.tangle
            bare = FlatTangle(t.n, t.matching, 0) if t.circles else t
            exp = []
            for signs in product((1, -1), repeat=t.circles):
                exp.append((len(new_objects[h]),
                            sum(1 << k for k, s in enumerate(signs) if s < 0)))
                new_objects[h].append(GradedObject(bare, obj.qshift + sum(signs))
                                      if signs else obj)
            expansion[h].append(exp)
        _check_ceiling("deloop", h, len(new_objects[h]), ceiling)

    new_diff: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for h, entries in c.diff.items():
        out = new_diff[h] = {}
        for (i, j), m in entries.items():
            cs, ct = m.src.circles, m.tgt.circles
            src_exp, tgt_exp = expansion[h][j], expansion[h + 1][i]
            if cs == ct == 0:
                out[(tgt_exp[0][0], src_exp[0][0])] = m
                continue
            # the terms of m by their circle bits, source circles lowest (each
            # group is canonical: m's order, nonzero, one dot count)
            p = len(glue(m.src, m.tgt)) - cs - ct
            by_circles: dict[int, dict[int, int]] = {}
            for mask, coeff in m.terms.items():
                by_circles.setdefault(mask >> p, {})[mask & ((1 << p) - 1)] = coeff
            src = new_objects[h][src_exp[0][0]].tangle
            tgt = new_objects[h + 1][tgt_exp[0][0]].tangle
            for aj, a_neg in src_exp:
                for bi, b_neg in tgt_exp:
                    terms = by_circles.get(a_neg | ((1 << ct) - 1 ^ b_neg) << cs)
                    if terms:
                        out[(bi, aj)] = CobMorphism._from_canonical(src, tgt, terms)

    result = Complex(c.n, new_objects, new_diff)
    if not track_sdr:
        return result, None
    pi_comps: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    sg_comps: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for h, rows in expansion.items():
        pi_comps[h], sg_comps[h] = {}, {}
        for j, exp in enumerate(rows):
            t = c.objects[h][j].tangle
            for idx, neg in exp:
                bare = new_objects[h][idx].tangle
                # glue(t, bare) has one point curve per arc, t.n in all
                pi_comps[h][(idx, j)] = CobMorphism(t, bare, {neg << t.n: 1})
                sg_comps[h][(j, idx)] = CobMorphism(
                    bare, t, {((1 << t.circles) - 1 ^ neg) << t.n: 1})
    sdr = SDRData(ChainMap(c, result, 0, 0, pi_comps),
                  ChainMap(result, c, 0, 0, sg_comps),
                  ChainMap.zero(c, c, -1, 0))
    return result, sdr


# ---------------------------------------------------------------------------
# Gaussian elimination and the simplifier
# ---------------------------------------------------------------------------

class _Workspace:
    """A complex, and optionally a retract onto it, simplified in place.

    Every object keeps a stable id, its index in the complex the workspace
    is built from; objects[h] maps ids to objects in id order, and deleting
    an id keeps the order of the rest, so the lowest (j, i) in ids is the
    lowest in current indices.  The differential at degree h is kept as
    columns out[h][j] = {i: d[i, j]} and rows into[h][i] = {j: d[i, j]}
    (see `_lines`).  heaps[h] holds (j, i) for every entry at degree h that
    was +-identity when last written; a candidate is checked when it reaches
    the top.  A retract from M keeps pi as rows pi[h][id] and sigma as
    columns sigma[h][id], keyed by M index, and the homotopy as hom[h] =
    {(row, col) in M: m} out of degree h of M.  `export` builds one Complex.
    """

    def __init__(self, c: Complex, sdr: SDRData | None = None):
        self.c, self.sdr, self.eliminated = c, sdr, False
        self.objects = {h: dict(enumerate(objs)) for h, objs in c.objects.items()}
        self.out, self.into = _lines(c.diff), _lines(c.diff, by_row=True)
        self.heaps = {h: sorted((j, i) for (i, j), m in entries.items()
                                if m.is_identity_entry())  # sorted is a heap
                      for h, entries in c.diff.items()}
        self.pi = self.sigma = self.hom = None
        if sdr is not None:
            self.pi = _lines(sdr.pi.components, by_row=True)
            self.sigma = _lines(sdr.sigma.components)
            self.hom = {h: dict(e) for h, e in sdr.homotopy.components.items()}

    def pivot(self) -> tuple[int, int, int] | None:
        """The +-identity entry (h, i, j) of lowest degree, then lowest (j, i).
        Eliminating at h adds entries only at h, so none appears below it."""
        for h, heap in self.heaps.items():
            while heap:
                j, i = heap[0]
                m = self.out[h].get(j, {}).get(i)
                if m is not None and m.is_identity_entry():
                    return h, i, j
                heappop(heap)
        return None

    def export(self) -> tuple[Complex, SDRData | None]:
        """The simplified complex and retract (the inputs if none cancelled)."""
        if not self.eliminated:
            return self.c, self.sdr
        pos = {h: {x: k for k, x in enumerate(objs)} for h, objs in self.objects.items()}
        diff = {h: {(pos[h + 1][i], pos[h][j]): m
                    for j, col in cols.items() for i, m in col.items()}
                for h, cols in self.out.items()}
        result = Complex(self.c.n, {h: list(objs.values())
                                    for h, objs in self.objects.items()}, diff)
        if self.sdr is None:
            return result, None
        src = self.sdr.pi.src
        pi = {h: {(pos[h][r], m): p for r, row in rows.items() for m, p in row.items()}
              for h, rows in self.pi.items()}
        sigma = {h: {(y, pos[h][s]): q for s, col in cols.items() for y, q in col.items()}
                 for h, cols in self.sigma.items()}
        return result, SDRData(ChainMap(src, result, 0, 0, pi),
                               ChainMap(result, src, 0, 0, sigma),
                               ChainMap(src, src, -1, 0, self.hom))


def gauss(ws: _Workspace, h: int, i: int, j: int) -> None:
    """Cancel the invertible entry from object j@h to object i@h+1 of ws.

    With pivot eps (= +-1), a_s = d[i, s] for the other entries into row i
    and b_t = d[t, j] for the other entries out of column j, the surviving
    differential is d[t, s] - eps b_t a_s, and a tracked retract gets the
    local update stated in `SDRData`.  Every elimination goes through this
    module-level function, so a tracer that rebinds `complexes.gauss`
    counts each one.  A one-step retract is `_Workspace(c,
    SDRData.identity(c))`, one `gauss` and `export`.
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

    if ws.pi is not None:
        row_i, col_j = ws.pi[h + 1].pop(i), ws.sigma[h].pop(j)
        del ws.pi[h][j], ws.sigma[h + 1][i]
        for t, b in outs.items():
            row = ws.pi[h + 1][t]
            for mm, p in row_i.items():
                _add_composite(row, mm, b, p, -eps)
        for s, a in ins.items():
            col = ws.sigma[h][s]
            for y, q in col_j.items():
                _add_composite(col, y, q, a, -eps)
        hom = ws.hom.setdefault(h + 1, {})
        for y, q in col_j.items():
            for mm, p in row_i.items():
                _add_composite(hom, (y, mm), q, p, eps)

    for s, a in ins.items():
        col = out[s]
        for t, b in outs.items():
            m = _add_composite(col, t, b, a, -eps)  # col[t] - eps b a
            if m.terms:
                into[t][s] = m
                if m.is_identity_entry():  # fill-in: a new candidate at degree h
                    heappush(ws.heaps[h], (s, t))
            else:
                into[t].pop(s, None)


def simplify(c: Complex, track_sdr: bool = False) -> tuple[Complex, SDRData | None]:
    """Deloop, then cancel +-identity entries until none remain.

    Pivots are taken at the lowest degree first, then the lowest (j, i), from
    the heaps of one `_Workspace`; each goes through `gauss`, and the one
    Complex is built at the end (the delooped complex itself when nothing
    cancels).  With track_sdr the retract c -> result starts from the
    delooping retract and is updated locally at each elimination (see
    `SDRData`).  It equals folding the one-step retracts of `gauss` with
    `SDRData.then`, and the homotopy is exact.
    """
    ws = _Workspace(*deloop(c, track_sdr))
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


def _place(a: Complex, b: Complex, tangle_op):
    """The objects of the product of a and b and index[(ha, ia, hb, ib)], the
    position at degree ha + hb of tangle_op(oa, ob) with q-shift qa + qb;
    the objects of a degree are ordered by (ha, hb, ia, ib)."""
    ceiling = object_ceiling()
    index: dict[tuple[int, int, int, int], int] = {}
    objects: dict[int, list[GradedObject]] = {}
    for ha, objas in a.objects.items():
        for hb, objbs in b.objects.items():
            lst = objects.setdefault(ha + hb, [])
            for ia, oa in enumerate(objas):
                for ib, ob in enumerate(objbs):
                    index[(ha, ia, hb, ib)] = len(lst)
                    lst.append(GradedObject(tangle_op(oa.tangle, ob.tangle),
                                            oa.qshift + ob.qshift))
            _check_ceiling("product", ha + hb, len(lst), ceiling)
    return objects, index


def _product(n: int, a: Complex, b: Complex, left: ChainMap | None = None,
             right: ChainMap | None = None):
    """The bilinear product of complexes a and b on n strands, and of maps on
    its factors: f (x) 1 + 1 (x) g for `left` None or f out of a and `right`
    None or g out of b.

    It stacks (a on top) when a and b have n strands and juxtaposes (a on
    the left) when their counts add up to n; closed factors (n = 0), whose
    stacking and juxtaposition are both the disjoint union, are stacked, so
    b's circles come first.  A component m of f gives morphism_op(m, 1),
    one of g the Koszul-signed (-1)^(ha * g.dh) morphism_op(1, m); the
    differential is the product of differential_map(a) and
    differential_map(b).  A map whose target differs from its source (given
    alone) lands in the targets' product, placed by the same `_place`.
    Returns (objects of a (x) b, objects of the targets' product, components).
    """
    if a.n == b.n == n:
        tangle_op, morphism_op = (lambda s, t: stack_tangles(s, t).tangle), stack
    elif a.n + b.n == n:
        tangle_op, morphism_op = ((lambda s, t: juxtapose_tangles(s, t)[0]),
                                  juxtapose_morphism)
    else:
        raise ValueError(f"factors on {a.n} and {b.n} strands have no product "
                         f"on {n} strands")
    objects, index = _place(a, b, tangle_op)
    tgt_a, tgt_b = left.tgt if left else a, right.tgt if right else b
    tgt_objects, tgt_index = ((objects, index) if tgt_a is a and tgt_b is b
                              else _place(tgt_a, tgt_b, tangle_op))

    # components[h][(i, j)] of each side as cols[h][j] = {i: m}, in order
    cols_l, cols_r = (_lines(f.components) if f else {} for f in (left, right))
    # Each product with an identity is built once per (component, tangle,
    # sign; 0 for f) and shared; components stay alive in their maps, so
    # id() names them.  No entry gets two products: f lands at degrees
    # (ha + f.dh, hb), g at (ha, hb + g.dh), and both come only for the
    # differential, so summing would only filter zeros.
    made: dict[tuple, CobMorphism] = {}
    comps: dict[int, dict[tuple[int, int], CobMorphism]] = {}
    for (ha, ia, hb, ib), idx in index.items():
        slot = comps.setdefault(ha + hb, {})
        oa, ob = a.objects[ha][ia].tangle, b.objects[hb][ib].tangle
        for i2, m in cols_l.get(ha, {}).get(ia, {}).items():
            p = made.get(key := (id(m), ob, 0)) or made.setdefault(
                key, morphism_op(m, CobMorphism.identity(ob)))
            if p.terms:
                slot[(tgt_index[(ha + left.dh, i2, hb, ib)], idx)] = p
        sign = -1 if right and (ha * right.dh) % 2 else 1
        for i2, m in cols_r.get(hb, {}).get(ib, {}).items():
            p = made.get(key := (id(m), oa, sign)) or made.setdefault(
                key, morphism_op(CobMorphism.identity(oa), m).scale(sign))
            if p.terms:
                slot[(tgt_index[(ha, ia, hb + right.dh, i2)], idx)] = p
    return objects, tgt_objects, comps


def _product_complex(n: int, a: Complex, b: Complex) -> Complex:
    objects, _, diff = _product(n, a, b, differential_map(a), differential_map(b))
    return Complex(n, objects, diff)


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
    that of their targets; it stacks or juxtaposes as `_product` does for
    src's strand count.
    """
    f, g = (x if isinstance(x, ChainMap) else None for x in (left, right))
    if (f is None) == (g is None):
        raise InvariantError("product_map takes a map on exactly one factor")
    objects, tgt_objects, comps = _product(src.n, f.src if f else left,
                                           g.src if g else right, f, g)
    if objects != src.objects or tgt_objects != tgt.objects:
        raise InvariantError("product_map: src and tgt must be the products "
                             "of the factors' sources and targets")
    return ChainMap(src, tgt, (f or g).dh, (f or g).dq, comps)


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
         cancel: bool = True) -> tuple[Complex, list[ChainMap]]:
    """Apply `steps` to `cur` in order, carrying its endomorphisms `maps`.

    A `Slice` step takes the undelooped product with the slice on top,
    `tensor_indexed(slice, cur)`, or below it when `under`; a CLOSE step
    takes `partial_trace_complex(cur)` and traces every component of each
    map.  The result is simplified, or only delooped
    when not `cancel`, tracking the retract only when maps travel; each map
    moves by `product_map` (on its factor) and `transport_endomorphism`.
    Returns (complex, maps): the given maps, then the slices' maps in step
    order.  The engine functions are module globals looked up at each step,
    so a tracer that rebinds them sees every one.
    """
    maps = list(maps)
    for step in steps:
        if step is CLOSE:
            raw = partial_trace_complex(cur)
            maps = [ChainMap(raw, raw, f.dh, f.dq,
                             {h: {k: trace_morphism(m) for k, m in e.items()}
                              for h, e in f.components.items()})
                    for f in maps]
        else:
            factors = (cur, step.complex) if step.under else (step.complex, cur)
            raw = tensor_indexed(*factors)
            mine = 0 if step.under else 1  # the accumulator's factor
            maps = ([_on_factor(raw, factors, mine, f) for f in maps]
                    + [_on_factor(raw, factors, 1 - mine, g) for g in step.maps])
        cur, sdr = (simplify if cancel else deloop)(raw, track_sdr=bool(maps))
        maps = [transport_endomorphism(f, sdr) for f in maps]
    return cur, maps


def _on_factor(raw: Complex, factors: tuple, k: int, f: ChainMap) -> ChainMap:
    """The endomorphism f of factors[k], as one of their product raw."""
    args = list(factors)
    args[k] = f
    return product_map(raw, raw, *args)


def shift(c: Complex, dh: int, dq: int) -> Complex:
    """t^dh q^dq; the differential picks up (-1)^dh."""
    sign = -1 if dh % 2 else 1
    objects = {h + dh: [GradedObject(o.tangle, o.qshift + dq) for o in objs]
               for h, objs in c.objects.items()}
    diff = {h + dh: {k: m.scale(sign) for k, m in entries.items()}
            for h, entries in c.diff.items()}
    return Complex(c.n, objects, diff)


def direct_sum(a: Complex, b: Complex) -> Complex:
    if a.n != b.n:
        raise ValueError("strand-count mismatch in direct sum")
    return _assemble(a.n, [a, b])[0]


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
    parts = [shift(f.src, f.dh - 1, f.dq), f.tgt]
    block = {k + f.dh - 1: entries for k, entries in f.components.items()}
    out, _ = _assemble(f.src.n, parts, [(1, 0, block)])
    out.check()
    return out


# ---------------------------------------------------------------------------
# HOM complexes of free abelian groups
# ---------------------------------------------------------------------------

class ZComplex:
    """Bigraded free Z-complex with differential of bidegree (1, 0)."""

    __slots__ = ("groups", "diffs")

    def __init__(self, groups: dict[tuple[int, int], list],
                 diffs: dict[tuple[int, int], list[list[int]]]):
        self.groups = {k: list(v) for k, v in sorted(groups.items()) if v}
        self.diffs = {k: m for k, m in sorted(diffs.items())
                      if any(any(row) for row in m)}

    def rank(self, i: int, j: int) -> int:
        return len(self.groups.get((i, j), []))

    def check(self) -> None:
        """d^2 = 0, over the nonzeros of each pair of consecutive matrices."""
        for (i, j), m in self.diffs.items():
            nxt = self.diffs.get((i + 1, j))
            if nxt is None:
                continue
            # nonzeros of nxt by column: r -> [(s, nxt[s][r])]
            nxt_cols = [[(s, y) for s, y in enumerate(col) if y] for col in zip(*nxt)]
            for col in zip(*m):
                out: dict[int, int] = {}
                for r, x in [(r, x) for r, x in enumerate(col) if x]:
                    for s, y in nxt_cols[r]:
                        out[s] = out.get(s, 0) + x * y
                if any(out.values()):
                    raise InvariantError(f"d^2 != 0 at {(i, j)}")


def _hom_basis(a: Complex, b: Complex, only: tuple[int, int] | None = None):
    """Basis of HOM(a, b): labels (k, ia, ib, mask) grouped by bidegree (i, j),
    each group in label order; with only=(i, j), that group alone, read off
    degree k + i of b only."""
    groups: dict[tuple[int, int], list] = {}
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
                    for mask in range(1 << nc):
                        key = (kb - k, j0 + 2 * mask.bit_count())
                        if only is None or key == only:
                            groups.setdefault(key, []).append((k, ia, ib, mask))
    return groups if only is None else groups.get(only, [])


def _hom_columns(matrix, col0: int, a: Complex, b: Complex, i: int, basis,
                 after=(), before=()) -> bool:
    """Add to column col0 + c of a matrix the composites of the c-th label
    (k, ia, ib, mask) of HOM^i(a, b), read as a one-term morphism x.  Each
    side is (lines, rows, scale): `after` lines are block columns (see
    `_lines`), and each g on the one out of x's target adds scale (g o x) at
    rows (k, ia, row of g, mask); `before` lines are block rows, and each g
    on the one into x's source adds scale (x o g) at rows (k - 1, column of
    g, ib, mask).  Labels not in rows are skipped.  Terms come off
    `_compose_terms`.  Returns whether any entry was touched; zero terms
    touch nothing."""
    touched = False
    for c, (k, ia, ib, mask) in enumerate(basis, col0):
        x = CobMorphism(a.objects[k][ia].tangle, b.objects[k + i][ib].tangle, {mask: 1})
        composites = [((k, ia, i2), rows, scale, _compose_terms(g, x))
                      for lines, rows, scale in after
                      for i2, g in lines.get(k + i, {}).get(ib, {}).items()]
        composites += [((k - 1, j2, ib), rows, scale, _compose_terms(x, g))
                       for lines, rows, scale in before
                       for j2, g in lines.get(k - 1, {}).get(ia, {}).items()]
        for head, rows, scale, (terms, factor) in composites:
            factor = scale if factor is None else scale * factor
            for mask2, coeff in terms.items():
                row = rows.get((*head, mask2))
                if row is not None and coeff:
                    matrix[row][c] += factor * coeff
                    touched = True
    return touched


def hom_complex(a: Complex, b: Complex) -> ZComplex:
    """HOM(a, b) as integer matrices over the dotted-disk basis.

    The differential is f -> d_b o f - (-1)^deg_h(f) f o d_a.
    """
    groups = _hom_basis(a, b)
    b_cols, a_rows = _lines(b.diff), _lines(a.diff, by_row=True)
    diffs: dict[tuple[int, int], list[list[int]]] = {}
    for (i, j), basis in groups.items():
        tgt = {lab: r for r, lab in enumerate(groups.get((i + 1, j), ()))}
        if not tgt:
            continue
        matrix = [[0] * len(basis) for _ in range(len(tgt))]
        _hom_columns(matrix, 0, a, b, i, basis, [(b_cols, tgt, 1)],
                     [(a_rows, tgt, 1 if i % 2 else -1)])
        diffs[(i, j)] = matrix
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
    system over the dotted-disk basis (Smith normal form), so earlier greedy
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

    # the total complex: piece k at offset offs[k], where the shift supplies
    # the sign (-1)^offset of its own differential
    parts = [shift(piece, off, 0) for piece, off in zip(pieces, offs)]
    blocks = [(k2, k1, {h + offs[k1]: e for h, e in block.items()})
              for (k2, k1), block in comps.items()]
    return _assemble(pieces[0].n, parts, blocks)[0]


def _attach_piece(pieces, offs, comps, k, min_total_degree):
    """Solve jointly for all components D_{j,k}, j >= k+2, attaching E_k;
    returns the nonzero blocks {j: D_{j,k}}.

    The constraints are (D^2)_{j,k} = 0 for j = k+2..m-1:
        sign_j d X_j + sign_k X_j d + sum_{k<mid<j} D_{j,mid} X_{mid} = 0
    with X_{k+1} = alpha_k fixed.  Linear over Z in the X's: X_j runs over
    the HOM^{k+1-j,0}(E_k, E_j) basis and its equations over the
    HOM^{k+2-j,0} one from min_total_degree up, concatenated piece by piece.
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

    # X_j meets d on E_j and each block D_{j2,j} after it, d on E_k before
    matrix = [[0] * sum(map(len, unknowns.values())) for _ in range(n_rows)]
    src_rows = _lines(src.diff, by_row=True)
    col0 = 0
    for j, basis in unknowns.items():
        after = [(_lines(pieces[j].diff), rows[j], -1 if offs[j] % 2 else 1)]
        after += [(_lines(comps[(j2, j)]), rows[j2], 1)
                  for j2 in range(j + 1, m) if (j2, j) in comps]
        _hom_columns(matrix, col0, src, pieces[j], k + 1 - j, basis, after,
                     [(src_rows, rows[j], sign_k)])
        col0 += len(basis)
    sol = solve_integer(matrix, rhs)
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
