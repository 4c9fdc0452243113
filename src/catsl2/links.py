"""Colored framed oriented links as braid closures: cabling, brackets, homology.

An n-colored component is replaced by n parallel copies with alternating
orientations (up, down, up, ... left to right within each cable); the chosen
quasi-projector for that color is spliced in at each marked point.  Crossing
signs of the cabled elementary crossings are determined by the substrand
orientations, and framing coefficients expand into full twist words on the
cable.  Closures are trace closures by default; plat closures are realized
as the trace closure of (rainbows (x) braid), which is an isotopic diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cobordism import FlatTangle, GradedObject
from .complexes import (CLOSE, Complex, InvariantError, Slice, _json_int, fold,
                        simplify, tautological_complex)
from .homology import BigradedGroups, integer_homology
from .projectors import (QnBuild, braid_letter_complex, quasi_projector,
                         pad_columns)
from .tl import Matching


@dataclass(frozen=True)
class ColoredDiagram:
    """A colored, framed, oriented link presented as a braid closure.

    word: signed generator indices (+i for sigma_i); colors, framings and
    marks are indexed by closure component; family maps each color to the
    quasi-projector index sequence used for it.
    """

    strands: int
    word: tuple[int, ...]
    closure: str = "trace"           # 'trace' | 'plat'
    colors: tuple[int, ...] = (1,)
    framings: tuple[int, ...] = (0,)
    marks: tuple[int, ...] = (1,)
    family: tuple[tuple[int, tuple[int, ...]], ...] = ()
    orientations: tuple[int, ...] | None = None   # per component, +-1

    def __post_init__(self):
        if self.closure not in ("trace", "plat"):
            raise ValueError(f"unknown closure {self.closure!r}")
        bad = [x for x in self.word if not 1 <= abs(x) <= self.strands - 1]
        if bad:
            raise ValueError(f"braid generator {bad[0]} out of range for "
                             f"{self.strands} strands")
        comps = self.components()
        for name in ("colors", "framings", "marks"):
            if len(getattr(self, name)) != len(comps):
                raise ValueError(f"{name}: need one per component "
                                 f"({len(comps)})")
        if not all(m >= 1 for m in self.marks):
            raise ValueError("each component needs a mark")
        if not all(c >= 1 for c in self.colors):
            raise ValueError(f"colors must be >= 1, got {list(self.colors)}")
        absent = [c for c, _ in self.family if c not in self.colors]
        if absent:
            raise ValueError(f"family: color {absent[0]} is not among the "
                             f"colors {list(self.colors)}")
        if self.orientations is not None and (
                len(self.orientations) != len(comps)
                or not all(o in (1, -1) for o in self.orientations)):
            raise ValueError("orientations: need one +-1 per component")

    def permutation(self) -> list[int]:
        """perm[p] = top position reached by the strand entering at bottom p."""
        pos = list(range(self.strands))
        for letter in self.word:
            i = abs(letter) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out = [0] * self.strands
        for top_pos, strand in enumerate(pos):
            out[strand] = top_pos
        return out

    def components(self) -> list[list[int]]:
        """Closure components as sorted lists of bottom positions."""
        parent = list(range(self.strands))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        perm = self.permutation()
        if self.closure == "trace":
            for p in range(self.strands):
                union(p, perm[p])
        else:
            if self.strands % 2:
                raise ValueError("plat closure needs an even number of strands")
            for p in range(0, self.strands, 2):
                union(p, p + 1)
            inv = [0] * self.strands
            for p, t in enumerate(perm):
                inv[t] = p
            for t in range(0, self.strands, 2):
                union(inv[t], inv[t + 1])
        groups: dict[int, list[int]] = {}
        for p in range(self.strands):
            groups.setdefault(find(p), []).append(p)
        return sorted(groups.values())

    def component_of(self, p: int) -> int:
        for idx, comp in enumerate(self.components()):
            if p in comp:
                return idx
        raise ValueError(p)

    def family_for(self, color: int) -> tuple[int, ...]:
        for c, indices in self.family:
            if c == color:
                return tuple(indices)
        return ()

    @classmethod
    def from_json(cls, data: dict) -> ColoredDiagram:
        def ints(value, name: str) -> tuple[int, ...]:
            if not isinstance(value, list):
                raise ValueError(f"{name}: expected a list of integers, got {value!r}")
            return tuple(_json_int(x, name) for x in value)

        family = data.get("family", {})
        if not (isinstance(family, dict)
                and all(isinstance(v, dict) for v in family.values())):
            raise ValueError("family: expected {color: {\"indices\": [...]}}")
        fam = tuple(sorted((int(k), ints(v.get("indices", []), "family indices"))
                           for k, v in family.items()))
        colors = ints(data["colors"], "colors")
        orientations = data.get("orientations")
        return cls(strands=_json_int(data["braid"]["strands"], "braid strands"),
                   word=ints(data["braid"]["word"], "braid word"),
                   closure=data.get("closure", "trace"),
                   colors=colors,
                   framings=ints(data.get("framings", [0] * len(colors)), "framings"),
                   marks=ints(data.get("marks", [1] * len(colors)), "marks"),
                   family=fam,
                   orientations=(ints(orientations, "orientations")
                                 if orientations else None))


@dataclass
class CabledWord:
    """Elementary slices of the cabled diagram, bottom to top."""

    total_width: int
    slices: list = field(default_factory=list)
    # ('x', column, eps, parallel) or ('box', column, color)


def full_twist_word(n: int, power: int) -> list[int]:
    base = [i for _ in range(n) for i in range(1, n)]
    if power >= 0:
        return base * power
    inverse = [-i for i in reversed(base)]
    return inverse * (-power)


def cable(d: ColoredDiagram) -> CabledWord:
    """Expand the braid into elementary cabled slices with orientations.

    Substrand orientations start 'up, down, up, ...' within each cable and
    travel with the substrands; each elementary crossing records whether its
    two substrands are parallel, which fixes its oriented complex.
    """
    comps = d.components()
    color_of_pos = [d.colors[d.component_of(p)] for p in range(d.strands)]
    widths = list(color_of_pos)  # per current position
    # column orientations, per current column, travelling with substrands;
    # a reversed component flips the whole alternating pattern of its cable
    orients: list[int] = []
    for p in range(d.strands):
        base = 1 if d.orientations is None else d.orientations[d.component_of(p)]
        orients.extend(base * (1 if j % 2 == 0 else -1)
                       for j in range(widths[p]))
    out = CabledWord(total_width=sum(widths))

    def col_base(pos: int) -> int:
        return sum(widths[:pos])

    def emit_elementary(col: int, eps: int):
        parallel = orients[col] == orients[col + 1]
        out.slices.append(("x", col, eps, parallel))
        orients[col], orients[col + 1] = orients[col + 1], orients[col]

    def emit_block(pos: int, eps: int):
        """Cross the cable at `pos` over/under the cable at pos+1."""
        a, b = widths[pos], widths[pos + 1]
        base = col_base(pos)
        for k in range(a):
            for l in range(b):
                emit_elementary(base + (a - 1 - k) + l, eps)
        widths[pos], widths[pos + 1] = b, a

    for letter in d.word:
        emit_block(abs(letter) - 1, 1 if letter > 0 else -1)

    # at the top: framing twists and marks, one site per component
    perm = d.permutation()
    for cidx, comp in enumerate(comps):
        n = d.colors[cidx]
        top_columns = sorted(perm[p] for p in comp)
        site = top_columns[0]
        base = col_base(site)
        if d.framings[cidx]:
            for i in full_twist_word(n, d.framings[cidx]):
                emit_elementary(base + abs(i) - 1, 1 if i > 0 else -1)
        for _ in range(d.marks[cidx]):
            out.slices.append(("box", base, n))
    return out


def bracket_colored(d: ColoredDiagram, window: int = 12) -> tuple[Complex, bool]:
    """The bracket complex of the cabled, decorated closure, over Cob_0.

    Returns (complex, exact) where exact is False when any spliced
    quasi-projector was window-truncated.
    """
    cabled = cable(d)
    width = cabled.total_width
    boxes: dict[int, QnBuild] = {}
    exact = True
    for color in set(d.colors):
        boxes[color] = quasi_projector(color, d.family_for(color), window)
        if boxes[color].valid_h_min is not None:
            exact = False

    steps = [Slice(_crossing(sl, width) if sl[0] == "x"
                   else pad_columns(boxes[sl[2]].complex, sl[1] + 1, width))
             for sl in cabled.slices]
    if d.closure == "plat":
        steps.append(Slice(_rainbows(d, width)))
    cur, _ = fold(Complex.identity_complex(width), steps + [CLOSE] * width)
    return cur, exact


def _crossing(sl: tuple, width: int) -> Complex:
    """The complex of a cabled crossing slice ('x', column, eps, parallel)."""
    _, col, eps, parallel = sl
    return pad_columns(braid_letter_complex(eps, parallel), col + 1, width)


def _rainbows(d: ColoredDiagram, width: int) -> Complex:
    """Nested caps joining the cables of each plat pair at the top of the
    braid; trace-closing this over the braid realizes the plat closure."""
    if d.strands % 2:
        raise InvariantError("a plat closure needs an even strand count")
    perm = d.permutation()
    inv = [0] * d.strands
    for p, t in enumerate(perm):
        inv[t] = p
    top_widths = [d.colors[d.component_of(inv[t])] for t in range(d.strands)]
    pairing = [0] * (2 * width)
    base = 0
    for pair in range(d.strands // 2):
        wa, wb = top_widths[2 * pair], top_widths[2 * pair + 1]
        if wa != wb:
            raise InvariantError("plat-paired strands must share a color")
        span = wa + wb
        for j in range(wa):
            a, b = base + j, base + span - 1 - j
            pairing[a], pairing[b] = b, a
            pairing[width + a], pairing[width + b] = width + b, width + a
        base += span
    tangle = FlatTangle(width, Matching(width, tuple(pairing)))
    return Complex.from_object(GradedObject(tangle, 0), width)


def link_homology(d: ColoredDiagram, window: int = 12) -> tuple[BigradedGroups, bool]:
    """Bigraded homology of the tautological complex of the bracket."""
    c, exact = bracket_colored(d, window)
    groups = integer_homology(tautological_complex(c))
    return groups, exact


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

def framing_check(n: int, spec: tuple[int, ...] = (), window: int = 12) -> dict:
    """Full positive twist on the n-cable against the predicted shift G_n.

    G_n = t^(n^2/2) q^(-(n^2+2n)/2) for even n, t^((n^2-1)/2) q^(-(n^2+2n-3)/2)
    for odd n.  Verified by comparing simplified graded ranks of Tw_n (x) K
    with the shifted ranks of K.
    """
    if n % 2 == 0:
        g = (n * n // 2, -(n * n + 2 * n) // 2)
    else:
        g = ((n * n - 1) // 2, -(n * n + 2 * n - 3) // 2)
    build = quasi_projector(n, spec, window)
    k, _ = simplify(build.complex)
    tw = ColoredDiagram(strands=1, word=(), colors=(n,), framings=(1,),
                        marks=(1,), family=((n, tuple(spec)),))
    twist = [Slice(_crossing(sl, n)) for sl in cable(tw).slices if sl[0] == "x"]
    twisted, _ = fold(Complex.identity_complex(n), twist + [Slice(k, under=True)])
    ranks = twisted.graded_ranks()
    expected = {(h + g[0], q + g[1]): r for (h, q), r in k.graded_ranks().items()}
    if build.valid_h_min is not None:
        lo = build.valid_h_min + g[0] + 2
        ranks = {kq: v for kq, v in ranks.items() if kq[0] >= lo}
        expected = {kq: v for kq, v in expected.items() if kq[0] >= lo}
    return {"n": n, "spec": list(spec), "shift": {"t": g[0], "q": g[1]},
            "matches": ranks == expected,
            "ranks": sorted(ranks.items()),
            "expected": sorted(expected.items())}


def merging_check(n: int, spec: tuple[int, ...] = (), window: int = 12) -> dict:
    """Two marks versus one on the n-colored unknot: the homologies must
    relate by f(q, t) = prod_j (1 + t^(1-2i_j) q^(2i_j))."""
    fam = ((n, tuple(spec)),)
    one_mark = ColoredDiagram(strands=1, word=(), colors=(n,), framings=(0,),
                              marks=(1,), family=fam)
    two_marks = ColoredDiagram(strands=1, word=(), colors=(n,), framings=(0,),
                               marks=(2,), family=fam)
    h1, exact1 = link_homology(one_mark, window)
    h2, exact2 = link_homology(two_marks, window)
    expected = h1
    factors = [(0, 0)]
    for i in spec:
        factors = factors + [(f0 + 1 - 2 * i, f1 + 2 * i) for (f0, f1) in factors]
    total = BigradedGroups()
    for (dh, dq) in factors:
        total = total + h1.shifted(dh, dq)
    if not (exact1 and exact2):
        lo = -window + 6
        h2 = h2.restrict(lambda h, q: h >= lo)
        total = total.restrict(lambda h, q: h >= lo)
    return {"n": n, "spec": list(spec), "marks_compared": [2, 1],
            "factor_shifts": [[f0, f1] for (f0, f1) in factors],
            "matches": h2 == total,
            "two_marks": h2.to_json(), "predicted": total.to_json()}


def invariance_spotcheck(d1: ColoredDiagram, d2: ColoredDiagram,
                         window: int = 12) -> dict:
    """Equal bigraded homology for two presentations of the same link."""
    h1, exact1 = link_homology(d1, window)
    h2, exact2 = link_homology(d2, window)
    if not (exact1 and exact2):
        lo = -window + 6
        h1 = h1.restrict(lambda h, q: h >= lo)
        h2 = h2.restrict(lambda h, q: h >= lo)
    return {"equal": h1 == h2, "first": h1.to_json(), "second": h2.to_json(),
            "exact": exact1 and exact2,
            "marks": [list(d1.marks), list(d2.marks)]}
