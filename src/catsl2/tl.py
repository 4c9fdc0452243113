"""Temperley-Lieb algebra over truncated Laurent series.

Conventions for a diagram on n strands: 2n boundary points, labelled 0..n-1
along the bottom (left to right) and n..2n-1 along the top (left to right).
A diagram is a fixed-point-free involution of the labels that is planar for
the boundary cyclic order (bottom left-to-right, then top right-to-left).

Multiplication a * b stacks a on top of b; each closed loop created in the
middle contributes a factor (q + q^-1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .series import DEFAULT_PRECISION, PrecisionError, TruncatedSeries

if TYPE_CHECKING:  # pragma: no cover
    from .complexes import Complex


class InvariantError(AssertionError):
    """An engine invariant (d^2 = 0, chain map, SDR identity) failed.

    Raised explicitly rather than by `assert`, so the checks still run under
    `python -O`; it subclasses AssertionError for callers that catch that.
    Defined here, in the lowest module that raises it.
    """

Arc = frozenset  # frozenset({p, q}) of boundary labels, within one diagram


def _cyclic_pos(p: int, n: int) -> int:
    """Position of label p in the boundary cyclic order (bottom L2R, top R2L)."""
    return p if p < n else 3 * n - 1 - p


def is_planar_matching(pairing: tuple[int, ...]) -> bool:
    """Whether pairing is a fixed-point-free involution whose chords do not
    cross: read in cyclic order, each label closes the innermost open one."""
    m = len(pairing)
    n = m // 2
    if m % 2:
        return False
    for i, j in enumerate(pairing):
        if not 0 <= j < m or j == i or pairing[j] != i:
            return False
    order = [0] * m
    for p in range(m):
        order[_cyclic_pos(p, n)] = p
    open_labels: list[int] = []
    for p in order:
        if open_labels and open_labels[-1] == pairing[p]:
            open_labels.pop()
        else:
            open_labels.append(p)
    return not open_labels


@dataclass(frozen=True, order=True, init=False)
class Matching:
    """A crossingless matching of the 2n boundary points.

    Interned: `Matching(n, pairing)` returns the one live instance of that
    value (see `interned`), so it is validated once while an instance
    lives, and equality and hashing are object identity.  Order reads the
    fields.
    """

    n: int
    pairing: tuple[int, ...]
    __eq__ = object.__eq__  # one live instance per value
    __hash__ = object.__hash__

    def __new__(cls, n: int, pairing: tuple[int, ...]) -> Matching:
        return _matching(n, pairing)

    def __reduce__(self):  # copies and unpickled values are the live instance
        return Matching, (self.n, self.pairing)

    @classmethod
    def identity(cls, n: int) -> Matching:
        pairing = tuple((p + n) % (2 * n) for p in range(2 * n))
        return cls(n, pairing)

    @classmethod
    def e(cls, i: int, n: int) -> Matching:
        """Cup-cap generator joining strands i, i+1 (1-indexed, 1 <= i <= n-1)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"e_{i} undefined in TL_{n}")
        pairing = list((p + n) % (2 * n) for p in range(2 * n))
        a, b = i - 1, i
        pairing[a], pairing[b] = b, a
        pairing[n + a], pairing[n + b] = n + b, n + a
        return cls(n, tuple(pairing))

    def arcs(self) -> list[Arc]:
        return [frozenset((i, j)) for i, j in enumerate(self.pairing) if i < j]

    def flip(self) -> Matching:
        """Reflect top-to-bottom."""
        n = self.n
        phi = lambda p: p + n if p < n else p - n
        pairing = [0] * (2 * n)
        for p, q in enumerate(self.pairing):
            pairing[phi(p)] = phi(q)
        return Matching(n, tuple(pairing))


def interned(build):
    """The live instance for a value, built by `build(*key)` (which checks
    the key) only when none lives.  `table` holds each instance weakly, so
    its entry goes with the last instance, and no two live instances ever
    share a value whatever caches are cleared: equality and hashing can be
    identity, and a value is checked again only after it was collected."""
    table = weakref.WeakValueDictionary()

    def get(*key):
        obj = table.get(key)
        if obj is None:
            obj = table[key] = build(*key)
        return obj

    get.table = table
    return get


@interned
def _matching(n: int, pairing: tuple[int, ...]) -> Matching:
    """A new Matching(n, pairing), checked."""
    # explicit raises, not asserts, so the checks survive `python -O`
    if len(pairing) != 2 * n:
        raise ValueError("pairing length must be 2n")
    if not is_planar_matching(pairing):
        raise ValueError(f"non-planar pairing {pairing}")
    m = object.__new__(Matching)
    # frozen; setting attributes one by one keeps the compact shared-key dict
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "pairing", pairing)
    return m


@lru_cache(maxsize=None)
def all_matchings(n: int) -> tuple[Matching, ...]:
    """All crossingless matchings on 2n points (Catalan(n) of them)."""
    m = 2 * n
    pos_to_label = [0] * m
    for p in range(m):
        pos_to_label[_cyclic_pos(p, n)] = p
    def gen(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for k in range(0, len(rest), 2):
            for inside in gen(rest[:k]):
                for outside in gen(rest[k + 1:]):
                    yield ((first, rest[k]),) + inside + outside

    results = []
    for pairs in gen(tuple(range(m))):
        pairing = [0] * m
        for a, b in pairs:
            la, lb = pos_to_label[a], pos_to_label[b]
            pairing[la], pairing[lb] = lb, la
        results.append(Matching(n, tuple(pairing)))
    return tuple(sorted(results))


# ---------------------------------------------------------------------------
# Gluing matchings at points: one strand walker for stacking, partial trace
# and the curves of the cobordism layer, with the provenance of every point.
# ---------------------------------------------------------------------------

def follow(layers, joins, ends, inner) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Follow strands through matchings glued at points.

    `layers` are pairings of m points each; point p of layer i is coded as
    the int i * m + p.  `joins` lists the coded point pairs glued together.
    A strand runs between two of the `ends`, which become the result's
    labels 0, 1, ... in order; every other curve is a closed loop, numbered
    in the order of the first of the `inner` points on it.  Returns the
    result pairing, the loop count and `lands`: for each coded point, the
    port of the result its curve lands on (ports: labels, then loops), the
    smaller label of its strand or len(ends) + k on loop k.
    """
    m = len(layers[0])
    mate = [i * m + q for i, pairing in enumerate(layers) for q in pairing]
    hop = [-1] * len(mate)
    for a, b in joins:
        hop[a], hop[b] = b, a
    label = dict(zip(ends, range(len(ends))))
    pairing = [0] * len(ends)
    lands: list = [None] * len(mate)
    loops = 0
    for i, start in enumerate((*ends, *inner)):
        if lands[start] is not None:
            continue
        # ends come first, in label order: a walk from an end starts at its
        # strand's smaller label, and a walk from an inner point is a loop
        port = i if i < len(ends) else len(ends) + loops
        p = start
        while True:
            q = mate[p]
            lands[p] = lands[q] = port
            p = hop[q]
            if p < 0 or p == start:
                break
        if p < 0:
            pairing[port], pairing[label[q]] = label[q], port
        else:
            loops += 1
    return tuple(pairing), loops, tuple(lands)


@dataclass(frozen=True, eq=False)
class Glued:
    """The matching made by gluing matchings, and where their points went:
    `lands[i * m + p]` is the port of `result` that point p of layer i lands
    on, a point of `result` (the smaller end of its strand) or, from
    2 * result.n on, one of the `circles` new loops.  A tuple, so the cached
    result can be shared.
    """

    result: Matching
    circles: int
    lands: tuple[int, ...]


@lru_cache(maxsize=None)
def stack_matchings(top: Matching, bottom: Matching) -> Glued:
    """`top` (layer 0) on `bottom` (layer 1); loops are numbered by their
    smallest middle point."""
    if top.n != bottom.n:
        raise InvariantError("strand count mismatch")
    n, m = top.n, 2 * top.n
    # top's bottom point j meets bottom's top point n + j; the result keeps
    # bottom's bottom points and top's top points
    pairing, loops, lands = follow(
        (top.pairing, bottom.pairing), [(j, m + n + j) for j in range(n)],
        [*range(m, m + n), *range(n, m)], range(n))
    return Glued(Matching(n, pairing), loops, lands)


@lru_cache(maxsize=None)
def trace_matching(m: Matching) -> Glued:
    """Close the rightmost strand (layer 0): bottom point n-1 meets top point
    2n-1, and the other labels keep their order."""
    n = m.n
    if n < 1:
        raise InvariantError("cannot trace on zero strands")
    lo, hi = n - 1, 2 * n - 1
    pairing, loops, lands = follow((m.pairing,), [(lo, hi)],
                                   [*range(lo), *range(n, hi)], (lo,))
    return Glued(Matching(n - 1, pairing), loops, lands)


def juxtapose_matchings(left: Matching, right: Matching) -> tuple[Matching, dict]:
    """Place `right` to the right of `left`; returns (result, label map per side)."""
    nl, nr = left.n, right.n
    n = nl + nr

    def map_l(p: int) -> int:
        return p if p < nl else p + nr

    def map_r(p: int) -> int:
        # right bottom j -> nl + j; right top nr + t -> n + nl + t
        return nl + p if p < nr else n + nl + (p - nr)

    pairing = [0] * (2 * n)
    for p, q in enumerate(left.pairing):
        pairing[map_l(p)] = map_l(q)
    for p, q in enumerate(right.pairing):
        pairing[map_r(p)] = map_r(q)
    return Matching(n, tuple(pairing)), {"L": map_l, "R": map_r}


# ---------------------------------------------------------------------------
# TL elements
# ---------------------------------------------------------------------------

class TLElement:
    """Formal sum of crossingless matchings with truncated-series coefficients,
    built from a dict or (matching, series) pairs: a repeated matching's
    series are summed, as `TruncatedSeries` sums repeated exponents."""

    __slots__ = ("n", "terms", "precision")

    def __init__(self, n: int, terms: dict | Iterable[tuple[Matching, TruncatedSeries]] = (),
                 precision: int = DEFAULT_PRECISION):
        self.n = n
        self.precision = precision
        acc: dict[Matching, TruncatedSeries] = {}
        for m, s in terms.items() if isinstance(terms, dict) else terms:
            if m.n != n:
                raise InvariantError("mixed strand counts in TL element")
            acc[m] = acc[m] + s if m in acc else s
        self.terms = {m: s for m, s in sorted(acc.items()) if not s.is_zero()}

    @classmethod
    def identity(cls, n: int, precision: int = DEFAULT_PRECISION) -> TLElement:
        return cls(n, {Matching.identity(n): TruncatedSeries.one(precision)}, precision)

    @classmethod
    def generator(cls, i: int, n: int, precision: int = DEFAULT_PRECISION) -> TLElement:
        return cls(n, {Matching.e(i, n): TruncatedSeries.one(precision)}, precision)

    @classmethod
    def from_matching(cls, m: Matching, precision: int = DEFAULT_PRECISION) -> TLElement:
        return cls(m.n, {m: TruncatedSeries.one(precision)}, precision)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Matching) -> TruncatedSeries:
        return self.terms.get(m, TruncatedSeries.zero(self.precision))

    def __add__(self, other: TLElement) -> TLElement:
        if self.n != other.n:
            raise InvariantError("adding TL elements on different strand counts")
        return TLElement(self.n, [*self.terms.items(), *other.terms.items()],
                         self.precision)

    def __neg__(self) -> TLElement:
        return TLElement(self.n, {m: -s for m, s in self.terms.items()}, self.precision)

    def __sub__(self, other: TLElement) -> TLElement:
        return self + (-other)

    def scale(self, s: TruncatedSeries) -> TLElement:
        return TLElement(self.n, {m: c * s for m, c in self.terms.items()}, self.precision)

    def __mul__(self, other: TLElement) -> TLElement:
        return tl_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({s})*{m.pairing}" for m, s in self.terms.items())

    def to_json(self) -> list[dict]:
        return [{"matching": list(m.pairing), "series": s.to_json()}
                for m, s in self.terms.items()]


def tl_mul(a: TLElement, b: TLElement) -> TLElement:
    """Stack each diagram of a on top of each diagram of b; loops give (q+q^-1)."""
    if a.n != b.n:
        raise ValueError(f"strand-count mismatch {a.n} != {b.n}")
    if a.precision != b.precision:
        raise PrecisionError("precision mismatch")
    circle = TruncatedSeries.circle(a.precision)
    pairs = []
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            info = stack_matchings(ma, mb)
            coeff = ca * cb
            for _ in range(info.circles):
                coeff = coeff * circle
            pairs.append((info.result, coeff))
    return TLElement(a.n, pairs, a.precision)


@lru_cache(maxsize=None)
def jw(n: int, precision: int = DEFAULT_PRECISION) -> TLElement:
    """The Jones-Wenzl projector p_n, coefficients expanded as truncated series."""
    if n < 1:
        raise ValueError("jw(n) needs n >= 1")
    if precision < n:
        raise PrecisionError(f"precision {precision} too small to expand [ {n} ]^-1")
    if n == 1:
        return TLElement.identity(1, precision)
    prev = jw(n - 1, precision)
    boxed = juxtapose_tl(prev, TLElement.identity(1, precision))
    coeff = (TruncatedSeries.quantum_integer(n - 1, precision)
             * TruncatedSeries.quantum_integer(n, precision).inverse())
    e_last = TLElement.generator(n - 1, n, precision)
    return boxed - (boxed * e_last * boxed).scale(coeff)


def juxtapose_tl(a: TLElement, b: TLElement) -> TLElement:
    if a.precision != b.precision:
        raise PrecisionError("precision mismatch")
    return TLElement(a.n + b.n, [(juxtapose_matchings(ma, mb)[0], ca * cb)
                                 for ma, ca in a.terms.items()
                                 for mb, cb in b.terms.items()], a.precision)


def partial_trace_tl(a: TLElement) -> TLElement:
    """Close only the rightmost strand."""
    if a.n < 1:
        raise ValueError("nothing to trace")
    circle = TruncatedSeries.circle(a.precision)
    pairs = []
    for m, c in a.terms.items():
        info = trace_matching(m)
        pairs.append((info.result, c * circle if info.circles else c))
    return TLElement(a.n - 1, pairs, a.precision)


def closure_evaluate(a: TLElement) -> TruncatedSeries:
    """Markov-trace closure: close all strands, each loop contributing q+q^-1."""
    for _ in range(a.n):
        a = partial_trace_tl(a)
    return a.coefficient(Matching(0, ()))


def euler_characteristic(complex_: "Complex", precision: int = DEFAULT_PRECISION) -> TLElement:
    """Alternating sum of chain objects, loops evaluated at q+q^-1."""
    circle = TruncatedSeries.circle(precision)
    pairs = []
    for h, objs in complex_.objects.items():
        for obj in objs:
            c = TruncatedSeries.monomial(obj.qshift, -1 if h % 2 else 1, precision)
            for _ in range(obj.tangle.circles):
                c = c * circle
            pairs.append((obj.tangle.matching, c))
    return TLElement(complex_.n, pairs, precision)
