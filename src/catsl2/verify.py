"""The acceptance suite: the properties the engine promises, with budgets.

Each check returns a CheckResult; run_suite prints one PASS/FAIL line per
criterion.  Oracles used here are independent of the code paths they verify:
the small-dga oracle for the stable endomorphism homology is built directly
from integer matrices, and graded Euler characteristics are cross-checked in
the Temperley-Lieb algebra.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .cobordism import CobMorphism, FlatTangle, compose, glue
from .complexes import (Complex, ZComplex, closure, hom_complex, simplify,
                        tautological_complex, tensor)
from .config import Config
from .homology import integer_homology, projector_end_complex
from .links import ColoredDiagram, framing_check, invariance_spotcheck, \
    link_homology, merging_check
from .projectors import build_qn, q2, q3, truncated_pn, turnback_check
from .series import TruncatedSeries
from .tl import TLElement, all_matchings, euler_characteristic, jw


@dataclass
class CheckResult:
    name: str
    description: str
    ok: bool
    elapsed: float
    budget: float
    detail: str = ""

    @property
    def within_budget(self) -> bool:
        return self.elapsed <= self.budget

    def line(self) -> str:
        status = "PASS" if self.ok and self.within_budget else "FAIL"
        extra = "" if self.ok else f" [{self.detail}]"
        if self.ok and not self.within_budget:
            extra = f" [over budget {self.budget:.0f}s]"
        return f"{status}  {self.name}: {self.description} ({self.elapsed:.2f}s){extra}"


class CriterionFailed(AssertionError):
    """An acceptance criterion does not hold (raised even under `python -O`)."""


def _require(cond, msg: str) -> None:
    if not cond:
        raise CriterionFailed(msg)


def _check(name, description, budget, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        fn()
        ok, detail = True, ""
    except AssertionError as exc:
        ok, detail = False, str(exc) or "assertion failed"
    elapsed = time.perf_counter() - start
    return CheckResult(name, description, ok, elapsed, budget, detail)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def check_tl(cfg: Config):
    prec = max(cfg.precision, 30)
    for n in range(1, 5):
        p = jw(n, prec)
        one = TLElement.identity(n, prec)
        for i in range(1, n):
            e = TLElement.generator(i, n, prec)
            circle = TruncatedSeries.circle(prec)
            _require(e * e == e.scale(circle), f"e_{i}^2 relation at n={n}")
            if i + 1 < n:
                e2 = TLElement.generator(i + 1, n, prec)
                _require(e * e2 * e == e, "adjacent relation")
            for jdx in range(i + 2, n):
                ej = TLElement.generator(jdx, n, prec)
                _require(e * ej == ej * e, "distant commutation")
            _require((p * e).is_zero(), f"jw({n}) e_{i} != 0")
            _require((e * p).is_zero(), f"e_{i} jw({n}) != 0")
        _require(p * p == p, f"jw({n}) not idempotent")


def check_cobordism(cfg: Config):
    rng = random.Random(cfg.seed)

    def rand_tangle(n):
        return FlatTangle(n, rng.choice(all_matchings(n)), rng.randrange(2))

    def rand_basis(src, tgt):
        info = glue(src, tgt)
        mask = 0
        for i in range(len(info)):
            if rng.random() < 0.35:
                mask |= 1 << i
        return CobMorphism(src, tgt, {mask: rng.choice([1, -1, 2])})

    composites = 0
    trials = 0
    while composites < 10000:
        n = rng.randrange(1, 4)
        a, b, c, d = (rand_tangle(n) for _ in range(4))
        f, g, h = rand_basis(a, b), rand_basis(b, c), rand_basis(c, d)
        gf = compose(g, f)
        composites += 1
        if not gf.is_zero():
            _require(gf.deg_raw() == g.deg_raw() + f.deg_raw(), "degree additivity")
        if trials % 3 == 0:
            _require(compose(h, gf) == compose(compose(h, g), f), "associativity")
            composites += 3
        trials += 1
        # two dots on one component annihilate
        if trials % 50 == 0:
            t = rand_tangle(rng.randrange(1, 4))
            dot = CobMorphism.dotted_identity(t, 0)
            _require(compose(dot, dot).is_zero(), "dot^2 != 0")


def check_end11(cfg: Config):
    one = Complex.identity_complex(1)
    h = integer_homology(hom_complex(one, one))
    _require(h.groups == {(0, 0): (1, ()), (0, 2): (1, ())},
             f"END(1_1) = {h.groups}")


def check_turnbacks(cfg: Config):
    for n, qn in ((2, q2()), (3, q3())):
        qn.check()
        rep = turnback_check(qn)
        _require(rep["kills_turnbacks"], f"Q_{n} fails: {rep}")


def check_euler(cfg: Config):
    prec = max(cfg.precision, 30)
    for n, qn in ((2, q2()), (3, q3())):
        chi = euler_characteristic(qn, prec)
        target = jw(n, prec).scale(
            TruncatedSeries.one(prec) - TruncatedSeries.monomial(2 * n, 1, prec))
        _require(chi == target, f"chi(Q_{n}) != (1-q^{2*n}) jw({n})")


def check_idempotency(cfg: Config):
    qq, _ = simplify(tensor(q2(), q2()))
    ranks = q2().graded_ranks()
    predicted = dict(ranks)
    for (h, q), r in ranks.items():
        predicted[(h - 3, q + 4)] = predicted.get((h - 3, q + 4), 0) + r
    _require(qq.graded_ranks() == predicted, "graded ranks of Q2 (x) Q2")
    # closure homology agrees with the direct-sum prediction
    h_qq = integer_homology(tautological_complex(closure(qq)[0]))
    h_q = integer_homology(tautological_complex(closure(q2())[0]))
    _require(h_qq == h_q + h_q.shifted(-3, 4), "closure homology of Q2 (x) Q2")


def _w2_oracle(bmax: int) -> ZComplex:
    """Z[u1,u2]/(u1^2) (x) Lambda[xi], d(u2^b xi) = 2 u1 u2^(b+1), as sparse rows."""
    groups: dict[tuple[int, int], list] = {}
    for b in range(bmax + 1):
        for a in (0, 1):
            for e in (0, 1):
                h = -2 * b - 3 * e
                q = 2 * a + 4 * b + 6 * e
                groups.setdefault((h, q), []).append((a, b, e))
    for lst in groups.values():
        lst.sort()
    pos = {key: {lab: i for i, lab in enumerate(lst)} for key, lst in groups.items()}
    diffs = {}
    for key, lst in groups.items():
        h, q = key
        if (h + 1, q) not in groups:
            continue
        mat = [{} for _ in groups[(h + 1, q)]]
        for cidx, (a, b, e) in enumerate(lst):
            if e == 1 and a == 0:
                row = pos[(h + 1, q)].get((1, b + 1, 0))
                if row is not None:
                    mat[row][cidx] = 2
        diffs[key] = mat
    return ZComplex(groups, diffs)


def check_p2(cfg: Config):
    window = max(cfg.window, 9)
    p2 = truncated_pn(2, window)
    ranks = p2.complex.graded_ranks()
    for k in range(0, window + 1):
        key = (0, 0) if k == 0 else (-k, 2 * k - 1)
        _require(ranks.get(key) == 1, f"P2 object at h=-{k} missing")
    ext = integer_homology(projector_end_complex(p2.complex))
    safe = p2.complex.h_min() + 2
    _require(ext.groups.get((0, 0)) == (1, ()), "Ext^{0,0}(P2,P2) != Z")
    _require(ext.groups.get((-2, 4)) == (1, ()), "Ext^{-2,4}(P2,P2) != Z")
    for (h, q), v in ext.groups.items():
        if h >= safe and (h + q) in (1, 3):
            raise CriterionFailed(f"Ext at (h,q)=({h},{q}) with h+q in {{1,3}}: {v}")


def check_gor(cfg: Config):
    window = max(cfg.window, 9)
    p2 = truncated_pn(2, window)
    engine = integer_homology(projector_end_complex(p2.complex))
    safe = p2.complex.h_min() + 2
    oracle = integer_homology(_w2_oracle(window + 6))
    keys = {k for k in list(engine.groups) + list(oracle.groups) if k[0] >= safe}
    for key in sorted(keys):
        a = engine.groups.get(key)
        b = oracle.groups.get(key)
        _require(a == b, f"END(P2) vs W2 oracle at {key}: {a} != {b}")


def check_framing(cfg: Config):
    rep = framing_check(2, (2,), cfg.window)
    _require(rep["matches"], f"full twist on Q2 cable: {rep}")
    _require(rep["shift"] == {"t": 2, "q": -4}, f"{rep['shift']}")
    rep1 = framing_check(1, (1,), cfg.window)
    _require(rep1["matches"] and rep1["shift"] == {"t": 0, "q": 0}, f"{rep1}")
    # positive kink on the Q1-decorated unknot: closure of sigma_1 vs trivial
    fam = ((1, (1,)),)
    kinked = ColoredDiagram(strands=2, word=(1,), colors=(1,),
                            framings=(0,), marks=(1,), family=fam)
    flat = ColoredDiagram(strands=1, word=(), colors=(1,),
                          framings=(0,), marks=(1,), family=fam)
    h1, _ = link_homology(kinked, cfg.window)
    h2, _ = link_homology(flat, cfg.window)
    _require(h1 == h2, "positive kink is not the identity shift at n=1")


def check_merging(cfg: Config):
    rep = merging_check(2, (2,), cfg.window)
    _require(rep["matches"], f"merging factor mismatch: {rep}")
    _require(sorted(rep["factor_shifts"]) == [[-3, 4], [0, 0]], "merging factor shifts")


def check_invariance(cfg: Config):
    fam1 = ((1, ()),)
    unknots = [
        ColoredDiagram(1, (), "trace", (1,), (0,), (1,), fam1),
        ColoredDiagram(2, (1,), "trace", (1,), (0,), (1,), fam1),
        ColoredDiagram(2, (-1,), "trace", (1,), (0,), (1,), fam1),
    ]
    fam2 = ((2, (2,)),)
    unknots2 = [
        ColoredDiagram(1, (), "trace", (2,), (0,), (1,), fam2),
        ColoredDiagram(2, (), "plat", (2,), (0,), (1,), fam2),
        ColoredDiagram(2, (1, -1), "plat", (2,), (0,), (1,), fam2),
    ]
    trefoils = [
        ColoredDiagram(2, (1, 1, 1), "trace", (1,), (3,), (1,), fam1),
        ColoredDiagram(3, (1, 1, 1, 2), "trace", (1,), (3,), (1,), fam1),
        ColoredDiagram(3, (2, 1, 1, 1), "trace", (1,), (3,), (1,), fam1),
    ]
    for name, group in (("unknot", unknots), ("2-colored unknot", unknots2),
                        ("trefoil", trefoils)):
        base = group[0]
        for other in group[1:]:
            rep = invariance_spotcheck(base, other, cfg.window)
            _require(rep["equal"], f"{name}: presentations disagree: {rep}")


def check_solver(cfg: Config):
    b2 = build_qn(2)
    _require(b2.valid_h_min is None, "build_qn(2) claims a truncation window")
    _require(b2.complex.to_json() == q2().to_json(), "build_qn(2) differs from q2")
    b3 = build_qn(3, cfg.window)
    s3, _ = simplify(b3.complex)
    window_ranks = {k: v for k, v in s3.graded_ranks().items()
                    if k[0] > b3.valid_h_min}
    _require(window_ranks == q3().graded_ranks(),
             f"build_qn(3) ranks in window: {window_ranks}")


CRITERIA = [
    ("tl", "TL relations, jw(n) kills turnbacks and is idempotent, n <= 4",
     1.0, check_tl),
    ("cobordism", "composition associativity + degree additivity on 10^4 "
     "random composites; dots square to zero", 10.0, check_cobordism),
    ("end11", "END(1_1) = Z + q^2 Z via hom_complex and homology",
     1.0, check_end11),
    ("turnbacks", "Q2 and Q3 satisfy d^2 = 0 and kill all turnbacks",
     5.0, check_turnbacks),
    ("euler", "chi(Q_n) = (1 - q^2n) jw(n) for n in {2, 3}", 1.0, check_euler),
    ("idempotency", "Q2 (x) Q2 = Q2 + t^-3 q^4 Q2 in ranks and closure "
     "homology", 10.0, check_idempotency),
    ("p2", "truncated P2 normal form; Ext^{0,0} = Ext^{-2,4} = Z; "
     "h+q in {1,3} vanish in the safe window", 60.0, check_p2),
    ("gor", "END(P2) homology equals the small-dga oracle "
     "Z[u1,u2]/(u1^2) (x) Lambda[xi], d(xi) = 2 u1 u2", 120.0, check_gor),
    ("framing", "full twist shifts by t^2 q^-4 on the Q2 cable; kink is "
     "trivial at n = 1", 30.0, check_framing),
    ("merging", "two marks vs one relate by (1 + t^-3 q^4)", 60.0,
     check_merging),
    ("invariance", "three presentations each of the unknots and the trefoil "
     "agree", 120.0, check_invariance),
    ("solver", "build_qn(2) equals q2 exactly; build_qn(3) simplifies to q3 "
     "ranks", 300.0, check_solver),
]


SUITE_ALIASES = {
    "q2": ("turnbacks", "euler", "idempotency"),
    "q3": ("turnbacks", "euler", "solver"),
    "projectors": ("p2", "gor"),
    "links": ("framing", "merging", "invariance"),
}


def run_suite(cfg: Config | None = None, only: str | None = None,
              out=print) -> list[CheckResult]:
    cfg = cfg or Config()
    if only is None:
        wanted = None
    else:
        wanted = set()
        for part in only.split(","):
            wanted.update(SUITE_ALIASES.get(part, (part,)))
    chosen = [c for c in CRITERIA if wanted is None or c[0] in wanted]
    if only is not None and not chosen:
        raise ValueError(f"unknown suite {only!r}; "
                         f"choose from {[c[0] for c in CRITERIA]} "
                         f"or aliases {sorted(SUITE_ALIASES)}")
    results = [_check(name, desc, budget, lambda fn=fn: fn(cfg))
               for name, desc, budget, fn in chosen]
    for r in results:
        out(r.line())
    return results
