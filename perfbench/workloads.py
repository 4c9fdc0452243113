"""The four workloads: seeded op lists over the public catsl2 API.

A workload's op list (one "pass") is drawn from the seed.  Each workload is
made of strata; a pass takes one op from each stratum, and the seed picks
that op's input inside the stratum.  The inputs of one stratum are chosen so
that they cost the same work (component orientations, order of arguments,
shifts, or windows that materialize the same number of periodic copies; the
solver's windows differ by 2-3% in Smith normal form entries), so the seed
changes the answers the engine must produce but not the amount of work in a
pass.

Ops are kept short (at most about 2 s) so that every op repeats several
times in a run and its time can be taken as a median.  The median op time is
a median over all op times of a run, so each pass is built so that the ops
in the middle of the pass's cost order share one stratum or one cost range:
the median then falls inside one group of equal work rather than in the gap
between two ops of different cost.  See BENCHMARK.json for why each
workload exists.

Each op has three parts: `prepare` builds the inputs (untimed; for `ext` this
runs engine constructors, before the caches are cleared), `run` is the timed
call into the engine, and `check` is the oracle (untimed).  The engine is
always called through its module attributes, so a traced run sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from catsl2 import complexes, homology, links, projectors

import oracles


@dataclass
class Op:
    id: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]


# -- projector: truncated Cooper-Krushkal projectors with unit and u-maps -------------
# (n, windows): windows in one stratum materialize the same number of periodic
# copies.  P_2 is the cheap op, P_3 at w <= 2 the middle group of the cost
# order, P_3 at w in {3, 4} the dear op.

PROJECTOR_STRATA = [(3, (1, 2)), (2, (23, 24)), (3, (3, 4)), (3, (1, 2)), (3, (1, 2))]


def _projector_op(n: int, w: int) -> Op:
    return Op(f"truncated_pn({n},{w})", lambda: w,
              lambda w: projectors.truncated_pn(n, w),
              oracles.check_projector)


def projector_ops(rng: random.Random) -> list[Op]:
    return [_projector_op(n, rng.choice(ws)) for n, ws in PROJECTOR_STRATA]


# -- links: colored homology of braid closures ----------------------------------------
# (strands, word, closure, colors, family).  The seed picks the orientation of
# each component, which leaves the work unchanged; mirroring would not (it
# moves the compose count by up to 10% on the 3-strand unknot), so each
# chirality is its own shape.  Two 2-colored closures carry most of the time;
# the four shapes in the middle of the cost order take 0.1-0.25 s each.

LINK_SHAPES = [
    (2, (1, 1, 1), "trace", (2,), ((2, (2,)),)),              # 2-colored trefoil
    (3, (1, -2, 1, -2), "trace", (1,), ((1, (1,)),)),         # figure-eight
    (2, (1, 1), "trace", (2, 2), ((2, (2,)),)),               # 2-colored Hopf link
    (3, (1, 1, 2), "trace", (2, 1), ((1, (1,)), (2, (2,)))),  # mixed colors
    (2, (1, 1, 1), "plat", (1,), ((1, (1,)),)),               # plat closure
    (2, (1, 1), "trace", (2, 1), ((1, (1,)), (2, (1, 2)))),   # Hopf link, family (1,2)
    (2, (1, 1, 1, 1), "trace", (2, 1), ((1, (1,)), (2, (2,)))),  # T(2,4) link
    (3, (1, 1, -2), "trace", (2, 1), ((1, (1,)), (2, (2,)))),    # mixed signs
    (2, (1, 1, 1, 1), "trace", (1, 1), ((1, (1,)),)),         # T(2,4) link, 1-colored
]


def _link_run(d):
    c, exact = links.bracket_colored(d)
    z = complexes.tautological_complex(c)
    return homology.integer_homology(z), exact, z


def _link_check(d, answer) -> list[str]:
    groups, exact, z = answer
    return oracles.check_link(d, groups, exact, z)


def link_op(strands, word, closure, colors, family, orientations=None) -> Op:
    n = len(colors)
    d = links.ColoredDiagram(strands, word, closure, colors, (0,) * n, (1,) * n,
                             family, orientations)
    label = f"{closure}{word}colors{colors}family{family}orient{orientations}"
    return Op(label, lambda: d, _link_run, _link_check)


def links_ops(rng: random.Random) -> list[Op]:
    return [link_op(*shape, tuple(rng.choice((1, -1)) for _ in shape[3]))
            for shape in LINK_SHAPES]


# -- ext: Ext groups of pairs of complexes on <= 3 strands ----------------------------

def _pool(name: str):
    if name == "q2":
        return projectors.q2()
    if name == "q3":
        return projectors.q3()
    if name == "q2q2":
        return complexes.simplify(complexes.tensor(projectors.q2(), projectors.q2()))[0]
    if name.startswith("Q3"):
        return projectors.quasi_projector(3, tuple(int(c) for c in name[2:])).complex
    if name.startswith("P2_"):
        return projectors.truncated_pn(2, int(name[3:])).complex
    raise ValueError(name)


def ext_op(a: str, b: str, sa=(0, 0), sb=(0, 0)) -> Op:
    def prepare():
        return (complexes.shift(_pool(a), *sa), complexes.shift(_pool(b), *sb))

    def run(pair):
        z = complexes.hom_complex(*pair)
        return homology.integer_homology(z), z

    def check(_, answer):
        groups, z = answer
        return oracles.check_ext(z, groups)

    return Op(f"ext({a}{sa},{b}{sb})", prepare, run, check)


def ext_ops(rng: random.Random) -> list[Op]:
    def sh():
        return (rng.randint(-2, 2), 2 * rng.randint(-2, 2))

    def p2(pair):
        return ext_op(rng.choice(pair), rng.choice(pair), sh(), sh())

    return [
        ext_op("q2q2", "q2", sh(), sh()),
        p2(("P2_11", "P2_12")),
        ext_op("q3", "q3", sh(), sh()),
        p2(("P2_11", "P2_12")),
        ext_op(*rng.choice((("Q323", "q3"), ("q3", "Q323"))), sh(), sh()),
        p2(("P2_11", "P2_12")),
        p2(("P2_7", "P2_8")),
    ]


# -- solver: build_qn(3, w) through the convolution solver ------------------------------

SOLVER_STRATA = [(31, 32), (23, 24), (31, 32), (47, 48), (31, 32)]


def _solver_op(w: int) -> Op:
    return Op(f"build_qn(3,{w})", lambda: w,
              lambda w: projectors.build_qn(3, w),
              lambda _, build: oracles.check_solver(build))


def solver_ops(rng: random.Random) -> list[Op]:
    return [_solver_op(rng.choice(s)) for s in SOLVER_STRATA]


# -- registry -----------------------------------------------------------------------------

WORKLOADS = {
    "projector": projector_ops,
    "links": links_ops,
    "ext": ext_ops,
    "solver": solver_ops,
}

# One small op per workload, run once after import and counted in set-up.
WARMUPS = {
    "projector": lambda: _projector_op(3, 2),
    "links": lambda: link_op(2, (1, 1, 1), "trace", (1,), ((1, (1,)),)),
    "ext": lambda: ext_op("q2q2", "q2"),
    "solver": lambda: _solver_op(12),
}


def pass_ops(workload: str, seed: int) -> list[Op]:
    """The seeded op list of one pass of `workload`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
