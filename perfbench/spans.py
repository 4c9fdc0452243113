"""Layer spans recorded from outside the engine.

The tracer rebinds each timed catsl2 function, in every catsl2 module that
holds it (found by object identity, since modules import functions under
other names), and patches the methods `ChainMap.then`, `SDRData.then` and
`TruncatedProjector.check` on their classes.  Patches are installed only
while an op runs, so oracles and set-up always run the original code.

Every span carries the op's id and its parent span's id.  The hottest
functions (the cobordism primitives and Smith normal form, called up to
~10^5-10^6 times per op) are leaves: they are not recorded one by one but
summed into counters per (parent span, name), so memory stays bounded.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping after a call returns is charged to the parent
as child time, so it inflates no layer's self time; it shows up only in the
traced wall time (`trace.overhead`).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute) of each timed function; leaves are aggregated.
LEAVES = [
    ("cobordism", "compose"),
    ("cobordism", "stack"),
    ("cobordism", "juxtapose"),
    ("cobordism", "partial_trace"),
    ("homology", "smith_normal_form"),
]
SPANS = [
    ("complexes", "gauss"),
    ("complexes", "deloop"),
    ("complexes", "tensor"),
    ("complexes", "tensor_indexed"),
    ("complexes", "juxtapose_complexes"),
    ("complexes", "partial_trace_complex"),
    ("complexes", "simplify"),
    ("complexes", "hom_complex"),
    ("complexes", "convolution_complete"),
    ("homology", "solve_integer"),
    ("homology", "kernel_basis"),
    ("homology", "integer_homology"),
    ("projectors", "truncated_pn"),
    ("links", "bracket_colored"),
]
# (module, class, method, span name)
METHODS = [
    ("complexes", "ChainMap", "then", "complexes.chainmap_then"),
    ("complexes", "SDRData", "then", "complexes.sdr_then"),
    ("projectors", "TruncatedProjector", "check", "projectors.check"),
]


def _catsl2_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "catsl2" or name.startswith("catsl2."))]


def _objects(result) -> int | None:
    """Object count of a returned complex (or of the first item returned)."""
    if isinstance(result, tuple) and result:
        result = result[0]
    result = getattr(result, "complex", result)
    total = getattr(result, "total_objects", None)
    return total() if callable(total) else None


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self):
        self.spans: list[tuple] = []        # (op, id, parent, name, start, end, self)
        self.leaves: dict[tuple, list] = {}  # (op, parent, name) -> [calls, seconds]
        self.stats: dict[str, dict[str, float]] = {}
        self.peak_objects = 0
        self.slice_peak_objects = 0
        self._stack: list[list] = []         # [span id, name, start, child seconds]
        self._next_id = 0
        self._op = None
        self._in_bracket = 0
        self._patches = self._plan()

    # -- patch plan ------------------------------------------------------------

    def _plan(self):
        import catsl2  # noqa: F401  (the modules must be loaded)
        mods = _catsl2_modules()
        by_name = {m.__name__.split(".")[-1]: m for m in mods}
        plan = []
        for group, make in ((LEAVES, self._leaf), (SPANS, self._span)):
            for modname, attr in group:
                fn = getattr(by_name[modname], attr)
                wrapper = make(f"{modname}.{attr}", fn)
                for m in mods:
                    for key, val in vars(m).items():
                        if val is fn:
                            plan.append((m, key, fn, wrapper))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(by_name[modname], cls_name)
            fn = cls.__dict__[attr]
            plan.append((cls, attr, fn, self._span(name, fn)))
        return plan

    def install(self, op_id: str) -> None:
        self._op = op_id
        self._stack.clear()
        self._stack.append([self._new_id(), "op", perf_counter(), 0.0])
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)

    def uninstall(self) -> float:
        """Remove the patches; return the share of op time under layer spans."""
        for target, key, fn, _ in self._patches:
            setattr(target, key, fn)
        sid, _, start, child = self._stack.pop()
        end = perf_counter()
        self.spans.append((self._op, sid, None, "op", start, end, end - start - child))
        return child / (end - start) if end > start else 1.0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _stat(self, name: str) -> dict[str, float]:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "self_s": 0.0}
        return st

    def _note_result(self, name: str, result) -> None:
        objs = _objects(result)
        if objs is None:
            return
        if objs > self.peak_objects:
            self.peak_objects = objs
        st = self.stats[name]
        if name == "complexes.deloop":
            st["objects_out"] = st.get("objects_out", 0) + objs
        elif name == "complexes.simplify" and self._in_bracket \
                and objs > self.slice_peak_objects:
            self.slice_peak_objects = objs

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn):
        st = self._stack
        stat = self._stat(name)
        is_bracket = name == "links.bracket_colored"
        is_hom = name == "complexes.hom_complex"

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            frame = [self._new_id(), name, enter, 0.0]
            st.append(frame)
            if is_bracket:
                self._in_bracket += 1
            try:
                start = perf_counter()
                result = fn(*args, **kwargs)
                end = perf_counter()
            finally:
                st.pop()
                if is_bracket:
                    self._in_bracket -= 1
            self_s = end - start - frame[3]
            stat["calls"] += 1
            stat["self_s"] += self_s
            self.spans.append((self._op, frame[0], st[-1][0], name, start, end, self_s))
            self._note_result(name, result)
            if is_hom:
                stat["basis_size"] = stat.get("basis_size", 0) + \
                    sum(len(v) for v in result.groups.values())
            st[-1][3] += perf_counter() - enter
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name: str, fn):
        st = self._stack
        stat = self._stat(name)
        leaves = self.leaves
        is_compose = name == "cobordism.compose"
        is_snf = name == "homology.smith_normal_form"

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - enter
                parent = st[-1]
                key = (self._op, parent[0], name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed
            if is_compose:
                g, f = args
                if _is_identity(g) or _is_identity(f):
                    stat["identity_factor"] = stat.get("identity_factor", 0) + 1
                if not result.terms:
                    stat["zero"] = stat.get("zero", 0) + 1
            elif is_snf:
                m = args[0]
                stat["entries"] = stat.get("entries", 0) + \
                    len(m) * (len(m[0]) if m else 0)
            parent[3] += perf_counter() - enter
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------------------

    def reset_counters(self) -> None:
        """Start a new pass: zero the per-name counters and peaks."""
        for st in self.stats.values():
            for key in st:
                st[key] = 0
        self.peak_objects = 0
        self.slice_peak_objects = 0

    def snapshot(self) -> dict[str, float]:
        out = {}
        for name, st in self.stats.items():
            for key, val in st.items():
                out[f"{name}.{key}"] = val
        out["complexes.peak_objects"] = self.peak_objects
        out["links.slice_peak_objects"] = self.slice_peak_objects
        return out

    def write(self, path) -> None:
        """Write every span and leaf counter recorded in this run as JSON."""
        doc = {
            "spans": [dict(zip(("op", "id", "parent", "name", "start", "end",
                                "self_s"), s)) for s in self.spans],
            "leaves": [{"op": op, "parent": parent, "name": name,
                        "calls": calls, "seconds": secs}
                       for (op, parent, name), (calls, secs) in self.leaves.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_identity(m) -> bool:
    """m is the identity of a circle-free tangle (a single undotted sheet set)."""
    return m.src == m.tgt and m.src.circles == 0 and m.terms == {0: 1}
