"""Benchmark of the catsl2 engine: time to an exact, checked answer.

    python3 perfbench/run.py --workload {projector,links,ext,solver}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the engine is imported from `src/` of that
checkout and nowhere else.  Load model: a closed loop with one client.  One
single-threaded process runs the seeded op list of one workload (a "pass"),
op after op.  The first pass is always whole; after it, the passes go on
until S seconds have gone by, and an op is started only if its last time
still fits in them.  Every op starts from cold engine state: every
functools cache in the catsl2 modules is cleared and garbage is collected
before the op's clock starts.  Every answer is checked by an oracle that does
not use the code path under test; an op fails if it raises or is rejected,
and it is never retried or dropped.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: setup_s (median over three processes of importing catsl2 and
running one warm-up op from cold state), wall_s (time to complete the op
list: the sum of each op's median time in the run), op_p50_s (median of all
op times in the run) and peak_rss_mb (peak resident memory of this process).
The three times are corrected for the machine's speed (see
`reference_seconds`): each op time is divided by the time of a fixed
reference loop run right before and right after it, each set-up time by the
loop's median time around it, and all are multiplied by REFERENCE_NOMINAL_S.
The raw times of every op and set-up, and the raw wall_s and op_p50_s, are
printed to stderr.  With --trace 1 passes alternate between untraced and
traced, and the metrics are the per-layer counters and self times of one
pass (see spans.py); the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
# metric names and units come from BENCHMARK.json, the single list of them
SPEC = ROOT / "BENCHMARK.json"

# The speed reference: a fixed pure-Python loop that uses no engine code.
# REFERENCE_NOMINAL_S is the loop's time at the reference speed (close to its
# median on a 2-vCPU Intel Xeon VM); speed-corrected times are in seconds at
# that speed.  Neither may change once a baseline has been taken.
REFERENCE_ITERATIONS = 40_000
REFERENCE_NOMINAL_S = 0.015

# counts that must repeat exactly between traced passes of one seed
EXACT_COUNTS = ("cobordism.compose.calls", "complexes.gauss.calls",
                "homology.smith_normal_form.calls", "complexes.peak_objects")


def import_engine():
    """Import catsl2 from this checkout's src/ (never an installed copy)."""
    if not (SRC / "catsl2" / "__init__.py").is_file():
        sys.exit(f"error: no engine sources at {SRC / 'catsl2'}")
    sys.path.insert(0, str(SRC))
    catsl2 = importlib.import_module("catsl2")
    if Path(catsl2.__file__).resolve().parent != (SRC / "catsl2").resolve():
        sys.exit(f"error: imported catsl2 from {catsl2.__file__}, not {SRC}")
    return catsl2


def find_caches() -> list:
    """Every functools cache reachable from the catsl2 modules and their
    classes, found by introspection so that caches added later are found."""
    found: dict[int, object] = {}

    def visit(obj):
        if callable(getattr(obj, "cache_clear", None)) and \
                callable(getattr(obj, "cache_info", None)):
            found.setdefault(id(obj), obj)

    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "catsl2" or name.startswith("catsl2.")):
            continue
        for val in vars(mod).values():
            visit(val)
            if isinstance(val, type) and val.__module__.startswith("catsl2"):
                for attr in vars(val).values():
                    visit(getattr(attr, "__func__", attr))
    return list(found.values())


def reference_seconds() -> float:
    """Time one run of the speed reference loop.

    The machine is shared: for spells of seconds to minutes, other tenants
    slow everything on it down by up to 1.3x, the engine and this loop alike.
    Dividing an op's time by the loop's time next to it removes most of that
    drift (see README.md).  The loop does dict and tuple work, as the engine
    does, and never touches the engine, so engine changes do not move it.
    """
    start = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 63, i % 7)
        acc[key] = acc.get(key, 0) + (i ^ (i >> 3))
    return time.perf_counter() - start


class Engine:
    """Runs ops from cold state and records the glue cache statistics."""

    def __init__(self):
        from catsl2 import cobordism
        self.caches = find_caches()
        self.glue = cobordism.glue   # the lru_cache wrapper, kept before any patching
        self.last_reference = None

    def cold(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()

    def run(self, op, tracer=None, op_id: str = ""):
        """Run one op; return (seconds, reference seconds, problems, glue
        cache info, coverage).  The reference time is the mean of the speed
        reference loop's runs just before and just after the op."""
        coverage = reference = None
        try:
            inputs = op.prepare()
            self.cold()
            before = self.last_reference or reference_seconds()
            if tracer is not None:
                tracer.install(op_id)
            try:
                start = time.perf_counter()
                answer = op.run(inputs)
                seconds = time.perf_counter() - start
            finally:
                if tracer is not None:
                    coverage = tracer.uninstall()
                self.last_reference = reference_seconds()
            reference = (before + self.last_reference) / 2
            info = self.glue.cache_info()
            problems = op.check(inputs, answer)
        except Exception as exc:  # any failure of the op is counted, not raised
            return None, reference, [f"{type(exc).__name__}: {exc}"], None, coverage
        return seconds, reference, problems, info, coverage


def setup_probe(workload: str) -> tuple[float, float, list[str]]:
    """Import the engine and run the workload's warm-up op from cold state.
    Return the seconds taken, the speed reference loop's median time around
    them, and the warm-up op's problems (its oracle runs after the clock)."""
    references = [reference_seconds() for _ in range(3)]
    start = time.perf_counter()
    import_engine()
    import workloads
    engine = Engine()
    op = workloads.WARMUPS[workload]()
    try:
        inputs = op.prepare()
        engine.cold()
        answer = op.run(inputs)
        seconds = time.perf_counter() - start
        problems = op.check(inputs, answer)
    except Exception as exc:  # a failed warm-up op is counted, not raised
        seconds = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    references += [reference_seconds() for _ in range(3)]
    return seconds, statistics.median(references), problems


def child_setup_probe(workload: str) -> tuple[float, float]:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--setup-probe", workload],
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"error: set-up probe failed: {out.stderr.strip()}")
    seconds, reference = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(reference)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Results:
    """Op outcomes of the passes of one kind (plain or traced)."""

    def __init__(self, ops_per_pass: int):
        self.attempted = self.failed = 0
        self.seconds: list[list[float]] = [[] for _ in range(ops_per_pass)]
        self.references: list[list[float]] = [[] for _ in range(ops_per_pass)]
        self.passes: list[float] = []

    def corrected(self) -> list[list[float]]:
        """Each op's times at the reference speed."""
        return [[x * REFERENCE_NOMINAL_S / r for x, r in zip(s, refs)]
                for s, refs in zip(self.seconds, self.references)]

    @staticmethod
    def wall(times: list[list[float]]) -> float:
        """Time to complete the op list: the sum of each op's median time.

        Ops repeat several times in a run, spread over it, and the median
        is the estimate of an op's cost that other tenants disturb least; an
        op's fastest repeat varies about twice as much from run to run.  Ops
        that never succeeded are left out.
        """
        return sum(statistics.median(s) for s in times if s)

    @staticmethod
    def p50(times: list[list[float]]) -> float:
        pooled = [x for s in times for x in s]
        return statistics.median(pooled) if pooled else 0.0

    def pass_seconds(self) -> float:
        return self.wall(self.seconds)


def run_pass(engine, ops, results, tracer=None, pass_no=0, deadline=None):
    """Run the ops of the pass in order.  With a deadline, stop before the
    first op whose last measured time would end after it.  Return the glue
    cache totals, the smallest share of op time covered by layer spans, and
    whether the pass was completed."""
    glue = {"hits": 0, "misses": 0, "entries": 0}
    coverage = 1.0
    total = 0.0
    for k, op in enumerate(ops):
        if deadline is not None and results.seconds[k] and \
                time.perf_counter() + results.seconds[k][-1] > deadline:
            return glue, coverage, False
        seconds, reference, problems, info, cov = engine.run(
            op, tracer, f"p{pass_no}.{k}:{op.id}")
        results.attempted += 1
        if problems:
            results.failed += 1
            print(f"# FAILED {op.id}: {problems}", file=sys.stderr)
        if seconds is not None:
            results.seconds[k].append(seconds)
            results.references[k].append(reference)
            total += seconds
        if info is not None:
            glue["hits"] += info.hits
            glue["misses"] += info.misses
            glue["entries"] = max(glue["entries"], info.currsize)
        if cov is not None:
            coverage = min(coverage, cov)
    results.passes.append(total)
    return glue, coverage, True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("projector", "links", "ext", "solver"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        seconds, reference, _ = setup_probe(args.setup_probe)
        print(f"{seconds!r} {reference!r}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    seconds, reference, warmup_problems = setup_probe(args.workload)
    setup_raw = [(seconds, reference)] + [child_setup_probe(args.workload)
                                          for _ in range(SETUP_SAMPLES - 1)]
    setup = [x * REFERENCE_NOMINAL_S / r for x, r in setup_raw]
    import workloads
    engine = Engine()
    ops = workloads.pass_ops(args.workload, args.seed)
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(engine.caches)} caches cleared per op", file=sys.stderr)

    plain, traced = Results(len(ops)), Results(len(ops))
    plain.attempted = 1                      # the warm-up op
    if warmup_problems:
        plain.failed = 1
        print(f"# FAILED warm-up op: {warmup_problems}", file=sys.stderr)
    snapshots: list[dict] = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    if tracer is None:
        # the first pass is always whole; later ones stop at the deadline
        run_pass(engine, ops, plain)
        pass_no, complete = 1, True
        while complete and time.perf_counter() < deadline:
            _, _, complete = run_pass(engine, ops, plain, pass_no=pass_no,
                                      deadline=deadline)
            pass_no += 1
    else:
        # pairs of an untraced and a traced pass, while a pair still fits
        pass_no = 0
        while not snapshots or time.perf_counter() + plain.passes[-1] + \
                traced.passes[-1] <= deadline:
            run_pass(engine, ops, plain, pass_no=pass_no)
            tracer.reset_counters()
            glue, coverage, _ = run_pass(engine, ops, traced, tracer, pass_no + 1)
            pass_no += 2
            snap = tracer.snapshot()
            lookups = glue["hits"] + glue["misses"]
            snap.update({
                "cobordism.glue.lookups": lookups,
                "cobordism.glue.hit_rate": glue["hits"] / lookups if lookups else 0.0,
                "cobordism.glue.entries": glue["entries"],
                "trace.coverage": coverage,
            })
            snapshots.append(snap)

    if tracer is None:
        corrected = plain.corrected()
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(plain.wall(corrected), "s"),
            "op_p50_s": metric(plain.p50(corrected), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        refs = [r for rs in plain.references for r in rs]
        print(f"# {len(plain.passes)} passes; op_p50_s over {len(refs)} op times; "
              f"setup samples (raw s, reference s) "
              f"{[(round(x, 4), round(r, 5)) for x, r in setup_raw]}", file=sys.stderr)
        print(f"# raw: wall_s {plain.wall(plain.seconds):.4f}, op_p50_s "
              f"{plain.p50(plain.seconds):.4f}; reference loop median "
              f"{statistics.median(refs) if refs else 0.0:.5f} s "
              f"(nominal {REFERENCE_NOMINAL_S})", file=sys.stderr)
        for op, secs in zip(ops, plain.seconds):
            print(f"#   {op.id}: {[round(x, 3) for x in secs]}", file=sys.stderr)
    else:
        metrics = layer_metrics(snapshots, plain, traced)
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        print(f"# spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(snapshots, plain, traced) -> dict:
    first = snapshots[0]
    for snap in snapshots[1:]:
        for key in EXACT_COUNTS:
            if snap.get(key, 0) != first.get(key, 0):
                print(f"# WARNING {key} differs between traced passes: "
                      f"{first.get(key, 0)} vs {snap.get(key, 0)}", file=sys.stderr)
    out = {}
    for m in json.loads(SPEC.read_text())["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead":
            value = traced.pass_seconds() / plain.pass_seconds()
        elif name == "trace.pass_s":
            value = traced.pass_seconds()
        elif name.endswith(".self_share"):
            layer = name[:-len(".self_share")]
            value = statistics.median(snap.get(f"{layer}.self_s", 0.0) / seconds
                                      for snap, seconds in zip(snapshots, traced.passes))
        elif name.endswith("_share"):
            layer, part = name.rsplit(".", 1)
            base = first.get(f"{layer}.calls", 0)
            value = first.get(f"{layer}.{part[:-len('_share')]}", 0) / base if base else 0.0
        else:
            value = first.get(name, 0)
        out[name] = metric(value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
