"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every oracle accepts a true answer on a tiny input and rejects a
   deliberately corrupted one: a graded rank changed (projector, links), a
   torsion factor dropped (links, ext), a q3 rank changed and a differential
   entry doubled (solver).  This proves the checks can fail.
2. Every workload runs end to end with a tiny run length, traced and
   untraced, and prints exactly the metrics BENCHMARK.json names, with no
   failed op.
3. In a directory that holds only BENCHMARK.json and the benchmark, the
   benchmark exits with an error and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def rejected(problems: list[str], needle: str) -> bool:
    return any(needle in p for p in problems)


def corrupt_rank(groups):
    """The same groups with the free rank of one bidegree raised by one."""
    key = min(groups.groups)
    out = dict(groups.groups)
    rank, torsion = out[key]
    out[key] = (rank + 1, torsion)
    return dataclasses.replace(groups, groups=out)


def drop_torsion(groups):
    """The same groups with one torsion factor removed."""
    key = next(k for k, (_, t) in sorted(groups.groups.items()) if t)
    out = dict(groups.groups)
    rank, torsion = out[key]
    out[key] = (rank, torsion[1:])
    return dataclasses.replace(groups, groups=out)


def oracle_checks() -> None:
    from catsl2 import complexes, projectors
    from catsl2.cobordism import FlatTangle, GradedObject
    import oracles
    import workloads

    engine = run.Engine()
    for name, make in workloads.WARMUPS.items():
        _, _, problems, _, _ = engine.run(make())
        expect(not problems, f"{name}: warm-up op passes its oracle {problems}")

    # projector: one graded rank changed
    proj = projectors.truncated_pn(3, 2)
    expect(not oracles.check_projector(2, proj), "projector: P_3(2) accepted")
    extra = complexes.Complex.from_object(GradedObject(FlatTangle.identity(3), 2), 3, 0)
    bad = dataclasses.replace(proj, complex=complexes.direct_sum(proj.complex, extra))
    expect(rejected(oracles.check_projector(2, bad), "chi(P_3)"),
           "projector: one extra object at (0, 2) rejected by chi = jw(3)")

    # links: one rank changed, one torsion factor dropped
    op = workloads.link_op(2, (1, 1, 1), "trace", (1,), ((1, ()),))  # has Z/2
    d = op.prepare()
    groups, exact, z = op.run(d)
    expect(not oracles.check_link(d, groups, exact, z), "links: trefoil accepted")
    expect(rejected(oracles.check_link(d, corrupt_rank(groups), exact, z), "TL colored"),
           "links: one rank changed rejected by the TL invariant")
    expect(rejected(oracles.check_link(d, drop_torsion(groups), exact, z), "F_2"),
           "links: one torsion factor dropped rejected by F_2 coefficients")

    # ext: one torsion factor dropped, one rank changed
    op = workloads.ext_op("q3", "q3")
    groups, z = op.run(op.prepare())
    expect(not oracles.check_ext(z, groups), "ext: Ext(q3, q3) accepted")
    expect(rejected(oracles.check_ext(z, drop_torsion(groups)), "F_2"),
           "ext: one torsion factor dropped rejected by F_2 coefficients")
    expect(rejected(oracles.check_ext(z, corrupt_rank(groups)), "HOM ranks"),
           "ext: one rank changed rejected by chi of the HOM ranks")

    # solver: one q3 rank changed, one differential entry doubled
    build = projectors.build_qn(3, 12)
    expect(not oracles.check_solver(build), "solver: build_qn(3, 12) accepted")
    extra = complexes.Complex.from_object(GradedObject(FlatTangle.identity(3), 0), 3, 0)
    bad = dataclasses.replace(build, complex=complexes.direct_sum(build.complex, extra))
    expect(rejected(oracles.check_solver(bad), "q3()"),
           "solver: one extra q3 rank rejected by the rank check")
    c = build.complex
    h = next(h for h in sorted(c.diff) if h + 1 in c.diff)
    key = next(iter(c.diff[h]))
    diff = {hh: dict(e) for hh, e in c.diff.items()}
    diff[h][key] = diff[h][key].scale(2)
    bad = dataclasses.replace(build, complex=complexes.Complex(c.n, c.objects, diff))
    expect(rejected(oracles.check_solver(bad), "d^2"),
           "solver: one differential entry doubled rejected by d^2 = 0")


def end_to_end_checks() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            ok = (out.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                  and sorted(result.get("metrics", {})) == sorted(names[trace]))
            expect(ok, f"{w['name']} --trace {trace}: exit 0, correct, every metric "
                       f"present {'' if ok else out.stderr[-400:]}")


def bare_directory_check() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and '"metrics"' not in out.stdout,
               "without the engine sources: nonzero exit and no result")


def main() -> int:
    run.import_engine()
    oracle_checks()
    end_to_end_checks()
    bare_directory_check()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
