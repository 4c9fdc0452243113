"""Frontier check: the mixed 2-colored figure-eight under both pivot keys.

    PYTHONPATH=src python tests/frontier_fig8.py

Computes `link_homology` of the figure-eight closure of (1, -2, 1, -2),
colored 2 with the family (2,) box, at window 12, once on the fill-in key
that `links.bracket_colored` takes and once on today's key (lowest (j, i)).
Both must give the groups digest below (the first 16 hex digits of the
sha256 of the groups' JSON), and the fill-in key must make at most
COMPOSITE_CAP composites (calls of `complexes._add_terms`; it makes 50,654
and today's key 66,602, on the fold that closes each strand after the last
slice that touches it).  Each run starts from cold caches.  Prints one line
per key and exits 1 on a failed check.  The file name keeps it out of the
tier-1 collection: it takes 5-10 s.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from catsl2 import complexes
from catsl2.links import ColoredDiagram, link_homology

DIAGRAM = ColoredDiagram(3, (1, -2, 1, -2), "trace", (2,), (0,), (1,), ((2, (2,)),))
WINDOW = 12
DIGEST = "4430c7ba58b74392"
COMPOSITE_CAP = 60_000


def run(diagram: ColoredDiagram, window: int,
        fill_in: bool = True) -> tuple[str, int, float]:
    """(groups digest, composites, seconds) of one `link_homology` call."""
    for name, module in list(sys.modules.items()):
        if name.startswith("catsl2."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    add_terms, simplify = complexes._add_terms, complexes.simplify
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return add_terms(*args)

    complexes._add_terms = counted
    if not fill_in:  # `fold` looks `simplify` up at each step
        complexes.simplify = lambda c, maps=(), fill_in=False: simplify(c, maps)
    try:
        start = time.perf_counter()
        groups, _ = link_homology(diagram, window)
        seconds = time.perf_counter() - start
    finally:
        complexes._add_terms, complexes.simplify = add_terms, simplify
    digest = hashlib.sha256(json.dumps(groups.to_json()).encode()).hexdigest()[:16]
    return digest, count, seconds


def main() -> int:
    failures = []
    for label, fill_in in (("fill-in", True), ("today", False)):
        digest, count, seconds = run(DIAGRAM, WINDOW, fill_in)
        print(f"{label:8} digest {digest}  composites {count:,}  {seconds:.1f} s")
        if digest != DIGEST:
            failures.append(f"{label} key: digest {digest}, expected {DIGEST}")
        if fill_in and count > COMPOSITE_CAP:
            failures.append(f"fill-in key: {count:,} composites > {COMPOSITE_CAP:,}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
