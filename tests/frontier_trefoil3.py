"""Frontier check: the 3-colored trefoil on the fill-in pivot key.

    PYTHONPATH=src python tests/frontier_trefoil3.py

Computes `link_homology` of the trace closure of (1, 1, 1) on 2 strands,
colored 3 with the family (3,) box, at window 8, from cold caches, on the
fill-in key that `links.bracket_colored` takes.  It must give the groups
digest below (the first 16 hex digits of the sha256 of the groups' JSON)
with at most COMPOSITE_CAP composites (calls of `complexes._add_terms`; it
makes 399,431 on the fold that closes each strand after the last slice
that touches it).  Prints one line and exits 1 on a failed check.  The
file name keeps it out of the tier-1 collection: it takes 10-20 s.
"""

from __future__ import annotations

import sys

from frontier_fig8 import run

from catsl2.links import ColoredDiagram

DIAGRAM = ColoredDiagram(2, (1, 1, 1), "trace", (3,), (0,), (1,), ((3, (3,)),))
WINDOW = 8
DIGEST = "d32a542dd3d16183"
COMPOSITE_CAP = 450_000


def main() -> int:
    digest, count, seconds = run(DIAGRAM, WINDOW)
    print(f"fill-in  digest {digest}  composites {count:,}  {seconds:.1f} s")
    failures = []
    if digest != DIGEST:
        failures.append(f"digest {digest}, expected {DIGEST}")
    if count > COMPOSITE_CAP:
        failures.append(f"{count:,} composites > {COMPOSITE_CAP:,}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
