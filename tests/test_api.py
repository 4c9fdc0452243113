"""Every public entry point of the package has a caller, or a stated reason.

A public (no leading underscore) module-level function or class of
`src/catsl2/` passes when its name appears, as a whole word, on some other
line of `src/catsl2/` (outside `__init__.py`, whose exports are not callers,
and outside its own `def`/`class` line) or in `perfbench/`.  Otherwise it
must be listed in KEPT with the reason it stays public.

The match is by name only.  A name shared with a method, a local variable,
a dict key or a word in a comment or docstring counts as a caller, so a
shared name can hide a missing caller; the test catches entry points whose
name is nowhere else, not every dead one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catsl2"

KEPT = {
    "reflect": "pinned by tests/goldens/cobordism_ops.json",
    "u_action_on_homology": "the paper's u-action on homology, pinned by "
                            "tests/goldens/u_action_p2_w8.json",
    "SafeWindow": "the window type that truncated builds are to carry",
    "through_degree": "Temperley-Lieb oracle the engine is tested against",
    "partial_trace_tl": "Temperley-Lieb oracle the engine is tested against",
}


def _entry_points():
    """(module file, name, line of its definition) for each public
    module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node.lineno


def _lines():
    """(file, line number, text) for the lines a caller may sit on."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for number, text in enumerate(path.read_text().splitlines(), 1):
            yield path, number, text


def test_every_public_entry_point_has_a_caller_or_a_reason():
    lines = list(_lines())
    uncalled = []
    for path, name, lineno in _entry_points():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, number, text in lines
                   if (p, number) != (path, lineno)):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(KEPT), (
        f"entry points without a caller: {sorted(set(uncalled) - set(KEPT))}; "
        f"KEPT names that now have one: {sorted(set(KEPT) - set(uncalled))}")
