"""Every public entry point of the package has a caller, or a stated reason.

A public (no leading underscore) module-level function or class of
`src/catsl2/` passes when its name appears, as a whole word, on some other
line of `src/catsl2/` (outside `__init__.py`, whose exports are not callers,
and outside its own `def`/`class` line) or in `perfbench/`.  Otherwise it
must be listed in KEPT with the reason it stays public.  A public method of
a public class passes when `.name` appears on such a line (an attribute
access: a call, a property read or a classmethod through its class), or
when `Class.name` is listed in KEPT_METHODS.

The match is by name only.  A name shared with a method, a local variable,
a dict key or a word in a comment or docstring counts as a caller, and a
method shares its callers with every method of that name (`Complex.check`
with `ZComplex.check`), so a shared name can hide a missing caller; the
test catches entry points whose name is nowhere else, not every dead one.
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
}

KEPT_METHODS = {
    "CobMorphism.cap_circle": "pinned by tests/goldens/cobordism_ops.json",
    "CobMorphism.cup_circle": "pinned by tests/goldens/cobordism_ops.json",
    "SafeWindow.require": "the refusal that truncated builds are to make",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _entry_points():
    """(module file, name, line of its definition, class name or None) for
    each public module-level function and class, and each public method of
    a public class."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(ast.parse(path.read_text()).body):
            yield path, node.name, node.lineno, None
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, method.name, method.lineno, node.name


def _lines():
    """(file, line number, text) for the lines a caller may sit on."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for number, text in enumerate(path.read_text().splitlines(), 1):
            yield path, number, text


def _uncalled(methods: bool) -> set[str]:
    lines = list(_lines())
    start = r"\." if methods else r"\b"  # an attribute access, or a whole word
    out = set()
    for path, name, lineno, owner in _entry_points():
        if (owner is not None) != methods:
            continue
        word = re.compile(start + re.escape(name) + r"\b")
        if not any(word.search(text) for p, number, text in lines
                   if (p, number) != (path, lineno)):
            out.add(f"{owner}.{name}" if methods else name)
    return out


def test_every_public_entry_point_has_a_caller_or_a_reason():
    uncalled = _uncalled(methods=False)
    assert uncalled == set(KEPT), (
        f"entry points without a caller: {sorted(uncalled - set(KEPT))}; "
        f"KEPT names that now have one: {sorted(set(KEPT) - uncalled)}")


def test_every_public_method_has_a_caller_or_a_reason():
    uncalled = _uncalled(methods=True)
    assert uncalled == set(KEPT_METHODS), (
        f"methods without a caller: {sorted(uncalled - set(KEPT_METHODS))}; "
        f"KEPT_METHODS names that now have one: "
        f"{sorted(set(KEPT_METHODS) - uncalled)}")
