"""Every definition of the package is reached from a root, or has a stated reason.

The inventory walks `src/catsl2/` less `__init__.py`, whose exports call
nothing.  Its definitions are the module-level functions and classes and
the methods of those classes, public or private; a nested function belongs
to the definition around it.  The roots are

- the module-level statements other than definitions and imports: the
  CLI's `if __name__ == "__main__"` call of `main`, the `CRITERIA` table of
  `verify.py`, module constants;
- every name, attribute and identifier string in `perfbench/*.py` (the
  tracer names the functions it patches as `(module, name)` strings), and
  the names in KEPT and KEPT_METHODS, each of which reaches every
  definition it names.

A reached definition reaches what the names and attributes in it (its
decorators, defaults and annotations too) refer to.  A name reaches the
module-level definition it is bound to in its module: its own, or the
target of a `from .module import name as alias`.  An attribute `.x`
reaches every method named x, so a method still shares its callers with
the methods of its name (`ChainMap.then` with `SDRData.then`).  A class
reaches its bases, its class-level statements and its dunder methods, which
Python calls without naming them.

Every definition no root reaches must be named in KEPT (module level) or
KEPT_METHODS (`Class.method`) with the reason it stays, and a KEPT entry
must be one that the walk without KEPT does not reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catsl2"

KEPT = {
    "u_action_on_homology": "the paper's u-action on homology, pinned by "
                            "tests/goldens/u_action_p2_w8.json",
    "SafeWindow": "the window type that truncated builds are to carry",
    "through_degree": "Temperley-Lieb oracle the engine is tested against",
    "dual": "ROADMAP direction 2: the mirror image matches the dual",
}

KEPT_METHODS = {
    "CobMorphism.cap_circle": "pinned by tests/goldens/cobordism_ops.json",
    "CobMorphism.cup_circle": "pinned by tests/goldens/cobordism_ops.json",
    "SafeWindow.require": "the refusal that truncated builds are to make",
    "SDRData.verify": "the five SDR identities the tests check; ROADMAP "
                      "direction 3 moves SDRData into the tests",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Inventory:
    """The definitions of the package and what each one refers to."""

    def __init__(self):
        self.nodes = {}  # (module, class or None, name) -> its def node
        self.bound = {}  # module -> {name: key of its module-level definition}
        self.aliases = {}  # (module, alias) -> (module, name) of `from .module import`
        self.statements = []  # (module, node) of the other module-level statements
        for path in sorted(SRC.glob("*.py")):
            if path.name == "__init__.py":
                continue
            module, tree = path.stem, ast.parse(path.read_text())
            bound = self.bound.setdefault(module, {})
            for node in tree.body:
                if isinstance(node, DEFS):
                    bound[node.name] = key = (module, None, node.name)
                    self.nodes[key] = node
                    if isinstance(node, ast.ClassDef):
                        for method in node.body:
                            if isinstance(method, DEFS):
                                self.nodes[(module, node.name, method.name)] = method
                else:  # imports and docstrings hold no name to follow
                    self.statements.append((module, node))
            for node in ast.walk(tree):  # imports inside functions too
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        self.aliases[(module, alias.asname or alias.name)] = \
                            (node.module, alias.name)

    def named(self, name: str) -> set:
        """Every definition called `name`: a function, class or method."""
        return {key for key in self.nodes if key[2] == name}

    def methods(self, name: str) -> set:
        return {key for key in self.nodes if key[1] is not None and key[2] == name}

    def resolve(self, module: str, name: str) -> set:
        """The module-level definition `name` is bound to in `module`."""
        while name not in self.bound.get(module, {}) and (module, name) in self.aliases:
            module, name = self.aliases[(module, name)]
        key = self.bound.get(module, {}).get(name)
        return {key} if key else set()

    def refers(self, module: str, node) -> set:
        """The definitions the names and attributes in `node` reach."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out |= self.resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute):
                out |= self.methods(sub.attr)
        return out

    def reach(self, roots: set) -> set:
        """The definitions reached from `roots`, the roots included."""
        seen, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            module, owner, name = key
            node = self.nodes[key]
            if isinstance(node, ast.ClassDef):
                parts = [*node.decorator_list, *node.bases, *node.keywords]
                parts += [stmt for stmt in node.body if not isinstance(stmt, DEFS)]
                todo += [(module, name, m.name) for m in node.body
                         if isinstance(m, DEFS) and m.name.startswith("__")
                         and m.name.endswith("__")]
            else:
                parts = [node]
            for part in parts:
                todo += self.refers(module, part)
        return seen

    def roots(self) -> set:
        """The module-level statements' references, and every definition
        named by a name, attribute or identifier string of perfbench."""
        out = set()
        for module, node in self.statements:
            out |= self.refers(module, node)
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            for sub in ast.walk(ast.parse(path.read_text())):
                if isinstance(sub, ast.Name):
                    out |= self.named(sub.id)
                elif isinstance(sub, ast.Attribute):
                    out |= self.named(sub.attr)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                        and sub.value.isidentifier():
                    out |= self.named(sub.value)
        return out

    def kept(self, methods: bool) -> dict[str, set]:
        """Each KEPT (KEPT_METHODS) entry and the definitions it names."""
        if methods:
            return {entry: {key for key in self.nodes
                            if key[1] is not None and f"{key[1]}.{key[2]}" == entry}
                    for entry in KEPT_METHODS}
        return {entry: {key for key in self.named(entry) if key[1] is None}
                for entry in KEPT}


def _check(methods: bool):
    inv = Inventory()
    base = inv.reach(inv.roots())
    kept = inv.kept(methods)
    every_kept = set().union(*inv.kept(False).values(), *inv.kept(True).values())
    reached = inv.reach(base | every_kept)
    label = lambda key: ".".join(k for k in key if k)
    unreached = sorted(label(key) for key in inv.nodes
                       if key not in reached and (key[1] is not None) == methods)
    stale = sorted(entry for entry, keys in kept.items() if not keys or keys & base)
    assert not unreached and not stale, (
        f"definitions no root reaches: {unreached}; KEPT entries that name "
        f"nothing or that the package reaches without KEPT: {stale}")


def test_every_public_entry_point_has_a_caller_or_a_reason():
    _check(methods=False)


def test_every_public_method_has_a_caller_or_a_reason():
    _check(methods=True)
