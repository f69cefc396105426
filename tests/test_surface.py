"""Every public top-level name in src/maxreg is named by the package or by
the benchmark: a function, class or constant that only tests reach is
library surface that no command runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "maxreg").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# public names kept although nothing in the package or the benchmark names
# them, each with its reason
KEEP = {
    "read_field": "reads back write_field's files; the lossless field format "
                  "(ROADMAP item 5) replaces the format and its readers together",
    "read_half_field": "reads back write_half_field's files; replaced with the "
                       "field format (ROADMAP item 5)",
}


def _definitions(tree):
    """(name, node) of each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def _named(node) -> set:
    """The identifiers a top-level statement names: variables, attributes,
    imported names and the words of its strings (the benchmark hooks some
    functions by their names as strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return out


def unused_public_names(package=PACKAGE, users=BENCH) -> list:
    """'module.name' of each public top-level definition in package that no
    other top-level statement of package or users names."""
    trees = {path: ast.parse(path.read_text()) for path in [*package, *users]}
    statements = [(node, _named(node)) for tree in trees.values() for node in tree.body]
    return [f"{path.stem}.{name}"
            for path in package for name, node in _definitions(trees[path])
            if not any(name in named for other, named in statements if other is not node)]


def test_every_public_name_is_used_outside_the_tests():
    """Only the names of the keep-list are unused, and each of them still is."""
    unused = [name.rsplit(".", 1)[-1] for name in unused_public_names()]
    extra = sorted(set(unused) - set(KEEP))
    assert extra == [], "public names that only tests reach: " + ", ".join(extra)
    assert sorted(unused) == sorted(KEEP)
