"""Every public top-level name of the package is exported or referenced."""

import ast

import latticedress

from conftest import REPO_ROOT

SRC = sorted((REPO_ROOT / "src" / "latticedress").glob("*.py"))
BENCH = sorted((REPO_ROOT / "perfbench").rglob("*.py"))


def test_every_public_name_is_exported_or_referenced():
    # referenced: loaded, reached as an attribute or imported in src/ or perfbench/
    trees = {p: ast.parse(p.read_text()) for p in SRC + BENCH}
    used = set(latticedress.__all__)
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):   # x.name, import name
            used.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    unused = []
    for path in SRC:
        for node in trees[path].body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
            unused += [f"{path.stem}.{n}" for n in names
                       if not n.startswith("_") and n not in used]
    assert unused == []
