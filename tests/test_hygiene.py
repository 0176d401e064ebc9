"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import symmetroid

PACKAGE = Path(symmetroid.__file__).resolve().parent


def _unused_imports(tree, allowed=()):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in allowed)


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _unused_imports(tree, _exported(tree)):
            found.append("%s:%d imports %s" % (path.name, line, name))
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_unused_and_exported_names():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "__all__ = ['lcm']\nprint(os.sep)\n")
    assert _unused_imports(tree, _exported(tree)) == [(2, "gcd")]
