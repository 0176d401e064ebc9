"""Source hygiene: no module of the package imports a name it never uses,
and no top-level function or class of the package, nor any method of its
classes, goes unreferenced by the package, unless it is listed in
``TEST_ONLY``."""

import ast
from collections import Counter
from pathlib import Path

import symmetroid

PACKAGE = Path(symmetroid.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# (module, qualified name) of the definitions that only tests reference:
# ``holds_at`` is public API, since a certificate answers for one prime at
# a time; the benchmark's tracer wraps the polys two by name, so they go
# once it no longer does; it wraps ``smith_divisors`` by name too, which
# stays as the exact route a small lattice's certificate can be
# rechecked by
TEST_ONLY = {("nullstellensatz", "EmptinessCertificate.holds_at"),
             ("polys", "poly_matrix_det"), ("polys", "MultiPoly.evaluate"),
             ("linalg", "smith_divisors")}


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


def _references(node, attributes_only=False):
    """Names read, attribute names and imported names under an AST node;
    only the attribute names with ``attributes_only``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _definitions(tree):
    """(qualified name, node) of the top-level functions and classes of a
    module and of the methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (node.name, sub.name), sub


def _unreferenced_defs(modules, other_trees=()):
    """(module, name) of top-level defs and classes of ``modules`` (a dict
    name -> tree), and of methods of those classes, that no tree
    references outside their own definition.  A method counts as
    referenced only through attribute access, so a local or a function
    of the same name does not keep it alive.  Dunders and names in any
    module's __all__ are exempt."""
    refs = {False: Counter(), True: Counter()}
    exported = set()
    for tree in list(modules.values()) + list(other_trees):
        for attributes_only, counter in refs.items():
            counter.update(_references(tree, attributes_only))
    for tree in modules.values():
        exported |= _exported(tree)
    found = []
    for mod, tree in sorted(modules.items()):
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") \
                    or name in exported:
                continue
            method = "." in qualname
            if refs[method][name] == _references(node, method)[name]:
                found.append((mod, qualname))
    return found


def test_no_unreferenced_top_level_defs():
    # tests do not count as references: a definition only tests use fails
    # here unless TEST_ONLY lists it, and an entry of TEST_ONLY that the
    # package uses, or that no test uses, fails too
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    tests = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(TESTS.glob("*.py"))]
    found = set(_unreferenced_defs(modules))
    assert found == TEST_ONLY, "test-only definitions, TEST_ONLY:\n" + (
        "\n".join("%s.%s" % item for item in sorted(found ^ TEST_ONLY)))
    assert not _unreferenced_defs(modules, tests)


def test_def_scan_ignores_self_reference():
    mod = ast.parse("def used():\n    return 1\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "class Kept:\n"
                    "    def __init__(self):\n        self.go()\n\n"
                    "    def go(self):\n        pass\n\n"
                    "    def idle(self):\n        return self.idle()\n\n"
                    "    def shift(self):\n        pass\n\n"
                    "def Public():\n    shift = 2\n    return shift\n\n"
                    "__all__ = ['Public']\n\n"
                    "def __getattr__(name):\n    return used\n")
    # a local named like a dead method does not reference the method
    other = ast.parse("from mod import Kept\nshift = 1\nprint(shift)\n")
    assert _unreferenced_defs({"mod": mod}, [other]) == [
        ("mod", "recursive"), ("mod", "Kept.idle"), ("mod", "Kept.shift")]


def test_benchmark_trace_targets_resolve():
    # perfbench's tracer wraps these by name; a rename would drop a
    # per-layer metric without any error
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "pb_workload", TESTS.parent / "perfbench" / "pb_workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    missing = []
    for module, attr, _ in workload.LAYER_TARGETS:
        mod = importlib.import_module("symmetroid." + module)
        if not callable(getattr(mod, attr, None)):
            missing.append("%s.%s" % (module, attr))
    assert not missing, "trace targets not found:\n" + "\n".join(missing)
