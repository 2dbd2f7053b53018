"""Static checks over the package and its tests.

An imported name that the module never uses is an error, except on a line
marked `# noqa: F401` (a binding kept on purpose) or when the module lists
the name in `__all__`.  So is a module-level UPPER_CASE constant of the
package that no code of the repository reads.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ymtorus").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(path):
    """(line, name) of every import binding in `path` that nothing reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_sees_the_package_and_the_tests():
    names = {path.name for path in SOURCES}
    assert {"lattice.py", "energy.py", "conftest.py", "test_hygiene.py"} <= names


def test_every_import_is_used():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in SOURCES for line, name in unused_imports(path)]
    assert found == []


def unread_constants():
    """module.NAME of every module-level UPPER_CASE assignment in the package
    that no Name or attribute in READERS loads."""
    defined = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    defined.append((target.id, "%s.%s" % (path.stem, target.id)))
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(where for name, where in defined if name not in read)


def test_scan_sees_the_constants():
    names = {path.name for path in READERS}
    assert {"lattice.py", "test_hygiene.py", "demo_maxwell_waves.py", "tracer.py",
            "test_perfbench.py"} <= names


def test_every_constant_is_read():
    assert unread_constants() == []
