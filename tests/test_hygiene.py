"""Static checks over the package and its tests.

An imported name that the module never uses is an error, except on a line
marked `# noqa: F401` (a binding kept on purpose) or when the module lists
the name in `__all__`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ymtorus").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
