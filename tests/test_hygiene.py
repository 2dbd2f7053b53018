"""Static checks over the package and its tests.

An imported name that the module never uses is an error, except on a line
marked `# noqa: F401` (a binding kept on purpose) or when the module lists
the name in `__all__`.  So is a module-level UPPER_CASE constant of the
package that no code of the repository reads, a function, class or
method of the package that no code of the repository loads by name (or
that the benchmark's tracer names in a string), a config key of
driver.SCHEMA that the package never reads, and a float(), int() or
.split() applied to a config read in the package: the schema is the one
place where config text becomes values.  A definition that only tests
load is listed in TEST_ONLY with the criterion or paper identity it checks.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ymtorus").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"  # names its targets in strings


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


def loads(readers=READERS, strings=False):
    """Every name that a Name or an attribute in `readers` loads, plus with
    `strings` each dot-separated part of every string constant of TRACER."""
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (strings and path == TRACER and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.update(node.value.split("."))
    return read


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
    read = loads()
    return sorted(where for name, where in defined if name not in read)


def definitions(package=PACKAGE):
    """(name, where) of every module-level function and class of the package,
    where = module.name, and of every method but the dunders (Python calls
    those), where = module.Class.name."""
    found = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, "%s.%s" % (path.stem, node.name)))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, "%s.%s.%s" % (path.stem, node.name, item.name))
                          for item in node.body if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")]
    return found


def unread_definitions(package=PACKAGE, readers=READERS):
    """where of every definition of `package` that no Name or attribute in
    `readers` loads and no string constant of TRACER names."""
    read = loads(readers, strings=True)
    return sorted(where for name, where in definitions(package) if name not in read)


# Definitions that only tests load, each with the acceptance criterion (C1-C10)
# or the paper identity that its test checks.
TEST_ONLY = {
    "algebra.u1_mismatched_toy": "equivariance",  # its negative control
    "clifford.anticommutator_table": "C1",
    "clifford.clifford_mul": "Clifford-symmetry",
    "clifford.spin_inner": "C1",
    "clifford.spin_inner_pos": "positivity",
    "conformal.conformal_residual_check": "C9",
    "constraints.observed_order": "C3",
    "constraints.operator_symmetry_defect": "C3",  # the Gauss solve's operator
    "dynamics.principal_symbol": "C2",
    "dynamics.principal_symbol_dtau": "C2",
    "energy.norm_evolution_ratio": "C4",
    "geometry.isotropic": "FRW",
    "geometry.polynomial_b": "C10",
    "geometry.riemann_components": "C10",
    "lattice.load_state": "snapshots",  # the model check of a saved state
}


def test_scan_sees_the_constants():
    names = {path.name for path in READERS}
    assert {"lattice.py", "test_hygiene.py", "demo_maxwell_waves.py", "tracer.py",
            "test_perfbench.py"} <= names


def test_every_constant_is_read():
    assert unread_constants() == []


def test_definition_scan_sees_methods_and_tracer_targets():
    found = definitions()
    assert {("frame", "geometry.Background.frame"), ("Frame", "geometry.Frame"),
            ("rhs", "dynamics.rhs")} <= set(found)
    assert not any(name.startswith("__") for name, _ in found)
    assert {"FieldState", "lincomb", "prepare_initial_state", "evolve"} <= loads(strings=True)


def test_every_definition_is_read():
    assert unread_definitions() == []


def test_a_name_in_a_string_outside_the_tracer_is_unread(tmp_path):
    module, reader = tmp_path / "module.py", tmp_path / "reader.py"
    module.write_text("def only_named(): pass\n\ndef called(): pass\n")
    reader.write_text('NAME = "module.only_named"\ncalled()\n')
    assert unread_definitions([module], [module, reader]) == ["module.only_named"]


def test_only_the_listed_definitions_are_read_by_tests_alone():
    tests = ROOT / "tests"
    assert unread_definitions(readers=[path for path in READERS
                                       if tests not in path.parents]) == sorted(TEST_ONLY)


def config_reads(tree):
    """(node, (section, key)) of every cfg[section, key], cfg.get(section, key)
    and cfg.value(section, key) in `tree`; the pair is None where it is not
    spelled as two string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg":
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else []
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "cfg"
              and node.func.attr in ("get", "value")):
            args = node.args
        else:
            continue
        pair = tuple(a.value for a in args[:2] if isinstance(a, ast.Constant))
        yield node, pair if len(pair) == 2 else None


def conversions(tree):
    """Line of every float(), int() or .split() applied to a config read."""
    reads = dict(config_reads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) in ("float", "int"):
                subjects = node.args[:1]
            elif getattr(node.func, "attr", None) == "split":
                subjects = [node.func.value]
            else:
                continue
            if any(subject in reads for subject in subjects):
                yield node.lineno


def config_scan():
    """(the (section, key) pairs the package reads, "file:line" of every
    conversion of a config read)."""
    read, converted = set(), []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {pair for _, pair in config_reads(tree) if pair}
        converted += ["%s:%d" % (path.relative_to(ROOT), line) for line in conversions(tree)]
    return read, converted


def test_config_scan_sees_reads_and_conversions():
    tree = ast.parse('n = int(cfg["grid", "n"])\ns = cfg.get("initial", "sectors").split(",")\n'
                     'x = float(cfg.value("numerics", "cfl"))\ny = float(other["a", "b"])\n'
                     'z = cfg.value("numerics", "dtau")\n')
    assert {pair for _, pair in config_reads(tree)} == {
        ("grid", "n"), ("initial", "sectors"), ("numerics", "cfl"), ("numerics", "dtau")}
    assert sorted(conversions(tree)) == [1, 2, 3]


def test_every_config_key_is_read():
    from ymtorus import driver

    read, _ = config_scan()
    assert sorted(set(driver.SCHEMA) - read) == []


def test_no_config_value_is_converted_outside_the_schema():
    _, converted = config_scan()
    assert converted == []
